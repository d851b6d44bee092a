//! What the process and the machine say about themselves: CPU time, peak
//! resident set, and the `machine` block every result carries.

use std::process::Command;

/// The allocator settings of the warm and traced children: the heap is kept
/// between repetitions (no trim, no mmap for large blocks, a padded top), so
/// a repetition after the first touches no fresh pages. Per-thread arenas
/// stay on: `arena_max=1` slows the two-worker run by a third.
pub const WARM_TUNABLES: &str = "glibc.malloc.mmap_threshold=33554432:\
glibc.malloc.trim_threshold=17179869184:glibc.malloc.top_pad=268435456";

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux's process CPU clock with the 64-bit timespec layout");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// User plus system CPU seconds of this process, every thread it ever had
/// included. `/proc/self/stat` counts the same time in 10 ms ticks, too
/// coarse for a repetition of a third of a second; std has no safe reader
/// of this clock.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `clock_gettime` is the libc function std already links; it
    // writes one `timespec`, whose 64-bit Linux layout `Timespec` matches
    // (checked at compile time above), through a pointer to a live local.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock exists on Linux");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// `VmHWM`: the most memory this process ever had resident, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc is mounted");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The machine the numbers were taken on, as `(key, value)` pairs.
pub fn machine() -> Vec<(&'static str, String)> {
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string());
    vec![
        ("available_parallelism", cores().to_string()),
        ("rustc", first_line("rustc", &["-V"])),
        ("profile", if cfg!(debug_assertions) { "debug" } else { "release" }.to_string()),
        ("commit", first_line("git", &["rev-parse", "HEAD"])),
        ("kernel", kernel),
        ("glibc", first_line("getconf", &["GNU_LIBC_VERSION"])),
        ("glibc_tunables", WARM_TUNABLES.to_string()),
    ]
}
