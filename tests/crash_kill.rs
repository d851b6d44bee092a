//! Crash consistency against a real crash: the `potemkin snapshot` binary
//! is SIGKILLed mid-run, and `potemkin restore` must then either finish
//! exactly as the uninterrupted run did or fail with a one-line error. It
//! must never panic, and never report success with different results.
//!
//! The kill instants are the run's start and seeded samples across it, plus
//! one kill the moment a checkpoint's temp file appears while an older
//! checkpoint exists — inside the write window, after the primary was
//! rotated away.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// A small sharded replay: one simulated second in four windows, a
/// checkpoint after each, a few MB per checkpoint.
const SCENARIO: [&str; 10] =
    ["--duration", "1", "--window-ms", "250", "--cells", "4", "--servers", "1", "--workers", "2"];

/// The rows a restore must reproduce: the stream digest covers every
/// event each cell ran and the merged report.
const ROWS: [&str; 2] = ["windows executed", "stream digest"];

/// A fresh scratch directory under the system temp dir.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("potemkin-kill-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn potemkin(command: &str, dir: &Path, extra: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_potemkin"));
    cmd.arg(command).args(SCENARIO).args(extra).current_dir(dir);
    cmd
}

/// Starts a run that checkpoints to `dir/run.snap` at every window.
fn spawn_snapshot(dir: &Path) -> Child {
    potemkin("snapshot", dir, &["--every-windows", "1", "--out", "run.snap"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn potemkin snapshot")
}

/// The values of [`ROWS`] in a checkpointed-run table.
fn rows(out: &Output) -> Vec<String> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    ROWS.iter()
        .map(|label| {
            stdout
                .lines()
                .find_map(|line| line.strip_prefix(label).filter(|rest| rest.starts_with("  ")))
                .unwrap_or_else(|| panic!("no {label:?} row in:\n{stdout}"))
                .trim()
                .to_string()
        })
        .collect()
}

/// Restores from whatever the killed run left in `dir` and checks the
/// outcome against `expected`. Returns whether the restore succeeded.
fn restore_matches_or_fails_cleanly(dir: &Path, expected: &[String], what: &str) -> bool {
    let out = potemkin("restore", dir, &["--every-windows", "0", "--from", "run.snap"])
        .output()
        .expect("run potemkin restore");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_ne!(out.status.code(), Some(101), "{what}: restore panicked: {stderr}");
    if out.status.success() {
        assert_eq!(rows(&out), expected, "{what}: restore reported different results");
    } else {
        assert_eq!(out.status.code(), Some(1), "{what}: {stderr}");
        assert!(stderr.starts_with("error: ") && stderr.lines().count() == 1, "{what}: {stderr}");
    }
    out.status.success()
}

/// SplitMix64: the kill instants' seeded sampler.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[test]
fn a_sigkilled_snapshot_run_restores_to_the_uninterrupted_result_or_fails_cleanly() {
    // The uninterrupted run, timed so the kills can be spread across it.
    let dir = temp_dir("full");
    let start = Instant::now();
    let full = spawn_snapshot(&dir).wait_with_output().expect("full run");
    let run_time = start.elapsed();
    assert!(full.status.success());
    let expected = rows(&full);
    assert!(restore_matches_or_fails_cleanly(&dir, &expected, "after a clean exit"));
    std::fs::remove_dir_all(&dir).expect("clean up");

    // One kill before any checkpoint can exist, then one seeded instant in
    // each third of the run.
    let mut seed = 2005;
    let sampled = (0..3).map(|i| (i as f64 + (splitmix(&mut seed) % 1_000) as f64 / 1e3) / 3.0);
    for (i, fraction) in std::iter::once(0.0).chain(sampled).enumerate() {
        let dir = temp_dir(&format!("sampled{i}"));
        let delay = run_time.mul_f64(fraction);
        let mut child = spawn_snapshot(&dir);
        std::thread::sleep(delay);
        child.kill().expect("SIGKILL");
        child.wait().expect("reap");
        restore_matches_or_fails_cleanly(&dir, &expected, &format!("killed after {delay:?}"));
        std::fs::remove_dir_all(&dir).expect("clean up");
    }

    // Inside the write window: the temp file exists and the previous
    // checkpoint has already been rotated to `.prev`. A fast disk or a
    // loaded machine can close that window between two polls, so allow a
    // few attempts and skip this kill, rather than fail, if none lands.
    let dir = temp_dir("tmp");
    let (tmp, prev) = (dir.join(".run.snap.tmp"), dir.join("run.snap.prev"));
    let mut hit = false;
    for _ in 0..5 {
        // Each attempt starts with no checkpoint on disk.
        let _ = std::fs::remove_file(&prev);
        let _ = std::fs::remove_file(dir.join("run.snap"));
        let mut child = spawn_snapshot(&dir);
        while child.try_wait().expect("poll").is_none() {
            if tmp.exists() && prev.exists() {
                child.kill().expect("SIGKILL");
                hit = true;
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        child.wait().expect("reap");
        if hit {
            break;
        }
    }
    if hit {
        assert!(
            restore_matches_or_fails_cleanly(&dir, &expected, "killed inside the write window"),
            "the rotated previous checkpoint must restore"
        );
    } else {
        eprintln!("note: no attempt caught a checkpoint write in progress; that kill was skipped");
    }
    std::fs::remove_dir_all(&dir).expect("clean up");
}
