//! Tracing from outside the program: spans around the calls this benchmark
//! makes into each layer, and a counting allocator for heap traffic.
//!
//! Nothing here touches a `crates/*` file. Spans are kept in a `Vec` and
//! written as JSONL when the traced child ends; a layer's self time is its
//! span's duration minus the part its child spans cover.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// One closed interval of work, attributed to the span that caused it.
pub struct Span {
    /// 1-based; 0 is "no parent".
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Ids are indices into `spans` plus one.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> u32 {
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span { parent, name, start_ns, end_ns: start_ns });
        let id = self.spans.len() as u32;
        self.open.push(id);
        id
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn end(&mut self, id: u32) -> u64 {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    /// Renames a span once its outcome is known (an inject turns out to
    /// have cloned, or not).
    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize - 1].name = name;
    }

    /// Runs `f` inside a span and returns its result with the duration.
    pub fn timed<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name);
        let out = f();
        (out, self.end(id))
    }

    /// Σ duration and count of the spans called `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, n), s| (ns + (s.end_ns - s.start_ns), n + 1))
    }

    /// Self time of every span: duration minus what its children cover.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != 0 {
                let p = s.parent as usize - 1;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        assert!(self.open.is_empty(), "every span is closed before the trace is written");
        let own = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"workload\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                i + 1,
                s.parent,
                s.name,
                workload,
                s.start_ns,
                s.end_ns,
                own[i]
            )?;
        }
        out.flush()
    }
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two statistics, switched on only in the
/// traced child; otherwise each call costs one `Relaxed` flag load.
pub struct CountingAlloc;

impl CountingAlloc {
    fn note(size: usize) {
        // Relaxed: the counters are statistics and publish no other data.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
            ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every operation is delegated unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the side counters are atomics and never
// re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's obligations for `alloc` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: the caller's obligations for `alloc_zeroed` are passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`; passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap traffic `(bytes, calls)` of `f`, on every thread.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (b0, c0) = (ALLOC_BYTES.load(Ordering::Relaxed), ALLOC_COUNT.load(Ordering::Relaxed));
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    let (b1, c1) = (ALLOC_BYTES.load(Ordering::Relaxed), ALLOC_COUNT.load(Ordering::Relaxed));
    (out, b1 - b0, c1 - c0)
}
