//! The per-component tracer: spans, instants, counters.
//!
//! A [`Tracer`] is either *disabled* — a `None` inner, so every call is a
//! single branch and the subsystem compiles down to no-ops on the hot
//! path — or *enabled*, owning one recording lane exclusively. Components
//! (the farm, its gateway, each shard worker) each hold their own tracer,
//! which is what makes recording lock-free: there is no shared buffer to
//! contend on.
//!
//! Spans are token-based ([`Tracer::begin`] / [`Tracer::end`]): a
//! [`SpanToken`] is `Copy` and borrows nothing, so a span can cover a
//! `&mut self` method body that also needs the tracer.
//!
//! Determinism: a tracer never consults an RNG, never reorders simulation
//! events, and stamps events with the caller-supplied sim-time. Wall-clock
//! stamps are opt-in and excluded from digests. Property tests
//! (`tests/prop_obs.rs`) hold every deterministic report byte-identical
//! with tracing on or off.

use std::time::Instant;

use potemkin_sim::SimTime;

use crate::event::{SpanId, TraceEvent, TraceEventKind};
use crate::recorder::{RecorderMode, RingRecorder};

/// How an enabled tracer records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceConfig {
    /// Retention policy of the lane's ring recorder.
    pub(crate) mode: RecorderMode,
    /// Also stamp events with wall-clock nanoseconds (bench runs only;
    /// never part of deterministic output).
    pub wall_clock: bool,
}

impl TraceConfig {
    /// Flight-recorder retention: keep the newest `capacity` events.
    #[must_use]
    pub fn flight(capacity: usize) -> Self {
        TraceConfig { mode: RecorderMode::Flight { capacity }, wall_clock: false }
    }

    /// Unbounded capture (export/bench runs).
    #[must_use]
    pub fn unbounded() -> Self {
        TraceConfig { mode: RecorderMode::Unbounded, wall_clock: false }
    }

    /// Enables wall-clock stamping.
    #[must_use]
    pub fn with_wall_clock(mut self, on: bool) -> Self {
        self.wall_clock = on;
        self
    }
}

/// Handle to an open span. `Copy`, borrows nothing; pass it back to
/// [`Tracer::end`]. The token from a disabled tracer is inert.
#[derive(Clone, Copy, Debug)]
#[must_use = "end the span with Tracer::end or the interval never closes"]
pub struct SpanToken {
    /// 0 = issued by a disabled tracer (no-op on end).
    id: u64,
    name: &'static str,
}

impl SpanToken {
    const NONE: SpanToken = SpanToken { id: 0, name: "" };
}

struct Inner {
    lane: u32,
    /// Concrete, not a trait object: the per-event record must inline
    /// into simulation hot paths (the recorder-overhead budget in E12 is
    /// what this buys).
    sink: RingRecorder,
    next_seq: u64,
    next_span: u64,
    /// Open spans, innermost last — the parent attribution stack.
    stack: Vec<u64>,
    /// Set when wall-clock stamping is on.
    wall_base: Option<Instant>,
}

/// A per-component trace recorder (see module docs).
pub struct Tracer {
    inner: Option<Box<Inner>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(inner) => f
                .debug_struct("Tracer")
                .field("lane", &inner.lane)
                .field("len", &inner.sink.len())
                .field("open_spans", &inner.stack.len())
                .finish(),
        }
    }
}

impl Tracer {
    /// A tracer that records nothing; every call is one branch.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer { inner: None }
    }

    /// An enabled tracer recording on `lane` into a [`RingRecorder`].
    #[must_use]
    pub fn new(lane: u32, config: TraceConfig) -> Self {
        Tracer {
            inner: Some(Box::new(Inner {
                lane,
                sink: RingRecorder::new(config.mode),
                next_seq: 0,
                next_span: 0,
                stack: Vec::new(),
                wall_base: config.wall_clock.then(Instant::now),
            })),
        }
    }

    /// Whether this tracer records anything.
    #[inline]
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span named `name` at sim-time `now`; its parent is the
    /// innermost span still open on this lane.
    #[inline]
    pub fn begin(&mut self, now: SimTime, name: &'static str) -> SpanToken {
        let Some(inner) = &mut self.inner else { return SpanToken::NONE };
        inner.next_span += 1;
        let id = inner.next_span;
        let parent = inner.stack.last().copied().map(SpanId);
        inner.stack.push(id);
        let kind = TraceEventKind::SpanBegin { id: SpanId(id), parent, name };
        inner.emit(now, kind);
        SpanToken { id, name }
    }

    /// Closes the span `token` at sim-time `now`. Inert for tokens from a
    /// disabled tracer; out-of-order ends close the named span wherever it
    /// sits on the stack.
    #[inline]
    pub fn end(&mut self, now: SimTime, token: SpanToken) {
        if token.id == 0 {
            return;
        }
        let Some(inner) = &mut self.inner else { return };
        if let Some(pos) = inner.stack.iter().rposition(|&id| id == token.id) {
            inner.stack.remove(pos);
        }
        inner.emit(now, TraceEventKind::SpanEnd { id: SpanId(token.id), name: token.name });
    }

    /// Records a point event.
    #[inline]
    pub fn instant(&mut self, now: SimTime, name: &'static str, value: u64) {
        if let Some(inner) = &mut self.inner {
            inner.emit(now, TraceEventKind::Instant { name, value });
        }
    }

    /// Records a counter sample.
    #[inline]
    pub fn counter(&mut self, now: SimTime, name: &'static str, value: u64) {
        if let Some(inner) = &mut self.inner {
            inner.emit(now, TraceEventKind::Counter { name, value });
        }
    }

    /// Removes and returns every retained event, oldest first. Empty for a
    /// disabled tracer.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.inner.as_mut().map_or_else(Vec::new, |i| i.sink.drain())
    }
}

impl Inner {
    #[inline]
    fn emit(&mut self, at: SimTime, kind: TraceEventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let wall_nanos = self.wall_base.map(|base| {
            let nanos = u64::try_from(base.elapsed().as_nanos()).unwrap_or(u64::MAX);
            // 0ns readings stamp as 1ns: the field is NonZero to keep the
            // event small (see `TraceEvent::wall_nanos`).
            std::num::NonZeroU64::new(nanos.max(1)).expect("max(1) is non-zero")
        });
        self.sink.record(TraceEvent { lane: self.lane, seq, at, wall_nanos, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        let sp = t.begin(SimTime::ZERO, "root");
        t.instant(SimTime::ZERO, "i", 1);
        t.end(SimTime::from_secs(1), sp);
        assert!(!t.is_enabled());
        assert!(t.drain().is_empty());
    }

    #[test]
    fn nesting_attributes_parents() {
        let mut t = Tracer::new(7, TraceConfig::unbounded());
        let outer = t.begin(SimTime::ZERO, "outer");
        let inner = t.begin(SimTime::from_millis(1), "inner");
        t.end(SimTime::from_millis(2), inner);
        t.end(SimTime::from_millis(3), outer);
        let events = t.drain();
        assert_eq!(events.len(), 4);
        assert!(events.iter().all(|e| e.lane == 7));
        let TraceEventKind::SpanBegin { id: outer_id, parent: None, name: "outer" } =
            events[0].kind
        else {
            panic!("unexpected first event: {:?}", events[0]);
        };
        let TraceEventKind::SpanBegin { parent: Some(p), name: "inner", .. } = events[1].kind
        else {
            panic!("unexpected second event: {:?}", events[1]);
        };
        assert_eq!(p, outer_id);
        assert!(t.inner.as_ref().unwrap().stack.is_empty());
    }

    #[test]
    fn wall_clock_stamps_only_when_asked() {
        let mut t = Tracer::new(0, TraceConfig::unbounded());
        t.instant(SimTime::ZERO, "a", 0);
        assert!(t.drain()[0].wall_nanos.is_none());
        let mut t = Tracer::new(0, TraceConfig::unbounded().with_wall_clock(true));
        t.instant(SimTime::ZERO, "a", 0);
        assert!(t.drain()[0].wall_nanos.is_some());
    }
}
