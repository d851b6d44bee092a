//! Typed trace events.
//!
//! Every record the observability layer produces is a [`TraceEvent`]: a
//! lane (which component emitted it), a per-lane sequence number, a
//! **sim-time** stamp, an optional wall-clock stamp (bench runs only — it
//! never participates in deterministic digests), and a typed payload.
//!
//! Names are `&'static str` by design: span names are interned in the
//! binary, so recording a span costs two pointer-sized copies and no
//! allocation, and aggregation can group by pointer-identity-stable keys.

use std::num::NonZeroU64;

use potemkin_sim::SimTime;

/// Identifier of one span instance, unique within a lane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub(crate) u64);

/// The typed payload of a trace event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEventKind {
    /// A span opened. `parent` is the innermost span already open on the
    /// same lane, if any.
    SpanBegin {
        /// This span's instance id.
        id: SpanId,
        /// The enclosing open span on the same lane.
        parent: Option<SpanId>,
        /// Interned span name.
        name: &'static str,
    },
    /// A span closed.
    SpanEnd {
        /// The instance id issued by the matching [`TraceEventKind::SpanBegin`].
        id: SpanId,
        /// Interned span name (repeated so ends survive ring overwrite of
        /// their begin).
        name: &'static str,
    },
    /// A point event with a payload value.
    Instant {
        /// Interned event name.
        name: &'static str,
        /// Free-form payload (count, size, flag).
        value: u64,
    },
    /// A sampled counter value.
    Counter {
        /// Interned counter name.
        name: &'static str,
        /// The counter's value at `at`.
        value: u64,
    },
}

/// One recorded observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Which component/worker recorded this (one lane per tracer).
    pub lane: u32,
    /// Monotonic per-lane sequence number; orders events that share a
    /// sim-time stamp.
    pub seq: u64,
    /// Virtual time of the observation.
    pub at: SimTime,
    /// Wall-clock nanoseconds since the tracer was created, when wall-clock
    /// stamping is enabled ([`crate::TraceConfig::wall_clock`]). Excluded
    /// from every deterministic digest. `NonZero` so the `Option` costs no
    /// extra bytes — recording sits on simulation hot paths, and event size
    /// is cache traffic (a 0ns reading is stamped as 1ns).
    pub wall_nanos: Option<NonZeroU64>,
    /// The typed payload.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// The interned name carried by the payload.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self.kind {
            TraceEventKind::SpanBegin { name, .. }
            | TraceEventKind::SpanEnd { name, .. }
            | TraceEventKind::Instant { name, .. }
            | TraceEventKind::Counter { name, .. } => name,
        }
    }
}
