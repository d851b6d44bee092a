//! Where events go once recorded.
//!
//! [`RingRecorder`] is a fixed-capacity overwrite-oldest
//! ring ("flight recorder") that doubles as an unbounded capture buffer.
//! It is lock-free *by construction*: every tracer owns its sink
//! exclusively (`&mut self` recording, one lane per component or worker),
//! so there are no atomics, no locks, and no cross-thread contention on
//! the hot path — sharding happens at the ownership level, exactly like
//! the simulation's per-shard event queues.

use crate::event::TraceEvent;

/// Retention policy for a [`RingRecorder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecorderMode {
    /// Keep at most `capacity` events, overwriting the oldest — the
    /// post-incident "what just happened" buffer. A capacity of zero is
    /// treated as one.
    Flight {
        /// Maximum retained events.
        capacity: usize,
    },
    /// Keep everything (bench/export runs).
    Unbounded,
}

/// Per-lane ring-buffer recorder.
#[derive(Clone, Debug)]
pub struct RingRecorder {
    /// `None` = unbounded capture.
    capacity: Option<usize>,
    buf: Vec<TraceEvent>,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl RingRecorder {
    /// Creates a recorder with the given retention policy.
    #[must_use]
    pub fn new(mode: RecorderMode) -> Self {
        let capacity = match mode {
            RecorderMode::Flight { capacity } => Some(capacity.max(1)),
            RecorderMode::Unbounded => None,
        };
        RingRecorder { capacity, buf: Vec::new(), head: 0, dropped: 0 }
    }

    /// Records one event. Must be cheap: this sits on simulation hot
    /// paths.
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        match self.capacity {
            Some(cap) if self.buf.len() == cap => {
                self.buf[self.head] = event;
                self.head += 1;
                if self.head == cap {
                    self.head = 0;
                }
                self.dropped += 1;
            }
            _ => self.buf.push(event),
        }
    }

    /// Removes and returns every retained event, oldest first.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        self.buf.rotate_left(self.head);
        self.head = 0;
        std::mem::take(&mut self.buf)
    }

    /// Number of events currently retained.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten so far. Never reset by [`RingRecorder::drain`].
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEventKind;
    use potemkin_sim::SimTime;

    fn ev(seq: u64) -> TraceEvent {
        TraceEvent {
            lane: 0,
            seq,
            at: SimTime::from_nanos(seq),
            wall_nanos: None,
            kind: TraceEventKind::Instant { name: "t", value: seq },
        }
    }

    #[test]
    fn unbounded_keeps_everything_in_order() {
        let mut r = RingRecorder::new(RecorderMode::Unbounded);
        for i in 0..100 {
            r.record(ev(i));
        }
        assert_eq!(r.len(), 100);
        assert_eq!(r.dropped(), 0);
        let out = r.drain();
        assert_eq!(out.len(), 100);
        assert!(out.windows(2).all(|w| w[0].seq + 1 == w[1].seq));
        assert!(r.is_empty());
    }

    #[test]
    fn flight_mode_overwrites_oldest() {
        let mut r = RingRecorder::new(RecorderMode::Flight { capacity: 4 });
        for i in 0..10 {
            r.record(ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let out = r.drain();
        let seqs: Vec<u64> = out.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "newest events survive, oldest first");
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut r = RingRecorder::new(RecorderMode::Flight { capacity: 0 });
        r.record(ev(1));
        r.record(ev(2));
        assert_eq!(r.capacity, Some(1));
        assert_eq!(r.drain().last().map(|e| e.seq), Some(2));
    }
}
