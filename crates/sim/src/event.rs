//! The future-event list: a time-ordered queue of pending events.
//!
//! [`EventQueue`] is a binary heap keyed on `(time, sequence)` so that events
//! scheduled for the same instant are delivered in FIFO scheduling order —
//! a requirement for deterministic simulation.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};

use crate::time::SimTime;

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse to pop the *earliest* entry first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered queue of future events.
///
/// Events at equal timestamps are delivered in the order they were scheduled.
///
/// # Examples
///
/// ```
/// use potemkin_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "later");
/// q.schedule(SimTime::from_secs(1), "sooner");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!(ev, "sooner");
/// assert_eq!(t, SimTime::from_secs(1));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    scheduled: u64,
    depth_high: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, scheduled: 0, depth_high: 0 }
    }

    /// Schedules `event` for delivery at absolute time `at`.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.heap.push(Entry { at, seq, event });
        self.depth_high = self.depth_high.max(self.heap.len());
    }

    /// Removes and returns the earliest event, with its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Returns the timestamp of the earliest pending event without removing
    /// it.
    #[must_use]
    pub(crate) fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Whether the queue has no pending events.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Returns the peak depth since the last call and re-arms the watermark
    /// at the current depth, giving per-window telemetry for the sharded
    /// engine's adaptive controller.
    pub(crate) fn take_depth_high_watermark(&mut self) -> usize {
        std::mem::replace(&mut self.depth_high, self.heap.len())
    }

    /// The queue's encoding — its counters and every pending entry as
    /// `(at, seq, event)`, sorted by `(at, seq)` so the bytes are canonical
    /// regardless of heap layout — with each event written through `event`.
    /// This is the [`Snap`] layout for a queue whose events cannot implement
    /// the trait because their encoding needs context (a slab key that has
    /// to be resolved, say).
    pub fn snap_with(&self, w: &mut SnapWriter, mut event: impl FnMut(&E, &mut SnapWriter)) {
        w.u64(self.next_seq);
        w.u64(self.scheduled);
        let mut entries: Vec<&Entry<E>> = self.heap.iter().collect();
        entries.sort_by_key(|e| (e.at, e.seq));
        w.seq(entries, |e, w| {
            e.at.snap(w);
            w.u64(e.seq);
            event(&e.event, w);
        });
    }

    /// Reads a queue written by [`EventQueue::snap_with`], each event
    /// through `event`. Original sequence numbers are preserved, so FIFO
    /// tie-breaking across the restore boundary is identical to the
    /// uninterrupted run.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Decode`] on truncated input, or whatever `event`
    /// returns.
    pub fn unsnap_with(
        r: &mut SnapReader<'_>,
        mut event: impl FnMut(&mut SnapReader<'_>) -> Result<E, SnapshotError>,
    ) -> Result<Self, SnapshotError> {
        let next_seq = r.u64()?;
        let scheduled = r.u64()?;
        let entries =
            r.seq(|r| Ok(Entry { at: SimTime::unsnap(r)?, seq: r.u64()?, event: event(r)? }))?;
        let heap = BinaryHeap::from(entries);
        let depth_high = heap.len();
        Ok(EventQueue { heap, next_seq, scheduled, depth_high })
    }
}

impl<E: Snap> Snap for EventQueue<E> {
    fn snap(&self, w: &mut SnapWriter) {
        self.snap_with(w, E::snap);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Self::unsnap_with(r, E::unsnap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3), 'c');
        q.schedule(SimTime::from_secs(1), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let order: Vec<char> = core::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn fifo_within_same_timestamp() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(10);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = core::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), "e5");
        q.schedule(SimTime::from_secs(1), "e1");
        assert_eq!(q.pop().unwrap().1, "e1");
        q.schedule(SimTime::from_secs(3), "e3");
        assert_eq!(q.pop().unwrap().1, "e3");
        assert_eq!(q.pop().unwrap().1, "e5");
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.heap.len(), 1);
    }

    #[test]
    fn depth_watermark_tracks_peak_and_rearms() {
        let mut q = EventQueue::new();
        for i in 0..5 {
            q.schedule(SimTime::from_millis(i), i);
        }
        q.pop();
        q.pop();
        assert_eq!(q.depth_high, 5, "peak was before the pops");
        assert_eq!(q.take_depth_high_watermark(), 5);
        // Re-armed at the current depth (3); a push raises it again.
        assert_eq!(q.depth_high, 3);
        q.schedule(SimTime::from_millis(9), 9);
        assert_eq!(q.depth_high, 4);
    }
}
