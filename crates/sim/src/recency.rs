//! Keyed slab threaded by a recency list: idle expiry for a table whose
//! entries all share one timeout.
//!
//! The gateway keeps a timeout per flow and per bound address, refreshed by
//! every packet. With one constant timeout and a clock that never runs
//! backwards, the entry refreshed longest ago is also the entry that
//! expires first, so *recency order is expiry order* and no timer structure
//! is needed: [`RecencySlab`] is a `HashMap<K, slot>` over a [`Slab`] whose
//! occupied slots are threaded oldest→newest by a [`SlotList`]. A refresh is
//! one hash probe, a relink to the newest end and two stores (a miss can be
//! an insert on the same probe); a sweep pops from the oldest end while the
//! stored due tick has passed; the capacity victim is that same oldest end.
//!
//! Deadlines are kept in [`SWEEP_TICK`] units, rounded up so nothing
//! expires early, and never before the first tick no sweep has covered yet:
//! an entry is due at `now` iff `max(ceil(deadline / tick), first unswept
//! tick at refresh) <= floor(now / tick)`. Entries that fall due in one
//! sweep leave in `(due tick, refresh sequence)` order — which, both being
//! non-decreasing along the list, is list order. DESIGN.md §13 has the
//! argument and the lifetime rules for slot keys.

use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;
use std::ops::{Index, IndexMut};

use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};

use crate::arena::{link, Links, Slab, Slot, SlotList};
use crate::time::SimTime;

/// Granularity of expiry: deadlines round up to a multiple of this.
pub const SWEEP_TICK: SimTime = SimTime::from_millis(100);

struct Node<K, V> {
    key: K,
    value: V,
    /// Tick from which a sweep expires this entry.
    due: u64,
    /// Refresh sequence number: unique, increasing oldest→newest.
    seq: u64,
}

/// A keyed arena whose entries are ordered by their last refresh.
///
/// Slots are [`Slab`] keys: valid from [`RecencySlab::insert`] until the
/// matching [`RecencySlab::remove`], so a caller may thread further
/// [`SlotList`]s through them (the flow table's per-address chains, the
/// binder's bind-order FIFO). Indexing by a slot that is not live panics.
///
/// # Examples
///
/// ```
/// use potemkin_sim::{RecencySlab, SimTime};
///
/// let mut table = RecencySlab::default();
/// let idle = SimTime::from_secs(5);
/// table.insert("a", SimTime::ZERO + idle, 1u32);
/// table.insert("b", SimTime::ZERO + idle, 2u32);
/// // A packet for "a" at t = 3 s makes "b" the oldest entry.
/// let a = table.refresh(&"a", SimTime::from_secs(3) + idle).unwrap();
/// table[a] += 10;
/// let target = table.sweep(SimTime::from_secs(6)).unwrap();
/// let b = table.oldest_due(target).unwrap();
/// assert_eq!(table.remove(b), ("b", 2));
/// assert_eq!(table.oldest_due(target), None, "\"a\" lives until t = 8 s");
/// ```
pub struct RecencySlab<K, V> {
    index: HashMap<K, u32>,
    nodes: Slab<Node<K, V>>,
    /// Least recently refreshed first.
    order: SlotList,
    links: Vec<Links>,
    /// First tick no sweep has covered; a due tick is never earlier.
    unswept: u64,
    next_seq: u64,
}

impl<K, V> Default for RecencySlab<K, V> {
    fn default() -> Self {
        RecencySlab {
            index: HashMap::new(),
            nodes: Slab::new(),
            order: SlotList::EMPTY,
            links: Vec::new(),
            unswept: 0,
            next_seq: 0,
        }
    }
}

impl<K: Copy + Eq + Hash, V> RecencySlab<K, V> {
    /// Bytes one entry takes in the slab: its key, value and stamp.
    pub const SLOT_BYTES: usize = size_of::<Slot<Node<K, V>>>();

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    fn node(&self, slot: usize) -> &Node<K, V> {
        &self.nodes[slot]
    }

    /// The slot holding `key`, without refreshing it.
    #[must_use]
    pub fn slot(&self, key: &K) -> Option<usize> {
        self.index.get(key).map(|&slot| slot as usize)
    }

    /// The key stored at `slot`.
    #[must_use]
    pub fn key(&self, slot: usize) -> K {
        self.node(slot).key
    }

    /// The `(due tick, refresh sequence)` of `slot`: entries a sweep takes
    /// leave in ascending order of it.
    #[must_use]
    pub fn stamp(&self, slot: usize) -> (u64, u64) {
        (self.node(slot).due, self.node(slot).seq)
    }

    /// The tick an entry with this `deadline`, set now, becomes due at.
    #[must_use]
    pub fn due_tick(&self, deadline: SimTime) -> u64 {
        deadline.as_nanos().div_ceil(SWEEP_TICK.as_nanos()).max(self.unswept)
    }

    /// Links `slot`, stamped `due`, in at the newest end.
    fn link_newest(&mut self, slot: usize, due: u64) {
        debug_assert!(
            self.nodes.get(self.order.last as usize).is_none_or(|newest| newest.due <= due),
            "a table's clock must not run backwards"
        );
        self.order.push_last(&mut self.links, slot);
    }

    /// The due tick and sequence number of a refresh made now. The tick is
    /// never before the newest entry's, so the list stays in due order even
    /// when a restored checkpoint's stamps run ahead of the clock: such an
    /// entry expires late, never early.
    fn next_stamp(&mut self, deadline: SimTime) -> (u64, u64) {
        let newest = self.nodes.get(self.order.last as usize).map_or(0, |n| n.due);
        self.next_seq += 1;
        (self.due_tick(deadline).max(newest), self.next_seq - 1)
    }

    /// Restamps the live entry at `slot` and moves it to the newest end.
    fn restamp(&mut self, slot: usize, (due, seq): (u64, u64)) {
        let node = self.nodes.get_mut(slot).expect("slot is live");
        (node.due, node.seq) = (due, seq);
        self.order.unlink(&mut self.links, slot);
        self.link_newest(slot, due);
    }

    /// Makes `key` the newest entry with a new `deadline`. Returns its slot,
    /// or `None` when the key is not present.
    pub fn refresh(&mut self, key: &K, deadline: SimTime) -> Option<usize> {
        let slot = self.slot(key)?;
        let stamp = self.next_stamp(deadline);
        self.restamp(slot, stamp);
        Some(slot)
    }

    /// [`RecencySlab::refresh`] of `key`, or when it is not present
    /// [`RecencySlab::insert`] of `make()` under it, on one hash probe.
    /// Returns the slot and whether the entry is new.
    pub fn refresh_or_insert(
        &mut self,
        key: K,
        deadline: SimTime,
        make: impl FnOnce() -> V,
    ) -> (usize, bool) {
        let stamp = self.next_stamp(deadline);
        match self.index.entry(key) {
            Entry::Occupied(at) => {
                let slot = *at.get() as usize;
                self.restamp(slot, stamp);
                (slot, false)
            }
            Entry::Vacant(at) => {
                let (due, seq) = stamp;
                let slot = self.nodes.insert(Node { key, value: make(), due, seq });
                at.insert(link(slot));
                self.link_newest(slot, due);
                (slot, true)
            }
        }
    }

    /// Stores `value` under `key` as the newest entry and returns its slot.
    ///
    /// # Panics
    ///
    /// Panics if `key` is already present: the tables built on this type
    /// look a key up before they insert it.
    pub fn insert(&mut self, key: K, deadline: SimTime, value: V) -> usize {
        let (slot, new) = self.refresh_or_insert(key, deadline, || value);
        assert!(new, "key inserted twice");
        slot
    }

    /// Removes the entry at `slot`, vacating it for reuse.
    pub fn remove(&mut self, slot: usize) -> (K, V) {
        let node = self.nodes.remove(slot).expect("slot is live");
        self.order.unlink(&mut self.links, slot);
        self.index.remove(&node.key);
        (node.key, node.value)
    }

    /// The live slots, least recently refreshed first.
    pub fn slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.order.iter(&self.links)
    }

    /// Starts a sweep up to virtual time `now`: returns the last tick it
    /// covers, or `None` when every tick up to `now` was swept before (and
    /// so nothing can be due).
    pub fn sweep(&mut self, now: SimTime) -> Option<u64> {
        let target = now / SWEEP_TICK;
        if target < self.unswept {
            return None;
        }
        self.unswept = target + 1;
        Some(target)
    }

    /// The oldest entry, if a sweep covering `target` expires it. Removing
    /// it and asking again walks every due entry in expiry order.
    #[must_use]
    pub fn oldest_due(&self, target: u64) -> Option<usize> {
        self.slots().next().filter(|&slot| self.node(slot).due <= target)
    }
}

impl<K: Copy + Eq + Hash, V> Index<usize> for RecencySlab<K, V> {
    type Output = V;

    fn index(&self, slot: usize) -> &V {
        &self.node(slot).value
    }
}

impl<K: Copy + Eq + Hash, V> IndexMut<usize> for RecencySlab<K, V> {
    fn index_mut(&mut self, slot: usize) -> &mut V {
        &mut self.nodes.get_mut(slot).expect("slot is live").value
    }
}

/// The entries oldest→newest — key, value, due tick, refresh sequence —
/// then the first unswept tick and the next sequence number. The list and
/// the index are rebuilt from that order; slots are not stable across a
/// restore. A repeated key, a due tick or sequence number out of list
/// order, or a sequence number the counter has not reached yet is a decode
/// error.
impl<K: Snap + Copy + Eq + Hash, V: Snap> Snap for RecencySlab<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.seq(self.slots().collect::<Vec<_>>(), |slot, w| {
            let node = self.node(slot);
            node.key.snap(w);
            node.value.snap(w);
            w.u64(node.due);
            w.u64(node.seq);
        });
        w.u64(self.unswept);
        w.u64(self.next_seq);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut table = RecencySlab::default();
        for _ in 0..r.seq_len()? {
            let (key, value, due, seq) = (K::unsnap(r)?, V::unsnap(r)?, r.u64()?, r.u64()?);
            let newest = table.nodes.get(table.order.last as usize);
            if newest.is_some_and(|n| n.due > due || n.seq >= seq) || table.slot(&key).is_some() {
                return Err(r.bad());
            }
            let slot = table.nodes.insert(Node { key, value, due, seq });
            table.index.insert(key, link(slot));
            table.link_newest(slot, due);
        }
        table.unswept = r.u64()?;
        table.next_seq = r.u64()?;
        if table.nodes.get(table.order.last as usize).is_some_and(|n| n.seq >= table.next_seq) {
            return Err(r.bad());
        }
        Ok(table)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    /// Sweeps to `now` and removes everything due, in expiry order.
    fn expire<V>(table: &mut RecencySlab<u32, V>, now: SimTime) -> Vec<V> {
        let mut out = Vec::new();
        if let Some(target) = table.sweep(now) {
            while let Some(slot) = table.oldest_due(target) {
                out.push(table.remove(slot).1);
            }
        }
        out
    }

    #[test]
    fn expires_at_or_after_the_deadline_never_before() {
        let mut t = RecencySlab::default();
        t.insert(1, ms(1_000), 'a');
        assert!(expire(&mut t, ms(999)).is_empty());
        assert_eq!(expire(&mut t, ms(1_000)), vec!['a']);
        assert!(t.is_empty());
    }

    #[test]
    fn deadline_rounds_up_to_the_tick() {
        let mut t = RecencySlab::default();
        t.insert(1, ms(150), 'a');
        assert!(expire(&mut t, ms(199)).is_empty(), "not yet: rounds to 200 ms");
        assert_eq!(expire(&mut t, ms(200)), vec!['a']);
    }

    #[test]
    fn a_deadline_in_a_swept_tick_waits_for_the_next_one() {
        let mut t = RecencySlab::default();
        assert!(expire(&mut t, ms(10_000)).is_empty());
        t.insert(1, ms(5_000), 'x');
        assert!(expire(&mut t, ms(10_050)).is_empty(), "tick 100 was already swept");
        assert_eq!(expire(&mut t, ms(10_100)), vec!['x']);
        // Sweeping to an earlier time is a no-op, not a rewind.
        assert_eq!(t.sweep(ms(5_000)), None);
    }

    #[test]
    fn a_stamp_ahead_of_the_clock_delays_later_entries_and_never_reorders_them() {
        // As a restored checkpoint whose stamps run ahead of the resumed
        // clock leaves the table: the newest entry is due at 1 h.
        let mut t = RecencySlab::default();
        t.insert(1, SimTime::from_hours(1), 'a');
        t.insert(2, ms(500), 'b');
        assert!(expire(&mut t, ms(1_000)).is_empty(), "b waits behind a");
        assert_eq!(expire(&mut t, SimTime::from_hours(1)), vec!['a', 'b']);
    }

    #[test]
    fn refresh_moves_an_entry_behind_the_others() {
        let mut t = RecencySlab::default();
        for (key, value) in [(1, 'a'), (2, 'b'), (3, 'c')] {
            t.insert(key, ms(1_000), value);
        }
        let a = t.refresh(&1, ms(1_500)).unwrap();
        assert_eq!(t[a], 'a');
        assert_eq!(t.refresh(&9, ms(1_500)), None);
        assert_eq!(t.slots().map(|slot| t[slot]).collect::<Vec<_>>(), vec!['b', 'c', 'a']);
        // Refreshing the newest entry keeps the order.
        t.refresh(&1, ms(1_600));
        assert_eq!(t.slots().map(|slot| t.key(slot)).collect::<Vec<_>>(), vec![2, 3, 1]);
        assert_eq!(expire(&mut t, ms(1_000)), vec!['b', 'c']);
        assert_eq!(expire(&mut t, ms(1_600)), vec!['a']);
    }

    #[test]
    fn removed_entries_never_expire_and_slots_are_reused() {
        let mut t = RecencySlab::default();
        let a = t.insert(1, ms(100), 'a');
        t.insert(2, ms(100), 'b');
        assert_eq!(t.remove(a), (1, 'a'));
        assert_eq!(t.slot(&1), None);
        assert_eq!(t.insert(3, ms(100), 'c'), a, "the vacated slot is recycled");
        assert_eq!(expire(&mut t, ms(100)), vec!['b', 'c']);
    }

    #[test]
    fn refresh_or_insert_is_refresh_else_insert() {
        let (mut one, mut two) = (RecencySlab::default(), RecencySlab::default());
        // Keys repeat, so hits and misses interleave; a sweep and a removal
        // on the way move the first unswept tick and vacate a slot.
        for (step, key) in [3u32, 1, 3, 4, 1, 1, 9, 4, 3, 7, 9].into_iter().enumerate() {
            if step == 5 {
                assert_eq!(expire(&mut one, ms(500)), expire(&mut two, ms(500)));
                let (a, b) = (one.slot(&1).unwrap(), two.slot(&1).unwrap());
                assert_eq!(one.remove(a), two.remove(b));
            }
            let deadline = ms(100 * step as u64 + 250);
            let value = u64::from(key) * 10;
            let (slot, new) = one.refresh_or_insert(key, deadline, || value);
            let other = match two.refresh(&key, deadline) {
                Some(slot) => (slot, false),
                None => (two.insert(key, deadline, value), true),
            };
            assert_eq!((slot, new), other, "step {step}");
            // One stamp a step, by the due rule: ceil(deadline / tick) is
            // past every tick swept so far.
            assert_eq!(one.stamp(slot), (step as u64 + 3, step as u64));
            assert_eq!(one.stamp(slot), two.stamp(other.0));
            assert_eq!(one.slots().collect::<Vec<_>>(), two.slots().collect::<Vec<_>>());
        }
        assert_eq!(one.to_bytes(), two.to_bytes());
    }

    #[test]
    fn snapshot_round_trips_and_rejects_a_repeated_key() {
        let mut t: RecencySlab<u32, u64> = RecencySlab::default();
        t.insert(7, ms(300), 70);
        t.insert(8, ms(300), 80);
        t.sweep(ms(100));
        t.refresh(&7, ms(450));
        let bytes = t.to_bytes();
        let back = RecencySlab::<u32, u64>::from_bytes(&bytes, "table").unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(
            back.slots().map(|s| (back.key(s), back[s])).collect::<Vec<_>>(),
            [(8, 80), (7, 70)]
        );
        assert_eq!(back.stamp(back.slot(&7).unwrap()), (5, 2));

        // Two records, the second rewritten to carry the first one's key.
        let record = 4 + 8 + 8 + 8;
        let mut twice = bytes.clone();
        twice.copy_within(8..12, 8 + record);
        assert!(RecencySlab::<u32, u64>::from_bytes(&twice, "table").is_err());
    }
}
