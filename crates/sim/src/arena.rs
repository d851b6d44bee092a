//! Slab arena with freelist reuse for hot-path event payloads, and lists
//! threaded through its keys.
//!
//! [`Slab`] stores values in a flat `Vec` of slots and recycles vacated slots
//! through an intrusive freelist, so a steady-state insert/remove workload
//! performs no heap allocation once the slab has grown to its high-watermark.
//! Keys are plain `usize` indices; the sharded engine uses them to keep large
//! payloads (packets) out of `EventQueue` entries — events carry a slab key
//! instead of a `Box`, and the payload slot is reused as soon as the event is
//! consumed.
//!
//! Lifetime rules (documented in DESIGN.md §13): a key is valid from
//! [`Slab::insert`] until the matching [`Slab::remove`]; removing twice or
//! probing a vacated slot yields `None`, never a stale value, because slots
//! are emptied on removal. Keys are *not* stable across
//! snapshot/restore — checkpoint codecs serialize the payloads themselves and
//! re-insert on restore, re-keying events in canonical queue order.

/// The key no slot ever has: the end marker of the freelist and of every
/// [`SlotList`].
pub const NO_SLOT: usize = usize::MAX;

/// A key's neighbours in a [`SlotList`] ([`NO_SLOT`] at either end).
#[derive(Clone, Copy, Debug)]
pub struct Links {
    /// The key before this one.
    pub(crate) prev: usize,
    /// The key after this one.
    pub(crate) next: usize,
}

/// The ends of a doubly linked list threaded through slab keys. The links
/// live beside the slab, in a `Vec<Links>` indexed by key that the list's
/// owner passes in — so one slab's keys can carry several lists, and lists
/// of different owners share this one implementation.
#[derive(Clone, Copy, Debug)]
pub struct SlotList {
    /// The key at the front, or [`NO_SLOT`].
    pub first: usize,
    /// The key at the back, or [`NO_SLOT`].
    pub(crate) last: usize,
    /// How many keys are on the list.
    pub len: usize,
}

impl SlotList {
    /// The list with no keys.
    pub const EMPTY: SlotList = SlotList { first: NO_SLOT, last: NO_SLOT, len: 0 };

    /// Appends `key` (which must not be on the list), growing `links` to
    /// hold it.
    pub fn push_last(&mut self, links: &mut Vec<Links>, key: usize) {
        if links.len() <= key {
            links.resize(key + 1, Links { prev: NO_SLOT, next: NO_SLOT });
        }
        links[key] = Links { prev: self.last, next: NO_SLOT };
        match self.last {
            NO_SLOT => self.first = key,
            last => links[last].next = key,
        }
        self.last = key;
        self.len += 1;
    }

    /// Takes `key` (which must be on the list) out; its own links keep
    /// their values until the key is pushed again.
    pub fn unlink(&mut self, links: &mut [Links], key: usize) {
        let Links { prev, next } = links[key];
        match prev {
            NO_SLOT => self.first = next,
            _ => links[prev].next = next,
        }
        match next {
            NO_SLOT => self.last = prev,
            _ => links[next].prev = prev,
        }
        self.len -= 1;
    }

    /// The keys from first to last.
    pub fn iter<'a>(&self, links: &'a [Links]) -> impl Iterator<Item = usize> + 'a {
        let live = |key: usize| (key != NO_SLOT).then_some(key);
        std::iter::successors(live(self.first), move |&key| live(links[key].next))
    }
}

enum Slot<T> {
    /// Empty slot; holds the index of the next vacant slot (or [`NO_SLOT`]).
    Vacant(usize),
    Occupied(T),
}

/// A growable arena of reusable slots.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: usize,
    len: usize,
    inserts: u64,
    reuses: u64,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Slab<T> {
    /// Creates an empty slab.
    #[must_use]
    pub fn new() -> Slab<T> {
        Slab { slots: Vec::new(), free_head: NO_SLOT, len: 0, inserts: 0, reuses: 0 }
    }

    /// Stores `value`, returning its key. Reuses a vacated slot when one is
    /// available; otherwise grows the backing vector.
    pub fn insert(&mut self, value: T) -> usize {
        self.inserts += 1;
        self.len += 1;
        if self.free_head != NO_SLOT {
            let key = self.free_head;
            let Slot::Vacant(next) = self.slots[key] else {
                unreachable!("freelist head points at an occupied slot");
            };
            self.free_head = next;
            self.slots[key] = Slot::Occupied(value);
            self.reuses += 1;
            key
        } else {
            self.slots.push(Slot::Occupied(value));
            self.slots.len() - 1
        }
    }

    /// Removes and returns the value at `key`, vacating its slot for reuse.
    /// Returns `None` if the slot is already vacant or out of range.
    pub fn remove(&mut self, key: usize) -> Option<T> {
        let slot = self.slots.get_mut(key)?;
        if matches!(slot, Slot::Vacant(_)) {
            return None;
        }
        let taken = std::mem::replace(slot, Slot::Vacant(self.free_head));
        self.free_head = key;
        self.len -= 1;
        match taken {
            Slot::Occupied(value) => Some(value),
            Slot::Vacant(_) => unreachable!("checked occupied above"),
        }
    }

    /// Shared access to the value at `key`, if occupied.
    #[must_use]
    pub fn get(&self, key: usize) -> Option<&T> {
        match self.slots.get(key) {
            Some(Slot::Occupied(value)) => Some(value),
            _ => None,
        }
    }

    /// Exclusive access to the value at `key`, if occupied.
    pub(crate) fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        match self.slots.get_mut(key) {
            Some(Slot::Occupied(value)) => Some(value),
            _ => None,
        }
    }

    /// Number of occupied slots.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether no slots are occupied.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total inserts and how many of them reused a vacated slot. After
    /// warmup, every insert is a reuse.
    #[must_use]
    pub fn reuse_stats(&self) -> (u64, u64) {
        (self.inserts, self.reuses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_round_trip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_ne!(a, b);
        assert_eq!(slab.get(a), Some(&"a"));
        *slab.get_mut(a).unwrap() = "A";
        assert_eq!(slab.remove(a), Some("A"));
        assert_eq!(slab.get_mut(a), None);
        assert_eq!(slab.remove(a), None, "double remove yields nothing");
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.remove(b), Some("b"));
        assert!(slab.is_empty());
    }

    #[test]
    fn vacated_slots_are_reused_lifo() {
        let mut slab = Slab::new();
        let keys: Vec<usize> = (0..4).map(|i| slab.insert(i)).collect();
        slab.remove(keys[1]);
        slab.remove(keys[2]);
        // LIFO freelist: the most recently vacated slot is reused first.
        assert_eq!(slab.insert(20), keys[2]);
        assert_eq!(slab.insert(10), keys[1]);
        assert_eq!(slab.slots.len(), 4);
        let (inserts, reuses) = slab.reuse_stats();
        assert_eq!(inserts, 6);
        assert_eq!(reuses, 2);
    }

    #[test]
    fn steady_state_never_grows() {
        let mut slab = Slab::new();
        for round in 0..1000u32 {
            let k = slab.insert(round);
            assert_eq!(slab.remove(k), Some(round));
        }
        assert_eq!(slab.slots.len(), 1);
        let (inserts, reuses) = slab.reuse_stats();
        assert_eq!(inserts, 1000);
        assert_eq!(reuses, 999, "every insert after the first reuses the slot");
    }

    #[test]
    fn slot_list_keeps_push_order_through_unlinks() {
        let (mut list, mut links) = (SlotList::EMPTY, Vec::new());
        for key in [4, 0, 7, 2] {
            list.push_last(&mut links, key);
        }
        assert_eq!(list.iter(&links).collect::<Vec<_>>(), [4, 0, 7, 2]);
        list.unlink(&mut links, 7);
        list.unlink(&mut links, 4);
        assert_eq!((list.first, links[0].next), (0, 2));
        list.push_last(&mut links, 4);
        list.unlink(&mut links, 2);
        assert_eq!((list.iter(&links).collect::<Vec<_>>(), list.len), (vec![0, 4], 2));
        list.unlink(&mut links, 0);
        list.unlink(&mut links, 4);
        assert_eq!(list.iter(&links).count(), 0);
        assert_eq!(list.first, NO_SLOT);
    }

    #[test]
    fn out_of_range_is_none() {
        let mut slab: Slab<u8> = Slab::new();
        assert_eq!(slab.get(3), None);
        assert_eq!(slab.remove(3), None);
    }
}
