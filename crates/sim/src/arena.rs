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

/// The 4-byte link past either end of a [`SlotList`] or of the freelist.
const END: u32 = u32::MAX;

/// `key` as a 4-byte link: a panic past 4 × 10⁹ keys.
pub(crate) fn link(key: usize) -> u32 {
    u32::try_from(key).ok().filter(|&at| at != END).expect("a slot key fits a 32-bit link")
}

/// The key a link names, or `None` past either end.
fn slot(at: u32) -> Option<usize> {
    (at != END).then_some(at as usize)
}

/// A key's neighbours in a [`SlotList`].
#[derive(Clone, Copy, Debug)]
pub struct Links {
    prev: u32,
    next: u32,
}

const _: () = assert!(size_of::<Links>() == 8, "two 4-byte links per key");

/// The ends of a doubly linked list threaded through slab keys. The links
/// live beside the slab, in a `Vec<Links>` indexed by key that the list's
/// owner passes in — so one slab's keys can carry several lists, and lists
/// of different owners share this one implementation.
#[derive(Clone, Copy, Debug)]
pub struct SlotList {
    first: u32,
    /// The back, or [`END`]: never a slab key, as [`link`] refuses it.
    pub(crate) last: u32,
    /// How many keys are on the list.
    pub len: u32,
}

impl SlotList {
    /// The list with no keys.
    pub const EMPTY: SlotList = SlotList { first: END, last: END, len: 0 };

    /// Appends `key` (which must not be on the list), growing `links` to
    /// hold it.
    pub fn push_last(&mut self, links: &mut Vec<Links>, key: usize) {
        let at = link(key);
        if links.len() <= key {
            links.resize(key + 1, Links { prev: END, next: END });
        }
        links[key] = Links { prev: self.last, next: END };
        match self.last {
            END => self.first = at,
            last => links[last as usize].next = at,
        }
        self.last = at;
        self.len += 1;
    }

    /// Takes `key` (which must be on the list) out; its own links keep
    /// their values until the key is pushed again.
    pub fn unlink(&mut self, links: &mut [Links], key: usize) {
        let Links { prev, next } = links[key];
        match prev {
            END => self.first = next,
            _ => links[prev as usize].next = next,
        }
        match next {
            END => self.last = prev,
            _ => links[next as usize].prev = prev,
        }
        self.len -= 1;
    }

    /// The keys from first to last.
    pub fn iter<'a>(&self, links: &'a [Links]) -> impl Iterator<Item = usize> + 'a {
        std::iter::successors(slot(self.first), move |&at| slot(links[at].next))
    }
}

pub(crate) enum Slot<T> {
    /// Empty slot; holds the link to the next vacant slot.
    Vacant(u32),
    Occupied(T),
}

/// A growable arena of reusable slots.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free_head: u32,
    len: usize,
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
        Slab { slots: Vec::new(), free_head: END, len: 0 }
    }

    /// Stores `value`, returning its key. Reuses a vacated slot when one is
    /// available; otherwise grows the backing vector.
    pub fn insert(&mut self, value: T) -> usize {
        self.len += 1;
        if let Some(key) = slot(self.free_head) {
            let Slot::Vacant(next) = self.slots[key] else {
                unreachable!("freelist head points at an occupied slot");
            };
            self.free_head = next;
            self.slots[key] = Slot::Occupied(value);
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
        self.free_head = link(key);
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
    }

    #[test]
    fn steady_state_never_grows() {
        let mut slab = Slab::new();
        for round in 0..1000u32 {
            let k = slab.insert(round);
            assert_eq!(slab.remove(k), Some(round));
        }
        assert_eq!(slab.slots.len(), 1);
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
        assert_eq!(list.first, END);
    }

    #[test]
    fn out_of_range_is_none() {
        let mut slab: Slab<u8> = Slab::new();
        assert_eq!(slab.get(3), None);
        assert_eq!(slab.remove(3), None);
    }
}
