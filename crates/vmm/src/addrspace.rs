//! Per-domain pseudo-physical address spaces (the p2m map).
//!
//! Each domain sees a contiguous pseudo-physical frame space `0..size`.
//! Every entry maps to a machine frame plus a writable bit. Delta
//! virtualization is exactly this indirection: many domains map the same
//! machine frame read-only, and the first write by any of them triggers a
//! CoW fault that remaps that single entry.
//!
//! The map is itself delta-virtualized. A flash clone does not copy its
//! image's frame list; it holds the list by reference (the *base*: every
//! pfn it covers is implicitly mapped read-only to the listed frame), a
//! *delta* of the entries that have diverged from that (bitmap-indexed, see
//! `Delta`), and a dense *tail* for the pages past the image (the
//! per-domain overhead). A domain with nothing to share (full copy, cold
//! boot, a hand-built space) is the same structure with an empty base:
//! everything lives in the tail.
//! The representation is invisible to callers — `lookup`, `remap` and `iter`
//! behave as one dense table — and canonical: the delta holds exactly the
//! entries that differ from the pristine read-only base mapping, so two
//! spaces with the same contents over the same base have the same footprint.
//!
//! References follow the representation. Every *stored* entry, delta or
//! tail, owns one reference on the frame it names; a pristine mapping owns
//! none — the hold on the base list stands for all of them, and the image
//! that owns the list owns the frames (`crate::snapshot`). Constructors
//! adopt entries whose references the caller took; `write`, `remap`,
//! `update_stored_below` and `release_all` keep the rule from there, so a
//! clone costs the frame table its overhead and dirtied pages, no more.

use std::sync::Arc;

use crate::error::VmmError;
use crate::frame::{FrameId, FrameTable};

/// One p2m entry: which machine frame, and whether writes are permitted
/// without a fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pte {
    /// The backing machine frame.
    pub frame: FrameId,
    /// Whether the domain owns the frame exclusively.
    pub writable: bool,
}

potemkin_snapshot::snap_struct!(Pte { frame, writable });

impl Pte {
    /// The mapping a flash clone starts with: the image's frame, read-only.
    fn pristine(frame: FrameId) -> Self {
        Pte { frame, writable: false }
    }
}

/// A delta entry in 8 bytes: the frame number above the writable bit.
fn pack(pte: Pte) -> u64 {
    debug_assert!(pte.frame.0 >> 63 == 0, "frame numbers fit 63 bits");
    pte.frame.0 << 1 | u64::from(pte.writable)
}

fn unpack(word: u64) -> Pte {
    Pte { frame: FrameId(word >> 1), writable: word & 1 == 1 }
}

/// The entries below the base's length that have diverged from it.
///
/// A bitmap over the base's pfns says which have; their packed `Pte`s sit in
/// pfn order, so an entry's position is the number of set bits below its pfn
/// (its rank). Finding it takes no search and storing it takes no key: a
/// running count per word of the bitmap makes the rank one `count_ones`.
/// Sorted `(pfn, Pte)` pairs would need no bitmap, but a long-lived clone
/// diverges on thousands of pages in no particular order, and the
/// mispredicted branches of searching them make a CoW fault twice as dear as
/// the dense table's indexed store (DESIGN.md §17).
///
/// Everything is empty until the first divergence; after it the bitmap and
/// its counts cost a bit and a half per image page.
#[derive(Clone, Debug, Default)]
struct Delta {
    present: Vec<u64>,
    /// Set bits in all words before word `w`.
    before: Vec<u32>,
    ptes: Vec<u64>,
}

/// The word of the bitmap, and the bit within it, that stand for `pfn`.
fn bit_of(pfn: u64) -> (usize, u64) {
    ((pfn / 64) as usize, 1 << (pfn % 64))
}

/// The positions of the set bits of `bits`, ascending.
fn set_bits(mut bits: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let at = u64::from(bits.trailing_zeros());
            bits &= bits - 1;
            at
        })
    })
}

impl Delta {
    /// Where `pfn`'s entry is in `ptes`, or where it would go: the contract
    /// of `binary_search`, computed by counting bits.
    fn position(&self, pfn: u64) -> Result<usize, usize> {
        let (word, bit) = bit_of(pfn);
        let Some(&bits) = self.present.get(word) else { return Err(0) };
        let below = (self.before[word] + (bits & (bit - 1)).count_ones()) as usize;
        if bits & bit != 0 {
            Ok(below)
        } else {
            Err(below)
        }
    }

    /// Stores `pte` for `pfn` at the position [`Delta::position`] gave, over
    /// a base of `pages` pfns.
    fn insert(&mut self, pfn: u64, at: usize, pte: Pte, pages: usize) {
        if self.present.is_empty() {
            self.present = vec![0; pages.div_ceil(64)];
            self.before = vec![0; self.present.len()];
        }
        let (word, bit) = bit_of(pfn);
        self.present[word] |= bit;
        self.before[word + 1..].iter_mut().for_each(|n| *n += 1);
        self.ptes.insert(at, pack(pte));
    }

    fn remove(&mut self, pfn: u64, at: usize) {
        let (word, bit) = bit_of(pfn);
        self.present[word] &= !bit;
        self.before[word + 1..].iter_mut().for_each(|n| *n -= 1);
        self.ptes.remove(at);
    }

    /// The diverged entries with their pfn, in pfn order.
    fn iter(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        let pfns = (0u64..).step_by(64).zip(&self.present);
        pfns.flat_map(|(first, &bits)| set_bits(bits).map(move |at| first + at))
            .zip(self.ptes.iter().map(|&word| unpack(word)))
    }

    /// Lets `keep` rewrite each entry in pfn order and drops those it
    /// returns `false` for.
    fn retain_mut(&mut self, mut keep: impl FnMut(u64, &mut Pte) -> bool) {
        let (mut from, mut to, mut below) = (0, 0, 0);
        for ((first, word), before) in
            (0u64..).step_by(64).zip(&mut self.present).zip(&mut self.before)
        {
            for at in set_bits(*word) {
                let mut pte = unpack(self.ptes[from]);
                from += 1;
                if keep(first + at, &mut pte) {
                    self.ptes[to] = pack(pte);
                    to += 1;
                } else {
                    *word &= !(1 << at);
                }
            }
            *before = below;
            below += word.count_ones();
        }
        self.ptes.truncate(to);
    }
}

/// A pseudo-physical → machine mapping for one domain.
#[derive(Clone, Debug)]
pub struct AddressSpace {
    /// The reference image's frame list, shared with the image and every
    /// sibling clone. Pfn `i < base.len()` maps `base[i]` read-only unless
    /// the delta says otherwise.
    base: Arc<[FrameId]>,
    /// Entries below `base.len()` that differ from the pristine base
    /// mapping, and only those.
    delta: Delta,
    /// Entries for pfns `base.len()..size`, dense.
    tail: Vec<Pte>,
    /// Writable entries across delta and tail (base entries never are).
    writable: u64,
}

impl AddressSpace {
    /// Builds an address space from explicit entries (nothing shared).
    #[must_use]
    pub fn from_entries(entries: Vec<Pte>) -> Self {
        Self::over_base(Arc::from([]), entries)
    }

    /// Builds a flash clone's space: every pfn of `base` mapped read-only
    /// to the listed frame, followed by `tail`. Allocates nothing beyond
    /// what `tail` already holds, and touches no frame's count.
    #[must_use]
    pub fn over_base(base: Arc<[FrameId]>, tail: Vec<Pte>) -> Self {
        let writable = tail.iter().filter(|pte| pte.writable).count() as u64;
        AddressSpace { base, delta: Delta::default(), tail, writable }
    }

    /// Rebuilds the space that holds `entries` over `base`: the inverse of
    /// collecting [`AddressSpace::iter`]. Entries equal to the pristine base
    /// mapping are dropped, so the result has the footprint the space had
    /// before it was flattened. A list shorter than the base shares nothing.
    #[must_use]
    pub(crate) fn sparsify(base: Arc<[FrameId]>, mut entries: Vec<Pte>) -> Self {
        if entries.len() < base.len() {
            return Self::from_entries(entries);
        }
        let tail = entries.split_off(base.len());
        let mut space = Self::over_base(base, tail);
        for (pfn, pte) in (0u64..).zip(entries) {
            if pte != Pte::pristine(space.base[pfn as usize]) {
                space.update(pfn, |_, _| Ok(pte)).expect("pfn is below the base's length");
            }
        }
        space
    }

    /// The domain's memory size in pages.
    #[must_use]
    pub fn size(&self) -> u64 {
        (self.base.len() + self.tail.len()) as u64
    }

    /// Whether this space maps `frames` by reference as its base.
    #[cfg(test)]
    pub(crate) fn shares_base(&self, frames: &Arc<[FrameId]>) -> bool {
        Arc::ptr_eq(&self.base, frames)
    }

    /// How many entries below the base's length have diverged from it.
    #[cfg(test)]
    pub(crate) fn delta_len(&self) -> usize {
        self.delta.ptes.len()
    }

    /// Where in `tail` the entry for `pfn` (at or past the base's length) is.
    fn tail_slot(&self, pfn: u64) -> Result<usize, VmmError> {
        let at = (pfn - self.base.len() as u64) as usize;
        if at < self.tail.len() {
            Ok(at)
        } else {
            Err(VmmError::BadPfn { pfn, size: self.size() })
        }
    }

    /// The tail's entries with their pfn.
    fn tail_entries(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        (self.base.len() as u64..).zip(self.tail.iter().copied())
    }

    /// Looks up the entry for `pfn`.
    pub fn lookup(&self, pfn: u64) -> Result<Pte, VmmError> {
        match self.base.get(pfn as usize) {
            Some(&frame) => Ok(match self.delta.position(pfn) {
                Ok(at) => unpack(self.delta.ptes[at]),
                Err(_) => Pte::pristine(frame),
            }),
            None => Ok(self.tail[self.tail_slot(pfn)?]),
        }
    }

    /// Replaces the entry for `pfn` with what `change` makes of the current
    /// one and of whether it is stored (owns a reference), and says whether
    /// the new one is. Touches no frame's count; a failed `change`, nothing.
    fn update(
        &mut self,
        pfn: u64,
        change: impl FnOnce(Pte, bool) -> Result<Pte, VmmError>,
    ) -> Result<bool, VmmError> {
        let (old, new, stored) = match self.base.get(pfn as usize) {
            Some(&frame) => {
                let pristine = Pte::pristine(frame);
                let slot = self.delta.position(pfn);
                let old = slot.map_or(pristine, |at| unpack(self.delta.ptes[at]));
                let new = change(old, slot.is_ok())?;
                match slot {
                    Ok(at) if new == pristine => self.delta.remove(pfn, at),
                    Ok(at) => self.delta.ptes[at] = pack(new),
                    Err(at) if new != pristine => self.delta.insert(pfn, at, new, self.base.len()),
                    Err(_) => {}
                }
                (old, new, new != pristine)
            }
            None => {
                let at = self.tail_slot(pfn)?;
                let old = self.tail[at];
                self.tail[at] = change(old, true)?;
                (old, self.tail[at], true)
            }
        };
        self.writable = self.writable - u64::from(old.writable) + u64::from(new.writable);
        Ok(stored)
    }

    /// Replaces the entry for `pfn`, moving the space's reference with it:
    /// one is taken on `pte`'s frame if the new entry is stored, and the one
    /// a stored old entry held is released.
    pub fn remap(&mut self, pfn: u64, pte: Pte, frames: &mut FrameTable) -> Result<(), VmmError> {
        let mut held = None;
        let stored = self.update(pfn, |old, owns| {
            held = owns.then_some(old.frame);
            Ok(pte)
        })?;
        if stored {
            frames.share(pte.frame);
        }
        if let Some(frame) = held {
            frames.release(frame);
        }
        Ok(())
    }

    /// A guest write of `value` to `pfn`: in place if the entry is writable,
    /// else a CoW fault onto a fresh private copy, which releases the
    /// reference a stored entry held on the frame it leaves (a pristine one
    /// held none). Returns whether it faulted. On [`VmmError::BadPfn`], or
    /// [`VmmError::OutOfMemory`] from the fault, nothing has changed.
    pub(crate) fn write(
        &mut self,
        pfn: u64,
        value: u64,
        frames: &mut FrameTable,
    ) -> Result<bool, VmmError> {
        let mut faulted = false;
        self.update(pfn, |pte, owns| {
            if pte.writable {
                frames.write(pte.frame, value);
                return Ok(pte);
            }
            // A page's content is one word, so the copy is born written.
            let copy = frames.alloc(value)?;
            if owns {
                frames.release(pte.frame);
            }
            faulted = true;
            Ok(Pte { frame: copy, writable: true })
        })?;
        Ok(faulted)
    }

    /// Iterates all entries with their pfn, in pfn order.
    ///
    /// Every checkpoint walks this, so it goes over the base a bitmap word
    /// at a time — under a zero word it is a plain copy loop — and is built
    /// from adaptors that `for_each` can drive from the inside.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        let words = self.delta.present.iter().copied().chain(std::iter::repeat(0));
        let mut next = 0;
        let shared = (0u64..).step_by(64).zip(self.base.chunks(64)).zip(words).flat_map(
            move |((first, frames), bits)| {
                let mut at = next;
                next += bits.count_ones() as usize;
                frames.iter().enumerate().map(move |(bit, &frame)| {
                    let pte = if bits >> bit & 1 == 1 {
                        at += 1;
                        unpack(self.delta.ptes[at - 1])
                    } else {
                        Pte::pristine(frame)
                    };
                    (first + bit as u64, pte)
                })
            },
        );
        shared.chain(self.tail_entries())
    }

    /// Iterates, in pfn order, the entries that are stored rather than
    /// implied by the base — the only ones that can be anything but a
    /// pristine read-only image mapping, and the only ones that own a
    /// reference. A walk with nothing to do for pristine pages takes these.
    pub fn stored(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        self.delta.iter().chain(self.tail_entries())
    }

    /// Lets `update` rewrite, in pfn order, every stored entry below
    /// `limit` (see [`AddressSpace::stored`]); pages implied by the base are
    /// not visited. One linear pass however many entries change. Each
    /// entry's reference moves to the frame it comes out naming, or is given
    /// up where it comes out as the base implies (it is then dropped).
    pub(crate) fn update_stored_below(
        &mut self,
        limit: u64,
        frames: &mut FrameTable,
        mut update: impl FnMut(u64, &mut Pte, &FrameTable),
    ) {
        let mut writable = self.writable;
        // Says whether the entry stays stored; `implied` is the base's frame.
        let mut visit = |pfn: u64, pte: &mut Pte, implied: Option<FrameId>| {
            let was = *pte;
            update(pfn, pte, frames);
            writable = writable - u64::from(was.writable) + u64::from(pte.writable);
            let stored = implied.is_none_or(|frame| *pte != Pte::pristine(frame));
            if stored {
                frames.share(pte.frame);
            }
            frames.release(was.frame);
            stored
        };
        let base = &self.base;
        self.delta.retain_mut(|pfn, pte| pfn >= limit || visit(pfn, pte, Some(base[pfn as usize])));
        for (pfn, pte) in (base.len() as u64..limit).zip(self.tail.iter_mut()) {
            visit(pfn, pte, None);
        }
        self.writable = writable;
    }

    /// Counts entries the domain owns exclusively (its private pages).
    #[must_use]
    pub fn private_pages(&self) -> u64 {
        self.writable
    }

    /// Counts entries mapped read-only from a shared frame.
    #[must_use]
    pub fn shared_pages(&self) -> u64 {
        self.size() - self.private_pages()
    }

    /// Releases every stored entry's frame back to the table, in pfn order
    /// (the table's free list is LIFO, so the order decides every later
    /// allocation), and empties the space. Pristine pages hold nothing.
    pub fn release_all(&mut self, frames: &mut FrameTable) {
        self.stored().for_each(|(_, pte)| frames.release(pte.frame));
        *self = Self::from_entries(Vec::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with(frames: &mut FrameTable, n: u64) -> AddressSpace {
        let entries =
            (0..n).map(|i| Pte { frame: frames.alloc(i).unwrap(), writable: true }).collect();
        AddressSpace::from_entries(entries)
    }

    /// A 6-page image with a 2-page writable tail, as `flash_clone` builds.
    fn clone_of(frames: &mut FrameTable) -> (Arc<[FrameId]>, AddressSpace) {
        let base: Arc<[FrameId]> = (0..6).map(|i| frames.alloc(100 + i).unwrap()).collect();
        let tail = (0..2).map(|_| Pte { frame: frames.alloc(0).unwrap(), writable: true });
        let space = AddressSpace::over_base(Arc::clone(&base), tail.collect());
        (base, space)
    }

    #[test]
    fn lookup_in_and_out_of_range() {
        let mut ft = FrameTable::new(10);
        let space = space_with(&mut ft, 4);
        assert!(space.lookup(3).is_ok());
        assert_eq!(space.lookup(4).unwrap_err(), VmmError::BadPfn { pfn: 4, size: 4 });
        assert_eq!(space.size(), 4);
    }

    #[test]
    fn remap_changes_entry() {
        let mut ft = FrameTable::new(10);
        let mut space = space_with(&mut ft, 2);
        let new_frame = ft.alloc(99).unwrap();
        let old_frame = space.lookup(1).unwrap().frame;
        space.remap(1, Pte { frame: new_frame, writable: false }, &mut ft).unwrap();
        let pte = space.lookup(1).unwrap();
        assert_eq!(pte.frame, new_frame);
        assert!(!pte.writable);
        assert_eq!(ft.refcount(new_frame), 2, "the allocation's reference and the entry's");
        assert_eq!(ft.alloc(0).unwrap(), old_frame, "the displaced entry's was its last");
        assert!(space.remap(5, Pte { frame: new_frame, writable: true }, &mut ft).is_err());
        assert_eq!(ft.refcount(new_frame), 2, "a refused remap takes nothing");
    }

    #[test]
    fn private_and_shared_counts() {
        let mut ft = FrameTable::new(10);
        let shared = ft.alloc(0).unwrap();
        ft.share(shared);
        ft.share(shared);
        let private = ft.alloc(1).unwrap();
        let space = AddressSpace::from_entries(vec![
            Pte { frame: shared, writable: false },
            Pte { frame: shared, writable: false },
            Pte { frame: private, writable: true },
        ]);
        assert_eq!(space.private_pages(), 1);
        assert_eq!(space.shared_pages(), 2);
    }

    #[test]
    fn release_all_returns_frames() {
        let mut ft = FrameTable::new(5);
        let mut space = space_with(&mut ft, 5);
        assert_eq!(ft.free_frames(), 0);
        space.release_all(&mut ft);
        assert_eq!(ft.free_frames(), 5);
        assert_eq!(space.size(), 0);
    }

    #[test]
    fn clone_space_stores_only_what_diverged() {
        let mut ft = FrameTable::new(32);
        let (base, mut space) = clone_of(&mut ft);
        assert_eq!((space.size(), space.delta_len(), space.private_pages()), (8, 0, 2));
        assert_eq!(space.lookup(3).unwrap(), Pte::pristine(base[3]));
        assert_eq!(space.lookup(8).unwrap_err(), VmmError::BadPfn { pfn: 8, size: 8 });

        // Diverge out of order; the delta stays in pfn order.
        let copies: Vec<FrameId> = (0..2).map(|_| ft.alloc(7).unwrap()).collect();
        space.remap(4, Pte { frame: copies[0], writable: true }, &mut ft).unwrap();
        space.remap(1, Pte { frame: copies[1], writable: true }, &mut ft).unwrap();
        assert_eq!((space.delta_len(), space.private_pages(), space.shared_pages()), (2, 4, 4));
        let frames: Vec<FrameId> = space.iter().map(|(_, pte)| pte.frame).collect();
        assert_eq!(frames[..6], [base[0], copies[1], base[2], base[3], copies[0], base[5]]);
        let stored: Vec<u64> = space.stored().map(|(pfn, _)| pfn).collect();
        assert_eq!(stored, [1, 4, 6, 7], "the delta, then the tail");

        // A downgrade keeps the entry (the frame still differs); mapping the
        // image frame back read-only drops it.
        space.remap(4, Pte { frame: copies[0], writable: false }, &mut ft).unwrap();
        assert_eq!((space.delta_len(), space.private_pages()), (2, 3));
        assert_eq!(ft.refcount(copies[0]), 2, "same frame, same reference");
        space.remap(4, Pte::pristine(base[4]), &mut ft).unwrap();
        space.remap(2, Pte::pristine(base[2]), &mut ft).unwrap();
        assert_eq!((space.delta_len(), space.private_pages()), (1, 3));
        assert_eq!(ft.refcount(copies[0]), 1, "the dropped entry's reference went with it");
        assert!(base.iter().all(|&f| ft.refcount(f) == 1), "a pristine mapping owns none");
    }

    #[test]
    fn delta_keeps_pfn_order_across_words_and_blocks() {
        let mut ft = FrameTable::new(2_048);
        let base: Arc<[FrameId]> = (0..600).map(|i| ft.alloc(i).unwrap()).collect();
        let mut space = AddressSpace::over_base(Arc::clone(&base), Vec::new());
        // Either side of word and block boundaries, high pfns first.
        let pfns = [599, 256, 255, 0, 511, 512, 63, 64];
        for pfn in pfns {
            let pte = Pte { frame: ft.alloc(pfn).unwrap(), writable: true };
            space.remap(pfn, pte, &mut ft).unwrap();
        }
        let stored: Vec<u64> = space.stored().map(|(pfn, _)| pfn).collect();
        assert_eq!(stored, [0, 63, 64, 255, 256, 511, 512, 599]);
        for pfn in pfns {
            assert_eq!(ft.read(space.lookup(pfn).unwrap().frame), pfn);
        }
        assert_eq!(space.lookup(257).unwrap(), Pte::pristine(base[257]));
        assert!(space.iter().map(|(pfn, _)| pfn).eq(0..600));

        space.remap(256, Pte::pristine(base[256]), &mut ft).unwrap();
        space.update_stored_below(512, &mut ft, |pfn, pte, _| {
            if pfn >= 255 {
                *pte = Pte::pristine(base[pfn as usize]);
            }
        });
        let stored: Vec<u64> = space.stored().map(|(pfn, _)| pfn).collect();
        assert_eq!(stored, [0, 63, 64, 512, 599], "pfn 512 is not below the limit");
        assert_eq!((space.delta_len(), space.private_pages()), (5, 5));
    }

    #[test]
    fn update_stored_visits_delta_then_tail_and_drops_pristine_entries() {
        let mut ft = FrameTable::new(32);
        let (base, mut space) = clone_of(&mut ft);
        for pfn in [5, 0, 3] {
            assert!(space.write(pfn, pfn, &mut ft).unwrap());
        }
        let (copy_of_0, tail_6) = (space.lookup(0).unwrap().frame, space.lookup(6).unwrap().frame);
        let mut seen = Vec::new();
        space.update_stored_below(7, &mut ft, |pfn, pte, _| {
            seen.push(pfn);
            match pfn {
                0 => *pte = Pte::pristine(base[0]),
                3 => pte.writable = false,
                // Past the base every entry stays stored, whatever it names.
                6 => *pte = Pte::pristine(base[1]),
                _ => {}
            }
        });
        assert_eq!(seen, [0, 3, 5, 6], "pfn order, pristine pages and pfn 7 skipped");
        assert_eq!(
            (ft.refcount(base[0]), ft.refcount(base[1])),
            (1, 2),
            "only a stored entry owns"
        );
        let mut freed = [ft.alloc(0).unwrap(), ft.alloc(0).unwrap()];
        freed.reverse();
        assert_eq!(freed, [copy_of_0, tail_6], "both displaced frames went free, in pfn order");
        assert_eq!((space.delta_len(), space.private_pages()), (2, 2));
        assert_eq!(space.lookup(0).unwrap(), Pte::pristine(base[0]));
        assert!(!space.lookup(6).unwrap().writable);
        assert!(space.lookup(7).unwrap().writable);
    }

    #[test]
    fn write_faults_once_and_takes_only_what_it_stores() {
        let mut ft = FrameTable::new(10);
        let (base, mut space) = clone_of(&mut ft);
        assert!(space.write(3, 0xAB, &mut ft).unwrap(), "a pristine page faults");
        let copy = space.lookup(3).unwrap().frame;
        assert_eq!((ft.read(copy), ft.read(base[3])), (0xAB, 103), "the image frame is untouched");
        assert_eq!((ft.refcount(copy), ft.refcount(base[3])), (1, 1), "nothing to release");
        assert!(!space.write(3, 0xCD, &mut ft).unwrap(), "the private copy is written in place");
        assert!(!space.write(6, 1, &mut ft).unwrap(), "as is a writable tail page");
        assert_eq!((ft.read(copy), space.delta_len(), space.private_pages()), (0xCD, 1, 3));

        // A stored read-only entry (a merged or frozen page) gives its
        // reference up when it faults.
        ft.share(copy);
        space.update_stored_below(6, &mut ft, |_, pte, _| pte.writable = false);
        assert!(space.write(3, 0xEF, &mut ft).unwrap());
        assert_eq!(ft.refcount(copy), 1, "the other holder's");
        assert_eq!((ft.read(copy), ft.read(space.lookup(3).unwrap().frame)), (0xCD, 0xEF));

        // Out of frames: the fault fails and nothing has moved.
        assert_eq!(ft.free_frames(), 0);
        assert!(matches!(space.write(0, 1, &mut ft), Err(VmmError::OutOfMemory { .. })));
        assert_eq!(space.lookup(0).unwrap(), Pte::pristine(base[0]));
        assert_eq!((ft.refcount(base[0]), space.delta_len()), (1, 1));
        assert!(matches!(space.write(8, 1, &mut ft), Err(VmmError::BadPfn { pfn: 8, size: 8 })));

        space.release_all(&mut ft);
        assert_eq!(ft.used_frames(), 7, "the image's six and the other holder's copy");
    }

    #[test]
    fn sparsify_inverts_iter() {
        let mut ft = FrameTable::new(32);
        let (base, mut space) = clone_of(&mut ft);
        space.write(2, 1, &mut ft).unwrap();
        space.write(4, 2, &mut ft).unwrap();
        space.update_stored_below(5, &mut ft, |pfn, pte, _| pte.writable = pfn != 4);
        let dense: Vec<Pte> = space.iter().map(|(_, pte)| pte).collect();
        let back = AddressSpace::sparsify(Arc::clone(&base), dense.clone());
        assert!(back.shares_base(&base));
        assert_eq!((back.delta_len(), back.private_pages()), (2, space.private_pages()));
        assert!(back.iter().eq(space.iter()));
        assert!(back.stored().eq(space.stored()));
        // Too short to cover the base: kept dense, contents intact.
        let short = AddressSpace::sparsify(base, dense[..3].to_vec());
        assert_eq!((short.size(), short.delta_len()), (3, 0));
        assert_eq!(short.lookup(2).unwrap(), dense[2]);
    }
}
