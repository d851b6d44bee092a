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
//! [`Delta`]), and a dense *tail* for the pages past the image (the
//! per-domain overhead). A domain with nothing to share (full copy, cold
//! boot, a hand-built space) is the same structure with an empty base:
//! everything lives in the tail.
//! The representation is invisible to callers — `lookup`, `remap` and `iter`
//! behave as one dense table — and canonical: the delta holds exactly the
//! entries that differ from the pristine read-only base mapping, so two
//! spaces with the same contents over the same base have the same footprint.

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

/// Words of the bitmap per entry of the rank index: 512 pfns.
const BLOCK_WORDS: usize = 8;

/// The entries below the base's length that have diverged from it.
///
/// A bitmap over the base's pfns says which have; their `Pte`s sit in pfn
/// order, so an entry's position is the number of set bits below its pfn
/// (its rank). Finding it takes no search and storing it takes no key: a
/// running count per block of the bitmap makes the rank a handful of
/// `count_ones`. Sorted `(pfn, Pte)` pairs would need no bitmap, but a
/// long-lived clone diverges on thousands of pages in no particular order,
/// and the mispredicted branches of searching them make a CoW fault twice
/// as dear as the dense table's indexed store (DESIGN.md §17).
///
/// Everything is empty until the first divergence; after it the bitmap
/// costs one bit per image page.
#[derive(Clone, Debug, Default)]
struct Delta {
    present: Vec<u64>,
    /// Set bits in all blocks before block `b`.
    before: Vec<u32>,
    ptes: Vec<Pte>,
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
        let block = word / BLOCK_WORDS;
        let below = self.before[block]
            + self.present[block * BLOCK_WORDS..word].iter().map(|w| w.count_ones()).sum::<u32>()
            + (bits & (bit - 1)).count_ones();
        if bits & bit != 0 {
            Ok(below as usize)
        } else {
            Err(below as usize)
        }
    }

    /// Stores `pte` for `pfn` at the position [`Delta::position`] gave, over
    /// a base of `pages` pfns.
    fn insert(&mut self, pfn: u64, at: usize, pte: Pte, pages: usize) {
        if self.present.is_empty() {
            self.present = vec![0; pages.div_ceil(64)];
            self.before = vec![0; self.present.len().div_ceil(BLOCK_WORDS)];
        }
        let (word, bit) = bit_of(pfn);
        self.present[word] |= bit;
        self.before[word / BLOCK_WORDS + 1..].iter_mut().for_each(|n| *n += 1);
        self.ptes.insert(at, pte);
    }

    fn remove(&mut self, pfn: u64, at: usize) {
        let (word, bit) = bit_of(pfn);
        self.present[word] &= !bit;
        self.before[word / BLOCK_WORDS + 1..].iter_mut().for_each(|n| *n -= 1);
        self.ptes.remove(at);
    }

    /// The diverged entries with their pfn, in pfn order.
    fn iter(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        let pfns = (0u64..).step_by(64).zip(&self.present);
        pfns.flat_map(|(first, &bits)| set_bits(bits).map(move |at| first + at))
            .zip(self.ptes.iter().copied())
    }

    /// Lets `keep` rewrite each entry in pfn order and drops those it
    /// returns `false` for.
    fn retain_mut(&mut self, mut keep: impl FnMut(u64, &mut Pte) -> bool) {
        let (mut from, mut to) = (0, 0);
        for (first, word) in (0u64..).step_by(64).zip(&mut self.present) {
            for at in set_bits(*word) {
                let mut pte = self.ptes[from];
                from += 1;
                if keep(first + at, &mut pte) {
                    self.ptes[to] = pte;
                    to += 1;
                } else {
                    *word &= !(1 << at);
                }
            }
        }
        self.ptes.truncate(to);
        let mut below = 0;
        for (before, block) in self.before.iter_mut().zip(self.present.chunks(BLOCK_WORDS)) {
            *before = below;
            below += block.iter().map(|w| w.count_ones()).sum::<u32>();
        }
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
    /// what `tail` already holds.
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
    pub fn sparsify(base: Arc<[FrameId]>, mut entries: Vec<Pte>) -> Self {
        if entries.len() < base.len() {
            return Self::from_entries(entries);
        }
        let tail = entries.split_off(base.len());
        let mut space = Self::over_base(base, tail);
        for (pfn, pte) in (0u64..).zip(entries) {
            if pte != Pte::pristine(space.base[pfn as usize]) {
                space.remap(pfn, pte).expect("pfn is below the base's length");
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
                Ok(at) => self.delta.ptes[at],
                Err(_) => Pte::pristine(frame),
            }),
            None => Ok(self.tail[self.tail_slot(pfn)?]),
        }
    }

    /// Replaces the entry for `pfn`.
    pub fn remap(&mut self, pfn: u64, pte: Pte) -> Result<(), VmmError> {
        self.update(pfn, |_| Ok(pte))
    }

    /// Replaces the entry for `pfn` with what `change` makes of the current
    /// one: a `lookup` and a `remap` in one step, which is what a CoW fault
    /// wants. Nothing changes if `change` fails.
    pub fn update(
        &mut self,
        pfn: u64,
        change: impl FnOnce(Pte) -> Result<Pte, VmmError>,
    ) -> Result<(), VmmError> {
        let (old, new) = match self.base.get(pfn as usize) {
            Some(&frame) => {
                let pristine = Pte::pristine(frame);
                match self.delta.position(pfn) {
                    Ok(at) => {
                        let old = self.delta.ptes[at];
                        let new = change(old)?;
                        if new == pristine {
                            self.delta.remove(pfn, at);
                        } else {
                            self.delta.ptes[at] = new;
                        }
                        (old, new)
                    }
                    Err(at) => {
                        let new = change(pristine)?;
                        if new != pristine {
                            self.delta.insert(pfn, at, new, self.base.len());
                        }
                        (pristine, new)
                    }
                }
            }
            None => {
                let at = self.tail_slot(pfn)?;
                let old = self.tail[at];
                self.tail[at] = change(old)?;
                (old, self.tail[at])
            }
        };
        self.writable = self.writable - u64::from(old.writable) + u64::from(new.writable);
        Ok(())
    }

    /// Iterates all entries with their pfn, in pfn order.
    ///
    /// Every destroy and every checkpoint walks this, so it goes over the
    /// base a bitmap word at a time — under a zero word it is a plain copy
    /// loop — and is built from adaptors that `for_each` can drive from the
    /// inside.
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
                        self.delta.ptes[at - 1]
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
    /// pristine read-only image mapping. A walk with nothing to do for
    /// pristine pages takes these instead of every pfn.
    pub fn stored(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        self.delta.iter().chain(self.tail_entries())
    }

    /// Lets `update` rewrite, in pfn order, every stored entry below
    /// `limit` (see [`AddressSpace::stored`]); pages implied by the base are
    /// not visited. One linear pass however many entries change.
    pub fn update_stored_below(&mut self, limit: u64, mut update: impl FnMut(u64, &mut Pte)) {
        let mut writable = self.writable;
        let mut visit = |pfn: u64, pte: &mut Pte| {
            let was = pte.writable;
            update(pfn, pte);
            writable = writable - u64::from(was) + u64::from(pte.writable);
        };
        let base = &self.base;
        self.delta.retain_mut(|pfn, pte| {
            if pfn < limit {
                visit(pfn, pte);
            }
            *pte != Pte::pristine(base[pfn as usize])
        });
        let base_len = base.len() as u64;
        for (pfn, pte) in (base_len..limit).zip(self.tail.iter_mut()) {
            visit(pfn, pte);
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

    /// Releases every mapped frame back to the table, in pfn order (the
    /// table's free list is LIFO, so the order decides every later
    /// allocation), and empties the space.
    pub fn release_all(&mut self, frames: &mut FrameTable) {
        self.iter().for_each(|(_, pte)| frames.release(pte.frame));
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
        for &f in base.iter() {
            frames.share(f);
        }
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
        space.remap(1, Pte { frame: new_frame, writable: false }).unwrap();
        let pte = space.lookup(1).unwrap();
        assert_eq!(pte.frame, new_frame);
        assert!(!pte.writable);
        assert!(space.remap(5, Pte { frame: new_frame, writable: true }).is_err());
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
        space.remap(4, Pte { frame: copies[0], writable: true }).unwrap();
        space.remap(1, Pte { frame: copies[1], writable: true }).unwrap();
        assert_eq!((space.delta_len(), space.private_pages(), space.shared_pages()), (2, 4, 4));
        let frames: Vec<FrameId> = space.iter().map(|(_, pte)| pte.frame).collect();
        assert_eq!(frames[..6], [base[0], copies[1], base[2], base[3], copies[0], base[5]]);
        let stored: Vec<u64> = space.stored().map(|(pfn, _)| pfn).collect();
        assert_eq!(stored, [1, 4, 6, 7], "the delta, then the tail");

        // A downgrade keeps the entry (the frame still differs); mapping the
        // image frame back read-only drops it.
        space.remap(4, Pte { frame: copies[0], writable: false }).unwrap();
        assert_eq!((space.delta_len(), space.private_pages()), (2, 3));
        space.remap(4, Pte::pristine(base[4])).unwrap();
        space.remap(2, Pte::pristine(base[2])).unwrap();
        assert_eq!((space.delta_len(), space.private_pages()), (1, 3));
    }

    #[test]
    fn delta_keeps_pfn_order_across_words_and_blocks() {
        let mut ft = FrameTable::new(2_048);
        let base: Arc<[FrameId]> = (0..600).map(|i| ft.alloc(i).unwrap()).collect();
        let mut space = AddressSpace::over_base(Arc::clone(&base), Vec::new());
        // Either side of word and block boundaries, high pfns first.
        let pfns = [599, 256, 255, 0, 511, 512, 63, 64];
        for pfn in pfns {
            space.remap(pfn, Pte { frame: ft.alloc(pfn).unwrap(), writable: true }).unwrap();
        }
        let stored: Vec<u64> = space.stored().map(|(pfn, _)| pfn).collect();
        assert_eq!(stored, [0, 63, 64, 255, 256, 511, 512, 599]);
        for pfn in pfns {
            assert_eq!(ft.read(space.lookup(pfn).unwrap().frame), pfn);
        }
        assert_eq!(space.lookup(257).unwrap(), Pte::pristine(base[257]));
        assert!(space.iter().map(|(pfn, _)| pfn).eq(0..600));

        space.remap(256, Pte::pristine(base[256])).unwrap();
        space.update_stored_below(512, |pfn, pte| {
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
            space.remap(pfn, Pte { frame: ft.alloc(pfn).unwrap(), writable: true }).unwrap();
        }
        let mut seen = Vec::new();
        space.update_stored_below(7, |pfn, pte| {
            seen.push(pfn);
            match pfn {
                0 => *pte = Pte::pristine(base[0]),
                3 | 6 => pte.writable = false,
                _ => {}
            }
        });
        assert_eq!(seen, [0, 3, 5, 6], "pfn order, pristine pages and pfn 7 skipped");
        assert_eq!((space.delta_len(), space.private_pages()), (2, 2));
        assert_eq!(space.lookup(0).unwrap(), Pte::pristine(base[0]));
        assert!(!space.lookup(6).unwrap().writable);
        assert!(space.lookup(7).unwrap().writable);
    }

    #[test]
    fn sparsify_inverts_iter() {
        let mut ft = FrameTable::new(32);
        let (base, mut space) = clone_of(&mut ft);
        space.remap(2, Pte { frame: ft.alloc(1).unwrap(), writable: true }).unwrap();
        space.remap(4, Pte { frame: ft.alloc(2).unwrap(), writable: false }).unwrap();
        let dense: Vec<Pte> = space.iter().map(|(_, pte)| pte).collect();
        let back = AddressSpace::sparsify(Arc::clone(&base), dense.clone());
        assert!(back.shares_base(&base));
        assert_eq!((back.delta_len(), back.private_pages()), (2, space.private_pages()));
        assert!(back.iter().eq(space.iter()));
        // Too short to cover the base: kept dense, contents intact.
        let short = AddressSpace::sparsify(base, dense[..3].to_vec());
        assert_eq!((short.size(), short.delta_len()), (3, 0));
        assert_eq!(short.lookup(2).unwrap(), dense[2]);
    }
}
