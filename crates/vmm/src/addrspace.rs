//! Per-domain pseudo-physical address spaces (the p2m map).
//!
//! Each domain sees a contiguous pseudo-physical frame space `0..size`.
//! Every entry is either a private page — the domain's alone, written in
//! place, its content word held by the entry itself — or a read-only
//! mapping of a shared machine frame. Delta virtualization is exactly this
//! indirection: many domains map the same machine frame read-only, and the
//! first write by any of them triggers a CoW fault that turns that single
//! entry into a private page.
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
//! A stored entry is one 8-byte word: a private page's content, or the
//! number of the frame it shares; a bitmap, allocated at the first shared
//! stored entry, says which.
//!
//! References follow the representation. Every *stored* entry, delta or
//! tail, owns one reference: a shared one on the frame it names, a private
//! one its page in the frame table's private count. A pristine mapping owns
//! none — the hold on the base list stands for all of them, and the image
//! that owns the list owns the frames (`crate::snapshot`). Constructors
//! adopt entries whose references the caller took; `write`, `remap`,
//! `freeze`, `remap_stored_below` and `release_all` keep the rule from
//! there, so a clone costs the frame table its overhead and dirtied pages,
//! no more, and a dirtied page costs no row.
//!
//! A checkpoint writes the same three parts and nothing they imply: whether
//! the space sits over its image's list, the delta as `(pfn, Pte)` pairs in
//! pfn order, and the tail (`AddressSpace::encode`). A fresh clone's
//! bytes are its overhead pages, whatever the size of its image.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::Arc;

use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};

use crate::error::VmmError;
use crate::frame::{FrameId, FrameTable};

/// One p2m entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pte {
    /// A page the domain owns alone and writes in place: its content word.
    Private(u64),
    /// A read-only mapping of a shared machine frame; a write faults.
    Shared(FrameId),
}

impl Pte {
    /// The page's content word; a shared entry must name a live frame.
    #[must_use]
    pub(crate) fn content(self, frames: &FrameTable) -> u64 {
        match self {
            Pte::Private(content) => content,
            Pte::Shared(frame) => frames.read(frame),
        }
    }

    fn is_private(self) -> bool {
        matches!(self, Pte::Private(_))
    }

    /// The stored word: the content, or the frame's number.
    fn word(self) -> u64 {
        match self {
            Pte::Private(word) | Pte::Shared(FrameId(word)) => word,
        }
    }

    fn from_word(word: u64, shared: bool) -> Self {
        if shared {
            Pte::Shared(FrameId(word))
        } else {
            Pte::Private(word)
        }
    }

    /// Gives back the reference a stored entry owns.
    fn release(self, frames: &mut FrameTable) {
        match self {
            Pte::Private(_) => frames.release_private(1),
            Pte::Shared(frame) => frames.release(frame),
        }
    }
}

/// A kind tag (0 private, 1 shared), then the word.
impl Snap for Pte {
    fn snap(&self, w: &mut SnapWriter) {
        w.bool(!self.is_private());
        w.u64(self.word());
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let shared = r.bool()?;
        Ok(Pte::from_word(r.u64()?, shared))
    }
}

/// Which stored words name a frame: one bit per pfn, nothing at all until
/// the first one does.
#[derive(Clone, Debug, Default)]
struct SharedBits(Vec<u64>);

impl SharedBits {
    fn get(&self, pfn: u64) -> bool {
        let (word, bit) = bit_of(pfn);
        self.0.get(word).is_some_and(|&bits| bits & bit != 0)
    }

    /// Sets the bit of `pfn`, of `pages`.
    fn set(&mut self, pfn: u64, shared: bool, pages: usize) {
        let (word, bit) = bit_of(pfn);
        if shared {
            if self.0.is_empty() {
                self.0 = vec![0; pages.div_ceil(64)];
            }
            self.0[word] |= bit;
        } else if let Some(bits) = self.0.get_mut(word) {
            *bits &= !bit;
        }
    }
}

/// The entries below the base's length that have diverged from it.
///
/// A bitmap over the base's pfns says which have; their words sit in pfn
/// order, so an entry's position is the number of set bits below its pfn
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
    words: Vec<u64>,
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
    /// Where `pfn`'s word is in `words`, or where it would go: the contract
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

    /// Stores `word` for `pfn` at the position [`Delta::position`] gave,
    /// over a base of `pages` pfns.
    fn insert(&mut self, pfn: u64, at: usize, word: u64, pages: usize) {
        if self.present.is_empty() {
            self.present = vec![0; pages.div_ceil(64)];
            self.before = vec![0; self.present.len()];
        }
        let (w, bit) = bit_of(pfn);
        self.present[w] |= bit;
        self.before[w + 1..].iter_mut().for_each(|n| *n += 1);
        self.words.insert(at, word);
    }

    fn remove(&mut self, pfn: u64, at: usize) {
        let (word, bit) = bit_of(pfn);
        self.present[word] &= !bit;
        self.before[word + 1..].iter_mut().for_each(|n| *n -= 1);
        self.words.remove(at);
    }

    /// The diverged words with their pfn, in pfn order.
    fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let pfns = (0u64..).step_by(64).zip(&self.present);
        pfns.flat_map(|(first, &bits)| set_bits(bits).map(move |at| first + at))
            .zip(self.words.iter().copied())
    }

    /// Lets `keep` rewrite each word in pfn order and drops those it
    /// returns `false` for.
    fn retain_mut(&mut self, mut keep: impl FnMut(u64, &mut u64) -> bool) {
        let (mut from, mut to, mut below) = (0, 0, 0);
        for ((first, bits), before) in
            (0u64..).step_by(64).zip(&mut self.present).zip(&mut self.before)
        {
            for at in set_bits(*bits) {
                let mut word = self.words[from];
                from += 1;
                if keep(first + at, &mut word) {
                    self.words[to] = word;
                    to += 1;
                } else {
                    *bits &= !(1 << at);
                }
            }
            *before = below;
            below += bits.count_ones();
        }
        self.words.truncate(to);
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
    tail: Vec<u64>,
    /// Which stored words, by pfn, name a frame.
    shared: SharedBits,
    /// Private entries across delta and tail (base entries never are).
    private: u64,
}

impl AddressSpace {
    /// Builds an address space from explicit entries (nothing shared).
    #[must_use]
    pub fn from_entries(entries: Vec<Pte>) -> Self {
        Self::over_base(Arc::from([]), entries)
    }

    /// Builds a flash clone's space: every pfn of `base` mapped read-only
    /// to the listed frame, followed by `tail`. Touches no frame's count.
    #[must_use]
    pub fn over_base(base: Arc<[FrameId]>, tail: Vec<Pte>) -> Self {
        let (pages, slots) = (base.len() as u64, base.len() + tail.len());
        let (mut shared, mut private) = (SharedBits::default(), 0);
        let tail = (pages..)
            .zip(tail)
            .map(|(pfn, pte)| {
                shared.set(pfn, !pte.is_private(), slots);
                private += u64::from(pte.is_private());
                pte.word()
            })
            .collect();
        AddressSpace { base, delta: Delta::default(), tail, shared, private }
    }

    /// Checkpoint support: one bool (does the space sit over a base?), the
    /// delta as `(pfn, Pte)` pairs in pfn order, then the tail's entries.
    /// The size is not written; it is the base's length plus the tail's.
    pub(crate) fn encode(&self, w: &mut SnapWriter) {
        w.bool(!self.base.is_empty());
        w.usize(self.delta.words.len());
        self.delta.iter().for_each(|(pfn, word)| (pfn, self.entry(pfn, word)).snap(w));
        w.usize(self.tail.len());
        self.tail_entries().for_each(|(_, pte)| pte.snap(w));
    }

    /// Reads a space written by [`AddressSpace::encode`], over `image` (its
    /// domain's image's frame list) if the space sat over one. Each pair is
    /// applied through the one write path, so the delta is rebuilt as a
    /// running space would have built it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Decode`] for a space smaller than `image` or over an
    /// empty one, a shared page past `image`, or a pair that is out of pfn
    /// order, past the base, or equal to what the base implies — spaces no
    /// host builds.
    pub(crate) fn decode(
        r: &mut SnapReader<'_>,
        image: &Arc<[FrameId]>,
    ) -> Result<Self, SnapshotError> {
        let base = match r.bool()? {
            false => Arc::from([]),
            true if !image.is_empty() => Arc::clone(image),
            true => return Err(r.bad()),
        };
        let pairs = Vec::<(u64, Pte)>::unsnap(r)?;
        let mut space = Self::over_base(base, Vec::unsnap(r)?);
        // Pages past the image are the domain's own overhead, never shared.
        let pages = image.len() as u64;
        let shared_past = space.tail_entries().any(|(pfn, pte)| pfn >= pages && !pte.is_private());
        if space.size() < pages || shared_past {
            return Err(r.bad());
        }
        let mut next = 0;
        for (pfn, pte) in pairs {
            let implied = space.base.get(pfn as usize).map(|&frame| Pte::Shared(frame));
            if pfn < next || implied.is_none_or(|implied| implied == pte) {
                return Err(r.bad());
            }
            space.update(pfn, |_, _| Ok(pte)).map_err(|_| r.bad())?;
            next = pfn + 1;
        }
        Ok(space)
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
        self.delta.words.len()
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

    /// What the stored `word` of `pfn` stands for.
    fn entry(&self, pfn: u64, word: u64) -> Pte {
        Pte::from_word(word, self.shared.get(pfn))
    }

    /// The tail's entries with their pfn.
    fn tail_entries(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        let pfns = self.base.len() as u64..;
        pfns.zip(&self.tail).map(|(pfn, &word)| (pfn, self.entry(pfn, word)))
    }

    /// Looks up the entry for `pfn`.
    pub fn lookup(&self, pfn: u64) -> Result<Pte, VmmError> {
        match self.base.get(pfn as usize) {
            Some(&frame) => Ok(match self.delta.position(pfn) {
                Ok(at) => self.entry(pfn, self.delta.words[at]),
                Err(_) => Pte::Shared(frame),
            }),
            None => Ok(self.entry(pfn, self.tail[self.tail_slot(pfn)?])),
        }
    }

    /// Replaces the entry for `pfn` with what `change` makes of the current
    /// one and of whether it is stored (owns a reference), and says whether
    /// the new one is. Touches no reference; a failed `change`, nothing.
    fn update(
        &mut self,
        pfn: u64,
        change: impl FnOnce(Pte, bool) -> Result<Pte, VmmError>,
    ) -> Result<bool, VmmError> {
        let (old, new, stored) = match self.base.get(pfn as usize) {
            Some(&frame) => {
                let pristine = Pte::Shared(frame);
                let slot = self.delta.position(pfn);
                let old = slot.map_or(pristine, |at| self.entry(pfn, self.delta.words[at]));
                let new = change(old, slot.is_ok())?;
                let word = new.word();
                match slot {
                    Ok(at) if new == pristine => self.delta.remove(pfn, at),
                    Ok(at) => self.delta.words[at] = word,
                    Err(at) if new != pristine => self.delta.insert(pfn, at, word, self.base.len()),
                    Err(_) => {}
                }
                (old, new, new != pristine)
            }
            None => {
                let at = self.tail_slot(pfn)?;
                let old = self.entry(pfn, self.tail[at]);
                let new = change(old, true)?;
                self.tail[at] = new.word();
                (old, new, true)
            }
        };
        let slots = self.size() as usize;
        self.shared.set(pfn, stored && !new.is_private(), slots);
        self.private = self.private - u64::from(old.is_private()) + u64::from(new.is_private());
        Ok(stored)
    }

    /// Maps `pfn` read-only to `frame`, moving the space's reference with
    /// it: the entry takes one on `frame` unless it comes out as the base
    /// implies, and a stored old entry gives its up. On
    /// [`VmmError::BadPfn`] nothing has changed.
    pub fn remap(
        &mut self,
        pfn: u64,
        frame: FrameId,
        frames: &mut FrameTable,
    ) -> Result<(), VmmError> {
        let mut held = None;
        let stored = self.update(pfn, |old, owns| {
            held = owns.then_some(old);
            Ok(Pte::Shared(frame))
        })?;
        if stored {
            frames.share(frame);
        }
        if let Some(old) = held {
            old.release(frames);
        }
        Ok(())
    }

    /// A guest write of `value` to `pfn`: in place if the page is private,
    /// else a CoW fault onto a fresh private page, which releases the
    /// reference a stored entry held on the frame it leaves (a pristine one
    /// held none). Returns whether it faulted. On [`VmmError::BadPfn`], or
    /// [`VmmError::OutOfMemory`] from the fault, nothing has changed.
    pub fn write(
        &mut self,
        pfn: u64,
        value: u64,
        frames: &mut FrameTable,
    ) -> Result<bool, VmmError> {
        let mut faulted = false;
        self.update(pfn, |pte, owns| {
            if let Pte::Shared(frame) = pte {
                frames.alloc_private(1)?;
                if owns {
                    frames.release(frame);
                }
                faulted = true;
            }
            // A page's content is one word, so the copy is born written.
            Ok(Pte::Private(value))
        })?;
        Ok(faulted)
    }

    /// Makes the page at `pfn` shareable and returns the frame its entry
    /// names from now on: a private page's content moves into a fresh row,
    /// which the entry holds read-only (the frame count does not move), so
    /// the next write faults; a shared entry is left as it is.
    pub(crate) fn freeze(
        &mut self,
        pfn: u64,
        frames: &mut FrameTable,
    ) -> Result<FrameId, VmmError> {
        let mut named = FrameId(0);
        self.update(pfn, |pte, _| {
            named = match pte {
                Pte::Private(content) => frames.promote(content),
                Pte::Shared(frame) => frame,
            };
            Ok(Pte::Shared(named))
        })?;
        Ok(named)
    }

    /// Iterates all entries with their pfn, in pfn order: the dense table
    /// the space stands for, one [`AddressSpace::lookup`] per pfn. Nothing
    /// on a hot path walks it; a checkpoint writes what the space stores.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        (0..self.size()).filter_map(|pfn| Some((pfn, self.lookup(pfn).ok()?)))
    }

    /// Iterates, in pfn order, the entries that are stored rather than
    /// implied by the base — the only ones that can be anything but a
    /// pristine read-only image mapping, and the only ones that own a
    /// reference. A walk with nothing to do for pristine pages takes these.
    pub fn stored(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        let delta = self.delta.iter().map(|(pfn, word)| (pfn, self.entry(pfn, word)));
        delta.chain(self.tail_entries())
    }

    /// Lets `to` name, in pfn order, a frame for every stored entry below
    /// `limit` (see [`AddressSpace::stored`]) to map read-only instead, or
    /// `None` to leave it; pages implied by the base are not visited. One
    /// linear pass however many entries change. A remapped entry's reference
    /// moves to the frame, or is given up where the entry comes out as the
    /// base implies (it is then dropped).
    pub(crate) fn remap_stored_below(
        &mut self,
        limit: u64,
        frames: &mut FrameTable,
        mut to: impl FnMut(u64, Pte, &FrameTable) -> Option<FrameId>,
    ) {
        let (mut private, slots) = (self.private, self.size() as usize);
        let shared = &mut self.shared;
        // Rewrites one stored word and says whether it stays stored;
        // `implied` is the base's frame.
        let mut visit = |pfn: u64, word: &mut u64, implied: Option<FrameId>| {
            let was = Pte::from_word(*word, shared.get(pfn));
            let Some(frame) = to(pfn, was, frames) else { return true };
            let stored = implied != Some(frame);
            if stored {
                frames.share(frame);
            }
            private -= u64::from(was.is_private());
            was.release(frames);
            shared.set(pfn, stored, slots);
            *word = frame.0;
            stored
        };
        let (base, pages) = (&self.base, self.base.len() as u64);
        self.delta
            .retain_mut(|pfn, word| pfn >= limit || visit(pfn, word, Some(base[pfn as usize])));
        for (pfn, word) in (pages..limit).zip(&mut self.tail) {
            visit(pfn, word, None);
        }
        self.private = private;
    }

    /// Counts entries the domain owns exclusively (its private pages).
    #[must_use]
    pub fn private_pages(&self) -> u64 {
        self.private
    }

    /// Counts entries mapped read-only from a shared frame.
    #[must_use]
    pub fn shared_pages(&self) -> u64 {
        self.size() - self.private_pages()
    }

    /// Releases every stored entry's reference back to the table — the
    /// shared ones in pfn order (the table's free list is LIFO, so the order
    /// decides every later allocation) — and empties the space. Pristine
    /// pages hold nothing.
    pub fn release_all(&mut self, frames: &mut FrameTable) {
        for (_, pte) in self.stored() {
            if let Pte::Shared(frame) = pte {
                frames.release(frame);
            }
        }
        frames.release_private(self.private);
        *self = Self::from_entries(Vec::new());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space_with(frames: &mut FrameTable, n: u64) -> AddressSpace {
        frames.alloc_private(n).unwrap();
        AddressSpace::from_entries((0..n).map(Pte::Private).collect())
    }

    /// A 6-page image with a 2-page private tail, as `flash_clone` builds.
    fn clone_of(frames: &mut FrameTable) -> (Arc<[FrameId]>, AddressSpace) {
        let base: Arc<[FrameId]> = (0..6).map(|i| frames.alloc(100 + i).unwrap()).collect();
        frames.alloc_private(2).unwrap();
        let space = AddressSpace::over_base(Arc::clone(&base), vec![Pte::Private(0); 2]);
        (base, space)
    }

    #[test]
    fn lookup_in_and_out_of_range() {
        let mut ft = FrameTable::new(10);
        let space = space_with(&mut ft, 4);
        assert_eq!(space.lookup(3), Ok(Pte::Private(3)));
        assert_eq!(space.lookup(4).unwrap_err(), VmmError::BadPfn { pfn: 4, size: 4 });
        assert_eq!(space.size(), 4);
    }

    #[test]
    fn an_entry_is_one_word() {
        let mut ft = FrameTable::new(700);
        let base: Arc<[FrameId]> = (0..600).map(|i| ft.alloc(i).unwrap()).collect();
        let mut space = AddressSpace::over_base(base, vec![Pte::Private(0); 3]);
        ft.alloc_private(3).unwrap();
        space.write(7, 1, &mut ft).unwrap();
        fn word_of<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        assert_eq!((word_of(&space.tail), word_of(&space.delta.words)), (8, 8));
        assert!(space.shared.0.is_empty(), "no bitmap while nothing stored is shared");
        space.freeze(7, &mut ft).unwrap();
        assert_eq!(space.shared.0.len(), 10, "one bit per page, once one is shared");
    }

    #[test]
    fn remap_changes_entry() {
        let mut ft = FrameTable::new(10);
        let mut space = space_with(&mut ft, 2);
        let new_frame = ft.alloc(99).unwrap();
        space.remap(1, new_frame, &mut ft).unwrap();
        assert_eq!(space.lookup(1), Ok(Pte::Shared(new_frame)));
        assert_eq!(ft.refcount(new_frame), 2, "the allocation's reference and the entry's");
        assert_eq!(ft.used_frames(), 2, "the displaced private page went back");
        assert!(space.remap(5, new_frame, &mut ft).is_err());
        assert_eq!(ft.refcount(new_frame), 2, "a refused remap takes nothing");
    }

    #[test]
    fn private_and_shared_counts() {
        let mut ft = FrameTable::new(10);
        let shared = ft.alloc(0).unwrap();
        ft.share(shared);
        ft.share(shared);
        let space = AddressSpace::from_entries(vec![
            Pte::Shared(shared),
            Pte::Shared(shared),
            Pte::Private(1),
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
        assert_eq!(space.lookup(3), Ok(Pte::Shared(base[3])));
        assert_eq!(space.lookup(8).unwrap_err(), VmmError::BadPfn { pfn: 8, size: 8 });

        // Diverge out of order; the delta stays in pfn order.
        assert!(space.write(4, 7, &mut ft).unwrap() && space.write(1, 8, &mut ft).unwrap());
        assert_eq!((space.delta_len(), space.private_pages(), space.shared_pages()), (2, 4, 4));
        let ptes: Vec<Pte> = space.iter().map(|(_, pte)| pte).collect();
        let image = |pfn: usize| Pte::Shared(base[pfn]);
        let expect = [image(0), Pte::Private(8), image(2), image(3), Pte::Private(7), image(5)];
        assert_eq!(ptes[..6], expect);
        let stored: Vec<u64> = space.stored().map(|(pfn, _)| pfn).collect();
        assert_eq!(stored, [1, 4, 6, 7], "the delta, then the tail");

        // Freezing keeps the entry (its frame still differs) and moves the
        // page into a row; mapping the image frame back drops it.
        let row = space.freeze(4, &mut ft).unwrap();
        assert_eq!((space.delta_len(), space.private_pages()), (2, 3));
        assert_eq!((ft.read(row), ft.refcount(row), ft.used_frames()), (7, 1, 6 + 1 + 3));
        space.remap(4, base[4], &mut ft).unwrap();
        space.remap(2, base[2], &mut ft).unwrap();
        assert_eq!((space.delta_len(), space.private_pages()), (1, 3));
        assert_eq!(ft.live_rows(), 6, "the dropped entry's row went with it");
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
            space.write(pfn, pfn + 1_000, &mut ft).unwrap();
        }
        let stored: Vec<u64> = space.stored().map(|(pfn, _)| pfn).collect();
        assert_eq!(stored, [0, 63, 64, 255, 256, 511, 512, 599]);
        for pfn in pfns {
            assert_eq!(space.lookup(pfn).unwrap().content(&ft), pfn + 1_000);
        }
        assert_eq!(space.lookup(257), Ok(Pte::Shared(base[257])));
        assert!(space.iter().map(|(pfn, _)| pfn).eq(0..600));

        space.remap(256, base[256], &mut ft).unwrap();
        space
            .remap_stored_below(512, &mut ft, |pfn, _, _| (pfn >= 255).then(|| base[pfn as usize]));
        let stored: Vec<u64> = space.stored().map(|(pfn, _)| pfn).collect();
        assert_eq!(stored, [0, 63, 64, 512, 599], "pfn 512 is not below the limit");
        assert_eq!((space.delta_len(), space.private_pages(), ft.used_frames()), (5, 5, 605));
    }

    #[test]
    fn remap_stored_visits_delta_then_tail_and_drops_pristine_entries() {
        let mut ft = FrameTable::new(32);
        let (base, mut space) = clone_of(&mut ft);
        for pfn in [5, 0, 3] {
            assert!(space.write(pfn, pfn, &mut ft).unwrap());
        }
        let row = space.freeze(5, &mut ft).unwrap();
        let mut seen = Vec::new();
        space.remap_stored_below(7, &mut ft, |pfn, pte, ft| {
            seen.push((pfn, pte.content(ft)));
            match pfn {
                0 => Some(base[0]),
                // Past the base every entry stays stored, whatever it names.
                6 => Some(base[1]),
                _ => None,
            }
        });
        assert_eq!(seen, [(0, 0), (3, 3), (5, 5), (6, 0)], "pfn order, pristine pages skipped");
        assert_eq!(
            (ft.refcount(base[0]), ft.refcount(base[1]), ft.refcount(row)),
            (1, 2, 1),
            "only a stored entry owns"
        );
        assert_eq!((space.delta_len(), space.private_pages()), (2, 2));
        assert_eq!(ft.used_frames(), 7 + 2, "six image rows, the frozen row, pfns 3 and 7");
        assert_eq!(space.lookup(0), Ok(Pte::Shared(base[0])));
        assert_eq!(space.lookup(6), Ok(Pte::Shared(base[1])));
        assert_eq!(space.lookup(7), Ok(Pte::Private(0)));
    }

    #[test]
    fn write_faults_once_and_takes_only_what_it_stores() {
        let mut ft = FrameTable::new(10);
        let (base, mut space) = clone_of(&mut ft);
        assert!(space.write(3, 0xAB, &mut ft).unwrap(), "a pristine page faults");
        assert_eq!(space.lookup(3), Ok(Pte::Private(0xAB)));
        assert_eq!(
            (ft.read(base[3]), ft.refcount(base[3])),
            (103, 1),
            "the image row is untouched"
        );
        assert_eq!((ft.live_rows(), ft.used_frames()), (6, 9), "a fault takes no row");
        assert!(!space.write(3, 0xCD, &mut ft).unwrap(), "the private page is written in place");
        assert!(!space.write(6, 1, &mut ft).unwrap(), "as is a private tail page");
        assert_eq!(
            (space.lookup(3), space.delta_len(), space.private_pages()),
            (Ok(Pte::Private(0xCD)), 1, 3)
        );

        // A stored shared entry (a merged or frozen page) gives its
        // reference up when it faults.
        let row = space.freeze(3, &mut ft).unwrap();
        ft.share(row);
        assert!(space.write(3, 0xEF, &mut ft).unwrap());
        assert_eq!(ft.refcount(row), 1, "the other holder's");
        assert_eq!((ft.read(row), space.lookup(3)), (0xCD, Ok(Pte::Private(0xEF))));

        // Out of frames: the fault fails and nothing has moved.
        assert_eq!(ft.free_frames(), 0);
        assert!(matches!(space.write(0, 1, &mut ft), Err(VmmError::OutOfMemory { .. })));
        assert_eq!(space.lookup(0), Ok(Pte::Shared(base[0])));
        assert_eq!((ft.refcount(base[0]), space.delta_len()), (1, 1));
        assert!(matches!(space.write(8, 1, &mut ft), Err(VmmError::BadPfn { pfn: 8, size: 8 })));

        space.release_all(&mut ft);
        assert_eq!(ft.used_frames(), 7, "the image's six and the other holder's row");
    }

    #[test]
    fn decode_inverts_encode_over_a_base_or_none() {
        let mut ft = FrameTable::new(32);
        let (base, mut clone) = clone_of(&mut ft);
        clone.write(2, 1, &mut ft).unwrap();
        clone.write(4, 2, &mut ft).unwrap();
        clone.freeze(4, &mut ft).unwrap();
        let dense = space_with(&mut ft, 8);
        for space in [clone, dense] {
            let mut w = SnapWriter::new();
            space.encode(&mut w);
            let bytes = w.into_bytes();
            let back = AddressSpace::decode(&mut SnapReader::new(&bytes, "p2m"), &base).unwrap();
            assert_eq!(back.shares_base(&base), space.shares_base(&base));
            assert_eq!(
                (back.delta_len(), back.private_pages()),
                (space.delta_len(), space.private_pages())
            );
            assert!(back.iter().eq(space.iter()) && back.stored().eq(space.stored()));
            let mut again = SnapWriter::new();
            back.encode(&mut again);
            assert_eq!(again.into_bytes(), bytes);
        }
        // Over a base, but the image has no pages: not what `encode` writes.
        let over_nothing = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let empty: Arc<[FrameId]> = Arc::from([]);
        assert!(AddressSpace::decode(&mut SnapReader::new(&over_nothing, "p2m"), &empty).is_err());
    }
}
