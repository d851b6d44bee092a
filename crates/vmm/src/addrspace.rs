//! Per-domain pseudo-physical address spaces (the p2m map).
//!
//! Each domain sees a contiguous pseudo-physical frame space `0..size`.
//! Every entry is a private page — the domain's alone, written in place,
//! its content word held by the entry itself — or a read-only mapping of a
//! page others may map too: a shared frame-table row, or a page of the
//! domain's boot image, which has no row (`crate::snapshot`). The first
//! write to a read-only page is a CoW fault that makes that one entry a
//! private page: delta virtualization.
//!
//! The map is itself delta-virtualized. A flash clone holds its image by
//! reference (the *base*: every pfn the image covers maps read-only as the
//! image maps it), a *delta* of the entries that have diverged from that
//! (bitmap-indexed, see `Delta`), and a dense *tail* for the pages past the
//! image (the per-domain overhead). A domain with nothing to share (full
//! copy, cold boot, a hand-built space) has no base: everything is in the
//! tail. Callers see one dense table (`lookup`, `remap`, `iter`), and the
//! representation is canonical: the delta holds exactly the entries that
//! differ from the base. A stored entry is one 8-byte word — a private
//! page's content, a row's number or a boot page's — and a two-bit kind.
//!
//! References follow the representation. A *stored* entry, delta or tail,
//! owns what it holds: a shared one a reference on its row, a private one
//! its page in the frame table's count, an image one nothing (the boot
//! image holds its pages). A pristine mapping owns nothing: the hold on the
//! image stands for it. Constructors adopt entries whose references the
//! caller took; `write`, `remap`, `freeze`, `remap_stored_below` and
//! `release_all` keep the rule from there, so a clone costs the frame table
//! its overhead and dirtied pages and no row.
//!
//! A checkpoint writes the same three parts and nothing they imply
//! (`AddressSpace::encode`): a fresh clone's bytes are its overhead pages,
//! whatever the size of its image.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::sync::Arc;

use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};

use crate::error::VmmError;
use crate::frame::{FrameId, FrameTable};
use crate::snapshot::ReferenceImage;

/// One p2m entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pte {
    /// A page the domain owns alone and writes in place: its content word.
    Private(u64),
    /// A read-only mapping of a shared machine frame; a write faults.
    Shared(FrameId),
    /// A read-only mapping of this page of the domain's boot image, which
    /// has no frame; a write faults. A flash clone's pristine page is the
    /// one at its own pfn.
    Image(u64),
}

impl Pte {
    /// The page's content word in a domain of `image`.
    #[must_use]
    pub(crate) fn content(self, frames: &FrameTable, image: &ReferenceImage) -> u64 {
        match self {
            Pte::Private(content) => content,
            Pte::Shared(frame) => frames.read(frame),
            Pte::Image(pfn) => image.boot_content(pfn),
        }
    }

    fn is_private(self) -> bool {
        matches!(self, Pte::Private(_))
    }

    /// The stored word: the content, the frame's number or the page's.
    fn word(self) -> u64 {
        match self {
            Pte::Private(word) | Pte::Shared(FrameId(word)) | Pte::Image(word) => word,
        }
    }

    /// What the word stands for: 0 private, 1 shared, 2 image.
    fn kind(self) -> u64 {
        match self {
            Pte::Private(_) => 0,
            Pte::Shared(_) => 1,
            Pte::Image(_) => 2,
        }
    }

    /// The entry of `kind` whose stored word is `word`.
    fn of(kind: u64, word: u64) -> Option<Pte> {
        match kind {
            0 => Some(Pte::Private(word)),
            1 => Some(Pte::Shared(FrameId(word))),
            2 => Some(Pte::Image(word)),
            _ => None,
        }
    }

    /// Gives back the reference a stored entry owns.
    fn release(self, frames: &mut FrameTable) {
        match self {
            Pte::Private(_) => frames.release_private(1),
            Pte::Shared(frame) => frames.release(frame),
            Pte::Image(_) => {}
        }
    }
}

/// The kind (see `Pte::kind`) as a tag byte, then the word.
impl Snap for Pte {
    fn snap(&self, w: &mut SnapWriter) {
        w.u8(self.kind() as u8);
        w.u64(self.word());
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let kind = r.u8()?;
        Pte::of(kind.into(), r.u64()?).ok_or_else(|| r.bad())
    }
}

/// The kind of each stored word, two bits per pfn, nothing at all until the
/// first that is not private.
#[derive(Clone, Debug, Default)]
struct Kinds(Vec<u64>);

impl Kinds {
    /// What the stored `word` of `pfn` stands for.
    fn entry(&self, pfn: u64, word: u64) -> Pte {
        let kind = self.0.get(pfn as usize / 32).map_or(0, |&bits| bits >> (pfn % 32 * 2) & 3);
        Pte::of(kind, word).unwrap_or(Pte::Private(word))
    }

    /// Records `pfn`'s kind, of `pages` (0 for a pfn no longer stored).
    fn set(&mut self, pfn: u64, kind: u64, pages: usize) {
        if kind != 0 && self.0.is_empty() {
            self.0 = vec![0; pages.div_ceil(32)];
        }
        if let Some(bits) = self.0.get_mut(pfn as usize / 32) {
            let at = pfn % 32 * 2;
            *bits = *bits & !(3 << at) | kind << at;
        }
    }
}

/// The entries below the base's pages that have diverged from it.
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
    /// The reference image a flash clone maps, shared with every sibling
    /// clone: pfn `i` below its pages maps as the image does unless the
    /// delta says otherwise. `None` for a space with nothing to share.
    base: Option<Arc<ReferenceImage>>,
    /// Entries below the base's pages that differ from the pristine base
    /// mapping, and only those.
    delta: Delta,
    /// Entries for the pfns past the base's pages, dense.
    tail: Vec<u64>,
    /// What each stored word, by pfn, stands for.
    kinds: Kinds,
    /// Private entries across delta and tail (base entries never are).
    private: u64,
}

impl AddressSpace {
    /// Builds an address space from explicit entries (nothing shared).
    #[must_use]
    pub fn from_entries(entries: Vec<Pte>) -> Self {
        Self::over(None, entries)
    }

    /// Builds a space over `base` (a flash clone's image), followed by
    /// `tail`. Touches no frame's count.
    #[must_use]
    pub(crate) fn over(base: Option<Arc<ReferenceImage>>, tail: Vec<Pte>) -> Self {
        let pages = base.as_ref().map_or(0, |base| base.pages());
        let slots = pages as usize + tail.len();
        let (mut kinds, mut private) = (Kinds::default(), 0);
        let tail = (pages..)
            .zip(tail)
            .map(|(pfn, pte)| {
                kinds.set(pfn, pte.kind(), slots);
                private += u64::from(pte.is_private());
                pte.word()
            })
            .collect();
        AddressSpace { base, delta: Delta::default(), tail, kinds, private }
    }

    /// Checkpoint support: one bool (does the space sit over its image?),
    /// the delta as `(pfn, Pte)` pairs in pfn order, then the tail's
    /// entries. The size is not written; it is the image's pages plus the
    /// tail's.
    pub(crate) fn encode(&self, w: &mut SnapWriter) {
        w.bool(self.base.is_some());
        w.usize(self.delta.words.len());
        self.delta.iter().for_each(|(pfn, word)| (pfn, self.kinds.entry(pfn, word)).snap(w));
        w.usize(self.tail.len());
        self.tail_entries().for_each(|(_, pte)| pte.snap(w));
    }

    /// Reads a space written by [`AddressSpace::encode`], over `image` (its
    /// domain's image) if the space sat over it. Each pair is applied
    /// through the one write path, so the delta is rebuilt as a running
    /// space would have built it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Decode`] for a space no host builds: smaller than
    /// `image`, a shared or image page past `image` or a page `image` does
    /// not have, or a pair out of pfn order, past the base, or equal to
    /// what the base implies.
    pub(crate) fn decode(
        r: &mut SnapReader<'_>,
        image: &Arc<ReferenceImage>,
    ) -> Result<Self, SnapshotError> {
        let pages = image.pages();
        let base = r.bool()?.then(|| Arc::clone(image));
        let pairs = Vec::<(u64, Pte)>::unsnap(r)?;
        let mut space = Self::over(base, Vec::unsnap(r)?);
        // Pages past the image are the domain's own overhead, never shared.
        let stray = |pfn: u64, pte: Pte| match pte {
            Pte::Private(_) => false,
            Pte::Shared(_) => pfn >= pages,
            Pte::Image(page) => pfn >= pages || page >= pages,
        };
        if space.size() < pages || space.tail_entries().any(|(pfn, pte)| stray(pfn, pte)) {
            return Err(r.bad());
        }
        let mut next = 0;
        for (pfn, pte) in pairs {
            let implied = space.pristine(pfn);
            if pfn < next || implied.is_none_or(|implied| implied == pte) || stray(pfn, pte) {
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
        self.base_pages() + self.tail.len() as u64
    }

    /// How many pfns the base covers.
    fn base_pages(&self) -> u64 {
        self.base.as_ref().map_or(0, |base| base.pages())
    }

    /// Whether this space sits over `image` as its base.
    #[cfg(test)]
    pub(crate) fn is_over(&self, image: &Arc<ReferenceImage>) -> bool {
        self.base.as_ref().is_some_and(|base| Arc::ptr_eq(base, image))
    }

    /// How many entries below the base's pages have diverged from it.
    #[cfg(test)]
    pub(crate) fn delta_len(&self) -> usize {
        self.delta.words.len()
    }

    /// What the base maps at `pfn` read-only, if it covers `pfn`.
    fn pristine(&self, pfn: u64) -> Option<Pte> {
        self.base.as_ref().filter(|base| pfn < base.pages()).map(|base| base.pristine(pfn))
    }

    /// Where in `tail` the entry for `pfn` (at or past the base's pages) is.
    fn tail_slot(&self, pfn: u64) -> Result<usize, VmmError> {
        let at = (pfn - self.base_pages()) as usize;
        if at < self.tail.len() {
            Ok(at)
        } else {
            Err(VmmError::BadPfn { pfn, size: self.size() })
        }
    }

    /// The tail's entries with their pfn.
    fn tail_entries(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        let pfns = self.base_pages()..;
        pfns.zip(&self.tail).map(|(pfn, &word)| (pfn, self.kinds.entry(pfn, word)))
    }

    /// Looks up the entry for `pfn`.
    pub fn lookup(&self, pfn: u64) -> Result<Pte, VmmError> {
        match self.pristine(pfn) {
            Some(pristine) => Ok(match self.delta.position(pfn) {
                Ok(at) => self.kinds.entry(pfn, self.delta.words[at]),
                Err(_) => pristine,
            }),
            None => Ok(self.kinds.entry(pfn, self.tail[self.tail_slot(pfn)?])),
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
        let (old, new, stored) = match self.pristine(pfn) {
            Some(pristine) => {
                let slot = self.delta.position(pfn);
                let old = slot.map_or(pristine, |at| self.kinds.entry(pfn, self.delta.words[at]));
                let new = change(old, slot.is_ok())?;
                let word = new.word();
                match slot {
                    Ok(at) if new == pristine => self.delta.remove(pfn, at),
                    Ok(at) => self.delta.words[at] = word,
                    Err(at) if new != pristine => {
                        self.delta.insert(pfn, at, word, self.base_pages() as usize);
                    }
                    Err(_) => {}
                }
                (old, new, new != pristine)
            }
            None => {
                let at = self.tail_slot(pfn)?;
                let old = self.kinds.entry(pfn, self.tail[at]);
                let new = change(old, true)?;
                self.tail[at] = new.word();
                (old, new, true)
            }
        };
        let slots = self.size() as usize;
        self.kinds.set(pfn, if stored { new.kind() } else { 0 }, slots);
        self.private = self.private - u64::from(old.is_private()) + u64::from(new.is_private());
        Ok(stored)
    }

    /// Maps `pfn` read-only to `to` — a shared frame or a boot page —
    /// moving the space's reference with it: the entry takes one on a
    /// frame unless it comes out as the base implies, and a stored old
    /// entry gives its up. On [`VmmError::BadPfn`] nothing has changed.
    pub fn remap(&mut self, pfn: u64, to: Pte, frames: &mut FrameTable) -> Result<(), VmmError> {
        let mut held = None;
        let stored = self.update(pfn, |old, owns| {
            held = owns.then_some(old);
            Ok(to)
        })?;
        if let (true, Pte::Shared(frame)) = (stored, to) {
            frames.share(frame);
        }
        if let Some(old) = held {
            old.release(frames);
        }
        Ok(())
    }

    /// A guest write of `value` to `pfn`: in place if the page is private,
    /// else a CoW fault onto a fresh private page, which gives up what a
    /// stored entry held (a pristine one held nothing). Returns whether it
    /// faulted. On [`VmmError::BadPfn`], or [`VmmError::OutOfMemory`] from
    /// the fault, nothing has changed.
    pub fn write(
        &mut self,
        pfn: u64,
        value: u64,
        frames: &mut FrameTable,
    ) -> Result<bool, VmmError> {
        let mut faulted = false;
        self.update(pfn, |pte, owns| {
            if !pte.is_private() {
                frames.alloc_private(1)?;
                if owns {
                    pte.release(frames);
                }
                faulted = true;
            }
            // A page's content is one word, so the copy is born written.
            Ok(Pte::Private(value))
        })?;
        Ok(faulted)
    }

    /// Makes the page at `pfn` shareable and returns what its entry maps
    /// read-only from now on: a private page's content moves into a fresh
    /// row, which the entry holds (the frame count does not move), so the
    /// next write faults; a read-only entry is left as it is.
    pub(crate) fn freeze(&mut self, pfn: u64, frames: &mut FrameTable) -> Result<Pte, VmmError> {
        let mut frozen = Pte::Image(pfn);
        self.update(pfn, |pte, _| {
            frozen = match pte {
                Pte::Private(content) => Pte::Shared(frames.promote(content)),
                read_only => read_only,
            };
            Ok(frozen)
        })?;
        Ok(frozen)
    }

    /// Iterates all entries with their pfn, in pfn order: the dense table
    /// the space stands for, one [`AddressSpace::lookup`] per pfn. Nothing
    /// on a hot path walks it; a checkpoint writes what the space stores.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        (0..self.size()).filter_map(|pfn| Some((pfn, self.lookup(pfn).ok()?)))
    }

    /// Iterates, in pfn order, the entries that are stored rather than
    /// implied by the base — the only ones that can be anything but a
    /// pristine read-only image mapping, and the only ones that own what
    /// they hold. A walk with nothing to do for pristine pages takes these.
    pub fn stored(&self) -> impl Iterator<Item = (u64, Pte)> + '_ {
        let delta = self.delta.iter().map(|(pfn, word)| (pfn, self.kinds.entry(pfn, word)));
        delta.chain(self.tail_entries())
    }

    /// Lets `to` name, in pfn order, a read-only mapping for every stored
    /// entry below `limit` to take instead, or `None` to leave it, in one
    /// linear pass. A remapped entry's reference moves to what it maps, or
    /// is given up where it comes out as the base implies (and is dropped).
    pub(crate) fn remap_stored_below(
        &mut self,
        limit: u64,
        frames: &mut FrameTable,
        mut to: impl FnMut(u64, Pte) -> Option<Pte>,
    ) {
        let (mut private, slots) = (self.private, self.size() as usize);
        let kinds = &mut self.kinds;
        // Rewrites one stored word and says whether it stays stored;
        // `implied` is the base's mapping.
        let mut visit = |pfn: u64, word: &mut u64, implied: Option<Pte>| {
            let was = kinds.entry(pfn, *word);
            let Some(now) = to(pfn, was) else { return true };
            let stored = implied != Some(now);
            if let (true, Pte::Shared(frame)) = (stored, now) {
                frames.share(frame);
            }
            private -= u64::from(was.is_private());
            was.release(frames);
            kinds.set(pfn, if stored { now.kind() } else { 0 }, slots);
            *word = now.word();
            stored
        };
        let base = self.base.as_deref();
        let pages = base.map_or(0, ReferenceImage::pages);
        self.delta.retain_mut(|pfn, word| {
            pfn >= limit || visit(pfn, word, base.map(|base| base.pristine(pfn)))
        });
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

    /// Counts entries mapped read-only, from a shared frame or an image.
    #[must_use]
    pub fn shared_pages(&self) -> u64 {
        self.size() - self.private_pages()
    }

    /// Releases every stored entry's reference back to the table — the
    /// shared ones in pfn order (the table's free list is LIFO, so the order
    /// decides every later allocation) — and empties the space. Pristine
    /// and image pages hold nothing.
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
    use crate::block::BaseDisk;
    use crate::guest::GuestProfile;
    use crate::snapshot::ImageId;

    fn space_with(frames: &mut FrameTable, n: u64) -> AddressSpace {
        frames.alloc_private(n).unwrap();
        AddressSpace::from_entries((0..n).map(Pte::Private).collect())
    }

    /// A boot image of `pages` pages, counted in `frames` as a host counts
    /// one.
    fn image_of(frames: &mut FrameTable, pages: u64) -> Arc<ReferenceImage> {
        frames.alloc_private(pages).unwrap();
        let profile = GuestProfile { memory_pages: pages, ..GuestProfile::small() };
        Arc::new(ReferenceImage::boot(ImageId(0), "t", BaseDisk::generate(1, 1), profile))
    }

    /// A 6-page image with a 2-page private tail, as `flash_clone` builds.
    fn clone_of(frames: &mut FrameTable) -> (Arc<ReferenceImage>, AddressSpace) {
        let image = image_of(frames, 6);
        frames.alloc_private(2).unwrap();
        let space = AddressSpace::over(Some(Arc::clone(&image)), vec![Pte::Private(0); 2]);
        (image, space)
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
        let image = image_of(&mut ft, 600);
        let mut space = AddressSpace::over(Some(Arc::clone(&image)), vec![Pte::Private(0); 3]);
        ft.alloc_private(3).unwrap();
        space.write(7, 1, &mut ft).unwrap();
        space.write(8, 1, &mut ft).unwrap();
        fn word_of<T>(_: &[T]) -> usize {
            std::mem::size_of::<T>()
        }
        assert_eq!((word_of(&space.tail), word_of(&space.delta.words)), (8, 8));
        assert!(space.kinds.0.is_empty(), "no kind map while everything stored is private");
        space.freeze(7, &mut ft).unwrap();
        assert_eq!(space.kinds.0.len(), 19, "two bits per page, once one is shared");
        space.remap(8, Pte::Image(9), &mut ft).unwrap();
        assert_eq!(space.lookup(8), Ok(Pte::Image(9)));
        assert_eq!((space.lookup(7).unwrap().content(&ft, &image), space.delta_len()), (1, 2));
    }

    #[test]
    fn remap_changes_entry() {
        let mut ft = FrameTable::new(10);
        let mut space = space_with(&mut ft, 2);
        let new_frame = ft.alloc(99).unwrap();
        space.remap(1, Pte::Shared(new_frame), &mut ft).unwrap();
        assert_eq!(space.lookup(1), Ok(Pte::Shared(new_frame)));
        assert_eq!(ft.refcount(new_frame), 2, "the allocation's reference and the entry's");
        assert_eq!(ft.used_frames(), 2, "the displaced private page went back");
        assert!(space.remap(5, Pte::Shared(new_frame), &mut ft).is_err());
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
        let (image, mut space) = clone_of(&mut ft);
        assert_eq!((space.size(), space.delta_len(), space.private_pages()), (8, 0, 2));
        assert_eq!(space.lookup(3), Ok(Pte::Image(3)));
        assert_eq!(space.lookup(3).unwrap().content(&ft, &image), image.boot_content(3));
        assert_eq!(space.lookup(8).unwrap_err(), VmmError::BadPfn { pfn: 8, size: 8 });

        // Diverge out of order; the delta stays in pfn order.
        assert!(space.write(4, 7, &mut ft).unwrap() && space.write(1, 8, &mut ft).unwrap());
        assert_eq!((space.delta_len(), space.private_pages(), space.shared_pages()), (2, 4, 4));
        let ptes: Vec<Pte> = space.iter().map(|(_, pte)| pte).collect();
        let image_page = Pte::Image;
        let expect = [image_page(0), Pte::Private(8), image_page(2), image_page(3)];
        assert_eq!(ptes[..4], expect);
        assert_eq!(ptes[4..6], [Pte::Private(7), image_page(5)]);
        let stored: Vec<u64> = space.stored().map(|(pfn, _)| pfn).collect();
        assert_eq!(stored, [1, 4, 6, 7], "the delta, then the tail");

        // Freezing keeps the entry (it now maps a row, not the image page)
        // and moves the page into the row; mapping the image page back
        // drops it.
        let Pte::Shared(row) = space.freeze(4, &mut ft).unwrap() else { panic!("a row") };
        assert_eq!((space.delta_len(), space.private_pages()), (2, 3));
        assert_eq!((ft.read(row), ft.refcount(row), ft.used_frames()), (7, 1, 6 + 1 + 3));
        space.remap(4, Pte::Image(4), &mut ft).unwrap();
        space.remap(2, Pte::Image(2), &mut ft).unwrap();
        assert_eq!((space.delta_len(), space.private_pages()), (1, 3));
        assert_eq!(ft.live_rows(), 0, "the dropped entry's row went with it");
        assert_eq!(ft.used_frames(), 6 + 3, "and image pages never had one");
    }

    #[test]
    fn delta_keeps_pfn_order_across_words_and_blocks() {
        let mut ft = FrameTable::new(2_048);
        let image = image_of(&mut ft, 600);
        let mut space = AddressSpace::over(Some(Arc::clone(&image)), Vec::new());
        // Either side of word and block boundaries, high pfns first.
        let pfns = [599, 256, 255, 0, 511, 512, 63, 64];
        for pfn in pfns {
            space.write(pfn, pfn + 1_000, &mut ft).unwrap();
        }
        let stored: Vec<u64> = space.stored().map(|(pfn, _)| pfn).collect();
        assert_eq!(stored, [0, 63, 64, 255, 256, 511, 512, 599]);
        for pfn in pfns {
            assert_eq!(space.lookup(pfn).unwrap().content(&ft, &image), pfn + 1_000);
        }
        assert_eq!(space.lookup(257), Ok(Pte::Image(257)));
        assert!(space.iter().map(|(pfn, _)| pfn).eq(0..600));

        space.remap(256, Pte::Image(256), &mut ft).unwrap();
        space.remap_stored_below(512, &mut ft, |pfn, _| (pfn >= 255).then_some(Pte::Image(pfn)));
        let stored: Vec<u64> = space.stored().map(|(pfn, _)| pfn).collect();
        assert_eq!(stored, [0, 63, 64, 512, 599], "pfn 512 is not below the limit");
        assert_eq!((space.delta_len(), space.private_pages(), ft.used_frames()), (5, 5, 605));
    }

    #[test]
    fn remap_stored_visits_delta_then_tail_and_drops_pristine_entries() {
        let mut ft = FrameTable::new(32);
        let (_, mut space) = clone_of(&mut ft);
        for pfn in [5, 0, 3] {
            assert!(space.write(pfn, pfn, &mut ft).unwrap());
        }
        let frozen = space.freeze(5, &mut ft).unwrap();
        let Pte::Shared(row) = frozen else { panic!("a row") };
        let mut seen = Vec::new();
        space.remap_stored_below(7, &mut ft, |pfn, pte| {
            seen.push((pfn, pte));
            match pfn {
                0 => Some(Pte::Image(0)),
                // Past the base every entry stays stored, whatever it maps.
                6 => Some(frozen),
                _ => None,
            }
        });
        let zero = Pte::Private(0);
        let expect = [(0, zero), (3, Pte::Private(3)), (5, frozen), (6, zero)];
        assert_eq!(seen, expect, "pfn order, pristine pages skipped");
        assert_eq!(ft.refcount(row), 2, "only a stored entry owns");
        assert_eq!((space.delta_len(), space.private_pages()), (2, 2));
        assert_eq!(ft.used_frames(), 6 + 1 + 2, "six image pages, the frozen row, pfns 3 and 7");
        assert_eq!(space.lookup(0), Ok(Pte::Image(0)));
        assert_eq!(space.lookup(6), Ok(frozen));
        assert_eq!(space.lookup(7), Ok(Pte::Private(0)));
    }

    #[test]
    fn write_faults_once_and_takes_only_what_it_stores() {
        let mut ft = FrameTable::new(10);
        let (_, mut space) = clone_of(&mut ft);
        assert!(space.write(3, 0xAB, &mut ft).unwrap(), "a pristine page faults");
        assert_eq!(space.lookup(3), Ok(Pte::Private(0xAB)));
        assert_eq!((ft.live_rows(), ft.used_frames()), (0, 9), "a fault takes no row");
        assert!(!space.write(3, 0xCD, &mut ft).unwrap(), "the private page is written in place");
        assert!(!space.write(6, 1, &mut ft).unwrap(), "as is a private tail page");
        assert_eq!(
            (space.lookup(3), space.delta_len(), space.private_pages()),
            (Ok(Pte::Private(0xCD)), 1, 3)
        );

        // A stored shared entry (a merged or frozen page) gives its
        // reference up when it faults.
        let Pte::Shared(row) = space.freeze(3, &mut ft).unwrap() else { panic!("a row") };
        ft.share(row);
        assert!(space.write(3, 0xEF, &mut ft).unwrap());
        assert_eq!(ft.refcount(row), 1, "the other holder's");
        assert_eq!((ft.read(row), space.lookup(3)), (0xCD, Ok(Pte::Private(0xEF))));

        // Out of frames: the fault fails and nothing has moved.
        assert_eq!(ft.free_frames(), 0);
        assert!(matches!(space.write(0, 1, &mut ft), Err(VmmError::OutOfMemory { .. })));
        assert_eq!((space.lookup(0), space.delta_len()), (Ok(Pte::Image(0)), 1));
        assert!(matches!(space.write(8, 1, &mut ft), Err(VmmError::BadPfn { pfn: 8, size: 8 })));

        space.release_all(&mut ft);
        assert_eq!(ft.used_frames(), 7, "the image's six and the other holder's row");
    }

    #[test]
    fn decode_inverts_encode_over_a_base_or_none() {
        let mut ft = FrameTable::new(32);
        let (image, mut clone) = clone_of(&mut ft);
        clone.write(2, 1, &mut ft).unwrap();
        clone.write(4, 2, &mut ft).unwrap();
        clone.freeze(4, &mut ft).unwrap();
        clone.remap(5, Pte::Image(1), &mut ft).unwrap();
        let dense = space_with(&mut ft, 8);
        for space in [clone, dense] {
            let mut w = SnapWriter::new();
            space.encode(&mut w);
            let bytes = w.into_bytes();
            let back = AddressSpace::decode(&mut SnapReader::new(&bytes, "p2m"), &image).unwrap();
            assert_eq!(back.is_over(&image), space.is_over(&image));
            assert_eq!(
                (back.delta_len(), back.private_pages()),
                (space.delta_len(), space.private_pages())
            );
            assert!(back.iter().eq(space.iter()) && back.stored().eq(space.stored()));
            let mut again = SnapWriter::new();
            back.encode(&mut again);
            assert_eq!(again.into_bytes(), bytes);
        }
        // A flash clone of an image with no pages sits over it all the same.
        let over_nothing = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let empty = image_of(&mut ft, 0);
        let back = AddressSpace::decode(&mut SnapReader::new(&over_nothing, "p2m"), &empty);
        assert!(back.is_ok_and(|back| back.is_over(&empty) && back.size() == 0));
    }
}
