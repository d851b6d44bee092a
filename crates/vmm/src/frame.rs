//! The machine frame table.
//!
//! The real Potemkin modified Xen's physical memory management so that many
//! domains could map the same machine frame copy-on-write. The simulation
//! keeps the same data structure: a global table of frames with reference
//! counts and a free list. Page *contents* are represented by a single
//! 64-bit word per shared frame — enough to verify CoW isolation (a clone's
//! writes must never be visible through the image or a sibling clone)
//! without storing 4 KiB per page.
//!
//! Only a frame that a merge pass or a forensic snapshot shares has a row.
//! A page only its owner holds — a domain's private page, whose content its
//! p2m entry holds (see [`crate::addrspace`]), or a boot image's page, whose
//! content is computed — is only counted, so every admission, pressure and
//! merge decision still sees each page.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use core::fmt;

use potemkin_snapshot::{snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

use crate::error::VmmError;

/// Identifier of a machine (host-physical) frame.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u64);

snap_struct!(FrameId { 0 });

impl fmt::Debug for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mfn{}", self.0)
    }
}

impl fmt::Display for FrameId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mfn{}", self.0)
    }
}

/// Twelve bytes a frame: a free frame is one whose count is zero. Packed to
/// 4-byte alignment, so a `u64` content word does not pad every row to 16
/// bytes; fields are only ever read and written by value.
#[derive(Clone, Copy, Debug)]
#[repr(C, packed(4))]
struct FrameState {
    refcount: u32,
    content: u64,
}

/// The global machine frame table of one host.
///
/// Rows are allocated with refcount 1; each further holder — an image's
/// frozen page, a stored shared p2m entry (see [`crate::addrspace`]) —
/// bumps the count; the row returns to the free list when the count reaches
/// zero. Pages without a row are a count beside the rows, under the same
/// capacity.
///
/// # Examples
///
/// ```
/// use potemkin_vmm::FrameTable;
///
/// let mut ft = FrameTable::new(100);
/// let f = ft.alloc(0xabcd).unwrap();
/// assert_eq!(ft.read(f), 0xabcd);
/// ft.share(f);
/// assert_eq!(ft.refcount(f), 2);
/// ft.release(f);
/// ft.release(f);
/// assert_eq!(ft.used_frames(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct FrameTable {
    frames: Vec<FrameState>,
    free: Vec<u64>,
    total: u64,
    /// Pages without a row: domains' private pages and boot images' pages.
    private: u64,
}

impl FrameTable {
    /// Creates a table managing `total` frames, all free.
    #[must_use]
    pub fn new(total: u64) -> Self {
        FrameTable {
            frames: Vec::new(),
            // Free list is lazily backed: frames never allocated are
            // implicitly free. `free` holds explicitly freed frame ids.
            free: Vec::new(),
            total,
            private: 0,
        }
    }

    /// Total frames managed.
    #[must_use]
    pub(crate) fn total_frames(&self) -> u64 {
        self.total
    }

    /// Frames currently free.
    #[must_use]
    pub(crate) fn free_frames(&self) -> u64 {
        self.total - self.used_frames()
    }

    /// Frames currently in use: live rows plus pages without one.
    #[must_use]
    pub fn used_frames(&self) -> u64 {
        self.live_rows() + self.private
    }

    /// Rows with a count above zero: the frames that can be shared.
    #[must_use]
    pub fn live_rows(&self) -> u64 {
        (self.frames.len() - self.free.len()) as u64
    }

    /// Allocates a row with the given initial content.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfMemory`] when no frame is free.
    pub fn alloc(&mut self, content: u64) -> Result<FrameId, VmmError> {
        // One capacity rule: a row is a frame taken as a private page and
        // promoted.
        self.alloc_private(1)?;
        Ok(self.promote(content))
    }

    /// Counts `pages` new pages without a row.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfMemory`] when fewer frames are free.
    pub fn alloc_private(&mut self, pages: u64) -> Result<(), VmmError> {
        let free = self.free_frames();
        if free < pages {
            return Err(VmmError::OutOfMemory { requested: pages, free });
        }
        self.private += pages;
        Ok(())
    }

    /// Gives `pages` pages without a row back.
    pub fn release_private(&mut self, pages: u64) {
        self.private -= pages;
    }

    /// Moves one private page's `content` into a fresh row with refcount 1,
    /// on the frame the page occupied, so it cannot run out.
    pub(crate) fn promote(&mut self, content: u64) -> FrameId {
        self.private -= 1;
        let state = FrameState { refcount: 1, content };
        let id = if let Some(id) = self.free.pop() {
            self.frames[id as usize] = state;
            id
        } else {
            self.frames.push(state);
            self.frames.len() as u64 - 1
        };
        FrameId(id)
    }

    /// Whether `holders` (one item per reference) and `private` pages
    /// account for the table exactly: every named row live and counted once
    /// per holder, no row without one.
    pub(crate) fn is_held_by(
        &self,
        mut holders: impl Iterator<Item = FrameId>,
        private: u64,
    ) -> bool {
        let mut owed = vec![0u32; self.frames.len()];
        let at = |frame: FrameId| usize::try_from(frame.0).ok();
        holders.all(|frame| at(frame).and_then(|at| owed.get_mut(at)).map(|n| *n += 1).is_some())
            && private == self.private
            && owed.iter().zip(&self.frames).all(|(&n, s)| n == s.refcount)
    }

    /// A live frame's row; a dead one is a use-after-free in the caller.
    fn state(&self, frame: FrameId) -> &FrameState {
        let state = &self.frames[frame.0 as usize];
        assert!(state.refcount > 0, "frame id must reference a live frame");
        state
    }

    fn state_mut(&mut self, frame: FrameId) -> &mut FrameState {
        let state = &mut self.frames[frame.0 as usize];
        assert!(state.refcount > 0, "frame id must reference a live frame");
        state
    }

    /// Reads the content word of a live frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not live (a use-after-free in the caller).
    #[must_use]
    pub fn read(&self, frame: FrameId) -> u64 {
        self.state(frame).content
    }

    /// Increments a live frame's reference count (a new sharer).
    ///
    /// # Panics
    ///
    /// Panics if the frame is not live.
    pub fn share(&mut self, frame: FrameId) {
        self.state_mut(frame).refcount += 1;
    }

    /// The reference count of a live frame.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not live.
    #[must_use]
    pub fn refcount(&self, frame: FrameId) -> u32 {
        self.state(frame).refcount
    }

    /// Drops one reference; frees the frame when the count reaches zero.
    ///
    /// # Panics
    ///
    /// Panics if the frame is not live.
    pub fn release(&mut self, frame: FrameId) {
        let state = self.state_mut(frame);
        state.refcount -= 1;
        if state.refcount == 0 {
            self.free.push(frame.0);
        }
    }
}

/// The total, the private count, the table length (the touched-row
/// high-water mark), the free list in LIFO order — allocation order after
/// restore must match the uninterrupted run — and each live row as `(index,
/// refcount, content)` in index order. Rows and private pages above `total`,
/// or slots not each claimed exactly once — by a live row with a count above
/// zero or by the free list — are a decode error.
impl Snap for FrameTable {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.total);
        w.u64(self.private);
        w.usize(self.frames.len());
        self.free.snap(w);
        let live: Vec<(u64, u32, u64)> = (0..)
            .zip(&self.frames)
            .filter(|(_, s)| s.refcount > 0)
            .map(|(i, s)| (i, s.refcount, s.content))
            .collect();
        live.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let total = r.u64()?;
        let private = r.u64()?;
        let table_len = r.usize()?;
        let free = Vec::<u64>::unsnap(r)?;
        let live = Vec::<(u64, u32, u64)>::unsnap(r)?;
        // Every touched slot is either live or on the free list, which also
        // bounds the table by what the payload actually holds.
        if table_len as u64 > total
            || (live.len() as u64).checked_add(private).is_none_or(|used| used > total)
            || free.len().checked_add(live.len()) != Some(table_len)
        {
            return Err(r.bad());
        }
        let mut frames = vec![FrameState { refcount: 0, content: 0 }; table_len];
        let mut claimed = vec![false; table_len];
        let mut claim = |idx: u64| {
            let at = usize::try_from(idx).ok().filter(|&at| at < table_len)?;
            (!std::mem::replace(&mut claimed[at], true)).then_some(at)
        };
        for (idx, refcount, content) in live {
            let at = claim(idx).filter(|_| refcount > 0).ok_or_else(|| r.bad())?;
            frames[at] = FrameState { refcount, content };
        }
        if !free.iter().all(|&idx| claim(idx).is_some()) {
            return Err(r.bad());
        }
        Ok(FrameTable { frames, free, total, private })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_free_accounting() {
        let mut ft = FrameTable::new(4);
        assert_eq!(ft.free_frames(), 4);
        let a = ft.alloc(1).unwrap();
        let b = ft.alloc(2).unwrap();
        assert_eq!(ft.used_frames(), 2);
        assert_ne!(a, b);
        ft.release(a);
        assert_eq!(ft.free_frames(), 3);
        ft.release(b);
        assert_eq!((ft.free_frames(), ft.live_rows()), (4, 0));
    }

    #[test]
    fn exhaustion_returns_oom() {
        let mut ft = FrameTable::new(2);
        ft.alloc(0).unwrap();
        ft.alloc(0).unwrap();
        assert!(matches!(ft.alloc(0), Err(VmmError::OutOfMemory { .. })));
    }

    #[test]
    fn freed_frames_are_reused() {
        let mut ft = FrameTable::new(1);
        let a = ft.alloc(10).unwrap();
        ft.release(a);
        let b = ft.alloc(20).unwrap();
        assert_eq!(a, b, "single-frame table must recycle the frame");
        assert_eq!(ft.read(b), 20);
    }

    #[test]
    fn sharing_delays_free() {
        let mut ft = FrameTable::new(1);
        let f = ft.alloc(7).unwrap();
        ft.share(f);
        ft.share(f);
        assert_eq!(ft.refcount(f), 3);
        ft.release(f);
        ft.release(f);
        assert_eq!(ft.refcount(f), 1);
        assert_eq!(ft.free_frames(), 0, "still referenced");
        ft.release(f);
        assert_eq!(ft.free_frames(), 1);
    }

    #[test]
    fn a_frame_is_twelve_bytes() {
        assert_eq!(std::mem::size_of::<FrameState>(), 12);
    }

    #[test]
    fn content_isolated_per_frame() {
        let mut ft = FrameTable::new(10);
        let frames: Vec<FrameId> = (0..10).map(|i| ft.alloc(i * 100).unwrap()).collect();
        for (i, &f) in frames.iter().enumerate() {
            assert_eq!(ft.read(f), i as u64 * 100);
        }
    }

    #[test]
    fn private_pages_and_rows_share_one_capacity() {
        let mut ft = FrameTable::new(4);
        ft.alloc_private(3).unwrap();
        assert_eq!((ft.used_frames(), ft.live_rows()), (3, 0));
        assert_eq!(ft.alloc_private(2), Err(VmmError::OutOfMemory { requested: 2, free: 1 }));
        let a = ft.alloc(5).unwrap();
        assert_eq!(ft.alloc(6), Err(VmmError::OutOfMemory { requested: 1, free: 0 }));
        // A full table can still move a private page into a row.
        let b = ft.promote(7);
        assert_eq!((ft.used_frames(), ft.live_rows(), ft.read(b)), (4, 2, 7));
        ft.release(a);
        ft.release_private(2);
        assert_eq!((ft.free_frames(), ft.live_rows()), (3, 1));
    }

    #[test]
    #[should_panic(expected = "live frame")]
    fn read_after_free_panics() {
        let mut ft = FrameTable::new(1);
        let f = ft.alloc(1).unwrap();
        ft.release(f);
        let _ = ft.read(f);
    }
}
