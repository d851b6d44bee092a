//! The machine frame table.
//!
//! The real Potemkin modified Xen's physical memory management so that many
//! domains could map the same machine frame copy-on-write. The simulation
//! keeps the same data structure: a global table of frames with reference
//! counts and a free list. Page *contents* are represented by a single
//! 64-bit word per frame — enough to verify CoW isolation (a clone's writes
//! must never be visible through the image or a sibling clone) without
//! storing 4 KiB per page.

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

/// Sixteen bytes a frame: a free frame is one whose count is zero.
#[derive(Clone, Debug)]
struct FrameState {
    refcount: u32,
    content: u64,
}

/// The global machine frame table of one host.
///
/// Frames are allocated with refcount 1; each further holder — an image's
/// frame list, a stored p2m entry (see [`crate::addrspace`]) — bumps the
/// count; the frame returns to the free list when the count reaches zero.
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
    /// Lifetime counters.
    allocs: u64,
    frees: u64,
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
            allocs: 0,
            frees: 0,
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
        // Never-touched frames plus explicitly freed ones.
        (self.total - self.frames.len() as u64) + self.free.len() as u64
    }

    /// Frames currently in use.
    #[must_use]
    pub fn used_frames(&self) -> u64 {
        self.total - self.free_frames()
    }

    /// Allocates a frame with the given initial content.
    ///
    /// # Errors
    ///
    /// Returns [`VmmError::OutOfMemory`] when no frame is free.
    pub fn alloc(&mut self, content: u64) -> Result<FrameId, VmmError> {
        let state = FrameState { refcount: 1, content };
        let id = if let Some(id) = self.free.pop() {
            self.frames[id as usize] = state;
            id
        } else if (self.frames.len() as u64) < self.total {
            self.frames.push(state);
            self.frames.len() as u64 - 1
        } else {
            return Err(VmmError::OutOfMemory { requested: 1, free: 0 });
        };
        self.allocs += 1;
        Ok(FrameId(id))
    }

    fn state(&self, frame: FrameId) -> &FrameState {
        self.frames
            .get(frame.0 as usize)
            .filter(|state| state.refcount > 0)
            .expect("frame id must reference a live frame")
    }

    fn state_mut(&mut self, frame: FrameId) -> &mut FrameState {
        self.frames
            .get_mut(frame.0 as usize)
            .filter(|state| state.refcount > 0)
            .expect("frame id must reference a live frame")
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

    /// Writes the content word of a live frame.
    ///
    /// This does *not* perform CoW — callers must only write frames they own
    /// exclusively (the domain layer enforces this via writable bits).
    ///
    /// # Panics
    ///
    /// Panics if the frame is not live.
    pub(crate) fn write(&mut self, frame: FrameId, content: u64) {
        self.state_mut(frame).content = content;
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
            self.frees += 1;
        }
    }
}

/// The counters, the dense table length (the touched-frame high-water
/// mark), the free list in LIFO order — allocation order after restore must
/// match the uninterrupted run — and every live frame as `(index, refcount,
/// content)` in index order. A table longer than `total`, or one whose slots
/// are not each claimed exactly once — by a live row with a count above zero
/// or by the free list — is a decode error.
impl Snap for FrameTable {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.total);
        w.u64(self.allocs);
        w.u64(self.frees);
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
        let allocs = r.u64()?;
        let frees = r.u64()?;
        let table_len = r.usize()?;
        let free = Vec::<u64>::unsnap(r)?;
        let live = Vec::<(u64, u32, u64)>::unsnap(r)?;
        // Every touched slot is either live or on the free list, which also
        // bounds the table by what the payload actually holds.
        if table_len as u64 > total || free.len().checked_add(live.len()) != Some(table_len) {
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
        Ok(FrameTable { frames, free, total, allocs, frees })
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
        assert_eq!(ft.free_frames(), 4);
        assert_eq!(ft.allocs, 2);
        assert_eq!(ft.frees, 2);
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
    fn content_isolated_per_frame() {
        let mut ft = FrameTable::new(10);
        let frames: Vec<FrameId> = (0..10).map(|i| ft.alloc(i * 100).unwrap()).collect();
        for (i, &f) in frames.iter().enumerate() {
            assert_eq!(ft.read(f), i as u64 * 100);
        }
        ft.write(frames[3], 999);
        assert_eq!(ft.read(frames[3]), 999);
        assert_eq!(ft.read(frames[2]), 200);
        assert_eq!(ft.read(frames[4]), 400);
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
