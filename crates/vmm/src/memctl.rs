//! Memory control plane: content-hash sharing reports and per-host
//! budgets.
//!
//! Delta virtualization keeps clone memory shared until a write diverges
//! it — but nothing in the paper's mechanism recovers sharing *after*
//! divergence, even though worm payloads write the same bytes into every
//! victim. [`Host::scan_and_merge`] closes that loop with a deterministic
//! content-index pass (the content-based sharing the paper leaves as
//! future work, KSM-style), and the types here carry its accounting: the
//! per-pass [`MergeReport`], the farm-visible [`SharingReport`], and the
//! [`MemoryBudget`] whose typed [`PressureEvent`]s drive the reclaim
//! policies in the gateway.
//!
//! [`Host::scan_and_merge`]: crate::host::Host::scan_and_merge

use potemkin_snapshot::snap_struct;

/// Outcome of one [`Host::scan_and_merge`] pass over a host.
///
/// [`Host::scan_and_merge`]: crate::host::Host::scan_and_merge
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Guest-region page mappings examined.
    pub(crate) scanned_pages: u64,
    /// Divergent pages remapped back to a shared frame.
    pub merged_pages: u64,
    /// Machine frames actually freed by the pass.
    pub frames_reclaimed: u64,
}

snap_struct!(MergeReport { scanned_pages, merged_pages, frames_reclaimed });

impl MergeReport {
    /// Folds another pass (or another host's pass) into this report.
    pub fn absorb(&mut self, other: MergeReport) {
        self.scanned_pages += other.scanned_pages;
        self.merged_pages += other.merged_pages;
        self.frames_reclaimed += other.frames_reclaimed;
    }
}

/// A host's logical-vs-physical memory occupancy.
///
/// The sharing ratio is the content-sharing figure of merit: how many
/// pages of guest-visible memory each resident machine frame backs. One
/// domain maps its whole image plus overhead; `ratio() > 1` means frames
/// are doing multiple duty (CoW sharing, content merging).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SharingReport {
    /// Pages mapped by live domains (every domain's full address space).
    pub logical_pages: u64,
    /// Machine frames currently in use (images + domain-private).
    pub resident_frames: u64,
}

impl SharingReport {
    /// Logical pages per resident frame (zero when nothing is resident).
    #[must_use]
    pub fn ratio(&self) -> f64 {
        if self.resident_frames == 0 {
            0.0
        } else {
            self.logical_pages as f64 / self.resident_frames as f64
        }
    }

    /// Folds another host's report into this one (farm-wide totals).
    pub fn absorb(&mut self, other: SharingReport) {
        self.logical_pages += other.logical_pages;
        self.resident_frames += other.resident_frames;
    }
}

/// A per-host cap on resident frames, checked before clone placement.
///
/// The budget is a *policy* bound below the physical frame count: it is
/// how the farm holds headroom for CoW faults instead of running hosts to
/// the wall and stalling guests mid-write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemoryBudget {
    limit_frames: u64,
}

impl MemoryBudget {
    /// A budget allowing at most `limit_frames` resident frames.
    #[must_use]
    pub fn new(limit_frames: u64) -> Self {
        MemoryBudget { limit_frames }
    }

    /// Admits an allocation of `requested_frames` on a host currently
    /// using `used_frames`, or returns the typed pressure event the farm
    /// feeds to its reclaim policy.
    ///
    /// # Errors
    ///
    /// Returns a [`PressureEvent`] when the allocation would exceed the
    /// budget.
    pub fn admit(&self, used_frames: u64, requested_frames: u64) -> Result<(), PressureEvent> {
        if used_frames.saturating_add(requested_frames) <= self.limit_frames {
            Ok(())
        } else {
            Err(PressureEvent { used_frames, requested_frames, limit_frames: self.limit_frames })
        }
    }
}

/// A clone allocation that would exceed a host's [`MemoryBudget`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PressureEvent {
    /// Frames the host had resident at the check.
    pub(crate) used_frames: u64,
    /// Frames the allocation asked for.
    pub requested_frames: u64,
    /// The budget it would have exceeded.
    pub(crate) limit_frames: u64,
}

snap_struct!(PressureEvent { used_frames, requested_frames, limit_frames });

impl core::fmt::Display for PressureEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "memory pressure: {} used + {} requested > {} budget",
            self.used_frames, self.requested_frames, self.limit_frames
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_admits_within_and_rejects_over() {
        let b = MemoryBudget::new(100);
        assert_eq!(b.limit_frames, 100);
        assert!(b.admit(90, 10).is_ok(), "exactly at budget admits");
        let e = b.admit(95, 10).unwrap_err();
        assert_eq!(e.used_frames, 95);
        assert_eq!(e.requested_frames, 10);
        assert_eq!(e.limit_frames, 100);
        assert!(e.to_string().contains("95 used"));
    }

    #[test]
    fn budget_saturates_instead_of_overflowing() {
        let b = MemoryBudget::new(u64::MAX);
        assert!(b.admit(u64::MAX, u64::MAX).is_ok(), "saturating add stays at MAX");
    }

    #[test]
    fn sharing_ratio() {
        let mut r = SharingReport { logical_pages: 200, resident_frames: 100 };
        assert!((r.ratio() - 2.0).abs() < 1e-12);
        r.absorb(SharingReport { logical_pages: 100, resident_frames: 200 });
        assert!((r.ratio() - 1.0).abs() < 1e-12);
        assert_eq!(SharingReport::default().ratio(), 0.0);
    }

    #[test]
    fn merge_report_absorbs() {
        let mut a = MergeReport { scanned_pages: 10, merged_pages: 4, frames_reclaimed: 3 };
        a.absorb(MergeReport { scanned_pages: 5, merged_pages: 1, frames_reclaimed: 1 });
        assert_eq!(a, MergeReport { scanned_pages: 15, merged_pages: 5, frames_reclaimed: 4 });
    }
}
