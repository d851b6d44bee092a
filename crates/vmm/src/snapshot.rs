//! Frozen reference images.
//!
//! A reference image is a domain that was booted once, quiesced, and frozen:
//! its memory pages become immutable, reference-counted frames that every
//! flash clone maps copy-on-write, and its disk becomes an immutable base
//! disk. The image holds one reference on each of its frames, so clone
//! destruction can never free image state.
//!
//! That reference is all a clone's pristine page rests on: a clone holds
//! the image's frame list, not a count on each frame in it. It is sound
//! because a host never drops an image; anything that one day does must
//! refuse while a clone holds the list (`Arc::strong_count` above one).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use core::fmt;
use std::sync::Arc;

use potemkin_snapshot::{snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

use crate::block::BaseDisk;
use crate::frame::FrameId;
use crate::guest::GuestProfile;
use crate::storage::SharedChunkStore;

/// Identifier of a reference image on a host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ImageId(pub u64);

snap_struct!(ImageId { 0 });

impl fmt::Debug for ImageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "img{}", self.0)
    }
}

impl fmt::Display for ImageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "img{}", self.0)
    }
}

/// A frozen, cloneable snapshot of a booted guest.
#[derive(Clone, Debug)]
pub struct ReferenceImage {
    id: ImageId,
    name: String,
    /// One machine frame per pseudo-physical page; the image owns one
    /// reference on each. Immutable once frozen, and shared by reference
    /// with every flash clone's address space as its base mapping.
    frames: Arc<[FrameId]>,
    disk: BaseDisk,
    profile: GuestProfile,
}

impl ReferenceImage {
    /// Assembles an image (called by [`crate::host::Host`]; the host has
    /// already taken the frame references).
    #[must_use]
    pub(crate) fn new(
        id: ImageId,
        name: impl Into<String>,
        frames: Vec<FrameId>,
        disk: BaseDisk,
        profile: GuestProfile,
    ) -> Self {
        ReferenceImage { id, name: name.into(), frames: frames.into(), disk, profile }
    }

    /// The image identifier.
    #[must_use]
    pub(crate) fn id(&self) -> ImageId {
        self.id
    }

    /// The image's memory size in pages.
    #[must_use]
    pub fn pages(&self) -> u64 {
        self.frames.len() as u64
    }

    /// All frames, in pfn order.
    #[must_use]
    pub fn frames(&self) -> &[FrameId] {
        &self.frames
    }

    /// The frame list as clones hold it: by reference, never copied.
    pub(crate) fn shared_frames(&self) -> &Arc<[FrameId]> {
        &self.frames
    }

    /// The immutable base disk.
    #[must_use]
    pub(crate) fn disk(&self) -> &BaseDisk {
        &self.disk
    }

    /// The guest behaviour profile captured in the image.
    #[must_use]
    pub fn profile(&self) -> &GuestProfile {
        &self.profile
    }

    /// Checkpoint support: identity, frame list, disk manifest, profile.
    pub(crate) fn encode(&self, w: &mut SnapWriter) {
        self.id.snap(w);
        self.name.snap(w);
        w.seq(&*self.frames, FrameId::snap);
        self.disk.encode_manifest(w);
        self.profile.snap(w);
    }

    /// Reads an image written by [`ReferenceImage::encode`], its disk over
    /// `store` — the one thing that keeps this from being a [`Snap`] impl.
    /// An image whose profile disagrees with its frame list's length or its
    /// disk's size is a decode error: a host sizes its memory operations by
    /// the profile.
    pub(crate) fn decode(
        r: &mut SnapReader<'_>,
        store: &SharedChunkStore,
    ) -> Result<Self, SnapshotError> {
        let image = ReferenceImage {
            id: Snap::unsnap(r)?,
            name: Snap::unsnap(r)?,
            frames: Vec::unsnap(r)?.into(),
            disk: BaseDisk::decode_manifest(r, store)?,
            profile: Snap::unsnap(r)?,
        };
        let profile = &image.profile;
        if profile.memory_pages != image.pages() || profile.disk_blocks != image.disk.size() {
            return Err(r.bad());
        }
        Ok(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameTable;

    #[test]
    fn image_reports_geometry() {
        let mut ft = FrameTable::new(100);
        let frames: Vec<FrameId> = (0..10).map(|i| ft.alloc(i).unwrap()).collect();
        let img = ReferenceImage::new(
            ImageId(1),
            "test",
            frames.clone(),
            BaseDisk::generate(50, 1),
            GuestProfile::small(),
        );
        assert_eq!(img.pages(), 10);
        assert_eq!(img.frames(), &frames[..]);
        assert_eq!(img.name, "test");
        assert_eq!(img.id(), ImageId(1));
        assert_eq!(img.disk().size(), 50);
    }
}
