//! Frozen reference images.
//!
//! A reference image is a guest booted once and frozen; every flash clone
//! maps its pages and overlays its disk copy-on-write. A *boot* image is its
//! profile: page `pfn` holds `GuestProfile::boot_content(id, pfn)`,
//! computed where it is read, and has no frame-table row, only its count
//! among the table's pages. A forensic snapshot is its boot image plus the
//! pages its domain had diverged on, frozen: a delta over the boot image,
//! kept as a clone keeps its own ([`crate::addrspace`]), whose every entry
//! is a row the snapshot holds a reference on or a boot page at another
//! pfn. A boot image is the case with nothing frozen.
//!
//! A clone's pristine page holds nothing: the clone holds the image itself
//! (an `Arc`). That is sound because a host never drops an image; anything
//! that one day does must refuse while a clone holds it.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use core::fmt;
use std::collections::BTreeMap;
use std::sync::Arc;

use potemkin_snapshot::{snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

use crate::addrspace::{AddressSpace, Pte};
use crate::block::BaseDisk;
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
#[derive(Debug)]
pub struct ReferenceImage {
    id: ImageId,
    name: String,
    /// The boot image whose pages this image's unfrozen pages are.
    boot: ImageId,
    /// For a snapshot, a space over the boot image with no private page;
    /// for a boot image, an empty space.
    frozen: AddressSpace,
    disk: BaseDisk,
    profile: GuestProfile,
}

impl ReferenceImage {
    /// A boot image of `profile`, whose pages the host has counted.
    #[must_use]
    pub(crate) fn boot(
        id: ImageId,
        name: impl Into<String>,
        disk: BaseDisk,
        profile: GuestProfile,
    ) -> Self {
        let frozen = AddressSpace::from_entries(Vec::new());
        ReferenceImage { id, name: name.into(), boot: id, frozen, disk, profile }
    }

    /// A snapshot of a domain of `source`: `source`'s boot image with
    /// `frozen`, which took its own references, over it.
    #[must_use]
    pub(crate) fn snapshot(
        id: ImageId,
        name: impl Into<String>,
        source: &ReferenceImage,
        frozen: AddressSpace,
    ) -> Self {
        ReferenceImage {
            id,
            name: name.into(),
            boot: source.boot,
            frozen,
            disk: source.disk.clone(),
            profile: source.profile.clone(),
        }
    }

    /// The image identifier.
    #[must_use]
    pub(crate) fn id(&self) -> ImageId {
        self.id
    }

    /// The boot image whose pages this image's unfrozen pages are.
    #[must_use]
    pub(crate) fn boot_image(&self) -> ImageId {
        self.boot
    }

    /// Whether this is a boot image, which holds its pages' count.
    #[must_use]
    pub(crate) fn is_boot(&self) -> bool {
        self.boot == self.id
    }

    /// The image's memory size in pages.
    #[must_use]
    pub fn pages(&self) -> u64 {
        self.profile.memory_pages
    }

    /// The pages frozen over the boot image (its stored entries).
    #[must_use]
    pub fn frozen(&self) -> &AddressSpace {
        &self.frozen
    }

    /// What a clone maps at `pfn` while it has not diverged there.
    #[must_use]
    pub(crate) fn pristine(&self, pfn: u64) -> Pte {
        self.frozen.lookup(pfn).unwrap_or(Pte::Image(pfn))
    }

    /// The content of page `pfn` of the boot image.
    #[must_use]
    pub(crate) fn boot_content(&self, pfn: u64) -> u64 {
        GuestProfile::boot_content(self.boot.0, pfn)
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

    /// Checkpoint support: identity and boot image, then a boot image's
    /// profile and materialized disk slots, or a snapshot's frozen pages.
    pub(crate) fn encode(&self, w: &mut SnapWriter) {
        self.id.snap(w);
        self.name.snap(w);
        self.boot.snap(w);
        if self.is_boot() {
            self.profile.snap(w);
            self.disk.encode_manifest(w);
        } else {
            self.frozen.encode(w);
        }
    }

    /// Reads an image written by [`ReferenceImage::encode`]: a boot image's
    /// disk over `store` in the host's `chunk_blocks`, a snapshot over its
    /// boot image among `earlier` (the context that keeps this from being a
    /// [`Snap`] impl). A snapshot of anything but an earlier boot image, or
    /// whose frozen pages are not a space over it of its size with no
    /// private page, is a decode error.
    pub(crate) fn decode(
        r: &mut SnapReader<'_>,
        store: &SharedChunkStore,
        chunk_blocks: u64,
        earlier: &BTreeMap<ImageId, Arc<ReferenceImage>>,
    ) -> Result<Self, SnapshotError> {
        let id = Snap::unsnap(r)?;
        let name: String = Snap::unsnap(r)?;
        let boot = Snap::unsnap(r)?;
        if boot == id {
            let profile: GuestProfile = Snap::unsnap(r)?;
            let (size, seed) = (profile.disk_blocks, profile.disk_seed);
            let disk = BaseDisk::decode_manifest(r, store, size, chunk_blocks, seed)?;
            return Ok(ReferenceImage::boot(id, name, disk, profile));
        }
        let source = earlier.get(&boot).filter(|img| img.is_boot()).ok_or_else(|| r.bad())?;
        let frozen = AddressSpace::decode(r, source)?;
        if frozen.private_pages() > 0 || frozen.size() != source.pages() {
            return Err(r.bad());
        }
        Ok(ReferenceImage::snapshot(id, name, source, frozen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameTable;

    #[test]
    fn an_image_is_its_profile_and_what_it_froze() {
        let profile = GuestProfile { memory_pages: 10, ..GuestProfile::small() };
        let img = ReferenceImage::boot(ImageId(1), "test", BaseDisk::generate(50, 1), profile);
        assert_eq!((img.pages(), img.id(), img.disk().size()), (10, ImageId(1), 50));
        assert!(img.is_boot() && img.frozen().stored().next().is_none());
        assert_eq!(img.pristine(7), Pte::Image(7));
        assert_eq!(img.boot_content(7), GuestProfile::boot_content(1, 7));

        let img = Arc::new(img);
        let mut ft = FrameTable::new(20);
        let row = ft.alloc(5).unwrap();
        let mut frozen = AddressSpace::over(Some(Arc::clone(&img)), Vec::new());
        frozen.remap(2, Pte::Shared(row), &mut ft).unwrap();
        frozen.remap(5, Pte::Image(0), &mut ft).unwrap();
        let snap = ReferenceImage::snapshot(ImageId(2), "snap", &img, frozen);
        assert!(!snap.is_boot());
        assert_eq!(snap.boot_image(), ImageId(1));
        let pristine: Vec<Pte> = (1..7).map(|pfn| snap.pristine(pfn)).collect();
        let image = Pte::Image;
        let expect = [image(1), Pte::Shared(row), image(3), image(4), image(0), image(6)];
        assert_eq!(pristine, expect);
        assert_eq!(ft.refcount(row), 2, "the allocation's and the snapshot's");
        assert_eq!(snap.boot_content(5), img.boot_content(5), "the boot image's pages");
    }
}
