//! Copy-on-write virtual block devices over the content-addressed chunk
//! store.
//!
//! Potemkin clones share the reference image's disk; a clone's writes go to a
//! private overlay (the same trick as its memory delta virtualization, at
//! block granularity). Block *contents* are modeled as one `u64` per block,
//! like frame contents.
//!
//! [`BaseDisk`] and [`CowDisk`] are thin views over `storage`
//! manifests: a base disk is a [`Manifest`] (ordered chunk refs) shared by
//! every clone of the image, a clone disk is an [`OverlayManifest`] (sparse
//! CoW delta) over that base. Identical chunks dedupe farm-wide through the
//! [`SharedChunkStore`], and chunks materialize lazily on first guest read.
//! The only serialization path is the manifest codec —
//! [`BaseDisk::encode_manifest`] / [`BaseDisk::decode_manifest`] and the
//! overlay equivalents — so checkpoints store O(materialized chunks) +
//! O(dirty blocks), never raw block walks.

use std::sync::{Arc, Mutex};

use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};

use crate::error::VmmError;
use crate::storage::{Manifest, OverlayManifest, SharedChunkStore};

/// An immutable base disk image shared by all clones of a reference image:
/// a chunk manifest over a farm-wide [`SharedChunkStore`]. Cloning the
/// handle shares the manifest, so one clone's lazy materialization
/// benefits every other view of the image.
#[derive(Clone, Debug)]
pub struct BaseDisk {
    manifest: Arc<Mutex<Manifest>>,
    store: SharedChunkStore,
}

impl BaseDisk {
    /// Creates a fully lazy base disk of `size` blocks in chunks of
    /// `chunk_blocks`, with deterministic content derived from `seed`,
    /// backed by `store`.
    #[must_use]
    pub fn open(store: &SharedChunkStore, size: u64, chunk_blocks: u64, seed: u64) -> Self {
        BaseDisk {
            manifest: Arc::new(Mutex::new(Manifest::new(size, chunk_blocks, seed))),
            store: store.clone(),
        }
    }

    /// Creates a base disk of `size` blocks with deterministic content
    /// derived from `seed`, over a fresh private in-memory store with the
    /// default chunk size (standalone-use convenience; farm disks share
    /// one store via [`BaseDisk::open`]).
    #[cfg(test)]
    pub(crate) fn generate(size: u64, seed: u64) -> Self {
        BaseDisk::open(
            &SharedChunkStore::new_memory(),
            size,
            crate::storage::DEFAULT_CHUNK_BLOCKS,
            seed,
        )
    }

    fn manifest(&self) -> std::sync::MutexGuard<'_, Manifest> {
        self.manifest.lock().expect("disk manifest lock poisoned")
    }

    /// Disk size in blocks.
    #[must_use]
    pub(crate) fn size(&self) -> u64 {
        self.manifest().size_blocks()
    }

    /// Chunks faulted into the store so far (late binding: 0 until the
    /// first read).
    #[must_use]
    pub(crate) fn materialized_chunks(&self) -> u64 {
        self.manifest().materialized_chunks()
    }

    /// Reads a block, materializing its chunk on first touch.
    pub(crate) fn read(&self, block: u64) -> Result<u64, VmmError> {
        self.manifest().read(&self.store, block)
    }

    /// Encodes this disk as its manifest's materialized slots — the only way
    /// a base disk is ever serialized.
    pub(crate) fn encode_manifest(&self, w: &mut SnapWriter) {
        self.manifest().encode(w);
    }

    /// Decodes a disk encoded by [`BaseDisk::encode_manifest`] into the
    /// disk [`BaseDisk::open`] opens from the same arguments, re-putting
    /// materialized chunks into `store`.
    pub(crate) fn decode_manifest(
        r: &mut SnapReader,
        store: &SharedChunkStore,
        size: u64,
        chunk_blocks: u64,
        seed: u64,
    ) -> Result<Self, SnapshotError> {
        let m = Manifest::decode(r, store, size, chunk_blocks, seed)?;
        Ok(BaseDisk { manifest: Arc::new(Mutex::new(m)), store: store.clone() })
    }
}

/// A clone's view of a disk: the shared base manifest plus a private write
/// overlay.
///
/// # Examples
///
/// ```
/// use potemkin_vmm::{BaseDisk, CowDisk, SharedChunkStore, DEFAULT_CHUNK_BLOCKS};
///
/// let base = BaseDisk::open(&SharedChunkStore::new_memory(), 100, DEFAULT_CHUNK_BLOCKS, 42);
/// let mut disk = CowDisk::new(base.clone());
/// let orig = disk.read(5).unwrap();
/// disk.write(5, 777).unwrap();
/// assert_eq!(disk.read(5).unwrap(), 777);
/// assert_eq!(CowDisk::new(base).read(5).unwrap(), orig, "base is never modified");
/// ```
#[derive(Clone, Debug)]
pub struct CowDisk {
    base: BaseDisk,
    overlay: OverlayManifest,
}

impl CowDisk {
    /// Creates a CoW view over `base` with an empty overlay.
    #[must_use]
    pub fn new(base: BaseDisk) -> Self {
        CowDisk { base, overlay: OverlayManifest::new() }
    }

    /// Disk size in blocks.
    #[must_use]
    pub(crate) fn size(&self) -> u64 {
        self.base.size()
    }

    /// Reads a block (overlay first, then base).
    pub fn read(&self, block: u64) -> Result<u64, VmmError> {
        if block >= self.size() {
            return Err(VmmError::BadBlock { block, size: self.size() });
        }
        match self.overlay.get(block) {
            Some(content) => Ok(content),
            None => self.base.read(block),
        }
    }

    /// Writes a block into the private overlay.
    pub fn write(&mut self, block: u64, content: u64) -> Result<(), VmmError> {
        if block >= self.size() {
            return Err(VmmError::BadBlock { block, size: self.size() });
        }
        self.overlay.set(block, content);
        Ok(())
    }

    /// Number of blocks this clone has made private.
    #[cfg(test)]
    pub(crate) fn dirty_blocks(&self) -> u64 {
        self.overlay.len() as u64
    }

    /// Discards the private overlay, restoring the pristine base view
    /// (rollback support).
    pub(crate) fn clear_overlay(&mut self) {
        self.overlay.clear();
    }

    /// The shared base this view overlays.
    #[must_use]
    pub(crate) fn base(&self) -> &BaseDisk {
        &self.base
    }

    /// Encodes the clone-private state (the overlay delta) through the
    /// overlay manifest codec: O(dirty blocks). The base is not encoded
    /// here — it belongs to the image and restores first.
    pub(crate) fn encode_overlay(&self, w: &mut SnapWriter) {
        self.overlay.snap(w);
    }

    /// Decodes clone-private state encoded by [`CowDisk::encode_overlay`]
    /// over the already-restored `base`.
    pub(crate) fn decode_overlay(
        base: BaseDisk,
        r: &mut SnapReader,
    ) -> Result<Self, SnapshotError> {
        Ok(CowDisk { base, overlay: OverlayManifest::unsnap(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_disk_deterministic() {
        let a = BaseDisk::generate(10, 7);
        let b = BaseDisk::generate(10, 7);
        for i in 0..10 {
            assert_eq!(a.read(i).unwrap(), b.read(i).unwrap());
        }
        let c = BaseDisk::generate(10, 8);
        assert_ne!(a.read(0).unwrap(), c.read(0).unwrap());
    }

    #[test]
    fn missing_chunk_is_reported_as_itself() {
        let store = SharedChunkStore::new_memory();
        let base = BaseDisk::open(&store, 100, 16, 42);
        let content = base.read(0).unwrap();
        store.clear();
        let Err(VmmError::MissingChunk { hash }) = base.read(0) else {
            panic!("a chunk dropped from the store is a missing chunk, not a bad block");
        };
        let words: Vec<u64> = (0..16).map(|b| Manifest::block_content(42, b)).collect();
        assert_eq!(words[0], content);
        assert_eq!(hash, crate::storage::ChunkHash::of_words(&words));
        assert_eq!(base.read(100), Err(VmmError::BadBlock { block: 100, size: 100 }));
    }

    #[test]
    fn out_of_range_rejected() {
        let base = BaseDisk::generate(4, 1);
        assert!(base.read(4).is_err());
        let disk = CowDisk::new(base);
        assert!(disk.read(4).is_err());
        let mut disk = disk;
        assert!(disk.write(4, 0).is_err());
    }

    #[test]
    fn overlay_isolates_clones() {
        let base = BaseDisk::generate(16, 3);
        let mut d1 = CowDisk::new(base.clone());
        let mut d2 = CowDisk::new(base);
        d1.write(3, 111).unwrap();
        d2.write(3, 222).unwrap();
        assert_eq!(d1.read(3).unwrap(), 111);
        assert_eq!(d2.read(3).unwrap(), 222);
        assert_eq!(d1.dirty_blocks(), 1);
        assert_eq!(d2.dirty_blocks(), 1);
    }

    #[test]
    fn unwritten_blocks_read_through() {
        let base = BaseDisk::generate(8, 9);
        let d = CowDisk::new(base.clone());
        for i in 0..8 {
            assert_eq!(d.read(i).unwrap(), base.read(i).unwrap());
        }
        assert_eq!(d.dirty_blocks(), 0);
    }

    #[test]
    fn clear_overlay_restores_base_view() {
        let base = BaseDisk::generate(8, 5);
        let mut d = CowDisk::new(base.clone());
        d.write(2, 999).unwrap();
        assert_eq!(d.read(2).unwrap(), 999);
        d.clear_overlay();
        assert_eq!(d.dirty_blocks(), 0);
        assert_eq!(d.read(2).unwrap(), base.read(2).unwrap());
    }

    #[test]
    fn rewrite_same_block_counts_once() {
        let base = BaseDisk::generate(8, 9);
        let mut d = CowDisk::new(base);
        d.write(1, 10).unwrap();
        d.write(1, 20).unwrap();
        assert_eq!(d.dirty_blocks(), 1);
        assert_eq!(d.read(1).unwrap(), 20);
    }

    #[test]
    fn reads_take_shared_reference() {
        let base = BaseDisk::generate(8, 1);
        let d = CowDisk::new(base.clone());
        let r: &CowDisk = &d;
        assert_eq!(r.read(0).unwrap(), base.read(0).unwrap());
        assert_eq!(r.read(1).unwrap(), base.read(1).unwrap());
    }

    #[test]
    fn clones_share_one_manifest_and_materialize_lazily() {
        let store = SharedChunkStore::new_memory();
        let base = BaseDisk::open(&store, 128, 16, 42);
        let d1 = CowDisk::new(base.clone());
        let d2 = CowDisk::new(base.clone());
        assert_eq!(base.materialized_chunks(), 0, "lazy until first read");

        d1.read(0).unwrap();
        assert_eq!(base.materialized_chunks(), 1);
        // d2 reads the same chunk through the shared manifest: no new
        // materialization.
        d2.read(1).unwrap();
        assert_eq!(base.materialized_chunks(), 1);
        assert_eq!(store.stats().materialized, 1);
    }

    #[test]
    fn same_seed_images_dedupe_across_one_store() {
        let store = SharedChunkStore::new_memory();
        let a = BaseDisk::open(&store, 64, 16, 7);
        let b = BaseDisk::open(&store, 64, 16, 7);
        for blk in 0..64 {
            a.read(blk).unwrap();
            b.read(blk).unwrap();
        }
        let s = store.stats();
        assert_eq!(s.resident_chunks, 4);
        assert_eq!(s.dedupe_hits, 4);
        assert!((s.sharing_ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn manifest_codec_is_the_one_serialization_path() {
        let store = SharedChunkStore::new_memory();
        let base = BaseDisk::open(&store, 100, 16, 42);
        let mut d = CowDisk::new(base.clone());
        d.read(50).unwrap();
        d.write(3, 33).unwrap();
        d.write(90, 99).unwrap();

        let mut w = SnapWriter::new();
        base.encode_manifest(&mut w);
        d.encode_overlay(&mut w);
        let bytes = w.into_bytes();

        let fresh = SharedChunkStore::new_memory();
        let mut r = SnapReader::new(&bytes, "test");
        let base2 = BaseDisk::decode_manifest(&mut r, &fresh, 100, 16, 42).unwrap();
        let d2 = CowDisk::decode_overlay(base2.clone(), &mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(base2.size(), 100);
        assert_eq!(base2.materialized_chunks(), 1);
        assert_eq!(d2.dirty_blocks(), 2);
        for blk in 0..100 {
            assert_eq!(d2.read(blk).unwrap(), d.read(blk).unwrap());
        }
    }
}
