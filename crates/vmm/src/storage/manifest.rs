//! Manifests: the only public disk representations.
//!
//! A [`Manifest`] is a reference image — an ordered list of chunk
//! references over a [`SharedChunkStore`]. An [`OverlayManifest`] is a
//! clone disk — the sparse CoW delta a clone lays over its image's
//! manifest.
//!
//! Reference-image content in this reproduction is procedurally generated
//! from a seed (the simulated stand-in for a golden image file), so a
//! [`ChunkRef::Lazy`] slot means "not yet faulted in from the golden
//! image". The first read of a lazy slot generates the chunk, puts it in
//! the store (deduping against every other image that already holds the
//! same content), counts one materialization, and flips the slot to
//! [`ChunkRef::Stored`]. That regenerability is also what shrinks
//! checkpoints: a manifest serializes as its geometry plus one
//! materialized bit per slot, never the block contents.

use potemkin_snapshot::{snap_struct, SnapReader, SnapWriter, SnapshotError};

use super::store::{ChunkHash, SharedChunkStore};
use crate::error::VmmError;

/// Default chunk size in blocks, the farm-config default.
pub const DEFAULT_CHUNK_BLOCKS: u64 = 64;

/// One manifest slot: a chunk not yet faulted in, or the content hash of
/// its stored chunk.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkRef {
    /// Not yet materialized — content is still only implied by the seed.
    Lazy,
    /// Materialized: the chunk lives in the store under this hash.
    Stored(ChunkHash),
}

/// An ordered list of chunk references — a reference image's disk.
#[derive(Clone, Debug)]
pub struct Manifest {
    size_blocks: u64,
    chunk_blocks: u64,
    seed: u64,
    slots: Vec<ChunkRef>,
}

impl Manifest {
    /// A fresh, fully lazy manifest of `size_blocks` blocks in chunks of
    /// `chunk_blocks` (clamped to at least 1), with content derived from
    /// `seed`.
    #[must_use]
    pub fn new(size_blocks: u64, chunk_blocks: u64, seed: u64) -> Self {
        let chunk_blocks = chunk_blocks.max(1);
        let chunks = size_blocks.div_ceil(chunk_blocks);
        Manifest { size_blocks, chunk_blocks, seed, slots: vec![ChunkRef::Lazy; chunks as usize] }
    }

    /// The deterministic content word of block `block` under `seed` — the
    /// same formula the flat pre-chunking disk used, so chunked and flat
    /// reads are bit-identical.
    #[must_use]
    pub fn block_content(seed: u64, block: u64) -> u64 {
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(block)
    }

    /// Disk size in blocks.
    #[must_use]
    pub(crate) fn size_blocks(&self) -> u64 {
        self.size_blocks
    }

    /// Number of slots already materialized into the store.
    #[must_use]
    pub(crate) fn materialized_chunks(&self) -> u64 {
        self.slots.iter().filter(|s| matches!(s, ChunkRef::Stored(_))).count() as u64
    }

    /// The slots, in disk order.
    #[must_use]
    pub fn slots(&self) -> &[ChunkRef] {
        &self.slots
    }

    /// Generates the content words of chunk `chunk` (the last chunk may be
    /// partial).
    #[must_use]
    pub(crate) fn generate_chunk(&self, chunk: u64) -> Vec<u64> {
        let start = chunk * self.chunk_blocks;
        let end = (start + self.chunk_blocks).min(self.size_blocks);
        (start..end).map(|b| Manifest::block_content(self.seed, b)).collect()
    }

    /// Reads one block, materializing its chunk into `store` on first
    /// touch (counted via the store's `materialized` stat).
    pub fn read(&mut self, store: &SharedChunkStore, block: u64) -> Result<u64, VmmError> {
        if block >= self.size_blocks {
            return Err(VmmError::BadBlock { block, size: self.size_blocks });
        }
        let chunk = block / self.chunk_blocks;
        let offset = block % self.chunk_blocks;
        match self.slots[chunk as usize] {
            ChunkRef::Stored(hash) => store.read_word(hash, offset),
            ChunkRef::Lazy => {
                let words = self.generate_chunk(chunk);
                let content = words[offset as usize];
                let hash = store.put(&words)?;
                store.note_materialized();
                self.slots[chunk as usize] = ChunkRef::Stored(hash);
                Ok(content)
            }
        }
    }

    /// Encodes this manifest: geometry plus one materialized bit per slot.
    /// O(chunks), never O(blocks) — chunk content is re-derivable from the
    /// seed, so hashes are not stored either.
    pub(crate) fn encode(&self, w: &mut SnapWriter) {
        w.u64(self.size_blocks);
        w.u64(self.chunk_blocks);
        w.u64(self.seed);
        w.seq(&self.slots, |slot, w| w.bool(matches!(slot, ChunkRef::Stored(_))));
    }

    /// Decodes a manifest encoded by [`Manifest::encode`], re-putting each
    /// materialized chunk into `store` (a dedupe no-op when the content is
    /// already resident). Not a [`Snap`](potemkin_snapshot::Snap) impl only
    /// because it needs the store.
    pub(crate) fn decode(
        r: &mut SnapReader,
        store: &SharedChunkStore,
    ) -> Result<Self, SnapshotError> {
        let size_blocks = r.u64()?;
        let chunk_blocks = r.u64()?;
        if chunk_blocks == 0 {
            return Err(r.bad());
        }
        let seed = r.u64()?;
        let n_slots = r.seq_len()? as u64;
        if n_slots != size_blocks.div_ceil(chunk_blocks) {
            return Err(r.bad());
        }
        let geometry = Manifest { size_blocks, chunk_blocks, seed, slots: Vec::new() };
        let slots = (0..n_slots)
            .map(|chunk| {
                if !r.bool()? {
                    return Ok(ChunkRef::Lazy);
                }
                let hash = store.put(&geometry.generate_chunk(chunk)).map_err(|_| r.bad())?;
                Ok(ChunkRef::Stored(hash))
            })
            .collect::<Result<_, SnapshotError>>()?;
        Ok(Manifest { slots, ..geometry })
    }
}

/// A clone disk: the sparse block→content CoW delta over a reference
/// image's manifest. Iteration and encoding are in ascending block order
/// (`BTreeMap`), keeping every serialization deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OverlayManifest {
    writes: std::collections::BTreeMap<u64, u64>,
}

impl OverlayManifest {
    /// An empty overlay.
    #[must_use]
    pub fn new() -> Self {
        OverlayManifest::default()
    }

    /// The overlaid content of `block`, if written.
    #[must_use]
    pub(crate) fn get(&self, block: u64) -> Option<u64> {
        self.writes.get(&block).copied()
    }

    /// Overlays `content` at `block`.
    pub fn set(&mut self, block: u64, content: u64) {
        self.writes.insert(block, content);
    }

    /// Number of dirty blocks.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.writes.len()
    }

    /// Discards every write.
    pub(crate) fn clear(&mut self) {
        self.writes.clear();
    }
}

// The dirty `(block, content)` pairs in ascending block order: O(dirty
// blocks).
snap_struct!(OverlayManifest { writes });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_then_stored_on_first_read() {
        let store = SharedChunkStore::new_memory();
        let mut m = Manifest::new(100, 16, 42);
        assert_eq!(m.slots.len(), 7, "ceil(100/16)");
        assert_eq!(m.materialized_chunks(), 0);
        assert_eq!(store.stats().materialized, 0);

        let v = m.read(&store, 33).unwrap();
        assert_eq!(v, Manifest::block_content(42, 33));
        assert_eq!(m.materialized_chunks(), 1);
        assert_eq!(store.stats().materialized, 1);

        // Second read of the same chunk: no further materialization.
        m.read(&store, 34).unwrap();
        assert_eq!(store.stats().materialized, 1);
    }

    #[test]
    fn reads_match_flat_formula_for_every_chunk_size() {
        for chunk_blocks in [1, 3, 16, 64, 1000] {
            let store = SharedChunkStore::new_memory();
            let mut m = Manifest::new(100, chunk_blocks, 7);
            for b in 0..100 {
                assert_eq!(m.read(&store, b).unwrap(), Manifest::block_content(7, b));
            }
        }
    }

    #[test]
    fn same_seed_manifests_dedupe_in_one_store() {
        let store = SharedChunkStore::new_memory();
        let mut a = Manifest::new(64, 16, 5);
        let mut b = Manifest::new(64, 16, 5);
        for blk in 0..64 {
            a.read(&store, blk).unwrap();
            b.read(&store, blk).unwrap();
        }
        let s = store.stats();
        assert_eq!(s.resident_chunks, 4, "second image stored nothing new");
        assert_eq!(s.dedupe_hits, 4);
        assert_eq!(s.materialized, 8, "both images faulted all their slots");
        assert_eq!(s.sharing_ratio(), 2.0);
    }

    #[test]
    fn out_of_range_read_rejected() {
        let store = SharedChunkStore::new_memory();
        let mut m = Manifest::new(10, 4, 1);
        assert_eq!(m.read(&store, 10), Err(VmmError::BadBlock { block: 10, size: 10 }));
    }

    #[test]
    fn manifest_codec_round_trips_and_rematerializes() {
        let store = SharedChunkStore::new_memory();
        let mut m = Manifest::new(100, 16, 42);
        m.read(&store, 0).unwrap();
        m.read(&store, 99).unwrap();

        let mut w = SnapWriter::new();
        m.encode(&mut w);
        let bytes = w.into_bytes();
        // O(chunks): geometry (4 × u64) + one byte per slot.
        assert_eq!(bytes.len(), 32 + 7);

        let fresh = SharedChunkStore::new_memory();
        let mut r = SnapReader::new(&bytes, "test");
        let d = Manifest::decode(&mut r, &fresh).unwrap();
        r.finish().unwrap();
        assert_eq!(d.size_blocks(), 100);
        assert_eq!(d.chunk_blocks, 16);
        assert_eq!(d.seed, 42);
        assert_eq!(d.materialized_chunks(), 2);
        assert_eq!(fresh.stats().resident_chunks, 2, "decode re-put the stored chunks");
        assert_eq!(d.slots()[0], m.slots()[0]);
    }

    #[test]
    fn manifest_decode_rejects_bad_geometry() {
        let mut w = SnapWriter::new();
        w.u64(100);
        w.u64(0); // chunk_blocks == 0
        w.u64(1);
        w.u64(0);
        let bytes = w.into_bytes();
        let store = SharedChunkStore::new_memory();
        assert!(Manifest::decode(&mut SnapReader::new(&bytes, "test"), &store).is_err());

        let mut w = SnapWriter::new();
        w.u64(100);
        w.u64(16);
        w.u64(1);
        w.u64(3); // wrong slot count
        let bytes = w.into_bytes();
        assert!(Manifest::decode(&mut SnapReader::new(&bytes, "test"), &store).is_err());
    }

    #[test]
    fn overlay_iterates_in_block_order() {
        let mut o = OverlayManifest::new();
        o.set(9, 90);
        o.set(2, 20);
        o.set(9, 91); // rewrite: last wins, still one entry
        assert_eq!(o.len(), 2);
        assert_eq!(o.get(9), Some(91));
        assert_eq!(o.get(3), None);
        let pairs: Vec<(u64, u64)> = o.writes.iter().map(|(&b, &c)| (b, c)).collect();
        assert_eq!(pairs, vec![(2, 20), (9, 91)], "ascending block order");

        o.clear();
        assert_eq!(o, OverlayManifest::new());
    }
}
