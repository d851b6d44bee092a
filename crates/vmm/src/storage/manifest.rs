//! Manifests: the only public disk representations.
//!
//! A [`Manifest`] is a reference image's disk — its geometry and the chunks
//! it has put into a [`SharedChunkStore`]. An [`OverlayManifest`] is a
//! clone disk — the sparse CoW delta a clone lays over its image's
//! manifest.
//!
//! Reference-image content in this reproduction is procedurally generated
//! from a seed (the simulated stand-in for a golden image file), so a slot
//! the manifest does not hold is "not yet faulted in from the golden
//! image". The first read of one generates the chunk, puts it in the store
//! (deduping against every image that already holds the same content),
//! counts one materialization, and records the slot's hash. A checkpoint
//! writes only the indexes of those slots: the rest comes from the seed,
//! and the geometry from the image's profile and the host.

use std::collections::BTreeMap;

use potemkin_snapshot::{snap_struct, SnapReader, SnapWriter, SnapshotError};

use super::store::{ChunkHash, SharedChunkStore};
use crate::error::VmmError;

/// Default chunk size in blocks, the farm-config default.
pub const DEFAULT_CHUNK_BLOCKS: u64 = 64;

/// A reference image's disk: its geometry and content seed, and the chunks
/// it has materialized into the store.
#[derive(Clone, Debug)]
pub struct Manifest {
    size_blocks: u64,
    chunk_blocks: u64,
    seed: u64,
    /// The materialized slots' hashes, by chunk index.
    stored: BTreeMap<u64, ChunkHash>,
}

impl Manifest {
    /// A fresh, fully lazy manifest of `size_blocks` blocks in chunks of
    /// `chunk_blocks` (clamped to at least 1), with content derived from
    /// `seed`.
    #[must_use]
    pub fn new(size_blocks: u64, chunk_blocks: u64, seed: u64) -> Self {
        let chunk_blocks = chunk_blocks.max(1);
        Manifest { size_blocks, chunk_blocks, seed, stored: BTreeMap::new() }
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
        self.stored.len() as u64
    }

    /// The materialized slots' hashes, in disk order.
    pub fn stored(&self) -> impl Iterator<Item = ChunkHash> + '_ {
        self.stored.values().copied()
    }

    /// Generates the content words of chunk `chunk` (the last may be
    /// partial), puts them into `store` and records their hash.
    fn materialize(&mut self, store: &SharedChunkStore, chunk: u64) -> Result<Vec<u64>, VmmError> {
        let start = chunk * self.chunk_blocks;
        let end = (start + self.chunk_blocks).min(self.size_blocks);
        let words: Vec<u64> = (start..end).map(|b| Manifest::block_content(self.seed, b)).collect();
        self.stored.insert(chunk, store.put(&words)?);
        Ok(words)
    }

    /// Reads one block, materializing its chunk into `store` on first
    /// touch (counted via the store's `materialized` stat).
    pub fn read(&mut self, store: &SharedChunkStore, block: u64) -> Result<u64, VmmError> {
        if block >= self.size_blocks {
            return Err(VmmError::BadBlock { block, size: self.size_blocks });
        }
        let chunk = block / self.chunk_blocks;
        let offset = block % self.chunk_blocks;
        if let Some(&hash) = self.stored.get(&chunk) {
            return store.read_word(hash, offset);
        }
        let words = self.materialize(store, chunk)?;
        store.note_materialized();
        Ok(words[offset as usize])
    }

    /// Encodes this manifest as the indexes of its materialized slots, in
    /// order: content and hashes come from the seed, the geometry from the
    /// decoder.
    pub(crate) fn encode(&self, w: &mut SnapWriter) {
        w.seq(self.stored.keys(), |&chunk, w| w.u64(chunk));
    }

    /// Decodes the slots written by [`Manifest::encode`] into a manifest of
    /// the given geometry (as [`Manifest::new`]), re-putting each slot's
    /// chunk into `store` (a dedupe no-op when already resident). A slot
    /// index out of ascending order or past the disk is a decode error.
    pub(crate) fn decode(
        r: &mut SnapReader,
        store: &SharedChunkStore,
        size_blocks: u64,
        chunk_blocks: u64,
        seed: u64,
    ) -> Result<Self, SnapshotError> {
        let mut manifest = Manifest::new(size_blocks, chunk_blocks, seed);
        let slots = size_blocks.div_ceil(manifest.chunk_blocks);
        let mut next = 0;
        for _ in 0..r.seq_len()? {
            let chunk = r.u64()?;
            if !(next..slots).contains(&chunk) {
                return Err(r.bad());
            }
            manifest.materialize(store, chunk).map_err(|_| r.bad())?;
            next = chunk + 1;
        }
        Ok(manifest)
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
        // O(materialized chunks): a length and two slot indexes.
        assert_eq!(bytes.len(), 8 + 2 * 8);

        let fresh = SharedChunkStore::new_memory();
        let mut r = SnapReader::new(&bytes, "test");
        let d = Manifest::decode(&mut r, &fresh, 100, 16, 42).unwrap();
        r.finish().unwrap();
        assert_eq!((d.size_blocks(), d.chunk_blocks, d.seed), (100, 16, 42));
        assert_eq!(d.materialized_chunks(), 2);
        assert_eq!(fresh.stats().resident_chunks, 2, "decode re-put the stored chunks");
        assert!(d.stored().eq(m.stored()));
        assert_eq!(fresh.stats().materialized, 0, "a restore faults nothing in");
    }

    /// The slot indexes `slots` as they go on the wire.
    fn slots_bytes(slots: &[u64]) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.seq(slots, |&slot, w| w.u64(slot));
        w.into_bytes()
    }

    #[test]
    fn manifest_decode_refuses_a_slot_out_of_order_or_past_the_disk() {
        let decode = |slots: &[u64], size_blocks: u64, chunk_blocks: u64| {
            let store = SharedChunkStore::new_memory();
            let bytes = slots_bytes(slots);
            Manifest::decode(
                &mut SnapReader::new(&bytes, "test"),
                &store,
                size_blocks,
                chunk_blocks,
                1,
            )
            .map(|m| m.materialized_chunks())
        };
        assert_eq!(decode(&[0, 3, 6], 100, 16), Ok(3), "the last slot is partial");
        for (what, slots) in [
            ("out of order", &[3, 0][..]),
            ("repeated", &[3, 3]),
            ("at the slot count", &[7]),
            ("far past it", &[1 << 40]),
        ] {
            let outcome = decode(slots, 100, 16);
            assert!(matches!(outcome, Err(SnapshotError::Decode { .. })), "{what}: {outcome:?}");
        }
        // Nothing is sized by the slot count: a 2^40-block disk with one
        // slot materialized costs that one chunk.
        assert_eq!(decode(&[1 << 30], 1 << 40, 64), Ok(1));
        let truncated = &slots_bytes(&[0, 1])[..12];
        let store = SharedChunkStore::new_memory();
        assert!(
            Manifest::decode(&mut SnapReader::new(truncated, "test"), &store, 100, 16, 1).is_err()
        );
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
