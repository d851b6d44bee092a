//! The content-addressed chunk store: one farm-wide shared handle.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use potemkin_snapshot::Fnv64;

use crate::error::VmmError;

/// Content hash of one chunk: FNV-1a-64 over the chunk's words in
/// little-endian byte order. The hash *is* the chunk's identity — equal
/// content always produces the same hash, which is what makes farm-wide
/// dedupe fall out of a plain map insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkHash(u64);

impl ChunkHash {
    /// Hashes a chunk's words.
    #[must_use]
    pub fn of_words(words: &[u64]) -> Self {
        let mut h = Fnv64::new();
        for w in words {
            h.update(&w.to_le_bytes());
        }
        ChunkHash(h.finish())
    }
}

impl fmt::Display for ChunkHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Accounting snapshot of a chunk store. Accessor naming mirrors
/// `memctl::ContentIndex` (`sharing_ratio`, `resident`): the chunk store
/// is the disk analogue of frame merging.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Total `put` calls (logical chunk references stored).
    pub puts: u64,
    /// Puts that found their content already resident (dedupe wins).
    pub dedupe_hits: u64,
    /// Chunks materialized lazily on first guest read.
    pub materialized: u64,
    /// Chunk fetches served (whole-chunk gets and single-word reads).
    pub reads: u64,
    /// Distinct chunks currently resident.
    pub resident_chunks: u64,
}

impl StoreStats {
    /// Logical chunk references per resident chunk — the disk-side
    /// sharing factor, ≥ 1.0 whenever anything is stored.
    #[must_use]
    pub fn sharing_ratio(&self) -> f64 {
        if self.resident_chunks == 0 {
            1.0
        } else {
            self.puts as f64 / self.resident_chunks as f64
        }
    }

    /// Distinct chunks resident (the dedup'd footprint).
    #[must_use]
    pub fn resident(&self) -> u64 {
        self.resident_chunks
    }
}

/// The store's chunks and counters, behind the shared handle's mutex.
#[derive(Debug, Default)]
struct Chunks {
    chunks: HashMap<ChunkHash, Vec<u64>>,
    puts: u64,
    dedupe_hits: u64,
    materialized: u64,
    reads: u64,
}

/// A cloneable, thread-safe handle to one in-memory, content-addressed
/// chunk store — the thing a whole farm shares. Every reference image and
/// every VMM host on the farm holds a clone of the same handle, which is
/// what makes dedupe *farm-wide* rather than per-image. The mutex is
/// uncontended in practice: the packet hot path never touches disk
/// content, only experiments and the checkpoint plane do.
///
/// `put` is idempotent by construction: storing content that is already
/// resident is a dedupe hit and writes nothing (first-write-wins keyed by
/// [`ChunkHash`]).
#[derive(Clone)]
pub struct SharedChunkStore {
    inner: Arc<Mutex<Chunks>>,
}

impl SharedChunkStore {
    /// A fresh handle over an empty in-memory store.
    #[must_use]
    pub fn new_memory() -> Self {
        SharedChunkStore { inner: Arc::default() }
    }

    fn lock(&self) -> MutexGuard<'_, Chunks> {
        // Every update leaves the store valid at every step — a chunk goes
        // in whole or not at all, and the rest are statistics — so the
        // guard a panicking holder left behind is still good to use.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stores `words` under their content hash, deduping against resident
    /// content. Returns the hash.
    pub fn put(&self, words: &[u64]) -> Result<ChunkHash, VmmError> {
        let hash = ChunkHash::of_words(words);
        let mut guard = self.lock();
        let s = &mut *guard;
        s.puts += 1;
        match s.chunks.entry(hash) {
            Entry::Occupied(_) => s.dedupe_hits += 1,
            Entry::Vacant(slot) => {
                slot.insert(words.to_vec());
            }
        }
        Ok(hash)
    }

    /// Fetches a whole chunk.
    pub fn get(&self, hash: ChunkHash) -> Result<Vec<u64>, VmmError> {
        let mut s = self.lock();
        s.reads += 1;
        s.chunks.get(&hash).cloned().ok_or(VmmError::MissingChunk { hash })
    }

    /// Fetches one word of a chunk. A chunk that is not resident, or
    /// shorter than `offset`, is [`VmmError::MissingChunk`].
    pub fn read_word(&self, hash: ChunkHash, offset: u64) -> Result<u64, VmmError> {
        let mut s = self.lock();
        s.reads += 1;
        let word = s.chunks.get(&hash).and_then(|chunk| chunk.get(offset as usize));
        word.copied().ok_or(VmmError::MissingChunk { hash })
    }

    /// Current accounting.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let s = self.lock();
        StoreStats {
            puts: s.puts,
            dedupe_hits: s.dedupe_hits,
            materialized: s.materialized,
            reads: s.reads,
            resident_chunks: s.chunks.len() as u64,
        }
    }

    /// Records one lazy materialization (called by `Manifest::read` when a
    /// slot flips from `Lazy` to `Stored`).
    pub(crate) fn note_materialized(&self) {
        self.lock().materialized += 1;
    }

    /// Overwrites the accounting counters (checkpoint restore re-puts the
    /// manifest chunks, then resets the counters to the recorded values).
    pub fn set_accounting(&self, puts: u64, dedupe_hits: u64, materialized: u64, reads: u64) {
        let mut s = self.lock();
        s.puts = puts;
        s.dedupe_hits = dedupe_hits;
        s.materialized = materialized;
        s.reads = reads;
    }

    /// Drops every resident chunk and zeroes the accounting.
    pub fn clear(&self) {
        self.lock().chunks.clear();
        self.set_accounting(0, 0, 0, 0);
    }
}

impl fmt::Debug for SharedChunkStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SharedChunkStore({:?})", self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_store_contract() {
        let store = SharedChunkStore::new_memory();
        let a = store.put(&[1, 2, 3]).unwrap();
        let b = store.put(&[1, 2, 3]).unwrap();
        let c = store.put(&[4, 5, 6]).unwrap();
        assert_eq!(a, b, "equal content, equal hash");
        assert_ne!(a, c);
        let s = store.stats();
        assert_eq!(s.puts, 3);
        assert_eq!(s.dedupe_hits, 1);
        assert_eq!(s.resident_chunks, 2, "equal chunks stored once");
        assert!(s.sharing_ratio() > 1.0);
        assert_eq!(s.resident(), 2);

        assert_eq!(store.get(a).unwrap(), vec![1, 2, 3]);
        assert_eq!(store.read_word(c, 1).unwrap(), 5);
        let missing = ChunkHash(0xDEAD);
        assert_eq!(store.get(missing), Err(VmmError::MissingChunk { hash: missing }));
        assert_eq!(store.read_word(a, 99), Err(VmmError::MissingChunk { hash: a }), "short chunk");
        assert!(store.stats().reads >= 4);

        store.clear();
        assert_eq!(store.stats(), StoreStats::default());
        assert!(!store.lock().chunks.contains_key(&a));
    }

    #[test]
    fn hash_is_content_function_of_byte_stream() {
        assert_eq!(ChunkHash::of_words(&[7, 8]), ChunkHash::of_words(&[7, 8]));
        assert_ne!(ChunkHash::of_words(&[7, 8]), ChunkHash::of_words(&[8, 7]));
        assert_ne!(ChunkHash::of_words(&[]), ChunkHash::of_words(&[0]));
    }

    #[test]
    fn shared_handle_clones_alias_one_store() {
        let a = SharedChunkStore::new_memory();
        let b = a.clone();
        a.put(&[9, 9]).unwrap();
        assert_eq!(b.stats().resident_chunks, 1);
        b.set_accounting(10, 2, 3, 4);
        let s = a.stats();
        assert_eq!((s.puts, s.dedupe_hits, s.materialized, s.reads), (10, 2, 3, 4));
    }

    #[test]
    fn empty_store_ratio_is_unity() {
        assert_eq!(StoreStats::default().sharing_ratio(), 1.0);
    }
}
