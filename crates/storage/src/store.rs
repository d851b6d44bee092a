//! The content-addressed chunk store and the shared farm-wide handle.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

use potemkin_snapshot::Fnv64;

use crate::error::StorageError;

/// Content hash of one chunk: FNV-1a-64 over the chunk's words in
/// little-endian byte order. The hash *is* the chunk's identity — equal
/// content always produces the same hash, which is what makes farm-wide
/// dedupe fall out of a plain map insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkHash(pub(crate) u64);

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
    /// Total words currently resident.
    pub(crate) resident_words: u64,
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

/// A content-addressed, in-memory chunk store.
///
/// `put` is idempotent by construction: storing content that is already
/// resident is a dedupe hit and writes nothing (first-write-wins keyed by
/// [`ChunkHash`]). Reads go through `&self`: the read counter lives in an
/// interior cell so shared handles never need write access to serve a
/// fetch.
#[derive(Debug, Default)]
pub(crate) struct MemoryChunkStore {
    chunks: HashMap<u64, Vec<u64>>,
    resident_words: u64,
    puts: u64,
    dedupe_hits: u64,
    materialized: u64,
    reads: Cell<u64>,
}

impl MemoryChunkStore {
    /// An empty store.
    #[must_use]
    pub(crate) fn new() -> Self {
        MemoryChunkStore::default()
    }

    /// Stores `words` under their content hash, deduping against resident
    /// content. Returns the hash.
    pub(crate) fn put(&mut self, words: &[u64]) -> Result<ChunkHash, StorageError> {
        let hash = ChunkHash::of_words(words);
        self.puts += 1;
        if self.chunks.contains_key(&hash.0) {
            self.dedupe_hits += 1;
        } else {
            self.resident_words += words.len() as u64;
            self.chunks.insert(hash.0, words.to_vec());
        }
        Ok(hash)
    }

    /// Fetches a whole chunk.
    pub(crate) fn get(&self, hash: ChunkHash) -> Result<Vec<u64>, StorageError> {
        self.reads.set(self.reads.get() + 1);
        self.chunks.get(&hash.0).cloned().ok_or(StorageError::MissingChunk { hash: hash.0 })
    }

    /// Fetches one word of a chunk.
    pub(crate) fn read_word(&self, hash: ChunkHash, offset: u64) -> Result<u64, StorageError> {
        self.reads.set(self.reads.get() + 1);
        let chunk = self.chunks.get(&hash.0).ok_or(StorageError::MissingChunk { hash: hash.0 })?;
        chunk
            .get(offset as usize)
            .copied()
            .ok_or(StorageError::OutOfRange { index: offset, size: chunk.len() as u64 })
    }

    /// Current accounting.
    pub(crate) fn stats(&self) -> StoreStats {
        StoreStats {
            puts: self.puts,
            dedupe_hits: self.dedupe_hits,
            materialized: self.materialized,
            reads: self.reads.get(),
            resident_chunks: self.chunks.len() as u64,
            resident_words: self.resident_words,
        }
    }

    /// Records one lazy materialization (called by `Manifest::read` when a
    /// slot flips from `Lazy` to `Stored`).
    pub(crate) fn note_materialized(&mut self) {
        self.materialized += 1;
    }

    /// Overwrites the accounting counters (checkpoint-restore support:
    /// restoring a farm re-puts manifest chunks, then resets the counters
    /// to the values the checkpoint recorded).
    pub(crate) fn set_accounting(
        &mut self,
        puts: u64,
        dedupe_hits: u64,
        materialized: u64,
        reads: u64,
    ) {
        self.puts = puts;
        self.dedupe_hits = dedupe_hits;
        self.materialized = materialized;
        self.reads.set(reads);
    }

    /// Drops every resident chunk and zeroes the accounting.
    pub(crate) fn clear(&mut self) {
        self.chunks.clear();
        self.resident_words = 0;
        self.set_accounting(0, 0, 0, 0);
    }
}

/// A cloneable, thread-safe handle to one in-memory chunk store — the thing a
/// whole farm shares. Every reference image and every VMM host on the farm
/// holds a clone of the same handle, which is what makes dedupe *farm-wide*
/// rather than per-image. The mutex is uncontended in practice: the packet
/// hot path never touches disk content, only experiments and the
/// checkpoint plane do.
#[derive(Clone)]
pub struct SharedChunkStore {
    inner: Arc<Mutex<MemoryChunkStore>>,
}

impl SharedChunkStore {
    /// A fresh handle over an in-memory store.
    #[must_use]
    pub fn new_memory() -> Self {
        SharedChunkStore { inner: Arc::new(Mutex::new(MemoryChunkStore::new())) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemoryChunkStore> {
        self.inner.lock().expect("chunk store lock poisoned")
    }

    /// Stores `words` under their content hash, deduping against resident
    /// content. Returns the hash.
    pub fn put(&self, words: &[u64]) -> Result<ChunkHash, StorageError> {
        self.lock().put(words)
    }

    /// Fetches a whole chunk.
    pub fn get(&self, hash: ChunkHash) -> Result<Vec<u64>, StorageError> {
        self.lock().get(hash)
    }

    /// Fetches one word of a chunk.
    pub fn read_word(&self, hash: ChunkHash, offset: u64) -> Result<u64, StorageError> {
        self.lock().read_word(hash, offset)
    }

    /// Current accounting.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.lock().stats()
    }

    /// See [`MemoryChunkStore::note_materialized`].
    pub(crate) fn note_materialized(&self) {
        self.lock().note_materialized();
    }

    /// Overwrites the accounting counters (checkpoint restore re-puts the
    /// manifest chunks, then resets the counters to the recorded values).
    pub fn set_accounting(&self, puts: u64, dedupe_hits: u64, materialized: u64, reads: u64) {
        self.lock().set_accounting(puts, dedupe_hits, materialized, reads);
    }

    /// Drops every resident chunk and zeroes the accounting.
    pub fn clear(&self) {
        self.lock().clear();
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

    fn exercise(store: &mut MemoryChunkStore) {
        let a = store.put(&[1, 2, 3]).unwrap();
        let b = store.put(&[1, 2, 3]).unwrap();
        let c = store.put(&[4, 5, 6]).unwrap();
        assert_eq!(a, b, "equal content, equal hash");
        assert_ne!(a, c);
        let s = store.stats();
        assert_eq!(s.puts, 3);
        assert_eq!(s.dedupe_hits, 1);
        assert_eq!(s.resident_chunks, 2, "equal chunks stored once");
        assert_eq!(s.resident_words, 6);
        assert!(s.sharing_ratio() > 1.0);
        assert_eq!(s.resident(), 2);

        assert_eq!(store.get(a).unwrap(), vec![1, 2, 3]);
        assert_eq!(store.read_word(c, 1).unwrap(), 5);
        assert!(store.chunks.contains_key(&a.0));
        assert_eq!(store.get(ChunkHash(0xDEAD)), Err(StorageError::MissingChunk { hash: 0xDEAD }));
        assert_eq!(store.read_word(a, 99), Err(StorageError::OutOfRange { index: 99, size: 3 }));
        assert!(store.stats().reads >= 4);

        store.clear();
        let s = store.stats();
        assert_eq!(s, StoreStats::default());
        assert!(!store.chunks.contains_key(&a.0));
    }

    #[test]
    fn memory_store_contract() {
        let mut store = MemoryChunkStore::new();
        exercise(&mut store);
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
