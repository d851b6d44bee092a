//! The [`ChunkStore`] trait and its two implementations, plus the shared
//! farm-wide handle.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use potemkin_snapshot::Fnv64;

use crate::error::StorageError;

/// Content hash of one chunk: FNV-1a-64 over the chunk's words in
/// little-endian byte order. The hash *is* the chunk's identity — equal
/// content always produces the same hash, which is what makes farm-wide
/// dedupe fall out of a plain map insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkHash(pub u64);

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
    pub resident_words: u64,
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

/// A content-addressed chunk store.
///
/// `put` is idempotent by construction: storing content that is already
/// resident is a dedupe hit and writes nothing (first-write-wins keyed by
/// [`ChunkHash`]). Reads go through `&self` — stores keep their read
/// counters in interior cells so shared handles never need write access
/// to serve a fetch.
pub trait ChunkStore: Send + fmt::Debug {
    /// Stores `words` under their content hash, deduping against resident
    /// content. Returns the hash.
    fn put(&mut self, words: &[u64]) -> Result<ChunkHash, StorageError>;

    /// Fetches a whole chunk.
    fn get(&self, hash: ChunkHash) -> Result<Vec<u64>, StorageError>;

    /// Fetches one word of a chunk.
    fn read_word(&self, hash: ChunkHash, offset: u64) -> Result<u64, StorageError>;

    /// Whether the store holds a chunk with this hash.
    fn contains(&self, hash: ChunkHash) -> bool;

    /// Current accounting.
    fn stats(&self) -> StoreStats;

    /// Records one lazy materialization (called by `Manifest::read` when a
    /// slot flips from `Lazy` to `Stored`).
    fn note_materialized(&mut self);

    /// Overwrites the accounting counters (checkpoint-restore support:
    /// restoring a farm re-puts manifest chunks, then resets the counters
    /// to the values the checkpoint recorded).
    fn set_accounting(&mut self, puts: u64, dedupe_hits: u64, materialized: u64, reads: u64);

    /// Drops every resident chunk and zeroes the accounting.
    fn clear(&mut self);
}

/// The in-memory chunk store — the farm default.
#[derive(Debug, Default)]
pub struct MemoryChunkStore {
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
    pub fn new() -> Self {
        MemoryChunkStore::default()
    }
}

impl ChunkStore for MemoryChunkStore {
    fn put(&mut self, words: &[u64]) -> Result<ChunkHash, StorageError> {
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

    fn get(&self, hash: ChunkHash) -> Result<Vec<u64>, StorageError> {
        self.reads.set(self.reads.get() + 1);
        self.chunks.get(&hash.0).cloned().ok_or(StorageError::MissingChunk { hash: hash.0 })
    }

    fn read_word(&self, hash: ChunkHash, offset: u64) -> Result<u64, StorageError> {
        self.reads.set(self.reads.get() + 1);
        let chunk = self.chunks.get(&hash.0).ok_or(StorageError::MissingChunk { hash: hash.0 })?;
        chunk
            .get(offset as usize)
            .copied()
            .ok_or(StorageError::OutOfRange { index: offset, size: chunk.len() as u64 })
    }

    fn contains(&self, hash: ChunkHash) -> bool {
        self.chunks.contains_key(&hash.0)
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            puts: self.puts,
            dedupe_hits: self.dedupe_hits,
            materialized: self.materialized,
            reads: self.reads.get(),
            resident_chunks: self.chunks.len() as u64,
            resident_words: self.resident_words,
        }
    }

    fn note_materialized(&mut self) {
        self.materialized += 1;
    }

    fn set_accounting(&mut self, puts: u64, dedupe_hits: u64, materialized: u64, reads: u64) {
        self.puts = puts;
        self.dedupe_hits = dedupe_hits;
        self.materialized = materialized;
        self.reads.set(reads);
    }

    fn clear(&mut self) {
        self.chunks.clear();
        self.resident_words = 0;
        self.set_accounting(0, 0, 0, 0);
    }
}

/// A directory-backed chunk store: one file per chunk, named by its
/// content hash, words as little-endian bytes. The index of resident
/// hashes is kept in memory; content lives on disk.
#[derive(Debug)]
pub struct DirChunkStore {
    root: PathBuf,
    /// hash → word count, mirroring what is on disk.
    index: HashMap<u64, u64>,
    resident_words: u64,
    puts: u64,
    dedupe_hits: u64,
    materialized: u64,
    reads: Cell<u64>,
}

impl DirChunkStore {
    /// Opens (creating if needed) a store rooted at `root`. Starts with an
    /// empty index: this is a scratch store for tooling, not a reopenable
    /// database.
    pub fn create(root: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let root = root.into();
        std::fs::create_dir_all(&root)
            .map_err(|_| StorageError::Io { context: "storage.dir.create" })?;
        Ok(DirChunkStore {
            root,
            index: HashMap::new(),
            resident_words: 0,
            puts: 0,
            dedupe_hits: 0,
            materialized: 0,
            reads: Cell::new(0),
        })
    }

    fn chunk_path(&self, hash: u64) -> PathBuf {
        self.root.join(format!("{hash:016x}.chunk"))
    }
}

impl ChunkStore for DirChunkStore {
    fn put(&mut self, words: &[u64]) -> Result<ChunkHash, StorageError> {
        let hash = ChunkHash::of_words(words);
        self.puts += 1;
        if self.index.contains_key(&hash.0) {
            self.dedupe_hits += 1;
            return Ok(hash);
        }
        let mut bytes = Vec::with_capacity(words.len() * 8);
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        std::fs::write(self.chunk_path(hash.0), &bytes)
            .map_err(|_| StorageError::Io { context: "storage.dir.put" })?;
        self.index.insert(hash.0, words.len() as u64);
        self.resident_words += words.len() as u64;
        Ok(hash)
    }

    fn get(&self, hash: ChunkHash) -> Result<Vec<u64>, StorageError> {
        self.reads.set(self.reads.get() + 1);
        if !self.index.contains_key(&hash.0) {
            return Err(StorageError::MissingChunk { hash: hash.0 });
        }
        let bytes = std::fs::read(self.chunk_path(hash.0))
            .map_err(|_| StorageError::Io { context: "storage.dir.get" })?;
        if bytes.len() % 8 != 0 {
            return Err(StorageError::Io { context: "storage.dir.get" });
        }
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    fn read_word(&self, hash: ChunkHash, offset: u64) -> Result<u64, StorageError> {
        let chunk = self.get(hash)?;
        chunk
            .get(offset as usize)
            .copied()
            .ok_or(StorageError::OutOfRange { index: offset, size: chunk.len() as u64 })
    }

    fn contains(&self, hash: ChunkHash) -> bool {
        self.index.contains_key(&hash.0)
    }

    fn stats(&self) -> StoreStats {
        StoreStats {
            puts: self.puts,
            dedupe_hits: self.dedupe_hits,
            materialized: self.materialized,
            reads: self.reads.get(),
            resident_chunks: self.index.len() as u64,
            resident_words: self.resident_words,
        }
    }

    fn note_materialized(&mut self) {
        self.materialized += 1;
    }

    fn set_accounting(&mut self, puts: u64, dedupe_hits: u64, materialized: u64, reads: u64) {
        self.puts = puts;
        self.dedupe_hits = dedupe_hits;
        self.materialized = materialized;
        self.reads.set(reads);
    }

    fn clear(&mut self) {
        for hash in self.index.keys() {
            let _ = std::fs::remove_file(self.chunk_path(*hash));
        }
        self.index.clear();
        self.resident_words = 0;
        self.set_accounting(0, 0, 0, 0);
    }
}

/// A cloneable, thread-safe handle to one [`ChunkStore`] — the thing a
/// whole farm shares. Every reference image and every VMM host on the farm
/// holds a clone of the same handle, which is what makes dedupe *farm-wide*
/// rather than per-image. The mutex is uncontended in practice: the packet
/// hot path never touches disk content, only experiments and the
/// checkpoint plane do.
#[derive(Clone)]
pub struct SharedChunkStore {
    inner: Arc<Mutex<Box<dyn ChunkStore>>>,
}

impl SharedChunkStore {
    /// A fresh handle over an in-memory store.
    #[must_use]
    pub fn new_memory() -> Self {
        SharedChunkStore::from_store(Box::new(MemoryChunkStore::new()))
    }

    /// A fresh handle over a directory-backed store rooted at `root`.
    pub fn new_dir(root: impl Into<PathBuf>) -> Result<Self, StorageError> {
        Ok(SharedChunkStore::from_store(Box::new(DirChunkStore::create(root)?)))
    }

    /// Wraps any store implementation.
    #[must_use]
    pub fn from_store(store: Box<dyn ChunkStore>) -> Self {
        SharedChunkStore { inner: Arc::new(Mutex::new(store)) }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Box<dyn ChunkStore>> {
        self.inner.lock().expect("chunk store lock poisoned")
    }

    /// See [`ChunkStore::put`].
    pub fn put(&self, words: &[u64]) -> Result<ChunkHash, StorageError> {
        self.lock().put(words)
    }

    /// See [`ChunkStore::get`].
    pub fn get(&self, hash: ChunkHash) -> Result<Vec<u64>, StorageError> {
        self.lock().get(hash)
    }

    /// See [`ChunkStore::read_word`].
    pub fn read_word(&self, hash: ChunkHash, offset: u64) -> Result<u64, StorageError> {
        self.lock().read_word(hash, offset)
    }

    /// See [`ChunkStore::contains`].
    #[must_use]
    pub fn contains(&self, hash: ChunkHash) -> bool {
        self.lock().contains(hash)
    }

    /// See [`ChunkStore::stats`].
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        self.lock().stats()
    }

    /// See [`ChunkStore::note_materialized`].
    pub fn note_materialized(&self) {
        self.lock().note_materialized();
    }

    /// See [`ChunkStore::set_accounting`].
    pub fn set_accounting(&self, puts: u64, dedupe_hits: u64, materialized: u64, reads: u64) {
        self.lock().set_accounting(puts, dedupe_hits, materialized, reads);
    }

    /// See [`ChunkStore::clear`].
    pub fn clear(&self) {
        self.lock().clear();
    }

    /// Whether two handles refer to the same underlying store.
    #[must_use]
    pub fn same_store(&self, other: &SharedChunkStore) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
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

    fn exercise(store: &mut dyn ChunkStore) {
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
        assert!(store.contains(a));
        assert_eq!(store.get(ChunkHash(0xDEAD)), Err(StorageError::MissingChunk { hash: 0xDEAD }));
        assert_eq!(store.read_word(a, 99), Err(StorageError::OutOfRange { index: 99, size: 3 }));
        assert!(store.stats().reads >= 4);

        store.clear();
        let s = store.stats();
        assert_eq!(s, StoreStats::default());
        assert!(!store.contains(a));
    }

    #[test]
    fn memory_store_contract() {
        let mut store = MemoryChunkStore::new();
        exercise(&mut store);
    }

    #[test]
    fn dir_store_contract() {
        let dir = std::env::temp_dir().join(format!("ptmk_store_{}", std::process::id()));
        let mut store = DirChunkStore::create(&dir).unwrap();
        exercise(&mut store);
        let _ = std::fs::remove_dir_all(&dir);
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
        assert!(a.same_store(&b));
        assert!(!a.same_store(&SharedChunkStore::new_memory()));
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
