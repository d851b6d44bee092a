//! Content-addressed chunked block storage — the disk analogue of the
//! memory control plane's `ContentIndex`.
//!
//! Potemkin's delta virtualization applies late binding to *all* resources.
//! For storage that means three things, and this module provides exactly
//! those three:
//!
//! 1. **One store, keyed by content.** A [`SharedChunkStore`] holds
//!    fixed-size chunks of block words under their content hash
//!    ([`ChunkHash`]). Putting a chunk whose content is already resident
//!    stores nothing — identical chunks dedupe farm-wide, across every
//!    reference image that shares the store: the store is a cloneable
//!    handle a whole farm shares.
//!
//! 2. **Manifests are the only disk representation.** A [`Manifest`] is an
//!    ordered list of chunk references — a reference image. An
//!    [`OverlayManifest`] is a sparse block→content delta — a clone's
//!    private CoW disk. Nothing above this module ever sees a raw block
//!    vector.
//!
//! 3. **Chunks materialize lazily on first read.** A fresh manifest holds
//!    only [`ChunkRef::Lazy`] slots; the first guest read of a chunk
//!    generates its content, puts it in the store, and flips the slot to
//!    [`ChunkRef::Stored`]. The store counts materializations
//!    ([`StoreStats::materialized`]) so experiments can show late binding
//!    doing its job.
//!
//! Checkpoints benefit directly: a manifest encodes as its geometry plus
//! one *bit* per chunk slot (materialized or not) — O(chunks), not
//! O(blocks) — because chunk content is re-derivable from the manifest
//! seed. Overlays encode as their sorted block walks, O(dirty blocks).
//!
//! Everything here is deterministic: hashes are FNV-1a over little-endian
//! words, overlay iteration is `BTreeMap` order, and no wall-clock or
//! randomness enters anywhere — the farm's byte-identical-digest rule
//! holds chunked or flat, at any worker count.

mod manifest;
mod store;

pub use manifest::{ChunkRef, Manifest, OverlayManifest, DEFAULT_CHUNK_BLOCKS};
pub use store::{ChunkHash, SharedChunkStore, StoreStats};
