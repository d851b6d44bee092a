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
//! 2. **Manifests are the only disk representation.** A [`Manifest`] is a
//!    reference image's disk: its geometry and the chunks it has stored. An
//!    [`OverlayManifest`] is a sparse block→content delta — a clone's
//!    private CoW disk. Nothing above this module ever sees a raw block
//!    vector.
//!
//! 3. **Chunks materialize lazily on first read.** A fresh manifest holds
//!    no slot; the first guest read of a chunk generates its content, puts
//!    it in the store, and records the slot's hash. The store counts
//!    materializations ([`StoreStats::materialized`]) so experiments can
//!    show late binding doing its job.
//!
//! Checkpoints benefit directly: a manifest encodes as the indexes of its
//! materialized slots and an overlay as its sorted block walk, never
//! O(blocks).
//!
//! Everything here is deterministic: hashes are FNV-1a over little-endian
//! words, overlay iteration is `BTreeMap` order, and no wall-clock or
//! randomness enters anywhere — the farm's byte-identical-digest rule
//! holds chunked or flat, at any worker count.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod manifest;
mod store;

pub use manifest::{Manifest, OverlayManifest, DEFAULT_CHUNK_BLOCKS};
pub use store::{ChunkHash, SharedChunkStore, StoreStats};
