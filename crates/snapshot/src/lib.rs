//! Versioned, integrity-checked binary snapshots for the Potemkin honeyfarm.
//!
//! The Potemkin paper's value proposition is *long-running* observation of
//! outbreaks; a honeyfarm that loses a multi-day campaign to a single process
//! crash is not operationally credible. This crate provides the container
//! format and codec used to checkpoint the complete farm state and restore it
//! byte-identically:
//!
//! * [`SnapWriter`] / [`SnapReader`] — a tiny little-endian byte codec with
//!   length-prefixed strings, byte slices and sequences, and typed
//!   truncation errors.
//! * [`SnapshotFile`] — a versioned container of named, length-prefixed
//!   sections, each protected by a CRC-32, the whole file sealed by a 64-bit
//!   FNV-1a digest and an end-of-file magic trailer. A missing trailer is
//!   reported as a torn write (the classic crash-mid-write failure), a
//!   mismatched section CRC as section corruption.
//! * [`write_atomic`] — crash-consistent persistence: write to a temp file in
//!   the destination directory, fsync, then atomically rename over the final
//!   path so readers only ever observe the old or the new snapshot, never a
//!   torn one.
//! * [`Snap`] — the one value-level codec trait: a type states its byte
//!   layout once and gets both directions, usually from a field list
//!   ([`snap_struct!`], [`snap_enum!`]). Implemented here for the primitives
//!   and standard containers; every decoded sequence length is bounded by
//!   the bytes that remain before anything is reserved for it.
//!
//! Section payload encodings live with the types they serialize: each crate
//! implements [`Snap`] beside its own types and composes them in its
//! components' `encode_state`/`restore_state`, so private fields never leak
//! across crate boundaries.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![warn(unreachable_pub)]

mod codec;
mod crc;
mod error;
mod file;
mod snap;

pub use codec::{SnapReader, SnapWriter};
pub use crc::{fnv1a64, Fnv64};
pub use error::SnapshotError;
pub use file::{write_atomic, SnapshotFile};
pub use snap::Snap;
