//! Typed errors for the chunk-store layer.

use std::fmt;

/// Errors surfaced by chunk stores and manifests.
///
/// Every failure is a value, never a panic: a corrupt store degrades into
/// [`StorageError::MissingChunk`], and a bad address into
/// [`StorageError::OutOfRange`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StorageError {
    /// A manifest referenced a chunk the store does not hold.
    MissingChunk {
        /// Content hash of the missing chunk.
        hash: u64,
    },
    /// A block or word address fell outside the addressed object.
    OutOfRange {
        /// The offending address.
        index: u64,
        /// The object's size (blocks for manifests, words for chunks).
        size: u64,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::MissingChunk { hash } => {
                write!(f, "chunk {hash:016x} missing from store")
            }
            StorageError::OutOfRange { index, size } => {
                write!(f, "address {index} out of range (size {size})")
            }
        }
    }
}

impl std::error::Error for StorageError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        assert!(StorageError::MissingChunk { hash: 0xAB }.to_string().contains("00000000000000ab"));
        assert!(StorageError::OutOfRange { index: 9, size: 4 }.to_string().contains("9"));
    }
}
