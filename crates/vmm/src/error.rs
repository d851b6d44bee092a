//! VMM error type.

use core::fmt;

use crate::domain::DomainId;
use crate::snapshot::ImageId;
use crate::storage::ChunkHash;

/// Errors from VMM operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmmError {
    /// The host has no free machine frames left.
    OutOfMemory {
        /// Frames requested.
        requested: u64,
        /// Frames free at the time.
        free: u64,
    },
    /// The referenced domain does not exist (or was destroyed).
    NoSuchDomain(DomainId),
    /// The referenced reference image does not exist.
    NoSuchImage(ImageId),
    /// The operation is invalid in the domain's current state.
    BadState {
        /// The domain.
        domain: DomainId,
        /// What was attempted.
        op: &'static str,
    },
    /// A pseudo-physical frame number is outside the domain's memory.
    BadPfn {
        /// The offending pfn.
        pfn: u64,
        /// The domain's memory size in pages.
        size: u64,
    },
    /// A block number is outside the virtual disk.
    BadBlock {
        /// The offending block.
        block: u64,
        /// The disk size in blocks.
        size: u64,
    },
    /// A disk manifest names a chunk the store does not hold, or holds
    /// shorter than the read: store corruption, reported as a value rather
    /// than a panic.
    MissingChunk {
        /// Content hash of the missing chunk.
        hash: ChunkHash,
    },
    /// The host's domain limit was reached.
    TooManyDomains {
        /// The configured limit.
        limit: usize,
    },
    /// The physical host is down (crashed); no VMM operation can proceed
    /// until it recovers.
    HostDown,
    /// A deterministically injected fault from the fault-injection harness
    /// made the operation fail. Transient: the same operation may succeed on
    /// retry.
    InjectedFault {
        /// The operation that was made to fail.
        op: &'static str,
    },
}

impl VmmError {
    /// Returns `true` if the error is transient — retrying the same operation
    /// on the same host may succeed (injected faults are consumed per
    /// attempt). Capacity and state errors are not transient: retrying
    /// without freeing resources cannot help.
    #[must_use]
    pub fn is_transient(&self) -> bool {
        matches!(self, VmmError::InjectedFault { .. })
    }
}

impl fmt::Display for VmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmmError::OutOfMemory { requested, free } => {
                write!(f, "out of memory: requested {requested} frames, {free} free")
            }
            VmmError::NoSuchDomain(id) => write!(f, "no such domain: {id}"),
            VmmError::NoSuchImage(id) => write!(f, "no such reference image: {id}"),
            VmmError::BadState { domain, op } => {
                write!(f, "domain {domain}: invalid state for {op}")
            }
            VmmError::BadPfn { pfn, size } => {
                write!(f, "pfn {pfn} out of range (domain has {size} pages)")
            }
            VmmError::BadBlock { block, size } => {
                write!(f, "block {block} out of range (disk has {size} blocks)")
            }
            VmmError::MissingChunk { hash } => {
                write!(f, "chunk {hash} missing or short in the chunk store")
            }
            VmmError::TooManyDomains { limit } => {
                write!(f, "domain limit reached ({limit})")
            }
            VmmError::HostDown => write!(f, "host is down"),
            VmmError::InjectedFault { op } => write!(f, "injected fault during {op}"),
        }
    }
}

impl std::error::Error for VmmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_all_variants() {
        assert_eq!(
            VmmError::OutOfMemory { requested: 10, free: 3 }.to_string(),
            "out of memory: requested 10 frames, 3 free"
        );
        assert!(VmmError::NoSuchDomain(DomainId(7)).to_string().contains("dom7"));
        assert!(VmmError::NoSuchImage(ImageId(2)).to_string().contains("img2"));
        assert!(VmmError::BadState { domain: DomainId(1), op: "write" }
            .to_string()
            .contains("write"));
        assert!(VmmError::BadPfn { pfn: 99, size: 10 }.to_string().contains("99"));
        assert!(VmmError::BadBlock { block: 5, size: 2 }.to_string().contains("5"));
        let hash = ChunkHash::of_words(&[0xAB]);
        assert!(VmmError::MissingChunk { hash }.to_string().contains(&hash.to_string()));
        assert!(VmmError::TooManyDomains { limit: 128 }.to_string().contains("128"));
        assert_eq!(VmmError::HostDown.to_string(), "host is down");
        assert!(VmmError::InjectedFault { op: "flash_clone" }.to_string().contains("flash_clone"));
    }

    #[test]
    fn only_injected_faults_are_transient() {
        assert!(VmmError::InjectedFault { op: "flash_clone" }.is_transient());
        assert!(!VmmError::HostDown.is_transient());
        assert!(!VmmError::OutOfMemory { requested: 1, free: 0 }.is_transient());
        assert!(!VmmError::TooManyDomains { limit: 4 }.is_transient());
    }
}
