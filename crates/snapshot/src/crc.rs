//! Integrity primitives: CRC-32 (IEEE) per section, FNV-1a 64 whole-file.
//!
//! CRC-32 catches the bit flips and short burst errors that commodity disks
//! and filesystems occasionally deliver; the independent FNV-1a 64 digest
//! over the entire body catches section-table tampering and cross-section
//! splices that per-section CRCs cannot see. Both are implemented here rather
//! than pulled in as dependencies because the build environment is offline.

/// Computes the IEEE CRC-32 (reflected, polynomial `0xEDB88320`) of `data`.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = 0xFFFF_FFFF;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Streaming FNV-1a 64 hasher.
#[derive(Clone, Copy, Debug)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Starts a fresh hash at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fnv64 { state: Self::OFFSET }
    }

    /// Folds `data` into the hash.
    #[inline]
    pub fn update(&mut self, data: &[u8]) {
        for &byte in data {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
    }

    /// The current digest value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// One-shot FNV-1a 64 of `data`.
#[must_use]
pub fn fnv1a64(data: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fnv_known_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn single_bit_flip_changes_both() {
        let a = b"the quick brown fox".to_vec();
        let mut b = a.clone();
        b[7] ^= 0x10;
        assert_ne!(crc32(&a), crc32(&b));
        assert_ne!(fnv1a64(&a), fnv1a64(&b));
    }
}
