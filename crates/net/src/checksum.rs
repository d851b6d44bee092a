//! The Internet checksum (RFC 1071).
//!
//! Used by IPv4, ICMP, and (over a pseudo-header) TCP and UDP. The
//! implementation is the standard end-around-carry one's-complement sum with
//! incremental accumulation, so the transport layers can fold their
//! pseudo-header, header, and payload without concatenating buffers.

/// Incremental RFC 1071 checksum accumulator.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Checksum {
    sum: u32,
    /// A pending odd byte from a previous `add_bytes` call.
    pending: Option<u8>,
}

impl Checksum {
    /// Creates an empty accumulator.
    #[must_use]
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Adds a 16-bit word in network order.
    pub(crate) fn add_u16(&mut self, word: u16) {
        // Flush byte alignment first so words land on even offsets.
        if let Some(b) = self.pending.take() {
            self.sum += u32::from(u16::from_be_bytes([b, (word >> 8) as u8]));
            self.pending = Some(word as u8);
        } else {
            self.sum += u32::from(word);
        }
    }

    /// Adds a 32-bit value as two network-order words.
    pub(crate) fn add_u32(&mut self, value: u32) {
        self.add_u16((value >> 16) as u16);
        self.add_u16(value as u16);
    }

    /// Adds a byte slice (handles odd lengths across calls).
    pub(crate) fn add_bytes(&mut self, bytes: &[u8]) {
        let mut data = bytes;
        if let Some(b) = self.pending.take() {
            if let Some((&first, rest)) = data.split_first() {
                self.sum += u32::from(u16::from_be_bytes([b, first]));
                data = rest;
            } else {
                self.pending = Some(b);
                return;
            }
        }
        let mut chunks = data.chunks_exact(2);
        for chunk in &mut chunks {
            self.sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
        }
        if let [last] = chunks.remainder() {
            self.pending = Some(*last);
        }
    }

    /// Finalizes: folds carries and returns the one's-complement sum.
    #[must_use]
    pub(crate) fn finish(mut self) -> u16 {
        if let Some(b) = self.pending.take() {
            self.sum += u32::from(u16::from_be_bytes([b, 0]));
        }
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }
}

/// Computes the checksum of a single buffer.
#[must_use]
pub(crate) fn checksum(bytes: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add_bytes(bytes);
    c.finish()
}

/// Verifies a buffer whose checksum field is included: the total must be
/// zero (i.e. `finish()` returns 0).
#[must_use]
pub(crate) fn verify(bytes: &[u8]) -> bool {
    checksum(bytes) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example from RFC 1071 §3.
    #[test]
    fn rfc1071_example() {
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // RFC gives the sum as 0xddf2 before complement.
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn known_ipv4_header_checksum() {
        // Canonical example: header with checksum field zeroed...
        let mut header: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0x00, 0x00, 0xc0, 0xa8,
            0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        let sum = checksum(&header);
        assert_eq!(sum, 0xb861, "textbook example checksum");
        header[10] = (sum >> 8) as u8;
        header[11] = sum as u8;
        assert!(verify(&header));
    }

    #[test]
    fn odd_length_buffer() {
        // Odd length pads with a zero byte.
        let odd = [0x01u8, 0x02, 0x03];
        let even = [0x01u8, 0x02, 0x03, 0x00];
        assert_eq!(checksum(&odd), checksum(&even));
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0u8..=255).collect();
        let oneshot = checksum(&data);
        // Split at an odd boundary to exercise the pending-byte path.
        let mut c = Checksum::new();
        c.add_bytes(&data[..37]);
        c.add_bytes(&data[37..101]);
        c.add_bytes(&data[101..]);
        assert_eq!(c.finish(), oneshot);
    }

    #[test]
    fn words_and_u32_match_bytes() {
        let mut a = Checksum::new();
        a.add_u16(0x1234);
        a.add_u32(0x5678_9abc);
        let mut b = Checksum::new();
        b.add_bytes(&[0x12, 0x34, 0x56, 0x78, 0x9a, 0xbc]);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn empty_is_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn zero_result_transmitted_semantics() {
        // A buffer of all 0xff sums to 0xffff -> complement 0.
        assert_eq!(checksum(&[0xff, 0xff]), 0);
    }
}
