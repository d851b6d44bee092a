//! UDP header parsing and construction.

use std::net::Ipv4Addr;

use crate::error::NetError;
use crate::ipv4::{IpProtocol, Ipv4Header};

/// UDP header length.
pub(crate) const HEADER_LEN: usize = 8;

/// A parsed UDP header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Length of header + payload as claimed on the wire.
    pub length: u16,
}

impl UdpHeader {
    /// Parses a UDP header, verifying length and checksum (when non-zero;
    /// an all-zero checksum means "not computed" per RFC 768). Returns the
    /// header and the payload, which ends at the length field.
    pub fn parse(buf: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<(UdpHeader, &[u8]), NetError> {
        if buf.len() < HEADER_LEN {
            return Err(NetError::Truncated { layer: "udp", need: HEADER_LEN, have: buf.len() });
        }
        let length = u16::from_be_bytes([buf[4], buf[5]]);
        if (length as usize) < HEADER_LEN || length as usize > buf.len() {
            return Err(NetError::BadLength {
                layer: "udp",
                claimed: length as usize,
                actual: buf.len(),
            });
        }
        let wire_sum = u16::from_be_bytes([buf[6], buf[7]]);
        if wire_sum != 0 {
            let mut c = Ipv4Header::pseudo_header_checksum(src, dst, IpProtocol::Udp, length);
            c.add_bytes(&buf[..length as usize]);
            if c.finish() != 0 {
                return Err(NetError::BadChecksum { layer: "udp" });
            }
        }
        Ok(UdpHeader::read(buf))
    }

    /// Decodes a datagram [`UdpHeader::parse`] has accepted, without
    /// checking it again.
    pub(crate) fn read(buf: &[u8]) -> (UdpHeader, &[u8]) {
        let header = UdpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            length: u16::from_be_bytes([buf[4], buf[5]]),
        };
        (header, &buf[HEADER_LEN..usize::from(header.length)])
    }

    /// Serializes the header followed by `payload`, computing the checksum.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidField`] if the datagram exceeds 65 535
    /// bytes.
    #[cfg(test)]
    fn build(
        src_port: u16,
        dst_port: u16,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        let len = HEADER_LEN + payload.len();
        if len > usize::from(u16::MAX) {
            return Err(NetError::InvalidField { layer: "udp", what: "datagram too large" });
        }
        let mut out = vec![0; len];
        UdpHeader::write(src_port, dst_port, src, dst, payload, &mut out);
        Ok(out)
    }

    /// Writes the datagram (header and `payload`) into `out`, which is
    /// exactly `HEADER_LEN` plus `payload.len()` zeroed bytes of at most
    /// 65 535, computing the checksum.
    pub(crate) fn write(
        src_port: u16,
        dst_port: u16,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        payload: &[u8],
        out: &mut [u8],
    ) {
        let length = out.len() as u16;
        out[0..2].copy_from_slice(&src_port.to_be_bytes());
        out[2..4].copy_from_slice(&dst_port.to_be_bytes());
        out[4..6].copy_from_slice(&length.to_be_bytes());
        out[HEADER_LEN..].copy_from_slice(payload);
        let mut c = Ipv4Header::pseudo_header_checksum(src, dst, IpProtocol::Udp, length);
        c.add_bytes(out);
        let mut sum = c.finish();
        // RFC 768: a computed zero checksum is transmitted as all-ones.
        if sum == 0 {
            sum = 0xffff;
        }
        out[6..8].copy_from_slice(&sum.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(172, 16, 0, 2);

    #[test]
    fn roundtrip() {
        let wire = UdpHeader::build(1434, 53, SRC, DST, b"query").unwrap();
        let (h, payload) = UdpHeader::parse(&wire, SRC, DST).unwrap();
        assert_eq!(h.src_port, 1434);
        assert_eq!(h.dst_port, 53);
        assert_eq!(h.length, 13);
        assert_eq!(payload, b"query");
    }

    #[test]
    fn checksum_binds_addresses() {
        let wire = UdpHeader::build(1, 2, SRC, DST, b"x").unwrap();
        assert_eq!(
            UdpHeader::parse(&wire, SRC, Ipv4Addr::new(1, 1, 1, 1)).unwrap_err(),
            NetError::BadChecksum { layer: "udp" }
        );
    }

    #[test]
    fn zero_checksum_skips_verification() {
        let mut wire = UdpHeader::build(1, 2, SRC, DST, b"x").unwrap();
        wire[6] = 0;
        wire[7] = 0;
        // Zero checksum means "not computed": parse succeeds.
        let (h, payload) = UdpHeader::parse(&wire, SRC, DST).unwrap();
        assert_eq!(h.src_port, 1);
        assert_eq!(payload, b"x");
    }

    #[test]
    fn length_field_validation() {
        let wire = UdpHeader::build(1, 2, SRC, DST, b"abc").unwrap();
        let mut short = wire.clone();
        short[4..6].copy_from_slice(&4u16.to_be_bytes()); // < header size
        assert!(matches!(
            UdpHeader::parse(&short, SRC, DST).unwrap_err(),
            NetError::BadLength { .. }
        ));
        let mut long = wire;
        long[4..6].copy_from_slice(&200u16.to_be_bytes()); // > buffer
        assert!(matches!(
            UdpHeader::parse(&long, SRC, DST).unwrap_err(),
            NetError::BadLength { .. }
        ));
    }

    #[test]
    fn trailing_ethernet_padding_ignored() {
        let mut wire = UdpHeader::build(1, 2, SRC, DST, b"ab").unwrap();
        wire.extend_from_slice(&[0u8; 6]);
        let (_, payload) = UdpHeader::parse(&wire, SRC, DST).unwrap();
        assert_eq!(payload, b"ab");
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            UdpHeader::parse(&[0u8; 7], SRC, DST).unwrap_err(),
            NetError::Truncated { layer: "udp", .. }
        ));
    }

    #[test]
    fn empty_payload_ok() {
        let wire = UdpHeader::build(9, 9, SRC, DST, &[]).unwrap();
        let (h, payload) = UdpHeader::parse(&wire, SRC, DST).unwrap();
        assert_eq!(h.length, 8);
        assert!(payload.is_empty());
    }
}
