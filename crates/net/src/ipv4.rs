//! IPv4 header parsing and construction.
//!
//! Options are accepted on parse (skipped via IHL) but never generated; the
//! honeyfarm's synthetic traffic does not use them.

use std::net::Ipv4Addr;

use crate::checksum::{self, Checksum};
use crate::error::NetError;

/// Minimum IPv4 header length (no options).
pub(crate) const MIN_HEADER_LEN: usize = 20;

/// IP protocol numbers used by the honeyfarm.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// GRE (47).
    Gre,
    /// Anything else, preserved verbatim.
    Other(u8),
}

impl IpProtocol {
    /// The wire value.
    #[must_use]
    pub(crate) fn value(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Gre => 47,
            IpProtocol::Other(v) => v,
        }
    }

    /// Decodes a wire value.
    #[must_use]
    pub(crate) fn from_value(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            47 => IpProtocol::Gre,
            other => IpProtocol::Other(other),
        }
    }
}

impl core::fmt::Display for IpProtocol {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            IpProtocol::Icmp => write!(f, "icmp"),
            IpProtocol::Tcp => write!(f, "tcp"),
            IpProtocol::Udp => write!(f, "udp"),
            IpProtocol::Gre => write!(f, "gre"),
            IpProtocol::Other(v) => write!(f, "proto-{v}"),
        }
    }
}

/// A parsed IPv4 header (options skipped, fragments not reassembled).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Ipv4Header {
    /// Source address.
    pub(crate) src: Ipv4Addr,
    /// Destination address.
    pub(crate) dst: Ipv4Addr,
    /// Payload protocol.
    pub(crate) protocol: IpProtocol,
    /// Time to live.
    pub(crate) ttl: u8,
    /// IP identification field.
    pub(crate) ident: u16,
    /// Don't-fragment flag.
    pub(crate) dont_fragment: bool,
    /// Total length of header + payload, as claimed on the wire.
    pub(crate) total_len: u16,
    /// Header length in bytes (20 plus options).
    pub(crate) header_len: u8,
}

impl Ipv4Header {
    /// Parses a header from `buf`, verifying the header checksum, and
    /// returns the header and the payload (bounded by `total_len`).
    pub(crate) fn parse(buf: &[u8]) -> Result<(Ipv4Header, &[u8]), NetError> {
        if buf.len() < MIN_HEADER_LEN {
            return Err(NetError::Truncated {
                layer: "ipv4",
                need: MIN_HEADER_LEN,
                have: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(NetError::Unsupported {
                layer: "ipv4",
                what: "version",
                value: u32::from(version),
            });
        }
        let ihl = (buf[0] & 0x0f) as usize * 4;
        if ihl < MIN_HEADER_LEN {
            return Err(NetError::Unsupported { layer: "ipv4", what: "ihl", value: ihl as u32 });
        }
        if buf.len() < ihl {
            return Err(NetError::Truncated { layer: "ipv4", need: ihl, have: buf.len() });
        }
        if !checksum::verify(&buf[..ihl]) {
            return Err(NetError::BadChecksum { layer: "ipv4" });
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]);
        if (total_len as usize) < ihl || total_len as usize > buf.len() {
            return Err(NetError::BadLength {
                layer: "ipv4",
                claimed: total_len as usize,
                actual: buf.len(),
            });
        }
        let flags = buf[6] >> 5;
        let header = Ipv4Header {
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
            protocol: IpProtocol::from_value(buf[9]),
            ttl: buf[8],
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            dont_fragment: flags & 0b010 != 0,
            total_len,
            header_len: ihl as u8,
        };
        Ok((header, &buf[ihl..total_len as usize]))
    }

    /// Serializes a 20-byte header (no options) followed by `payload`,
    /// computing the header checksum.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidField`] if the total length would exceed
    /// 65 535 bytes.
    #[cfg(test)]
    fn build(&self, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let mut out = Vec::with_capacity(MIN_HEADER_LEN + payload.len());
        self.build_prefix(payload.len(), &mut out)?;
        out.extend_from_slice(payload);
        Ok(out)
    }

    /// Appends a 20-byte header (no options) for a transport of
    /// `transport_len` bytes to `out`, computing the header checksum. The
    /// caller appends the transport bytes itself — this is the
    /// single-serialization path used by `PacketBuilder`, which writes the
    /// transport directly into the wire buffer instead of through an
    /// intermediate copy.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidField`] if the total length would exceed
    /// 65 535 bytes.
    pub(crate) fn build_prefix(
        &self,
        transport_len: usize,
        out: &mut Vec<u8>,
    ) -> Result<(), NetError> {
        let total = MIN_HEADER_LEN + transport_len;
        if total > u16::MAX as usize {
            return Err(NetError::InvalidField { layer: "ipv4", what: "payload too large" });
        }
        let base = out.len();
        out.resize(base + MIN_HEADER_LEN, 0);
        let h = &mut out[base..base + MIN_HEADER_LEN];
        h[0] = 0x45; // version 4, IHL 5
        h[1] = 0; // DSCP/ECN
        h[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        h[4..6].copy_from_slice(&self.ident.to_be_bytes());
        let flags: u16 = if self.dont_fragment { 0x4000 } else { 0 };
        h[6..8].copy_from_slice(&flags.to_be_bytes());
        h[8] = self.ttl;
        h[9] = self.protocol.value();
        // Checksum at [10..12] starts zeroed.
        h[12..16].copy_from_slice(&self.src.octets());
        h[16..20].copy_from_slice(&self.dst.octets());
        let sum = checksum::checksum(&out[base..base + MIN_HEADER_LEN]);
        out[base + 10..base + 12].copy_from_slice(&sum.to_be_bytes());
        Ok(())
    }

    /// Starts a transport pseudo-header checksum (RFC 793 §3.1) for this
    /// packet's addresses and the given protocol/length.
    #[must_use]
    pub(crate) fn pseudo_header_checksum(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        proto: IpProtocol,
        len: u16,
    ) -> Checksum {
        let mut c = Checksum::new();
        c.add_u32(u32::from(src));
        c.add_u32(u32::from(dst));
        c.add_u16(u16::from(proto.value()));
        c.add_u16(len);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Header {
        Ipv4Header {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(192, 168, 1, 200),
            protocol: IpProtocol::Udp,
            ttl: 64,
            ident: 0x1234,
            dont_fragment: true,
            total_len: 0, // filled by build/parse
            header_len: 20,
        }
    }

    #[test]
    fn roundtrip() {
        let h = sample();
        let wire = h.build(&[1, 2, 3, 4, 5]).unwrap();
        let (parsed, payload) = Ipv4Header::parse(&wire).unwrap();
        assert_eq!(parsed.src, h.src);
        assert_eq!(parsed.dst, h.dst);
        assert_eq!(parsed.protocol, IpProtocol::Udp);
        assert_eq!(parsed.ttl, 64);
        assert_eq!(parsed.ident, 0x1234);
        assert!(parsed.dont_fragment);
        assert_eq!(parsed.total_len, 25);
        assert_eq!(payload, &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let wire = sample().build(&[9; 8]).unwrap();
        let mut bad = wire.clone();
        bad[15] ^= 0xff; // flip a source-address byte
        assert_eq!(Ipv4Header::parse(&bad).unwrap_err(), NetError::BadChecksum { layer: "ipv4" });
    }

    #[test]
    fn version_and_ihl_validation() {
        let mut wire = sample().build(&[]).unwrap();
        wire[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Header::parse(&wire).unwrap_err(),
            NetError::Unsupported { what: "version", .. }
        ));
        let mut wire2 = sample().build(&[]).unwrap();
        wire2[0] = 0x43; // IHL 3 words < 20 bytes
        assert!(matches!(
            Ipv4Header::parse(&wire2).unwrap_err(),
            NetError::Unsupported { what: "ihl", .. }
        ));
    }

    #[test]
    fn truncation_detected() {
        let wire = sample().build(&[0; 10]).unwrap();
        assert!(matches!(
            Ipv4Header::parse(&wire[..12]).unwrap_err(),
            NetError::Truncated { layer: "ipv4", .. }
        ));
    }

    #[test]
    fn total_len_must_fit_buffer() {
        let mut wire = sample().build(&[0; 4]).unwrap();
        // Claim a longer total length than the buffer provides and re-checksum.
        wire[2..4].copy_from_slice(&100u16.to_be_bytes());
        wire[10] = 0;
        wire[11] = 0;
        let sum = checksum::checksum(&wire[..20]);
        wire[10..12].copy_from_slice(&sum.to_be_bytes());
        assert!(matches!(Ipv4Header::parse(&wire).unwrap_err(), NetError::BadLength { .. }));
    }

    #[test]
    fn trailing_bytes_beyond_total_len_ignored() {
        let mut wire = sample().build(&[7, 7]).unwrap();
        wire.extend_from_slice(&[0xde, 0xad]); // Ethernet padding
        let (h, payload) = Ipv4Header::parse(&wire).unwrap();
        assert_eq!(h.total_len, 22);
        assert_eq!(payload, &[7, 7]);
    }

    #[test]
    fn oversize_payload_rejected_on_build() {
        let h = sample();
        let big = vec![0u8; 70_000];
        assert!(matches!(h.build(&big).unwrap_err(), NetError::InvalidField { .. }));
    }

    #[test]
    fn options_are_skipped_on_parse() {
        // Hand-build a 24-byte header (IHL=6) with one NOP-padded option word.
        let mut wire = vec![0u8; 24];
        wire[0] = 0x46;
        wire[2..4].copy_from_slice(&26u16.to_be_bytes()); // total 24 + 2 payload
        wire[8] = 64;
        wire[9] = 6;
        wire[12..16].copy_from_slice(&[1, 2, 3, 4]);
        wire[16..20].copy_from_slice(&[5, 6, 7, 8]);
        wire[20..24].copy_from_slice(&[1, 1, 1, 1]); // NOP options
        let sum = checksum::checksum(&wire[..24]);
        wire[10..12].copy_from_slice(&sum.to_be_bytes());
        wire.extend_from_slice(&[0xca, 0xfe]);
        let (h, payload) = Ipv4Header::parse(&wire).unwrap();
        assert_eq!(h.header_len, 24);
        assert_eq!(h.protocol, IpProtocol::Tcp);
        assert_eq!(payload, &[0xca, 0xfe]);
    }

    #[test]
    fn protocol_mapping_roundtrip() {
        for v in 0u8..=255 {
            assert_eq!(IpProtocol::from_value(v).value(), v);
        }
        assert_eq!(IpProtocol::Tcp.to_string(), "tcp");
        assert_eq!(IpProtocol::Other(89).to_string(), "proto-89");
    }
}
