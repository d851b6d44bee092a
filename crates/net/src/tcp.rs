//! TCP header parsing and construction.
//!
//! Enough TCP for a honeyfarm: connection-opening segments (SYN scans are
//! most of a telescope's traffic), the handshake, payload-carrying segments,
//! and RSTs. Options other than MSS are preserved as raw bytes.

use std::net::Ipv4Addr;

use crate::error::NetError;
use crate::ipv4::{IpProtocol, Ipv4Header};

/// Minimum TCP header length (no options).
pub(crate) const MIN_HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags {
    /// FIN: no more data from sender.
    pub(crate) fin: bool,
    /// SYN: synchronize sequence numbers.
    pub syn: bool,
    /// RST: reset the connection.
    pub rst: bool,
    /// PSH: push buffered data.
    pub(crate) psh: bool,
    /// ACK: acknowledgment field is significant.
    pub ack: bool,
    /// URG: urgent pointer is significant.
    pub(crate) urg: bool,
}

impl TcpFlags {
    /// A bare SYN.
    pub const SYN: TcpFlags = TcpFlags { syn: true, ..TcpFlags::none() };
    /// SYN+ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags { syn: true, ack: true, ..TcpFlags::none() };
    /// A bare ACK.
    pub const ACK: TcpFlags = TcpFlags { ack: true, ..TcpFlags::none() };
    /// RST (with ACK, as most stacks send).
    pub const RST: TcpFlags = TcpFlags { rst: true, ack: true, ..TcpFlags::none() };
    /// PSH+ACK: the usual data segment.
    pub const PSH_ACK: TcpFlags = TcpFlags { psh: true, ack: true, ..TcpFlags::none() };

    const fn none() -> TcpFlags {
        TcpFlags { fin: false, syn: false, rst: false, psh: false, ack: false, urg: false }
    }

    /// Encodes to the low 6 bits of the flags byte.
    #[must_use]
    pub(crate) fn to_byte(self) -> u8 {
        u8::from(self.fin)
            | u8::from(self.syn) << 1
            | u8::from(self.rst) << 2
            | u8::from(self.psh) << 3
            | u8::from(self.ack) << 4
            | u8::from(self.urg) << 5
    }

    /// Decodes from the flags byte.
    #[must_use]
    pub fn from_byte(b: u8) -> Self {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
            urg: b & 0x20 != 0,
        }
    }
}

impl core::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut any = false;
        for (set, name) in [
            (self.syn, "SYN"),
            (self.ack, "ACK"),
            (self.fin, "FIN"),
            (self.rst, "RST"),
            (self.psh, "PSH"),
            (self.urg, "URG"),
        ] {
            if set {
                if any {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                any = true;
            }
        }
        if !any {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// A parsed TCP header, borrowing its options from the segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpHeader<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flag bits.
    pub flags: TcpFlags,
    /// Receive window.
    pub(crate) window: u16,
    /// Raw option bytes (may be empty).
    pub(crate) options: &'a [u8],
}

impl<'a> TcpHeader<'a> {
    /// Parses a TCP header and verifies its checksum against the given IPv4
    /// addresses. Returns the header and the payload.
    pub fn parse(
        buf: &'a [u8],
        src: Ipv4Addr,
        dst: Ipv4Addr,
    ) -> Result<(TcpHeader<'a>, &'a [u8]), NetError> {
        if buf.len() < MIN_HEADER_LEN {
            return Err(NetError::Truncated {
                layer: "tcp",
                need: MIN_HEADER_LEN,
                have: buf.len(),
            });
        }
        let data_off = (buf[12] >> 4) as usize * 4;
        if data_off < MIN_HEADER_LEN {
            return Err(NetError::Unsupported {
                layer: "tcp",
                what: "data offset",
                value: data_off as u32,
            });
        }
        if buf.len() < data_off {
            return Err(NetError::Truncated { layer: "tcp", need: data_off, have: buf.len() });
        }
        let len = u16::try_from(buf.len())
            .map_err(|_| NetError::InvalidField { layer: "tcp", what: "segment too large" })?;
        let mut c = Ipv4Header::pseudo_header_checksum(src, dst, IpProtocol::Tcp, len);
        c.add_bytes(buf);
        if c.finish() != 0 {
            return Err(NetError::BadChecksum { layer: "tcp" });
        }
        Ok(TcpHeader::read(buf))
    }

    /// Decodes a segment [`TcpHeader::parse`] has accepted, without checking
    /// it again.
    pub(crate) fn read(buf: &'a [u8]) -> (TcpHeader<'a>, &'a [u8]) {
        let data_off = usize::from(buf[12] >> 4) * 4;
        let header = TcpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: TcpFlags::from_byte(buf[13]),
            window: u16::from_be_bytes([buf[14], buf[15]]),
            options: &buf[MIN_HEADER_LEN..data_off],
        };
        (header, &buf[data_off..])
    }

    /// Serializes the header followed by `payload`, computing the checksum
    /// over the pseudo-header for `src`/`dst`.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidField`] if options are not a multiple of 4
    /// bytes or longer than 40.
    #[cfg(test)]
    fn build(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let mut out = vec![0; self.header_len()? + payload.len()];
        self.write(src, dst, payload, &mut out);
        Ok(out)
    }

    /// The header's length with its options.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidField`] if options are not a multiple of 4
    /// bytes or longer than 40.
    pub(crate) fn header_len(&self) -> Result<usize, NetError> {
        if !self.options.len().is_multiple_of(4) || self.options.len() > 40 {
            return Err(NetError::InvalidField { layer: "tcp", what: "bad options length" });
        }
        Ok(MIN_HEADER_LEN + self.options.len())
    }

    /// Writes the segment (header, options, `payload`) into `out`, which is
    /// exactly [`TcpHeader::header_len`] plus `payload.len()` zeroed bytes
    /// of at most 65 535, computing the checksum over the pseudo-header for
    /// `src`/`dst`.
    pub(crate) fn write(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8], out: &mut [u8]) {
        let header_len = MIN_HEADER_LEN + self.options.len();
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..8].copy_from_slice(&self.seq.to_be_bytes());
        out[8..12].copy_from_slice(&self.ack.to_be_bytes());
        out[12] = ((header_len / 4) as u8) << 4;
        out[13] = self.flags.to_byte();
        out[14..16].copy_from_slice(&self.window.to_be_bytes());
        out[MIN_HEADER_LEN..header_len].copy_from_slice(self.options);
        out[header_len..].copy_from_slice(payload);
        let mut c = Ipv4Header::pseudo_header_checksum(src, dst, IpProtocol::Tcp, out.len() as u16);
        c.add_bytes(out);
        out[16..18].copy_from_slice(&c.finish().to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
    /// The standard 4-byte MSS option (kind 2, length 4) for an MSS of 1460.
    const MSS_1460: [u8; 4] = [2, 4, 0x05, 0xb4];

    fn syn() -> TcpHeader<'static> {
        TcpHeader {
            src_port: 44_321,
            dst_port: 445,
            seq: 0x01020304,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 65_535,
            options: &MSS_1460,
        }
    }

    #[test]
    fn roundtrip_with_options_and_payload() {
        let h = syn();
        let wire = h.build(SRC, DST, b"hello").unwrap();
        let (parsed, payload) = TcpHeader::parse(&wire, SRC, DST).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(payload, b"hello");
    }

    #[test]
    fn checksum_binds_addresses() {
        let wire = syn().build(SRC, DST, &[]).unwrap();
        // Same bytes, different claimed source address: checksum must fail.
        let err = TcpHeader::parse(&wire, Ipv4Addr::new(10, 0, 0, 9), DST).unwrap_err();
        assert_eq!(err, NetError::BadChecksum { layer: "tcp" });
    }

    #[test]
    fn corrupted_payload_rejected() {
        let mut wire = syn().build(SRC, DST, b"data").unwrap();
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        assert_eq!(
            TcpHeader::parse(&wire, SRC, DST).unwrap_err(),
            NetError::BadChecksum { layer: "tcp" }
        );
    }

    #[test]
    fn flags_byte_roundtrip() {
        for b in 0u8..64 {
            assert_eq!(TcpFlags::from_byte(b).to_byte(), b);
        }
    }

    #[test]
    fn flags_display() {
        assert_eq!(TcpFlags::SYN.to_string(), "SYN");
        assert_eq!(TcpFlags::SYN_ACK.to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::default().to_string(), "-");
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            TcpHeader::parse(&[0u8; 10], SRC, DST).unwrap_err(),
            NetError::Truncated { layer: "tcp", .. }
        ));
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut wire = syn().build(SRC, DST, &[]).unwrap();
        wire[12] = 0x30; // data offset 3 words
        assert!(matches!(
            TcpHeader::parse(&wire, SRC, DST).unwrap_err(),
            NetError::Unsupported { what: "data offset", .. }
        ));
    }

    #[test]
    fn invalid_options_rejected_on_build() {
        let mut h = syn();
        h.options = &[1, 2, 3]; // not a multiple of 4
        assert!(h.build(SRC, DST, &[]).is_err());
        h.options = &[0; 44]; // too long
        assert!(h.build(SRC, DST, &[]).is_err());
    }

    #[test]
    fn no_options_minimal_header() {
        let h = TcpHeader { options: &[], flags: TcpFlags::RST, ..syn() };
        let wire = h.build(SRC, DST, &[]).unwrap();
        assert_eq!(wire.len(), MIN_HEADER_LEN);
        let (parsed, payload) = TcpHeader::parse(&wire, SRC, DST).unwrap();
        assert!(parsed.flags.rst && parsed.flags.ack);
        assert!(payload.is_empty());
    }
}
