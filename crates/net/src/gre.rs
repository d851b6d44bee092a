//! GRE encapsulation (RFC 2784, with the RFC 2890 key extension).
//!
//! Potemkin attracts traffic for telescope prefixes by having remote routers
//! tunnel it to the gateway over GRE. We support the base 4-byte header plus
//! the optional key field, which the gateway uses to identify which telescope
//! a packet arrived from.

use crate::error::NetError;

/// Base GRE header length (no options).
pub(crate) const BASE_HEADER_LEN: usize = 4;

/// EtherType-style protocol value for IPv4-in-GRE.
pub const PROTO_IPV4: u16 = 0x0800;

/// A parsed GRE header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GreHeader {
    /// The encapsulated protocol (0x0800 for IPv4).
    pub protocol: u16,
    /// Optional tunnel key (RFC 2890), used as a telescope identifier.
    pub key: Option<u32>,
}

impl GreHeader {
    /// Parses a GRE header, returning it and the encapsulated payload.
    ///
    /// Checksum and sequence-number options are not supported (the honeyfarm
    /// never negotiates them); their presence is an error.
    pub fn parse(buf: &[u8]) -> Result<(GreHeader, &[u8]), NetError> {
        if buf.len() < BASE_HEADER_LEN {
            return Err(NetError::Truncated {
                layer: "gre",
                need: BASE_HEADER_LEN,
                have: buf.len(),
            });
        }
        let flags = buf[0];
        let version = buf[1] & 0x07;
        if version != 0 {
            return Err(NetError::Unsupported {
                layer: "gre",
                what: "version",
                value: u32::from(version),
            });
        }
        let has_checksum = flags & 0x80 != 0;
        let has_key = flags & 0x20 != 0;
        let has_seq = flags & 0x10 != 0;
        if has_checksum || has_seq {
            return Err(NetError::Unsupported {
                layer: "gre",
                what: "checksum/sequence options",
                value: u32::from(flags),
            });
        }
        let protocol = u16::from_be_bytes([buf[2], buf[3]]);
        let mut offset = BASE_HEADER_LEN;
        let key = if has_key {
            if buf.len() < offset + 4 {
                return Err(NetError::Truncated {
                    layer: "gre",
                    need: offset + 4,
                    have: buf.len(),
                });
            }
            let k = u32::from_be_bytes([
                buf[offset],
                buf[offset + 1],
                buf[offset + 2],
                buf[offset + 3],
            ]);
            offset += 4;
            Some(k)
        } else {
            None
        };
        Ok((GreHeader { protocol, key }, &buf[offset..]))
    }

    /// Serializes the header followed by `payload`.
    #[must_use]
    pub fn build(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(BASE_HEADER_LEN + 4 + payload.len());
        let flags: u8 = if self.key.is_some() { 0x20 } else { 0x00 };
        out.push(flags);
        out.push(0); // version 0
        out.extend_from_slice(&self.protocol.to_be_bytes());
        if let Some(k) = self.key {
            out.extend_from_slice(&k.to_be_bytes());
        }
        out.extend_from_slice(payload);
        out
    }

    /// Convenience: encapsulates an IPv4 packet with the given tunnel key.
    #[must_use]
    pub fn encapsulate_ipv4(key: u32, inner: &[u8]) -> Vec<u8> {
        GreHeader { protocol: PROTO_IPV4, key: Some(key) }.build(inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_without_key() {
        let h = GreHeader { protocol: PROTO_IPV4, key: None };
        let wire = h.build(b"inner");
        assert_eq!(wire.len(), BASE_HEADER_LEN + 5);
        let (parsed, payload) = GreHeader::parse(&wire).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(payload, b"inner");
    }

    #[test]
    fn roundtrip_with_key() {
        let wire = GreHeader::encapsulate_ipv4(0xdeadbeef, b"ippkt");
        let (parsed, payload) = GreHeader::parse(&wire).unwrap();
        assert_eq!(parsed.key, Some(0xdeadbeef));
        assert_eq!(parsed.protocol, PROTO_IPV4);
        assert_eq!(payload, b"ippkt");
    }

    #[test]
    fn unsupported_options_rejected() {
        let mut wire = GreHeader { protocol: PROTO_IPV4, key: None }.build(&[]);
        wire[0] = 0x80; // checksum present
        assert!(matches!(GreHeader::parse(&wire).unwrap_err(), NetError::Unsupported { .. }));
        wire[0] = 0x10; // sequence present
        assert!(matches!(GreHeader::parse(&wire).unwrap_err(), NetError::Unsupported { .. }));
    }

    #[test]
    fn nonzero_version_rejected() {
        let mut wire = GreHeader { protocol: PROTO_IPV4, key: None }.build(&[]);
        wire[1] = 0x01;
        assert!(matches!(
            GreHeader::parse(&wire).unwrap_err(),
            NetError::Unsupported { what: "version", .. }
        ));
    }

    #[test]
    fn truncation_detected() {
        assert!(GreHeader::parse(&[0x20, 0, 8]).is_err());
        // Key flag set but key bytes missing.
        let wire = [0x20u8, 0, 0x08, 0x00, 0x01, 0x02];
        assert!(matches!(
            GreHeader::parse(&wire).unwrap_err(),
            NetError::Truncated { layer: "gre", .. }
        ));
    }
}
