//! ICMP (v4) messages: echo, destination unreachable, time exceeded.
//!
//! The gateway answers pings for unbound telescope addresses (cheap fidelity)
//! and emits unreachables under the drop containment policy.

use crate::checksum;
use crate::error::NetError;

/// Minimum ICMP message length (type, code, checksum, 4 bytes rest-of-header).
pub(crate) const MIN_LEN: usize = 8;

/// A parsed ICMP message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IcmpMessage {
    /// Echo request (type 8).
    EchoRequest {
        /// Identifier, usually per-process.
        ident: u16,
        /// Sequence number within the identifier.
        seq: u16,
        /// Echo payload.
        payload: Vec<u8>,
    },
    /// Echo reply (type 0).
    EchoReply {
        /// Identifier copied from the request.
        ident: u16,
        /// Sequence copied from the request.
        seq: u16,
        /// Payload copied from the request.
        payload: Vec<u8>,
    },
    /// Destination unreachable (type 3) carrying the original datagram
    /// prefix.
    DestUnreachable {
        /// Code (0 net, 1 host, 3 port, 13 admin-prohibited, ...).
        code: u8,
        /// The leading bytes of the offending datagram.
        original: Vec<u8>,
    },
    /// Time exceeded (type 11).
    TimeExceeded {
        /// Code (0 TTL exceeded in transit).
        code: u8,
        /// The leading bytes of the offending datagram.
        original: Vec<u8>,
    },
    /// Any other type, preserved raw.
    Other {
        /// ICMP type.
        icmp_type: u8,
        /// ICMP code.
        code: u8,
        /// Everything after the checksum.
        rest: Vec<u8>,
    },
}

impl IcmpMessage {
    /// Code for "port unreachable".
    pub const CODE_PORT_UNREACHABLE: u8 = 3;
    /// Parses an ICMP message, verifying the checksum.
    pub fn parse(buf: &[u8]) -> Result<IcmpMessage, NetError> {
        if buf.len() < MIN_LEN {
            return Err(NetError::Truncated { layer: "icmp", need: MIN_LEN, have: buf.len() });
        }
        if !checksum::verify(buf) {
            return Err(NetError::BadChecksum { layer: "icmp" });
        }
        let icmp_type = buf[0];
        let code = buf[1];
        let ident = u16::from_be_bytes([buf[4], buf[5]]);
        let seq = u16::from_be_bytes([buf[6], buf[7]]);
        Ok(match icmp_type {
            8 => IcmpMessage::EchoRequest { ident, seq, payload: buf[8..].to_vec() },
            0 => IcmpMessage::EchoReply { ident, seq, payload: buf[8..].to_vec() },
            3 => IcmpMessage::DestUnreachable { code, original: buf[8..].to_vec() },
            11 => IcmpMessage::TimeExceeded { code, original: buf[8..].to_vec() },
            t => IcmpMessage::Other { icmp_type: t, code, rest: buf[4..].to_vec() },
        })
    }

    /// Serializes the message, computing the checksum.
    #[must_use]
    pub(crate) fn build(&self) -> Vec<u8> {
        let (icmp_type, code, rest_header, body): (u8, u8, [u8; 4], &[u8]) = match self {
            IcmpMessage::EchoRequest { ident, seq, payload } => {
                let mut rh = [0u8; 4];
                rh[..2].copy_from_slice(&ident.to_be_bytes());
                rh[2..].copy_from_slice(&seq.to_be_bytes());
                (8, 0, rh, payload)
            }
            IcmpMessage::EchoReply { ident, seq, payload } => {
                let mut rh = [0u8; 4];
                rh[..2].copy_from_slice(&ident.to_be_bytes());
                rh[2..].copy_from_slice(&seq.to_be_bytes());
                (0, 0, rh, payload)
            }
            IcmpMessage::DestUnreachable { code, original } => (3, *code, [0; 4], original),
            IcmpMessage::TimeExceeded { code, original } => (11, *code, [0; 4], original),
            IcmpMessage::Other { icmp_type, code, rest } => {
                let mut out = vec![*icmp_type, *code, 0, 0];
                out.extend_from_slice(rest);
                // `rest` already includes the 4 rest-of-header bytes.
                let mut padded = out;
                while padded.len() < MIN_LEN {
                    padded.push(0);
                }
                let sum = checksum::checksum(&padded);
                padded[2..4].copy_from_slice(&sum.to_be_bytes());
                return padded;
            }
        };
        let mut out = Vec::with_capacity(MIN_LEN + body.len());
        out.push(icmp_type);
        out.push(code);
        out.extend_from_slice(&[0, 0]); // checksum placeholder
        out.extend_from_slice(&rest_header);
        out.extend_from_slice(body);
        let sum = checksum::checksum(&out);
        out[2..4].copy_from_slice(&sum.to_be_bytes());
        out
    }

    /// Builds the echo reply corresponding to an echo request.
    ///
    /// Returns `None` if `self` is not an echo request.
    #[must_use]
    pub fn reply_to(&self) -> Option<IcmpMessage> {
        match self {
            IcmpMessage::EchoRequest { ident, seq, payload } => {
                Some(IcmpMessage::EchoReply { ident: *ident, seq: *seq, payload: payload.clone() })
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_roundtrip() {
        let req = IcmpMessage::EchoRequest { ident: 77, seq: 3, payload: b"ping!".to_vec() };
        let wire = req.build();
        assert_eq!(IcmpMessage::parse(&wire).unwrap(), req);
    }

    #[test]
    fn reply_mirrors_request() {
        let req = IcmpMessage::EchoRequest { ident: 5, seq: 9, payload: vec![1, 2, 3] };
        let reply = req.reply_to().unwrap();
        match &reply {
            IcmpMessage::EchoReply { ident, seq, payload } => {
                assert_eq!(*ident, 5);
                assert_eq!(*seq, 9);
                assert_eq!(payload, &vec![1, 2, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        let wire = reply.build();
        assert_eq!(IcmpMessage::parse(&wire).unwrap(), reply);
        assert!(reply.reply_to().is_none());
    }

    #[test]
    fn unreachable_roundtrip() {
        let msg = IcmpMessage::DestUnreachable {
            code: 13, // administratively prohibited
            original: vec![0x45, 0, 0, 28],
        };
        let wire = msg.build();
        assert_eq!(wire[0], 3);
        assert_eq!(wire[1], 13);
        assert_eq!(IcmpMessage::parse(&wire).unwrap(), msg);
    }

    #[test]
    fn time_exceeded_roundtrip() {
        let msg = IcmpMessage::TimeExceeded { code: 0, original: vec![9; 28] };
        assert_eq!(IcmpMessage::parse(&msg.build()).unwrap(), msg);
    }

    #[test]
    fn other_type_preserved() {
        let msg = IcmpMessage::Other { icmp_type: 13, code: 0, rest: vec![7; 16] };
        let wire = msg.build();
        assert_eq!(IcmpMessage::parse(&wire).unwrap(), msg);
    }

    #[test]
    fn other_type_short_rest_padded() {
        // A 2-byte rest is padded to the 8-byte minimum and still parses.
        let msg = IcmpMessage::Other { icmp_type: 40, code: 1, rest: vec![0xaa, 0xbb] };
        let wire = msg.build();
        assert_eq!(wire.len(), MIN_LEN);
        match IcmpMessage::parse(&wire).unwrap() {
            IcmpMessage::Other { icmp_type, code, rest } => {
                assert_eq!(icmp_type, 40);
                assert_eq!(code, 1);
                assert_eq!(rest, vec![0xaa, 0xbb, 0, 0]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corruption_detected() {
        let mut wire = IcmpMessage::EchoRequest { ident: 1, seq: 1, payload: vec![] }.build();
        wire[5] ^= 0xff;
        assert_eq!(IcmpMessage::parse(&wire).unwrap_err(), NetError::BadChecksum { layer: "icmp" });
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            IcmpMessage::parse(&[8, 0, 0]).unwrap_err(),
            NetError::Truncated { layer: "icmp", .. }
        ));
    }
}
