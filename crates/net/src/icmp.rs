//! ICMP (v4) messages: echo, destination unreachable, time exceeded.
//!
//! The gateway answers pings for unbound telescope addresses (cheap fidelity)
//! and emits unreachables under the drop containment policy.

use crate::checksum;
use crate::error::NetError;

/// Minimum ICMP message length (type, code, checksum, 4 bytes rest-of-header).
pub(crate) const MIN_LEN: usize = 8;

/// A parsed ICMP message, borrowing its body from the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IcmpMessage<'a> {
    /// Echo request (type 8).
    EchoRequest {
        /// Identifier, usually per-process.
        ident: u16,
        /// Sequence number within the identifier.
        seq: u16,
        /// Echo payload.
        payload: &'a [u8],
    },
    /// Echo reply (type 0).
    EchoReply {
        /// Identifier copied from the request.
        ident: u16,
        /// Sequence copied from the request.
        seq: u16,
        /// Payload copied from the request.
        payload: &'a [u8],
    },
    /// Destination unreachable (type 3) carrying the original datagram
    /// prefix.
    DestUnreachable {
        /// Code (0 net, 1 host, 3 port, 13 admin-prohibited, ...).
        code: u8,
        /// The leading bytes of the offending datagram.
        original: &'a [u8],
    },
    /// Time exceeded (type 11).
    TimeExceeded {
        /// Code (0 TTL exceeded in transit).
        code: u8,
        /// The leading bytes of the offending datagram.
        original: &'a [u8],
    },
    /// Any other type, preserved raw.
    Other {
        /// ICMP type.
        icmp_type: u8,
        /// ICMP code.
        code: u8,
        /// Everything after the checksum.
        rest: &'a [u8],
    },
}

impl<'a> IcmpMessage<'a> {
    /// Code for "port unreachable".
    pub const CODE_PORT_UNREACHABLE: u8 = 3;
    /// Parses an ICMP message, verifying the checksum.
    pub fn parse(buf: &'a [u8]) -> Result<IcmpMessage<'a>, NetError> {
        if buf.len() < MIN_LEN {
            return Err(NetError::Truncated { layer: "icmp", need: MIN_LEN, have: buf.len() });
        }
        if !checksum::verify(buf) {
            return Err(NetError::BadChecksum { layer: "icmp" });
        }
        Ok(IcmpMessage::read(buf))
    }

    /// Decodes a message [`IcmpMessage::parse`] has accepted, without
    /// checking it again.
    pub(crate) fn read(buf: &'a [u8]) -> IcmpMessage<'a> {
        let code = buf[1];
        let ident = u16::from_be_bytes([buf[4], buf[5]]);
        let seq = u16::from_be_bytes([buf[6], buf[7]]);
        let body = &buf[MIN_LEN..];
        match buf[0] {
            8 => IcmpMessage::EchoRequest { ident, seq, payload: body },
            0 => IcmpMessage::EchoReply { ident, seq, payload: body },
            3 => IcmpMessage::DestUnreachable { code, original: body },
            11 => IcmpMessage::TimeExceeded { code, original: body },
            t => IcmpMessage::Other { icmp_type: t, code, rest: &buf[4..] },
        }
    }

    /// Serializes the message, computing the checksum.
    #[cfg(test)]
    fn build(&self) -> Vec<u8> {
        let mut out = vec![0; self.wire_len()];
        self.write(&mut out);
        out
    }

    /// The serialized length.
    pub(crate) fn wire_len(&self) -> usize {
        match *self {
            IcmpMessage::EchoRequest { payload: body, .. }
            | IcmpMessage::EchoReply { payload: body, .. }
            | IcmpMessage::DestUnreachable { original: body, .. }
            | IcmpMessage::TimeExceeded { original: body, .. } => MIN_LEN + body.len(),
            // A `rest` shorter than the rest-of-header word is zero-padded.
            IcmpMessage::Other { rest, .. } => (4 + rest.len()).max(MIN_LEN),
        }
    }

    /// Writes the message into `out`, which is exactly
    /// [`IcmpMessage::wire_len`] zeroed bytes, computing the checksum.
    pub(crate) fn write(&self, out: &mut [u8]) {
        let echo = |out: &mut [u8], ident: u16, seq: u16| {
            out[4..6].copy_from_slice(&ident.to_be_bytes());
            out[6..8].copy_from_slice(&seq.to_be_bytes());
        };
        let (icmp_type, code, body_at, body) = match *self {
            IcmpMessage::EchoRequest { ident, seq, payload } => {
                echo(out, ident, seq);
                (8, 0, MIN_LEN, payload)
            }
            IcmpMessage::EchoReply { ident, seq, payload } => {
                echo(out, ident, seq);
                (0, 0, MIN_LEN, payload)
            }
            IcmpMessage::DestUnreachable { code, original } => (3, code, MIN_LEN, original),
            IcmpMessage::TimeExceeded { code, original } => (11, code, MIN_LEN, original),
            // `rest` already holds the rest-of-header word.
            IcmpMessage::Other { icmp_type, code, rest } => (icmp_type, code, 4, rest),
        };
        out[0] = icmp_type;
        out[1] = code;
        out[body_at..body_at + body.len()].copy_from_slice(body);
        let sum = checksum::checksum(out);
        out[2..4].copy_from_slice(&sum.to_be_bytes());
    }

    /// Builds the echo reply corresponding to an echo request.
    ///
    /// Returns `None` if `self` is not an echo request.
    #[must_use]
    pub fn reply_to(&self) -> Option<IcmpMessage<'a>> {
        match *self {
            IcmpMessage::EchoRequest { ident, seq, payload } => {
                Some(IcmpMessage::EchoReply { ident, seq, payload })
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
        let req = IcmpMessage::EchoRequest { ident: 77, seq: 3, payload: b"ping!" };
        let wire = req.build();
        assert_eq!(IcmpMessage::parse(&wire).unwrap(), req);
    }

    #[test]
    fn reply_mirrors_request() {
        let req = IcmpMessage::EchoRequest { ident: 5, seq: 9, payload: &[1, 2, 3] };
        let reply = req.reply_to().unwrap();
        match &reply {
            IcmpMessage::EchoReply { ident, seq, payload } => {
                assert_eq!(*ident, 5);
                assert_eq!(*seq, 9);
                assert_eq!(payload, &[1, 2, 3]);
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
            original: &[0x45, 0, 0, 28],
        };
        let wire = msg.build();
        assert_eq!(wire[0], 3);
        assert_eq!(wire[1], 13);
        assert_eq!(IcmpMessage::parse(&wire).unwrap(), msg);
    }

    #[test]
    fn time_exceeded_roundtrip() {
        let msg = IcmpMessage::TimeExceeded { code: 0, original: &[9; 28] };
        assert_eq!(IcmpMessage::parse(&msg.build()).unwrap(), msg);
    }

    #[test]
    fn other_type_preserved() {
        let msg = IcmpMessage::Other { icmp_type: 13, code: 0, rest: &[7; 16] };
        let wire = msg.build();
        assert_eq!(IcmpMessage::parse(&wire).unwrap(), msg);
    }

    #[test]
    fn other_type_short_rest_padded() {
        // A 2-byte rest is padded to the 8-byte minimum and still parses.
        let msg = IcmpMessage::Other { icmp_type: 40, code: 1, rest: &[0xaa, 0xbb] };
        let wire = msg.build();
        assert_eq!(wire.len(), MIN_LEN);
        match IcmpMessage::parse(&wire).unwrap() {
            IcmpMessage::Other { icmp_type, code, rest } => {
                assert_eq!(icmp_type, 40);
                assert_eq!(code, 1);
                assert_eq!(rest, [0xaa, 0xbb, 0, 0]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn corruption_detected() {
        let mut wire = IcmpMessage::EchoRequest { ident: 1, seq: 1, payload: &[] }.build();
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
