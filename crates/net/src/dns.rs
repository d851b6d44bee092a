//! A minimal DNS wire codec.
//!
//! Potemkin's containment policy treats DNS specially: a honeypot must be
//! able to resolve names (many worms look up their command-and-control hosts
//! before spreading, and fidelity suffers if resolution fails), but the
//! resolution must happen through the gateway's controlled resolver. The
//! gateway therefore parses outbound queries and synthesizes answers. This
//! module implements exactly the subset required: the 12-byte header, QNAME
//! encoding/decoding (no compression on encode, compression-pointer-aware on
//! decode), A questions, and A answers.

use std::net::Ipv4Addr;

use crate::error::NetError;

/// The standard DNS port.
pub const DNS_PORT: u16 = 53;

/// Record type A (host address).
pub const TYPE_A: u16 = 1;
/// Class IN (Internet).
pub(crate) const CLASS_IN: u16 = 1;

/// A DNS question.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Question {
    /// The queried name, dot-separated, without a trailing dot.
    pub name: String,
    /// Query type (1 = A).
    pub qtype: u16,
    /// Query class (1 = IN).
    pub(crate) qclass: u16,
}

/// A DNS resource record (answers only; we never emit authority/additional).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Answer {
    /// The owner name.
    pub(crate) name: String,
    /// Record type (1 = A).
    pub(crate) rtype: u16,
    /// Record class (1 = IN).
    pub(crate) rclass: u16,
    /// Time to live in seconds.
    pub(crate) ttl: u32,
    /// Record data (4 bytes for A).
    pub(crate) rdata: Vec<u8>,
}

impl Answer {
    /// Builds an A record.
    #[must_use]
    pub(crate) fn a(name: &str, addr: Ipv4Addr, ttl: u32) -> Answer {
        Answer {
            name: name.to_string(),
            rtype: TYPE_A,
            rclass: CLASS_IN,
            ttl,
            rdata: addr.octets().to_vec(),
        }
    }

    /// Interprets the rdata as an IPv4 address, if this is an A record.
    #[must_use]
    pub fn addr(&self) -> Option<Ipv4Addr> {
        if self.rtype == TYPE_A && self.rdata.len() == 4 {
            Some(Ipv4Addr::new(self.rdata[0], self.rdata[1], self.rdata[2], self.rdata[3]))
        } else {
            None
        }
    }
}

/// A DNS message (header + questions + answers).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DnsMessage {
    /// Transaction identifier.
    pub id: u16,
    /// True for responses, false for queries.
    pub is_response: bool,
    /// Recursion desired.
    pub(crate) recursion_desired: bool,
    /// Response code (0 = NOERROR, 3 = NXDOMAIN).
    pub(crate) rcode: u8,
    /// Questions.
    pub questions: Vec<Question>,
    /// Answers.
    pub answers: Vec<Answer>,
}

/// NXDOMAIN response code.
pub(crate) const RCODE_NXDOMAIN: u8 = 3;

impl DnsMessage {
    /// Builds an A query for `name`.
    #[must_use]
    pub fn query_a(id: u16, name: &str) -> DnsMessage {
        DnsMessage {
            id,
            is_response: false,
            recursion_desired: true,
            rcode: 0,
            questions: vec![Question { name: name.to_string(), qtype: TYPE_A, qclass: CLASS_IN }],
            answers: vec![],
        }
    }

    /// Builds the response to `query` answering with `addr` (or NXDOMAIN
    /// when `addr` is `None`).
    #[must_use]
    pub fn respond(query: &DnsMessage, addr: Option<Ipv4Addr>, ttl: u32) -> DnsMessage {
        let answers = match (&query.questions.first(), addr) {
            (Some(q), Some(a)) => vec![Answer::a(&q.name, a, ttl)],
            _ => vec![],
        };
        DnsMessage {
            id: query.id,
            is_response: true,
            recursion_desired: query.recursion_desired,
            rcode: if addr.is_some() { 0 } else { RCODE_NXDOMAIN },
            questions: query.questions.clone(),
            answers,
        }
    }

    fn encode_name(name: &str, out: &mut Vec<u8>) -> Result<(), NetError> {
        if name.len() > 253 {
            return Err(NetError::BadName);
        }
        for label in name.split('.') {
            if label.is_empty() || label.len() > 63 {
                return Err(NetError::BadName);
            }
            out.push(label.len() as u8);
            out.extend_from_slice(label.as_bytes());
        }
        out.push(0);
        Ok(())
    }

    fn decode_name(buf: &[u8], mut pos: usize) -> Result<(String, usize), NetError> {
        let mut name = String::new();
        let mut jumped = false;
        let mut end = pos;
        let mut hops = 0;
        loop {
            let len = *buf.get(pos).ok_or(NetError::BadName)? as usize;
            if len & 0xc0 == 0xc0 {
                // Compression pointer.
                let b2 = *buf.get(pos + 1).ok_or(NetError::BadName)? as usize;
                let target = ((len & 0x3f) << 8) | b2;
                if !jumped {
                    end = pos + 2;
                    jumped = true;
                }
                hops += 1;
                if hops > 16 || target >= buf.len() {
                    return Err(NetError::BadName);
                }
                pos = target;
                continue;
            }
            if len == 0 {
                if !jumped {
                    end = pos + 1;
                }
                break;
            }
            if len > 63 {
                return Err(NetError::BadName);
            }
            // A label holding a dot has no dotted form.
            let label = buf.get(pos + 1..pos + 1 + len).filter(|l| !l.contains(&b'.'));
            let label = label.ok_or(NetError::BadName)?;
            if !name.is_empty() {
                name.push('.');
            }
            name.push_str(core::str::from_utf8(label).map_err(|_| NetError::BadName)?);
            pos += 1 + len;
            if name.len() > 253 {
                return Err(NetError::BadName);
            }
        }
        // The root name, "", does not build: refuse it here too.
        (!name.is_empty()).then_some((name, end)).ok_or(NetError::BadName)
    }

    /// Serializes the message to wire format (no compression).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::BadName`] for unencodable names.
    pub fn build(&self) -> Result<Vec<u8>, NetError> {
        let mut out = Vec::with_capacity(64);
        out.extend_from_slice(&self.id.to_be_bytes());
        let mut flags: u16 = 0;
        if self.is_response {
            flags |= 0x8000;
        }
        if self.recursion_desired {
            flags |= 0x0100;
        }
        flags |= u16::from(self.rcode & 0x0f);
        out.extend_from_slice(&flags.to_be_bytes());
        out.extend_from_slice(&(self.questions.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.answers.len() as u16).to_be_bytes());
        out.extend_from_slice(&0u16.to_be_bytes()); // NSCOUNT
        out.extend_from_slice(&0u16.to_be_bytes()); // ARCOUNT
        for q in &self.questions {
            Self::encode_name(&q.name, &mut out)?;
            out.extend_from_slice(&q.qtype.to_be_bytes());
            out.extend_from_slice(&q.qclass.to_be_bytes());
        }
        for a in &self.answers {
            Self::encode_name(&a.name, &mut out)?;
            out.extend_from_slice(&a.rtype.to_be_bytes());
            out.extend_from_slice(&a.rclass.to_be_bytes());
            out.extend_from_slice(&a.ttl.to_be_bytes());
            let rdlen = u16::try_from(a.rdata.len()).map_err(|_| NetError::BadName)?;
            out.extend_from_slice(&rdlen.to_be_bytes());
            out.extend_from_slice(&a.rdata);
        }
        Ok(out)
    }

    /// Parses a message from wire format.
    pub fn parse(buf: &[u8]) -> Result<DnsMessage, NetError> {
        if buf.len() < 12 {
            return Err(NetError::Truncated { layer: "dns", need: 12, have: buf.len() });
        }
        let id = u16::from_be_bytes([buf[0], buf[1]]);
        let flags = u16::from_be_bytes([buf[2], buf[3]]);
        let qdcount = u16::from_be_bytes([buf[4], buf[5]]) as usize;
        let ancount = u16::from_be_bytes([buf[6], buf[7]]) as usize;
        let mut pos = 12;
        let mut questions = Vec::with_capacity(qdcount);
        for _ in 0..qdcount {
            let (name, next) = Self::decode_name(buf, pos)?;
            pos = next;
            let rest = buf.get(pos..pos + 4).ok_or(NetError::Truncated {
                layer: "dns",
                need: pos + 4,
                have: buf.len(),
            })?;
            questions.push(Question {
                name,
                qtype: u16::from_be_bytes([rest[0], rest[1]]),
                qclass: u16::from_be_bytes([rest[2], rest[3]]),
            });
            pos += 4;
        }
        let mut answers = Vec::with_capacity(ancount);
        for _ in 0..ancount {
            let (name, next) = Self::decode_name(buf, pos)?;
            pos = next;
            let rest = buf.get(pos..pos + 10).ok_or(NetError::Truncated {
                layer: "dns",
                need: pos + 10,
                have: buf.len(),
            })?;
            let rtype = u16::from_be_bytes([rest[0], rest[1]]);
            let rclass = u16::from_be_bytes([rest[2], rest[3]]);
            let ttl = u32::from_be_bytes([rest[4], rest[5], rest[6], rest[7]]);
            let rdlen = u16::from_be_bytes([rest[8], rest[9]]) as usize;
            pos += 10;
            let rdata = buf.get(pos..pos + rdlen).ok_or(NetError::Truncated {
                layer: "dns",
                need: pos + rdlen,
                have: buf.len(),
            })?;
            answers.push(Answer { name, rtype, rclass, ttl, rdata: rdata.to_vec() });
            pos += rdlen;
        }
        Ok(DnsMessage {
            id,
            is_response: flags & 0x8000 != 0,
            recursion_desired: flags & 0x0100 != 0,
            rcode: (flags & 0x0f) as u8,
            questions,
            answers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_roundtrip() {
        let q = DnsMessage::query_a(0x1234, "www.example.com");
        let wire = q.build().unwrap();
        let parsed = DnsMessage::parse(&wire).unwrap();
        assert_eq!(parsed, q);
        assert!(!parsed.is_response);
        assert_eq!(parsed.questions[0].name, "www.example.com");
    }

    #[test]
    fn response_roundtrip_with_a_record() {
        let q = DnsMessage::query_a(7, "c2.evil.example");
        let r = DnsMessage::respond(&q, Some(Ipv4Addr::new(10, 99, 0, 5)), 300);
        let wire = r.build().unwrap();
        let parsed = DnsMessage::parse(&wire).unwrap();
        assert!(parsed.is_response);
        assert_eq!(parsed.id, 7);
        assert_eq!(parsed.rcode, 0);
        assert_eq!(parsed.answers.len(), 1);
        assert_eq!(parsed.answers[0].addr(), Some(Ipv4Addr::new(10, 99, 0, 5)));
        assert_eq!(parsed.answers[0].ttl, 300);
    }

    #[test]
    fn nxdomain_response() {
        let q = DnsMessage::query_a(9, "no.such.host");
        let r = DnsMessage::respond(&q, None, 60);
        assert_eq!(r.rcode, RCODE_NXDOMAIN);
        assert!(r.answers.is_empty());
        let parsed = DnsMessage::parse(&r.build().unwrap()).unwrap();
        assert_eq!(parsed.rcode, RCODE_NXDOMAIN);
    }

    #[test]
    fn names_that_do_not_build_are_refused_on_parse() {
        let mut wire = DnsMessage::query_a(4, "ab.cd").build().unwrap();
        wire[12] = 0;
        assert_eq!(DnsMessage::parse(&wire), Err(NetError::BadName), "the root name");
        wire[12] = 2;
        wire[14] = b'.';
        assert_eq!(DnsMessage::parse(&wire), Err(NetError::BadName), "\"a.\" is no label");
        wire[14] = b'b';
        assert!(DnsMessage::parse(&wire).is_ok());
    }

    #[test]
    fn compression_pointers_decoded() {
        // Hand-built response where the answer name is a pointer to the
        // question name at offset 12.
        let q = DnsMessage::query_a(1, "a.bc");
        let mut wire = q.build().unwrap();
        // Fix counts: one answer.
        wire[6..8].copy_from_slice(&1u16.to_be_bytes());
        wire.extend_from_slice(&[0xc0, 12]); // pointer to offset 12
        wire.extend_from_slice(&TYPE_A.to_be_bytes());
        wire.extend_from_slice(&CLASS_IN.to_be_bytes());
        wire.extend_from_slice(&60u32.to_be_bytes());
        wire.extend_from_slice(&4u16.to_be_bytes());
        wire.extend_from_slice(&[1, 2, 3, 4]);
        let parsed = DnsMessage::parse(&wire).unwrap();
        assert_eq!(parsed.answers[0].name, "a.bc");
        assert_eq!(parsed.answers[0].addr(), Some(Ipv4Addr::new(1, 2, 3, 4)));
    }

    #[test]
    fn pointer_loops_rejected() {
        let q = DnsMessage::query_a(1, "x.y");
        let mut wire = q.build().unwrap();
        wire[6..8].copy_from_slice(&1u16.to_be_bytes());
        let self_ptr = wire.len();
        // A pointer that points at itself loops forever unless bounded.
        wire.extend_from_slice(&[0xc0, self_ptr as u8]);
        wire.extend_from_slice(&[0; 10]);
        assert_eq!(DnsMessage::parse(&wire).unwrap_err(), NetError::BadName);
    }

    #[test]
    fn bad_names_rejected_on_encode() {
        assert!(DnsMessage::query_a(1, "").build().is_err());
        assert!(DnsMessage::query_a(1, "a..b").build().is_err());
        let long_label = "x".repeat(64);
        assert!(DnsMessage::query_a(1, &long_label).build().is_err());
        let long_name = ["abcdefgh"; 40].join(".");
        assert!(DnsMessage::query_a(1, &long_name).build().is_err());
    }

    #[test]
    fn truncated_messages_rejected() {
        assert!(DnsMessage::parse(&[0; 5]).is_err());
        let q = DnsMessage::query_a(3, "host.example").build().unwrap();
        assert!(DnsMessage::parse(&q[..q.len() - 3]).is_err());
    }

    #[test]
    fn non_a_answer_has_no_addr() {
        let ans =
            Answer { name: "x".into(), rtype: 16, rclass: 1, ttl: 0, rdata: vec![1, 2, 3, 4] };
        assert_eq!(ans.addr(), None);
        let short = Answer { name: "x".into(), rtype: TYPE_A, rclass: 1, ttl: 0, rdata: vec![1] };
        assert_eq!(short.addr(), None);
    }
}
