//! The gateway's controlled DNS resolver.
//!
//! Malware frequently resolves names (command-and-control hosts, mail
//! exchangers, update servers) before doing anything observable. Refusing
//! resolution destroys fidelity; forwarding queries to real resolvers leaks
//! information and enables DNS-based attacks. Potemkin's gateway therefore
//! answers queries itself: every name deterministically resolves to an
//! address inside a reserved *sinkhole* prefix, and later connections to
//! that address are reflected into the farm like any other outbound traffic
//! — so a bot that resolves its C&C host and connects ends up talking to a
//! honeypot impersonating the C&C server.

use core::fmt;
use std::collections::HashMap;
use std::net::Ipv4Addr;

use potemkin_net::addr::Ipv4Prefix;
use potemkin_net::dns::{DnsMessage, DNS_PORT, TYPE_A};
use potemkin_net::{Packet, PacketBuilder, PacketPayload};
use potemkin_snapshot::{Snap, SnapshotError};

/// Why the sinkhole could not produce an address for a name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SinkholeError {
    /// Every address in the sinkhole prefix is already bound to a name
    /// (or the prefix is empty): there is nothing left to hand out.
    Exhausted,
}

impl fmt::Display for SinkholeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinkholeError::Exhausted => write!(f, "sinkhole prefix exhausted"),
        }
    }
}

impl std::error::Error for SinkholeError {}

/// The TTL of every answer, in seconds.
const ANSWER_TTL: u32 = 300;

/// The controlled resolver.
pub struct DnsProxy {
    sinkhole: Ipv4Prefix,
    /// name → sinkhole address (stable for the farm's lifetime).
    forward: HashMap<String, Ipv4Addr>,
    /// sinkhole address → name (for attribution in reports).
    reverse: HashMap<Ipv4Addr, String>,
}

impl DnsProxy {
    /// Creates a resolver answering out of `sinkhole`.
    #[must_use]
    pub fn new(sinkhole: Ipv4Prefix) -> Self {
        DnsProxy { sinkhole, forward: HashMap::new(), reverse: HashMap::new() }
    }

    /// The deterministic sinkhole address for `name` (FNV-1a over the name,
    /// folded into the prefix).
    ///
    /// # Errors
    ///
    /// Returns [`SinkholeError::Exhausted`] when every address in the
    /// prefix is already bound (or the prefix is empty) — the probe loop
    /// would otherwise never terminate.
    fn addr_for(&mut self, name: &str) -> Result<Ipv4Addr, SinkholeError> {
        if let Some(&a) = self.forward.get(name) {
            return Ok(a);
        }
        let len = self.sinkhole.len();
        if len == 0 || self.reverse.len() as u64 >= len {
            return Err(SinkholeError::Exhausted);
        }
        let h = potemkin_snapshot::fnv1a64(name.as_bytes());
        // Linear-probe within the prefix on (astronomically unlikely)
        // collision so the reverse map stays injective; a free slot exists
        // because the exhaustion check above passed.
        let mut idx = h % len;
        let addr = loop {
            match self.sinkhole.addr_at(idx) {
                Some(candidate) if !self.reverse.contains_key(&candidate) => break candidate,
                Some(_) => idx = (idx + 1) % len,
                None => return Err(SinkholeError::Exhausted),
            }
        };
        self.forward.insert(name.to_string(), addr);
        self.reverse.insert(addr, name.to_string());
        Ok(addr)
    }

    /// Whether a UDP packet is a DNS query the proxy should answer.
    #[must_use]
    pub(crate) fn is_dns_query(packet: &Packet) -> bool {
        match packet.payload() {
            PacketPayload::Udp { header, payload } => {
                header.dst_port == DNS_PORT
                    && DnsMessage::parse(payload).is_ok_and(|m| !m.is_response)
            }
            _ => false,
        }
    }

    /// Answers an outbound DNS query with a sinkhole address, returning the
    /// fully-formed response packet addressed back to the querying VM.
    ///
    /// Returns `None` if the packet is not a parseable DNS query.
    pub(crate) fn answer(&mut self, query_packet: &Packet) -> Option<Packet> {
        let PacketPayload::Udp { header, payload } = query_packet.payload() else {
            return None;
        };
        if header.dst_port != DNS_PORT {
            return None;
        }
        let query = DnsMessage::parse(payload).ok()?;
        if query.is_response {
            return None;
        }
        let answer_addr = match query.questions.first() {
            // An exhausted sinkhole answers NXDOMAIN-style (no address)
            // rather than panicking: fidelity degrades, containment holds.
            Some(q) if q.qtype == TYPE_A => self.addr_for(&q.name).ok(),
            _ => None,
        };
        let response = DnsMessage::respond(&query, answer_addr, ANSWER_TTL);
        let wire = response.build().ok()?;
        Some(PacketBuilder::new(query_packet.dst(), query_packet.src()).udp(
            DNS_PORT,
            header.src_port,
            &wire,
        ))
    }

    /// The name previously resolved to `addr`, if any — attribution for
    /// connections hitting the sinkhole.
    #[must_use]
    pub fn name_for(&self, addr: Ipv4Addr) -> Option<&str> {
        self.reverse.get(&addr).map(String::as_str)
    }

    /// Whether `addr` is inside the sinkhole prefix.
    #[must_use]
    pub(crate) fn is_sinkhole_addr(&self, addr: Ipv4Addr) -> bool {
        self.sinkhole.contains(addr)
    }

    /// Number of distinct names resolved.
    #[cfg(test)]
    pub(crate) fn names_resolved(&self) -> usize {
        self.forward.len()
    }

    /// Checkpoint support: serializes the name table, in name order. The
    /// sinkhole prefix is not included — restore goes into a proxy freshly
    /// built from the same config, and the reverse map is rebuilt from the
    /// forward one.
    #[must_use]
    pub(crate) fn encode_state(&self) -> Vec<u8> {
        self.forward.to_bytes()
    }

    /// Restores state encoded by `DnsProxy::encode_state` into this proxy.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Decode`] on truncated or malformed input,
    /// including two names on one address; the proxy is left untouched in
    /// that case.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        const CONTEXT: &str = "gateway.dns";
        let forward = HashMap::<String, Ipv4Addr>::from_bytes(bytes, CONTEXT)?;
        let reverse: HashMap<Ipv4Addr, String> =
            forward.iter().map(|(name, &addr)| (addr, name.clone())).collect();
        if reverse.len() != forward.len() {
            return Err(SnapshotError::Decode { context: CONTEXT });
        }
        (self.forward, self.reverse) = (forward, reverse);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const VM_ADDR: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 5);
    const RESOLVER: Ipv4Addr = Ipv4Addr::new(8, 8, 8, 8);

    fn proxy() -> DnsProxy {
        DnsProxy::new("172.20.0.0/16".parse().unwrap())
    }

    fn query_packet(name: &str, id: u16) -> Packet {
        let q = DnsMessage::query_a(id, name).build().unwrap();
        PacketBuilder::new(VM_ADDR, RESOLVER).udp(3333, DNS_PORT, &q)
    }

    #[test]
    fn answers_with_stable_sinkhole_address() {
        let mut p = proxy();
        let reply = p.answer(&query_packet("c2.botnet.example", 7)).unwrap();
        // Reply goes back to the VM from the queried resolver address.
        assert_eq!(reply.src(), RESOLVER);
        assert_eq!(reply.dst(), VM_ADDR);
        let PacketPayload::Udp { header, payload } = reply.payload() else {
            panic!("not udp");
        };
        assert_eq!(header.src_port, DNS_PORT);
        assert_eq!(header.dst_port, 3333);
        let msg = DnsMessage::parse(payload).unwrap();
        assert_eq!(msg.id, 7);
        assert!(msg.is_response);
        let addr = msg.answers[0].addr().unwrap();
        assert!(p.is_sinkhole_addr(addr));
        // Same name resolves to the same address forever.
        let reply2 = p.answer(&query_packet("c2.botnet.example", 8)).unwrap();
        let PacketPayload::Udp { payload: p2, .. } = reply2.payload() else { panic!("not udp") };
        assert_eq!(DnsMessage::parse(p2).unwrap().answers[0].addr().unwrap(), addr);
        assert_eq!(p.names_resolved(), 1);
    }

    #[test]
    fn different_names_different_addresses() {
        let mut p = proxy();
        let a = {
            let r = p.answer(&query_packet("a.example", 1)).unwrap();
            let PacketPayload::Udp { payload, .. } = r.payload() else { panic!() };
            DnsMessage::parse(payload).unwrap().answers[0].addr().unwrap()
        };
        let b = {
            let r = p.answer(&query_packet("b.example", 2)).unwrap();
            let PacketPayload::Udp { payload, .. } = r.payload() else { panic!() };
            DnsMessage::parse(payload).unwrap().answers[0].addr().unwrap()
        };
        assert_ne!(a, b);
        assert_eq!(p.name_for(a), Some("a.example"));
        assert_eq!(p.name_for(b), Some("b.example"));
    }

    #[test]
    fn is_dns_query_detection() {
        let q = query_packet("x.example", 1);
        assert!(DnsProxy::is_dns_query(&q));
        // A non-53 UDP packet is not a query.
        let not_dns = PacketBuilder::new(VM_ADDR, RESOLVER).udp(3333, 80, b"hi");
        assert!(!DnsProxy::is_dns_query(&not_dns));
        // A TCP packet is not a UDP query.
        let tcp = PacketBuilder::new(VM_ADDR, RESOLVER).tcp_syn(1, DNS_PORT);
        assert!(!DnsProxy::is_dns_query(&tcp));
        // Garbage on port 53 is not a query.
        let garbage = PacketBuilder::new(VM_ADDR, RESOLVER).udp(3333, DNS_PORT, b"zz");
        assert!(!DnsProxy::is_dns_query(&garbage));
    }

    #[test]
    fn responses_and_garbage_not_answered() {
        let mut p = proxy();
        let garbage = PacketBuilder::new(VM_ADDR, RESOLVER).udp(3333, DNS_PORT, &[1, 2, 3]);
        assert!(p.answer(&garbage).is_none());
        // A response packet must not be re-answered.
        let q = DnsMessage::query_a(1, "x.example");
        let resp = DnsMessage::respond(&q, Some(Ipv4Addr::new(1, 2, 3, 4)), 60).build().unwrap();
        let resp_pkt = PacketBuilder::new(VM_ADDR, RESOLVER).udp(3333, DNS_PORT, &resp);
        assert!(p.answer(&resp_pkt).is_none());
        assert_eq!(p.names_resolved(), 0);
    }

    #[test]
    fn exhausted_sinkhole_answers_nxdomain_instead_of_panicking() {
        // A /32 sinkhole holds exactly one address.
        let mut p = DnsProxy::new("172.20.0.1/32".parse().unwrap());
        let first = p.answer(&query_packet("a.example", 1)).unwrap();
        let PacketPayload::Udp { payload, .. } = first.payload() else { panic!() };
        assert_eq!(DnsMessage::parse(payload).unwrap().answers.len(), 1);
        // The second distinct name finds the prefix full: it still gets a
        // well-formed response, just without an address.
        let second = p.answer(&query_packet("b.example", 2)).unwrap();
        let PacketPayload::Udp { payload, .. } = second.payload() else { panic!() };
        let msg = DnsMessage::parse(payload).unwrap();
        assert!(msg.is_response);
        assert!(msg.answers.is_empty());
        // The already-bound name keeps resolving.
        assert!(p.answer(&query_packet("a.example", 3)).is_some());
        assert_eq!(p.names_resolved(), 1);
    }

    #[test]
    fn a_checkpoint_with_two_names_on_one_address_is_refused() {
        let mut p = proxy();
        p.answer(&query_packet("a.example", 1)).unwrap();
        let restored = |bytes: &[u8]| {
            let mut q = proxy();
            q.restore_state(bytes).map(|()| q.names_resolved())
        };
        assert_eq!(restored(&p.encode_state()), Ok(1));
        let addr = p.forward["a.example"];
        let two: HashMap<String, Ipv4Addr> =
            [("a.example".to_string(), addr), ("b.example".to_string(), addr)].into();
        assert_eq!(
            restored(&two.to_bytes()),
            Err(SnapshotError::Decode { context: "gateway.dns" })
        );
    }

    #[test]
    fn addr_for_reports_exhaustion_as_typed_error() {
        let mut p = DnsProxy::new("172.20.0.1/32".parse().unwrap());
        assert!(p.addr_for("a.example").is_ok());
        assert_eq!(p.addr_for("b.example"), Err(SinkholeError::Exhausted));
    }
}
