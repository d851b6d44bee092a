//! The owned packet type used throughout the honeyfarm.
//!
//! [`Packet`] couples a fully serialized IPv4 packet with its parsed
//! structure, so producers (workload generators, honeypot guests) construct
//! packets once and consumers (gateway, VMs, metrics) inspect them without
//! re-parsing. [`PacketBuilder`] provides ergonomic constructors for the
//! packet shapes the honeyfarm deals in: scan SYNs, handshake segments, UDP
//! datagrams (worm probes, DNS), and ICMP echoes.

use bytes::{BufferPool, Bytes, BytesMut};
use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};
use std::net::Ipv4Addr;

use crate::error::NetError;
use crate::flow::{FlowKey, Transport};
use crate::icmp::IcmpMessage;
use crate::ipv4::{IpProtocol, Ipv4Header};
use crate::tcp::{TcpFlags, TcpHeader};
use crate::udp::UdpHeader;

/// The parsed transport content of a packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PacketPayload {
    /// A TCP segment.
    Tcp {
        /// The TCP header.
        header: TcpHeader,
        /// The segment payload.
        payload: Bytes,
    },
    /// A UDP datagram.
    Udp {
        /// The UDP header.
        header: UdpHeader,
        /// The datagram payload.
        payload: Bytes,
    },
    /// An ICMP message.
    Icmp(IcmpMessage),
    /// An unparsed transport, kept raw.
    Raw {
        /// The IP protocol.
        protocol: IpProtocol,
        /// The raw transport bytes.
        payload: Bytes,
    },
}

/// An owned IPv4 packet: parsed view plus canonical wire bytes.
///
/// # Examples
///
/// ```
/// use potemkin_net::PacketBuilder;
/// use potemkin_net::Packet;
/// use std::net::Ipv4Addr;
///
/// let syn = PacketBuilder::new(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(10, 1, 0, 9))
///     .tcp_syn(4444, 445);
/// let wire = syn.wire().to_vec();
/// let reparsed = Packet::parse(&wire).unwrap();
/// assert_eq!(reparsed.flow_key(), syn.flow_key());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    ipv4: Ipv4Header,
    payload: PacketPayload,
    wire: Bytes,
}

/// The length-prefixed wire image; bytes that do not parse back into a
/// packet are a decode error.
impl Snap for Packet {
    fn snap(&self, w: &mut SnapWriter) {
        w.bytes(&self.wire);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Packet::parse(r.bytes()?).map_err(|_| r.bad())
    }
}

impl Packet {
    /// Parses an IPv4 packet (with transport) from wire bytes.
    ///
    /// Unknown transports are preserved raw; header checksums are verified.
    /// The wire bytes are copied exactly once: the parsed transport payload
    /// is a zero-copy slice of the owned wire buffer.
    pub fn parse(buf: &[u8]) -> Result<Packet, NetError> {
        let (ipv4, transport_bytes) = Ipv4Header::parse(buf)?;
        let total = ipv4.total_len as usize;
        let wire = Bytes::copy_from_slice(&buf[..total]);
        // TCP/UDP bodies are suffixes of the wire image, so their offset is
        // recoverable from their length alone.
        let payload = match ipv4.protocol {
            IpProtocol::Tcp => {
                let (header, body) = TcpHeader::parse(transport_bytes, ipv4.src, ipv4.dst)?;
                let payload = wire.slice(total - body.len()..);
                PacketPayload::Tcp { header, payload }
            }
            IpProtocol::Udp => {
                let (header, body) = UdpHeader::parse(transport_bytes, ipv4.src, ipv4.dst)?;
                let payload = wire.slice(total - body.len()..);
                PacketPayload::Udp { header, payload }
            }
            IpProtocol::Icmp => PacketPayload::Icmp(IcmpMessage::parse(transport_bytes)?),
            proto => PacketPayload::Raw {
                protocol: proto,
                payload: wire.slice(total - transport_bytes.len()..),
            },
        };
        Ok(Packet { ipv4, payload, wire })
    }

    /// The source address.
    #[must_use]
    pub fn src(&self) -> Ipv4Addr {
        self.ipv4.src
    }

    /// The destination address.
    #[must_use]
    pub fn dst(&self) -> Ipv4Addr {
        self.ipv4.dst
    }

    /// The parsed transport payload.
    #[must_use]
    pub fn payload(&self) -> &PacketPayload {
        &self.payload
    }

    /// The canonical wire encoding.
    #[must_use]
    pub fn wire(&self) -> &[u8] {
        &self.wire
    }

    /// Total length in bytes on the wire.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wire.len()
    }

    /// Whether the packet is empty (never: a parsed packet has a header).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The directional flow key of this packet.
    #[must_use]
    pub fn flow_key(&self) -> FlowKey {
        let transport = match &self.payload {
            PacketPayload::Tcp { header, .. } => {
                Transport::Tcp { src_port: header.src_port, dst_port: header.dst_port }
            }
            PacketPayload::Udp { header, .. } => {
                Transport::Udp { src_port: header.src_port, dst_port: header.dst_port }
            }
            PacketPayload::Icmp(msg) => Transport::Icmp {
                ident: match msg {
                    IcmpMessage::EchoRequest { ident, .. }
                    | IcmpMessage::EchoReply { ident, .. } => *ident,
                    _ => 0,
                },
            },
            PacketPayload::Raw { protocol, .. } => Transport::Other { protocol: protocol.value() },
        };
        FlowKey { src: self.ipv4.src, dst: self.ipv4.dst, transport }
    }

    /// The TCP flags if this is a TCP segment.
    #[must_use]
    pub fn tcp_flags(&self) -> Option<TcpFlags> {
        match &self.payload {
            PacketPayload::Tcp { header, .. } => Some(header.flags),
            _ => None,
        }
    }

    /// The application payload bytes (TCP/UDP body, ICMP echo payload, raw
    /// transport bytes).
    #[must_use]
    pub fn app_payload(&self) -> &[u8] {
        match &self.payload {
            PacketPayload::Tcp { payload, .. } | PacketPayload::Udp { payload, .. } => payload,
            PacketPayload::Icmp(IcmpMessage::EchoRequest { payload, .. })
            | PacketPayload::Icmp(IcmpMessage::EchoReply { payload, .. }) => payload,
            PacketPayload::Icmp(_) => &[],
            PacketPayload::Raw { payload, .. } => payload,
        }
    }

    /// Returns a copy of the packet with source and destination addresses
    /// (and the IP checksum) rewritten — the gateway's reflection primitive.
    ///
    /// Transport checksums are recomputed since they cover the pseudo-header.
    pub fn rewrite_addresses(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Result<Packet, NetError> {
        self.rewrite_with(src, dst, None)
    }

    /// [`Packet::rewrite_addresses`] with the wire buffer drawn from `pool` —
    /// the gateway's allocation-free reflection path.
    pub fn rewrite_addresses_pooled(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        pool: &BufferPool,
    ) -> Result<Packet, NetError> {
        self.rewrite_with(src, dst, Some(pool))
    }

    fn rewrite_with(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        pool: Option<&BufferPool>,
    ) -> Result<Packet, NetError> {
        let mut b = PacketBuilder::new(src, dst).ttl(self.ipv4.ttl).ident(self.ipv4.ident);
        if self.ipv4.dont_fragment {
            b = b.dont_fragment();
        }
        if let Some(pool) = pool {
            b = b.pooled(pool);
        }
        match &self.payload {
            PacketPayload::Tcp { header, payload } => Ok(b.tcp_raw(header.clone(), payload)),
            PacketPayload::Udp { header, payload } => {
                Ok(b.udp(header.src_port, header.dst_port, payload))
            }
            PacketPayload::Icmp(msg) => Ok(b.icmp(msg.clone())),
            PacketPayload::Raw { protocol, payload } => b.raw(*protocol, payload),
        }
    }
}

/// Fluent builder for [`Packet`].
///
/// # Examples
///
/// ```
/// use potemkin_net::PacketBuilder;
/// use std::net::Ipv4Addr;
///
/// let probe = PacketBuilder::new(Ipv4Addr::new(6, 6, 6, 6), Ipv4Addr::new(10, 1, 2, 3))
///     .ttl(100)
///     .udp(1434, 1434, b"slammer-probe");
/// assert_eq!(probe.wire()[8], 100, "the IPv4 TTL byte");
/// assert_eq!(probe.app_payload(), b"slammer-probe");
/// ```
#[derive(Clone, Debug)]
pub struct PacketBuilder {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    ttl: u8,
    ident: u16,
    dont_fragment: bool,
    pool: Option<BufferPool>,
}

/// Wire buffer under construction: freshly allocated or drawn from a pool.
enum WireBuf {
    Plain(Vec<u8>),
    Pooled(BytesMut),
}

impl WireBuf {
    fn vec_mut(&mut self) -> &mut Vec<u8> {
        match self {
            WireBuf::Plain(v) => v,
            WireBuf::Pooled(m) => m.as_vec_mut(),
        }
    }

    fn len(&self) -> usize {
        match self {
            WireBuf::Plain(v) => v.len(),
            WireBuf::Pooled(m) => m.len(),
        }
    }

    fn freeze(self) -> Bytes {
        match self {
            WireBuf::Plain(v) => Bytes::from(v),
            WireBuf::Pooled(m) => m.freeze(),
        }
    }
}

impl PacketBuilder {
    /// Starts a builder for a packet from `src` to `dst`.
    #[must_use]
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        PacketBuilder { src, dst, ttl: 64, ident: 0, dont_fragment: false, pool: None }
    }

    /// Draws the wire buffer from `pool` instead of allocating, so the built
    /// packet's storage recycles when its last clone drops.
    #[must_use]
    pub fn pooled(mut self, pool: &BufferPool) -> Self {
        self.pool = Some(pool.clone());
        self
    }

    fn wire_buf(&self, capacity: usize) -> WireBuf {
        match &self.pool {
            Some(pool) => WireBuf::Pooled(pool.acquire(capacity)),
            None => WireBuf::Plain(Vec::with_capacity(capacity)),
        }
    }

    /// Sets the TTL (default 64).
    #[must_use]
    pub fn ttl(mut self, ttl: u8) -> Self {
        self.ttl = ttl;
        self
    }

    /// Sets the IP identification field (default 0).
    #[must_use]
    pub fn ident(mut self, ident: u16) -> Self {
        self.ident = ident;
        self
    }

    /// Sets the don't-fragment flag.
    #[must_use]
    pub(crate) fn dont_fragment(mut self) -> Self {
        self.dont_fragment = true;
        self
    }

    fn ipv4_header(&self, protocol: IpProtocol) -> Ipv4Header {
        Ipv4Header {
            src: self.src,
            dst: self.dst,
            protocol,
            ttl: self.ttl,
            ident: self.ident,
            dont_fragment: self.dont_fragment,
            total_len: 0, // Filled when built.
            header_len: 20,
        }
    }

    /// Seals a fully serialized wire buffer into a [`Packet`], exposing the
    /// application payload as a zero-copy suffix slice of the wire bytes.
    fn finish(
        mut ipv4: Ipv4Header,
        wire: WireBuf,
        payload_len: usize,
        make: impl FnOnce(Bytes) -> PacketPayload,
    ) -> Packet {
        ipv4.total_len = wire.len() as u16;
        let wire = wire.freeze();
        let payload = make(wire.slice(wire.len() - payload_len..));
        Packet { ipv4, payload, wire }
    }

    /// Builds a TCP segment from an explicit header.
    ///
    /// The segment is serialized exactly once, directly into the wire
    /// buffer; the stored payload is a refcounted slice of it.
    #[must_use]
    pub(crate) fn tcp_raw(self, header: TcpHeader, payload: &[u8]) -> Packet {
        let transport_len = crate::tcp::MIN_HEADER_LEN + header.options.len() + payload.len();
        let ipv4 = self.ipv4_header(IpProtocol::Tcp);
        let mut wire = self.wire_buf(crate::ipv4::MIN_HEADER_LEN + transport_len);
        ipv4.build_prefix(transport_len, wire.vec_mut())
            .expect("builder-constructed packets never exceed IP limits");
        header
            .build_into(self.src, self.dst, payload, wire.vec_mut())
            .expect("builder-validated TCP header");
        Self::finish(ipv4, wire, payload.len(), |payload| PacketPayload::Tcp { header, payload })
    }

    /// Builds a bare SYN — the telescope's bread and butter.
    #[must_use]
    pub fn tcp_syn(self, src_port: u16, dst_port: u16) -> Packet {
        self.tcp_segment(src_port, dst_port, TcpFlags::SYN, 0, 0, &[])
    }

    /// Builds a TCP segment with the given flags, sequence numbers, and
    /// payload.
    #[must_use]
    pub fn tcp_segment(
        self,
        src_port: u16,
        dst_port: u16,
        flags: TcpFlags,
        seq: u32,
        ack: u32,
        payload: &[u8],
    ) -> Packet {
        let header =
            TcpHeader { src_port, dst_port, seq, ack, flags, window: 65_535, options: vec![] };
        self.tcp_raw(header, payload)
    }

    /// Builds a UDP datagram, serialized once into the wire buffer.
    #[must_use]
    pub fn udp(self, src_port: u16, dst_port: u16, payload: &[u8]) -> Packet {
        let transport_len = crate::udp::HEADER_LEN + payload.len();
        let ipv4 = self.ipv4_header(IpProtocol::Udp);
        let mut wire = self.wire_buf(crate::ipv4::MIN_HEADER_LEN + transport_len);
        ipv4.build_prefix(transport_len, wire.vec_mut())
            .expect("builder-constructed packets never exceed IP limits");
        UdpHeader::build_into(src_port, dst_port, self.src, self.dst, payload, wire.vec_mut())
            .expect("builder-validated UDP datagram");
        let header = UdpHeader { src_port, dst_port, length: transport_len as u16 };
        Self::finish(ipv4, wire, payload.len(), |payload| PacketPayload::Udp { header, payload })
    }

    /// Builds an ICMP packet from a message.
    #[must_use]
    pub fn icmp(self, msg: IcmpMessage) -> Packet {
        let transport = msg.build();
        let mut ipv4 = self.ipv4_header(IpProtocol::Icmp);
        let mut wire = self.wire_buf(crate::ipv4::MIN_HEADER_LEN + transport.len());
        ipv4.build_prefix(transport.len(), wire.vec_mut())
            .expect("builder-constructed packets never exceed IP limits");
        wire.vec_mut().extend_from_slice(&transport);
        ipv4.total_len = wire.len() as u16;
        Packet { ipv4, payload: PacketPayload::Icmp(msg), wire: wire.freeze() }
    }

    /// Builds an ICMP echo request.
    #[must_use]
    pub fn icmp_echo(self, ident: u16, seq: u16, payload: &[u8]) -> Packet {
        self.icmp(IcmpMessage::EchoRequest { ident, seq, payload: payload.to_vec() })
    }

    /// Builds a raw-transport packet.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidField`] if the payload exceeds IP limits.
    pub(crate) fn raw(self, protocol: IpProtocol, payload: &[u8]) -> Result<Packet, NetError> {
        let ipv4 = self.ipv4_header(protocol);
        let mut wire = self.wire_buf(crate::ipv4::MIN_HEADER_LEN + payload.len());
        ipv4.build_prefix(payload.len(), wire.vec_mut())?;
        wire.vec_mut().extend_from_slice(payload);
        Ok(Self::finish(ipv4, wire, payload.len(), |payload| PacketPayload::Raw {
            protocol,
            payload,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ATTACKER: Ipv4Addr = Ipv4Addr::new(6, 6, 6, 6);
    const HONEYPOT: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 5);

    #[test]
    fn syn_roundtrip() {
        let p = PacketBuilder::new(ATTACKER, HONEYPOT).tcp_syn(31_337, 445);
        let reparsed = Packet::parse(p.wire()).unwrap();
        assert_eq!(reparsed, p);
        assert_eq!(p.tcp_flags(), Some(TcpFlags::SYN));
        assert_eq!(p.flow_key().to_string(), "tcp 6.6.6.6:31337 -> 10.1.0.5:445");
    }

    #[test]
    fn udp_roundtrip_and_app_payload() {
        let p = PacketBuilder::new(ATTACKER, HONEYPOT).udp(1434, 1434, b"worm");
        assert_eq!(p.app_payload(), b"worm");
        let reparsed = Packet::parse(p.wire()).unwrap();
        assert_eq!(reparsed, p);
        assert_eq!(p.tcp_flags(), None);
    }

    #[test]
    fn icmp_echo_roundtrip() {
        let p = PacketBuilder::new(ATTACKER, HONEYPOT).icmp_echo(42, 1, b"ping");
        let reparsed = Packet::parse(p.wire()).unwrap();
        assert_eq!(reparsed, p);
        assert_eq!(p.app_payload(), b"ping");
        match p.flow_key().transport {
            Transport::Icmp { ident } => assert_eq!(ident, 42),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn raw_protocol_roundtrip() {
        let p =
            PacketBuilder::new(ATTACKER, HONEYPOT).raw(IpProtocol::Other(89), b"ospf-ish").unwrap();
        let reparsed = Packet::parse(p.wire()).unwrap();
        assert_eq!(reparsed, p);
        assert_eq!(p.app_payload(), b"ospf-ish");
    }

    #[test]
    fn builder_fields_propagate() {
        let p = PacketBuilder::new(ATTACKER, HONEYPOT)
            .ttl(33)
            .ident(0xbeef)
            .dont_fragment()
            .tcp_syn(1, 2);
        assert_eq!(p.ipv4.ttl, 33);
        assert_eq!(p.ipv4.ident, 0xbeef);
        assert!(p.ipv4.dont_fragment);
        let reparsed = Packet::parse(p.wire()).unwrap();
        assert_eq!(reparsed.ipv4.ttl, 33);
    }

    #[test]
    fn rewrite_addresses_preserves_transport() {
        let orig = PacketBuilder::new(ATTACKER, HONEYPOT).tcp_segment(
            5000,
            80,
            TcpFlags::PSH_ACK,
            1000,
            2000,
            b"GET / HTTP/1.0\r\n",
        );
        let victim = Ipv4Addr::new(10, 1, 7, 7);
        let internal = Ipv4Addr::new(10, 1, 0, 5);
        let reflected = orig.rewrite_addresses(internal, victim).unwrap();
        assert_eq!(reflected.src(), internal);
        assert_eq!(reflected.dst(), victim);
        assert_eq!(reflected.app_payload(), orig.app_payload());
        assert_eq!(reflected.tcp_flags(), orig.tcp_flags());
        // The rewritten packet is a valid wire packet (checksums fixed up).
        let reparsed = Packet::parse(reflected.wire()).unwrap();
        assert_eq!(reparsed.src(), internal);
    }

    #[test]
    fn rewrite_udp_and_icmp() {
        let udp = PacketBuilder::new(ATTACKER, HONEYPOT).udp(1, 2, b"xx");
        let r = udp.rewrite_addresses(HONEYPOT, ATTACKER).unwrap();
        assert!(Packet::parse(r.wire()).is_ok());

        let icmp = PacketBuilder::new(ATTACKER, HONEYPOT).icmp_echo(1, 1, b"p");
        let r2 = icmp.rewrite_addresses(HONEYPOT, ATTACKER).unwrap();
        assert!(Packet::parse(r2.wire()).is_ok());
    }

    #[test]
    fn flow_key_directionality() {
        let fwd = PacketBuilder::new(ATTACKER, HONEYPOT).tcp_syn(99, 445);
        let rev = PacketBuilder::new(HONEYPOT, ATTACKER).tcp_segment(
            445,
            99,
            TcpFlags::SYN_ACK,
            0,
            1,
            &[],
        );
        assert_ne!(fwd.flow_key(), rev.flow_key());
        assert_eq!(fwd.flow_key().canonical(), rev.flow_key().canonical());
    }

    fn assert_payload_in_wire(p: &Packet) {
        let wire = p.wire().as_ptr_range();
        let pay = p.app_payload().as_ptr_range();
        assert!(
            pay.start >= wire.start && pay.end <= wire.end,
            "payload must be a zero-copy slice of the wire buffer"
        );
    }

    #[test]
    fn built_payloads_are_slices_of_the_wire() {
        assert_payload_in_wire(&PacketBuilder::new(ATTACKER, HONEYPOT).tcp_segment(
            5000,
            80,
            TcpFlags::PSH_ACK,
            1,
            2,
            b"body",
        ));
        assert_payload_in_wire(&PacketBuilder::new(ATTACKER, HONEYPOT).udp(7, 7, b"datagram"));
        assert_payload_in_wire(
            &PacketBuilder::new(ATTACKER, HONEYPOT).raw(IpProtocol::Other(89), b"raw").unwrap(),
        );
    }

    #[test]
    fn parsed_payloads_are_slices_of_the_wire() {
        for p in [
            PacketBuilder::new(ATTACKER, HONEYPOT).tcp_segment(1, 2, TcpFlags::PSH_ACK, 1, 2, b"x"),
            PacketBuilder::new(ATTACKER, HONEYPOT).udp(1, 2, b"yy"),
            PacketBuilder::new(ATTACKER, HONEYPOT).raw(IpProtocol::Other(89), b"zzz").unwrap(),
        ] {
            let reparsed = Packet::parse(p.wire()).unwrap();
            assert_eq!(reparsed, p);
            assert_payload_in_wire(&reparsed);
        }
    }

    #[test]
    fn clone_shares_the_wire_allocation() {
        let p = PacketBuilder::new(ATTACKER, HONEYPOT).udp(1434, 1434, b"slammer");
        let q = p.clone();
        assert_eq!(p.wire().as_ptr(), q.wire().as_ptr(), "clone must not deep-copy the wire");
        assert_eq!(p, q);
    }

    #[test]
    fn pooled_builder_recycles_wire_buffers() {
        let pool = BufferPool::with_config(16);
        for i in 0..50u16 {
            let p = PacketBuilder::new(ATTACKER, HONEYPOT).pooled(&pool).ident(i).tcp_segment(
                5000,
                445,
                TcpFlags::PSH_ACK,
                7,
                9,
                b"probe-body",
            );
            assert_eq!(p.ipv4.ident, i);
            assert_eq!(p.app_payload(), b"probe-body");
            assert_payload_in_wire(&p);
            let reflected = p.rewrite_addresses_pooled(HONEYPOT, ATTACKER, &pool).unwrap();
            assert_eq!(Packet::parse(reflected.wire()).unwrap(), reflected);
        }
        let stats = pool.stats();
        assert_eq!(stats.acquires, 100, "one builder + one rewrite per round");
        assert_eq!(stats.allocated, 2, "steady state holds one buffer per live packet");
        assert_eq!(stats.acquires, stats.allocated + stats.reused);
    }

    #[test]
    fn pooled_and_plain_packets_are_byte_identical() {
        let pool = BufferPool::new();
        let plain = PacketBuilder::new(ATTACKER, HONEYPOT).udp(1434, 1434, b"slammer");
        let pooled =
            PacketBuilder::new(ATTACKER, HONEYPOT).pooled(&pool).udp(1434, 1434, b"slammer");
        assert_eq!(plain, pooled);
        assert_eq!(plain.wire(), pooled.wire());
    }

    #[test]
    fn corrupt_wire_rejected() {
        let p = PacketBuilder::new(ATTACKER, HONEYPOT).tcp_syn(1, 2);
        let mut w = p.wire().to_vec();
        w[25] ^= 0xff; // flip a TCP header byte
        assert!(Packet::parse(&w).is_err());
    }
}
