//! The owned packet type used throughout the honeyfarm.
//!
//! A [`Packet`] is its validated IPv4 wire image and nothing else: parsing
//! checks every header and checksum once and keeps the bytes, and every
//! accessor afterwards reads its field from those bytes at a fixed offset,
//! borrowing rather than allocating. An image of up to `INLINE_CAPACITY`
//! bytes — every SYN, SYN/ACK, RST, ACK and worm probe a telescope storm
//! carries — lives inside the `Packet` itself; a larger one takes one
//! exact-size heap buffer. [`PacketBuilder`] serializes the packet shapes the
//! honeyfarm deals in (scan SYNs, handshake segments, UDP datagrams, ICMP
//! echoes) straight into that storage.

use core::fmt;
use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};
use std::net::Ipv4Addr;

use crate::error::NetError;
use crate::flow::{FlowKey, Transport};
use crate::icmp::IcmpMessage;
use crate::ipv4::{IpProtocol, Ipv4Header, MIN_HEADER_LEN};
use crate::tcp::{TcpFlags, TcpHeader};
use crate::udp::UdpHeader;

/// Wire images up to this many bytes live inside the [`Packet`]; a larger
/// one spills to the heap. 78 is what fits beside the length byte and the
/// variant tag in 80 bytes, and covers the 40-byte TCP control segments and
/// Code Red's 68-byte probe.
const INLINE_CAPACITY: usize = 78;

/// The transport content of a packet, borrowed from its wire image.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PacketPayload<'a> {
    /// A TCP segment.
    Tcp {
        /// The TCP header.
        header: TcpHeader<'a>,
        /// The segment payload.
        payload: &'a [u8],
    },
    /// A UDP datagram.
    Udp {
        /// The UDP header.
        header: UdpHeader,
        /// The datagram payload, ending at the UDP length field.
        payload: &'a [u8],
    },
    /// An ICMP message.
    Icmp(IcmpMessage<'a>),
    /// An unparsed transport, kept raw.
    Raw {
        /// The IP protocol.
        protocol: IpProtocol,
        /// The raw transport bytes.
        payload: &'a [u8],
    },
}

/// Where a packet's wire image lives.
#[derive(Clone)]
enum Wire {
    Inline { len: u8, bytes: [u8; INLINE_CAPACITY] },
    Spilled(Box<[u8]>),
}

/// An owned IPv4 packet: its validated wire image.
///
/// Two packets are equal when their wire bytes are.
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
#[derive(Clone)]
pub struct Packet {
    wire: Wire,
}

/// The length-prefixed wire image; bytes that do not parse back into a
/// packet are a decode error.
impl Snap for Packet {
    fn snap(&self, w: &mut SnapWriter) {
        w.bytes(self.wire());
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Packet::parse(r.bytes()?).map_err(|_| r.bad())
    }
}

impl PartialEq for Packet {
    fn eq(&self, other: &Packet) -> bool {
        self.wire() == other.wire()
    }
}

impl Eq for Packet {}

impl fmt::Debug for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Packet")
            .field("flow", &format_args!("{}", self.flow_key()))
            .field("payload", &self.payload())
            .finish()
    }
}

impl Packet {
    /// Parses an IPv4 packet (with transport) from wire bytes.
    ///
    /// Checks the version, IHL, IPv4 total length and header checksum, and
    /// for TCP, UDP and ICMP the transport's length fields and checksum;
    /// other transports are kept raw. Keeps the first `total_len` bytes:
    /// trailing link-layer padding is not part of the packet.
    pub fn parse(buf: &[u8]) -> Result<Packet, NetError> {
        let (ipv4, transport) = Ipv4Header::parse(buf)?;
        match ipv4.protocol {
            IpProtocol::Tcp => {
                TcpHeader::parse(transport, ipv4.src, ipv4.dst)?;
            }
            IpProtocol::Udp => {
                UdpHeader::parse(transport, ipv4.src, ipv4.dst)?;
            }
            IpProtocol::Icmp => {
                IcmpMessage::parse(transport)?;
            }
            _ => {}
        }
        let image = &buf[..usize::from(ipv4.total_len)];
        Ok(Packet::filled(image.len(), |wire| wire.copy_from_slice(image)))
    }

    /// A `len`-byte image, zeroed and then handed to `fill`.
    fn filled(len: usize, fill: impl FnOnce(&mut [u8])) -> Packet {
        let mut wire = match u8::try_from(len) {
            Ok(short) if len <= INLINE_CAPACITY => {
                Wire::Inline { len: short, bytes: [0; INLINE_CAPACITY] }
            }
            _ => Wire::Spilled(vec![0; len].into_boxed_slice()),
        };
        fill(match &mut wire {
            Wire::Inline { len, bytes } => &mut bytes[..usize::from(*len)],
            Wire::Spilled(bytes) => bytes,
        });
        Packet { wire }
    }

    /// The canonical wire encoding.
    #[must_use]
    pub fn wire(&self) -> &[u8] {
        match &self.wire {
            Wire::Inline { len, bytes } => &bytes[..usize::from(*len)],
            Wire::Spilled(bytes) => bytes,
        }
    }

    /// Total length in bytes on the wire.
    #[must_use]
    pub fn len(&self) -> usize {
        self.wire().len()
    }

    /// Whether the packet is empty (never: a parsed packet has a header).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The source address.
    #[must_use]
    pub fn src(&self) -> Ipv4Addr {
        let w = self.wire();
        Ipv4Addr::new(w[12], w[13], w[14], w[15])
    }

    /// The destination address.
    #[must_use]
    pub fn dst(&self) -> Ipv4Addr {
        let w = self.wire();
        Ipv4Addr::new(w[16], w[17], w[18], w[19])
    }

    fn protocol(&self) -> IpProtocol {
        IpProtocol::from_value(self.wire()[9])
    }

    /// The bytes after the IPv4 header (and its options).
    fn transport(&self) -> &[u8] {
        let w = self.wire();
        &w[usize::from(w[0] & 0x0f) * 4..]
    }

    /// The transport content, decoded from the wire image.
    #[must_use]
    pub fn payload(&self) -> PacketPayload<'_> {
        let transport = self.transport();
        match self.protocol() {
            IpProtocol::Tcp => {
                let (header, payload) = TcpHeader::read(transport);
                PacketPayload::Tcp { header, payload }
            }
            IpProtocol::Udp => {
                let (header, payload) = UdpHeader::read(transport);
                PacketPayload::Udp { header, payload }
            }
            IpProtocol::Icmp => PacketPayload::Icmp(IcmpMessage::read(transport)),
            protocol => PacketPayload::Raw { protocol, payload: transport },
        }
    }

    /// The directional flow key of this packet.
    #[must_use]
    pub fn flow_key(&self) -> FlowKey {
        let t = self.transport();
        let word = |at: usize| u16::from_be_bytes([t[at], t[at + 1]]);
        let transport = match self.protocol() {
            IpProtocol::Tcp => Transport::Tcp { src_port: word(0), dst_port: word(2) },
            IpProtocol::Udp => Transport::Udp { src_port: word(0), dst_port: word(2) },
            // Echo requests (8) and replies (0) carry an identifier.
            IpProtocol::Icmp => {
                Transport::Icmp { ident: if matches!(t[0], 0 | 8) { word(4) } else { 0 } }
            }
            protocol => Transport::Other { protocol: protocol.value() },
        };
        FlowKey { src: self.src(), dst: self.dst(), transport }
    }

    /// The TCP flags if this is a TCP segment.
    #[must_use]
    pub fn tcp_flags(&self) -> Option<TcpFlags> {
        (self.protocol() == IpProtocol::Tcp).then(|| TcpFlags::from_byte(self.transport()[13]))
    }

    /// The application payload bytes (TCP/UDP body, ICMP echo payload, raw
    /// transport bytes).
    #[must_use]
    pub fn app_payload(&self) -> &[u8] {
        match self.payload() {
            PacketPayload::Tcp { payload, .. }
            | PacketPayload::Udp { payload, .. }
            | PacketPayload::Raw { payload, .. }
            | PacketPayload::Icmp(
                IcmpMessage::EchoRequest { payload, .. } | IcmpMessage::EchoReply { payload, .. },
            ) => payload,
            PacketPayload::Icmp(_) => &[],
        }
    }

    /// Returns a copy of the packet with source and destination addresses
    /// (and the IP checksum) rewritten — the gateway's reflection primitive.
    ///
    /// Transport checksums are recomputed since they cover the pseudo-header.
    pub fn rewrite_addresses(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Result<Packet, NetError> {
        let (ipv4, _) = Ipv4Header::read(self.wire());
        let mut b = PacketBuilder::new(src, dst).ttl(ipv4.ttl).ident(ipv4.ident);
        if ipv4.dont_fragment {
            b = b.dont_fragment();
        }
        match self.payload() {
            PacketPayload::Tcp { header, payload } => Ok(b.tcp_raw(header, payload)),
            PacketPayload::Udp { header, payload } => {
                Ok(b.udp(header.src_port, header.dst_port, payload))
            }
            PacketPayload::Icmp(msg) => Ok(b.icmp(msg)),
            PacketPayload::Raw { protocol, payload } => b.raw(protocol, payload),
        }
    }
}

/// A no-op kept so that callers written for the retired wire-buffer pool
/// still compile: a packet's storage is its own, so there is nothing to
/// recycle. [`PacketBuilder::pooled`] accepts and ignores it.
#[derive(Clone, Copy, Debug, Default)]
pub struct BufferPool;

impl BufferPool {
    /// The (empty) pool.
    #[must_use]
    pub fn new() -> Self {
        BufferPool
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
}

impl PacketBuilder {
    /// Starts a builder for a packet from `src` to `dst`.
    #[must_use]
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr) -> Self {
        PacketBuilder { src, dst, ttl: 64, ident: 0, dont_fragment: false }
    }

    /// Returns the builder unchanged: see [`BufferPool`].
    #[must_use]
    pub fn pooled(self, _pool: &BufferPool) -> Self {
        self
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

    /// Serializes a packet whose `transport_len`-byte transport `fill`
    /// writes, behind a 20-byte IPv4 header.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidField`] if the packet would exceed 65 535
    /// bytes.
    fn build(
        &self,
        protocol: IpProtocol,
        transport_len: usize,
        fill: impl FnOnce(&mut [u8]),
    ) -> Result<Packet, NetError> {
        let total_len = u16::try_from(MIN_HEADER_LEN + transport_len)
            .map_err(|_| NetError::InvalidField { layer: "ipv4", what: "payload too large" })?;
        let ipv4 = Ipv4Header {
            src: self.src,
            dst: self.dst,
            protocol,
            ttl: self.ttl,
            ident: self.ident,
            dont_fragment: self.dont_fragment,
            total_len,
            header_len: MIN_HEADER_LEN as u8,
        };
        Ok(Packet::filled(usize::from(total_len), |wire| {
            let (header, transport) = wire.split_at_mut(MIN_HEADER_LEN);
            ipv4.write(header);
            fill(transport);
        }))
    }

    /// Builds a TCP segment from an explicit header.
    #[must_use]
    pub(crate) fn tcp_raw(self, header: TcpHeader<'_>, payload: &[u8]) -> Packet {
        let header_len = header.header_len().expect("builder-validated TCP header");
        self.build(IpProtocol::Tcp, header_len + payload.len(), |segment| {
            header.write(self.src, self.dst, payload, segment);
        })
        .expect("builder-constructed packets never exceed IP limits")
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
            TcpHeader { src_port, dst_port, seq, ack, flags, window: 65_535, options: &[] };
        self.tcp_raw(header, payload)
    }

    /// Builds a UDP datagram.
    #[must_use]
    pub fn udp(self, src_port: u16, dst_port: u16, payload: &[u8]) -> Packet {
        let len = crate::udp::HEADER_LEN + payload.len();
        self.build(IpProtocol::Udp, len, |datagram| {
            UdpHeader::write(src_port, dst_port, self.src, self.dst, payload, datagram);
        })
        .expect("builder-constructed packets never exceed IP limits")
    }

    /// Builds an ICMP packet from a message.
    #[must_use]
    pub fn icmp(self, msg: IcmpMessage<'_>) -> Packet {
        self.build(IpProtocol::Icmp, msg.wire_len(), |out| msg.write(out))
            .expect("builder-constructed packets never exceed IP limits")
    }

    /// Builds an ICMP echo request.
    #[must_use]
    pub fn icmp_echo(self, ident: u16, seq: u16, payload: &[u8]) -> Packet {
        self.icmp(IcmpMessage::EchoRequest { ident, seq, payload })
    }

    /// Builds a raw-transport packet.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidField`] if the payload exceeds IP limits.
    pub(crate) fn raw(self, protocol: IpProtocol, payload: &[u8]) -> Result<Packet, NetError> {
        self.build(protocol, payload.len(), |out| out.copy_from_slice(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ATTACKER: Ipv4Addr = Ipv4Addr::new(6, 6, 6, 6);
    const HONEYPOT: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 5);

    #[test]
    fn a_packet_is_at_most_80_bytes() {
        assert!(std::mem::size_of::<Packet>() <= 80, "{}", std::mem::size_of::<Packet>());
    }

    #[test]
    fn large_packets_spill_and_roundtrip() {
        let body = [0x5a; 200];
        let p = PacketBuilder::new(ATTACKER, HONEYPOT).udp(7, 7, &body);
        assert_eq!(p.len(), 228);
        assert!(matches!(p.wire, Wire::Spilled(_)));
        assert_eq!(p.app_payload(), &body[..]);
        assert_eq!(Packet::parse(p.wire()).unwrap(), p);
        let code_red = PacketBuilder::new(ATTACKER, HONEYPOT).tcp_segment(
            1025,
            80,
            TcpFlags::PSH_ACK,
            1,
            1,
            &[0; 28],
        );
        assert_eq!(code_red.len(), 68);
        assert!(matches!(code_red.wire, Wire::Inline { .. }));
    }

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
        let (ipv4, _) = Ipv4Header::parse(p.wire()).unwrap();
        assert_eq!(ipv4.ttl, 33);
        assert_eq!(ipv4.ident, 0xbeef);
        assert!(ipv4.dont_fragment);
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

    #[test]
    fn payloads_are_suffixes_of_the_wire() {
        for p in [
            PacketBuilder::new(ATTACKER, HONEYPOT).tcp_segment(1, 2, TcpFlags::PSH_ACK, 1, 2, b"x"),
            PacketBuilder::new(ATTACKER, HONEYPOT).udp(1, 2, b"yy"),
            PacketBuilder::new(ATTACKER, HONEYPOT).raw(IpProtocol::Other(89), b"zzz").unwrap(),
        ] {
            let reparsed = Packet::parse(p.wire()).unwrap();
            assert_eq!(reparsed, p);
            assert!(!p.app_payload().is_empty());
            assert!(reparsed.wire().ends_with(reparsed.app_payload()));
        }
    }

    #[test]
    fn corrupt_wire_rejected() {
        let p = PacketBuilder::new(ATTACKER, HONEYPOT).tcp_syn(1, 2);
        let mut w = p.wire().to_vec();
        w[25] ^= 0xff; // flip a TCP header byte
        assert!(Packet::parse(&w).is_err());
    }
}
