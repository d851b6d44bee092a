//! Property-based tests on the wire formats: build/parse roundtrips for
//! arbitrary field values, parse-never-panics on arbitrary bytes, that
//! every field a [`Packet`] reads from its wire image is what the header
//! validators decode from the same bytes, and that a mutated GRE frame or
//! DNS message is refused or decodes stably.

use proptest::prelude::*;

use potemkin::gateway::tunnel::{Telescope, TunnelEndpoint};
use potemkin::net::dns::DnsMessage;
use potemkin::net::gre::GreHeader;
use potemkin::net::icmp::IcmpMessage;
use potemkin::net::ipv4::{IpProtocol, Ipv4Header};
use potemkin::net::tcp::{TcpFlags, TcpHeader};
use potemkin::net::udp::UdpHeader;
use potemkin::net::{FlowKey, Packet, PacketBuilder, PacketPayload, Transport};
use std::net::Ipv4Addr;

fn arb_addr() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

/// The RFC 1071 checksum, for re-sealing a mutated IPv4 header so that the
/// mutation reaches the checks behind the header checksum.
fn internet_checksum(bytes: &[u8]) -> u16 {
    let mut sum: u32 = bytes
        .chunks(2)
        .map(|c| u32::from(u16::from_be_bytes([c[0], c.get(1).copied().unwrap_or(0)])))
        .sum();
    while sum >> 16 != 0 {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

/// A packet from one of the public builders, chosen by `shape`.
fn build(
    shape: u8,
    (src, dst): (Ipv4Addr, Ipv4Addr),
    (sport, dport): (u16, u16),
    (seq, ack, flag_bits, code): (u32, u32, u8, u8),
    payload: &[u8],
) -> Packet {
    let b = PacketBuilder::new(src, dst).ttl(code | 1).ident(sport ^ dport);
    match shape {
        0 => b.tcp_syn(sport, dport),
        1 => b.tcp_segment(sport, dport, TcpFlags::from_byte(flag_bits), seq, ack, payload),
        2 => b.udp(sport, dport, payload),
        3 => b.icmp_echo(sport, dport, payload),
        4 => b.icmp(IcmpMessage::EchoReply { ident: sport, seq: dport, payload }),
        5 => b.icmp(IcmpMessage::DestUnreachable { code, original: payload }),
        6 => b.icmp(IcmpMessage::TimeExceeded { code, original: payload }),
        7 => b.icmp(IcmpMessage::Other { icmp_type: flag_bits, code, rest: payload }),
        _ => b
            .udp(sport, dport, payload)
            .rewrite_addresses(dst, src)
            .expect("a built datagram rewrites"),
    }
}

/// Applies mutation `kind` to a valid encoding: a byte flip, a truncation,
/// a rewritten IHL, IPv4 total length, TCP data offset or UDP length, or
/// trailing link-layer padding. With `reseal`, the checksums are then made
/// to match again (a UDP one by zeroing it, "not computed"), so the
/// mutation reaches the checks that sit behind them.
fn mutate(wire: &mut Vec<u8>, kind: u8, at: u16, by: u8, reseal: bool) {
    let len = wire.len();
    let ihl = usize::from(wire[0] & 0x0f) * 4;
    let field = |wire: &mut Vec<u8>, at: usize, value: u16| {
        wire[at..at + 2].copy_from_slice(&value.to_be_bytes());
    };
    match kind {
        1 => wire[usize::from(at) % len] ^= by | 1,
        2 => wire.truncate(usize::from(at) % len),
        3 => wire[0] = 0x40 | (by & 0x0f),
        4 => field(wire, 2, (len as u16 + u16::from(by % 32)).wrapping_sub(16)),
        5 if wire[9] == 6 => wire[ihl + 12] = (by << 4) | (wire[ihl + 12] & 0x0f),
        6 if wire[9] == 17 => {
            field(wire, ihl + 4, ((len - ihl) as u16 + u16::from(by % 32)).wrapping_sub(16));
        }
        7 => wire.extend(std::iter::repeat_n(by, usize::from(by % 16))),
        _ => {}
    }
    if !reseal || wire.len() < 20 {
        return;
    }
    let ihl = (usize::from(wire[0] & 0x0f) * 4).clamp(20, wire.len());
    let end = usize::from(u16::from_be_bytes([wire[2], wire[3]])).min(wire.len()).max(ihl);
    match wire[9] {
        6 if end >= ihl + 20 => {
            wire[ihl + 16..ihl + 18].fill(0);
            let mut pseudo = wire[12..20].to_vec();
            pseudo.extend_from_slice(&[0, 6]);
            pseudo.extend_from_slice(&((end - ihl) as u16).to_be_bytes());
            pseudo.extend_from_slice(&wire[ihl..end]);
            let sum = internet_checksum(&pseudo);
            wire[ihl + 16..ihl + 18].copy_from_slice(&sum.to_be_bytes());
        }
        17 if end >= ihl + 8 => wire[ihl + 6..ihl + 8].fill(0),
        _ => {}
    }
    wire[10..12].fill(0);
    let sum = internet_checksum(&wire[..ihl]);
    wire[10..12].copy_from_slice(&sum.to_be_bytes());
}

/// `Packet::parse(bytes)` is a typed error, or a packet whose every
/// accessor equals what the header validators decode from `bytes`.
fn fields_match_validators(bytes: &[u8]) -> Result<(), TestCaseError> {
    let Ok(p) = Packet::parse(bytes) else { return Ok(()) };
    let (ip, transport) = Ipv4Header::parse(bytes).expect("Packet::parse accepted the header");
    let payload = match ip.protocol {
        IpProtocol::Tcp => {
            let (header, payload) =
                TcpHeader::parse(transport, ip.src, ip.dst).expect("accepted segment");
            PacketPayload::Tcp { header, payload }
        }
        IpProtocol::Udp => {
            let (header, payload) =
                UdpHeader::parse(transport, ip.src, ip.dst).expect("accepted datagram");
            PacketPayload::Udp { header, payload }
        }
        IpProtocol::Icmp => PacketPayload::Icmp(IcmpMessage::parse(transport).expect("accepted")),
        protocol => PacketPayload::Raw { protocol, payload: transport },
    };
    let (transport_key, flags, app): (Transport, Option<TcpFlags>, &[u8]) = match payload {
        PacketPayload::Tcp { header, payload } => (
            Transport::Tcp { src_port: header.src_port, dst_port: header.dst_port },
            Some(header.flags),
            payload,
        ),
        PacketPayload::Udp { header, payload } => {
            (Transport::Udp { src_port: header.src_port, dst_port: header.dst_port }, None, payload)
        }
        PacketPayload::Icmp(
            IcmpMessage::EchoRequest { ident, payload, .. }
            | IcmpMessage::EchoReply { ident, payload, .. },
        ) => (Transport::Icmp { ident }, None, payload),
        PacketPayload::Icmp(_) => (Transport::Icmp { ident: 0 }, None, &[]),
        PacketPayload::Raw { payload, .. } => {
            (Transport::Other { protocol: bytes[9] }, None, payload)
        }
    };
    prop_assert_eq!(p.wire(), &bytes[..usize::from(ip.total_len)]);
    prop_assert_eq!(p.len(), usize::from(ip.total_len));
    prop_assert_eq!(p.src(), ip.src);
    prop_assert_eq!(p.dst(), ip.dst);
    prop_assert_eq!(p.payload(), payload);
    prop_assert_eq!(p.flow_key(), FlowKey { src: ip.src, dst: ip.dst, transport: transport_key });
    prop_assert_eq!(p.tcp_flags(), flags);
    prop_assert_eq!(p.app_payload(), app);
    prop_assert_eq!(Packet::parse(p.wire()), Ok(p.clone()));
    let debug = format!("{p:?}");
    prop_assert!(debug.starts_with("Packet"));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]
    #[test]
    fn packet_fields_are_what_the_validators_read(
        shape in 0u8..9,
        addrs in (arb_addr(), arb_addr()),
        ports in (any::<u16>(), any::<u16>()),
        words in (any::<u32>(), any::<u32>(), any::<u8>(), any::<u8>()),
        payload in proptest::collection::vec(any::<u8>(), 0..120),
        mutation in (0u8..8, any::<u16>(), any::<u8>(), any::<bool>()),
    ) {
        let p = build(shape, addrs, ports, words, &payload);
        fields_match_validators(p.wire())?;
        prop_assert_eq!(Packet::parse(p.wire()), Ok(p.clone()));
        let (kind, at, by, reseal) = mutation;
        let mut wire = p.wire().to_vec();
        mutate(&mut wire, kind, at, by, reseal);
        fields_match_validators(&wire)?;
    }

    /// A tunneled frame with one byte flipped, cut short, or an inner
    /// length field rewritten is refused, or decapsulates to a key and
    /// packet that survive a second trip through the tunnel unchanged.
    #[test]
    fn a_mutated_gre_frame_is_refused_or_decapsulates_stably(
        key in any::<u32>(),
        shape in 0u8..9,
        addrs in (arb_addr(), arb_addr()),
        ports in (any::<u16>(), any::<u16>()),
        words in (any::<u32>(), any::<u32>(), any::<u8>(), any::<u8>()),
        payload in proptest::collection::vec(any::<u8>(), 0..120),
        mutation in (0u8..5, any::<u16>(), any::<u8>(), any::<bool>()),
    ) {
        let mut tunnel = TunnelEndpoint::new();
        tunnel.attach(Telescope { key, prefix: "10.0.0.0/8".parse().unwrap() }).unwrap();
        let p = build(shape, addrs, ports, words, &payload);
        let (kind, at, by, reseal) = mutation;
        let frame = match kind {
            0 | 1 => {
                let mut frame = GreHeader::encapsulate_ipv4(key, p.wire());
                let len = frame.len();
                match kind {
                    0 => frame[usize::from(at) % len] ^= by | 1,
                    _ => frame.truncate(usize::from(at) % len),
                }
                frame
            }
            // IPv4 total length, TCP data offset or UDP length.
            _ => {
                let mut inner = p.wire().to_vec();
                mutate(&mut inner, kind + 2, at, by, reseal);
                GreHeader::encapsulate_ipv4(key, &inner)
            }
        };
        if let Ok((k, packet)) = tunnel.decapsulate(&frame) {
            let again = GreHeader::encapsulate_ipv4(k, packet.wire());
            prop_assert_eq!(tunnel.decapsulate(&again), Ok((k, packet)));
        }
    }
}

proptest! {
    #[test]
    fn tcp_packet_roundtrips(
        src in arb_addr(),
        dst in arb_addr(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flag_bits in 0u8..64,
        ttl in 1u8..=255,
        ident in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let p = PacketBuilder::new(src, dst)
            .ttl(ttl)
            .ident(ident)
            .tcp_segment(sport, dport, TcpFlags::from_byte(flag_bits), seq, ack, &payload);
        let reparsed = Packet::parse(p.wire()).expect("own wire output must parse");
        prop_assert_eq!(&reparsed, &p);
        prop_assert_eq!(reparsed.app_payload(), &payload[..]);
        prop_assert_eq!(reparsed.src(), src);
        prop_assert_eq!(reparsed.dst(), dst);
    }

    #[test]
    fn udp_packet_roundtrips(
        src in arb_addr(),
        dst in arb_addr(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let p = PacketBuilder::new(src, dst).udp(sport, dport, &payload);
        let reparsed = Packet::parse(p.wire()).expect("own wire output must parse");
        prop_assert_eq!(&reparsed, &p);
    }

    #[test]
    fn icmp_echo_roundtrips(
        src in arb_addr(),
        dst in arb_addr(),
        ident in any::<u16>(),
        seq in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let p = PacketBuilder::new(src, dst).icmp_echo(ident, seq, &payload);
        prop_assert_eq!(Packet::parse(p.wire()).expect("must parse"), p);
    }

    #[test]
    fn address_rewrite_preserves_payload_and_validity(
        src in arb_addr(),
        dst in arb_addr(),
        new_src in arb_addr(),
        new_dst in arb_addr(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let p = PacketBuilder::new(src, dst).tcp_segment(
            1000, 80, TcpFlags::PSH_ACK, 1, 2, &payload,
        );
        let r = p.rewrite_addresses(new_src, new_dst).expect("rewrite works");
        prop_assert_eq!(r.src(), new_src);
        prop_assert_eq!(r.dst(), new_dst);
        prop_assert_eq!(r.app_payload(), p.app_payload());
        // The rewritten wire bytes are independently valid.
        prop_assert!(Packet::parse(r.wire()).is_ok());
    }

    #[test]
    fn packet_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Packet::parse(&bytes);
    }

    #[test]
    fn corrupting_any_byte_never_panics_and_usually_fails(
        flip_at in 0usize..40,
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let p = PacketBuilder::new(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8))
            .tcp_segment(1, 2, TcpFlags::SYN, 0, 0, &payload);
        let mut wire = p.wire().to_vec();
        let idx = flip_at % wire.len();
        wire[idx] ^= 0xff;
        // Must not panic; may or may not parse (some fields are slack).
        let _ = Packet::parse(&wire);
    }

    #[test]
    fn gre_roundtrips(key in proptest::option::of(any::<u32>()), payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let h = GreHeader { protocol: 0x0800, key };
        let wire = h.build(&payload);
        let (parsed, inner) = GreHeader::parse(&wire).expect("roundtrip");
        prop_assert_eq!(parsed, h);
        prop_assert_eq!(inner, &payload[..]);
    }

    #[test]
    fn gre_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = GreHeader::parse(&bytes);
    }

    #[test]
    fn icmp_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let _ = IcmpMessage::parse(&bytes);
    }

    #[test]
    fn tcp_parse_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
        src in arb_addr(),
        dst in arb_addr(),
    ) {
        let _ = TcpHeader::parse(&bytes, src, dst);
    }

    #[test]
    fn dns_parse_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = DnsMessage::parse(&bytes);
    }

    #[test]
    fn dns_query_roundtrips(
        id in any::<u16>(),
        labels in proptest::collection::vec("[a-z0-9]{1,16}", 1..5),
    ) {
        let name = labels.join(".");
        let q = DnsMessage::query_a(id, &name);
        let parsed = DnsMessage::parse(&q.build().expect("valid name")).expect("roundtrip");
        prop_assert_eq!(parsed, q);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40_000))]
    /// A query or response with one byte flipped, cut short, a question or
    /// answer count inflated, or a label length of its first name inflated
    /// is refused, or parses to a message that rebuilds and parses back to
    /// itself.
    #[test]
    fn a_mutated_dns_message_is_refused_or_rebuilds_to_itself(
        id in any::<u16>(),
        labels in proptest::collection::vec("[a-z0-9]{1,16}", 1..5),
        answer in proptest::option::of(arb_addr()),
        respond in any::<bool>(),
        mutation in (0u8..4, any::<u16>(), any::<u8>()),
    ) {
        let query = DnsMessage::query_a(id, &labels.join("."));
        let message = if respond { DnsMessage::respond(&query, answer, 300) } else { query };
        let mut wire = message.build().expect("valid name");
        let (kind, at, by) = mutation;
        let len = wire.len();
        match kind {
            0 => wire[usize::from(at) % len] ^= by | 1,
            1 => wire.truncate(usize::from(at) % len),
            2 => {
                let field = 4 + 2 * usize::from(at & 1);
                let count = u16::from_be_bytes([wire[field], wire[field + 1]]);
                let inflated = count.saturating_add(1 + u16::from(by % 4));
                wire[field..field + 2].copy_from_slice(&inflated.to_be_bytes());
            }
            _ => {
                let mut starts = vec![12];
                while let Some(&label) = starts.last().and_then(|&pos| wire.get(pos)).filter(|&&l| l != 0) {
                    starts.push(starts[starts.len() - 1] + 1 + usize::from(label));
                }
                starts.pop();
                let pos = starts[usize::from(at) % starts.len()];
                wire[pos] = wire[pos].wrapping_add(1 + by % 64);
            }
        }
        if let Ok(parsed) = DnsMessage::parse(&wire) {
            let rebuilt = parsed.build();
            prop_assert!(rebuilt.is_ok(), "{:?} parses but does not build: {:?}", parsed, rebuilt);
            prop_assert_eq!(DnsMessage::parse(&rebuilt.unwrap()), Ok(parsed));
        }
    }
}
