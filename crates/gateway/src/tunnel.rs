//! GRE tunnel endpoints.
//!
//! Telescope operators redirect their unused prefixes to the honeyfarm by
//! tunneling traffic over GRE. The gateway terminates one tunnel per
//! telescope; the key field identifies the telescope so the farm can
//! attribute traffic and return replies down the right tunnel.

use std::collections::BTreeMap;

use potemkin_net::addr::Ipv4Prefix;
use potemkin_net::gre::{self, GreHeader};
use potemkin_net::{NetError, Packet};
use potemkin_snapshot::{snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

use crate::error::GatewayError;

/// A telescope feeding the farm: a prefix and its tunnel key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Telescope {
    /// The tunnel key identifying this telescope.
    pub key: u32,
    /// The delegated prefix.
    pub prefix: Ipv4Prefix,
}

/// Per-tunnel statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TunnelStats {
    /// Packets decapsulated from this tunnel.
    pub packets_in: u64,
    /// Bytes (inner) decapsulated.
    pub bytes_in: u64,
    /// Packets encapsulated back down this tunnel.
    pub packets_out: u64,
    /// Decapsulation errors.
    pub errors: u64,
}

snap_struct!(TunnelStats { packets_in, bytes_in, packets_out, errors });

/// The gateway's tunnel terminator.
pub struct TunnelEndpoint {
    telescopes: BTreeMap<u32, Telescope>,
    stats: BTreeMap<u32, TunnelStats>,
    /// Decapsulation failures that could not be charged to a tunnel:
    /// unparseable GRE, keyless frames, unknown keys. Separate from
    /// [`TunnelStats::errors`] so a flood of garbage frames is visible even
    /// when no telescope matches.
    unattributed_errors: u64,
}

impl Default for TunnelEndpoint {
    fn default() -> Self {
        Self::new()
    }
}

impl TunnelEndpoint {
    /// Creates an endpoint with no telescopes attached.
    #[must_use]
    pub fn new() -> Self {
        TunnelEndpoint {
            telescopes: BTreeMap::new(),
            stats: BTreeMap::new(),
            unattributed_errors: 0,
        }
    }

    /// Attaches a telescope. Returns the previous telescope on key
    /// collision (re-attaching a key replaces its advertisement).
    ///
    /// # Errors
    ///
    /// Returns [`GatewayError::OverlappingPrefix`] when the new prefix
    /// overlaps a telescope attached under a *different* key: two owners
    /// for one address would make longest-prefix routing ambiguous. The
    /// endpoint is left unchanged in that case.
    pub fn attach(&mut self, telescope: Telescope) -> Result<Option<Telescope>, GatewayError> {
        if let Some(existing) = self
            .telescopes
            .values()
            .find(|t| t.key != telescope.key && t.prefix.overlaps(telescope.prefix))
        {
            return Err(GatewayError::OverlappingPrefix {
                existing: *existing,
                rejected: telescope,
            });
        }
        Ok(self.telescopes.insert(telescope.key, telescope))
    }

    /// The telescope owning `addr`, if any.
    #[must_use]
    pub fn telescope_for(&self, addr: std::net::Ipv4Addr) -> Option<&Telescope> {
        self.telescopes.values().find(|t| t.prefix.contains(addr))
    }

    /// Total monitored addresses across all telescopes.
    #[must_use]
    pub fn monitored_addresses(&self) -> u64 {
        self.telescopes.values().map(|t| t.prefix.len()).sum()
    }

    /// Decapsulates a GRE frame arriving from a telescope router.
    ///
    /// Returns the telescope key and the inner packet.
    ///
    /// # Errors
    ///
    /// Returns a [`NetError`] for malformed GRE, unknown keys (treated as
    /// unsupported), or a bad inner packet. Errors are counted per-tunnel
    /// when the key is readable.
    pub fn decapsulate(&mut self, frame: &[u8]) -> Result<(u32, Packet), NetError> {
        let (gre_header, inner) = match GreHeader::parse(frame) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.unattributed_errors += 1;
                return Err(e);
            }
        };
        let Some(key) = gre_header.key else {
            self.unattributed_errors += 1;
            return Err(NetError::Unsupported {
                layer: "gre",
                what: "missing tunnel key",
                value: 0,
            });
        };
        if !self.telescopes.contains_key(&key) {
            self.unattributed_errors += 1;
            return Err(NetError::Unsupported {
                layer: "gre",
                what: "unknown tunnel key",
                value: key,
            });
        }
        let entry = self.stats.entry(key).or_default();
        if gre_header.protocol != gre::PROTO_IPV4 {
            entry.errors += 1;
            return Err(NetError::Unsupported {
                layer: "gre",
                what: "non-IPv4 payload",
                value: u32::from(gre_header.protocol),
            });
        }
        match Packet::parse(inner) {
            Ok(packet) => {
                entry.packets_in += 1;
                entry.bytes_in += packet.len() as u64;
                Ok((key, packet))
            }
            Err(e) => {
                entry.errors += 1;
                Err(e)
            }
        }
    }

    /// Encapsulates a reply packet for the telescope owning its destination.
    ///
    /// Returns `None` when no telescope owns the destination (the packet
    /// should egress natively).
    pub fn encapsulate_reply(&mut self, packet: &Packet) -> Option<Vec<u8>> {
        let telescope = self.telescopes.values().find(|t| t.prefix.contains(packet.dst()))?;
        let key = telescope.key;
        self.stats.entry(key).or_default().packets_out += 1;
        Some(GreHeader::encapsulate_ipv4(key, packet.wire()))
    }

    /// Statistics for one tunnel.
    #[must_use]
    pub fn stats(&self, key: u32) -> TunnelStats {
        self.stats.get(&key).copied().unwrap_or_default()
    }

    /// Decapsulation failures not attributable to any tunnel (garbage GRE,
    /// keyless frames, unknown keys).
    #[must_use]
    pub fn unattributed_errors(&self) -> u64 {
        self.unattributed_errors
    }

    /// Total decapsulation failures: per-tunnel plus unattributed.
    #[must_use]
    pub fn total_errors(&self) -> u64 {
        self.unattributed_errors + self.stats.values().map(|s| s.errors).sum::<u64>()
    }

    /// Checkpoint support: serializes the per-tunnel statistics and the
    /// unattributed-error count. Attached telescopes are configuration and
    /// are not included — restore goes into an endpoint with the same
    /// telescopes attached.
    #[must_use]
    pub fn encode_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.stats.snap(&mut w);
        w.u64(self.unattributed_errors);
        w.into_bytes()
    }

    /// Restores statistics encoded by [`TunnelEndpoint::encode_state`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Decode`] on truncated or malformed input;
    /// the endpoint is left untouched in that case.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapReader::new(bytes, "gateway.tunnel");
        let stats = Snap::unsnap(&mut r)?;
        let unattributed_errors = r.u64()?;
        r.finish()?;
        self.stats = stats;
        self.unattributed_errors = unattributed_errors;
        Ok(())
    }

    /// Number of attached telescopes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.telescopes.len()
    }

    /// Whether no telescope is attached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.telescopes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use potemkin_net::PacketBuilder;
    use std::net::Ipv4Addr;

    fn endpoint() -> TunnelEndpoint {
        let mut ep = TunnelEndpoint::new();
        ep.attach(Telescope { key: 1, prefix: "10.1.0.0/16".parse().unwrap() }).unwrap();
        ep.attach(Telescope { key: 2, prefix: "10.2.0.0/16".parse().unwrap() }).unwrap();
        ep
    }

    fn probe(dst: Ipv4Addr) -> Packet {
        PacketBuilder::new(Ipv4Addr::new(6, 6, 6, 6), dst).tcp_syn(4444, 445)
    }

    #[test]
    fn decap_roundtrip() {
        let mut ep = endpoint();
        let inner = probe(Ipv4Addr::new(10, 1, 0, 5));
        let frame = GreHeader::encapsulate_ipv4(1, inner.wire());
        let (key, packet) = ep.decapsulate(&frame).unwrap();
        assert_eq!(key, 1);
        assert_eq!(packet, inner);
        let s = ep.stats(1);
        assert_eq!(s.packets_in, 1);
        assert_eq!(s.bytes_in, inner.len() as u64);
    }

    #[test]
    fn unknown_key_rejected() {
        let mut ep = endpoint();
        let frame = GreHeader::encapsulate_ipv4(99, probe(Ipv4Addr::new(10, 1, 0, 5)).wire());
        assert!(matches!(
            ep.decapsulate(&frame).unwrap_err(),
            NetError::Unsupported { what: "unknown tunnel key", .. }
        ));
    }

    #[test]
    fn keyless_gre_rejected() {
        let mut ep = endpoint();
        let frame = GreHeader { protocol: gre::PROTO_IPV4, key: None }
            .build(probe(Ipv4Addr::new(10, 1, 0, 5)).wire());
        assert!(ep.decapsulate(&frame).is_err());
    }

    #[test]
    fn bad_inner_counted_as_error() {
        let mut ep = endpoint();
        let frame = GreHeader::encapsulate_ipv4(1, &[0xde, 0xad]);
        assert!(ep.decapsulate(&frame).is_err());
        assert_eq!(ep.stats(1).errors, 1);
        assert_eq!(ep.unattributed_errors(), 0, "key was readable: charged to tunnel 1");
        assert_eq!(ep.total_errors(), 1);
    }

    #[test]
    fn unattributable_failures_counted_separately() {
        let mut ep = endpoint();
        // Garbage GRE (truncated header).
        assert!(ep.decapsulate(&[0x20]).is_err());
        // Keyless frame.
        let keyless = GreHeader { protocol: gre::PROTO_IPV4, key: None }
            .build(probe(Ipv4Addr::new(10, 1, 0, 5)).wire());
        assert!(ep.decapsulate(&keyless).is_err());
        // Unknown key.
        let unknown = GreHeader::encapsulate_ipv4(99, probe(Ipv4Addr::new(10, 1, 0, 5)).wire());
        assert!(ep.decapsulate(&unknown).is_err());
        assert_eq!(ep.unattributed_errors(), 3);
        assert_eq!(ep.stats(1).errors, 0);
        assert_eq!(ep.total_errors(), 3);
    }

    #[test]
    fn stats_state_round_trips() {
        let mut ep = endpoint();
        let inner = probe(Ipv4Addr::new(10, 1, 0, 5));
        ep.decapsulate(&GreHeader::encapsulate_ipv4(1, inner.wire())).unwrap();
        ep.encapsulate_reply(&probe(Ipv4Addr::new(10, 2, 3, 4))).unwrap();
        assert!(ep.decapsulate(&[0x20]).is_err());
        let bytes = ep.encode_state();
        let mut restored = endpoint();
        restored.restore_state(&bytes).unwrap();
        assert_eq!(restored.encode_state(), bytes, "re-encode must be bit-identical");
        assert_eq!(restored.stats(1), ep.stats(1));
        assert_eq!(restored.stats(2), ep.stats(2));
        assert_eq!(restored.unattributed_errors(), 1);
        for cut in [0, 1, bytes.len() - 1] {
            let mut r = endpoint();
            assert!(r.restore_state(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn reply_goes_down_owning_tunnel() {
        let mut ep = endpoint();
        let reply = probe(Ipv4Addr::new(10, 2, 3, 4)); // dst in telescope 2
        let frame = ep.encapsulate_reply(&reply).unwrap();
        let (header, inner) = GreHeader::parse(&frame).unwrap();
        assert_eq!(header.key, Some(2));
        assert_eq!(inner, reply.wire());
        assert_eq!(ep.stats(2).packets_out, 1);
    }

    #[test]
    fn reply_to_unowned_address_egresses_natively() {
        let mut ep = endpoint();
        assert!(ep.encapsulate_reply(&probe(Ipv4Addr::new(8, 8, 8, 8))).is_none());
    }

    #[test]
    fn overlapping_prefix_rejected() {
        let mut ep = endpoint();
        // A sub-prefix of telescope 1 under a new key: ambiguous ownership.
        let narrower = Telescope { key: 3, prefix: "10.1.5.0/24".parse().unwrap() };
        let err = ep.attach(narrower).unwrap_err();
        match err {
            GatewayError::OverlappingPrefix { existing, rejected } => {
                assert_eq!(existing.key, 1);
                assert_eq!(rejected, narrower);
            }
        }
        // A super-prefix covering both attached telescopes fails too.
        assert!(ep.attach(Telescope { key: 4, prefix: "10.0.0.0/8".parse().unwrap() }).is_err());
        // The failed attaches left the endpoint untouched.
        assert_eq!(ep.len(), 2);
        assert_eq!(ep.telescope_for(Ipv4Addr::new(10, 1, 5, 9)).unwrap().key, 1);
    }

    #[test]
    fn reattaching_same_key_replaces_without_overlap_error() {
        let mut ep = endpoint();
        // Same key, overlapping (here: identical-base, narrower) prefix —
        // a re-advertisement, not an ambiguity.
        let shrunk = Telescope { key: 1, prefix: "10.1.0.0/17".parse().unwrap() };
        let previous = ep.attach(shrunk).unwrap().unwrap();
        assert_eq!(previous.prefix, "10.1.0.0/16".parse().unwrap());
        assert_eq!(ep.len(), 2);
        assert_eq!(ep.monitored_addresses(), 32_768 + 65_536);
        // But the replacement must not overlap *other* keys.
        assert!(ep.attach(Telescope { key: 1, prefix: "10.2.128.0/17".parse().unwrap() }).is_err());
    }

    #[test]
    fn telescope_lookup_and_coverage() {
        let ep = endpoint();
        assert_eq!(ep.telescope_for(Ipv4Addr::new(10, 1, 200, 1)).unwrap().key, 1);
        assert!(ep.telescope_for(Ipv4Addr::new(11, 0, 0, 1)).is_none());
        assert_eq!(ep.monitored_addresses(), 2 * 65_536);
        assert_eq!(ep.len(), 2);
    }
}
