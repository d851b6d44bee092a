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

use crate::error::GatewayError;

/// A telescope feeding the farm: a prefix and its tunnel key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Telescope {
    /// The tunnel key identifying this telescope.
    pub key: u32,
    /// The delegated prefix.
    pub prefix: Ipv4Prefix,
}

/// The gateway's tunnel terminator: the attached telescopes, keyed by
/// tunnel key. It holds configuration only, so it has no checkpoint state.
#[derive(Default)]
pub struct TunnelEndpoint {
    telescopes: BTreeMap<u32, Telescope>,
}

impl TunnelEndpoint {
    /// Creates an endpoint with no telescopes attached.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
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
    /// unsupported), or a bad inner packet. The caller counts failures.
    pub fn decapsulate(&self, frame: &[u8]) -> Result<(u32, Packet), NetError> {
        let (gre_header, inner) = GreHeader::parse(frame)?;
        let Some(key) = gre_header.key else {
            return Err(NetError::Unsupported {
                layer: "gre",
                what: "missing tunnel key",
                value: 0,
            });
        };
        if !self.telescopes.contains_key(&key) {
            return Err(NetError::Unsupported {
                layer: "gre",
                what: "unknown tunnel key",
                value: key,
            });
        }
        if gre_header.protocol != gre::PROTO_IPV4 {
            return Err(NetError::Unsupported {
                layer: "gre",
                what: "non-IPv4 payload",
                value: u32::from(gre_header.protocol),
            });
        }
        Ok((key, Packet::parse(inner)?))
    }

    /// Encapsulates a reply packet for the telescope owning its destination.
    ///
    /// Returns `None` when no telescope owns the destination (the packet
    /// should egress natively).
    pub fn encapsulate_reply(&self, packet: &Packet) -> Option<Vec<u8>> {
        let telescope = self.telescopes.values().find(|t| t.prefix.contains(packet.dst()))?;
        Some(GreHeader::encapsulate_ipv4(telescope.key, packet.wire()))
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
        let ep = endpoint();
        let inner = probe(Ipv4Addr::new(10, 1, 0, 5));
        let frame = GreHeader::encapsulate_ipv4(1, inner.wire());
        let (key, packet) = ep.decapsulate(&frame).unwrap();
        assert_eq!(key, 1);
        assert_eq!(packet, inner);
    }

    #[test]
    fn unknown_key_rejected() {
        let ep = endpoint();
        let frame = GreHeader::encapsulate_ipv4(99, probe(Ipv4Addr::new(10, 1, 0, 5)).wire());
        assert!(matches!(
            ep.decapsulate(&frame).unwrap_err(),
            NetError::Unsupported { what: "unknown tunnel key", .. }
        ));
    }

    #[test]
    fn keyless_gre_rejected() {
        let ep = endpoint();
        let frame = GreHeader { protocol: gre::PROTO_IPV4, key: None }
            .build(probe(Ipv4Addr::new(10, 1, 0, 5)).wire());
        assert!(ep.decapsulate(&frame).is_err());
    }

    #[test]
    fn bad_inner_and_unreadable_frames_rejected() {
        let ep = endpoint();
        assert!(ep.decapsulate(&GreHeader::encapsulate_ipv4(1, &[0xde, 0xad])).is_err());
        // Garbage GRE (truncated header).
        assert!(ep.decapsulate(&[0x20]).is_err());
    }

    #[test]
    fn reply_goes_down_owning_tunnel() {
        let ep = endpoint();
        let reply = probe(Ipv4Addr::new(10, 2, 3, 4)); // dst in telescope 2
        let frame = ep.encapsulate_reply(&reply).unwrap();
        let (header, inner) = GreHeader::parse(&frame).unwrap();
        assert_eq!(header.key, Some(2));
        assert_eq!(inner, reply.wire());
    }

    #[test]
    fn reply_to_unowned_address_egresses_natively() {
        let ep = endpoint();
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
    fn telescope_coverage() {
        let ep = endpoint();
        assert_eq!(ep.monitored_addresses(), 2 * 65_536);
        assert_eq!(ep.len(), 2);
    }
}
