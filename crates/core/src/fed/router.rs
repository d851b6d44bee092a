//! The federation's top-level routing tier.
//!
//! N member farms sit behind one [`FederationRouter`]: each farm's
//! monitored range is advertised into a longest-prefix-match
//! [`RouteTable`], and each farm terminates a GRE uplink keyed by its farm
//! id (reusing the gateway's [`TunnelEndpoint`], which rejects overlapping
//! advertisements). A packet leaving farm A for an address farm B owns is
//! GRE-encapsulated with A's key, *transits* the tier — decapsulate,
//! route, re-encapsulate with B's key — and is handed to B's ingress. The
//! hop is content-preserving byte-for-byte (GRE encap/decap round-trips
//! exactly), which is one leg of the federation determinism argument.

use potemkin_gateway::tunnel::{Telescope, TunnelEndpoint, TunnelStats};
use potemkin_gateway::GatewayError;
use potemkin_net::addr::Ipv4Prefix;
use potemkin_net::gre::GreHeader;
use potemkin_net::Packet;
use potemkin_snapshot::{snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};
use std::collections::BTreeMap;

use super::route::RouteTable;

/// Why the routing tier dropped a frame in transit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub(crate) enum TransitDrop {
    /// The uplink frame failed GRE decapsulation (malformed, keyless, or
    /// an unknown farm key).
    Decap,
    /// No route — not even a default — covers the inner destination.
    NoRoute,
}

/// Per-farm link accounting at the routing tier.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct LinkStats {
    /// Packets forwarded *to* this farm (downlink).
    pub(crate) downlink_packets: u64,
    /// Inner bytes forwarded to this farm.
    pub(crate) downlink_bytes: u64,
    /// Frames from this farm dropped because no route covered the
    /// destination.
    pub(crate) route_drops: u64,
}

snap_struct!(LinkStats { downlink_packets, downlink_bytes, route_drops });

/// The federation routing tier: per-farm GRE uplinks plus the route table.
#[derive(Default)]
pub struct FederationRouter {
    uplinks: TunnelEndpoint,
    table: RouteTable,
    links: BTreeMap<u32, LinkStats>,
    decap_drops: u64,
}

impl FederationRouter {
    /// A tier with no farms attached.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Joins a member farm: terminates its uplink tunnel (key = `farm`)
    /// and advertises its monitored prefix.
    ///
    /// # Errors
    ///
    /// Returns [`GatewayError::OverlappingPrefix`] when `prefix` overlaps
    /// an already-advertised farm — two owners for one address would make
    /// the longest-prefix decision ambiguous.
    pub(crate) fn advertise(&mut self, farm: u32, prefix: Ipv4Prefix) -> Result<(), GatewayError> {
        self.uplinks.attach(Telescope { key: farm, prefix })?;
        self.table.insert(prefix, farm);
        self.links.entry(farm).or_default();
        Ok(())
    }

    /// Carries one uplink frame across the tier: decapsulate (charging the
    /// source farm's tunnel stats), longest-prefix-route the inner
    /// destination, re-encapsulate with the owning farm's key.
    ///
    /// # Errors
    ///
    /// Returns the counted [`TransitDrop`] — the frame is dropped, never a
    /// panic, because uplink traffic is untrusted input.
    pub(crate) fn transit(&mut self, frame: &[u8]) -> Result<(u32, Vec<u8>), TransitDrop> {
        let (src, inner) = match self.uplinks.decapsulate(frame) {
            Ok(decapsulated) => decapsulated,
            Err(_) => {
                self.decap_drops += 1;
                return Err(TransitDrop::Decap);
            }
        };
        let Some(dest) = self.table.lookup(inner.dst()) else {
            self.links.entry(src).or_default().route_drops += 1;
            return Err(TransitDrop::NoRoute);
        };
        let link = self.links.entry(dest).or_default();
        link.downlink_packets += 1;
        link.downlink_bytes += inner.len() as u64;
        Ok((dest, GreHeader::encapsulate_ipv4(dest, inner.wire())))
    }

    /// Convenience for farm egress: encapsulates `packet` on `src_farm`'s
    /// uplink and transits it, yielding the owning farm and its downlink
    /// frame, or `None` on a (counted) drop.
    pub fn forward(&mut self, src_farm: u32, packet: &Packet) -> Option<(u32, Vec<u8>)> {
        let frame = GreHeader::encapsulate_ipv4(src_farm, packet.wire());
        self.transit(&frame).ok()
    }

    /// The routing tier's view of one farm's uplink (GRE-level counters).
    #[must_use]
    pub(crate) fn uplink_stats(&self, farm: u32) -> TunnelStats {
        self.uplinks.stats(farm)
    }

    /// Downlink/drop accounting for one farm.
    #[must_use]
    pub(crate) fn link_stats(&self, farm: u32) -> LinkStats {
        self.links.get(&farm).copied().unwrap_or_default()
    }

    /// Frames dropped because no route covered their destination.
    #[must_use]
    pub(crate) fn route_drops(&self) -> u64 {
        self.links.values().map(|l| l.route_drops).sum()
    }

    /// Installed routes (excluding any default).
    #[must_use]
    pub(crate) fn advertised_routes(&self) -> usize {
        self.table.routes().filter(|r| r.prefix.bits() > 0).count()
    }

    /// Total addresses monitored across member farms.
    #[must_use]
    pub(crate) fn monitored_addresses(&self) -> u64 {
        self.uplinks.monitored_addresses()
    }

    /// Checkpoint support: serializes every transit counter — tunnel
    /// stats, per-farm link stats, route-table counters. Advertisements
    /// are configuration and are rebuilt by the owner before restore.
    #[must_use]
    pub(crate) fn encode_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.bytes(&self.uplinks.encode_state());
        self.table.counters().snap(&mut w);
        self.links.snap(&mut w);
        w.u64(self.decap_drops);
        w.into_bytes()
    }

    /// Restores counters captured by `FederationRouter::encode_state`.
    ///
    /// # Errors
    ///
    /// Returns a decode error on truncated or malformed input; the router
    /// is left untouched in that case.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapReader::new(bytes, "federation.router");
        let tunnel_bytes = r.bytes()?;
        let table_counters = Snap::unsnap(&mut r)?;
        let links = Snap::unsnap(&mut r)?;
        let decap_drops = r.u64()?;
        r.finish()?;
        self.uplinks.restore_state(tunnel_bytes)?;
        self.table.set_counters(table_counters);
        self.links = links;
        self.decap_drops = decap_drops;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use potemkin_net::PacketBuilder;
    use std::net::Ipv4Addr;

    fn router() -> FederationRouter {
        let mut r = FederationRouter::new();
        r.advertise(0, "10.0.0.0/15".parse().unwrap()).unwrap();
        r.advertise(1, "10.2.0.0/15".parse().unwrap()).unwrap();
        r
    }

    fn probe(dst: Ipv4Addr) -> Packet {
        PacketBuilder::new(Ipv4Addr::new(10, 0, 0, 9), dst).tcp_syn(4444, 445)
    }

    #[test]
    fn cross_farm_transit_preserves_packet_bytes() {
        let mut r = router();
        let packet = probe(Ipv4Addr::new(10, 2, 7, 7));
        let (dest, downlink) = r.forward(0, &packet).unwrap();
        assert_eq!(dest, 1);
        let (header, inner) = GreHeader::parse(&downlink).unwrap();
        assert_eq!(header.key, Some(1), "downlink keyed by the owning farm");
        assert_eq!(inner, packet.wire(), "transit is byte-exact");
        assert_eq!(r.uplink_stats(0).packets_in, 1);
        assert_eq!(r.link_stats(1).downlink_packets, 1);
        assert_eq!(r.link_stats(1).downlink_bytes, packet.len() as u64);
    }

    #[test]
    fn overlapping_advertisement_rejected() {
        let mut r = router();
        let err = r.advertise(2, "10.0.4.0/24".parse().unwrap()).unwrap_err();
        assert!(matches!(err, GatewayError::OverlappingPrefix { .. }));
        assert_eq!(r.uplinks.len(), 2);
        assert_eq!(r.advertised_routes(), 2, "rejected farm must not leak a route");
    }

    #[test]
    fn unrouted_destination_dropped_and_counted() {
        let mut r = router();
        let stray = probe(Ipv4Addr::new(172, 16, 0, 1));
        assert!(r.forward(0, &stray).is_none());
        assert_eq!(r.link_stats(0).route_drops, 1);
        assert_eq!(r.route_drops(), 1);
        // With a default route installed the same packet transits.
        r.table.insert("0.0.0.0/0".parse().unwrap(), 1);
        let (dest, _) = r.forward(0, &stray).unwrap();
        assert_eq!(dest, 1);
    }

    #[test]
    fn malformed_uplinks_dropped_and_counted() {
        let mut r = router();
        assert_eq!(r.transit(&[0x20]), Err(TransitDrop::Decap));
        let unknown_key = GreHeader::encapsulate_ipv4(99, probe(Ipv4Addr::new(10, 0, 0, 1)).wire());
        assert_eq!(r.transit(&unknown_key), Err(TransitDrop::Decap));
        assert_eq!(r.decap_drops, 2);
    }

    #[test]
    fn state_round_trips_bit_identically() {
        let mut r = router();
        r.forward(0, &probe(Ipv4Addr::new(10, 2, 0, 1))).unwrap();
        r.forward(1, &probe(Ipv4Addr::new(10, 0, 0, 1))).unwrap();
        assert!(r.forward(0, &probe(Ipv4Addr::new(8, 8, 8, 8))).is_none());
        assert!(r.transit(&[0xff]).is_err());
        let bytes = r.encode_state();
        let mut restored = router();
        restored.restore_state(&bytes).unwrap();
        assert_eq!(restored.encode_state(), bytes, "re-encode must be bit-identical");
        assert_eq!(restored.link_stats(0), r.link_stats(0));
        assert_eq!(restored.link_stats(1), r.link_stats(1));
        assert_eq!(restored.uplink_stats(0), r.uplink_stats(0));
        assert_eq!(restored.table.counters(), r.table.counters());
        assert_eq!(restored.decap_drops, 1);
        for cut in [0, 3, bytes.len() - 1] {
            let mut fresh = router();
            assert!(fresh.restore_state(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
    }
}
