//! Federated honeyfarm routing tier.
//!
//! The paper's end vision is a honeyfarm monitoring internet-scale dark
//! address space — far more than one cluster serves. This module provides
//! the *top tier* that joins N member farms into one federated telescope:
//!
//! * `RouteTable` — a deterministic BGP-style longest-prefix-match table
//!   over [`potemkin_net`] prefixes; each farm advertises its monitored
//!   ranges, unadvertised destinations are counted drops (or follow a
//!   default route).
//! * [`FederationRouter`] — the transit hub: per-farm GRE uplinks (the
//!   gateway's [`TunnelEndpoint`](potemkin_gateway::tunnel::TunnelEndpoint)
//!   with overlap-checked advertisements), decapsulate → route →
//!   re-encapsulate, with per-link accounting and checkpoint codecs.
//! * [`FederationLayout`] — the arithmetic tying a telescope prefix, a
//!   global cell partition, and a farm count together so that farms own
//!   clean aggregate prefixes and *regrouping cells into different farm
//!   counts never moves an address between cells*. That invariance is the
//!   heart of the cross-topology determinism argument: see
//!   [`crate::federation`] for the driver that rides on it.
//! * [`AdmissionConfig`] — global load-shedding policy, keyed off the
//!   member farms' `MemoryBudget`/`PressureEvent` plumbing.

mod route;
mod router;

use potemkin_gateway::{ConfigError, GatewayError};
use potemkin_net::addr::Ipv4Prefix;

pub use router::FederationRouter;

/// Global admission control for the federation tier.
///
/// Shedding is decided *per destination cell* from that cell's own farm
/// pressure state — deliberately not per member farm — so the decision is
/// a pure function of simulation state that does not depend on how cells
/// are grouped into farms. The same packets are shed in a 1-farm and a
/// 16-farm layout, keeping merged reports byte-identical across
/// topologies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Shed fabric deliveries into a cell once its farm has logged at
    /// least this many memory-pressure events. `None` (the default)
    /// disables shedding.
    pub(crate) shed_after_pressure_events: Option<u64>,
}

impl AdmissionConfig {
    /// Shed once a destination cell's farm has logged `events` pressure
    /// events.
    #[must_use]
    pub fn shed_after(events: u64) -> Self {
        AdmissionConfig { shed_after_pressure_events: Some(events) }
    }
}

/// The geometry of a federated telescope: one monitored prefix split into
/// `cells` contiguous slices, grouped into `farms` contiguous clusters.
///
/// The *cell* partition is the unit of determinism — it is fixed by
/// `(telescope, cells)` alone. Farms are groupings of
/// `cells / farms` consecutive cells, so every farm owns one aggregate
/// sub-prefix (`FederationLayout::farm_prefix`) it can advertise, and
/// changing `farms` (1 vs. 16) changes *transport* (which deliveries ride
/// a GRE uplink) but never *ownership* (which cell an address belongs to).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FederationLayout {
    telescope: Ipv4Prefix,
    farms: usize,
    cells: usize,
}

impl FederationLayout {
    /// Validates and builds a layout.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] unless `farms` and `cells` are powers of
    /// two with `farms <= cells <= telescope size` (CIDR prefixes only
    /// split evenly at powers of two).
    pub fn new(telescope: Ipv4Prefix, farms: usize, cells: usize) -> Result<Self, ConfigError> {
        if farms == 0 || !farms.is_power_of_two() {
            return Err(ConfigError::new(
                "FederationLayout",
                "farms",
                "must be a power of two >= 1",
            ));
        }
        if cells == 0 || !cells.is_power_of_two() || cells < farms {
            return Err(ConfigError::new(
                "FederationLayout",
                "cells",
                "must be a power of two >= farms",
            ));
        }
        if cells as u64 > telescope.len() {
            return Err(ConfigError::new(
                "FederationLayout",
                "cells",
                "more cells than telescope addresses",
            ));
        }
        Ok(FederationLayout { telescope, farms, cells })
    }

    /// Member-farm count.
    #[must_use]
    pub(crate) fn farms(&self) -> usize {
        self.farms
    }

    /// Global cell count (layout-invariant across farm counts).
    #[must_use]
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// Cells per member farm.
    #[must_use]
    pub(crate) fn cells_per_farm(&self) -> usize {
        self.cells / self.farms
    }

    /// The farm owning `cell`.
    ///
    /// # Panics
    ///
    /// Panics if `cell >= cells`.
    #[must_use]
    pub(crate) fn farm_of_cell(&self, cell: usize) -> usize {
        assert!(cell < self.cells, "cell out of range");
        cell / self.cells_per_farm()
    }

    /// The aggregate prefix farm `farm` advertises.
    ///
    /// # Panics
    ///
    /// Panics if `farm >= farms`.
    #[must_use]
    pub(crate) fn farm_prefix(&self, farm: usize) -> Ipv4Prefix {
        self.telescope
            .subprefix(farm as u64, self.farms as u64)
            .expect("validated farms split the telescope")
    }

    /// The `cell`-th equal slice of the telescope: the geometry the layout
    /// tests check farm ownership against.
    #[cfg(test)]
    fn cell_prefix(&self, cell: usize) -> Ipv4Prefix {
        self.telescope
            .subprefix(cell as u64, self.cells as u64)
            .expect("validated cells split the telescope")
    }

    /// Builds the routing tier for this layout: one uplink + one
    /// advertisement per farm.
    ///
    /// # Errors
    ///
    /// Returns a [`GatewayError`] if any advertisement overlaps — a
    /// validated layout's slices never do, so an error here is a bug.
    pub fn router(&self) -> Result<FederationRouter, GatewayError> {
        let mut router = FederationRouter::new();
        for farm in 0..self.farms {
            router.advertise(farm as u32, self.farm_prefix(farm))?;
        }
        Ok(router)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_validation() {
        let telescope: Ipv4Prefix = "10.0.0.0/16".parse().unwrap();
        assert!(FederationLayout::new(telescope, 3, 8).is_err(), "farms not a power of two");
        assert!(FederationLayout::new(telescope, 0, 8).is_err());
        assert!(FederationLayout::new(telescope, 4, 6).is_err(), "cells not a power of two");
        assert!(FederationLayout::new(telescope, 8, 4).is_err(), "farms > cells");
        let host: Ipv4Prefix = "10.0.0.0/31".parse().unwrap();
        assert!(FederationLayout::new(host, 1, 4).is_err(), "more cells than addresses");
        assert!(FederationLayout::new(telescope, 4, 16).is_ok());
        assert!(FederationLayout::new(telescope, 1, 1).is_ok(), "degenerate single farm");
    }

    #[test]
    fn cell_ownership_is_farm_count_invariant() {
        let telescope: Ipv4Prefix = "10.0.0.0/16".parse().unwrap();
        let cells = 16;
        let reference = FederationLayout::new(telescope, 1, cells).unwrap();
        for farms in [2usize, 4, 8, 16] {
            let layout = FederationLayout::new(telescope, farms, cells).unwrap();
            for cell in 0..cells {
                // The cell slice never moves when farms regroup…
                assert_eq!(layout.cell_prefix(cell), reference.cell_prefix(cell));
                // …and each farm owns a contiguous run of cells whose
                // slices tile its advertised prefix.
                let farm = layout.farm_of_cell(cell);
                assert!(layout.farm_prefix(farm).covers(layout.cell_prefix(cell)));
            }
        }
    }

    #[test]
    fn layout_router_advertises_every_farm_without_overlap() {
        let telescope: Ipv4Prefix = "10.0.0.0/16".parse().unwrap();
        let layout = FederationLayout::new(telescope, 8, 16).unwrap();
        let mut router = layout.router().unwrap();
        assert_eq!(router.advertised_routes(), 8);
        assert_eq!(router.monitored_addresses(), telescope.len());
        // Every cell's network address routes to the owning farm.
        for cell in 0..16 {
            let addr = layout.cell_prefix(cell).network();
            let packet =
                potemkin_net::PacketBuilder::new(std::net::Ipv4Addr::new(6, 6, 6, 6), addr)
                    .tcp_syn(1024, 80);
            let (dest, _) = router.forward(0, &packet).unwrap();
            assert_eq!(dest as usize, layout.farm_of_cell(cell));
        }
    }

    #[test]
    fn admission_config_constructors() {
        assert_eq!(AdmissionConfig::default().shed_after_pressure_events, None);
        assert_eq!(AdmissionConfig::shed_after(3).shed_after_pressure_events, Some(3));
    }
}
