//! The virtual-time latency model for VM lifecycle operations.
//!
//! The simulation performs the *bookkeeping* of flash cloning for real, but
//! the wall-clock cost of each stage on 2005-era Xen hardware must be
//! modeled. The constants below are calibrated so that the flash-clone total
//! lands in the "low hundreds of milliseconds" the paper reports (its
//! unoptimized prototype measured ≈521 ms end-to-end), a cold OS boot takes
//! tens of seconds, and an eager full-memory-copy clone pays a per-page copy
//! cost. Every host runs under the one calibrated model,
//! [`CostModel::CALIBRATED`]; [`CostModel::optimized`] is the projection
//! experiments compare it with.

use potemkin_sim::SimTime;

/// How a provisioning stage's duration derives from the model: a fixed
/// field, or a per-page rate multiplied by the clone's page count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum StageCost {
    /// `xend`-style control-path overhead ([`CostModel::control_plane`]).
    ControlPlane,
    /// Hypervisor domain construction ([`CostModel::domain_create`]).
    DomainCreate,
    /// Per-page CoW mapping installation
    /// ([`CostModel::cow_map_per_page`] × pages).
    CowMapPerPage,
    /// Per-page eager memory copy — also models page allocation for cold
    /// boots ([`CostModel::copy_per_page`] × pages).
    CopyPerPage,
    /// Virtual device attach ([`CostModel::device_attach`]).
    DeviceAttach,
    /// Late-bound network configuration ([`CostModel::net_config`]).
    NetConfig,
    /// Unpause/resume ([`CostModel::unpause`]).
    Unpause,
    /// Full OS boot ([`CostModel::cold_boot`]).
    ColdBoot,
}

/// One row of a provisioning-stage table: the stable stage name (the rows
/// of the paper's clone-latency table reproduction, and the span names the
/// observability layer emits) plus how its duration derives from the
/// model. One table feeds both the cost model and the traced breakdown,
/// so the two can never drift.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageSpec {
    /// Stable stage name.
    pub(crate) name: &'static str,
    /// Duration rule.
    pub(crate) cost: StageCost,
}

impl StageSpec {
    /// Evaluates this stage's duration under `model` for a clone of
    /// `pages` pages.
    #[must_use]
    pub(crate) fn duration(&self, model: &CostModel, pages: u64) -> SimTime {
        match self.cost {
            StageCost::ControlPlane => model.control_plane,
            StageCost::DomainCreate => model.domain_create,
            StageCost::CowMapPerPage => model.cow_map_per_page * pages,
            StageCost::CopyPerPage => model.copy_per_page * pages,
            StageCost::DeviceAttach => model.device_attach,
            StageCost::NetConfig => model.net_config,
            StageCost::Unpause => model.unpause,
            StageCost::ColdBoot => model.cold_boot,
        }
    }
}

/// The flash-clone stage table (delta-virtualization path).
pub const FLASH_CLONE_STAGES: &[StageSpec] = &[
    StageSpec { name: "control plane", cost: StageCost::ControlPlane },
    StageSpec { name: "domain creation", cost: StageCost::DomainCreate },
    StageSpec { name: "CoW memory map", cost: StageCost::CowMapPerPage },
    StageSpec { name: "device attach", cost: StageCost::DeviceAttach },
    StageSpec { name: "network config", cost: StageCost::NetConfig },
    StageSpec { name: "unpause", cost: StageCost::Unpause },
];

/// The eager full-memory-copy clone stage table (no-delta baseline).
pub(crate) const FULL_COPY_STAGES: &[StageSpec] = &[
    StageSpec { name: "control plane", cost: StageCost::ControlPlane },
    StageSpec { name: "domain creation", cost: StageCost::DomainCreate },
    StageSpec { name: "memory copy", cost: StageCost::CopyPerPage },
    StageSpec { name: "device attach", cost: StageCost::DeviceAttach },
    StageSpec { name: "network config", cost: StageCost::NetConfig },
    StageSpec { name: "unpause", cost: StageCost::Unpause },
];

/// The cold-boot stage table (no-cloning baseline).
pub(crate) const COLD_BOOT_STAGES: &[StageSpec] = &[
    StageSpec { name: "control plane", cost: StageCost::ControlPlane },
    StageSpec { name: "domain creation", cost: StageCost::DomainCreate },
    StageSpec { name: "memory allocation", cost: StageCost::CopyPerPage },
    StageSpec { name: "device attach", cost: StageCost::DeviceAttach },
    StageSpec { name: "network config", cost: StageCost::NetConfig },
    StageSpec { name: "OS boot", cost: StageCost::ColdBoot },
];

/// The standby-bind stage table: only the late-binding stages remain.
pub(crate) const STANDBY_BIND_STAGES: &[StageSpec] = &[
    StageSpec { name: "network config", cost: StageCost::NetConfig },
    StageSpec { name: "unpause", cost: StageCost::Unpause },
];

/// Latency model for domain lifecycle operations.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Control-plane overhead per management operation (the paper found the
    /// Python `xend` path dominated unoptimized clone time).
    pub(crate) control_plane: SimTime,
    /// Hypervisor domain-construction cost (fixed part).
    pub(crate) domain_create: SimTime,
    /// Per-page cost of installing a CoW mapping (map + refcount, no copy).
    pub(crate) cow_map_per_page: SimTime,
    /// Per-page cost of an eager memory copy (the no-delta baseline).
    pub(crate) copy_per_page: SimTime,
    /// Device attach cost (virtual NIC + CoW block device).
    pub(crate) device_attach: SimTime,
    /// Network configuration cost (late-bound IP/MAC, gateway filter entry).
    pub(crate) net_config: SimTime,
    /// Unpause/resume cost.
    pub(crate) unpause: SimTime,
    /// Cost of one CoW write fault taken by a running domain.
    pub(crate) cow_fault: SimTime,
    /// Cost of lazily materializing one disk chunk from the golden image
    /// on first guest read (late binding for storage). Charged per chunk
    /// faulted in, never per block.
    pub(crate) chunk_materialize: SimTime,
    /// Fixed cost of a cold OS boot (the no-cloning baseline).
    pub(crate) cold_boot: SimTime,
    /// Cost of destroying a domain and scrubbing its private pages,
    /// per page.
    pub(crate) destroy_per_page: SimTime,
    /// Fixed destroy cost.
    pub(crate) destroy_fixed: SimTime,
    /// Fixed cost of rolling a domain back to its reference image (cheaper
    /// than destroy + clone: the domain structures survive, only the delta
    /// is discarded).
    pub(crate) rollback_fixed: SimTime,
}

impl CostModel {
    /// The model every host runs under. Calibration chosen to match the
    /// published evaluation's shape: flash clone of a 128 MiB image
    /// ≈ 520 ms, cold boot ≈ 23 s.
    pub const CALIBRATED: CostModel = CostModel {
        control_plane: SimTime::from_millis(182),
        domain_create: SimTime::from_millis(59),
        cow_map_per_page: SimTime::from_nanos(320),
        copy_per_page: SimTime::from_micros(4), // ~1 GiB/s for 4 KiB pages
        device_attach: SimTime::from_millis(123),
        net_config: SimTime::from_millis(99),
        unpause: SimTime::from_millis(31),
        cow_fault: SimTime::from_micros(25),
        chunk_materialize: SimTime::from_micros(250), // ~256 KiB chunk at ~1 GiB/s
        cold_boot: SimTime::from_secs(23),
        destroy_per_page: SimTime::from_nanos(150),
        destroy_fixed: SimTime::from_millis(40),
        rollback_fixed: SimTime::from_millis(12),
    };

    /// An idealized optimized model (the paper's "future work" projection:
    /// bypass the control plane, batch the map operations).
    #[must_use]
    pub fn optimized() -> Self {
        CostModel {
            control_plane: SimTime::from_millis(5),
            domain_create: SimTime::from_millis(10),
            cow_map_per_page: SimTime::from_nanos(120),
            device_attach: SimTime::from_millis(8),
            net_config: SimTime::from_millis(4),
            unpause: SimTime::from_millis(2),
            ..CostModel::CALIBRATED
        }
    }

    /// Evaluates a stage table under this model.
    fn eval_stages(&self, table: &[StageSpec], pages: u64) -> Vec<(&'static str, SimTime)> {
        table.iter().map(|spec| (spec.name, spec.duration(self, pages))).collect()
    }

    /// The per-stage latency breakdown of a flash clone of `pages` pages
    /// ([`FLASH_CLONE_STAGES`] evaluated under this model).
    ///
    /// Stage names are stable: they are the rows of the reproduction of the
    /// paper's clone-latency table and the observability layer's span
    /// names.
    #[must_use]
    pub fn flash_clone_stages(&self, pages: u64) -> Vec<(&'static str, SimTime)> {
        self.eval_stages(FLASH_CLONE_STAGES, pages)
    }

    /// The per-stage breakdown of an eager full-copy clone (baseline;
    /// [`FULL_COPY_STAGES`]).
    #[must_use]
    pub(crate) fn full_copy_stages(&self, pages: u64) -> Vec<(&'static str, SimTime)> {
        self.eval_stages(FULL_COPY_STAGES, pages)
    }

    /// The per-stage breakdown of a cold boot (baseline;
    /// [`COLD_BOOT_STAGES`]).
    #[must_use]
    pub(crate) fn cold_boot_stages(&self, pages: u64) -> Vec<(&'static str, SimTime)> {
        self.eval_stages(COLD_BOOT_STAGES, pages)
    }

    /// The cost of destroying a domain with `private_pages` private pages.
    #[must_use]
    pub(crate) fn destroy_cost(&self, private_pages: u64) -> SimTime {
        self.destroy_fixed + self.destroy_per_page * private_pages
    }

    /// The cost of rolling a domain back to pristine image state.
    #[must_use]
    pub(crate) fn rollback_cost(&self, private_pages: u64) -> SimTime {
        self.rollback_fixed + self.destroy_per_page * private_pages
    }

    /// The latency of binding a *standby* (pre-cloned, idle) VM to an
    /// address: only the late-binding stages remain
    /// (`STANDBY_BIND_STAGES`).
    #[must_use]
    pub fn standby_bind_stages(&self) -> Vec<(&'static str, SimTime)> {
        self.eval_stages(STANDBY_BIND_STAGES, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGES_128M: u64 = 32_768; // 128 MiB / 4 KiB

    fn total(stages: &[(&'static str, SimTime)]) -> SimTime {
        stages.iter().map(|&(_, t)| t).sum()
    }

    #[test]
    fn flash_clone_lands_near_paper_total() {
        let m = CostModel::CALIBRATED;
        let t = total(&m.flash_clone_stages(PAGES_128M));
        let ms = t.as_millis();
        assert!((450..600).contains(&ms), "flash clone total = {ms} ms");
    }

    #[test]
    fn cold_boot_is_tens_of_seconds() {
        let m = CostModel::CALIBRATED;
        let t = total(&m.cold_boot_stages(PAGES_128M));
        assert!(t >= SimTime::from_secs(20));
    }

    #[test]
    fn ordering_flash_lt_copy_lt_boot() {
        let m = CostModel::CALIBRATED;
        let flash = total(&m.flash_clone_stages(PAGES_128M));
        let copy = total(&m.full_copy_stages(PAGES_128M));
        let boot = total(&m.cold_boot_stages(PAGES_128M));
        assert!(flash < copy, "flash {flash} !< copy {copy}");
        assert!(copy < boot, "copy {copy} !< boot {boot}");
    }

    #[test]
    fn optimized_is_faster() {
        let d = total(&CostModel::CALIBRATED.flash_clone_stages(PAGES_128M));
        let o = total(&CostModel::optimized().flash_clone_stages(PAGES_128M));
        assert!(o < d / 4, "optimized {o} not ≪ default {d}");
    }

    #[test]
    fn per_page_terms_scale() {
        let m = CostModel::CALIBRATED;
        let small = total(&m.flash_clone_stages(1_000));
        let big = total(&m.flash_clone_stages(100_000));
        assert!(big > small);
        // But the fixed stages dominate: 100× pages is far from 100× time.
        assert!(big < small * 3);
    }

    #[test]
    fn destroy_cost_scales_with_private_pages() {
        let m = CostModel::CALIBRATED;
        assert!(m.destroy_cost(10_000) > m.destroy_cost(0));
        assert_eq!(m.destroy_cost(0), m.destroy_fixed);
    }

    #[test]
    fn rollback_and_standby_are_cheaper() {
        let m = CostModel::CALIBRATED;
        // Rollback beats destroy for the same delta size.
        assert!(m.rollback_cost(1_000) < m.destroy_cost(1_000));
        // Binding a standby VM beats a fresh flash clone.
        let standby: SimTime = m.standby_bind_stages().iter().map(|&(_, t)| t).sum();
        let flash: SimTime = m.flash_clone_stages(PAGES_128M).iter().map(|&(_, t)| t).sum();
        assert!(standby < flash / 3, "standby {standby} vs flash {flash}");
    }

    #[test]
    fn stage_tables_are_the_single_source() {
        let m = CostModel::optimized();
        for (table, evaluated) in [
            (FLASH_CLONE_STAGES, m.flash_clone_stages(77)),
            (FULL_COPY_STAGES, m.full_copy_stages(77)),
            (COLD_BOOT_STAGES, m.cold_boot_stages(77)),
            (STANDBY_BIND_STAGES, m.standby_bind_stages()),
        ] {
            assert_eq!(table.len(), evaluated.len());
            for (spec, (name, duration)) in table.iter().zip(evaluated) {
                assert_eq!(spec.name, name);
                assert_eq!(spec.duration(&m, 77), duration);
            }
        }
    }

    #[test]
    fn stage_names_are_stable() {
        let m = CostModel::CALIBRATED;
        let names: Vec<&str> = m.flash_clone_stages(1).iter().map(|&(n, _)| n).collect();
        assert_eq!(
            names,
            vec![
                "control plane",
                "domain creation",
                "CoW memory map",
                "device attach",
                "network config",
                "unpause"
            ]
        );
    }
}
