//! Federated multi-farm telescope replay.
//!
//! One [sharded telescope](crate::parallel) covers a single telescope
//! range on one simulated cluster. This module grows it to internet scale
//! without a second driver: `FederatedTelescopeConfig::sharded` lowers a
//! federated configuration to the sharded one it is, whose cells each
//! carry a federation hop (`FedHop`), and the run — checkpoints, resumes
//! and forks included — goes through the sharded entry points. The hop
//! puts N member farm clusters behind the
//! [`crate::fed`] routing tier: the monitored prefix is carved
//! into contiguous cell slices ([`CellMap::Sliced`]), farms are
//! power-of-two groupings of consecutive cells, each farm advertises its
//! aggregate prefix into a BGP-style longest-prefix route table, and
//! cross-farm traffic rides GRE uplinks through the tier — decapsulated,
//! routed, re-encapsulated — exactly like the paper's telescope-to-farm
//! backhaul, one level up.
//!
//! # Cross-farm reflection and the determinism argument
//!
//! The existing cell fabric already carries a reflected worm probe from
//! the cell that emitted it to the cell owning its destination
//! ([`FarmOutput::ForwardedCell`](crate::farm::FarmOutput)). Federation
//! lifts that fabric one level: when emitter and owner live in different
//! farms, the batch is GRE-encapsulated on the emitter farm's uplink,
//! transits the routing tier, and is decapsulated by the owning farm's
//! ingress — instantiating worm victims in another farm. Merged reports
//! stay **byte-identical across topology layouts** (1 farm ≡ 2 ≡ 16 for
//! the same total range, cells, and seed) because every layout-dependent
//! step is content-, order-, and time-preserving:
//!
//! * **Ownership is layout-invariant.** The cell partition is fixed by
//!   `(telescope, cells)` alone; farms are groupings of cells, so
//!   regrouping never moves an address between cells and never changes a
//!   cell's event order.
//! * **Transport is exact.** GRE encapsulation round-trips packet bytes
//!   exactly, batches preserve emission order 1:1, and tunneled batches
//!   are delivered at the same conservative window barrier, in the same
//!   canonical `(window, source cell)` order, as local fabric batches.
//! * **Admission is per-cell.** Global load-shedding consults the
//!   *destination cell's* farm pressure state — a pure function of
//!   simulation state — and applies to local and tunneled deliveries
//!   alike, so the same packets are shed in every layout.
//!
//! What *does* change with the layout is transport telemetry: how many
//! deliveries crossed a farm boundary, per-uplink packet counts. Those are
//! reported in [`FederationReport`] and excluded from determinism digests
//! by convention, like wall-clock engine telemetry.

use std::sync::{Arc, Mutex};

use potemkin_gateway::tunnel::{Telescope, TunnelEndpoint};
use potemkin_gateway::ConfigError;
use potemkin_net::addr::Ipv4Prefix;
use potemkin_net::Packet;
use potemkin_obs::{names as obs, Tracer};
use potemkin_sim::{EngineTuning, FaultPlanConfig, Shard, SimTime};
use potemkin_snapshot::{snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

use crate::error::FarmError;
use crate::fed::{AdmissionConfig, FederationLayout, FederationRouter};
use crate::parallel::{
    run_telescope_sharded, CellMap, CellWorld, Lane, ShardedTelescopeConfig, ShardedTelescopeResult,
};
use crate::scenario::TelescopeConfig;

/// Configuration of a federated telescope replay.
///
/// Construct via [`FederatedTelescopeConfig::builder`]; the struct is
/// `#[non_exhaustive]`, so new knobs may be added without breaking
/// downstream crates.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct FederatedTelescopeConfig {
    /// The scenario. `base.radiation.telescope` is the *total* federated
    /// range, split across farms.
    pub base: TelescopeConfig,
    /// Member farm clusters (power of two). Changes transport topology,
    /// never merged results.
    pub farms: usize,
    /// Global address-space cells across the whole federation (power of
    /// two, `>= farms`). Fixed per run and layout-invariant: results
    /// depend on it, the farm grouping and worker count do not change
    /// them.
    pub cells: usize,
    /// Conservative barrier window width (shared by the cell fabric and
    /// the federation tier: one barrier spans both).
    pub window: SimTime,
    /// Per-cell fault plans, generated from this template with a per-cell
    /// derived seed (None = fault-free).
    pub faults: Option<FaultPlanConfig>,
    /// Patient-zero infections to seed (requires `base.farm.worm`).
    pub seed_infections: usize,
    /// Observability: adds one federation lane per cell (`fed.tunnel`,
    /// `fed.shed` instants) on top of the sharded lanes. Digest-invisible
    /// by construction.
    pub(crate) trace: Option<potemkin_obs::TraceConfig>,
    /// Engine performance tuning (see
    /// [`EngineTuning`]).
    pub(crate) tuning: EngineTuning,
    /// Global admission/load-shedding policy, keyed off the member farms'
    /// memory-pressure plumbing.
    pub admission: AdmissionConfig,
}

impl FederatedTelescopeConfig {
    /// A validating builder: one farm, one cell, a 500 ms window, no
    /// faults, no seed infections, tracing off, admission disabled.
    #[must_use]
    pub fn builder(base: TelescopeConfig) -> FederatedTelescopeConfigBuilder {
        FederatedTelescopeConfigBuilder {
            inner: FederatedTelescopeConfig {
                base,
                farms: 1,
                cells: 1,
                window: SimTime::from_millis(500),
                faults: None,
                seed_infections: 0,
                trace: None,
                tuning: EngineTuning::default(),
                admission: AdmissionConfig::default(),
            },
        }
    }

    /// The validated geometry of this configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `farms`/`cells` cannot slice the
    /// telescope (see [`FederationLayout::new`]).
    pub(crate) fn layout(&self) -> Result<FederationLayout, ConfigError> {
        FederationLayout::new(self.base.radiation.telescope, self.farms, self.cells)
    }

    /// Lowers this configuration to the sharded replay it *is*: the same
    /// scenario over the global sliced cell partition, every cell carrying
    /// a federation hop. The result runs — and checkpoints, resumes and
    /// forks — through the sharded entry points; with one farm the hop
    /// never tunnels, and the run equals the plain [`CellMap::Sliced`]
    /// replay (`tests/prop_federation.rs` checks that identity).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an invalid layout (farms/cells/
    /// telescope geometry) or anything the sharded builder rejects (zero
    /// window, seeds without a worm, bad adaptive bounds).
    pub(crate) fn sharded(&self) -> Result<ShardedTelescopeConfig, ConfigError> {
        self.layout()?;
        let mut config = ShardedTelescopeConfig::builder(self.base.clone())
            .cells(self.cells)
            .cell_map(CellMap::Sliced)
            .window(self.window)
            .seed_infections(self.seed_infections)
            .tuning(self.tuning)
            .build()?;
        config.faults = self.faults;
        config.trace = self.trace;
        config.federation = Some(FederationPlan { farms: self.farms, admission: self.admission });
        Ok(config)
    }
}

/// What a lowered config carries for the hop: the farm grouping and the
/// admission policy. Both shape results (`farms` only the transport
/// telemetry), so the checkpoint fingerprint covers them.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FederationPlan {
    farms: usize,
    admission: AdmissionConfig,
}

/// Typed builder for [`FederatedTelescopeConfig`]; see
/// [`FederatedTelescopeConfig::builder`].
#[derive(Clone, Debug)]
pub struct FederatedTelescopeConfigBuilder {
    inner: FederatedTelescopeConfig,
}

impl FederatedTelescopeConfigBuilder {
    /// Sets the member-farm count (power of two).
    #[must_use]
    pub fn farms(mut self, farms: usize) -> Self {
        self.inner.farms = farms;
        self
    }

    /// Sets the global cell count (power of two, `>= farms`).
    #[must_use]
    pub fn cells(mut self, cells: usize) -> Self {
        self.inner.cells = cells;
        self
    }

    /// Sets the conservative barrier window width.
    #[must_use]
    pub fn window(mut self, window: SimTime) -> Self {
        self.inner.window = window;
        self
    }

    /// Installs a per-cell fault-plan template.
    #[must_use]
    pub fn faults(mut self, faults: FaultPlanConfig) -> Self {
        self.inner.faults = Some(faults);
        self
    }

    /// Sets the patient-zero count (requires the base farm's worm).
    #[must_use]
    pub fn seed_infections(mut self, n: usize) -> Self {
        self.inner.seed_infections = n;
        self
    }

    /// Sets the global admission/load-shedding policy.
    #[must_use]
    pub fn admission(mut self, admission: AdmissionConfig) -> Self {
        self.inner.admission = admission;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// As `FederatedTelescopeConfig::sharded`, which is the validator.
    pub fn build(self) -> Result<FederatedTelescopeConfig, ConfigError> {
        self.inner.sharded()?;
        Ok(self.inner)
    }
}

/// Per-farm link accounting, merged across the farm's cells and the
/// routing tier. All transport telemetry: layout-dependent by nature and
/// excluded from determinism digests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FarmLinkReport {
    /// The member farm index.
    pub farm: usize,
    /// The aggregate prefix this farm advertises.
    pub prefix: Ipv4Prefix,
    /// Cells this farm runs.
    pub(crate) cells: usize,
    /// Packets the routing tier decapsulated from this farm's uplink.
    pub uplink_packets: u64,
    /// Packets the tier forwarded down to this farm.
    pub downlink_packets: u64,
    /// Packets shed into this farm's cells by admission control.
    pub shed_packets: u64,
}

/// The federation tier's merged report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FederationReport {
    /// Member farm clusters.
    pub farms: usize,
    /// Global cells across the federation.
    pub cells: usize,
    /// Total monitored addresses across all farm advertisements.
    pub monitored_addresses: u64,
    /// Routes installed at the tier (one per farm).
    pub advertised_routes: usize,
    /// Fabric packets that crossed a *farm* boundary over GRE. Transport
    /// telemetry: grows with the farm count for the same scenario (0 for
    /// one farm) and is excluded from determinism digests, unlike
    /// `cross_cell_packets`, which is layout-invariant.
    pub cross_farm_packets: u64,
    /// Fabric deliveries shed by admission control. Layout-invariant:
    /// shedding is decided per destination cell.
    pub shed_packets: u64,
    /// Uplink frames dropped for lack of a route (0 in a well-formed
    /// layout: every farm advertises its slice).
    pub route_drops: u64,
    /// GRE frames that failed decapsulation at either end — the routing
    /// tier's uplink side or a farm's downlink ingress (0 in a well-formed
    /// layout).
    pub decap_errors: u64,
    /// Per-farm link accounting.
    pub per_farm: Vec<FarmLinkReport>,
}

/// Result of a federated replay: the same merged deterministic report a
/// sharded run produces, plus the federation tier's transport telemetry.
#[derive(Clone, Debug)]
pub struct FederatedTelescopeResult {
    /// Merged across every cell of every farm — byte-identical across
    /// farm groupings and worker counts.
    pub merged: ShardedTelescopeResult,
    /// The routing tier's view (layout-dependent transport telemetry).
    pub federation: FederationReport,
}

/// One barrier delivery on the cell fabric — the one `Remote` type of
/// [`CellWorld`], whether or not a hop is present.
///
/// `Local` batches stay inside a farm and carry packets directly; without
/// a hop every batch is `Local`. `Tunneled` batches crossed a farm
/// boundary: each packet was GRE-encapsulated on the source farm's uplink,
/// transited the routing tier, and arrives as a downlink frame keyed by
/// the owning farm — the destination cell decapsulates at the barrier.
/// Frame order is emission order, so delivery order matches the local
/// case 1:1.
pub(crate) enum FedBatch {
    Local(Vec<Packet>),
    Tunneled(Vec<Vec<u8>>),
}

/// Per-cell federation counters (merged per farm at assembly).
#[derive(Clone, Copy, Default)]
struct FedCellStats {
    tunneled_in_packets: u64,
    shed_packets: u64,
    decap_errors: u64,
}

snap_struct!(FedCellStats { tunneled_in_packets, shed_packets, decap_errors });

/// The federation hop of a member farm's cell: what happens to a fabric
/// batch at a farm boundary, on the way out ([`wrap`](FedHop::wrap)) and
/// on the way in ([`admit`](FedHop::admit)).
pub(crate) struct FedHop {
    farm_id: usize,
    layout: FederationLayout,
    /// The routing tier every hop of the run shares (its state is the
    /// snapshot's one `federation.router` section). Locked only while
    /// staging a cross-farm batch; every counter behind the lock is
    /// additive, so worker-thread lock order cannot affect any reported
    /// total.
    pub(crate) router: Arc<Mutex<FederationRouter>>,
    /// This farm's downlink terminator (key = farm id, prefix = the
    /// farm's advertised aggregate).
    ingress: TunnelEndpoint,
    admission: AdmissionConfig,
    stats: FedCellStats,
    /// The `fed.tunnel`/`fed.shed` lane, when the run is traced.
    pub(crate) tracer: Option<Tracer>,
}

impl FedHop {
    /// The uplink side. A batch for a cell of this farm stays local; one
    /// for another farm is encapsulated with this farm's key and transits
    /// the tier (decap → longest-prefix route → re-encap with the owner's
    /// key). A packet the table cannot route is a counted drop at the tier
    /// — never delivered, never a panic. Frame order preserves packet
    /// order.
    pub(crate) fn wrap(&self, dest_cell: usize, packets: Vec<Packet>) -> FedBatch {
        if self.layout.farm_of_cell(dest_cell) == self.farm_id {
            return FedBatch::Local(packets);
        }
        let mut router = self.router.lock().expect("router lock");
        FedBatch::Tunneled(
            packets
                .iter()
                .filter_map(|p| router.forward(self.farm_id as u32, p).map(|(_, frame)| frame))
                .collect(),
        )
    }

    /// The downlink side: decapsulates a tunneled batch, then applies
    /// global admission — shed everything once this cell's farm has logged
    /// `pressure_events` past the threshold. The decision reads only
    /// destination-cell state and applies to local and tunneled deliveries
    /// alike, so it is a pure function of simulation state — identical in
    /// every farm grouping. Returns the packets to deliver (none if shed).
    pub(crate) fn admit(
        &mut self,
        at: SimTime,
        batch: FedBatch,
        pressure_events: u64,
    ) -> Vec<Packet> {
        let packets: Vec<Packet> = match batch {
            FedBatch::Local(packets) => packets,
            FedBatch::Tunneled(frames) => {
                let decapsulated: Vec<Packet> = frames
                    .iter()
                    .filter_map(|frame| self.ingress.decapsulate(frame).ok())
                    .map(|(_key, packet)| packet)
                    .collect();
                self.stats.decap_errors += (frames.len() - decapsulated.len()) as u64;
                self.stats.tunneled_in_packets += decapsulated.len() as u64;
                if let Some(tracer) = &mut self.tracer {
                    tracer.instant(at, obs::FED_TUNNEL, decapsulated.len() as u64);
                }
                decapsulated
            }
        };
        if self.admission.shed_after_pressure_events.is_some_and(|t| pressure_events >= t) {
            self.stats.shed_packets += packets.len() as u64;
            if let Some(tracer) = &mut self.tracer {
                tracer.instant(at, obs::FED_SHED, packets.len() as u64);
            }
            return Vec::new();
        }
        packets
    }

    /// Encodes this hop's counters: the per-cell federation section of a
    /// snapshot. The ingress endpoint is configuration, rebuilt on attach.
    pub(crate) fn encode_fed_aux(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.stats.snap(&mut w);
        w.into_bytes()
    }

    /// Restores state captured by [`encode_fed_aux`](FedHop::encode_fed_aux)
    /// into a freshly attached hop.
    pub(crate) fn restore_fed_aux(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapReader::new(bytes, "core.fed.cell");
        let stats = Snap::unsnap(&mut r)?;
        r.finish()?;
        self.stats = stats;
        Ok(())
    }
}

/// Gives every prepared cell its hop: one routing tier for the run, one
/// ingress endpoint and (when traced) one federation lane per cell.
pub(crate) fn attach_hops(
    plan: &FederationPlan,
    config: &ShardedTelescopeConfig,
    shards: &mut [Shard<CellWorld>],
) -> Result<(), FarmError> {
    let layout = FederationLayout::new(config.base.radiation.telescope, plan.farms, config.cells)?;
    let router = Arc::new(Mutex::new(
        layout.router().map_err(|_| FarmError::BadConfig { what: "farm prefixes overlap" })?,
    ));
    for (cell, shard) in shards.iter_mut().enumerate() {
        let farm_id = layout.farm_of_cell(cell);
        let mut ingress = TunnelEndpoint::new();
        ingress
            .attach(Telescope { key: farm_id as u32, prefix: layout.farm_prefix(farm_id) })
            .expect("one telescope cannot overlap itself");
        shard.world.hop = Some(FedHop {
            farm_id,
            layout,
            router: Arc::clone(&router),
            ingress,
            admission: plan.admission,
            stats: FedCellStats::default(),
            tracer: config
                .trace
                .map(|trace| Tracer::new(Lane::Federation(cell).number(config.cells), trace)),
        });
    }
    Ok(())
}

/// Runs a federated telescope replay on `workers` OS threads.
///
/// `workers == 1` runs every cell of every farm on the calling thread (the
/// serial reference); any worker count — and any power-of-two farm count
/// over the same total range, cells, and seed — produces a byte-identical
/// merged report (see the module docs for the argument, and
/// `tests/prop_federation.rs` for the property).
///
/// # Errors
///
/// Returns [`FarmError::Config`] for an invalid layout (farm/cell
/// geometry), seed infections without a worm, or a farm the cells cannot
/// build.
pub fn run_telescope_federated(
    config: &FederatedTelescopeConfig,
    workers: usize,
) -> Result<FederatedTelescopeResult, FarmError> {
    let mut merged = run_telescope_sharded(&config.sharded()?, workers)?;
    let federation =
        merged.federation.take().ok_or(FarmError::BadConfig { what: "no federation hop" })?;
    Ok(FederatedTelescopeResult { merged, federation })
}

/// Merges the routing tier's counters with the per-cell hop stats; `None`
/// for a run without a hop.
pub(crate) fn assemble_federation(shards: &[Shard<CellWorld>]) -> Option<FederationReport> {
    let hops: Vec<&FedHop> = shards.iter().filter_map(|s| s.world.hop.as_ref()).collect();
    let first = hops.first()?;
    let layout = first.layout;
    let router = first.router.lock().expect("router lock");
    let mut per_farm = Vec::with_capacity(layout.farms());
    let mut cross_farm_packets = 0;
    let mut shed_packets = 0;
    let mut decap_errors = router.decap_drops();
    for farm in 0..layout.farms() {
        let link = router.link_stats(farm as u32);
        let mut farm_shed = 0;
        for hop in hops.iter().filter(|h| h.farm_id == farm) {
            farm_shed += hop.stats.shed_packets;
            cross_farm_packets += hop.stats.tunneled_in_packets;
            decap_errors += hop.stats.decap_errors;
        }
        shed_packets += farm_shed;
        per_farm.push(FarmLinkReport {
            farm,
            prefix: layout.farm_prefix(farm),
            cells: layout.cells_per_farm(),
            uplink_packets: link.uplink_packets,
            downlink_packets: link.downlink_packets,
            shed_packets: farm_shed,
        });
    }
    Some(FederationReport {
        farms: layout.farms(),
        cells: layout.cells(),
        monitored_addresses: router.monitored_addresses(),
        advertised_routes: router.advertised_routes(),
        cross_farm_packets,
        shed_packets,
        route_drops: router.route_drops(),
        decap_errors,
        per_farm,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::{
        recover_snapshot, resume_telescope_checkpointed, run_telescope_checkpointed,
        CheckpointOptions,
    };
    use crate::farm::FarmConfig;
    use potemkin_gateway::policy::PolicyConfig;
    use potemkin_workload::radiation::RadiationConfig;
    use potemkin_workload::worm::WormSpec;

    fn federated_config(farms: usize, cells: usize) -> FederatedTelescopeConfig {
        let mut farm = FarmConfig::small_test();
        farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
        farm.frames_per_server = 262_144;
        // The worm targets the whole monitored /16, so reflected probes
        // cross cell boundaries at any cells >= 2 and farm boundaries at
        // any farms >= 2.
        farm.worm = Some(WormSpec::code_red("10.1.0.0/16".parse().unwrap()));
        let base = TelescopeConfig {
            farm,
            radiation: RadiationConfig::default(),
            seed: 2005,
            duration: SimTime::from_secs(5),
            sample_interval: SimTime::from_secs(1),
            tick_interval: SimTime::from_secs(1),
        };
        FederatedTelescopeConfig::builder(base)
            .farms(farms)
            .cells(cells)
            .window(SimTime::from_millis(500))
            .seed_infections(2)
            .build()
            .unwrap()
    }

    /// The deterministic face of a federated result: the sharded one plus
    /// the layout-invariant shed counter. Transport telemetry (cross-farm
    /// counts, uplink packets) is excluded by convention.
    fn digest(r: &FederatedTelescopeResult) -> String {
        format!("{}|{}", r.merged.canonical_string(), r.federation.shed_packets)
    }

    #[test]
    fn merged_reports_are_identical_across_farm_groupings() {
        let reference = run_telescope_federated(&federated_config(1, 8), 1).unwrap();
        assert!(reference.merged.packets > 50);
        assert!(reference.merged.cross_cell_packets > 0, "worm must cross cells");
        assert_eq!(reference.federation.cross_farm_packets, 0, "one farm: nothing tunnels");
        for farms in [2, 4, 8] {
            for workers in [1, 4] {
                let run = run_telescope_federated(&federated_config(farms, 8), workers).unwrap();
                assert_eq!(
                    digest(&reference),
                    digest(&run),
                    "farms={farms} workers={workers} diverged"
                );
                assert_eq!(run.federation.farms, farms);
                assert_eq!(run.federation.advertised_routes, farms);
                assert_eq!(run.federation.monitored_addresses, 1 << 16);
                assert_eq!(run.federation.route_drops, 0);
                assert_eq!(run.federation.decap_errors, 0);
            }
        }
        // The worm space spans every farm prefix: reflection must
        // actually cross the tier.
        let split = run_telescope_federated(&federated_config(4, 8), 2).unwrap();
        assert!(split.federation.cross_farm_packets > 0, "worm must cross farms via GRE");
        assert!(
            split.federation.per_farm.iter().any(|f| f.uplink_packets > 0),
            "uplinks must carry traffic"
        );
        assert_eq!(split.merged.degradation.escaped, 0, "containment holds across the tier");
    }

    #[test]
    fn admission_sheds_identically_across_layouts() {
        let tighten = |mut config: FederatedTelescopeConfig| {
            // A tiny per-host frame budget forces pressure events early;
            // shedding starts after the first one.
            config.base.farm.memory_budget_frames = Some(24_000);
            config.admission = AdmissionConfig::shed_after(1);
            config
        };
        let one = run_telescope_federated(&tighten(federated_config(1, 8)), 1).unwrap();
        assert!(one.federation.shed_packets > 0, "budget must trigger shedding");
        for farms in [2, 8] {
            let many = run_telescope_federated(&tighten(federated_config(farms, 8)), 4).unwrap();
            assert_eq!(digest(&one), digest(&many), "farms={farms}");
            assert_eq!(many.federation.shed_packets, one.federation.shed_packets);
        }
    }

    /// A federated config small enough to checkpoint in a debug build
    /// (snapshot encoding walks every page table and free list).
    fn checkpointable_config(farms: usize, shedding: bool) -> FederatedTelescopeConfig {
        let mut config = federated_config(farms, 8);
        let mut profile = potemkin_vmm::guest::GuestProfile::small();
        profile.memory_pages = 1_024;
        profile.disk_blocks = 512;
        config.base.farm.profile = profile;
        config.base.farm.frames_per_server = 65_536;
        config.base.farm.worm = Some(WormSpec::code_red("10.1.0.0/18".parse().unwrap()));
        config.base.radiation.telescope = "10.1.0.0/18".parse().unwrap();
        config.base.duration = SimTime::from_secs(4);
        if shedding {
            config.base.farm.memory_budget_frames = Some(4_000);
            config.admission = AdmissionConfig::shed_after(1);
        }
        config
    }

    fn temp_snapshot(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("potemkin-fed-test-{}-{name}", std::process::id()))
    }

    /// Runs `config` until the barrier after `kill_at` windows, leaving one
    /// snapshot at `path`, and recovers it.
    fn kill_and_recover(
        config: &ShardedTelescopeConfig,
        kill_at: u64,
        path: &std::path::Path,
    ) -> potemkin_snapshot::SnapshotFile {
        let mut options = CheckpointOptions::new(path);
        options.every_windows = kill_at;
        options.stop_after_windows = Some(kill_at);
        let killed = run_telescope_checkpointed(config, 2, &options).unwrap();
        assert!(killed.checkpoints.interrupted);
        assert_eq!(killed.checkpoints.written, 1);
        let (snapshot, fell_back) = recover_snapshot(path).unwrap();
        assert!(!fell_back);
        let _ = std::fs::remove_file(path);
        snapshot
    }

    #[test]
    fn federated_kill_recover_resume_matches_uninterrupted() {
        for (case, shedding) in [false, true].into_iter().enumerate() {
            let config = checkpointable_config(4, shedding);
            let uninterrupted = run_telescope_federated(&config, 1).unwrap();
            assert!(uninterrupted.federation.cross_farm_packets > 0, "worm must cross farms");
            assert_eq!(uninterrupted.federation.shed_packets > 0, shedding);
            let sharded = config.sharded().unwrap();
            let path = temp_snapshot(&format!("resume{case}.snap"));
            for kill_at in [2, 5] {
                let snapshot = kill_and_recover(&sharded, kill_at, &path);
                let mut options = CheckpointOptions::new(&path);
                options.every_windows = 0;
                for workers in [1, 2] {
                    let resumed =
                        resume_telescope_checkpointed(&sharded, workers, &snapshot, &options)
                            .unwrap()
                            .result;
                    let what = format!("shedding={shedding} kill_at={kill_at} workers={workers}");
                    assert_eq!(
                        uninterrupted.merged.canonical_string(),
                        resumed.canonical_string(),
                        "{what}"
                    );
                    // The whole tier report: per-farm uplink and downlink
                    // packets, shed, route drops, decap errors.
                    assert_eq!(
                        Some(&uninterrupted.federation),
                        resumed.federation.as_ref(),
                        "{what}"
                    );
                }
            }
        }
    }

    /// Re-pinned, length unchanged, when twelve config fields nothing set
    /// were deleted: the header's config fingerprint hashes the config's
    /// `Debug` text. With the old fingerprint put back, the file digests
    /// to the old pin, `0x22598e8e93851d00`. Re-pinned for snapshot
    /// version 10: 1,244 bytes less — the 52-byte `meta` section, 9 bytes
    /// of progress a shard, and 140 bytes a one-host cell farm. Re-pinned
    /// for snapshot version 12, where an image is its profile and a domain
    /// carries no read or write tally.
    const FEDERATED_SNAPSHOT_PIN: (usize, u64) = (211_345, 0x7b8e54bd4eef0920);

    #[test]
    fn federated_snapshot_rejects_other_layouts_and_truncated_sections() {
        let config = checkpointable_config(4, false);
        let sharded = config.sharded().unwrap();
        let path = temp_snapshot("reject.snap");
        let snapshot = kill_and_recover(&sharded, 3, &path);
        let names = snapshot.section_names();
        assert!(names.contains(&"federation.router") && names.contains(&"cell7.fed"), "{names:?}");
        // The whole file — every cell's farm, world, queue and hop section
        // and the routing tier — re-pinned for snapshot version 6, which
        // shrank the frame tables to their shared rows and moved nothing else.
        assert_eq!((snapshot.encode().len(), snapshot.digest()), FEDERATED_SNAPSHOT_PIN);
        let options = CheckpointOptions::new(&path);
        let resume = |config: &ShardedTelescopeConfig,
                      snapshot: &potemkin_snapshot::SnapshotFile| {
            resume_telescope_checkpointed(config, 1, snapshot, &options).map(|_| ())
        };

        // A different farm grouping or admission policy is a different run.
        let mut regrouped = config.clone();
        regrouped.farms = 2;
        let mut shedding = config.clone();
        shedding.admission = AdmissionConfig::shed_after(1);
        let plain = ShardedTelescopeConfig { federation: None, ..sharded.clone() };
        for other in [regrouped.sharded().unwrap(), shedding.sharded().unwrap(), plain] {
            assert!(matches!(
                resume(&other, &snapshot),
                Err(FarmError::Snapshot(SnapshotError::ConfigMismatch { .. }))
            ));
        }

        // Truncated federation sections are rejected, not misdecoded; and
        // no section of any kind — progress, a cell's farm, world,
        // queue or hop, the routing tier — reserves room for a length its
        // payload could not hold.
        let hostile = (u64::MAX >> 4).to_le_bytes().to_vec();
        let corrupted = [("cell0.fed", None), ("federation.router", None)]
            .into_iter()
            .chain(names.iter().map(|&name| (name, Some(&hostile))));
        for (section, replacement) in corrupted {
            let mut torn = snapshot.clone();
            let payload =
                &mut torn.sections.iter_mut().find(|s| s.name == section).unwrap().payload;
            match replacement {
                Some(bytes) => payload.clone_from(bytes),
                None => drop(payload.pop()),
            }
            assert!(
                matches!(
                    resume(&sharded, &torn),
                    Err(FarmError::Snapshot(SnapshotError::Decode { .. }))
                ),
                "{section}"
            );
        }
    }

    #[test]
    fn federation_tracing_is_digest_invisible() {
        // The traced run is also checkpointed, so every tracer a run can
        // carry — farm, gateway, engine, federation, snapshot — is live.
        let config = checkpointable_config(2, false);
        let plain = run_telescope_federated(&config, 2).unwrap();
        let mut traced_config = config.clone();
        traced_config.trace = Some(potemkin_obs::TraceConfig::unbounded());
        let path = temp_snapshot("lanes.snap");
        let mut options = CheckpointOptions::new(&path);
        options.every_windows = 4;
        let traced = run_telescope_checkpointed(&traced_config.sharded().unwrap(), 2, &options)
            .unwrap()
            .result;
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(path.with_extension("snap.prev"));
        assert_eq!(plain.merged.canonical_string(), traced.canonical_string());
        assert_eq!(Some(&plain.federation), traced.federation.as_ref(), "observer-effect-free");
        // Lane numbers have one owner: no two tracers share one.
        let lanes = &traced.trace_lanes;
        assert_eq!(lanes.len(), 4 * config.cells + 1, "{lanes:?}");
        let numbers: std::collections::BTreeSet<u32> = lanes.iter().map(|(n, _)| *n).collect();
        assert_eq!(numbers.len(), lanes.len(), "two tracers on one lane: {lanes:?}");
        assert!(traced.trace.iter().all(|e| numbers.contains(&e.lane)), "unregistered lane");
        for name in [obs::FED_TUNNEL, obs::SNAP_SAVE] {
            assert!(traced.trace.iter().any(|e| e.name() == name), "{name} lane is silent");
        }
    }

    #[test]
    fn invalid_layouts_are_rejected() {
        let base = federated_config(1, 8).base;
        assert!(FederatedTelescopeConfig::builder(base.clone()).farms(3).cells(8).build().is_err());
        assert!(FederatedTelescopeConfig::builder(base.clone()).farms(8).cells(4).build().is_err());
        assert!(FederatedTelescopeConfig::builder(base.clone())
            .farms(2)
            .cells(4)
            .window(SimTime::ZERO)
            .build()
            .is_err());
        assert!(FederatedTelescopeConfig::builder(base).farms(2).cells(4).build().is_ok());
        // Mutated-after-build invalidity surfaces as a typed run error.
        let mut config = federated_config(2, 4);
        config.farms = 3;
        assert!(matches!(run_telescope_federated(&config, 1), Err(FarmError::Config(_))));
    }
}
