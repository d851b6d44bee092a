//! Sharded parallel telescope replay.
//!
//! Scaling a software honeyfarm past one core means splitting the monitored
//! address space. This driver partitions the telescope into a fixed number
//! of *cells* — each /24 hashes to one cell, each cell is a complete
//! [`Honeyfarm`] (gateway + servers) with its own event queue — and replays
//! them on the conservative time-window engine from `potemkin_sim::shard`.
//! Packets that cross cell boundaries (a reflected worm probe aimed at an
//! address another cell owns, a gateway reply to a non-local honeypot)
//! travel the internal fabric as batched remote messages, delivered at the
//! end of the window in which they were emitted.
//!
//! # One cell world, one run loop
//!
//! `CellWorld` is the only `ShardWorld` in this crate: federation
//! ([`crate::federation`]) and driven attackers ([`crate::interaction`]) are
//! two optional parts *of* it — a hop and a fleet, `None` in a plain
//! replay — switched on by crate-private options of the lowered
//! [`ShardedTelescopeConfig`]. `run_cells` is the single caller of the
//! window engine; every public driver lowers its config, calls it, and
//! assembles its own result.
//!
//! A plain telescope replay and an in-farm worm outbreak are runs of the
//! same loop too: one cell on one worker, the outbreak with the worm's
//! scan space as its telescope, a zero radiation rate and
//! `seed_infections(n)`; a loaded capture replays in the radiation's place,
//! partitioned like it. [`ShardedTelescopeResult`] is the one result type,
//! infection curve included.
//!
//! # Determinism
//!
//! The partition (`cells`), the barrier width (`window`), and the seeds
//! fully determine the result. The worker-thread count only changes which
//! OS thread executes a cell inside a window — never the cell's event
//! order, because cells share no state within a window and cross-cell
//! deliveries are merged in canonical `(window, source cell)` order. A run
//! with eight workers is therefore byte-identical to the serial one-worker
//! run; `tests/prop_parallel.rs` asserts this across seeds, worker counts,
//! and fault schedules.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use potemkin_gateway::binding::VmRef;
use potemkin_net::addr::Ipv4Prefix;
use potemkin_net::Packet;
use potemkin_obs::TimeSeries;
use potemkin_sim::{
    run_sharded_resumable, BarrierControl, EngineTuning, EventQueue, FaultPlan, FaultPlanConfig,
    Shard, ShardConfig, ShardRunReport, ShardWorld, SimTime, Slab, World,
};
use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError, SnapshotFile};
use potemkin_workload::radiation::RadiationModel;
use potemkin_workload::trace::{Trace, TrafficMix};

use crate::checkpoint::{restore_snapshot, CheckpointSink};
use crate::error::FarmError;
use crate::farm::{FarmOutput, Honeyfarm};
use crate::federation::{FedBatch, FedHop, FederationPlan, FederationReport};
use crate::interaction::{Fleet, FleetPlan};
use crate::report::{DegradationReport, FarmStats};
use crate::scenario::TelescopeConfig;

/// `splitmix64` — the statelessly-seedable mixer used for cell routing and
/// per-cell seed derivation. Chosen for full avalanche at 3 multiplies.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The cell owning `addr`: a stable hash of its /24, reduced modulo the
/// cell count. Whole /24s stay together so a scanner sweeping a subnet
/// lands in one cell.
///
/// # Panics
///
/// Panics if `cells` is zero.
#[must_use]
pub(crate) fn cell_for(addr: Ipv4Addr, cells: usize) -> usize {
    assert!(cells > 0, "cells must be >= 1");
    let subnet = u64::from(u32::from(addr) >> 8);
    (splitmix64(subnet) % cells as u64) as usize
}

/// Derives the private seed for one cell from a run-wide base seed, so
/// cells draw from disjoint RNG streams regardless of how many there are.
#[must_use]
pub(crate) fn derive_cell_seed(base: u64, cell: usize) -> u64 {
    splitmix64(base ^ splitmix64(cell as u64 + 1))
}

/// How telescope addresses map onto cells.
///
/// Both maps are pure functions of `(telescope, cells, addr)`, so either
/// choice is deterministic at any worker count; they differ in *shape*:
///
/// * [`Hashed`](CellMap::Hashed) scatters /24s across cells for load
///   balance — the default, and the historical behavior.
/// * [`Sliced`](CellMap::Sliced) gives cell `i` the `i`-th contiguous
///   sub-prefix of the telescope ([`Ipv4Prefix::subprefix`]). Contiguous
///   ownership is what a federation needs: any power-of-two *grouping* of
///   cells owns one clean aggregate prefix it can advertise into a route
///   table, and regrouping (1 farm vs. 16) never moves an address between
///   cells — the partition, and therefore every per-cell event order, is
///   layout-invariant.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CellMap {
    /// Stable hash of the address's /24, reduced modulo the cell count.
    #[default]
    Hashed,
    /// Contiguous equal sub-prefixes; requires a power-of-two cell count
    /// no larger than the telescope.
    Sliced,
}

impl CellMap {
    /// The cell owning `addr` under this map. `addr` must be a telescope
    /// address for `Sliced` (callers check membership first).
    ///
    /// # Panics
    ///
    /// Panics if `cells` is zero, or for `Sliced` when `addr` is outside
    /// `telescope` or `cells` does not evenly split it — all rejected at
    /// config validation.
    #[must_use]
    pub(crate) fn owner(self, telescope: Ipv4Prefix, addr: Ipv4Addr, cells: usize) -> usize {
        match self {
            CellMap::Hashed => cell_for(addr, cells),
            CellMap::Sliced => {
                assert!(cells > 0, "cells must be >= 1");
                let index = telescope.index_of(addr).expect("sliced map needs a telescope address");
                let slice_len = telescope.len() / cells as u64;
                assert!(
                    slice_len > 0 && telescope.len().is_multiple_of(cells as u64),
                    "sliced map needs cells to split the telescope evenly"
                );
                (index / slice_len) as usize
            }
        }
    }
}

/// One cell's slice of a sharded telescope: which addresses it owns.
#[derive(Clone, Copy, Debug)]
pub(crate) struct CellSlot {
    /// The monitored prefix the run covers.
    pub(crate) telescope: Ipv4Prefix,
    /// This cell's index.
    pub(crate) index: usize,
    /// Total number of cells.
    pub(crate) count: usize,
    /// How addresses map to cells.
    pub(crate) map: CellMap,
}

impl CellSlot {
    /// The index of the *other* cell owning `dst`, or `None` when `dst`
    /// is outside the telescope or owned by this cell. Resolving the
    /// owner once at emission spares the fabric a second `cell_for` hash
    /// per forwarded packet.
    #[must_use]
    pub(crate) fn route(&self, dst: Ipv4Addr) -> Option<usize> {
        if !self.telescope.contains(dst) {
            return None;
        }
        let owner = self.map.owner(self.telescope, dst, self.count);
        (owner != self.index).then_some(owner)
    }
}

/// Configuration of a sharded telescope replay.
///
/// Construct via [`ShardedTelescopeConfig::builder`]; the struct is
/// `#[non_exhaustive]`, so new knobs may be added without breaking
/// downstream crates.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ShardedTelescopeConfig {
    /// The scenario (per-cell farm template, radiation, horizon). Each
    /// cell instantiates `base.farm` with a seed derived from
    /// `derive_cell_seed(base.farm.seed, cell)`.
    pub base: TelescopeConfig,
    /// Number of address-space cells. Fixed per run: results depend on it,
    /// the worker count does not change them.
    pub cells: usize,
    /// How telescope addresses map onto cells (results depend on it, like
    /// `cells`). The default [`CellMap::Hashed`] preserves the historical
    /// scattered-/24 partition; [`CellMap::Sliced`] assigns contiguous
    /// sub-prefixes, the shape federated layouts advertise.
    pub(crate) cell_map: CellMap,
    /// Conservative barrier window width.
    pub window: SimTime,
    /// Per-cell fault plans, generated from this template with a per-cell
    /// derived seed (None = fault-free).
    pub faults: Option<FaultPlanConfig>,
    /// Patient-zero infections to seed (requires `base.farm.worm`); they
    /// are placed on distinct telescope addresses in their owning cells,
    /// and their probes propagate across the cell fabric.
    pub(crate) seed_infections: usize,
    /// Observability: when set, every cell farm records spans (farm lane
    /// `2*cell`, gateway lane `2*cell + 1`) and the engine's window batches
    /// are synthesized into per-shard worker lanes. `None` leaves tracing
    /// compiled out of the hot path. Tracing never changes any
    /// deterministic result field.
    pub trace: Option<potemkin_obs::TraceConfig>,
    /// Engine performance tuning: load-aware worker rebalancing and
    /// adaptive window sizing. The default is everything off (static
    /// round-robin assignment, fixed `window`). Every knob is
    /// digest-invariant or deterministic-per-configuration — see
    /// [`EngineTuning`].
    pub tuning: EngineTuning,
    /// The federation hop every cell carries, set only by
    /// [`FederatedTelescopeConfig::sharded`](crate::federation::FederatedTelescopeConfig::sharded).
    pub(crate) federation: Option<FederationPlan>,
    /// The attacker fleet, set only by the interaction driver's lowering.
    pub(crate) fleet: Option<FleetPlan>,
    /// A loaded capture replayed in place of the radiation model's trace
    /// (see [`ShardedTelescopeConfigBuilder::capture`]).
    pub(crate) capture: Option<Arc<Trace>>,
}

impl ShardedTelescopeConfig {
    /// A validating builder: one cell, a 500 ms barrier window, no
    /// faults, no seed infections, tracing off.
    #[must_use]
    pub fn builder(base: TelescopeConfig) -> ShardedTelescopeConfigBuilder {
        ShardedTelescopeConfigBuilder {
            inner: ShardedTelescopeConfig {
                base,
                cells: 1,
                cell_map: CellMap::Hashed,
                window: SimTime::from_millis(500),
                faults: None,
                seed_infections: 0,
                trace: None,
                tuning: EngineTuning::default(),
                federation: None,
                fleet: None,
                capture: None,
            },
        }
    }

    /// The builder's checks, re-run by the run loop because the fields are
    /// public and may have been edited since `build`.
    fn validate(&self) -> Result<(), potemkin_gateway::ConfigError> {
        let bad = |field, reason| {
            Err(potemkin_gateway::ConfigError::new("ShardedTelescopeConfig", field, reason))
        };
        self.base.validate()?;
        let radiation = &self.base.radiation;
        if !(radiation.peak_source_rate >= 0.0 && radiation.peak_source_rate.is_finite()) {
            return bad("base.radiation.peak_source_rate", "rate must be finite and >= 0");
        }
        if radiation.ports.is_empty() {
            return bad("base.radiation.ports", "radiation needs at least one port");
        }
        if self.seed_infections as u64 > radiation.telescope.len() {
            return bad("seed_infections", "more seed infections than telescope addresses");
        }
        if self.cells == 0 {
            return bad("cells", "must be > 0");
        }
        if self.window == SimTime::ZERO {
            return bad("window", "must be > 0");
        }
        if self.cell_map == CellMap::Sliced
            && (!self.cells.is_power_of_two()
                || self.cells as u64 > self.base.radiation.telescope.len())
        {
            return bad("cell_map", "sliced map needs a power-of-two cell count <= telescope size");
        }
        if self.seed_infections > 0 && self.base.farm.worm.is_none() {
            return bad("seed_infections", "seeding infections needs base.farm.worm");
        }
        if self.tuning.adaptive.is_some_and(|a| a.min == SimTime::ZERO || a.min > a.max) {
            return bad("tuning.adaptive", "adaptive window needs 0 < min <= max");
        }
        let events = self.capture.as_ref().map_or(&[][..], |capture| capture.events());
        if events.iter().any(|e| !radiation.telescope.contains(e.packet.dst())) {
            return bad("capture", "a captured destination is outside base.radiation.telescope");
        }
        // A packet stamped at or past the horizon is never delivered: a
        // capture with epoch stamps would replay nothing. Stamps are kept
        // as written (a saved trace reads back as the run it came from).
        if let Some(late) = events.iter().find(|e| e.at >= self.base.duration) {
            return Err(late_capture(late.at, self.base.duration));
        }
        Ok(())
    }
}

/// The error for a capture with a packet stamped `at`, at or past the
/// run's `duration`. The reason names the stamp, but `ConfigError` holds a
/// `&'static str`: an owned reason widens every `Result<_, ConfigError>`
/// and slows every config build. So the message is leaked, once per
/// refused capture, which never runs.
#[cold]
fn late_capture(at: SimTime, duration: SimTime) -> potemkin_gateway::ConfigError {
    let reason = format!("a captured packet is stamped {at}, at or past base.duration {duration}");
    potemkin_gateway::ConfigError::new("ShardedTelescopeConfig", "capture", reason.leak())
}

/// Typed builder for [`ShardedTelescopeConfig`]; see
/// [`ShardedTelescopeConfig::builder`].
#[derive(Clone, Debug)]
pub struct ShardedTelescopeConfigBuilder {
    inner: ShardedTelescopeConfig,
}

impl ShardedTelescopeConfigBuilder {
    /// Sets the address-space cell count.
    #[must_use]
    pub fn cells(mut self, cells: usize) -> Self {
        self.inner.cells = cells;
        self
    }

    /// Sets the address→cell map (default: [`CellMap::Hashed`]).
    #[must_use]
    pub fn cell_map(mut self, map: CellMap) -> Self {
        self.inner.cell_map = map;
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

    /// Enables per-cell tracing.
    #[must_use]
    pub fn trace(mut self, trace: potemkin_obs::TraceConfig) -> Self {
        self.inner.trace = Some(trace);
        self
    }

    /// Sets the engine performance tuning (rebalancing, adaptive windows).
    #[must_use]
    pub fn tuning(mut self, tuning: EngineTuning) -> Self {
        self.inner.tuning = tuning;
        self
    }

    /// Replays `capture` (a trace read from a pcap file, every destination
    /// a telescope address) in place of the radiation `base.radiation`
    /// would generate, partitioned, queued and summarized the same way.
    #[must_use]
    pub fn capture(mut self, capture: Arc<Trace>) -> Self {
        self.inner.capture = Some(capture);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`](potemkin_gateway::ConfigError) for a zero
    /// horizon, tick or sample interval in `base`, a radiation rate that
    /// is negative, NaN or infinite, radiation without ports, zero cells,
    /// a zero window, a sliced map that cannot split the
    /// telescope, seed infections without a worm on the base farm or more
    /// of them than telescope addresses, bad adaptive bounds, or a capture
    /// with a destination outside the telescope.
    pub fn build(self) -> Result<ShardedTelescopeConfig, potemkin_gateway::ConfigError> {
        self.inner.validate()?;
        Ok(self.inner)
    }
}

/// Result of a run: the replayed trace's facts and the cells' farms merged,
/// plus engine telemetry.
#[derive(Clone, Debug)]
pub struct ShardedTelescopeResult {
    /// Live-VM count over time, summed across cells per sample bin.
    pub live_vm_series: TimeSeries,
    /// Cumulative infections at each sample time — the SI model's I(t),
    /// patient zeros counted from t = 0 — from the cells' infection logs.
    /// One bin per `live_vm_series` bin; not part of
    /// [`canonical_string`](Self::canonical_string).
    pub infected_series: TimeSeries,
    /// Packets in the replayed trace.
    pub packets: u64,
    /// Distinct external sources in the trace.
    pub distinct_sources: u64,
    /// Distinct telescope addresses touched by the trace.
    pub distinct_destinations: u64,
    /// Peak of the merged per-sample live-VM series (the farm-wide peak up
    /// to sample resolution).
    pub peak_live_vms: f64,
    /// Traffic-mix breakdown of the replayed trace.
    pub mix: TrafficMix,
    /// Merged farm statistics (`FarmStats::collect_sharded`).
    pub stats: FarmStats,
    /// Merged fault/degradation report
    /// (`DegradationReport::collect_sharded`).
    pub degradation: DegradationReport,
    /// Packets that crossed a cell boundary over the internal fabric.
    pub cross_cell_packets: u64,
    /// Final infected-VM count across cells.
    pub final_infected: usize,
    /// Engine telemetry: per-shard event counts, per-window batch timings.
    pub engine: ShardRunReport,
    /// Merged trace events (empty unless
    /// [`ShardedTelescopeConfig::trace`] was set), in
    /// `(sim-time, lane, seq)` order. Excluded from determinism digests by
    /// convention: sim-time content is deterministic, but wall-clock
    /// stamps (when enabled) are not.
    pub trace: Vec<potemkin_obs::TraceEvent>,
    /// Lane-number → human-readable lane name pairs for the trace
    /// exporters.
    pub trace_lanes: Vec<(u32, String)>,
    /// The routing tier's transport telemetry, present when the config
    /// was lowered from a federated one. Layout-dependent, so excluded
    /// from [`canonical_string`](Self::canonical_string).
    pub federation: Option<FederationReport>,
}

impl ShardedTelescopeResult {
    /// The deterministic face of a result — no wall-clock, trace or
    /// transport telemetry — as the one string the determinism experiments
    /// (E14, E18) and property suites hash and compare.
    #[must_use]
    pub fn canonical_string(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{:?}|{}",
            self.degradation.canonical_string(),
            self.stats.live_vms,
            self.stats.counters.get("packets_in"),
            self.packets,
            self.cross_cell_packets,
            self.final_infected,
            self.live_vm_series.iter().collect::<Vec<_>>(),
            self.engine.remote_messages,
        )
    }
}

pub(crate) enum CellEvent {
    /// An inbound packet, stored out-of-line in [`CellWorld::packets`];
    /// the payload is the slab key. Storing packets in a slab keeps the
    /// event enum `Copy`-sized and recycles packet slots in steady state
    /// instead of boxing each one.
    Packet(usize),
    Probe {
        vm: VmRef,
        idx: u64,
    },
    Tick,
    Sample,
}

/// The one [`ShardWorld`] of this crate: a cell is a complete farm, a
/// packet slab, the staging area of the cell fabric, and two optional
/// parts — a federation hop and an attacker fleet — that are `None` in a
/// plain telescope replay.
pub(crate) struct CellWorld {
    slot: CellSlot,
    pub(crate) farm: Honeyfarm,
    /// Arena for pending [`CellEvent::Packet`] payloads. Slots are
    /// recycled through an intrusive freelist, so the steady-state packet
    /// path allocates nothing per event.
    pub(crate) packets: Slab<Packet>,
    probe_gap: Option<SimTime>,
    tick_interval: SimTime,
    sample_interval: SimTime,
    duration: SimTime,
    live_vm_series: TimeSeries,
    /// Cross-cell packets staged for the current window, indexed by
    /// destination cell. Direct indexing replaces the former per-packet
    /// `BTreeMap` entry lookups; iteration by index keeps the per-window
    /// destination order canonical.
    outbound: Vec<Vec<Packet>>,
    forwarded: u64,
    /// The member-farm boundary: batches for a cell of another farm ride
    /// GRE through the routing tier, and every inbound batch passes
    /// admission.
    pub(crate) hop: Option<FedHop>,
    /// Closed-loop scripted attackers aimed at this cell. When present,
    /// farm replies to *external* (non-telescope) destinations feed their
    /// conversations instead of being dropped at the tunnel boundary.
    pub(crate) fleet: Option<Fleet>,
}

impl CellWorld {
    /// Drains farm outputs, staging every packet whose destination another
    /// cell owns for barrier delivery. `SentExternal` covers permissive
    /// policies (e.g. allow-all) emitting telescope-destined packets;
    /// `ForwardedCell` is the reflect path surfacing non-local
    /// reflections (its owning cell was resolved at emission).
    fn route_outputs(&mut self) {
        let slot = self.slot;
        for out in self.farm.drain_outputs() {
            let (packet, dest) = match out {
                FarmOutput::ForwardedCell { packet, cell } => (packet, cell),
                FarmOutput::SentExternal(p) if slot.telescope.contains(p.dst()) => {
                    let dest = slot.map.owner(slot.telescope, p.dst(), slot.count);
                    (p, dest)
                }
                FarmOutput::SentExternal(p) => {
                    if let Some(fleet) = &mut self.fleet {
                        fleet.replies.push(p);
                    }
                    continue;
                }
                _ => continue,
            };
            self.forwarded += 1;
            self.outbound[dest].push(packet);
        }
    }

    fn schedule_new_infections(&mut self, now: SimTime, q: &mut EventQueue<CellEvent>) {
        let Some(gap) = self.probe_gap else {
            self.farm.take_new_infections();
            return;
        };
        for vm in self.farm.take_new_infections() {
            q.schedule(now + gap, CellEvent::Probe { vm, idx: 0 });
        }
    }
}

impl World for CellWorld {
    type Event = CellEvent;

    fn handle(&mut self, now: SimTime, event: CellEvent, q: &mut EventQueue<CellEvent>) {
        match event {
            CellEvent::Packet(key) => {
                let packet = self.packets.remove(key).expect("scheduled packet key is live");
                self.farm.inject_external(now, packet);
                self.schedule_new_infections(now, q);
            }
            CellEvent::Probe { vm, idx } => {
                if self.farm.worm_probe(now, vm, idx) {
                    if let Some(gap) = self.probe_gap {
                        q.schedule(now + gap, CellEvent::Probe { vm, idx: idx + 1 });
                    }
                }
                self.schedule_new_infections(now, q);
            }
            CellEvent::Tick => {
                self.farm.tick(now);
                if now + self.tick_interval < self.duration {
                    q.schedule(now + self.tick_interval, CellEvent::Tick);
                }
            }
            CellEvent::Sample => {
                self.live_vm_series.record_max(now, self.farm.live_vms() as f64);
                if now + self.sample_interval < self.duration {
                    q.schedule(now + self.sample_interval, CellEvent::Sample);
                }
            }
        }
        self.route_outputs();
        if let Some(fleet) = &mut self.fleet {
            fleet.drain_replies(now, &mut self.packets, q);
        }
    }
}

impl ShardWorld for CellWorld {
    type Remote = FedBatch;

    fn take_outbound(&mut self) -> Vec<(usize, FedBatch)> {
        // The engine calls this exactly once per shard per window — it is
        // the barrier hook, so window-batched farm bookkeeping (the
        // gateway's hot counters) flushes here.
        self.farm.end_window();
        let mut staged = Vec::new();
        for (dest, packets) in self.outbound.iter_mut().enumerate() {
            if packets.is_empty() {
                continue;
            }
            let packets = std::mem::take(packets);
            let batch = match &self.hop {
                Some(hop) => hop.wrap(dest, packets),
                None => FedBatch::Local(packets),
            };
            staged.push((dest, batch));
        }
        staged
    }

    fn accept_remote(&mut self, at: SimTime, batch: FedBatch, queue: &mut EventQueue<CellEvent>) {
        let packets = match (&mut self.hop, batch) {
            (Some(hop), batch) => {
                hop.admit(at, batch, self.farm.counters().get("memory_pressure_events"))
            }
            (None, FedBatch::Local(packets)) => packets,
            (None, FedBatch::Tunneled(_)) => return, // only a hop tunnels
        };
        for packet in packets {
            let key = self.packets.insert(packet);
            queue.schedule(at, CellEvent::Packet(key));
        }
    }
}

/// The cells of a run, plus the deterministic facts about the replayed
/// trace (regenerated from config + seed, or the capture's, at prepare
/// time, so a resumed run reports identical values without storing them).
pub(crate) struct PreparedRun {
    pub(crate) shards: Vec<Shard<CellWorld>>,
    packets: u64,
    distinct_sources: u64,
    distinct_destinations: u64,
    mix: TrafficMix,
}

/// Builds the per-cell farms and shard queues for a sharded replay.
///
/// With `schedule == true` the queues are primed for a fresh run: initial
/// `Sample`/`Tick` events, patient-zero infections, and the partitioned
/// trace, the capture or else the generated radiation. With
/// `schedule == false` the queues stay empty and no farm state is touched
/// beyond construction — the caller restores both from a checkpoint (the
/// trace is still at hand, so its metadata fields can be reported).
fn prepare_shards(
    config: &ShardedTelescopeConfig,
    schedule: bool,
) -> Result<PreparedRun, FarmError> {
    config.validate()?;
    let base = &config.base;
    let telescope = base.radiation.telescope;

    let generate =
        || RadiationModel::new(base.radiation.clone(), base.seed).generate(base.duration);
    let trace = config.capture.as_deref().map_or_else(|| Cow::Owned(generate()), Cow::Borrowed);
    let packets = trace.len() as u64;
    let distinct_sources = trace.distinct_sources() as u64;
    let distinct_destinations = trace.distinct_destinations() as u64;
    let mix = trace.traffic_mix();

    let probe_gap = base.farm.worm.as_ref().map(potemkin_workload::worm::WormSpec::probe_gap);
    // One shared config for every cell: the farm template (service tables,
    // hitlists, profiles) is cloned once into the `Arc`, not per cell;
    // per-cell variation is only the derived RNG seed.
    let farm_template = Arc::new(base.farm.clone());
    let mut shards = Vec::with_capacity(config.cells);
    for cell in 0..config.cells {
        let mut farm = Honeyfarm::with_shared_config(
            Arc::clone(&farm_template),
            derive_cell_seed(base.farm.seed, cell),
        )?;
        let slot = CellSlot { telescope, index: cell, count: config.cells, map: config.cell_map };
        farm.assign_cell(slot);
        if let Some(template) = &config.faults {
            let mut plan_config = *template;
            plan_config.seed = derive_cell_seed(template.seed, cell);
            farm.install_fault_plan(FaultPlan::generate(&plan_config));
        }
        if let Some(trace_config) = config.trace {
            farm.enable_tracing(trace_config, Lane::Farm(cell).number(config.cells));
        }
        let world = CellWorld {
            slot,
            farm,
            packets: Slab::new(),
            probe_gap,
            tick_interval: base.tick_interval,
            sample_interval: base.sample_interval,
            duration: base.duration,
            live_vm_series: TimeSeries::new(base.sample_interval),
            outbound: vec![Vec::new(); config.cells],
            forwarded: 0,
            hop: None,
            fleet: None,
        };
        let mut shard = Shard::new(world);
        if schedule {
            shard.queue.schedule(SimTime::ZERO, CellEvent::Sample);
            shard.queue.schedule(base.tick_interval, CellEvent::Tick);
        }
        shards.push(shard);
    }

    if schedule {
        // Patient zeroes: distinct telescope addresses, each materialized
        // and seeded in the cell that owns it, scanning from time zero.
        for i in 0..config.seed_infections {
            let addr = telescope
                .addr_at(i as u64)
                .ok_or(FarmError::BadConfig { what: "more seed infections than addresses" })?;
            let cell = config.cell_map.owner(telescope, addr, config.cells);
            let shard = &mut shards[cell];
            let vm =
                shard.world.farm.materialize(SimTime::ZERO, addr).ok_or(FarmError::NoCapacity)?;
            shard.world.farm.seed_infection(vm)?;
            if let Some(gap) = probe_gap {
                shard.queue.schedule(gap, CellEvent::Probe { vm, idx: 0 });
            }
        }

        // Partition the trace: each packet goes to the cell owning its
        // destination, in trace order (the queue's FIFO tie-break keeps
        // same-timestamp arrivals in this order).
        for event in trace.into_owned().into_events() {
            let cell = config.cell_map.owner(telescope, event.packet.dst(), config.cells);
            let shard = &mut shards[cell];
            let key = shard.world.packets.insert(event.packet);
            shard.queue.schedule(event.at, CellEvent::Packet(key));
        }
        // The optional fleet: its opening SYNs go in after the trace, so
        // same-instant arrivals keep trace-then-attacker order.
        if let Some(plan) = &config.fleet {
            crate::interaction::launch_fleet(plan, config, &mut shards);
        }
    }
    if let Some(plan) = &config.federation {
        crate::federation::attach_hops(plan, config, &mut shards)?;
    }

    Ok(PreparedRun { shards, packets, distinct_sources, distinct_destinations, mix })
}

/// The one place the window engine is called. Prepares the cells — fresh,
/// or restored from `resume`'s snapshot and optionally reseeded with its
/// salt into a what-if fork — runs them to the horizon (or to the barrier
/// at which `sink` stops the run), and hands back the shards as the engine
/// left them with its report. Every public driver lowers its config to a
/// [`ShardedTelescopeConfig`], calls this, and assembles its own result.
pub(crate) fn run_cells(
    config: &ShardedTelescopeConfig,
    workers: usize,
    resume: Option<(&SnapshotFile, Option<u64>)>,
    mut sink: Option<&mut CheckpointSink<'_>>,
) -> Result<(PreparedRun, ShardRunReport), FarmError> {
    let mut run = prepare_shards(config, resume.is_none())?;
    let mut progress = None;
    if let Some((snapshot, salt)) = resume {
        let restored = restore_snapshot(config, snapshot, &mut run.shards)?;
        if let Some(salt) = salt {
            for shard in &mut run.shards {
                shard.world.farm.reseed(salt);
            }
        }
        if let Some(sink) = sink.as_mut() {
            sink.restored(restored.window_start, snapshot);
        }
        progress = Some(restored);
    }
    let (engine, _interrupted) = run_sharded_resumable(
        &mut run.shards,
        config.base.duration,
        &ShardConfig { window: config.window, workers, tuning: config.tuning },
        progress,
        |progress, shards| match sink.as_mut() {
            Some(sink) => sink.on_barrier(progress, shards),
            None => BarrierControl::Continue,
        },
    );
    Ok((run, engine))
}

/// Merges finished shards and engine telemetry into the public result.
pub(crate) fn assemble_result(
    config: &ShardedTelescopeConfig,
    run: PreparedRun,
    engine: ShardRunReport,
) -> ShardedTelescopeResult {
    let PreparedRun { mut shards, packets, distinct_sources, distinct_destinations, mix } = run;
    let farms: Vec<&Honeyfarm> = shards.iter().map(|s| &s.world.farm).collect();
    let stats = FarmStats::collect_sharded(farms.iter().copied());
    let degradation = DegradationReport::collect_sharded(farms.iter().copied());
    let mut live_vm_series = TimeSeries::new(config.base.sample_interval);
    let mut infected_at = Vec::new();
    let mut cross_cell_packets = 0;
    let mut final_infected = 0;
    for shard in shards.iter() {
        live_vm_series.merge(&shard.world.live_vm_series);
        cross_cell_packets += shard.world.forwarded;
        final_infected += shard.world.farm.infected_vms();
        infected_at.extend(shard.world.farm.infection_log().iter().map(|record| record.at));
    }
    infected_at.sort_unstable();
    let mut infected_series = TimeSeries::new(config.base.sample_interval);
    for (at, _) in live_vm_series.iter() {
        infected_series.add(at, infected_at.partition_point(|&t| t <= at) as f64);
    }
    let peak_live_vms = live_vm_series.peak();
    let federation = crate::federation::assemble_federation(&shards);
    let (trace_events, trace_lanes) = collect_traces(config, &mut shards, &engine);
    ShardedTelescopeResult {
        live_vm_series,
        infected_series,
        packets,
        distinct_sources,
        distinct_destinations,
        peak_live_vms,
        mix,
        stats,
        degradation,
        cross_cell_packets,
        final_infected,
        engine,
        trace: trace_events,
        trace_lanes,
        federation,
    }
}

/// Runs a sharded telescope replay on `workers` OS threads.
///
/// `workers == 1` runs every cell on the calling thread (the serial
/// reference); any larger count produces byte-identical merged reports.
/// One cell on one worker is the plain replay, and — with a zero radiation
/// rate and seed infections — the in-farm worm outbreak.
///
/// # Examples
///
/// ```
/// use potemkin_core::farm::FarmConfig;
/// use potemkin_core::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
/// use potemkin_core::scenario::TelescopeConfig;
/// use potemkin_sim::SimTime;
/// use potemkin_workload::radiation::RadiationConfig;
/// use potemkin_workload::worm::WormSpec;
///
/// // An outbreak: the telescope is the worm's scan space and is quiet.
/// let space = "10.1.0.0/28".parse().unwrap();
/// let mut farm = FarmConfig::small_test();
/// farm.worm = Some(WormSpec::code_red(space));
/// farm.frames_per_server = 200_000;
/// let quiet = RadiationConfig { telescope: space, peak_source_rate: 0.0, ..Default::default() };
/// let base = TelescopeConfig::builder(farm, quiet).duration(SimTime::from_secs(5)).build().unwrap();
/// let config = ShardedTelescopeConfig::builder(base).seed_infections(1).build().unwrap();
/// let result = run_telescope_sharded(&config, 1).unwrap();
/// assert!(result.final_infected >= 1);
/// assert_eq!(result.degradation.escaped, 0, "reflection contains the worm");
/// ```
///
/// # Errors
///
/// Returns [`FarmError::Config`] for a config
/// [`ShardedTelescopeConfigBuilder::build`] rejects, or a farm the cells
/// cannot build.
pub fn run_telescope_sharded(
    config: &ShardedTelescopeConfig,
    workers: usize,
) -> Result<ShardedTelescopeResult, FarmError> {
    let (run, engine) = run_cells(config, workers, None, None)?;
    Ok(assemble_result(config, run, engine))
}

/// Encodes one cell's driver state (everything around the farm: the merged
/// live-VM samples, fabric counters, and any packets staged for other
/// cells). The farm itself is a separate snapshot section.
pub(crate) fn encode_cell_aux(world: &CellWorld) -> Vec<u8> {
    let mut w = SnapWriter::new();
    world.live_vm_series.snap(&mut w);
    w.u64(world.forwarded);
    // Same wire shape as the former map-based staging: only non-empty
    // destinations, in ascending order.
    let staged: Vec<(usize, &Vec<Packet>)> =
        world.outbound.iter().enumerate().filter(|(_, packets)| !packets.is_empty()).collect();
    w.seq(staged, |(dest, packets), w| {
        dest.snap(w);
        packets.snap(w);
    });
    w.into_bytes()
}

/// Restores state captured by [`encode_cell_aux`] into a freshly prepared
/// cell world.
pub(crate) fn restore_cell_aux(world: &mut CellWorld, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut r = SnapReader::new(bytes, "core.cell");
    let live_vm_series = Snap::unsnap(&mut r)?;
    let forwarded = r.u64()?;
    let staged = Vec::<(usize, Vec<Packet>)>::unsnap(&mut r)?;
    r.finish()?;
    let mut outbound = vec![Vec::new(); world.outbound.len()];
    for (dest, packets) in staged {
        *outbound.get_mut(dest).ok_or_else(|| r.bad())? = packets;
    }
    world.live_vm_series = live_vm_series;
    world.forwarded = forwarded;
    world.outbound = outbound;
    Ok(())
}

/// Encodes one cell's event queue in [`EventQueue`]'s own layout (counters
/// plus every pending entry with its original sequence number, so FIFO
/// tie-breaking survives the restore boundary), with the event codec
/// passed in as a closure: packet events resolve their slab key against
/// `packets` and ride as wire bytes — slab keys themselves are transient
/// and never serialized, so restores may re-slot packets freely.
pub(crate) fn encode_cell_queue(queue: &EventQueue<CellEvent>, packets: &Slab<Packet>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    queue.snap_with(&mut w, |event, w| match event {
        CellEvent::Packet(key) => {
            w.u8(0);
            packets.get(*key).expect("queued packet key is live").snap(w);
        }
        CellEvent::Probe { vm, idx } => {
            w.u8(1);
            vm.snap(w);
            w.u64(*idx);
        }
        CellEvent::Tick => w.u8(2),
        CellEvent::Sample => w.u8(3),
    });
    w.into_bytes()
}

/// Decodes a queue captured by [`encode_cell_queue`], re-slotting packet
/// payloads into `packets` (keys need not match the originals; only wire
/// content and queue order are canonical).
pub(crate) fn decode_cell_queue(
    bytes: &[u8],
    packets: &mut Slab<Packet>,
) -> Result<EventQueue<CellEvent>, SnapshotError> {
    let mut r = SnapReader::new(bytes, "core.cell.queue");
    let queue = EventQueue::unsnap_with(&mut r, |r| {
        Ok(match r.u8()? {
            0 => CellEvent::Packet(packets.insert(Snap::unsnap(r)?)),
            1 => CellEvent::Probe { vm: Snap::unsnap(r)?, idx: r.u64()? },
            2 => CellEvent::Tick,
            3 => CellEvent::Sample,
            _ => return Err(r.bad()),
        })
    })?;
    r.finish()?;
    Ok(queue)
}

/// The one owner of trace-lane numbers in a run of `cells` cells: two lanes
/// per cell farm, one per engine shard, one per federation hop, and the
/// snapshot lane after all of those — so no two tracers ever share a lane,
/// whichever optional parts a run carries.
#[derive(Clone, Copy)]
pub(crate) enum Lane {
    Farm(usize),
    Gateway(usize),
    Engine(usize),
    Federation(usize),
    Snapshot,
}

impl Lane {
    pub(crate) fn number(self, cells: usize) -> u32 {
        (match self {
            Lane::Farm(cell) => 2 * cell,
            Lane::Gateway(cell) => 2 * cell + 1,
            Lane::Engine(shard) => 2 * cells + shard,
            Lane::Federation(cell) => 3 * cells + cell,
            Lane::Snapshot => 4 * cells,
        }) as u32
    }
}

/// Drains every cell's tracers (farm, gateway, federation hop) and
/// synthesizes one window lane per shard from the engine's batch
/// telemetry: each window batch becomes a `shard.window` span over the
/// barrier interval the engine recorded for it, with a `shard.events`
/// counter sample, carrying the batch's measured wall nanoseconds only
/// when wall-clock stamping was requested. Empty for an untraced run.
fn collect_traces(
    config: &ShardedTelescopeConfig,
    shards: &mut [Shard<CellWorld>],
    engine: &ShardRunReport,
) -> (Vec<potemkin_obs::TraceEvent>, Vec<(u32, String)>) {
    use potemkin_obs::{names, TraceEvent, Tracer};
    let cells = config.cells;
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut lanes = Vec::new();
    let Some(trace_config) = config.trace else { return (events, lanes) };
    for (cell, shard) in shards.iter_mut().enumerate() {
        events.extend(shard.world.farm.take_trace());
        lanes.push((Lane::Farm(cell).number(cells), format!("cell {cell} farm")));
        lanes.push((Lane::Gateway(cell).number(cells), format!("cell {cell} gateway")));
        if let Some(tracer) = shard.world.hop.as_mut().and_then(|hop| hop.tracer.as_mut()) {
            events.extend(tracer.drain());
            lanes.push((Lane::Federation(cell).number(cells), format!("cell {cell} federation")));
        }
    }
    let mut engine_lanes: BTreeMap<usize, Tracer> = BTreeMap::new();
    for batch in &engine.batches {
        let tracer = engine_lanes.entry(batch.shard).or_insert_with(|| {
            Tracer::new(
                Lane::Engine(batch.shard).number(cells),
                potemkin_obs::TraceConfig::unbounded(),
            )
        });
        let span = tracer.begin(batch.start, names::SHARD_WINDOW);
        tracer.counter(batch.start, names::SHARD_EVENTS, batch.events);
        if trace_config.wall_clock {
            // The engine measured this batch's wall time already; surface
            // it instead of re-stamping (the tracer's own clock started at
            // collection time, long after the batch ran).
            tracer.instant(batch.start, "shard.batch_wall_nanos", batch.elapsed_nanos);
        }
        tracer.end(batch.end, span);
    }
    for (shard, mut tracer) in engine_lanes {
        events.extend(tracer.drain());
        lanes.push((Lane::Engine(shard).number(cells), format!("shard worker {shard}")));
    }
    events.sort_by_key(|e| (e.at, e.lane, e.seq));
    (events, lanes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::FarmConfig;
    use potemkin_gateway::policy::PolicyConfig;
    use potemkin_workload::radiation::RadiationConfig;
    use potemkin_workload::worm::WormSpec;

    fn sharded_config(cells: usize) -> ShardedTelescopeConfig {
        let mut farm = FarmConfig::small_test();
        farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
        farm.frames_per_server = 262_144;
        ShardedTelescopeConfig {
            base: TelescopeConfig {
                farm,
                radiation: RadiationConfig::default(),
                seed: 7,
                duration: SimTime::from_secs(10),
                sample_interval: SimTime::from_secs(1),
                tick_interval: SimTime::from_secs(1),
            },
            cells,
            cell_map: CellMap::Hashed,
            window: SimTime::from_millis(500),
            faults: None,
            seed_infections: 0,
            trace: None,
            tuning: EngineTuning::default(),
            federation: None,
            fleet: None,
            capture: None,
        }
    }

    #[test]
    fn parallel_run_is_byte_identical_to_serial() {
        let config = sharded_config(4);
        let serial = run_telescope_sharded(&config, 1).unwrap();
        assert!(serial.packets > 50);
        assert!(serial.stats.vms_cloned > 0);
        for workers in [2, 4] {
            let parallel = run_telescope_sharded(&config, workers).unwrap();
            assert_eq!(serial.canonical_string(), parallel.canonical_string(), "workers={workers}");
        }
    }

    #[test]
    fn rebalancing_is_digest_invariant() {
        // Load-aware worker assignment only picks which OS thread runs a
        // cell — the static reference digest must survive untouched.
        let config = sharded_config(4);
        let reference = run_telescope_sharded(&config, 1).unwrap();
        let mut tuned = config;
        tuned.tuning = EngineTuning { rebalance: true, adaptive: None };
        for workers in [1, 2, 4] {
            let run = run_telescope_sharded(&tuned, workers).unwrap();
            assert_eq!(reference.canonical_string(), run.canonical_string(), "workers={workers}");
        }
    }

    #[test]
    fn adaptive_windows_are_deterministic_across_workers() {
        // Adaptive sizing changes the window sequence (a legitimate
        // result-affecting knob, like `window` itself), but the sequence
        // is a pure function of prior-window telemetry — so any worker
        // count must replay it identically.
        let mut config = sharded_config(4);
        config.tuning = EngineTuning::tuned(SimTime::from_millis(125), SimTime::from_millis(1000));
        let serial = run_telescope_sharded(&config, 1).unwrap();
        assert!(serial.packets > 50);
        for workers in [2, 4] {
            let parallel = run_telescope_sharded(&config, workers).unwrap();
            assert_eq!(serial.canonical_string(), parallel.canonical_string(), "workers={workers}");
        }
    }

    #[test]
    fn tracing_collects_all_lanes_without_changing_results() {
        let mut config = sharded_config(2);
        config.base.duration = SimTime::from_secs(4);
        let plain = run_telescope_sharded(&config, 2).unwrap();
        assert!(plain.trace.is_empty());
        assert!(plain.trace_lanes.is_empty());
        config.trace = Some(potemkin_obs::TraceConfig::unbounded());
        let traced = run_telescope_sharded(&config, 2).unwrap();
        assert_eq!(
            plain.canonical_string(),
            traced.canonical_string(),
            "tracing must be observer-effect-free"
        );
        assert!(!traced.trace.is_empty());
        // Lanes: farm + gateway per cell, plus one engine lane per shard.
        assert_eq!(traced.trace_lanes.len(), 2 * 2 + 2);
        let farm_lanes = traced.trace.iter().filter(|e| e.lane < 4).count();
        let window_spans = traced
            .trace
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    potemkin_obs::TraceEventKind::SpanBegin {
                        name: potemkin_obs::names::SHARD_WINDOW,
                        ..
                    }
                )
            })
            .count();
        assert!(farm_lanes > 0, "cell farms recorded spans");
        assert_eq!(window_spans, traced.engine.batches.len(), "one span per window batch");
        // Sim-time stamps only: no wall clock unless requested.
        assert!(traced.trace.iter().all(|e| e.wall_nanos.is_none()));
    }

    #[test]
    fn adaptive_window_spans_tile_each_shard_lane() {
        // Adaptive widths vary, so window k does not start at k * window:
        // the spans must follow the intervals the engine actually ran.
        let mut config = sharded_config(2);
        config.base.farm.worm = Some(WormSpec::code_red("10.1.8.0/22".parse().unwrap()));
        config.seed_infections = 2;
        config.base.duration = SimTime::from_secs(6);
        config.tuning = EngineTuning::tuned(SimTime::from_millis(125), SimTime::from_millis(1000));
        config.trace = Some(potemkin_obs::TraceConfig::unbounded());
        let run = run_telescope_sharded(&config, 2).unwrap();
        let widths: std::collections::BTreeSet<SimTime> =
            run.engine.batches.iter().map(|b| b.end - b.start).collect();
        assert!(widths.len() > 1, "the controller must have changed the width: {widths:?}");
        for shard in 0..config.cells {
            let lane = Lane::Engine(shard).number(config.cells);
            let edges: Vec<(bool, SimTime)> = run
                .trace
                .iter()
                .filter(|e| e.lane == lane)
                .filter_map(|e| match e.kind {
                    potemkin_obs::TraceEventKind::SpanBegin { .. } => Some((true, e.at)),
                    potemkin_obs::TraceEventKind::SpanEnd { .. } => Some((false, e.at)),
                    _ => None,
                })
                .collect();
            // Begin/end alternate, and each span begins where the last ended.
            let mut cursor = SimTime::ZERO;
            for span in edges.chunks(2) {
                assert_eq!(span[0], (true, cursor), "shard {shard}: gap or overlap");
                assert!(!span[1].0 && span[1].1 > cursor, "shard {shard}: empty span");
                cursor = span[1].1;
            }
            assert_eq!(cursor, config.base.duration, "shard {shard}: spans end at the horizon");
        }
    }

    #[test]
    fn worm_probes_cross_the_cell_fabric() {
        let mut config = sharded_config(4);
        // A /22 worm space (four /24s, hashed across the cells) keeps the
        // saturated population — and the debug-mode event count — small
        // while still forcing probes through the cross-cell fabric.
        config.base.farm.worm = Some(WormSpec::code_red("10.1.8.0/22".parse().unwrap()));
        config.base.duration = SimTime::from_secs(6);
        config.seed_infections = 2;
        let serial = run_telescope_sharded(&config, 1).unwrap();
        assert!(serial.cross_cell_packets > 0, "reflected probes must cross cells");
        assert!(serial.engine.remote_messages > 0);
        assert!(serial.final_infected > config.seed_infections, "worm must spread across cells");
        assert_eq!(serial.degradation.escaped, 0, "reflection still contains everything");
        let parallel = run_telescope_sharded(&config, 4).unwrap();
        assert_eq!(serial.canonical_string(), parallel.canonical_string());
    }

    #[test]
    fn faulted_sharded_run_is_deterministic() {
        let mut config = sharded_config(2);
        config.base.farm.degradation_ladder = true;
        config.faults = Some(FaultPlanConfig {
            host_crash_rate_per_hour: 1_440.0,
            clone_failure_prob: 0.05,
            ..FaultPlanConfig::zero(config.base.duration, config.base.farm.servers)
        });
        let serial = run_telescope_sharded(&config, 1).unwrap();
        assert!(serial.degradation.host_crashes > 0, "crashes fired");
        let parallel = run_telescope_sharded(&config, 2).unwrap();
        assert_eq!(serial.canonical_string(), parallel.canonical_string());
    }

    /// A one-cell in-farm outbreak: the worm's /24 is a quiet telescope.
    fn outbreak_config(policy: PolicyConfig) -> ShardedTelescopeConfig {
        let mut farm = FarmConfig::small_test();
        farm.gateway.policy = policy;
        farm.worm = Some(WormSpec::code_red("10.1.0.0/24".parse().unwrap()));
        farm.frames_per_server = 600_000;
        farm.max_domains_per_server = 4_096;
        let radiation = RadiationConfig {
            telescope: "10.1.0.0/24".parse().unwrap(),
            peak_source_rate: 0.0,
            ..RadiationConfig::default()
        };
        let base = TelescopeConfig::builder(farm, radiation)
            .duration(SimTime::from_secs(30))
            .tick_interval(SimTime::from_secs(5))
            .build()
            .unwrap();
        ShardedTelescopeConfig::builder(base).seed_infections(1).build().unwrap()
    }

    #[test]
    fn outbreak_under_reflection_spreads_internally() {
        let result = run_telescope_sharded(&outbreak_config(PolicyConfig::reflect()), 1).unwrap();
        assert_eq!(result.packets, 0, "a quiet telescope replays nothing");
        assert!(result.final_infected > 1, "worm must spread: {}", result.final_infected);
        assert_eq!(result.degradation.escaped, 0, "reflection must contain everything");
        assert!(result.stats.counters.get("worm_probes") > 0);
        // The infection curve is the patient zero at t = 0, never dips,
        // reaches the epidemic's final size, and has one bin per live-VM
        // sample.
        let curve: Vec<f64> = result.infected_series.iter().map(|(_, v)| v).collect();
        assert_eq!(curve[0], 1.0);
        assert!(curve.windows(2).all(|w| w[0] <= w[1]), "curve dipped: {curve:?}");
        assert_eq!(*curve.last().unwrap(), result.final_infected as f64);
        assert_eq!(curve.len(), result.live_vm_series.len());
    }

    #[test]
    fn outbreak_under_drop_all_does_not_spread() {
        let result = run_telescope_sharded(&outbreak_config(PolicyConfig::drop_all()), 1).unwrap();
        assert_eq!(result.final_infected, 1, "drop-all freezes the worm");
        assert_eq!(result.degradation.escaped, 0);
    }

    #[test]
    fn outbreak_under_allow_all_escapes() {
        let result = run_telescope_sharded(&outbreak_config(PolicyConfig::allow_all()), 1).unwrap();
        assert!(result.degradation.escaped > 0, "allow-all leaks probes");
        // What leaves for a telescope address comes back through the
        // fabric at the window edge, even in a one-cell run.
        assert_eq!(result.cross_cell_packets, result.degradation.escaped);
    }

    #[test]
    fn one_cell_replay_binds_vms_and_recycles() {
        let mut config = sharded_config(1);
        config.base.farm.profile = potemkin_vmm::guest::GuestProfile::small();
        config.base.farm.frames_per_server = 1_000_000;
        config.base.farm.max_domains_per_server = 8_192;
        config.base.duration = SimTime::from_secs(60);
        let result = run_telescope_sharded(&config, 1).unwrap();
        assert!(result.packets > 50, "packets: {}", result.packets);
        assert!(result.peak_live_vms > 1.0);
        assert!(result.stats.vms_cloned > 0);
        assert!(result.stats.vms_recycled > 0, "10s idle timeout must recycle");
        assert!(result.distinct_sources > 10);
        assert!(!result.live_vm_series.is_empty());
        assert_eq!(result.cross_cell_packets, 0, "one cell has no fabric to cross");
    }

    #[test]
    fn zero_fault_template_reproduces_the_unfaulted_run() {
        let mut config = sharded_config(1);
        let plain = run_telescope_sharded(&config, 1).unwrap();
        config.faults = Some(FaultPlanConfig::zero(config.base.duration, config.base.farm.servers));
        let faulted = run_telescope_sharded(&config, 1).unwrap();
        assert_eq!(plain.canonical_string(), faulted.canonical_string());
        assert_eq!(faulted.degradation.host_crashes, 0);
        assert_eq!(faulted.degradation.availability(), 1.0);
    }

    #[test]
    fn faulted_one_cell_replay_degrades_but_contains() {
        let mut config = sharded_config(1);
        config.base.duration = SimTime::from_secs(30);
        config.base.farm.servers = 2;
        config.base.farm.frames_per_server = 1_000_000;
        config.base.farm.max_domains_per_server = 8_192;
        config.base.farm.retry = Some(potemkin_vmm::RetryPolicy::default_clone());
        config.base.farm.degradation_ladder = true;
        config.faults = Some(FaultPlanConfig {
            host_crash_rate_per_hour: 240.0, // expect a couple of crashes
            clone_failure_prob: 0.10,
            ..FaultPlanConfig::zero(config.base.duration, config.base.farm.servers)
        });
        let result = run_telescope_sharded(&config, 1).unwrap();
        let report = &result.degradation;
        assert!(result.packets > 50);
        assert_eq!(report.escaped, 0, "faults must not break containment");
        assert!(report.host_crashes > 0, "crashes fired: {report:?}");
        assert!(report.clone_faults > 0, "clone faults fired");
        assert!(report.clone_retries > 0, "retry policy engaged");
        assert!((0.0..=1.0).contains(&report.availability()));
        assert!(report.canonical_string().contains("escaped=0"));
    }

    /// Every fault class fires in one two-cell run, and the merged
    /// degradation report — each fault count and both rebind latencies —
    /// is pinned by digest.
    #[test]
    fn every_fault_class_fires_and_the_degradation_report_is_pinned() {
        const FAULT_REPORT_DIGEST: u64 = 0x3deb_4393_ad1e_7d61;
        let mut config = sharded_config(2);
        config.base.duration = SimTime::from_secs(30);
        config.base.farm.servers = 2;
        config.base.farm.frames_per_server = 1_000_000;
        config.base.farm.max_domains_per_server = 8_192;
        config.base.farm.retry = Some(potemkin_vmm::RetryPolicy::default_clone());
        config.base.farm.degradation_ladder = true;
        config.faults = Some(FaultPlanConfig {
            seed: 11,
            host_crash_rate_per_hour: 480.0,
            host_recovery_time: SimTime::from_secs(5),
            clone_failure_prob: 0.05,
            tunnel_degrade_rate_per_hour: 720.0,
            tunnel_degrade_duration: SimTime::from_secs(2),
            tunnel_loss: 0.5,
            gateway_stall_rate_per_hour: 720.0,
            gateway_stall_duration: SimTime::from_secs(1),
            ..FaultPlanConfig::zero(config.base.duration, config.base.farm.servers)
        });
        let report = run_telescope_sharded(&config, 1).unwrap().degradation;
        assert!(report.host_crashes > 0, "{report:?}");
        assert!(report.host_recoveries > 0, "{report:?}");
        assert!(report.clone_faults > 0, "{report:?}");
        assert!(report.tunnel_drops > 0, "{report:?}");
        assert!(report.gateway_stalls > 0, "{report:?}");
        assert!(report.mean_rebind_us > 0 && report.p99_rebind_us > 0, "{report:?}");
        assert_eq!(report.escaped, 0);
        assert_eq!(
            potemkin_snapshot::fnv1a64(report.canonical_string().as_bytes()),
            FAULT_REPORT_DIGEST,
            "{}",
            report.canonical_string()
        );
    }

    #[test]
    fn degenerate_radiation_and_surplus_seeds_are_rejected_at_build() {
        let base = sharded_config(1).base;
        let field = |base: TelescopeConfig, seeds| {
            ShardedTelescopeConfig::builder(base)
                .seed_infections(seeds)
                .build()
                .unwrap_err()
                .field()
        };
        for rate in [-1.0, f64::NAN, f64::INFINITY] {
            let mut bad = base.clone();
            bad.radiation.peak_source_rate = rate;
            assert_eq!(field(bad, 0), "base.radiation.peak_source_rate", "rate {rate}");
        }
        let mut portless = base.clone();
        portless.radiation.ports.clear();
        assert_eq!(field(portless, 0), "base.radiation.ports");
        // A /30 telescope holds four patient zeros and no more.
        let mut small = base;
        small.farm.worm = Some(WormSpec::code_red("10.1.0.0/30".parse().unwrap()));
        small.radiation.telescope = "10.1.0.0/30".parse().unwrap();
        assert!(ShardedTelescopeConfig::builder(small.clone()).seed_infections(4).build().is_ok());
        assert_eq!(field(small, 5), "seed_infections");
    }

    #[test]
    fn cell_routing_is_stable_and_covers_all_cells() {
        let telescope: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
        let cells = 4;
        let mut seen = vec![0u64; cells];
        for subnet in 0..256u32 {
            let addr = Ipv4Addr::from(u32::from(telescope.network()) + (subnet << 8));
            let cell = cell_for(addr, cells);
            assert_eq!(cell, cell_for(addr, cells), "routing must be stable");
            // Every address in the /24 lands in the same cell.
            assert_eq!(cell, cell_for(Ipv4Addr::from(u32::from(addr) + 255), cells));
            seen[cell] += 1;
        }
        assert!(seen.iter().all(|&n| n > 0), "all cells own subnets: {seen:?}");
    }

    #[test]
    fn sliced_map_owns_contiguous_slices_and_stays_deterministic() {
        let telescope: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
        // Ownership: cell i owns exactly the i-th /18.
        for cell in 0..4usize {
            let slice = telescope.subprefix(cell as u64, 4).unwrap();
            assert_eq!(CellMap::Sliced.owner(telescope, slice.network(), 4), cell);
            assert_eq!(
                CellMap::Sliced.owner(telescope, slice.addr_at(slice.len() - 1).unwrap(), 4),
                cell
            );
        }
        // A sliced run is byte-identical across worker counts, worm and all.
        // The /22 worm space is the telescope, so its four /24 slices are
        // the four cells and probes cross slice boundaries.
        let mut config = sharded_config(4);
        config.cell_map = CellMap::Sliced;
        config.base.radiation.telescope = "10.1.8.0/22".parse().unwrap();
        config.base.farm.worm = Some(WormSpec::code_red("10.1.8.0/22".parse().unwrap()));
        config.base.duration = SimTime::from_secs(6);
        config.seed_infections = 2;
        let serial = run_telescope_sharded(&config, 1).unwrap();
        assert!(serial.packets > 50);
        assert!(serial.cross_cell_packets > 0, "worm probes must cross slice boundaries");
        let parallel = run_telescope_sharded(&config, 4).unwrap();
        assert_eq!(serial.canonical_string(), parallel.canonical_string());
    }

    #[test]
    fn sliced_map_rejects_uneven_partitions() {
        let mut config = sharded_config(3);
        config.cell_map = CellMap::Sliced;
        assert!(run_telescope_sharded(&config, 1).is_err(), "3 cells cannot slice a prefix");
        let built = ShardedTelescopeConfig::builder(config.base.clone())
            .cells(3)
            .cell_map(CellMap::Sliced)
            .build();
        assert!(built.is_err());
        let ok =
            ShardedTelescopeConfig::builder(config.base).cells(4).cell_map(CellMap::Sliced).build();
        assert!(ok.is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut config = sharded_config(0);
        assert!(run_telescope_sharded(&config, 1).is_err());
        config.cells = 2;
        config.seed_infections = 1; // no worm configured
        assert!(run_telescope_sharded(&config, 1).is_err());
        config.seed_infections = 0;
        config.base.tick_interval = SimTime::ZERO; // would tick at t = 0 forever
        assert!(run_telescope_sharded(&config, 1).is_err());
        config.base.tick_interval = SimTime::from_secs(1);
        config.base.duration = SimTime::ZERO;
        assert!(run_telescope_sharded(&config, 1).is_err());
    }
}
