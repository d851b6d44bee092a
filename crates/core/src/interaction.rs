//! Interaction-services replay: scenario-driven attackers against the
//! sharded farm.
//!
//! The telescope replay ([`crate::parallel`]) measures *scale*: ambient
//! radiation earns VMs and fixed banners. This driver measures
//! *interaction fidelity* on the same cells and the same run loop: a pack
//! of declarative scenarios ([`potemkin_services`]) is installed in every
//! cell farm, and every cell carries a `Fleet` — its share of a fleet
//! of closed-loop attacker actors that replays each scenario's drive script
//! against the farm — SYN, wait for the handshake, send the first
//! request, check each response against the step's expectation, send the
//! next — until the conversation completes, stalls, or aborts. The
//! per-scenario fidelity metrics (sessions opened, rounds sustained,
//! payloads captured, stall points) come back merged across cells,
//! alongside the full session transcripts.
//!
//! # Determinism
//!
//! The attacker side lives entirely *inside* the owning cell: an actor's
//! SYN is scheduled into the cell that owns its target address at
//! prepare time, the farm's replies to that external attacker are
//! captured at the tunnel boundary of the same cell (a cell with a fleet
//! keeps them instead of dropping them), and every follow-up request is
//! scheduled back into the same cell's queue at `now + REPLY_DELAY`.
//! Nothing an actor does crosses a cell boundary, so the conservative
//! window barrier never reorders a conversation and the merged report is
//! byte-identical at any worker count (`tests/prop_services.rs` holds
//! this at 1/2/4 workers). The service engines themselves are pure
//! functions of each cell's request stream (`BTreeMap` tables, ordered
//! rules, deterministic eviction — see [`potemkin_services::ServiceEngine`]).
//!
//! Fleet and engine conversation state are *not* checkpointed; interaction
//! runs are short-horizon experiments, not resumable campaigns, and the
//! lowering to a sharded config stays private so the checkpoint entry
//! points cannot be reached with a fleet (DESIGN.md §15).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use potemkin_gateway::ConfigError;
use potemkin_net::addr::Ipv4Prefix;
use potemkin_net::tcp::TcpFlags;
use potemkin_net::{Packet, PacketBuilder};
use potemkin_services::{merge_metrics, render, Scenario, ScenarioMetrics, ServicesConfig};
use potemkin_services::{SessionRecord, SessionStore};
use potemkin_sim::{EventQueue, Shard, SimTime, Slab};
use potemkin_vmm::guest::{GuestProfile, Service, ServiceProto};
use potemkin_workload::radiation::RadiationConfig;

use crate::error::FarmError;
use crate::parallel::{
    assemble_result, run_cells, CellEvent, CellWorld, ShardedTelescopeConfig,
    ShardedTelescopeResult,
};
use crate::scenario::TelescopeConfig;

/// Attacker source block (TEST-NET-2 and up; outside any telescope).
const ATTACKER_BASE: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);

/// An actor's think time between receiving a response and sending the
/// next drive step.
const REPLY_DELAY: SimTime = SimTime::from_millis(40);

/// Ambient radiation rate (sources/second at the diurnal peak):
/// background scanners share the farm with the scripted attackers.
const BACKGROUND_RATE: f64 = 0.5;

/// Configuration for a scenario-driven interaction replay.
///
/// Construct via [`InteractionConfig::builder`]; the struct is
/// `#[non_exhaustive]` so new knobs may be added without breaking
/// downstream crates.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct InteractionConfig {
    /// The scenario pack plus engine budgets, cloned into every cell
    /// farm.
    pub services: ServicesConfig,
    /// The monitored prefix attackers aim at.
    pub(crate) telescope: Ipv4Prefix,
    /// Replay horizon.
    pub duration: SimTime,
    /// Address-space cells (results depend on it; worker count does not).
    pub cells: usize,
    /// Conservative barrier window width.
    pub window: SimTime,
    /// Base RNG seed (farm + radiation).
    pub(crate) seed: u64,
    /// Closed-loop attacker actors per scenario in the pack.
    pub(crate) attackers_per_scenario: usize,
    /// Gap between consecutive actors' opening SYNs (staggered starts
    /// spread VM cloning).
    pub(crate) start_stagger: SimTime,
    /// VMM servers per cell farm.
    pub(crate) servers: usize,
    /// Gateway cap on concurrently open interaction sessions per cell
    /// (`None` = unlimited).
    pub(crate) session_cap: Option<usize>,
    /// Observability: per-cell farm tracing (svc.* lanes included).
    pub(crate) trace: Option<potemkin_obs::TraceConfig>,
}

impl InteractionConfig {
    /// A validating builder over `services`: a /20 telescope, 30 s
    /// horizon, 4 cells, 250 ms window, 4 attackers per scenario, 40 ms
    /// think time, light background radiation.
    #[must_use]
    pub fn builder(services: ServicesConfig) -> InteractionConfigBuilder {
        InteractionConfigBuilder {
            inner: InteractionConfig {
                services,
                telescope: Ipv4Prefix::constant(Ipv4Addr::new(10, 4, 0, 0), 20),
                duration: SimTime::from_secs(30),
                cells: 4,
                window: SimTime::from_millis(250),
                seed: 2005,
                attackers_per_scenario: 4,
                start_stagger: SimTime::from_millis(200),
                servers: 2,
                session_cap: None,
                trace: None,
            },
        }
    }
}

/// Typed builder for [`InteractionConfig`]; see
/// [`InteractionConfig::builder`].
#[derive(Clone, Debug)]
pub struct InteractionConfigBuilder {
    inner: InteractionConfig,
}

impl InteractionConfigBuilder {
    /// Sets the monitored prefix.
    #[must_use]
    pub fn telescope(mut self, telescope: Ipv4Prefix) -> Self {
        self.inner.telescope = telescope;
        self
    }

    /// Sets the replay horizon.
    #[must_use]
    pub fn duration(mut self, duration: SimTime) -> Self {
        self.inner.duration = duration;
        self
    }

    /// Sets the cell count.
    #[must_use]
    pub fn cells(mut self, cells: usize) -> Self {
        self.inner.cells = cells;
        self
    }

    /// Sets the base RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Sets the attacker count per scenario.
    #[must_use]
    pub fn attackers_per_scenario(mut self, attackers: usize) -> Self {
        self.inner.attackers_per_scenario = attackers;
        self
    }

    /// Sets the gap between consecutive actors' opening SYNs.
    #[must_use]
    pub fn start_stagger(mut self, stagger: SimTime) -> Self {
        self.inner.start_stagger = stagger;
        self
    }

    /// Sets the VMM server count per cell farm.
    #[must_use]
    pub fn servers(mut self, servers: usize) -> Self {
        self.inner.servers = servers;
        self
    }

    /// Sets the gateway cap on open interaction sessions per cell.
    #[must_use]
    pub fn session_cap(mut self, cap: Option<usize>) -> Self {
        self.inner.session_cap = cap;
        self
    }

    /// Validates and returns the config.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for an empty pack, a scenario without a
    /// target port or drive script, a zero horizon/window/cell count, or
    /// more actors than telescope addresses.
    pub fn build(self) -> Result<InteractionConfig, ConfigError> {
        let c = self.inner;
        let bad = |field, reason| Err(ConfigError::new("InteractionConfig", field, reason));
        if c.services.pack.scenarios().is_empty() {
            return bad("services.pack", "needs at least one scenario");
        }
        for scenario in c.services.pack.scenarios() {
            if scenario.ports.is_empty() {
                return bad("services.pack", "every scenario needs a target port to drive");
            }
            if scenario.drive.is_empty() {
                return bad("services.pack", "every scenario needs a drive script");
            }
        }
        if c.duration == SimTime::ZERO {
            return bad("duration", "must be > 0");
        }
        if c.window == SimTime::ZERO {
            return bad("window", "must be > 0");
        }
        if c.cells == 0 {
            return bad("cells", "must be >= 1");
        }
        if c.attackers_per_scenario == 0 {
            return bad("attackers_per_scenario", "must be >= 1");
        }
        let actors = c.services.pack.scenarios().len() * c.attackers_per_scenario;
        if actors as u64 > c.telescope.len() {
            return bad("attackers_per_scenario", "more actors than telescope addresses");
        }
        if c.servers == 0 {
            return bad("servers", "must be >= 1");
        }
        Ok(c)
    }
}

/// Result of an interaction replay.
#[derive(Clone, Debug)]
pub struct InteractionResult {
    /// The merged sharded report (stats, degradation, engine telemetry,
    /// traces). `svc_*` counters live in `merged.stats.counters`.
    pub merged: ShardedTelescopeResult,
    /// Per-scenario fidelity metrics, merged across cells in pack order.
    pub scenarios: Vec<ScenarioMetrics>,
    /// Finalized session transcripts, in (cell, finalize) order.
    pub records: Vec<SessionRecord>,
    /// Scripted attacker actors launched.
    pub attackers: u64,
    /// Drive requests the actors sent.
    pub drive_requests: u64,
    /// Actors that completed their full drive script.
    pub drive_completed: u64,
    /// Actors that stopped on an unexpected response or RST.
    pub drive_aborted: u64,
    /// Requests no scenario claimed (fell back to the fixed banner).
    pub svc_unclaimed: u64,
}

impl InteractionResult {
    /// Per-scenario fidelity lines plus the deterministic drive counters:
    /// the input of the benchmark ledger's pinned `interact_w1` digest
    /// only. Runs are compared by `merged.stream_digest`.
    #[must_use]
    pub fn canonical_summary(&self) -> String {
        let mut s = String::new();
        for m in &self.scenarios {
            s.push_str(&m.canonical_line());
            s.push(';');
        }
        s.push_str(&format!(
            "attackers={} sent={} completed={} aborted={} unclaimed={}",
            self.attackers,
            self.drive_requests,
            self.drive_completed,
            self.drive_aborted,
            self.svc_unclaimed
        ));
        s
    }

    /// Exports every session record into `store` (e.g. a
    /// [`potemkin_services::JsonlStore`]), in result order.
    pub fn export_sessions<S: SessionStore>(&self, store: &mut S) {
        for record in &self.records {
            store.record(record);
        }
    }
}

/// One scripted attacker: a closed-loop replay of its scenario's drive
/// script against a fixed telescope address.
struct AttackerActor {
    scenario: usize,
    target: Ipv4Addr,
    port: u16,
    src_port: u16,
    /// Next drive step to send (0 until the handshake completes).
    next_step: usize,
    finished: bool,
    aborted: bool,
}

/// What a lowered config carries for the fleet. The scenario pack itself
/// rides in `base.farm.services`, where the cell farms read it too.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FleetPlan {
    attackers_per_scenario: usize,
    start_stagger: SimTime,
}

/// The attacker fleet of one cell: the actors whose targets the cell owns.
pub(crate) struct Fleet {
    /// Shared, immutable scenario pack (drive scripts + expectations).
    pack: Arc<Vec<Scenario>>,
    /// Actors keyed by source address; replies are routed back by
    /// `packet.dst()`.
    actors: BTreeMap<Ipv4Addr, AttackerActor>,
    /// Farm replies to external destinations captured at the cell's tunnel
    /// boundary since the last drain.
    pub(crate) replies: Vec<Packet>,
}

impl Fleet {
    /// Consumes the farm replies captured at the tunnel boundary this
    /// handle: each reply advances its actor's conversation, scheduling
    /// the next drive request into this cell's own queue. Everything
    /// stays intra-cell, so the barrier never reorders a conversation.
    pub(crate) fn drain_replies(
        &mut self,
        now: SimTime,
        packets: &mut Slab<Packet>,
        q: &mut EventQueue<CellEvent>,
    ) {
        for reply in self.replies.drain(..) {
            let attacker = reply.dst();
            let Some(actor) = self.actors.get_mut(&attacker) else { continue };
            if actor.finished || actor.aborted {
                continue;
            }
            let Some(flags) = reply.tcp_flags() else { continue };
            if flags.rst {
                actor.aborted = true;
                continue;
            }
            let payload = reply.app_payload();
            let (seq, ack) = match reply.payload() {
                potemkin_net::PacketPayload::Tcp { header, .. } if flags.syn && flags.ack => {
                    // Handshake accepted; only meaningful before step 0.
                    if actor.next_step > 0 {
                        continue;
                    }
                    (header.ack, header.seq.wrapping_add(1))
                }
                potemkin_net::PacketPayload::Tcp { header, .. } => {
                    if payload.is_empty() {
                        continue; // plain ACK, nothing to react to
                    }
                    // This answers the step we sent last; hold it against
                    // the step's expectation.
                    let step = &self.pack[actor.scenario].drive[actor.next_step - 1];
                    if let Some(expect) = &step.expect {
                        if !expect.matches(payload) {
                            actor.aborted = true;
                            continue;
                        }
                    }
                    if actor.next_step >= self.pack[actor.scenario].drive.len() {
                        actor.finished = true;
                        continue;
                    }
                    (header.ack, header.seq.wrapping_add(payload.len() as u32))
                }
                _ => continue,
            };
            let step = &self.pack[actor.scenario].drive[actor.next_step];
            let data = render(&step.send, actor.target, attacker, actor.next_step as u64);
            let request = PacketBuilder::new(attacker, actor.target).tcp_segment(
                actor.src_port,
                actor.port,
                TcpFlags::PSH_ACK,
                seq,
                ack,
                &data,
            );
            actor.next_step += 1;
            q.schedule(now + REPLY_DELAY, CellEvent::Packet(packets.insert(request)));
        }
    }
}

/// Launches the attacker fleet of a fresh run: each actor joins the fleet
/// of the cell owning its target, and its opening SYN is scheduled there,
/// staggered so VM cloning spreads over the horizon start.
pub(crate) fn launch_fleet(
    plan: &FleetPlan,
    config: &ShardedTelescopeConfig,
    shards: &mut [Shard<CellWorld>],
) {
    let scenarios = config.base.farm.services.as_ref().map(|s| s.pack.scenarios().to_vec());
    let pack = Arc::new(scenarios.unwrap_or_default());
    let telescope = config.base.radiation.telescope;
    for (scenario_idx, scenario) in pack.iter().enumerate() {
        let port = scenario.ports[0];
        for a in 0..plan.attackers_per_scenario {
            let g = (scenario_idx * plan.attackers_per_scenario + a) as u64;
            let src = attacker_addr(g);
            let target = target_for(telescope, g);
            let src_port = 40_000 + (g % 20_000) as u16;
            let start = SimTime::from_micros(plan.start_stagger.as_micros().saturating_mul(g + 1));
            let shard = &mut shards[config.cell_map.owner(telescope, target, config.cells)];
            let fleet = shard.world.fleet.get_or_insert_with(|| Fleet {
                pack: Arc::clone(&pack),
                actors: BTreeMap::new(),
                replies: Vec::new(),
            });
            let actor = AttackerActor {
                scenario: scenario_idx,
                target,
                port,
                src_port,
                next_step: 0,
                finished: false,
                aborted: false,
            };
            fleet.actors.insert(src, actor);
            let syn = PacketBuilder::new(src, target).tcp_syn(src_port, port);
            let key = shard.world.packets.insert(syn);
            shard.queue.schedule(start, CellEvent::Packet(key));
        }
    }
}

/// A guest profile listening on every port the pack's scenarios claim
/// (the linux-server baseline plus any missing scenario port).
fn profile_for_pack(scenarios: &[Scenario]) -> GuestProfile {
    let mut profile = GuestProfile::linux_server();
    for scenario in scenarios {
        for &port in &scenario.ports {
            if !profile.services.iter().any(|s| s.port == port && s.proto == ServiceProto::Tcp) {
                profile.services.push(Service { port, proto: ServiceProto::Tcp, exploit_depth: 1 });
            }
        }
    }
    profile
}

/// Lowers to the sharded config the run *is*: per-cell farms with the
/// service engine installed, light ambient radiation, no worm, and an
/// attacker fleet in every cell. Private on purpose: service-session state
/// is not snapshotted, so an interaction run must not reach the checkpoint
/// entry points.
fn sharded_config(config: &InteractionConfig) -> Result<ShardedTelescopeConfig, FarmError> {
    let profile = profile_for_pack(config.services.pack.scenarios());
    let mut gateway = potemkin_gateway::GatewayConfig::default();
    gateway.service_sessions = config.session_cap;
    let mut farm = crate::farm::FarmConfig::small_test();
    farm.gateway = gateway;
    farm.servers = config.servers;
    farm.profile = profile;
    farm.seed = config.seed;
    farm.services = Some(config.services.clone());
    let radiation = RadiationConfig {
        telescope: config.telescope,
        peak_source_rate: BACKGROUND_RATE,
        ..RadiationConfig::default()
    };
    let base = TelescopeConfig::builder(farm, radiation)
        .seed(config.seed)
        .duration(config.duration)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()?;
    let mut sharded =
        ShardedTelescopeConfig::builder(base).cells(config.cells).window(config.window).build()?;
    sharded.trace = config.trace;
    sharded.fleet = Some(FleetPlan {
        attackers_per_scenario: config.attackers_per_scenario,
        start_stagger: config.start_stagger,
    });
    Ok(sharded)
}

/// Picks actor `g`'s target address: an odd stride walks the whole
/// power-of-two telescope without collisions, spreading consecutive
/// actors across cells.
fn target_for(telescope: Ipv4Prefix, g: u64) -> Ipv4Addr {
    let idx = (g.wrapping_mul(97).wrapping_add(5)) % telescope.len();
    Ipv4Addr::from(u32::from(telescope.network()).wrapping_add(idx as u32))
}

/// Actor `g`'s source address (outside the telescope, deterministic).
fn attacker_addr(g: u64) -> Ipv4Addr {
    Ipv4Addr::from(u32::from(ATTACKER_BASE).wrapping_add(g as u32))
}

/// Runs a scenario-driven interaction replay on `workers` OS threads.
///
/// `workers == 1` runs every cell on the calling thread (the serial
/// reference); any larger count produces a byte-identical merged report
/// and identical fidelity metrics (`tests/prop_services.rs`).
///
/// # Errors
///
/// Returns [`FarmError::Config`] when the internal telescope or
/// sharded config fails to validate, or a farm the cells cannot build.
pub fn run_interaction(
    config: &InteractionConfig,
    workers: usize,
) -> Result<InteractionResult, FarmError> {
    let sharded = sharded_config(config)?;
    let (mut run, engine) = run_cells(&sharded, workers, None, None)?;

    // Finalize every cell's open sessions before reading metrics, then
    // merge in cell order (pack order within each cell is fixed, so the
    // merged vector is layout- and worker-invariant).
    let mut per_cell_metrics = Vec::with_capacity(run.shards.len());
    let mut records = Vec::new();
    let mut svc_unclaimed = 0u64;
    let mut attackers = 0u64;
    let mut drive_requests = 0u64;
    let mut drive_completed = 0u64;
    let mut drive_aborted = 0u64;
    for shard in &mut run.shards {
        // Every request an actor sent advanced its script by one step.
        for actor in shard.world.fleet.iter().flat_map(|fleet| fleet.actors.values()) {
            attackers += 1;
            drive_requests += actor.next_step as u64;
            drive_completed += u64::from(actor.finished);
            drive_aborted += u64::from(actor.aborted);
        }
        if let Some(engine) = shard.world.farm.service_engine_mut() {
            engine.finish();
            per_cell_metrics.push(engine.metrics().to_vec());
            records.extend(engine.records().iter().cloned());
            svc_unclaimed += engine.unclaimed();
        }
    }
    let scenarios = merge_metrics(&per_cell_metrics);

    let merged = assemble_result(&sharded, run, engine);
    Ok(InteractionResult {
        merged,
        scenarios,
        records,
        attackers,
        drive_requests,
        drive_completed,
        drive_aborted,
        svc_unclaimed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use potemkin_services::pack::builtin;

    fn config(attackers: usize) -> InteractionConfig {
        InteractionConfig::builder(ServicesConfig::new(builtin().unwrap()))
            .duration(SimTime::from_secs(12))
            .cells(4)
            .attackers_per_scenario(attackers)
            .build()
            .expect("fixed interaction config is valid")
    }

    #[test]
    fn drives_complete_and_capture_payloads() {
        let result = run_interaction(&config(2), 1).expect("replay runs");
        assert_eq!(result.attackers, 8);
        assert!(result.drive_requests > 0, "actors must send requests");
        assert_eq!(
            result.drive_completed, result.attackers,
            "every drive script must complete: {:?}",
            result.scenarios
        );
        assert_eq!(result.drive_aborted, 0, "{:?}", result.scenarios);
        // Every scenario captured its marked payload from every actor.
        assert_eq!(result.scenarios.len(), 4);
        for m in &result.scenarios {
            assert!(m.payloads >= 2, "scenario {} captured nothing", m.scenario);
            assert!(m.completions >= 2, "scenario {} completed nothing", m.scenario);
        }
        assert!(result.merged.stats.counters.get("svc_payloads_captured") >= 8);
        assert!(!result.records.is_empty(), "transcripts must be recorded");
    }

    #[test]
    fn stream_digest_is_worker_invariant() {
        let cfg = config(2);
        let reference = run_interaction(&cfg, 1).expect("serial run");
        for workers in [2, 4] {
            let run = run_interaction(&cfg, workers).expect("parallel run");
            assert_eq!(reference.merged.divergence(&run.merged), None, "{workers} workers");
        }
    }

    #[test]
    fn session_cap_rejects_past_gateway_budget() {
        let capped = InteractionConfig::builder(ServicesConfig::new(builtin().unwrap()))
            .duration(SimTime::from_secs(12))
            .cells(1)
            .attackers_per_scenario(3)
            .session_cap(Some(1))
            .build()
            .expect("valid config");
        let result = run_interaction(&capped, 1).expect("replay runs");
        assert!(
            result.merged.stats.counters.get("svc_sessions_rejected") > 0,
            "a one-session cap must reject concurrent openers"
        );
    }

    #[test]
    fn builder_rejects_driveless_pack() {
        let mut scenario = builtin().unwrap().scenarios()[0].clone();
        scenario.drive.clear();
        let pack = potemkin_services::ScenarioPack::new(vec![scenario]).expect("still valid DSL");
        let err = InteractionConfig::builder(ServicesConfig::new(pack)).build().unwrap_err();
        assert_eq!(err.field(), "services.pack");
    }
}
