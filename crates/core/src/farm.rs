//! The honeyfarm controller.
//!
//! [`Honeyfarm`] wires the gateway decision engine to a pool of VMM servers
//! and executes every gateway action: flash-cloning a VM on first contact,
//! delivering packets into guests, feeding guest responses back through the
//! containment policy, reflecting contained traffic onto fresh honeypots,
//! and recycling idle VMs. Guest *network* behaviour (what a honeypot says
//! back, when an exploit succeeds) is modeled here, on top of the page-level
//! guest activity models in `potemkin-vmm`.

use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;
use std::sync::Arc;

use potemkin_gateway::binding::VmRef;
use potemkin_gateway::gateway::{Gateway, GatewayAction, GatewayConfig};
use potemkin_gateway::policy::DropReason;
use potemkin_gateway::reclaim::{ReclaimPolicy, ReclaimPolicyKind};
use potemkin_gateway::ConfigError;
use potemkin_net::icmp::IcmpMessage;
use potemkin_net::tcp::TcpFlags;
use potemkin_net::{Packet, PacketBuilder, PacketPayload};
use potemkin_obs::{names as obs, TraceConfig, TraceEvent, Tracer};
use potemkin_obs::{CounterSet, LogHistogram};
use potemkin_services::{ServiceEngine, ServicesConfig};
use potemkin_sim::{FaultInjector, FaultKind, FaultPlan, SimRng, SimTime};
use potemkin_snapshot::{snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};
use potemkin_vmm::cost::CostModel;
use potemkin_vmm::guest::GuestProfile;
use potemkin_vmm::{
    CloneTiming, DomainId, Host, ImageId, MemoryBudget, MergeReport, RetryPolicy, SharedChunkStore,
    SharingReport, StoreStats, VmmError,
};
use potemkin_workload::worm::WormSpec;

use crate::error::FarmError;
use crate::report::FarmStats;

/// How the farm reclaims a VM when its address binding expires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecycleStrategy {
    /// Destroy the domain; the next binding flash-clones a fresh one.
    DestroyAndClone,
    /// Roll the domain back to the pristine image and keep it on the
    /// standby pool (the paper's cheaper recycling path: domain structures
    /// survive, only the memory/disk delta is discarded).
    RollbackToPool,
}

/// Farm-level configuration.
///
/// Start from a preset ([`FarmConfig::small_test`],
/// [`FarmConfig::paper_scale`]) and edit the fields a run varies. The run
/// checks the result once, where it builds the farm: [`Honeyfarm::new`]
/// returns [`FarmError::Config`] for a value it cannot run with. The
/// struct is `#[non_exhaustive]`, so literal construction only works
/// inside this crate. Every server runs the default VMM latency model.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct FarmConfig {
    /// Gateway configuration (containment policy, binding granularity).
    pub gateway: GatewayConfig,
    /// Number of physical servers.
    pub servers: usize,
    /// Machine frames per server.
    pub frames_per_server: u64,
    /// The guest image every server hosts.
    pub profile: GuestProfile,
    /// Fixed per-domain page overhead.
    pub overhead_pages: u64,
    /// Max simultaneously live domains per server.
    pub max_domains_per_server: usize,
    /// The worm behaviour infected guests exhibit (None = no worm in play).
    pub worm: Option<WormSpec>,
    /// RNG seed for guest/worm randomness.
    pub seed: u64,
    /// How expired VMs are reclaimed.
    pub recycle: RecycleStrategy,
    /// Number of pre-cloned standby VMs kept per server to hide flash-clone
    /// latency on first contact (0 disables the pool). Standby domains
    /// count toward `max_domains_per_server`.
    pub standby_per_host: usize,
    /// When the farm is full and a new address needs a VM, evict the oldest
    /// binding instead of dropping the packet (the paper's replace-oldest
    /// resource policy).
    pub evict_on_pressure: bool,
    /// Bounded retry for transient clone faults (None = fail fast). Only
    /// injected faults are transient, so this is inert without a fault
    /// plan.
    pub retry: Option<RetryPolicy>,
    /// When a new address cannot get a full VM, fall down the degradation
    /// ladder (stateless SYN/ACK responder, then drop-with-count) instead
    /// of dropping outright. Off by default so fault-free runs are
    /// unchanged.
    pub degradation_ladder: bool,
    /// Which binding the farm reclaims under memory pressure (only
    /// consulted when `evict_on_pressure` is set). Defaults to
    /// [`ReclaimPolicyKind::Oldest`], the pre-policy behaviour.
    pub reclaim_policy: ReclaimPolicyKind,
    /// Per-host cap on resident frames, checked before each flash clone
    /// (None = no budget; only the physical frame count limits). A clone
    /// that would exceed the budget raises a typed
    /// [`PressureEvent`](potemkin_vmm::PressureEvent) and
    /// the host is skipped, driving the pressure-eviction path.
    pub memory_budget_frames: Option<u64>,
    /// Period of the content-index merge pass over every host (None =
    /// merging off, the seed behaviour). When set, each
    /// [`Honeyfarm::tick`] that crosses a period boundary runs one
    /// deterministic [`Host::scan_and_merge`] sweep.
    ///
    /// [`Host::scan_and_merge`]: potemkin_vmm::host::Host::scan_and_merge
    pub merge_interval: Option<SimTime>,
    /// The adaptive interaction plane (None = the seed's fixed
    /// `220 service ready` banner on every listening port). When set,
    /// inbound data on listening ports is classified and answered by the
    /// scenario engine ([`potemkin_services`]), and captured scenario
    /// payloads flow into the farm's capture table.
    pub(crate) services: Option<ServicesConfig>,
    /// Chunk size (in blocks) of the content-addressed store backing every
    /// reference-image disk. `1` reproduces the flat one-word-per-chunk
    /// layout; results are byte-identical at any value — only checkpoint
    /// size and dedupe accounting change.
    pub disk_chunk_blocks: u64,
}

impl FarmConfig {
    /// A small configuration for tests and examples: one server, 256 MiB,
    /// the small guest profile, default reflection policy.
    #[must_use]
    pub fn small_test() -> Self {
        FarmConfig {
            gateway: GatewayConfig::default(),
            servers: 1,
            frames_per_server: 65_536,
            profile: GuestProfile::small(),
            overhead_pages: 64,
            max_domains_per_server: 1_024,
            worm: None,
            seed: 42,
            recycle: RecycleStrategy::DestroyAndClone,
            standby_per_host: 0,
            evict_on_pressure: false,
            retry: None,
            degradation_ladder: false,
            reclaim_policy: ReclaimPolicyKind::Oldest,
            memory_budget_frames: None,
            merge_interval: None,
            services: None,
            disk_chunk_blocks: potemkin_vmm::DEFAULT_CHUNK_BLOCKS,
        }
    }

    /// The paper-scale configuration: a handful of servers backing a /16
    /// telescope with 128 MiB Windows-like guests.
    #[must_use]
    pub fn paper_scale(servers: usize) -> Self {
        FarmConfig {
            gateway: GatewayConfig::default(),
            servers,
            frames_per_server: 2 * 1024 * 1024 / 4 * 1024, // 2 GiB in 4 KiB frames
            profile: GuestProfile::windows_server(),
            overhead_pages: potemkin_vmm::host::DOMAIN_OVERHEAD_PAGES,
            max_domains_per_server: 116, // the Xen-era limit the paper hit
            worm: None,
            seed: 42,
            recycle: RecycleStrategy::RollbackToPool,
            standby_per_host: 8,
            evict_on_pressure: true,
            retry: None,
            degradation_ladder: false,
            reclaim_policy: ReclaimPolicyKind::Oldest,
            memory_budget_frames: None,
            merge_interval: None,
            services: None,
            disk_chunk_blocks: potemkin_vmm::DEFAULT_CHUNK_BLOCKS,
        }
    }

    /// Checks the values a farm cannot be built or run with. Every run
    /// mode builds its farms through [`Honeyfarm::new`] or the sharded
    /// driver, and both call this first.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for zero servers, zero frames, a zero
    /// domain cap, a zero memory budget, a zero merge interval (the tick
    /// would never catch up with it), or zero-block disk chunks.
    pub(crate) fn validate(&self) -> Result<(), ConfigError> {
        let bad = |field, reason| Err(ConfigError::new("FarmConfig", field, reason));
        if self.servers == 0 {
            return bad("servers", "must be > 0");
        }
        if self.frames_per_server == 0 {
            return bad("frames_per_server", "must be > 0");
        }
        if self.max_domains_per_server == 0 {
            return bad("max_domains_per_server", "must be > 0");
        }
        if self.memory_budget_frames == Some(0) {
            return bad(
                "memory_budget_frames",
                "budget of zero frames admits nothing; use None to disable",
            );
        }
        if self.merge_interval == Some(SimTime::ZERO) {
            return bad("merge_interval", "must be > 0; use None to disable merging");
        }
        if self.disk_chunk_blocks == 0 {
            return bad("disk_chunk_blocks", "must be > 0; use 1 for the flat layout");
        }
        Ok(())
    }
}

/// Provenance record of one infection — who infected whom, how (the
/// attribution data the paper's per-source binding refinement enables).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InfectionRecord {
    /// The newly infected VM.
    pub vm: VmRef,
    /// The address the VM impersonates.
    pub victim_addr: Option<Ipv4Addr>,
    /// The source address of the infecting packet (an external attacker or
    /// an in-farm honeypot under reflection).
    pub infected_by: Ipv4Addr,
    /// The exploited destination port.
    pub port: Option<u16>,
    /// Whether the infecting source was itself a farm honeypot (internal
    /// epidemic) rather than an external host.
    pub internal_origin: bool,
    /// Virtual time of the infection.
    pub at: SimTime,
}

snap_struct!(InfectionRecord { vm, victim_addr, infected_by, port, internal_origin, at });

/// A captured exploit payload (deduplicated by content).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaptureRecord {
    /// The payload bytes as delivered to the guest.
    pub payload: Vec<u8>,
    /// The service port it arrived on.
    pub port: u16,
    /// The first source observed delivering it.
    pub first_source: Ipv4Addr,
    /// Virtual time of first capture.
    pub first_seen: SimTime,
    /// How many times this exact payload has been delivered.
    pub hits: u64,
}

snap_struct!(CaptureRecord { payload, port, first_source, first_seen, hits });

/// Externally visible farm emissions, recorded for assertions and reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FarmOutput {
    /// A packet left the farm toward the real Internet.
    SentExternal(Packet),
    /// A reflected packet whose destination address is owned by another
    /// cell of a sharded farm (see [`crate::parallel`]): the internal
    /// fabric must tunnel it to the owning cell's gateway. The owning
    /// cell index is resolved once at emission so the fabric never
    /// re-derives it per packet.
    ForwardedCell {
        /// The reflected packet.
        packet: Packet,
        /// Index of the cell that owns `packet.dst()`.
        cell: usize,
    },
    /// An inbound packet was dropped with a reason.
    DroppedInbound(DropReason),
    /// An outbound (guest-emitted) packet was dropped with a reason.
    DroppedOutbound(DropReason),
}

/// A `u8` variant tag, then the variant's fields; packets ride as wire
/// bytes.
impl Snap for FarmOutput {
    fn snap(&self, w: &mut SnapWriter) {
        match self {
            FarmOutput::SentExternal(packet) => {
                w.u8(0);
                packet.snap(w);
            }
            FarmOutput::ForwardedCell { packet, cell } => {
                w.u8(1);
                packet.snap(w);
                cell.snap(w);
            }
            FarmOutput::DroppedInbound(reason) => {
                w.u8(2);
                reason.snap(w);
            }
            FarmOutput::DroppedOutbound(reason) => {
                w.u8(3);
                reason.snap(w);
            }
        }
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match r.u8()? {
            0 => FarmOutput::SentExternal(Snap::unsnap(r)?),
            1 => FarmOutput::ForwardedCell { packet: Snap::unsnap(r)?, cell: Snap::unsnap(r)? },
            2 => FarmOutput::DroppedInbound(Snap::unsnap(r)?),
            3 => FarmOutput::DroppedOutbound(Snap::unsnap(r)?),
            _ => return Err(r.bad()),
        })
    }
}

#[derive(Clone, Copy)]
struct VmSlot {
    host: usize,
    domain: DomainId,
}

snap_struct!(VmSlot { host, domain });

/// Every piece of mutable farm state that checkpoints as it is: one field
/// list, in wire order, that encode writes and restore reads back whole.
/// The host blobs, standby pools, reclaim policy, store accounting and
/// gateway each have their own codec and stay on [`Honeyfarm`].
struct FarmState {
    vms: HashMap<VmRef, VmSlot>,
    next_vmref: u64,
    next_host: usize,
    request_counter: u64,
    rng: SimRng,
    /// RNG for fault decisions. Seeded independently of `rng` (not forked
    /// from it) so installing a zero fault plan leaves every main-path
    /// draw, and hence every fault-free result, byte-identical.
    fault_rng: SimRng,
    /// VMs infected since the last drain (the scenario schedules their
    /// scanning).
    newly_infected: Vec<VmRef>,
    /// Full provenance log of every infection.
    infection_log: Vec<InfectionRecord>,
    /// Captured exploit payloads, keyed by content hash.
    captures: HashMap<u64, CaptureRecord>,
    outputs: Vec<FarmOutput>,
    counters: CounterSet,
    clone_latency_us: LogHistogram,
    /// Time from a host crash to an orphaned address being re-bound on a
    /// surviving host (microseconds): the farm's MTTR distribution.
    rebind_latency_us: LogHistogram,
    /// Virtual time spent in VMM operations (clone + destroy + faults).
    vmm_time: SimTime,
    /// Scheduled fault events (None = fault-free run).
    faults: Option<FaultInjector>,
    /// Addresses orphaned by a host crash, with the crash time — resolved
    /// (into the MTTR histogram) when the address is re-bound.
    pending_rebinds: HashMap<Ipv4Addr, SimTime>,
    /// Tunnel degradation window state.
    tunnel_degraded_until: SimTime,
    tunnel_loss: f64,
    /// Next merge-pass deadline (meaningful only with a merge interval).
    next_merge: SimTime,
}

snap_struct!(FarmState {
    vms,
    next_vmref,
    next_host,
    request_counter,
    rng,
    fault_rng,
    newly_infected,
    infection_log,
    captures,
    outputs,
    counters,
    clone_latency_us,
    rebind_latency_us,
    vmm_time,
    faults,
    pending_rebinds,
    tunnel_degraded_until,
    tunnel_loss,
    next_merge,
});

/// The honeyfarm: gateway + server pool + guest behaviour.
pub struct Honeyfarm {
    config: Arc<FarmConfig>,
    gateway: Gateway,
    hosts: Vec<Host>,
    /// Per host: the reference image every clone starts from.
    images: Vec<ImageId>,
    /// Pre-cloned, unbound, pristine domains per host.
    standby: Vec<Vec<DomainId>>,
    state: FarmState,
    /// Every live VM under the address it impersonates, so finding an
    /// address's VM is a range lookup and — several VMs share an address
    /// under per-source binding — always finds the lowest `VmRef`. Derived
    /// from `state.vms` and the domains' bound addresses; not serialized.
    by_addr: BTreeSet<(Ipv4Addr, VmRef)>,
    last_clone_timing: Option<CloneTiming>,
    /// When this farm is one cell of a sharded run: which slice of the
    /// telescope it owns. Reflections to addresses outside the slice are
    /// surfaced as [`FarmOutput::ForwardedCell`] instead of re-entering
    /// locally.
    cell: Option<crate::parallel::CellSlot>,
    /// Observability lane (disabled by default: one branch per call site).
    tracer: Tracer,
    /// The instantiated pressure-reclaim policy (from
    /// `config.reclaim_policy`). The clock keeps its state here across
    /// evictions.
    reclaim: ReclaimPolicy,
    /// Per-host resident-frame budget (None = unbudgeted).
    budget: Option<MemoryBudget>,
    /// The interaction-service engine (None without `config.services`).
    /// Conversation state lives here, not in checkpoints: services runs
    /// are not snapshot/restored (see DESIGN.md §15).
    services: Option<ServiceEngine>,
    /// The farm-wide content-addressed chunk store. Every host's reference
    /// images share it, so identical golden-disk chunks are stored once
    /// across the whole farm regardless of server or image count.
    store: SharedChunkStore,
}

impl Honeyfarm {
    /// Builds a farm: creates the servers and boots one reference image on
    /// each.
    ///
    /// # Errors
    ///
    /// Returns [`FarmError::Config`] for zero servers, frames, domain
    /// cap, memory budget, merge interval or disk chunk size, and
    /// [`FarmError::Vmm`] when an image does not fit in a server's memory.
    pub fn new(config: FarmConfig) -> Result<Self, FarmError> {
        let seed = config.seed;
        Self::with_shared_config(Arc::new(config), seed)
    }

    /// Builds a farm over a *shared* config, seeding its RNGs from `seed`
    /// rather than `config.seed`.
    ///
    /// Sharded runs ([`crate::parallel`]) construct one cell farm per
    /// telescope slice from the same base configuration; sharing one
    /// [`Arc`] avoids cloning the (service-table- and hitlist-carrying)
    /// config per cell while still giving each cell its own derived seed.
    ///
    /// # Errors
    ///
    /// Same as [`Honeyfarm::new`].
    pub(crate) fn with_shared_config(
        config: Arc<FarmConfig>,
        seed: u64,
    ) -> Result<Self, FarmError> {
        config.validate()?;
        let store = SharedChunkStore::new_memory();
        let mut hosts = Vec::with_capacity(config.servers);
        let mut images = Vec::with_capacity(config.servers);
        for _ in 0..config.servers {
            let mut host = Host::new(config.frames_per_server)
                .with_overhead_pages(config.overhead_pages)
                .with_max_domains(config.max_domains_per_server)
                .with_chunk_store(store.clone())
                .with_disk_chunk_blocks(config.disk_chunk_blocks);
            images.push(host.create_reference_image("reference", config.profile.clone())?);
            hosts.push(host);
        }
        // Pre-clone the standby pools so first contacts skip the expensive
        // clone stages.
        let mut standby: Vec<Vec<DomainId>> = Vec::with_capacity(config.servers);
        for (host, &image) in hosts.iter_mut().zip(&images) {
            let mut pool = Vec::with_capacity(config.standby_per_host);
            for _ in 0..config.standby_per_host {
                let (dom, _) = host.flash_clone(image)?;
                pool.push(dom);
            }
            standby.push(pool);
        }
        let gateway = Gateway::new(config.gateway.clone());
        let reclaim = config.reclaim_policy.instantiate();
        let budget = config.memory_budget_frames.map(MemoryBudget::new);
        let config_services = config.services.as_ref().map(ServiceEngine::new);
        let state = FarmState {
            vms: HashMap::new(),
            next_vmref: 0,
            next_host: 0,
            request_counter: 0,
            rng: SimRng::seed_from(seed),
            fault_rng: SimRng::seed_from(seed ^ 0xFA17),
            newly_infected: Vec::new(),
            infection_log: Vec::new(),
            captures: HashMap::new(),
            outputs: Vec::new(),
            counters: CounterSet::new(),
            clone_latency_us: LogHistogram::new(),
            rebind_latency_us: LogHistogram::new(),
            vmm_time: SimTime::ZERO,
            faults: None,
            pending_rebinds: HashMap::new(),
            tunnel_degraded_until: SimTime::ZERO,
            tunnel_loss: 0.0,
            next_merge: config.merge_interval.unwrap_or(SimTime::ZERO),
        };
        Ok(Honeyfarm {
            config,
            gateway,
            hosts,
            images,
            standby,
            state,
            by_addr: BTreeSet::new(),
            last_clone_timing: None,
            cell: None,
            tracer: Tracer::disabled(),
            reclaim,
            budget,
            services: config_services,
            store,
        })
    }

    /// Accounting snapshot of the farm-wide chunk store: puts, dedupe
    /// hits, lazy materializations, and resident footprint (the disk-side
    /// analogue of [`Honeyfarm::sharing_report`]).
    #[must_use]
    pub fn store_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Enables tracing: the farm records on lane `base_lane`, its gateway
    /// on `base_lane + 1`. Tracing is passive — it never draws from the
    /// farm's RNGs and never reorders work — so every deterministic report
    /// is byte-identical with it on or off (`tests/prop_obs.rs` proves
    /// this property-style).
    pub fn enable_tracing(&mut self, config: TraceConfig, base_lane: u32) {
        self.tracer = Tracer::new(base_lane, config);
        self.gateway.set_tracer(Tracer::new(base_lane + 1, config));
    }

    /// Drains every trace event recorded so far (farm and gateway lanes),
    /// merged in `(sim-time, lane, seq)` order. Empty while tracing is
    /// disabled.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        let mut events = self.tracer.drain();
        events.extend(self.gateway.take_trace());
        events.sort_by_key(|e| (e.at, e.lane, e.seq));
        events
    }

    /// Declares this farm to be one cell of a sharded run. From then on,
    /// reflected packets whose destination hashes to a different cell are
    /// emitted as [`FarmOutput::ForwardedCell`] for the driver to route,
    /// instead of re-entering this farm's gateway.
    pub(crate) fn assign_cell(&mut self, slot: crate::parallel::CellSlot) {
        self.cell = Some(slot);
    }

    /// Installs a fault plan. Events fire as virtual time passes through
    /// them ([`Honeyfarm::tick`] / [`Honeyfarm::inject_external`]); the
    /// plan's clone-failure probability applies to every subsequent clone
    /// attempt. Installing [`FaultPlan::zero`] is a no-op by construction.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.state.faults = Some(FaultInjector::new(plan));
    }

    /// The configuration in effect.
    #[must_use]
    pub fn config(&self) -> &FarmConfig {
        &self.config
    }

    /// Injects a packet arriving from the external world (telescope
    /// traffic). Processes the entire causal chain synchronously: cloning,
    /// delivery, guest responses, reflections.
    pub fn inject_external(&mut self, now: SimTime, packet: Packet) {
        let span = self.tracer.begin(now, obs::FARM_INJECT);
        self.inject_external_inner(now, packet);
        self.tracer.end(now, span);
    }

    fn inject_external_inner(&mut self, now: SimTime, packet: Packet) {
        self.poll_faults(now);
        if now < self.state.tunnel_degraded_until
            && self.state.fault_rng.chance(self.state.tunnel_loss)
        {
            self.state.counters.incr("tunnel_dropped");
            self.state.outputs.push(FarmOutput::DroppedInbound(DropReason::TunnelLoss));
            return;
        }
        let action = self.gateway.on_inbound(now, packet);
        self.run_actions(now, vec![action]);
    }

    /// Emits a packet from a live VM (worm probes, delayed guest traffic)
    /// and processes the causal chain.
    ///
    /// Returns `false` if the VM no longer exists.
    pub fn emit_from_vm(&mut self, now: SimTime, vm: VmRef, packet: Packet) -> bool {
        if !self.state.vms.contains_key(&vm) {
            return false;
        }
        let action = self.gateway.on_outbound(now, vm, packet);
        self.run_actions(now, vec![action]);
        true
    }

    /// One probe from an infected VM's scan loop. Returns `false` when the
    /// VM is gone or not infected (the scenario stops scheduling).
    pub fn worm_probe(&mut self, now: SimTime, vm: VmRef, probe_idx: u64) -> bool {
        if self.config.worm.is_none() {
            return false;
        }
        let Some(slot) = self.state.vms.get(&vm) else {
            return false;
        };
        let Ok(dom) = self.hosts[slot.host].domain(slot.domain) else {
            return false;
        };
        if !dom.is_infected() {
            return false;
        }
        let Some(src) = dom.bound_addr() else {
            return false;
        };
        // Borrow the spec in place: cloning it per probe would copy the
        // whole hitlist for list-scanning worms.
        let worm = self.config.worm.as_ref().expect("checked above");
        let Some(dst) = worm.pick_target(&mut self.state.rng, src, probe_idx) else {
            return false;
        };
        if dst == src {
            return true; // self-probe: skip but keep scanning
        }
        let src_port = 1024 + (probe_idx % 60_000) as u16;
        let instance = probe_idx.wrapping_mul(0x9E37_79B9).wrapping_add(vm.0);
        let probe = worm.probe_instance(src, src_port, dst, instance);
        self.state.counters.incr("worm_probes");
        self.emit_from_vm(now, vm, probe)
    }

    /// Advances time: fires due fault events, expires idle bindings,
    /// reclaims expired VMs according to the configured
    /// [`RecycleStrategy`], and runs the content-merge pass when its
    /// period elapses.
    pub fn tick(&mut self, now: SimTime) {
        let span = self.tracer.begin(now, obs::FARM_TICK);
        self.poll_faults(now);
        for expired in self.gateway.expire(now) {
            self.reclaim_vm(expired.vm);
        }
        if let Some(interval) = self.config.merge_interval {
            if now >= self.state.next_merge {
                self.run_merge(now);
                while self.state.next_merge <= now {
                    self.state.next_merge = self.state.next_merge.saturating_add(interval);
                }
            }
        }
        self.tracer.end(now, span);
    }

    /// Runs one content-index merge pass over every live host and records
    /// its accounting (counters, trace lane). Scheduled by
    /// [`Honeyfarm::tick`] at `merge_interval` cadence.
    ///
    /// Determinism: hosts are swept in index order and each host's scan
    /// is itself deterministic, so the merged state — and every report
    /// derived from it — depends only on the farm state, never on wall
    /// clock or worker count.
    fn run_merge(&mut self, now: SimTime) {
        let span = self.tracer.begin(now, obs::MEM_SCAN);
        let mut pass = MergeReport::default();
        for host in &mut self.hosts {
            if let Ok(report) = host.scan_and_merge() {
                pass.absorb(report);
            }
        }
        self.tracer.end(now, span);
        if pass.merged_pages > 0 {
            self.tracer.instant(now, obs::MEM_MERGE, pass.merged_pages);
        }
        self.state.counters.incr("mem_scans");
        self.state.counters.add("pages_merged", pass.merged_pages);
        self.state.counters.add("frames_reclaimed_by_merge", pass.frames_reclaimed);
        // Disk-side accounting rides the same cadence: trace-lane only
        // (digest-invisible).
        let store = self.store.stats();
        self.tracer.instant(now, obs::STORE_CHUNK, store.resident_chunks);
        self.tracer.instant(now, obs::STORE_DEDUPE, store.dedupe_hits);
        self.tracer.instant(now, obs::STORE_MATERIALIZE, store.materialized);
    }

    /// Fires every scheduled fault event whose time has passed.
    fn poll_faults(&mut self, now: SimTime) {
        let Some(injector) = self.state.faults.as_mut() else { return };
        let mut due = Vec::new();
        while let Some(event) = injector.next_due(now) {
            due.push(event);
        }
        for event in due {
            self.apply_fault(event.at, event.kind);
        }
    }

    fn apply_fault(&mut self, at: SimTime, kind: FaultKind) {
        match kind {
            FaultKind::HostCrash { host } => self.crash_host(at, host),
            FaultKind::HostRecover { host } => self.revive_host(host),
            FaultKind::CloneFaultBurst { host, count } => {
                if let Some(h) = self.hosts.get_mut(host) {
                    h.fail_next_clones(count);
                }
            }
            FaultKind::TunnelDegrade { loss, duration } => {
                self.state.tunnel_loss = loss;
                self.state.tunnel_degraded_until = at.saturating_add(duration);
                self.state.counters.incr("tunnel_degrades");
            }
            FaultKind::GatewayStall { duration } => self.gateway.stall_for(at, duration),
        }
    }

    /// Fails a host: tears down its domains, unbinds their addresses at
    /// the gateway (retiring flow state so no stale dialogue can leak),
    /// and immediately tries to re-materialize each orphaned address on a
    /// surviving server. Addresses that cannot be re-placed stay pending
    /// and resolve on their next packet.
    fn crash_host(&mut self, now: SimTime, host: usize) {
        if host >= self.hosts.len() || !self.hosts[host].is_alive() {
            return;
        }
        self.state.counters.incr("host_crashes");
        let mut victims: Vec<(VmRef, Option<Ipv4Addr>)> = self
            .state
            .vms
            .iter()
            .filter(|(_, slot)| slot.host == host)
            .map(|(&vm, &slot)| (vm, self.bound_addr(slot)))
            .collect();
        victims.sort_by_key(|(vm, _)| vm.0); // vms is a HashMap; fix the order
        for &(vm, _) in &victims {
            self.forget_vm(vm);
        }
        self.hosts[host].crash();
        self.standby[host].clear();
        self.state.counters.add("vms_lost_to_crash", victims.len() as u64);
        for (vm, bound) in victims {
            let mut addrs = self.gateway.unbind_vm(vm);
            if let Some(a) = bound {
                if !addrs.contains(&a) {
                    addrs.push(a);
                }
            }
            for addr in addrs {
                self.state.pending_rebinds.entry(addr).or_insert(now);
                if self.place_clone(now, addr, addr).is_none() {
                    self.state.counters.incr("rebind_deferred");
                }
            }
        }
    }

    /// Revives a crashed host and refills its standby pool from the
    /// reference image (which lives on stable storage and survives the
    /// crash).
    fn revive_host(&mut self, host: usize) {
        if host >= self.hosts.len() || self.hosts[host].is_alive() {
            return;
        }
        self.state.counters.incr("host_recoveries");
        self.hosts[host].revive();
        while self.standby[host].len() < self.config.standby_per_host {
            match self.hosts[host].flash_clone(self.images[host]) {
                Ok((dom, timing)) => {
                    self.standby[host].push(dom);
                    self.state.vmm_time += timing.total();
                }
                Err(_) => break,
            }
        }
    }

    /// The address `slot`'s domain impersonates, while the domain exists.
    fn bound_addr(&self, slot: VmSlot) -> Option<Ipv4Addr> {
        self.hosts[slot.host].domain(slot.domain).ok().and_then(|d| d.bound_addr())
    }

    /// Drops `vm` from the live set and the address index (its domain must
    /// still exist, to say which address it held).
    fn forget_vm(&mut self, vm: VmRef) -> Option<VmSlot> {
        let slot = self.state.vms.remove(&vm)?;
        if let Some(addr) = self.bound_addr(slot) {
            self.by_addr.remove(&(addr, vm));
        }
        Some(slot)
    }

    /// Reclaims one VM per the configured [`RecycleStrategy`].
    fn reclaim_vm(&mut self, vm: VmRef) {
        let Some(slot) = self.forget_vm(vm) else { return };
        let result = match self.config.recycle {
            RecycleStrategy::DestroyAndClone => self.hosts[slot.host].destroy(slot.domain),
            RecycleStrategy::RollbackToPool => {
                let r = self.hosts[slot.host].rollback(slot.domain);
                if r.is_ok() {
                    self.standby[slot.host].push(slot.domain);
                    self.state.counters.incr("vms_rolled_back");
                }
                r
            }
        };
        match result {
            Ok(cost) => {
                self.state.vmm_time += cost;
                self.state.counters.incr("vms_recycled");
            }
            Err(_) => self.state.counters.incr("recycle_races"),
        }
    }

    fn run_actions(&mut self, now: SimTime, actions: Vec<GatewayAction>) {
        let span = self.tracer.begin(now, obs::FARM_DISPATCH);
        self.run_actions_inner(now, actions);
        self.tracer.end(now, span);
    }

    fn run_actions_inner(&mut self, now: SimTime, actions: Vec<GatewayAction>) {
        let mut queue: Vec<GatewayAction> = actions;
        // Bound the causal chain defensively; real chains are short (a
        // reflection plus a few dialogue rounds).
        let mut budget = 256;
        while let Some(action) = queue.pop() {
            if budget == 0 {
                self.state.counters.incr("action_budget_exhausted");
                break;
            }
            budget -= 1;
            match action {
                GatewayAction::Deliver { vm, packet } => {
                    if let Some(reply) = self.handle_delivery(now, vm, packet) {
                        queue.push(self.gateway.on_outbound(now, vm, reply));
                    }
                }
                GatewayAction::CloneAndDeliver { addr, packet } => {
                    let mut placed = self.place_clone(now, packet.src(), addr);
                    if placed.is_none() && self.config.evict_on_pressure {
                        // Resource pressure: the configured reclaim policy
                        // picks the victim binding.
                        if let Some(evicted) =
                            self.gateway.evict_for_pressure(now, &mut self.reclaim)
                        {
                            self.reclaim_vm(evicted.vm);
                            self.state.counters.incr("evicted_for_pressure");
                            placed = self.place_clone(now, packet.src(), addr);
                        }
                    }
                    match placed {
                        Some(_) => queue.push(self.gateway.on_inbound(now, packet)),
                        None if self.config.degradation_ladder => {
                            self.degrade_without_vm(addr, &packet);
                        }
                        None => {
                            self.state.counters.incr("dropped_no_capacity");
                            self.state
                                .outputs
                                .push(FarmOutput::DroppedInbound(DropReason::SourceQuota));
                        }
                    }
                }
                GatewayAction::GatewayReply(packet) => {
                    // A gateway-synthesized packet: deliver to a VM if its
                    // destination is one, else it leaves the farm.
                    if let Some(vm) = self.vm_for_addr(packet.dst()) {
                        if let Some(reply) = self.handle_delivery(now, vm, packet) {
                            queue.push(self.gateway.on_outbound(now, vm, reply));
                        }
                    } else {
                        self.state.counters.incr("sent_external");
                        self.state.outputs.push(FarmOutput::SentExternal(packet));
                    }
                }
                GatewayAction::ForwardExternal(packet) => {
                    self.state.counters.incr("sent_external");
                    self.state.outputs.push(FarmOutput::SentExternal(packet));
                }
                GatewayAction::Reflect { addr: _, packet } => {
                    // Containment: the outbound packet re-enters as inbound
                    // — locally, unless a sharded run assigned this farm a
                    // cell and another cell owns the destination, in which
                    // case the internal fabric must carry it there.
                    if let Some(cell) = self.cell.and_then(|slot| slot.route(packet.dst())) {
                        self.state.counters.incr("forwarded_cross_cell");
                        self.state.outputs.push(FarmOutput::ForwardedCell { packet, cell });
                    } else {
                        queue.push(self.gateway.on_inbound(now, packet));
                    }
                }
                GatewayAction::Drop { reason } => {
                    self.state.outputs.push(FarmOutput::DroppedOutbound(reason));
                }
            }
        }
    }

    /// The bottom rungs of the degradation ladder, reached when no server
    /// can supply a VM: answer TCP SYNs with a stateless SYN/ACK (keeping
    /// the attacker engaged at zero fidelity — no guest, no capture) and
    /// count-drop everything else.
    fn degrade_without_vm(&mut self, addr: Ipv4Addr, packet: &Packet) {
        if let PacketPayload::Tcp { header, .. } = packet.payload() {
            if header.flags.syn && !header.flags.ack {
                self.state.counters.incr("degraded_synacks");
                let reply = PacketBuilder::new(addr, packet.src()).tcp_segment(
                    header.dst_port,
                    header.src_port,
                    TcpFlags::SYN_ACK,
                    self.state.fault_rng.next_u32(),
                    header.seq.wrapping_add(1),
                    &[],
                );
                self.state.counters.incr("sent_external");
                self.state.outputs.push(FarmOutput::SentExternal(reply));
                return;
            }
        }
        self.state.counters.incr("dropped_degraded");
        self.state.outputs.push(FarmOutput::DroppedInbound(DropReason::Degraded));
    }

    /// Finds the VM impersonating `addr` — the lowest `VmRef` when several
    /// do — without touching gateway state.
    fn vm_for_addr(&self, addr: Ipv4Addr) -> Option<VmRef> {
        let vms = (addr, VmRef(0))..=(addr, VmRef(u64::MAX));
        self.by_addr.range(vms).next().map(|&(_, vm)| vm)
    }

    /// Provisions a VM for `addr` — from a standby pool when one is
    /// available (cheap), else by flash-cloning — and binds it at the
    /// gateway.
    fn place_clone(&mut self, now: SimTime, src: Ipv4Addr, addr: Ipv4Addr) -> Option<VmRef> {
        let n = self.hosts.len();
        // Standby pool first: only the binding stages remain.
        for offset in 0..n {
            let h = (self.state.next_host + offset) % n;
            if let Some(domain) = self.standby[h].pop() {
                self.state.next_host = (h + 1) % n;
                let timing = CloneTiming::new(CostModel::CALIBRATED.standby_bind_stages());
                self.state.counters.incr("standby_hits");
                let slot = VmSlot { host: h, domain };
                return self.finish_placement(now, src, addr, slot, timing, obs::VMM_STANDBY_BIND);
            }
        }
        for offset in 0..n {
            let h = (self.state.next_host + offset) % n;
            // Budget admission: a fresh clone pins its overhead frames
            // immediately (image pages stay CoW-shared). Over-budget hosts
            // are skipped; if every host is over, the caller's pressure
            // path evicts per the reclaim policy and retries. Standby
            // binds above allocate nothing, so they bypass the check.
            if let Some(budget) = self.budget {
                let used = self.hosts[h].memory_report().used_frames;
                if let Err(event) = budget.admit(used, self.config.overhead_pages) {
                    self.state.counters.incr("memory_pressure_events");
                    self.tracer.instant(now, obs::MEM_PRESSURE, event.requested_frames);
                    continue;
                }
            }
            match self.clone_with_retry(h, self.images[h]) {
                Ok((domain, timing)) => {
                    self.state.next_host = (h + 1) % n;
                    let slot = VmSlot { host: h, domain };
                    return self.finish_placement(
                        now,
                        src,
                        addr,
                        slot,
                        timing,
                        obs::VMM_FLASH_CLONE,
                    );
                }
                Err(VmmError::TooManyDomains { .. })
                | Err(VmmError::OutOfMemory { .. })
                | Err(VmmError::HostDown)
                | Err(VmmError::InjectedFault { .. }) => {
                    continue; // per-host condition: another server may serve
                }
                Err(_) => return None,
            }
        }
        None
    }

    /// One clone attempt, with fault injection: the plan's clone-failure
    /// probability is rolled first, then the host may consume a pending
    /// injected-fault budget of its own.
    fn clone_attempt(
        &mut self,
        host: usize,
        image: ImageId,
    ) -> Result<(DomainId, CloneTiming), VmmError> {
        // The probability an individual attempt fails, from the fault plan.
        let failure_prob =
            self.state.faults.as_ref().map_or(0.0, FaultInjector::clone_failure_prob);
        if failure_prob > 0.0
            && self.hosts[host].is_alive()
            && self.state.fault_rng.chance(failure_prob)
        {
            self.state.counters.incr("clone_faults_injected");
            return Err(VmmError::InjectedFault { op: "flash_clone" });
        }
        let result = self.hosts[host].flash_clone(image);
        if matches!(result, Err(VmmError::InjectedFault { .. })) {
            self.state.counters.incr("clone_faults_injected");
        }
        result
    }

    /// Flash-clones with bounded retry on transient (injected) faults.
    /// Backoff is budgeted in virtual time and folded into the clone's
    /// stage breakdown, so retried clones correctly report higher latency.
    fn clone_with_retry(
        &mut self,
        host: usize,
        image: ImageId,
    ) -> Result<(DomainId, CloneTiming), VmmError> {
        let policy = self.config.retry;
        let max_attempts = policy.map_or(1, |p| p.max_attempts.max(1));
        let mut backoff_total = SimTime::ZERO;
        let mut attempt = 1;
        loop {
            match self.clone_attempt(host, image) {
                Ok((domain, mut timing)) => {
                    if backoff_total > SimTime::ZERO {
                        timing.push_stage("retry_backoff", backoff_total);
                        self.state.counters.incr("clone_retries_succeeded");
                    }
                    return Ok((domain, timing));
                }
                Err(e) if e.is_transient() && attempt < max_attempts => {
                    if let Some(p) = policy {
                        backoff_total = backoff_total
                            .saturating_add(p.backoff(attempt, self.state.fault_rng.f64()));
                    }
                    self.state.counters.incr("clone_retries");
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    fn finish_placement(
        &mut self,
        now: SimTime,
        src: Ipv4Addr,
        addr: Ipv4Addr,
        slot: VmSlot,
        timing: CloneTiming,
        provision: &'static str,
    ) -> Option<VmRef> {
        let VmSlot { host, domain } = slot;
        // The domain can vanish between clone and bind if its host crashed
        // mid-placement; treat it as a failed placement, not a panic.
        let Ok(dom) = self.hosts[host].domain_mut(domain) else {
            self.state.counters.incr("placement_races");
            return None;
        };
        dom.bind_addr(addr);
        let vm = VmRef(self.state.next_vmref);
        self.state.next_vmref += 1;
        self.state.vms.insert(vm, slot);
        self.by_addr.insert((addr, vm));
        self.gateway.bind(now, src, addr, vm);
        self.state.counters.incr("vms_cloned");
        self.state.clone_latency_us.record(timing.total().as_micros());
        self.state.vmm_time += timing.total();
        if let Some(crashed_at) = self.state.pending_rebinds.remove(&addr) {
            let downtime = now.saturating_sub(crashed_at).saturating_add(timing.total());
            self.state.rebind_latency_us.record(downtime.as_micros());
            self.state.counters.incr("rebinds_after_crash");
        }
        // The provisioning stages happened "inside" this instant of virtual
        // time; replay them as a span tree (root = clone/standby-bind, one
        // child per stage) so the observed breakdown can be rebuilt from
        // the trace alone.
        timing.emit_spans(&mut self.tracer, now, provision);
        self.last_clone_timing = Some(timing);
        Some(vm)
    }

    /// Models the guest receiving a packet: page activity, infection, and
    /// the response, if the guest makes one (no branch makes two).
    /// Deliberately unspanned: each delivery already leaves a
    /// `gw.action.deliver` instant in the trace, and a redundant span pair
    /// here would be the single largest event source (E12 holds recorder
    /// overhead under 5%).
    fn handle_delivery(&mut self, now: SimTime, vm: VmRef, packet: Packet) -> Option<Packet> {
        let slot = self.state.vms.get(&vm)?;
        let (host_idx, domain) = (slot.host, slot.domain);
        // One lookup of the domain serves everything asked of it below.
        let dom = self.hosts[host_idx].domain(domain).ok()?;
        let infected = dom.is_infected();
        self.state.counters.incr("packets_to_guests");
        let me = packet.dst();
        let remote = packet.src();
        // The VM's behaviour comes from *its* image (farms can impersonate
        // heterogeneous OS profiles across the address space). The image
        // can disappear under a concurrent host crash; drop the delivery
        // rather than panic.
        let (listens_tcp, listens_udp) = {
            let Ok(img) = self.hosts[host_idx].image(dom.image()) else {
                self.state.counters.incr("delivery_races");
                return None;
            };
            // Only the port-listen verdicts are needed downstream; looking
            // them up here (while the image borrow is live) avoids cloning
            // the whole service-table-carrying profile per delivery.
            let profile = img.profile();
            match packet.payload() {
                PacketPayload::Tcp { header, .. } => {
                    (profile.listens_on_tcp(header.dst_port), false)
                }
                PacketPayload::Udp { header, .. } => {
                    (false, profile.listens_on_udp(header.dst_port))
                }
                _ => (false, false),
            }
        };
        let marker = self.config.worm.as_ref().map(|w| w.payload_marker);
        let req_idx = self.state.request_counter;
        self.state.request_counter += 1;

        match packet.payload() {
            PacketPayload::Icmp(msg) => {
                msg.reply_to().map(|reply| PacketBuilder::new(me, remote).icmp(reply))
            }
            PacketPayload::Tcp { header, payload } => {
                let flags = header.flags;
                let listening = listens_tcp;
                if flags.syn && !flags.ack {
                    if listening {
                        self.touch(now, host_idx, domain, req_idx);
                        Some(PacketBuilder::new(me, remote).tcp_segment(
                            header.dst_port,
                            header.src_port,
                            TcpFlags::SYN_ACK,
                            self.state.rng.next_u32(),
                            header.seq.wrapping_add(1),
                            &[],
                        ))
                    } else {
                        Some(PacketBuilder::new(me, remote).tcp_segment(
                            header.dst_port,
                            header.src_port,
                            TcpFlags::RST,
                            0,
                            header.seq.wrapping_add(1),
                            &[],
                        ))
                    }
                } else if flags.syn && flags.ack {
                    // Our connection attempt was accepted. An infected guest
                    // is mid-exploit: send the payload.
                    let worm = self.config.worm.as_ref().filter(|_| infected)?;
                    let instance = self.state.rng.next_u64();
                    Some(PacketBuilder::new(me, remote).tcp_segment(
                        header.dst_port,
                        header.src_port,
                        TcpFlags::PSH_ACK,
                        header.ack,
                        header.seq.wrapping_add(1),
                        &worm.payload_instance(instance),
                    ))
                } else if !payload.is_empty() {
                    let carries_exploit =
                        marker.is_some_and(|m| Self::contains(payload, m)) && listening;
                    if carries_exploit {
                        self.capture_payload(now, payload, header.dst_port, remote);
                        self.infect(
                            now,
                            vm,
                            (host_idx, domain),
                            req_idx,
                            remote,
                            Some(header.dst_port),
                        );
                        Some(PacketBuilder::new(me, remote).tcp_segment(
                            header.dst_port,
                            header.src_port,
                            TcpFlags::ACK,
                            header.ack,
                            header.seq.wrapping_add(payload.len() as u32),
                            &[],
                        ))
                    } else if listening {
                        self.touch(now, host_idx, domain, req_idx);
                        let banner =
                            self.service_response(now, remote, me, header.dst_port, payload);
                        Some(PacketBuilder::new(me, remote).tcp_segment(
                            header.dst_port,
                            header.src_port,
                            TcpFlags::PSH_ACK,
                            header.ack,
                            header.seq.wrapping_add(payload.len() as u32),
                            &banner,
                        ))
                    } else {
                        Some(PacketBuilder::new(me, remote).tcp_segment(
                            header.dst_port,
                            header.src_port,
                            TcpFlags::RST,
                            0,
                            header.seq,
                            &[],
                        ))
                    }
                } else {
                    // Bare ACK/FIN segments need no response in this model.
                    None
                }
            }
            PacketPayload::Udp { header, payload } => {
                let listening = listens_udp;
                let carries_exploit =
                    marker.is_some_and(|m| Self::contains(payload, m)) && listening;
                if header.src_port == potemkin_net::dns::DNS_PORT {
                    // A DNS response to the guest's own query: the resolver
                    // consumes it (the guest had the socket open).
                    self.state.counters.incr("dns_responses_consumed");
                    None
                } else if carries_exploit {
                    self.capture_payload(now, payload, header.dst_port, remote);
                    self.infect(
                        now,
                        vm,
                        (host_idx, domain),
                        req_idx,
                        remote,
                        Some(header.dst_port),
                    );
                    // Slammer-style worms elicit no reply.
                    None
                } else if listening {
                    self.touch(now, host_idx, domain, req_idx);
                    None
                } else {
                    // Closed UDP port: ICMP port unreachable, as a real
                    // stack would.
                    let original = &packet.wire()[..packet.len().min(28)];
                    Some(PacketBuilder::new(me, remote).icmp(IcmpMessage::DestUnreachable {
                        code: IcmpMessage::CODE_PORT_UNREACHABLE,
                        original,
                    }))
                }
            }
            // Unmodeled transports are absorbed silently.
            PacketPayload::Raw { .. } => None,
        }
    }

    fn contains(haystack: &[u8], needle: &[u8]) -> bool {
        !needle.is_empty() && haystack.windows(needle.len()).any(|w| w == needle)
    }

    /// The service-side reply for inbound data on a listening port.
    ///
    /// Without an interaction plane this is the seed's fixed
    /// `220 service ready` banner — runs with `services: None` keep every
    /// byte of their reports unchanged. With one, the scenario engine
    /// classifies the request, steps the claimed scenario's state machine,
    /// and answers in character; fresh sessions pass gateway admission
    /// first, and captured scenario payloads land in the farm's capture
    /// table exactly like exploit-marker payloads.
    fn service_response(
        &mut self,
        now: SimTime,
        remote: Ipv4Addr,
        me: Ipv4Addr,
        port: u16,
        payload: &[u8],
    ) -> Vec<u8> {
        const FIXED_BANNER: &[u8] = b"220 service ready";
        // Disjoint field borrows: the engine converses, the gateway
        // admits, the counters count.
        let outcome = match self.services.as_mut() {
            None => None,
            Some(engine) => {
                let fresh = !engine.has_session(remote, port, payload);
                let admitted = !fresh || self.gateway.admit_service_session(engine.open_sessions());
                if admitted {
                    engine.on_request(now, remote, me, port, payload)
                } else {
                    None
                }
            }
        };
        let Some(outcome) = outcome else {
            return FIXED_BANNER.to_vec();
        };
        self.tracer.instant(now, obs::SVC_DETECT, outcome.scenario as u64);
        if outcome.opened {
            self.state.counters.incr("svc_sessions_opened");
            let open = self.services.as_ref().map_or(0, |e| e.open_sessions() as u64);
            self.tracer.instant(now, obs::SVC_SESSION, open);
        }
        if outcome.stalled {
            self.state.counters.incr("svc_stalls");
        }
        if let Some(captured) = outcome.capture {
            self.state.counters.incr("svc_payloads_captured");
            self.tracer.instant(now, obs::SVC_CAPTURE, captured.len() as u64);
            self.capture_payload(now, &captured, port, remote);
        }
        outcome.response
    }

    /// Mutable access to the interaction-service engine (end-of-run
    /// finalization, record export).
    pub(crate) fn service_engine_mut(&mut self) -> Option<&mut ServiceEngine> {
        self.services.as_mut()
    }

    fn touch(&mut self, _now: SimTime, host: usize, domain: DomainId, req_idx: u64) {
        if let Ok(stats) = self.hosts[host].apply_request(domain, req_idx) {
            self.state.vmm_time += stats.cost;
        } else {
            self.state.counters.incr("guest_memory_errors");
        }
    }

    fn infect(
        &mut self,
        now: SimTime,
        vm: VmRef,
        slot: (usize, DomainId),
        seed: u64,
        infected_by: Ipv4Addr,
        port: Option<u16>,
    ) {
        let (host, domain) = slot;
        let already = self.hosts[host].domain(domain).map_or(true, |d| d.is_infected());
        if already {
            return;
        }
        match self.hosts[host].apply_infection(domain, seed) {
            Ok(stats) => {
                self.state.vmm_time += stats.cost;
                self.state.counters.incr("infections");
                self.state.newly_infected.push(vm);
                // Attribution: is the infecting source one of our own
                // honeypots (internal epidemic) or an external host?
                let internal_origin = self.vm_for_addr(infected_by).is_some();
                if internal_origin {
                    self.state.counters.incr("infections_internal");
                } else {
                    self.state.counters.incr("infections_external");
                }
                let victim_addr = self.hosts[host].domain(domain).ok().and_then(|d| d.bound_addr());
                self.state.infection_log.push(InfectionRecord {
                    vm,
                    victim_addr,
                    infected_by,
                    port,
                    internal_origin,
                    at: now,
                });
            }
            Err(_) => self.state.counters.incr("guest_memory_errors"),
        }
    }

    /// Directly infects a VM (experiment seeding: "patient zero").
    ///
    /// # Errors
    ///
    /// Returns [`FarmError::Vmm`] if the VM does not exist.
    pub fn seed_infection(&mut self, vm: VmRef) -> Result<(), FarmError> {
        let slot = self
            .state
            .vms
            .get(&vm)
            .ok_or(FarmError::Vmm(VmmError::NoSuchDomain(DomainId(vm.0))))?;
        let (host, domain) = (slot.host, slot.domain);
        self.hosts[host].apply_infection(domain, vm.0)?;
        self.state.counters.incr("infections");
        self.state.newly_infected.push(vm);
        let victim_addr = self.hosts[host].domain(domain).ok().and_then(|d| d.bound_addr());
        self.state.infection_log.push(InfectionRecord {
            vm,
            victim_addr,
            infected_by: victim_addr.unwrap_or(Ipv4Addr::UNSPECIFIED),
            port: None,
            internal_origin: false,
            at: SimTime::ZERO,
        });
        Ok(())
    }

    /// Materializes a VM for `addr` without waiting for traffic (experiment
    /// seeding). The binding's "source" is the address itself.
    ///
    /// Returns `None` when no server has capacity.
    pub fn materialize(&mut self, now: SimTime, addr: Ipv4Addr) -> Option<VmRef> {
        self.place_clone(now, addr, addr)
    }

    /// Drains the list of VMs infected since the last call.
    pub(crate) fn take_new_infections(&mut self) -> Vec<VmRef> {
        std::mem::take(&mut self.state.newly_infected)
    }

    /// The full infection provenance log (who infected whom, when, how).
    #[must_use]
    pub fn infection_log(&self) -> &[InfectionRecord] {
        &self.state.infection_log
    }

    /// The captured exploit payloads (deduplicated by content), in
    /// first-seen order.
    #[must_use]
    pub fn captures(&self) -> Vec<&CaptureRecord> {
        let mut v: Vec<&CaptureRecord> = self.state.captures.values().collect();
        v.sort_by_key(|c| (c.first_seen, c.port));
        v
    }

    /// Records a payload delivery into the capture store.
    fn capture_payload(&mut self, now: SimTime, payload: &[u8], port: u16, src: Ipv4Addr) {
        // FNV-1a content hash for dedup.
        let h = potemkin_snapshot::fnv1a64(payload);
        match self.state.captures.get_mut(&h) {
            Some(rec) => rec.hits += 1,
            None => {
                self.state.counters.incr("unique_payloads_captured");
                self.state.captures.insert(
                    h,
                    CaptureRecord {
                        payload: payload.to_vec(),
                        port,
                        first_source: src,
                        first_seen: now,
                        hits: 1,
                    },
                );
            }
        }
    }

    /// Drains recorded farm outputs.
    pub fn take_outputs(&mut self) -> Vec<FarmOutput> {
        std::mem::take(&mut self.state.outputs)
    }

    /// Drains recorded farm outputs in place, retaining the buffer's
    /// capacity. The steady-state alternative to [`Honeyfarm::take_outputs`]:
    /// a driver that drains after every event otherwise reallocates the
    /// outputs vector each time it refills.
    pub fn drain_outputs(&mut self) -> std::vec::Drain<'_, FarmOutput> {
        self.state.outputs.drain(..)
    }

    /// Ends a simulation window: folds the gateway's hot-path counters
    /// into its counter set.
    ///
    /// Drivers that batch bookkeeping at window barriers (see
    /// [`crate::parallel`]) call this once per window instead of paying
    /// map updates per packet.
    pub(crate) fn end_window(&mut self) {
        self.gateway.end_window();
    }

    /// Live (bound) VM count. Standby-pool domains are not included.
    #[must_use]
    pub fn live_vms(&self) -> usize {
        self.state.vms.len()
    }

    /// Standby-pool size across all hosts.
    #[must_use]
    pub fn standby_vms(&self) -> usize {
        self.standby.iter().map(Vec::len).sum()
    }

    /// Count of currently infected live VMs.
    #[must_use]
    pub fn infected_vms(&self) -> usize {
        self.state
            .vms
            .values()
            .filter(|slot| self.hosts[slot.host].domain(slot.domain).is_ok_and(|d| d.is_infected()))
            .count()
    }

    /// The gateway (read access for stats and assertions).
    #[must_use]
    pub fn gateway(&self) -> &Gateway {
        &self.gateway
    }

    /// The server pool (read access).
    #[must_use]
    pub fn hosts(&self) -> &[Host] {
        &self.hosts
    }

    /// Mutable access to the server pool, for VMM-level operations the
    /// controller does not wrap (forensic snapshots, direct memory
    /// inspection). Mutating domains the gateway has bound is the caller's
    /// responsibility.
    pub fn hosts_mut(&mut self) -> &mut [Host] {
        &mut self.hosts
    }

    /// The most recent clone's stage breakdown.
    #[must_use]
    pub fn last_clone_timing(&self) -> Option<&CloneTiming> {
        self.last_clone_timing.as_ref()
    }

    /// Aggregated statistics.
    #[must_use]
    pub fn stats(&self) -> FarmStats {
        FarmStats::collect(self)
    }

    /// Farm-level counters (the gateway keeps its own; see
    /// [`Honeyfarm::gateway`]).
    #[must_use]
    pub fn counters(&self) -> &CounterSet {
        &self.state.counters
    }

    /// Histogram of clone latencies (microseconds of virtual time).
    #[must_use]
    pub(crate) fn clone_latency_us(&self) -> &LogHistogram {
        &self.state.clone_latency_us
    }

    /// Total virtual time spent inside VMM operations.
    #[must_use]
    pub(crate) fn vmm_time(&self) -> SimTime {
        self.state.vmm_time
    }

    /// The crash-to-rebind latency histogram, in microseconds.
    #[must_use]
    pub(crate) fn rebind_latency_us(&self) -> &LogHistogram {
        &self.state.rebind_latency_us
    }

    /// Addresses orphaned by a crash and still awaiting a re-bind.
    #[must_use]
    pub(crate) fn pending_rebinds(&self) -> usize {
        self.state.pending_rebinds.len()
    }

    /// Farm-wide logical-vs-resident memory occupancy (summed over all
    /// servers). `ratio() > 1` means frames are multiply shared.
    #[must_use]
    pub fn sharing_report(&self) -> SharingReport {
        let mut total = SharingReport::default();
        for host in &self.hosts {
            total.absorb(host.sharing_report());
        }
        total
    }
}

/// Whole-farm checkpoint support.
///
/// [`Honeyfarm::encode_state`] serializes every piece of mutable farm
/// state — the server pool (via [`Host::encode_state`]), the gateway (via
/// [`Gateway::encode_state`]), VM slots, standby pools, both RNG streams,
/// the fault-injector cursor, provenance/capture logs, counters and
/// histograms — into one flat payload. [`Honeyfarm::restore_state`] loads
/// it back into a farm built from the *same configuration* (config-derived
/// state — images, budget, cell slot, tracer — is reconstructed by
/// [`Honeyfarm::new`] and the driver, not serialized).
///
/// Restore parses and validates the farm's own fields before committing
/// any of them, but the per-host blobs, the gateway blob and the shared
/// chunk store restore in place, in that order, so an error part-way can
/// leave earlier parts applied: restore targets a scratch farm that is
/// discarded on error (the whole-farm snapshot layer always restores into
/// freshly prepared shards).
///
/// [`Host::encode_state`]: potemkin_vmm::Host::encode_state
/// [`Gateway::encode_state`]: potemkin_gateway::gateway::Gateway::encode_state
impl Honeyfarm {
    /// Encodes the farm's mutable state for a checkpoint section.
    #[must_use]
    pub fn encode_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        // Server pool: one blob per host, then one standby list per host.
        w.seq(&self.hosts, |host, w| w.bytes(&host.encode_state()));
        self.standby.iter().for_each(|pool| pool.snap(&mut w));
        self.state.snap(&mut w);
        w.bytes(&self.reclaim.snapshot_state());
        // Chunk-store accounting. Resident contents are NOT walked here:
        // each host blob carries manifest references, and restore re-puts
        // materialized chunks from those — O(chunks) bools, not O(blocks).
        let store = self.store.stats();
        w.u64(store.puts);
        w.u64(store.dedupe_hits);
        w.u64(store.materialized);
        w.u64(store.reads);
        // The gateway composite blob last.
        w.bytes(&self.gateway.encode_state());
        w.into_bytes()
    }

    /// Restores state encoded by [`Honeyfarm::encode_state`] into this
    /// farm, which must have been built from the same configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Decode`] when the payload is truncated,
    /// structurally inconsistent, or was captured from a farm with a
    /// different server count. On error this farm may be partially
    /// restored — discard it and rebuild.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapReader::new(bytes, "core.farm");
        let host_blobs = r.seq(SnapReader::bytes)?;
        if host_blobs.len() != self.hosts.len() {
            return Err(r.bad());
        }
        let standby = host_blobs.iter().map(|_| Snap::unsnap(&mut r)).collect::<Result<_, _>>()?;
        let state = FarmState::unsnap(&mut r)?;
        if state.vms.values().any(|slot| slot.host >= host_blobs.len()) {
            return Err(r.bad());
        }
        let reclaim_blob = r.bytes()?;
        let store_puts = r.u64()?;
        let store_dedupe = r.u64()?;
        let store_materialized = r.u64()?;
        let store_reads = r.u64()?;
        let gateway_blob = r.bytes()?;
        r.finish()?;

        // Everything parsed; commit. Host and gateway restores mutate in
        // place, which is why whole-farm restore targets a scratch farm.
        // The shared store is rebuilt from scratch: each host's manifest
        // decode re-puts its materialized chunks (deduped on arrival), and
        // the checkpointed accounting is reinstated afterwards so dedupe /
        // materialization counters continue from the captured run.
        self.store.clear();
        for (host, blob) in self.hosts.iter_mut().zip(&host_blobs) {
            host.restore_state(blob)?;
        }
        self.store.set_accounting(store_puts, store_dedupe, store_materialized, store_reads);
        self.gateway.restore_state(gateway_blob)?;
        let mut reclaim = self.config.reclaim_policy.instantiate();
        reclaim.restore_state(reclaim_blob)?;
        self.reclaim = reclaim;
        self.standby = standby;
        self.state = state;
        self.by_addr = self
            .state
            .vms
            .iter()
            .filter_map(|(&vm, &slot)| Some((self.bound_addr(slot)?, vm)))
            .collect();
        self.last_clone_timing = None;
        Ok(())
    }

    /// Reseeds both RNG streams from the current state mixed with `salt`,
    /// diverging this farm from the run it was restored from (the `fork`
    /// operation's what-if branch). Deterministic: the same restored state
    /// and salt always produce the same branch.
    pub(crate) fn reseed(&mut self, salt: u64) {
        let mix = crate::parallel::splitmix64;
        let s = self.state.rng.state();
        let f = self.state.fault_rng.state();
        self.state.rng = SimRng::seed_from(s[0] ^ mix(salt));
        self.state.fault_rng = SimRng::seed_from(f[0] ^ mix(salt ^ 0xFA17));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use potemkin_gateway::policy::PolicyConfig;
    use potemkin_net::addr::Ipv4Prefix;

    const ATTACKER: Ipv4Addr = Ipv4Addr::new(6, 6, 6, 6);
    const HP1: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 5);

    fn syn(src: Ipv4Addr, dst: Ipv4Addr, dport: u16) -> Packet {
        PacketBuilder::new(src, dst).tcp_syn(40_000, dport)
    }

    fn space() -> Ipv4Prefix {
        "10.1.0.0/16".parse().unwrap()
    }

    #[test]
    fn first_contact_materializes_a_vm_that_answers() {
        let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
        farm.inject_external(SimTime::ZERO, syn(ATTACKER, HP1, 445));
        assert_eq!(farm.live_vms(), 1);
        let outputs = farm.take_outputs();
        let replies: Vec<&Packet> = outputs
            .iter()
            .filter_map(|o| match o {
                FarmOutput::SentExternal(p) => Some(p),
                _ => None,
            })
            .collect();
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].src(), HP1);
        assert_eq!(replies[0].dst(), ATTACKER);
        assert_eq!(replies[0].tcp_flags().unwrap(), TcpFlags::SYN_ACK);
    }

    #[test]
    fn closed_port_elicits_rst() {
        let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
        farm.inject_external(SimTime::ZERO, syn(ATTACKER, HP1, 9_999));
        let outputs = farm.take_outputs();
        let rst = outputs
            .iter()
            .find_map(|o| match o {
                FarmOutput::SentExternal(p) if p.tcp_flags().is_some_and(|f| f.rst) => Some(p),
                _ => None,
            })
            .expect("expected a RST");
        assert_eq!(rst.dst(), ATTACKER);
    }

    #[test]
    fn second_packet_reuses_the_vm() {
        let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
        farm.inject_external(SimTime::ZERO, syn(ATTACKER, HP1, 445));
        farm.inject_external(SimTime::from_secs(1), syn(ATTACKER, HP1, 80));
        assert_eq!(farm.live_vms(), 1, "same destination address, same VM");
        assert_eq!(farm.counters().get("vms_cloned"), 1);
    }

    #[test]
    fn distinct_addresses_get_distinct_vms() {
        let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
        for i in 1..=5u8 {
            farm.inject_external(SimTime::ZERO, syn(ATTACKER, Ipv4Addr::new(10, 1, 0, i), 445));
        }
        assert_eq!(farm.live_vms(), 5);
    }

    #[test]
    fn ping_answered_without_vm() {
        let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
        let ping = PacketBuilder::new(ATTACKER, HP1).icmp_echo(1, 1, b"x");
        farm.inject_external(SimTime::ZERO, ping);
        assert_eq!(farm.live_vms(), 0);
        let outputs = farm.take_outputs();
        assert!(matches!(&outputs[0], FarmOutput::SentExternal(p) if p.dst() == ATTACKER));
    }

    #[test]
    fn idle_vms_are_recycled_and_memory_returned() {
        let mut cfg = FarmConfig::small_test();
        cfg.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(30));
        let mut farm = Honeyfarm::new(cfg).unwrap();
        let baseline = farm.hosts()[0].memory_report().used_frames;
        farm.inject_external(SimTime::ZERO, syn(ATTACKER, HP1, 445));
        assert_eq!(farm.live_vms(), 1);
        farm.tick(SimTime::from_secs(10));
        assert_eq!(farm.live_vms(), 1, "still active window");
        farm.tick(SimTime::from_secs(31));
        assert_eq!(farm.live_vms(), 0, "recycled after idle timeout");
        assert_eq!(farm.hosts()[0].memory_report().used_frames, baseline, "no frame leak");
        assert_eq!(farm.counters().get("vms_recycled"), 1);
    }

    #[test]
    fn slammer_probe_reflects_and_infects_internally() {
        let mut cfg = FarmConfig::small_test();
        // The small profile listens on UDP nowhere; use windows profile for
        // the 1434 listener.
        cfg.profile = GuestProfile::windows_server();
        cfg.frames_per_server = 262_144;
        cfg.worm = Some(WormSpec::slammer(space()));
        let mut farm = Honeyfarm::new(cfg).unwrap();

        // Patient zero materializes and is seeded.
        let vm0 = farm.materialize(SimTime::ZERO, HP1).unwrap();
        farm.seed_infection(vm0).unwrap();
        assert_eq!(farm.take_new_infections(), vec![vm0]);

        // One scan probe: reflected, new VM cloned, infected on delivery.
        let mut probes = 0;
        loop {
            assert!(farm.worm_probe(SimTime::from_millis(probes), vm0, probes));
            probes += 1;
            if farm.infected_vms() >= 2 {
                break;
            }
            assert!(probes < 500, "worm failed to spread in 500 probes");
        }
        assert!(farm.live_vms() >= 2);
        let infected = farm.take_new_infections();
        assert_eq!(infected.len(), 1);
        assert_ne!(infected[0], vm0);
        // Nothing escaped.
        let escapes =
            farm.take_outputs().iter().filter(|o| matches!(o, FarmOutput::SentExternal(_))).count();
        assert_eq!(escapes, 0, "reflection must keep worm traffic internal");
        assert_eq!(farm.gateway().counters().get("escaped"), 0);
    }

    #[test]
    fn tcp_worm_completes_dialogue_through_reflection() {
        let mut cfg = FarmConfig::small_test();
        cfg.worm = Some(WormSpec::code_red(space()));
        let mut farm = Honeyfarm::new(cfg).unwrap();
        let vm0 = farm.materialize(SimTime::ZERO, HP1).unwrap();
        farm.seed_infection(vm0).unwrap();
        farm.take_new_infections();

        let mut probes = 0u64;
        while farm.infected_vms() < 2 {
            assert!(farm.worm_probe(SimTime::from_millis(probes * 90), vm0, probes));
            probes += 1;
            assert!(probes < 2_000, "TCP worm failed to spread");
        }
        // The victim was infected through SYN → SYNACK → payload, all
        // internal.
        assert_eq!(farm.gateway().counters().get("escaped"), 0);
        assert!(farm.gateway().counters().get("intra_farm_delivered") > 0);
        assert_eq!(farm.counters().get("infections"), 2); // includes seed
    }

    #[test]
    fn allow_all_lets_probes_escape() {
        let mut cfg = FarmConfig::small_test();
        cfg.gateway.policy = PolicyConfig::allow_all();
        cfg.worm = Some(WormSpec::code_red(space()));
        let mut farm = Honeyfarm::new(cfg).unwrap();
        let vm0 = farm.materialize(SimTime::ZERO, HP1).unwrap();
        farm.seed_infection(vm0).unwrap();
        for i in 0..10 {
            farm.worm_probe(SimTime::from_millis(i * 100), vm0, i);
        }
        assert!(farm.gateway().counters().get("escaped") > 0);
        let escapes =
            farm.take_outputs().iter().filter(|o| matches!(o, FarmOutput::SentExternal(_))).count();
        assert!(escapes > 0);
    }

    #[test]
    fn drop_all_suppresses_probes_and_infections() {
        let mut cfg = FarmConfig::small_test();
        cfg.gateway.policy = PolicyConfig::drop_all();
        cfg.worm = Some(WormSpec::code_red(space()));
        let mut farm = Honeyfarm::new(cfg).unwrap();
        let vm0 = farm.materialize(SimTime::ZERO, HP1).unwrap();
        farm.seed_infection(vm0).unwrap();
        for i in 0..50 {
            farm.worm_probe(SimTime::from_millis(i * 100), vm0, i);
        }
        assert_eq!(farm.gateway().counters().get("escaped"), 0);
        assert_eq!(farm.infected_vms(), 1, "worm cannot spread under drop-all");
        assert_eq!(farm.live_vms(), 1, "no reflection, no new VMs");
    }

    #[test]
    fn pressure_eviction_replaces_the_oldest_binding() {
        let mut cfg = FarmConfig::small_test();
        cfg.max_domains_per_server = 2;
        cfg.evict_on_pressure = true;
        let mut farm = Honeyfarm::new(cfg).unwrap();
        // Fill the farm, with the first binding oldest.
        farm.inject_external(SimTime::ZERO, syn(ATTACKER, Ipv4Addr::new(10, 1, 0, 1), 445));
        farm.inject_external(SimTime::from_secs(1), syn(ATTACKER, Ipv4Addr::new(10, 1, 0, 2), 445));
        assert_eq!(farm.live_vms(), 2);
        // A third address arrives: the oldest VM is replaced, nothing is
        // dropped.
        farm.inject_external(SimTime::from_secs(2), syn(ATTACKER, Ipv4Addr::new(10, 1, 0, 3), 445));
        assert_eq!(farm.live_vms(), 2);
        assert_eq!(farm.counters().get("evicted_for_pressure"), 1);
        assert_eq!(farm.counters().get("dropped_no_capacity"), 0);
        // The evicted address re-binds on its next packet (evicting the now
        // oldest, address 2).
        farm.inject_external(SimTime::from_secs(3), syn(ATTACKER, Ipv4Addr::new(10, 1, 0, 1), 445));
        assert_eq!(farm.live_vms(), 2);
        assert_eq!(farm.counters().get("evicted_for_pressure"), 2);
    }

    #[test]
    fn capacity_exhaustion_drops_new_addresses() {
        let mut cfg = FarmConfig::small_test();
        cfg.max_domains_per_server = 3;
        let mut farm = Honeyfarm::new(cfg).unwrap();
        for i in 1..=10u8 {
            farm.inject_external(SimTime::ZERO, syn(ATTACKER, Ipv4Addr::new(10, 1, 0, i), 445));
        }
        assert_eq!(farm.live_vms(), 3);
        assert_eq!(farm.counters().get("dropped_no_capacity"), 7);
    }

    #[test]
    fn multiple_servers_share_load() {
        let mut cfg = FarmConfig::small_test();
        cfg.servers = 3;
        cfg.max_domains_per_server = 2;
        let mut farm = Honeyfarm::new(cfg).unwrap();
        for i in 1..=6u8 {
            farm.inject_external(SimTime::ZERO, syn(ATTACKER, Ipv4Addr::new(10, 1, 0, i), 445));
        }
        assert_eq!(farm.live_vms(), 6);
        for host in farm.hosts() {
            assert_eq!(host.live_domains(), 2, "round-robin placement");
        }
    }

    #[test]
    fn bad_configs_rejected() {
        let edited = |edit: fn(&mut FarmConfig)| {
            let mut cfg = FarmConfig::small_test();
            edit(&mut cfg);
            cfg
        };
        for (field, cfg) in [
            ("servers", edited(|c| c.servers = 0)),
            ("max_domains_per_server", edited(|c| c.max_domains_per_server = 0)),
            ("memory_budget_frames", edited(|c| c.memory_budget_frames = Some(0))),
            ("merge_interval", edited(|c| c.merge_interval = Some(SimTime::ZERO))),
            ("disk_chunk_blocks", edited(|c| c.disk_chunk_blocks = 0)),
        ] {
            match Honeyfarm::new(cfg) {
                Err(FarmError::Config(e)) => assert_eq!(e.field(), field, "{e}"),
                other => panic!("{field}: {:?}", other.err()),
            }
        }
        let mut cfg2 = FarmConfig::small_test();
        cfg2.frames_per_server = 100; // image does not fit
        assert!(matches!(Honeyfarm::new(cfg2), Err(FarmError::Vmm(_))));
    }

    #[test]
    fn clone_latency_recorded() {
        let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
        farm.inject_external(SimTime::ZERO, syn(ATTACKER, HP1, 445));
        assert_eq!(farm.clone_latency_us().count(), 1);
        let timing = farm.last_clone_timing().unwrap();
        assert!(timing.total() > SimTime::from_millis(100));
        assert!(farm.vmm_time() >= timing.total());
    }

    #[test]
    fn standby_pool_hides_clone_latency() {
        let mut cfg = FarmConfig::small_test();
        cfg.standby_per_host = 2;
        cfg.frames_per_server = 200_000;
        let mut farm = Honeyfarm::new(cfg).unwrap();
        assert_eq!(farm.standby_vms(), 2);

        // First two contacts hit the pool: only bind stages.
        farm.inject_external(SimTime::ZERO, syn(ATTACKER, Ipv4Addr::new(10, 1, 0, 1), 445));
        let pool_timing = farm.last_clone_timing().unwrap().total();
        assert!(pool_timing < SimTime::from_millis(200), "pool hit took {pool_timing}");
        farm.inject_external(SimTime::ZERO, syn(ATTACKER, Ipv4Addr::new(10, 1, 0, 2), 445));
        assert_eq!(farm.standby_vms(), 0);

        // Third contact pays the full flash clone.
        farm.inject_external(SimTime::ZERO, syn(ATTACKER, Ipv4Addr::new(10, 1, 0, 3), 445));
        let cold_timing = farm.last_clone_timing().unwrap().total();
        assert!(cold_timing > pool_timing * 3, "cold {cold_timing} vs pool {pool_timing}");
        assert_eq!(farm.counters().get("standby_hits"), 2);
        assert_eq!(farm.live_vms(), 3);
    }

    #[test]
    fn rollback_recycling_refills_the_pool() {
        let mut cfg = FarmConfig::small_test();
        cfg.standby_per_host = 1;
        cfg.recycle = RecycleStrategy::RollbackToPool;
        cfg.frames_per_server = 200_000;
        cfg.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
        let mut farm = Honeyfarm::new(cfg).unwrap();
        let baseline = farm.hosts()[0].memory_report().used_frames;

        farm.inject_external(SimTime::ZERO, syn(ATTACKER, HP1, 445));
        assert_eq!(farm.standby_vms(), 0, "pool VM bound");
        farm.tick(SimTime::from_secs(11));
        assert_eq!(farm.live_vms(), 0);
        assert_eq!(farm.standby_vms(), 1, "rolled back into the pool");
        assert_eq!(farm.counters().get("vms_rolled_back"), 1);
        assert_eq!(
            farm.hosts()[0].memory_report().used_frames,
            baseline,
            "rollback returned the delta"
        );

        // The next contact reuses the rolled-back domain — pristine.
        farm.inject_external(SimTime::from_secs(12), syn(ATTACKER, HP1, 445));
        assert_eq!(farm.counters().get("standby_hits"), 2);
        let domains = farm.hosts()[0].domains().count();
        assert_eq!(domains, 1, "only the initial pool fill cloned, and nothing was destroyed");
    }

    #[test]
    fn rolled_back_vm_is_not_infected_anymore() {
        let mut cfg = FarmConfig::small_test();
        cfg.recycle = RecycleStrategy::RollbackToPool;
        cfg.worm = Some(WormSpec::code_red("10.1.0.0/24".parse().unwrap()));
        cfg.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
        cfg.frames_per_server = 200_000;
        let mut farm = Honeyfarm::new(cfg).unwrap();
        let vm0 = farm.materialize(SimTime::ZERO, HP1).unwrap();
        farm.seed_infection(vm0).unwrap();
        assert_eq!(farm.infected_vms(), 1);
        farm.tick(SimTime::from_secs(11));
        assert_eq!(farm.infected_vms(), 0);
        assert_eq!(farm.standby_vms(), 1);
        // Reuse: the standby domain serves a fresh address, uninfected.
        farm.inject_external(
            SimTime::from_secs(12),
            syn(ATTACKER, Ipv4Addr::new(10, 1, 0, 9), 445),
        );
        assert_eq!(farm.live_vms(), 1);
        assert_eq!(farm.infected_vms(), 0);
    }

    #[test]
    fn payload_capture_deduplicates_by_content() {
        let mut cfg = FarmConfig::small_test();
        cfg.worm = Some(WormSpec::code_red("10.1.0.0/24".parse().unwrap()));
        cfg.frames_per_server = 600_000;
        let mut farm = Honeyfarm::new(cfg).unwrap();
        let atk = Ipv4Addr::new(6, 6, 6, 6);
        let atk2 = Ipv4Addr::new(7, 7, 7, 7);

        // The same exploit delivered to two addresses by two attackers.
        for (src, dst_octet) in [(atk, 1u8), (atk2, 2u8)] {
            let dst = Ipv4Addr::new(10, 1, 0, dst_octet);
            let t = SimTime::from_millis(10 * u64::from(dst_octet));
            farm.inject_external(t, PacketBuilder::new(src, dst).tcp_syn(9_000, 80));
            let payload = PacketBuilder::new(src, dst).tcp_segment(
                9_000,
                80,
                TcpFlags::PSH_ACK,
                1,
                1,
                b"GET /default.ida?NNNN-marker",
            );
            farm.inject_external(t + SimTime::from_millis(5), payload);
        }
        assert_eq!(farm.infected_vms(), 2);
        let captures = farm.captures();
        assert_eq!(captures.len(), 1, "identical payloads deduplicate");
        assert_eq!(captures[0].hits, 2);
        assert_eq!(captures[0].port, 80);
        assert_eq!(captures[0].first_source, atk);
        assert!(captures[0].payload.windows(6).any(|w| w == b"marker"));
        assert_eq!(farm.counters().get("unique_payloads_captured"), 1);
    }

    #[test]
    fn polymorphic_worm_defeats_content_dedup_but_not_capture() {
        let run_with = |polymorphic: bool| {
            let mut cfg = FarmConfig::small_test();
            cfg.profile = GuestProfile::windows_server();
            cfg.frames_per_server = 8_000_000;
            cfg.max_domains_per_server = 4_096;
            cfg.gateway.policy.binding_idle_timeout = SimTime::from_secs(600);
            cfg.worm =
                Some(WormSpec { polymorphic, ..WormSpec::slammer("10.1.0.0/24".parse().unwrap()) });
            let mut farm = Honeyfarm::new(cfg).unwrap();
            let vm0 = farm.materialize(SimTime::ZERO, HP1).unwrap();
            farm.seed_infection(vm0).unwrap();
            for i in 0..40u64 {
                farm.worm_probe(SimTime::from_millis(i), vm0, i);
            }
            (farm.infected_vms(), farm.captures().len())
        };
        let (mono_infected, mono_unique) = run_with(false);
        let (poly_infected, poly_unique) = run_with(true);
        assert!(mono_infected > 5 && poly_infected > 5, "both spread");
        assert_eq!(mono_unique, 1, "monomorphic payloads collapse to one capture");
        assert!(
            poly_unique > mono_unique,
            "polymorphic instances produce distinct captures: {poly_unique}"
        );
    }

    #[test]
    fn infection_provenance_distinguishes_internal_from_external() {
        let mut cfg = FarmConfig::small_test();
        cfg.worm = Some(WormSpec::code_red("10.1.0.0/24".parse().unwrap()));
        cfg.frames_per_server = 600_000;
        cfg.max_domains_per_server = 4_096;
        let mut farm = Honeyfarm::new(cfg).unwrap();

        // External attacker delivers the exploit by hand: SYN, then payload.
        let atk = Ipv4Addr::new(6, 6, 6, 6);
        farm.inject_external(SimTime::ZERO, PacketBuilder::new(atk, HP1).tcp_syn(9_000, 80));
        let payload = PacketBuilder::new(atk, HP1).tcp_segment(
            9_000,
            80,
            TcpFlags::PSH_ACK,
            1,
            1,
            b"GET /default.ida?NNNN-marker",
        );
        farm.inject_external(SimTime::from_millis(5), payload);
        assert_eq!(farm.infected_vms(), 1);
        {
            let log = farm.infection_log();
            assert_eq!(log.len(), 1);
            assert_eq!(log[0].infected_by, atk);
            assert_eq!(log[0].victim_addr, Some(HP1));
            assert_eq!(log[0].port, Some(80));
            assert!(!log[0].internal_origin, "external attacker");
        }

        // The infected honeypot now spreads: reflected infections are
        // attributed as internal.
        let vm0 = farm.take_new_infections()[0];
        let mut probes = 0u64;
        while farm.infected_vms() < 2 {
            farm.worm_probe(SimTime::from_millis(100 + probes * 90), vm0, probes);
            probes += 1;
            assert!(probes < 2_000);
        }
        let log = farm.infection_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log[1].infected_by, HP1, "spread by the first honeypot");
        assert!(log[1].internal_origin, "internal epidemic");
        assert_eq!(farm.counters().get("infections_internal"), 1);
        assert_eq!(farm.counters().get("infections_external"), 1);
    }

    #[test]
    fn an_address_shared_by_two_vms_resolves_to_the_same_one_in_every_farm() {
        // Per-source binding puts one VM per attacker on HP1. Which of them
        // takes a gateway-synthesized reply to HP1 (a DNS answer) used to
        // follow a `HashMap`'s iteration order, so it differed from one
        // farm instance to the next.
        let other = Ipv4Addr::new(7, 7, 7, 7);
        for _ in 0..32 {
            let mut cfg = FarmConfig::small_test();
            cfg.gateway.granularity = potemkin_gateway::BindGranularity::PerSourceDestination;
            let mut farm = Honeyfarm::new(cfg).unwrap();
            farm.inject_external(SimTime::ZERO, syn(ATTACKER, HP1, 445));
            farm.inject_external(SimTime::ZERO, syn(other, HP1, 445));
            assert_eq!(farm.live_vms(), 2);
            assert_eq!(farm.vm_for_addr(HP1), Some(VmRef(0)), "the lowest VmRef wins");
            // The index follows recycling and survives a restore.
            let mut restored = Honeyfarm::new(farm.config.as_ref().clone()).unwrap();
            restored.restore_state(&farm.encode_state()).unwrap();
            assert_eq!(restored.vm_for_addr(HP1), Some(VmRef(0)));
            farm.reclaim_vm(VmRef(0));
            assert_eq!(farm.vm_for_addr(HP1), Some(VmRef(1)));
            farm.reclaim_vm(VmRef(1));
            assert_eq!(farm.vm_for_addr(HP1), None);
        }
    }

    #[test]
    fn emit_from_dead_vm_returns_false() {
        let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
        let pkt = PacketBuilder::new(HP1, ATTACKER).tcp_syn(1, 2);
        assert!(!farm.emit_from_vm(SimTime::ZERO, VmRef(99), pkt));
        assert!(!farm.worm_probe(SimTime::ZERO, VmRef(99), 0));
    }

    use potemkin_sim::FaultEvent;

    fn plan_of(events: Vec<FaultEvent>) -> potemkin_sim::FaultPlan {
        potemkin_sim::FaultPlan { events, clone_failure_prob: 0.0 }
    }

    #[test]
    fn host_crash_rebinds_victims_on_the_survivor() {
        let mut cfg = FarmConfig::small_test();
        cfg.servers = 2;
        let mut farm = Honeyfarm::new(cfg).unwrap();
        for i in 1..=4u8 {
            farm.inject_external(SimTime::ZERO, syn(ATTACKER, Ipv4Addr::new(10, 1, 0, i), 445));
        }
        assert_eq!(farm.live_vms(), 4);
        assert_eq!(farm.hosts()[0].live_domains(), 2, "round-robin put 2 on each");

        farm.install_fault_plan(plan_of(vec![FaultEvent {
            at: SimTime::from_secs(5),
            kind: FaultKind::HostCrash { host: 0 },
        }]));
        farm.tick(SimTime::from_secs(6));

        assert!(!farm.hosts()[0].is_alive());
        assert_eq!(farm.live_vms(), 4, "victims re-placed on the survivor");
        assert_eq!(farm.hosts()[1].live_domains(), 4);
        assert_eq!(farm.counters().get("host_crashes"), 1);
        assert_eq!(farm.counters().get("vms_lost_to_crash"), 2);
        assert_eq!(farm.counters().get("rebinds_after_crash"), 2);
        assert_eq!(farm.pending_rebinds(), 0);
        assert_eq!(farm.rebind_latency_us().count(), 2);

        // The re-bound address still answers — through its new VM.
        farm.inject_external(SimTime::from_secs(7), syn(ATTACKER, Ipv4Addr::new(10, 1, 0, 1), 80));
        assert_eq!(farm.counters().get("vms_cloned"), 6, "no extra clone: binding is live");
    }

    #[test]
    fn crash_with_no_survivor_defers_rebinds_until_recovery() {
        let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
        farm.inject_external(SimTime::ZERO, syn(ATTACKER, HP1, 445));
        farm.install_fault_plan(plan_of(vec![
            FaultEvent { at: SimTime::from_secs(2), kind: FaultKind::HostCrash { host: 0 } },
            FaultEvent { at: SimTime::from_secs(32), kind: FaultKind::HostRecover { host: 0 } },
        ]));
        farm.tick(SimTime::from_secs(3));
        assert_eq!(farm.live_vms(), 0, "sole server down, nothing to re-place");
        assert_eq!(farm.pending_rebinds(), 1);
        assert_eq!(farm.counters().get("rebind_deferred"), 1);

        // While down, new first contacts cannot be served.
        farm.inject_external(SimTime::from_secs(4), syn(ATTACKER, Ipv4Addr::new(10, 1, 0, 9), 445));
        assert_eq!(farm.live_vms(), 0);
        assert_eq!(farm.counters().get("dropped_no_capacity"), 1);

        // Recovery fires at 32s; the orphaned address re-binds on its next
        // packet and the full downtime lands in the MTTR histogram.
        farm.inject_external(SimTime::from_secs(40), syn(ATTACKER, HP1, 445));
        assert_eq!(farm.live_vms(), 1);
        assert_eq!(farm.pending_rebinds(), 0);
        assert_eq!(farm.counters().get("host_recoveries"), 1);
        let mttr_us = farm.rebind_latency_us().quantile(0.5);
        assert!(mttr_us >= 38_000_000, "downtime spans crash to re-bind: {mttr_us}us");
    }

    #[test]
    fn clone_faults_exhaust_retries_and_fall_down_the_ladder() {
        let mut cfg = FarmConfig::small_test();
        cfg.retry = Some(RetryPolicy::default_clone());
        cfg.degradation_ladder = true;
        let mut farm = Honeyfarm::new(cfg).unwrap();
        farm.install_fault_plan(potemkin_sim::FaultPlan {
            events: Vec::new(),
            clone_failure_prob: 1.0, // every attempt fails
        });
        farm.inject_external(SimTime::ZERO, syn(ATTACKER, HP1, 445));
        assert_eq!(farm.live_vms(), 0);
        assert_eq!(farm.counters().get("clone_retries"), 2, "3 attempts, 2 retries");
        assert_eq!(farm.counters().get("degraded_synacks"), 1);
        let outputs = farm.take_outputs();
        let synack = outputs
            .iter()
            .find_map(|o| match o {
                FarmOutput::SentExternal(p) => Some(p),
                _ => None,
            })
            .expect("stateless responder answered");
        assert_eq!(synack.src(), HP1);
        assert_eq!(synack.tcp_flags().unwrap(), TcpFlags::SYN_ACK);

        // Non-SYN traffic hits the bottom rung: drop-with-count.
        let udp = PacketBuilder::new(ATTACKER, Ipv4Addr::new(10, 1, 0, 8)).udp(40_000, 1434, b"x");
        farm.inject_external(SimTime::ZERO, udp);
        assert_eq!(farm.counters().get("dropped_degraded"), 1);
        assert!(farm.counters().get("clone_faults_injected") >= 3);
    }

    #[test]
    fn transient_clone_fault_is_retried_to_success() {
        let mut cfg = FarmConfig::small_test();
        cfg.retry = Some(RetryPolicy::default_clone());
        let mut farm = Honeyfarm::new(cfg).unwrap();
        // A host-level burst of exactly one fault: attempt 1 fails, the
        // retry succeeds.
        farm.install_fault_plan(plan_of(vec![FaultEvent {
            at: SimTime::ZERO,
            kind: FaultKind::CloneFaultBurst { host: 0, count: 1 },
        }]));
        farm.inject_external(SimTime::from_secs(1), syn(ATTACKER, HP1, 445));
        assert_eq!(farm.live_vms(), 1, "retry recovered the clone");
        assert_eq!(farm.counters().get("clone_retries"), 1);
        assert_eq!(farm.counters().get("clone_retries_succeeded"), 1);
        // The backoff shows up in the clone's stage breakdown.
        let timing = farm.last_clone_timing().unwrap();
        assert!(timing.stages().iter().any(|(name, _)| *name == "retry_backoff"));
    }

    #[test]
    fn gateway_stall_and_tunnel_loss_drop_inbound_without_vms() {
        let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
        farm.install_fault_plan(plan_of(vec![
            FaultEvent {
                at: SimTime::ZERO,
                kind: FaultKind::GatewayStall { duration: SimTime::from_secs(5) },
            },
            FaultEvent {
                at: SimTime::from_secs(10),
                kind: FaultKind::TunnelDegrade { loss: 1.0, duration: SimTime::from_secs(5) },
            },
        ]));
        // During the stall: the gateway refuses the new binding.
        farm.inject_external(SimTime::from_secs(1), syn(ATTACKER, HP1, 445));
        assert_eq!(farm.live_vms(), 0);
        assert_eq!(farm.gateway().counters().get("dropped_gateway_stalled"), 1);
        // During tunnel degradation at 100% loss: the packet never reaches
        // the gateway.
        farm.inject_external(SimTime::from_secs(11), syn(ATTACKER, HP1, 445));
        assert_eq!(farm.live_vms(), 0);
        assert_eq!(farm.counters().get("tunnel_dropped"), 1);
        // After both windows: normal service resumes.
        farm.inject_external(SimTime::from_secs(20), syn(ATTACKER, HP1, 445));
        assert_eq!(farm.live_vms(), 1);
    }

    #[test]
    fn installing_a_zero_plan_changes_nothing() {
        let run = |install: bool| {
            let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
            if install {
                farm.install_fault_plan(potemkin_sim::FaultPlan::zero());
            }
            for i in 1..=6u8 {
                let t = SimTime::from_secs(u64::from(i));
                farm.inject_external(t, syn(ATTACKER, Ipv4Addr::new(10, 1, 0, i), 445));
                farm.tick(t);
            }
            let mut c = farm.counters().clone();
            c.merge(&farm.gateway().counters_snapshot());
            (farm.live_vms(), c)
        };
        let (vms_a, counters_a) = run(false);
        let (vms_b, counters_b) = run(true);
        assert_eq!(vms_a, vms_b);
        assert_eq!(format!("{counters_a:?}"), format!("{counters_b:?}"));
    }

    /// Builds the busiest farm the test config allows: worm spreading with
    /// reflection, a fault plan mid-flight, merge passes, and a memory
    /// budget, then drives it for `secs` seconds of traffic.
    fn busy_checkpoint_config() -> FarmConfig {
        let mut cfg = FarmConfig::small_test();
        cfg.profile = GuestProfile::windows_server();
        cfg.frames_per_server = 262_144;
        cfg.worm = Some(WormSpec::slammer(space()));
        cfg.merge_interval = Some(SimTime::from_secs(2));
        cfg.memory_budget_frames = Some(200_000);
        cfg
    }

    fn drive_busy(farm: &mut Honeyfarm, start_sec: u64, secs: u64) -> Vec<FarmOutput> {
        let worm_vm = farm.state.infection_log.first().map(|rec| rec.vm);
        let mut outputs = Vec::new();
        for s in start_sec..start_sec + secs {
            let t = SimTime::from_secs(s);
            let octet = u8::try_from(s % 200 + 1).unwrap();
            farm.inject_external(t, syn(ATTACKER, Ipv4Addr::new(10, 1, 0, octet), 445));
            if s % 3 == 0 {
                let udp = PacketBuilder::new(ATTACKER, Ipv4Addr::new(10, 1, 1, octet)).udp(
                    40_000,
                    1434,
                    &[4u8; 376],
                );
                farm.inject_external(t, udp);
            }
            if let Some(vm) = worm_vm {
                farm.worm_probe(t, vm, s);
            }
            farm.tick(t);
            farm.take_new_infections();
            outputs.extend(farm.take_outputs());
        }
        outputs
    }

    fn checkpoint_fault_plan() -> potemkin_sim::FaultPlan {
        potemkin_sim::FaultPlan {
            events: vec![
                FaultEvent { at: SimTime::from_secs(3), kind: FaultKind::HostCrash { host: 0 } },
                FaultEvent { at: SimTime::from_secs(5), kind: FaultKind::HostRecover { host: 0 } },
                FaultEvent {
                    at: SimTime::from_secs(7),
                    kind: FaultKind::TunnelDegrade { loss: 0.5, duration: SimTime::from_secs(2) },
                },
            ],
            clone_failure_prob: 0.05,
        }
    }

    /// The busy farm under the fault plan, 12 s in, with undrained outputs
    /// left in place so they are encoded too.
    fn busy_farm(config: FarmConfig) -> Honeyfarm {
        let mut farm = Honeyfarm::new(config).unwrap();
        farm.install_fault_plan(checkpoint_fault_plan());
        let vm0 = farm.materialize(SimTime::ZERO, HP1).unwrap();
        farm.seed_infection(vm0).unwrap();
        drive_busy(&mut farm, 0, 12);
        farm.inject_external(SimTime::from_secs(12), syn(ATTACKER, HP1, 445));
        farm
    }

    /// `(len, fnv1a64)` of `encode_state` for [`busy_farm`] on the default
    /// chunk geometry and on E18's 16-block chunks, re-pinned for snapshot
    /// version 8 (no fault ledger, series, pressure log, rate estimator,
    /// disk or crash tallies; the rebind histogram follows the clone
    /// latency one) and 10 (no merge totals, host lifecycle tallies or
    /// gateway tallies, and the clone-failure probability only in the fault
    /// injector: 24 + 40 a host + 68 + 8 bytes less) and 12 (an image is
    /// its profile: no row per image page, no frame list, no manifest
    /// geometry; no read or write tally a domain).
    const BUSY_FARM_PIN: (usize, u64) = (35_412, 0x4adf1e8a6ad3033e);
    const CHUNKED_FARM_PIN: (usize, u64) = (35_492, 0x5f8ff4f565603403);

    #[test]
    fn encode_state_matches_the_pinned_wire_format() {
        let pin = |farm: &Honeyfarm| {
            let bytes = farm.encode_state();
            (bytes.len(), potemkin_snapshot::fnv1a64(&bytes))
        };
        assert_eq!(pin(&busy_farm(busy_checkpoint_config())), BUSY_FARM_PIN);
        let mut chunked = busy_checkpoint_config();
        chunked.disk_chunk_blocks = 16;
        let farm = busy_farm(chunked);
        // Guests read their disks, so some manifest slots are materialized
        // and some stay lazy.
        let mut slots: Vec<&VmSlot> = farm.state.vms.values().collect();
        slots.sort_by_key(|slot| slot.domain);
        for (i, slot) in slots.iter().enumerate() {
            farm.hosts[slot.host].read_block(slot.domain, 40 * i as u64).unwrap();
        }
        assert!(farm.store_stats().materialized > 1);
        assert_eq!(pin(&farm), CHUNKED_FARM_PIN);
    }

    #[test]
    fn checkpoint_round_trip_is_byte_identical() {
        let farm = busy_farm(busy_checkpoint_config());
        let encoded = farm.encode_state();
        let mut restored = Honeyfarm::new(busy_checkpoint_config()).unwrap();
        restored.restore_state(&encoded).unwrap();
        assert_eq!(restored.encode_state(), encoded, "encode∘restore∘encode ≠ encode");
        assert_eq!(restored.live_vms(), farm.live_vms());
        assert_eq!(restored.infected_vms(), farm.infected_vms());
        assert_eq!(format!("{:?}", restored.counters()), format!("{:?}", farm.counters()));
    }

    #[test]
    fn restored_farm_behaves_identically_to_original() {
        let mut farm = Honeyfarm::new(busy_checkpoint_config()).unwrap();
        farm.install_fault_plan(checkpoint_fault_plan());
        let vm0 = farm.materialize(SimTime::ZERO, HP1).unwrap();
        farm.seed_infection(vm0).unwrap();
        drive_busy(&mut farm, 0, 8);

        let encoded = farm.encode_state();
        let mut restored = Honeyfarm::new(busy_checkpoint_config()).unwrap();
        restored.restore_state(&encoded).unwrap();

        // Drive both copies through the same subsequent traffic (which
        // crosses the tunnel-degradation window and more merge passes) and
        // demand bit-identical state at the end.
        let out_a = drive_busy(&mut farm, 8, 8);
        let out_b = drive_busy(&mut restored, 8, 8);
        assert_eq!(out_a.len(), out_b.len());
        assert_eq!(farm.encode_state(), restored.encode_state());
    }

    #[test]
    fn restore_rejects_truncated_and_garbage_payloads() {
        let mut farm = Honeyfarm::new(busy_checkpoint_config()).unwrap();
        drive_busy(&mut farm, 0, 4);
        let encoded = farm.encode_state();

        for cut in [0, 1, encoded.len() / 2, encoded.len() - 1] {
            let mut scratch = Honeyfarm::new(busy_checkpoint_config()).unwrap();
            assert!(
                scratch.restore_state(&encoded[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        let mut scratch = Honeyfarm::new(busy_checkpoint_config()).unwrap();
        assert!(scratch.restore_state(&[0xFFu8; 64]).is_err());

        // A payload captured from a differently sized farm is rejected.
        let mut big = busy_checkpoint_config();
        big.servers = 4;
        let mut scratch = Honeyfarm::new(big).unwrap();
        assert!(matches!(scratch.restore_state(&encoded), Err(SnapshotError::Decode { .. })));
    }

    #[test]
    fn reseed_diverges_deterministically() {
        let mut farm = Honeyfarm::new(busy_checkpoint_config()).unwrap();
        drive_busy(&mut farm, 0, 4);
        let encoded = farm.encode_state();

        let mut fork_a = Honeyfarm::new(busy_checkpoint_config()).unwrap();
        fork_a.restore_state(&encoded).unwrap();
        fork_a.reseed(7);
        let mut fork_b = Honeyfarm::new(busy_checkpoint_config()).unwrap();
        fork_b.restore_state(&encoded).unwrap();
        fork_b.reseed(7);
        assert_eq!(fork_a.encode_state(), fork_b.encode_state(), "same salt, same branch");

        let mut fork_c = Honeyfarm::new(busy_checkpoint_config()).unwrap();
        fork_c.restore_state(&encoded).unwrap();
        fork_c.reseed(8);
        assert_ne!(fork_a.encode_state(), fork_c.encode_state(), "different salt diverges");
    }
}
