//! Deterministic observability for the Potemkin honeyfarm: the counters
//! every table is computed from, and the traces that attribute time.
//!
//! **Measurement.** Every table and figure in the reproduction is computed
//! from the primitives here: named counters ([`CounterSet`]), log-bucketed
//! histograms with quantiles ([`LogHistogram`]), binned time series
//! ([`TimeSeries`]), a concurrency analyzer ([`ConcurrencyAnalyzer`] — the
//! paper's scalability argument is a Little's-law argument: VMs required ≈
//! arrival rate × VM lifetime), a fault ledger, and the plain-text
//! [`Table`] renderer the `figures` binary prints paper-style tables with.
//!
//! **Tracing.** The paper's evaluation is an exercise in *attribution*:
//! Table 1 breaks one flash clone into per-stage costs; the telescope
//! experiments reason about where time goes as load scales. This crate
//! records that attribution from live runs instead of trusting the cost
//! model: structured [`TraceEvent`]s with token spans (`SpanToken`), a
//! per-lane flight-recorder ring ([`RingRecorder`]), aggregation into
//! latency statistics per span name ([`SpanAggregator`]), and a Chrome
//! `trace_event` JSON exporter.
//!
//! Three properties define the tracing design:
//!
//! * **Zero observer effect.** A disabled [`Tracer`] is a `None` — every
//!   call is one branch. An enabled tracer stamps events with
//!   caller-supplied sim-time and never touches an RNG or the event
//!   queue, so every deterministic report is byte-identical with tracing
//!   on or off (`tests/prop_obs.rs` proves it property-style).
//! * **Lock-free by construction.** Each component owns its tracer and
//!   lane exclusively (farm, gateway, shard workers); recording is
//!   `&mut self` with no atomics or locks — sharding at the ownership
//!   level, like the simulator's per-shard queues.
//! * **Sim-time first.** Spans measure *virtual* cost (a flash clone's
//!   control-plane stage, a barrier window). Wall-clock stamps are
//!   opt-in for bench runs and excluded from digests.
//!
//! # Examples
//!
//! ```
//! use potemkin_obs::{SpanAggregator, TraceConfig, Tracer};
//! use potemkin_sim::SimTime;
//!
//! let mut tracer = Tracer::new(0, TraceConfig::unbounded());
//! let clone = tracer.begin(SimTime::ZERO, "vmm.flash_clone");
//! let stage = tracer.begin(SimTime::ZERO, "control plane");
//! tracer.end(SimTime::from_millis(182), stage);
//! tracer.end(SimTime::from_millis(182), clone);
//!
//! let mut agg = SpanAggregator::new();
//! agg.ingest(&tracer.drain());
//! assert_eq!(agg.stats("control plane").unwrap().mean(), SimTime::from_millis(182));
//! ```

#![warn(unreachable_pub)]

mod agg;
mod counter;
mod event;
mod export;
mod faults;
mod histogram;
mod littles_law;
mod rate;
mod recorder;
mod table;
mod timeseries;
mod tracer;

pub use agg::{SpanAggregator, SpanStats};
pub use counter::CounterSet;
pub use event::{TraceEvent, TraceEventKind};
pub use export::chrome_trace_json;
pub use faults::{FaultClass, FaultLedger};
pub use histogram::LogHistogram;
pub use littles_law::ConcurrencyAnalyzer;
pub use rate::RateEstimator;
pub use recorder::{RecorderMode, RingRecorder};
pub use table::Table;
pub use timeseries::TimeSeries;
pub use tracer::{TraceConfig, Tracer};

/// Interned span and event names used across the stack, kept in one place
/// so emitters, aggregators, and experiment tables agree by construction.
pub mod names {
    /// Farm: one external packet through the gateway and dispatch queue.
    pub const FARM_INJECT: &str = "farm.inject";
    /// Farm: draining the gateway-action queue for one packet.
    pub const FARM_DISPATCH: &str = "farm.dispatch";
    /// Farm: periodic maintenance (fault polling, flow expiry).
    pub const FARM_TICK: &str = "farm.tick";
    /// VMM: a flash clone (stage spans nested inside).
    pub const VMM_FLASH_CLONE: &str = "vmm.flash_clone";
    /// VMM: binding a pre-cloned standby domain.
    pub const VMM_STANDBY_BIND: &str = "vmm.standby_bind";
    /// Gateway: inbound classification (one span per inbound packet; the
    /// resulting action is the adjacent `gw.action.*` instant).
    pub const GW_CLASSIFY: &str = "gw.classify";
    /// Gateway: outbound containment policy decision.
    pub const GW_POLICY: &str = "gw.policy";
    /// Gateway: a packet tunneled to the external network.
    pub const GW_TUNNEL: &str = "gw.tunnel.forward";
    /// Shard engine: one barrier-window execution on a worker.
    pub const SHARD_WINDOW: &str = "shard.window";
    /// Shard engine: events processed in a window (counter).
    pub const SHARD_EVENTS: &str = "shard.events";
    /// Memory control plane: one content-index scan pass over a host
    /// (span; merges happen inside).
    pub const MEM_SCAN: &str = "mem.scan";
    /// Memory control plane: pages merged back to shared frames in a scan
    /// (instant; value = pages merged).
    pub const MEM_MERGE: &str = "mem.merge";
    /// Memory control plane: a binding evicted by the reclaim policy
    /// under pressure (instant).
    pub const MEM_RECLAIM: &str = "mem.reclaim";
    /// Memory control plane: a clone allocation exceeded the host budget
    /// (instant; value = requested frames).
    pub const MEM_PRESSURE: &str = "mem.pressure";
    /// Checkpointing: one whole-farm snapshot written at a window barrier
    /// (span; paired `snap.bytes` counter carries the encoded size).
    pub const SNAP_SAVE: &str = "snap.save";
    /// Checkpointing: a run restored from a snapshot before resuming
    /// (span; paired `snap.bytes` counter carries the decoded size).
    pub const SNAP_RESTORE: &str = "snap.restore";
    /// Federation: a batch of packets delivered into a cell over a GRE
    /// farm uplink (instant; value = packets in the batch).
    pub const FED_TUNNEL: &str = "fed.tunnel";
    /// Federation: fabric deliveries shed into a cell by global admission
    /// control (instant; value = packets shed).
    pub const FED_SHED: &str = "fed.shed";
    /// Services: a session classified and claimed by a scenario (instant;
    /// value = scenario index in the pack).
    pub const SVC_DETECT: &str = "svc.detect";
    /// Services: a new interaction session opened (instant; value = live
    /// sessions after the open).
    pub const SVC_SESSION: &str = "svc.session";
    /// Services: a scenario rule captured a payload (instant; value =
    /// payload length in bytes).
    pub const SVC_CAPTURE: &str = "svc.capture";
    /// Storage: resident chunks in the farm-wide content-addressed store,
    /// sampled at merge cadence (instant; value = resident chunk count).
    pub const STORE_CHUNK: &str = "store.chunk";
    /// Storage: cumulative dedupe hits — puts whose content was already
    /// stored (instant; value = hits so far).
    pub const STORE_DEDUPE: &str = "store.dedupe";
    /// Storage: cumulative lazy chunk materializations — base chunks
    /// generated on first guest read, the disk-side late binding (instant;
    /// value = materializations so far).
    pub const STORE_MATERIALIZE: &str = "store.materialize";
}
