//! E12 — observed clone-stage breakdown and digest-invisible tracing
//! (extension).
//!
//! Two claims from the observability subsystem, checked against each
//! other:
//!
//! 1. **Fidelity of attribution.** A traced farm re-derives the paper's
//!    flash-clone stage breakdown (E1's Table-1 shape) purely from
//!    recorded span events — and the observed per-stage means must agree
//!    with [`CostModel::flash_clone_stages`] within rounding, because the
//!    single stage table in `potemkin_vmm::cost` feeds both.
//! 2. **Zero observer effect.** Replaying the E11 sharded workload with the
//!    wall-stamped flight recorder on must leave the deterministic report
//!    digest byte-identical to an untraced replay.
//!
//! What the recorder costs in time is a speed number, and speed numbers
//! belong to the performance ledger, not to this experiment.
//!
//! The traced capture run also feeds `trace.json` (written under
//! `--out-dir`): the flight recorder's retained tail — the newest events on every lane, plus the
//! full shard-window timeline synthesized from engine telemetry — as a
//! Chrome `trace_event` JSON with one lane per cell farm, cell gateway,
//! and shard worker. Flight retention keeps the artifact a few MB even
//! on long horizons; unbounded capture of the same workload runs to
//! hundreds of MB.

use std::net::Ipv4Addr;

use potemkin_core::farm::{FarmConfig, Honeyfarm};
use potemkin_core::parallel::{run_telescope_sharded, ShardedTelescopeResult};
use potemkin_json::{obj, JsonValue};
use potemkin_net::PacketBuilder;
use potemkin_obs::Table;
use potemkin_obs::{names, SpanAggregator, SpanStats, TraceConfig, TraceEvent};
use potemkin_sim::SimTime;
use potemkin_snapshot::fnv1a64;
use potemkin_vmm::cost::CostModel;

use super::e11;
use crate::harness::Outcome;

/// Flash clones driven through the traced farm in the fidelity check.
pub(crate) const CLONES: u64 = 24;

/// Per-lane flight-recorder capacity for the exported capture run. Sized
/// so the exported `trace.json` stays a few MB: lanes × capacity ×
/// ~120 bytes of Chrome JSON per event.
pub(crate) const CAPTURE_FLIGHT_CAPACITY: usize = 16_384;

/// One stage of the observed-vs-modeled comparison.
#[derive(Clone, Debug)]
pub(crate) struct StageRow {
    /// Stage name (a row of the shared stage table).
    pub(crate) stage: &'static str,
    /// Observed instances of this stage span.
    pub(crate) count: u64,
    /// Mean observed duration, rebuilt from trace events alone.
    pub(crate) observed_mean: SimTime,
    /// The cost model's prediction for the same page count.
    pub(crate) modeled: SimTime,
}

/// Everything E12 reports.
#[derive(Clone, Debug)]
pub(crate) struct ObsResult {
    /// Clones driven in the fidelity check.
    pub(crate) clones: u64,
    /// Pages per cloned image.
    pub(crate) pages: u64,
    /// Per-stage observed-vs-modeled rows, in stage-table order.
    pub(crate) rows: Vec<StageRow>,
    /// Observed mean end-to-end clone latency (root span).
    pub(crate) observed_total: SimTime,
    /// Modeled end-to-end clone latency.
    pub(crate) modeled_total: SimTime,
    /// Largest |observed mean − modeled| across stages and the total.
    pub(crate) max_delta: SimTime,
    /// Whether `max_delta` is within rounding (≤ 1 µs).
    pub(crate) within_rounding: bool,
    /// Trace events retained by the flight-recorder capture run (the
    /// newest [`CAPTURE_FLIGHT_CAPACITY`] per lane, plus the synthesized
    /// shard-window timeline).
    pub(crate) events_captured: usize,
    /// The capture run's merged trace (exported as `trace.json`).
    pub(crate) trace: Vec<TraceEvent>,
    /// Lane labels for the trace exporters.
    pub(crate) trace_lanes: Vec<(u32, String)>,
    /// Replay horizon of the replay workload.
    pub(crate) duration: SimTime,
    /// Cells in the replay workload.
    pub(crate) cells: usize,
    /// Simulation events per replay run.
    pub(crate) replay_events: u64,
    /// Whether the wall-stamped capture run left the deterministic digest
    /// byte-identical to the untraced replay.
    pub(crate) digests_match: bool,
}

/// The deterministic face of a replay result (wall-clock telemetry and
/// the trace itself excluded), digested.
fn digest(result: &ShardedTelescopeResult) -> u64 {
    fnv1a64(
        format!(
            "{}|{}|{}|{}|{}",
            result.degradation.canonical_string(),
            result.stats.counters.get("packets_in"),
            result.final_infected,
            result.cross_cell_packets,
            result.engine.remote_messages,
        )
        .as_bytes(),
    )
}

/// Drives `CLONES` flash clones through a traced farm and rebuilds the
/// stage breakdown from the recorded spans.
fn capture_clone_breakdown() -> (SpanAggregator, u64) {
    let config = FarmConfig::small_test();
    let pages = config.profile.memory_pages;
    let mut farm = Honeyfarm::new(config).expect("small_test farm builds");
    farm.enable_tracing(TraceConfig::unbounded(), 0);
    for i in 0..CLONES {
        // Distinct sources and destinations: every packet is a first
        // contact, so every one costs a full flash clone.
        let src = Ipv4Addr::new(6, 6, 6, (i + 1) as u8);
        let dst = Ipv4Addr::new(10, 1, 0, (i + 1) as u8);
        let probe = PacketBuilder::new(src, dst).tcp_syn(4000 + i as u16, 445);
        farm.inject_external(SimTime::from_millis(i * 10), probe);
    }
    let mut agg = SpanAggregator::new();
    agg.ingest(&farm.take_trace());
    (agg, pages)
}

/// Runs E12 end to end: the clone-breakdown fidelity check, then an
/// untraced and a traced replay of the E11 workload (`duration`/`cells`).
///
/// # Panics
///
/// Panics if the fixed configurations fail to build (a bug).
#[must_use]
pub(crate) fn run(duration: SimTime, cells: usize) -> ObsResult {
    // Part 1: the observed breakdown vs the cost model.
    let (agg, pages) = capture_clone_breakdown();
    let modeled = CostModel::CALIBRATED.flash_clone_stages(pages);
    let mut rows = Vec::with_capacity(modeled.len());
    let mut max_delta = SimTime::ZERO;
    for (stage, predicted) in &modeled {
        let (count, observed_mean) =
            agg.stats(stage).map_or((0, SimTime::ZERO), |s| (s.count, s.mean()));
        let delta = observed_mean.max(*predicted).saturating_sub(observed_mean.min(*predicted));
        max_delta = max_delta.max(delta);
        rows.push(StageRow { stage, count, observed_mean, modeled: *predicted });
    }
    let modeled_total: SimTime = modeled.iter().map(|&(_, t)| t).sum();
    let observed_total = agg.stats(names::VMM_FLASH_CLONE).map_or(SimTime::ZERO, SpanStats::mean);
    let total_delta =
        observed_total.max(modeled_total).saturating_sub(observed_total.min(modeled_total));
    max_delta = max_delta.max(total_delta);
    let within_rounding = max_delta <= SimTime::from_micros(1);

    // Part 2: the E11 replay untraced, then with the flight recorder's
    // retained tail wall-clock stamped — what an operator would pull after
    // an incident, and what `trace.json` carries. The shard-window timeline
    // is synthesized from engine telemetry post-run, so it spans the whole
    // horizon regardless of flight capacity. One worker keeps the capture
    // core-count independent.
    let replay_config = e11::config(duration, cells);
    let workers = 1;
    let untraced = run_telescope_sharded(&replay_config, workers).expect("replay runs");
    let mut capture_config = replay_config;
    capture_config.trace = Some(TraceConfig::flight(CAPTURE_FLIGHT_CAPACITY).with_wall_clock(true));
    let capture = run_telescope_sharded(&capture_config, workers).expect("capture replay runs");
    let digests_match = digest(&capture) == digest(&untraced);

    ObsResult {
        clones: CLONES,
        pages,
        rows,
        observed_total,
        modeled_total,
        max_delta,
        within_rounding,
        events_captured: capture.trace.len(),
        trace: capture.trace,
        trace_lanes: capture.trace_lanes,
        duration,
        cells,
        replay_events: untraced.engine.total.events_processed,
        digests_match,
    }
}

/// Renders the observed-vs-modeled breakdown (the paper's clone-latency
/// table, rebuilt from trace events).
#[must_use]
pub(crate) fn breakdown_table(result: &ObsResult) -> Table {
    let mut t =
        Table::new(&["stage", "count", "observed mean", "modeled", "delta"]).with_title(&format!(
            "E12: flash-clone stage breakdown observed from {} traced clones ({} pages)",
            result.clones, result.pages
        ));
    let fmt = |t: SimTime| format!("{:.3}ms", t.as_millis_f64());
    for row in &result.rows {
        let delta =
            row.observed_mean.max(row.modeled).saturating_sub(row.observed_mean.min(row.modeled));
        t.row_owned(vec![
            row.stage.to_string(),
            row.count.to_string(),
            fmt(row.observed_mean),
            fmt(row.modeled),
            fmt(delta),
        ]);
    }
    t.row_owned(vec![
        "TOTAL".to_string(),
        result.clones.to_string(),
        fmt(result.observed_total),
        fmt(result.modeled_total),
        fmt(result.max_delta),
    ]);
    t
}

/// Renders the capture run's summary.
#[must_use]
pub(crate) fn capture_table(result: &ObsResult) -> Table {
    let mut t = Table::new(&["metric", "value"]).with_title(&format!(
        "E12: flight-recorder capture of the E11 replay ({} cells, {}s horizon)",
        result.cells,
        result.duration.as_secs()
    ));
    t.row_owned(vec!["replay events".to_string(), result.replay_events.to_string()]);
    t.row_owned(vec!["events captured".to_string(), result.events_captured.to_string()]);
    t.row_owned(vec!["digests match".to_string(), result.digests_match.to_string()]);
    t.row_owned(vec!["breakdown within rounding".to_string(), result.within_rounding.to_string()]);
    t
}

/// Runs the experiment at `figures` scale (shortened when `fast`) and
/// builds `BENCH_obs.json` plus the Chrome trace side file.
#[must_use]
pub(crate) fn outcome(fast: bool) -> Outcome {
    let r = run(SimTime::from_secs(if fast { 5 } else { 20 }), if fast { 2 } else { 4 });
    let chrome = potemkin_obs::chrome_trace_json(&r.trace, &r.trace_lanes);
    let summary = format!(
        "trace capture: {} events over {} lanes; digests match: {}",
        r.events_captured,
        r.trace_lanes.len(),
        r.digests_match
    );
    let stage_json = |row: &StageRow| {
        obj! {
            "stage": row.stage,
            "count": row.count,
            "observed_mean_ns": row.observed_mean.as_nanos(),
            "modeled_ns": row.modeled.as_nanos(),
        }
    };
    let pinned = obj! {
        "bench": "obs",
        "clones": r.clones,
        "pages": r.pages,
        "stages": r.rows.iter().map(stage_json).collect::<JsonValue>(),
        "observed_total_ns": r.observed_total.as_nanos(),
        "modeled_total_ns": r.modeled_total.as_nanos(),
        "max_delta_ns": r.max_delta.as_nanos(),
        "within_rounding": r.within_rounding,
        "digests_match": r.digests_match,
        "events_captured": r.events_captured,
        "replay_events": r.replay_events,
    };
    let mut o = Outcome::default()
        .line(summary)
        .table(breakdown_table(&r))
        .table(capture_table(&r))
        .claim("breakdown_within_rounding", r.within_rounding)
        .claim("tracing_leaves_digest_unchanged", r.digests_match)
        .claim("chrome_trace_parses", JsonValue::parse(&chrome).is_ok())
        .artifact("BENCH_obs.json", fast, pinned);
    o.files.push(("trace.json", chrome));
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use potemkin_vmm::cost::FLASH_CLONE_STAGES;

    #[test]
    fn observed_breakdown_matches_cost_model_exactly() {
        let r = run(SimTime::from_secs(2), 2);
        assert_eq!(r.rows.len(), FLASH_CLONE_STAGES.len());
        for row in &r.rows {
            assert_eq!(row.count, CLONES, "every clone hit stage {}", row.stage);
            assert_eq!(
                row.observed_mean, row.modeled,
                "stage {} drifted from the model",
                row.stage
            );
        }
        assert_eq!(r.observed_total, r.modeled_total);
        assert!(r.within_rounding);
        assert_eq!(r.max_delta, SimTime::ZERO, "sim-time attribution is exact");
    }

    #[test]
    fn tracing_never_changes_the_replay_digest() {
        let r = run(SimTime::from_secs(2), 2);
        assert!(r.digests_match, "tracing altered a deterministic report");
        assert!(r.events_captured > 0);
        assert!(!r.trace_lanes.is_empty());
    }

    #[test]
    fn exported_trace_is_valid() {
        let r = run(SimTime::from_secs(2), 2);
        let chrome = potemkin_obs::chrome_trace_json(&r.trace, &r.trace_lanes);
        let parsed = JsonValue::parse(&chrome).expect("chrome trace parses");
        assert!(parsed.get("traceEvents").is_some());
        let rendered = breakdown_table(&r).to_string();
        assert!(rendered.contains("CoW memory map"));
        assert!(capture_table(&r).to_string().contains("events captured"));
    }
}
