//! E11 — sharded parallel replay: throughput scaling and determinism
//! (extension).
//!
//! The serial event loop caps replay throughput at one core. E11 replays
//! the same telescope radiation through the sharded engine
//! ([`potemkin_core::parallel`]) at increasing worker counts and reports
//! events per second, speedup over the one-worker run, and dispatch
//! latency (wall-clock nanoseconds per event inside a window batch,
//! p50/p99). Alongside the measured numbers it checks the engine's core
//! claim: every worker count yields a byte-identical merged report, so the
//! speedup is free of fidelity cost.
//!
//! Wall-clock numbers depend on the machine (core count, load); the
//! determinism digest does not. `BENCH_replay.json` separates the two.

use std::time::Instant;

use potemkin_core::farm::FarmConfig;
use potemkin_core::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin_core::scenario::TelescopeConfig;
use potemkin_gateway::policy::PolicyConfig;
use potemkin_metrics::{LogHistogram, Table};
use potemkin_sim::SimTime;
use potemkin_snapshot::fnv1a64;
use potemkin_workload::radiation::RadiationConfig;
use potemkin_workload::worm::WormSpec;

/// One worker-count measurement.
#[derive(Clone, Debug)]
pub struct ReplayPoint {
    /// Worker threads the engine ran on.
    pub workers: usize,
    /// Wall-clock seconds for the replay.
    pub wall_secs: f64,
    /// Simulation events dispatched per wall-clock second.
    pub events_per_sec: f64,
    /// Throughput relative to the one-worker run.
    pub speedup: f64,
    /// Median wall-clock nanoseconds per event within a window batch.
    pub dispatch_p50_ns: u64,
    /// 99th-percentile nanoseconds per event within a window batch.
    pub dispatch_p99_ns: u64,
    /// FNV-1a digest of the merged deterministic report.
    pub digest: u64,
}

/// Result of the scaling sweep.
#[derive(Clone, Debug)]
pub struct ReplayScaleResult {
    /// One point per worker count, in input order (first is the serial
    /// reference).
    pub points: Vec<ReplayPoint>,
    /// Simulation events per run (identical across worker counts).
    pub events: u64,
    /// Packets in the replayed trace.
    pub packets: u64,
    /// Packets that crossed the cell fabric.
    pub cross_cell_packets: u64,
    /// Address-space cells.
    pub cells: usize,
    /// Barrier window width.
    pub window: SimTime,
    /// Replay horizon.
    pub duration: SimTime,
    /// Whether every worker count produced a byte-identical report.
    pub deterministic: bool,
}

/// The benchmark scenario: a dense /16 replay with an in-farm worm so the
/// cell fabric carries real cross-shard traffic. Shared with E12, which
/// measures recorder overhead on exactly this workload.
pub(crate) fn config(duration: SimTime, cells: usize) -> ShardedTelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
    farm.frames_per_server = 524_288;
    farm.max_domains_per_server = 4_096;
    // A /19 worm space saturates at 8K infected VMs spread over the cells:
    // dense enough that most probes cross the fabric, bounded enough that a
    // full sweep fits comfortably in memory.
    farm.worm = Some(WormSpec::code_red("10.1.0.0/19".parse().unwrap()));
    let radiation = RadiationConfig { peak_source_rate: 40.0, ..RadiationConfig::default() };
    let base = TelescopeConfig::builder(farm, radiation)
        .seed(2005)
        .duration(duration)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("fixed telescope config is valid");
    ShardedTelescopeConfig::builder(base)
        .cells(cells)
        .window(SimTime::from_millis(500))
        .seed_infections(2)
        .build()
        .expect("fixed sharded config is valid")
}

/// Runs the sweep: the same sharded replay at each worker count.
///
/// # Panics
///
/// Panics if the fixed configuration fails to build (a bug).
#[must_use]
pub fn run(duration: SimTime, cells: usize, worker_counts: &[usize]) -> ReplayScaleResult {
    let config = config(duration, cells);
    let mut points: Vec<ReplayPoint> = Vec::with_capacity(worker_counts.len());
    let mut events = 0;
    let mut packets = 0;
    let mut cross_cell_packets = 0;
    for &workers in worker_counts {
        let start = Instant::now();
        let result = run_telescope_sharded(&config, workers).expect("replay runs");
        let wall_secs = start.elapsed().as_secs_f64();
        events = result.engine.total.events_processed;
        packets = result.packets;
        cross_cell_packets = result.cross_cell_packets;
        // Per-event dispatch cost, weighted by batch size so big windows
        // count proportionally.
        let mut dispatch = LogHistogram::new(32);
        for batch in &result.engine.batches {
            if let Some(per_event) = batch.elapsed_nanos.checked_div(batch.events) {
                dispatch.record_n(per_event, batch.events);
            }
        }
        let digest = fnv1a64(
            format!(
                "{}|{}|{}|{}",
                result.degradation.canonical_string(),
                result.stats.counters.get("packets_in"),
                result.final_infected,
                result.engine.remote_messages,
            )
            .as_bytes(),
        );
        let events_per_sec = if wall_secs > 0.0 { events as f64 / wall_secs } else { 0.0 };
        let speedup = points
            .first()
            .map_or(1.0, |base: &ReplayPoint| events_per_sec / base.events_per_sec.max(1e-9));
        points.push(ReplayPoint {
            workers,
            wall_secs,
            events_per_sec,
            speedup,
            dispatch_p50_ns: dispatch.quantile(0.5),
            dispatch_p99_ns: dispatch.quantile(0.99),
            digest,
        });
    }
    let deterministic = points.windows(2).all(|w| w[0].digest == w[1].digest);
    ReplayScaleResult {
        points,
        events,
        packets,
        cross_cell_packets,
        cells,
        window: config.window,
        duration,
        deterministic,
    }
}

/// Renders the sweep.
#[must_use]
pub fn table(result: &ReplayScaleResult) -> Table {
    let mut t = Table::new(&[
        "workers",
        "wall (s)",
        "events/sec",
        "speedup",
        "dispatch p50",
        "dispatch p99",
        "digest",
    ])
    .with_title("E11: sharded parallel replay — throughput scaling at fixed results");
    for p in &result.points {
        t.row_owned(vec![
            p.workers.to_string(),
            format!("{:.3}", p.wall_secs),
            format!("{:.0}", p.events_per_sec),
            format!("{:.2}x", p.speedup),
            format!("{}ns", p.dispatch_p50_ns),
            format!("{}ns", p.dispatch_p99_ns),
            format!("{:016x}", p.digest),
        ]);
    }
    t
}

/// Renders `BENCH_replay.json`: seeded, machine-independent fields at the
/// top level; wall-clock-dependent numbers under `"measured"`.
#[must_use]
pub fn bench_json(result: &ReplayScaleResult) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"replay\",\n");
    s.push_str(&format!("  \"cells\": {},\n", result.cells));
    s.push_str(&format!("  \"window_ns\": {},\n", result.window.as_nanos()));
    s.push_str(&format!("  \"duration_secs\": {},\n", result.duration.as_secs()));
    s.push_str(&format!("  \"packets\": {},\n", result.packets));
    s.push_str(&format!("  \"events\": {},\n", result.events));
    s.push_str(&format!("  \"cross_cell_packets\": {},\n", result.cross_cell_packets));
    s.push_str(&format!(
        "  \"digest\": \"{:016x}\",\n",
        result.points.first().map_or(0, |p| p.digest)
    ));
    s.push_str(&format!("  \"deterministic\": {},\n", result.deterministic));
    s.push_str("  \"measured\": [\n");
    for (i, p) in result.points.iter().enumerate() {
        let sep = if i + 1 == result.points.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"workers\": {}, \"wall_secs\": {:.6}, \"events_per_sec\": {:.1}, \
             \"speedup\": {:.3}, \"dispatch_p50_ns\": {}, \"dispatch_p99_ns\": {}}}{}\n",
            p.workers,
            p.wall_secs,
            p.events_per_sec,
            p.speedup,
            p.dispatch_p50_ns,
            p.dispatch_p99_ns,
            sep
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_sweep_is_deterministic_across_worker_counts() {
        let r = run(SimTime::from_secs(3), 4, &[1, 2]);
        assert_eq!(r.points.len(), 2);
        assert!(r.events > 0);
        assert!(r.packets > 50);
        assert!(r.cross_cell_packets > 0, "worm probes must cross cells");
        assert!(r.deterministic, "reports diverged across worker counts");
        assert!((r.points[0].speedup - 1.0).abs() < 1e-9, "first point is the baseline");
        let rendered = table(&r).to_string();
        assert!(rendered.contains("events/sec"));
    }

    #[test]
    fn parallel_speedup_on_multicore_hosts() {
        // Wall-clock scaling needs real cores; on constrained CI runners or
        // single-core boxes only the determinism claim is checkable.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        if cores < 4 || cfg!(debug_assertions) {
            return;
        }
        let r = run(SimTime::from_secs(20), 8, &[1, 4]);
        assert!(r.deterministic);
        let four = r.points.last().unwrap();
        assert!(
            four.speedup >= 2.5,
            "4 workers must beat serial by 2.5x, got {:.2}x",
            four.speedup
        );
    }

    #[test]
    fn bench_json_shape() {
        let r = run(SimTime::from_secs(2), 2, &[1]);
        let json = bench_json(&r);
        assert!(json.contains("\"bench\": \"replay\""));
        assert!(json.contains("\"deterministic\": true"));
        assert!(json.contains("\"measured\""));
        assert!(json.contains("\"events_per_sec\""));
        // Crude structural check: balanced braces/brackets.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
