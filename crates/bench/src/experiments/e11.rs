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
//! determinism digest does not. E15 sweeps the same scenario under two
//! tuning profiles and owns `BENCH_replay.json`.

use potemkin_core::farm::FarmConfig;
use potemkin_core::parallel::{
    run_telescope_sharded, ShardedTelescopeConfig, ShardedTelescopeResult,
};
use potemkin_core::scenario::TelescopeConfig;
use potemkin_gateway::policy::PolicyConfig;
use potemkin_metrics::{LogHistogram, Table};
use potemkin_sim::SimTime;
use potemkin_snapshot::fnv1a64;
use potemkin_workload::radiation::RadiationConfig;
use potemkin_workload::worm::WormSpec;

use crate::harness::{hex, sweep, Outcome, Sweep};

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

/// Sweeps `config` over `worker_counts` (first is the serial reference)
/// with the replay digest recipe E11 and E15 pin: degradation report,
/// packets in, final infections and remote messages.
///
/// # Panics
///
/// Panics if a replay fails to run (a bug).
#[must_use]
pub(crate) fn run_config(
    config: &ShardedTelescopeConfig,
    worker_counts: &[usize],
) -> Sweep<usize, ShardedTelescopeResult> {
    sweep(
        worker_counts,
        |workers| run_telescope_sharded(config, workers).expect("replay runs"),
        |result| {
            let canonical = format!(
                "{}|{}|{}|{}",
                result.degradation.canonical_string(),
                result.stats.counters.get("packets_in"),
                result.final_infected,
                result.engine.remote_messages,
            );
            (result.engine.total.events_processed, fnv1a64(canonical.as_bytes()))
        },
    )
}

/// Renders the sweep.
#[must_use]
pub(crate) fn table(result: &Sweep<usize, ShardedTelescopeResult>) -> Table {
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
        // Wall-clock nanoseconds per event inside a window batch, weighted
        // by batch size so big windows count proportionally.
        let mut dispatch = LogHistogram::new(32);
        for batch in &p.result.engine.batches {
            if let Some(per_event) = batch.elapsed_nanos.checked_div(batch.events) {
                dispatch.record_n(per_event, batch.events);
            }
        }
        t.row_owned(vec![
            p.param.to_string(),
            format!("{:.3}", p.wall_secs),
            format!("{:.0}", p.events_per_sec),
            format!("{:.2}x", p.speedup),
            format!("{}ns", dispatch.quantile(0.5)),
            format!("{}ns", dispatch.quantile(0.99)),
            hex(p.digest),
        ]);
    }
    t
}

/// Runs the experiment at `figures` scale (shortened when `fast`).
#[must_use]
pub(crate) fn outcome(fast: bool) -> Outcome {
    let workers: &[usize] = if fast { &[1, 2] } else { &[1, 2, 4, 8] };
    let r = run_config(&config(SimTime::from_secs(if fast { 15 } else { 60 }), 8), workers);
    let last = &r.points.last().expect("at least one worker count").result;
    let summary = format!(
        "replay: {} packets, {} events, {} cross-cell, deterministic: {}",
        last.packets, last.engine.total.events_processed, last.cross_cell_packets, r.deterministic
    );
    Outcome::default()
        .line(summary)
        .table(table(&r))
        .claim("deterministic_across_worker_counts", r.deterministic)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_sweep_is_deterministic_across_worker_counts() {
        let r = run_config(&config(SimTime::from_secs(3), 4), &[1, 2]);
        assert_eq!(r.points.len(), 2);
        let last = &r.points[1].result;
        assert!(last.engine.total.events_processed > 0);
        assert!(last.packets > 50);
        assert!(last.cross_cell_packets > 0, "worm probes must cross cells");
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
        let r = run_config(&config(SimTime::from_secs(20), 8), &[1, 4]);
        assert!(r.deterministic);
        let four = r.points.last().unwrap();
        assert!(
            four.speedup >= 2.5,
            "4 workers must beat serial by 2.5x, got {:.2}x",
            four.speedup
        );
    }
}
