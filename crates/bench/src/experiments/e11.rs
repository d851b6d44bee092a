//! E11 — sharded parallel replay: determinism at every worker count, under
//! both engine profiles (extension).
//!
//! The serial event loop caps replay throughput at one core. E11 replays
//! the same telescope radiation through the sharded engine
//! ([`potemkin_core::parallel`]) at increasing worker counts under two
//! profiles —
//!
//! * **baseline** — every tuning knob off: static round-robin worker
//!   assignment and a fixed barrier window;
//! * **tuned** — greedy-LPT load rebalancing at each barrier and a
//!   throughput-oriented adaptive window that widens toward an 8× ceiling.
//!
//! and checks the engine's core claim: within a profile, every worker count
//! yields a byte-identical merged report. Across profiles the digests
//! legitimately differ — 8×-wider windows delay cross-cell worm delivery,
//! so the tuned run simulates a smaller outbreak.
//!
//! `BENCH_replay.json` (owned by this experiment) pins each profile's
//! digest and event count. The table also prints wall time, events per
//! second, speedup and dispatch latency (wall-clock nanoseconds per event
//! inside a window batch, p50/p99); those depend on the machine and no
//! artifact or claim reads them. Speed lives in the performance ledger.

use potemkin_core::farm::FarmConfig;
use potemkin_core::parallel::{
    run_telescope_sharded, ShardedTelescopeConfig, ShardedTelescopeResult,
};
use potemkin_core::scenario::TelescopeConfig;
use potemkin_gateway::policy::PolicyConfig;
use potemkin_json::{obj, JsonValue};
use potemkin_obs::{LogHistogram, Table};
use potemkin_sim::{AdaptiveWindow, EngineTuning, SimTime};
use potemkin_workload::radiation::RadiationConfig;
use potemkin_workload::worm::WormSpec;

use crate::harness::{hex, sweep, Outcome, Sweep};

/// The benchmark scenario: a dense /16 replay with an in-farm worm so the
/// cell fabric carries real cross-shard traffic. Shared with E12, which
/// replays exactly this workload under the flight recorder.
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

/// The tuned profile: `config` with load rebalancing and a
/// throughput-oriented adaptive window that only widens (toward an 8×
/// ceiling), trading cross-cell delivery latency for fewer barriers.
#[must_use]
fn tuned_config(duration: SimTime, cells: usize) -> ShardedTelescopeConfig {
    let mut config = config(duration, cells);
    config.tuning = EngineTuning {
        rebalance: true,
        adaptive: Some(AdaptiveWindow {
            min: config.window,
            max: config.window * 8,
            narrow_above: u64::MAX,
            widen_below: u64::MAX,
        }),
    };
    config
}

/// One profile's sweep.
type Profile = (&'static str, Sweep<usize, ShardedTelescopeResult>);

/// Sweeps `config` over `worker_counts` (first is the serial reference).
///
/// # Panics
///
/// Panics if a replay fails to run (a bug).
#[must_use]
fn run_config(
    config: &ShardedTelescopeConfig,
    worker_counts: &[usize],
) -> Sweep<usize, ShardedTelescopeResult> {
    sweep(
        worker_counts,
        |workers| run_telescope_sharded(config, workers).expect("replay runs"),
        |result| result,
    )
}

/// Runs both profiles over the same worker counts.
#[must_use]
pub(crate) fn run(duration: SimTime, cells: usize, worker_counts: &[usize]) -> [Profile; 2] {
    [
        ("baseline", run_config(&config(duration, cells), worker_counts)),
        ("tuned", run_config(&tuned_config(duration, cells), worker_counts)),
    ]
}

/// Renders both sweeps into one table.
#[must_use]
pub(crate) fn table(profiles: &[Profile]) -> Table {
    let mut t = Table::new(&[
        "profile",
        "workers",
        "wall (s)",
        "events/sec",
        "speedup",
        "dispatch p50",
        "dispatch p99",
        "digest",
    ])
    .with_title("E11: sharded parallel replay — byte-identical results at every worker count");
    for (name, sweep) in profiles {
        for p in &sweep.points {
            // Wall-clock nanoseconds per event inside a window batch,
            // weighted by batch size so big windows count proportionally.
            let mut dispatch = LogHistogram::new();
            for batch in &p.result.engine.batches {
                if let Some(per_event) = batch.elapsed_nanos.checked_div(batch.events) {
                    dispatch.record_n(per_event, batch.events);
                }
            }
            t.row_owned(vec![
                (*name).to_string(),
                p.param.to_string(),
                format!("{:.3}", p.wall_secs),
                format!("{:.0}", p.events_per_sec),
                format!("{:.2}x", p.speedup),
                format!("{}ns", dispatch.quantile(0.5)),
                format!("{}ns", dispatch.quantile(0.99)),
                hex(p.digest),
            ]);
        }
    }
    t
}

/// Runs the experiment at `figures` scale (shortened when `fast`) and
/// builds `BENCH_replay.json`: per-profile digests and event counts.
#[must_use]
pub(crate) fn outcome(fast: bool) -> Outcome {
    let workers: &[usize] = if fast { &[1, 2] } else { &[1, 2, 4, 8] };
    let duration = SimTime::from_secs(if fast { 10 } else { 60 });
    let cells = 8;
    let profiles = run(duration, cells, workers);
    let [(_, baseline), (_, tuned)] = &profiles;
    let reference = &baseline.points[0].result;
    let summary = format!(
        "replay: {} packets, {} cross-cell; deterministic: baseline {}, tuned {}",
        reference.packets,
        reference.cross_cell_packets,
        baseline.deterministic,
        tuned.deterministic
    );
    let profile_json = |(name, sweep): &Profile| {
        let first = &sweep.points[0];
        obj! {
            "name": *name,
            "events": first.result.engine.total.events_processed,
            "digest": hex(first.digest),
            "deterministic": sweep.deterministic,
        }
    };
    let pinned = obj! {
        "bench": "replay",
        "experiment": "e11",
        "cells": cells,
        "window_ns": config(duration, cells).window.as_nanos(),
        "duration_secs": duration.as_secs(),
        "packets": reference.packets,
        "profiles": profiles.iter().map(profile_json).collect::<JsonValue>(),
    };
    Outcome::default()
        .line(summary)
        .table(table(&profiles))
        .claim("baseline_deterministic", baseline.deterministic)
        .claim("tuned_deterministic", tuned.deterministic)
        .artifact("BENCH_replay.json", fast, pinned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_profiles_are_deterministic_across_worker_counts() {
        let profiles = run(SimTime::from_secs(3), 4, &[1, 2]);
        for (name, sweep) in &profiles {
            assert_eq!(sweep.points.len(), 2);
            let last = &sweep.points[1].result;
            assert!(last.engine.total.events_processed > 0);
            assert!(last.packets > 50);
            assert!(last.cross_cell_packets > 0, "{name}: worm probes must cross cells");
            assert!(sweep.deterministic, "{name}: reports diverged across worker counts");
            assert!((sweep.points[0].speedup - 1.0).abs() < 1e-9, "first point is the baseline");
        }
        let rendered = table(&profiles).to_string();
        assert!(rendered.contains("tuned") && rendered.contains("dispatch p99"));
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

    #[test]
    fn tuned_profile_changes_results_deterministically() {
        // Adaptive windows are a legitimate result-affecting knob: two
        // runs of the tuned profile agree with each other even though
        // they need not agree with baseline.
        let digests = || run(SimTime::from_secs(2), 2, &[1]).map(|(_, s)| s.points[0].digest);
        assert_eq!(digests(), digests());
    }
}
