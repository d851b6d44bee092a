//! E15 — hot-path throughput: load-aware sharding, adaptive windows, and
//! the allocation-free packet path.
//!
//! E11 established that the sharded engine scales without fidelity cost.
//! E15 measures what the hot-path optimisations buy on exactly that
//! scenario: the same dense /16 replay with an in-farm worm is swept at
//! each worker count under two profiles —
//!
//! * **baseline** — every tuning knob off: static round-robin worker
//!   assignment, a fixed barrier window, per-packet flow-table and
//!   counter updates.
//! * **tuned** — greedy-LPT load rebalancing at each barrier, a
//!   throughput-oriented adaptive window controller (widening toward an
//!   8× ceiling while cross-cell pressure allows), and barrier-batched
//!   gateway bookkeeping over the recycling buffer pool.
//!
//! Within a profile every worker count must produce a byte-identical
//! deterministic report (the engine claim E11 proves holds under tuning
//! too). Across profiles the digests legitimately differ — the window
//! sequence is a result-affecting parameter, like `window` itself.
//! `BENCH_replay.json` (owned by this experiment) separates the
//! machine-independent digests from the wall-clock-dependent throughput
//! numbers; `figures --check` fails hard on any digest or event-count
//! mismatch and gates nothing on throughput.
//!
//! The two profiles are two different simulations: 8×-wider windows delay
//! cross-cell worm delivery, so the tuned run dispatches roughly a ninth
//! of baseline's events. `per_worker_gain` — the wall-clock ratio — is
//! therefore the cost of a smaller outbreak, not of cheaper events, and is
//! reported under `measured` only.

use potemkin_core::parallel::{ShardedTelescopeConfig, ShardedTelescopeResult};
use potemkin_json::{obj, JsonValue};
use potemkin_metrics::Table;
use potemkin_sim::{AdaptiveWindow, EngineTuning, SimTime};

use super::e11;
use crate::harness::{hex, round_to, Outcome, Point, Sweep};

/// Result of the two-profile sweep.
#[derive(Clone, Debug)]
pub(crate) struct HotPathResult {
    /// Tuning off.
    pub(crate) baseline: Sweep<usize, ShardedTelescopeResult>,
    /// Rebalancing + adaptive windows.
    pub(crate) tuned: Sweep<usize, ShardedTelescopeResult>,
    /// Packets in the replayed trace (same scenario for both profiles).
    pub(crate) packets: u64,
    /// Address-space cells.
    pub(crate) cells: usize,
    /// Starting barrier window width.
    pub(crate) window: SimTime,
    /// Replay horizon.
    pub(crate) duration: SimTime,
    /// Baseline ÷ tuned wall-clock at the highest common worker count.
    /// The profiles simulate different event streams (see the module
    /// docs), so this is not a per-event cost ratio.
    pub(crate) per_worker_gain: f64,
}

/// The tuned profile's configuration: the E11 scenario with every
/// hot-path knob on. The adaptive controller is throughput-oriented —
/// it only widens (toward an 8× ceiling), trading cross-cell delivery
/// latency for fewer barriers, which is the right trade for bulk replay.
#[must_use]
pub(crate) fn tuned_config(duration: SimTime, cells: usize) -> ShardedTelescopeConfig {
    let mut config = e11::config(duration, cells);
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

/// Runs both profiles over the same worker counts.
///
/// # Panics
///
/// Panics if the fixed configuration fails to build (a bug).
#[must_use]
pub(crate) fn run(duration: SimTime, cells: usize, worker_counts: &[usize]) -> HotPathResult {
    let baseline_config = e11::config(duration, cells);
    let baseline = e11::run_config(&baseline_config, worker_counts);
    let tuned = e11::run_config(&tuned_config(duration, cells), worker_counts);
    let per_worker_gain = match (baseline.points.last(), tuned.points.last()) {
        (Some(b), Some(t)) if t.wall_secs > 0.0 => b.wall_secs / t.wall_secs,
        _ => 0.0,
    };
    HotPathResult {
        packets: baseline.points.last().map_or(0, |p| p.result.packets),
        baseline,
        tuned,
        cells,
        window: baseline_config.window,
        duration,
        per_worker_gain,
    }
}

fn profiles(result: &HotPathResult) -> [(&'static str, &Sweep<usize, ShardedTelescopeResult>); 2] {
    [("baseline", &result.baseline), ("tuned", &result.tuned)]
}

/// Renders both sweeps into one table.
#[must_use]
pub(crate) fn table(result: &HotPathResult) -> Table {
    let mut t = Table::new(&[
        "profile",
        "workers",
        "wall (s)",
        "events/sec",
        "per worker",
        "speedup",
        "digest",
    ])
    .with_title("E15: hot-path tuning — throughput per worker at fixed determinism");
    for (name, profile) in profiles(result) {
        for p in &profile.points {
            t.row_owned(vec![
                name.to_string(),
                p.param.to_string(),
                format!("{:.3}", p.wall_secs),
                format!("{:.0}", p.events_per_sec),
                format!("{:.0}", p.events_per_sec / p.param.max(1) as f64),
                format!("{:.2}x", p.speedup),
                hex(p.digest),
            ]);
        }
    }
    t
}

/// Runs the experiment at `figures` scale (shortened when `fast`) and
/// builds `BENCH_replay.json`: per-profile digests and event counts are
/// pinned, every wall-clock number sits under a `measured` member.
#[must_use]
pub(crate) fn outcome(fast: bool) -> Outcome {
    let workers: &[usize] = if fast { &[1, 2] } else { &[1, 2, 4, 8] };
    let r = run(SimTime::from_secs(if fast { 10 } else { 60 }), 8, workers);
    let summary = format!(
        "hot path: {} packets; per-worker gain {:.2}x; deterministic: baseline {}, tuned {}",
        r.packets, r.per_worker_gain, r.baseline.deterministic, r.tuned.deterministic
    );
    let profile_json = |(name, profile): (&str, &Sweep<usize, ShardedTelescopeResult>)| {
        let first = profile.points.first();
        let timing = |p: &Point<usize, ShardedTelescopeResult>| {
            let per_worker = round_to(p.events_per_sec / p.param.max(1) as f64, 1);
            p.timing(obj! {"workers": p.param, "events_per_sec_per_worker": per_worker})
        };
        obj! {
            "name": name,
            "events": first.map_or(0, |p| p.result.engine.total.events_processed),
            "digest": hex(first.map_or(0, |p| p.digest)),
            "deterministic": profile.deterministic,
            "measured": profile.points.iter().map(timing).collect::<JsonValue>(),
        }
    };
    let pinned = obj! {
        "bench": "replay",
        "experiment": "e15",
        "cells": r.cells,
        "window_ns": r.window.as_nanos(),
        "duration_secs": r.duration.as_secs(),
        "packets": r.packets,
        "profiles": profiles(&r).into_iter().map(profile_json).collect::<JsonValue>(),
    };
    let measured = obj! {"per_worker_gain": round_to(r.per_worker_gain, 3)};
    Outcome::default()
        .line(summary)
        .table(table(&r))
        .claim("baseline_deterministic", r.baseline.deterministic)
        .claim("tuned_deterministic", r.tuned.deterministic)
        .artifact("BENCH_replay.json", fast, pinned, measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_profiles_are_deterministic_across_worker_counts() {
        let r = run(SimTime::from_secs(3), 4, &[1, 2]);
        assert!(r.packets > 50);
        assert!(r.baseline.points[0].result.engine.total.events_processed > 0);
        assert!(r.baseline.deterministic, "baseline diverged across worker counts");
        assert!(r.tuned.deterministic, "tuned profile diverged across worker counts");
        let rendered = table(&r).to_string();
        assert!(rendered.contains("per worker"));
    }

    #[test]
    fn tuned_profile_changes_results_deterministically() {
        // Adaptive windows are a legitimate result-affecting knob: two
        // runs of the tuned profile agree with each other even though
        // they need not agree with baseline.
        let a = run(SimTime::from_secs(2), 2, &[1]);
        let b = run(SimTime::from_secs(2), 2, &[1]);
        assert_eq!(a.tuned.points[0].digest, b.tuned.points[0].digest);
        assert_eq!(a.baseline.points[0].digest, b.baseline.points[0].digest);
    }
}
