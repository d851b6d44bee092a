//! E16 — federated multi-farm telescope: scaling out behind the routing
//! tier (extension).
//!
//! The paper closes on a honeyfarm monitoring internet-scale dark address
//! space — more than one cluster serves. E16 runs the same telescope
//! replay (dense radiation plus a worm whose target space spans every
//! member farm) through [`potemkin_core::federation`] at increasing farm
//! counts: the monitored prefix is carved into per-farm aggregates, each
//! farm advertises its slice into the BGP-style route table, and
//! cross-farm worm reflection rides GRE through the tier.
//!
//! The headline claim is the federated determinism argument: **every
//! (farm count, worker count) combination over the same total range and
//! seed produces a byte-identical merged report** — 1 farm ≡ 2 ≡ 16.
//! What changes with the topology is only transport telemetry (how many
//! deliveries crossed a farm boundary), reported alongside. A second
//! sweep turns on global admission control under a tight memory budget
//! and checks the shed count is layout-invariant too.
//!
//! `BENCH_federation.json` (owned by this experiment) pins the digest and
//! the per-layout transport facts and keeps wall-clock throughput under
//! `measured`; `figures --check` fails hard on any cross-topology
//! mismatch.

use potemkin_core::farm::FarmConfig;
use potemkin_core::federation::{
    run_telescope_federated, FederatedTelescopeConfig, FederatedTelescopeResult,
};
use potemkin_core::scenario::TelescopeConfig;
use potemkin_federation::AdmissionConfig;
use potemkin_gateway::policy::PolicyConfig;
use potemkin_json::{obj, JsonValue};
use potemkin_metrics::Table;
use potemkin_net::addr::Ipv4Prefix;
use potemkin_sim::SimTime;
use potemkin_snapshot::fnv1a64;
use potemkin_workload::radiation::RadiationConfig;
use potemkin_workload::worm::WormSpec;

use crate::harness::{hex, sweep, Outcome, Point, Sweep};

/// One `(farm count, worker count)` run.
type Layout = Point<(usize, usize), FederatedTelescopeResult>;

/// Result of the federated scaling sweep.
#[derive(Clone, Debug)]
pub struct FederationScaleResult {
    /// One point per `(farm count, worker count)`, in sweep order (first
    /// is the single-farm serial reference). Cross-farm packets and route
    /// drops are transport telemetry: topology-dependent, excluded from
    /// the digest.
    pub sweep: Sweep<(usize, usize), FederatedTelescopeResult>,
    /// Simulation events per run (identical across layouts).
    pub events: u64,
    /// Packets in the replayed trace.
    pub packets: u64,
    /// Total monitored addresses across all farm advertisements.
    pub monitored_addresses: u64,
    /// Packets that crossed a cell boundary (layout-invariant).
    pub cross_cell_packets: u64,
    /// Final infected-VM count (layout-invariant).
    pub final_infected: usize,
    /// Global address-space cells (fixed across farm counts).
    pub cells: usize,
    /// Barrier window width.
    pub window: SimTime,
    /// Replay horizon.
    pub duration: SimTime,
    /// Admission sub-sweep: packets shed under a tight memory budget at
    /// each swept farm count, in sweep order. Layout-invariant, so all
    /// entries must be equal.
    pub shed_by_farms: Vec<(usize, u64)>,
    /// Whether the admission shed count was identical across layouts.
    pub shed_invariant: bool,
}

/// The benchmark scenario: dense radiation over `telescope` with a worm
/// targeting the *whole* monitored range, so reflected probes cross cell
/// boundaries at any cell count and farm boundaries at any farm count.
#[must_use]
pub fn config(
    duration: SimTime,
    telescope: Ipv4Prefix,
    farms: usize,
    cells: usize,
) -> FederatedTelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
    farm.frames_per_server = 524_288;
    farm.max_domains_per_server = 4_096;
    farm.worm = Some(WormSpec::code_red(telescope));
    let radiation =
        RadiationConfig { telescope, peak_source_rate: 40.0, ..RadiationConfig::default() };
    let base = TelescopeConfig::builder(farm, radiation)
        .seed(2005)
        .duration(duration)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("fixed telescope config is valid");
    FederatedTelescopeConfig::builder(base)
        .farms(farms)
        .cells(cells)
        .window(SimTime::from_millis(500))
        .seed_infections(2)
        .build()
        .expect("fixed federated config is valid")
}

fn digest_of(result: &FederatedTelescopeResult) -> u64 {
    fnv1a64(
        format!(
            "{}|{}|{}|{}|{}",
            result.merged.degradation.canonical_string(),
            result.merged.stats.counters.get("packets_in"),
            result.merged.final_infected,
            result.merged.engine.remote_messages,
            result.federation.shed_packets,
        )
        .as_bytes(),
    )
}

/// Runs the sweep: the same federated replay at each (farm count, worker
/// count), then the admission sub-sweep at the extreme farm counts.
///
/// # Panics
///
/// Panics if the fixed configuration fails to build or a replay fails to
/// run (a bug).
#[must_use]
pub fn run(
    duration: SimTime,
    telescope: Ipv4Prefix,
    cells: usize,
    farm_counts: &[usize],
    worker_counts: &[usize],
) -> FederationScaleResult {
    let layouts: Vec<(usize, usize)> = farm_counts
        .iter()
        .flat_map(|&farms| worker_counts.iter().map(move |&workers| (farms, workers)))
        .collect();
    let sweep = sweep(
        &layouts,
        |(farms, workers)| {
            // Progress to stderr: full-scale points run for minutes each.
            eprintln!("    [e16] farms={farms} workers={workers}");
            run_telescope_federated(&config(duration, telescope, farms, cells), workers)
                .expect("federated replay runs")
        },
        |r| (r.merged.engine.total.events_processed, digest_of(r)),
    );
    let last = &sweep.points.last().expect("at least one layout").result;

    // Admission sub-sweep: a tight per-host frame budget triggers pressure
    // events early; shedding kicks in after the first one. The shed count
    // is decided per destination cell, so it must not depend on the farm
    // grouping — check the extreme layouts.
    let mut shed_by_farms = Vec::new();
    for &farms in [farm_counts.first(), farm_counts.last()].into_iter().flatten() {
        let mut cfg = config(duration, telescope, farms, cells);
        cfg.base.farm.memory_budget_frames = Some(24_000);
        cfg.admission = AdmissionConfig::shed_after(1);
        let result = run_telescope_federated(&cfg, worker_counts[0]).expect("admission run");
        eprintln!("    [e16] admission farms={farms}: shed {}", result.federation.shed_packets);
        shed_by_farms.push((farms, result.federation.shed_packets));
    }
    let shed_invariant = shed_by_farms.windows(2).all(|w| w[0].1 == w[1].1);

    FederationScaleResult {
        events: last.merged.engine.total.events_processed,
        packets: last.merged.packets,
        monitored_addresses: last.federation.monitored_addresses,
        cross_cell_packets: last.merged.cross_cell_packets,
        final_infected: last.merged.final_infected,
        sweep,
        cells,
        window: SimTime::from_millis(500),
        duration,
        shed_by_farms,
        shed_invariant,
    }
}

/// Renders the sweep into one table.
#[must_use]
pub fn table(result: &FederationScaleResult) -> Table {
    let mut t = Table::new(&[
        "farms",
        "workers",
        "wall (s)",
        "events/sec",
        "cross-farm",
        "route drops",
        "digest",
    ])
    .with_title("E16: federated telescope — byte-identical reports across topology layouts");
    for p in &result.sweep.points {
        t.row_owned(vec![
            p.param.0.to_string(),
            p.param.1.to_string(),
            format!("{:.3}", p.wall_secs),
            format!("{:.0}", p.events_per_sec),
            p.result.federation.cross_farm_packets.to_string(),
            p.result.federation.route_drops.to_string(),
            hex(p.digest),
        ]);
    }
    t
}

/// Runs the experiment at `figures` scale and builds
/// `BENCH_federation.json`. Fast: a /16 across up to 4 farms. Full: a /11
/// — ~2.1M monitored addresses — federated across up to 16 farms.
#[must_use]
pub fn outcome(fast: bool) -> Outcome {
    let telescope: Ipv4Prefix =
        if fast { "10.1.0.0/16" } else { "10.0.0.0/11" }.parse().expect("static prefix");
    let farm_counts: &[usize] = if fast { &[1, 2, 4] } else { &[1, 2, 4, 8, 16] };
    let duration = SimTime::from_secs(if fast { 4 } else { 6 });
    let r = run(duration, telescope, if fast { 8 } else { 16 }, farm_counts, &[1, 2]);
    let points = &r.sweep.points;
    let summary = format!(
        "federation: {} addresses across up to {} farms, {} packets, {} cross-cell; \
         deterministic: {}, shed invariant: {}",
        r.monitored_addresses,
        farm_counts.last().unwrap_or(&1),
        r.packets,
        r.cross_cell_packets,
        r.sweep.deterministic,
        r.shed_invariant
    );
    let layout_json = |p: &Layout| {
        obj! {
            "farms": p.param.0,
            "workers": p.param.1,
            "cross_farm_packets": p.result.federation.cross_farm_packets,
            "route_drops": p.result.federation.route_drops,
            "digest": hex(p.digest),
        }
    };
    let shed_json = |&(farms, shed): &(usize, u64)| obj! {"farms": farms, "shed_packets": shed};
    let timing = |p: &Layout| p.timing(obj! {"farms": p.param.0, "workers": p.param.1});
    let pinned = obj! {
        "bench": "federation",
        "experiment": "e16",
        "cells": r.cells,
        "window_ns": r.window.as_nanos(),
        "duration_secs": r.duration.as_secs(),
        "monitored_addresses": r.monitored_addresses,
        "packets": r.packets,
        "events": r.events,
        "cross_cell_packets": r.cross_cell_packets,
        "final_infected": r.final_infected,
        "digest": hex(points.first().map_or(0, |p| p.digest)),
        "deterministic": r.sweep.deterministic,
        "shed_invariant": r.shed_invariant,
        "shed_by_farms": r.shed_by_farms.iter().map(shed_json).collect::<JsonValue>(),
        "layouts": points.iter().map(layout_json).collect::<JsonValue>(),
    };
    let measured = obj! {"points": points.iter().map(timing).collect::<JsonValue>()};
    let transit = |p: &Layout| p.result.federation.cross_farm_packets > 0;
    Outcome::default()
        .line(summary)
        .table(table(&r))
        .claim("byte_identical_across_layouts", r.sweep.deterministic)
        .claim("replay_is_not_empty", r.events > 0 && r.packets > 0)
        .claim(
            "tier_routes_every_frame",
            points.iter().all(|p| p.result.federation.route_drops == 0),
        )
        .claim(
            "gre_transit_iff_more_than_one_farm",
            points.iter().all(|p| transit(p) == (p.param.0 > 1)),
        )
        .claim("shed_count_is_layout_invariant", r.shed_invariant)
        .claim("tight_budget_sheds", r.shed_by_farms.iter().all(|&(_, shed)| shed > 0))
        .artifact("BENCH_federation.json", fast, pinned, measured)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telescope() -> Ipv4Prefix {
        "10.1.0.0/16".parse().unwrap()
    }

    #[test]
    fn sweep_is_deterministic_across_layouts_and_workers() {
        let r = run(SimTime::from_secs(3), telescope(), 8, &[1, 2, 4], &[1, 2]);
        assert!(r.packets > 50);
        assert!(r.events > 0);
        assert!(r.cross_cell_packets > 0, "worm must cross cells");
        assert!(r.sweep.deterministic, "digests diverged across layouts");
        assert!(r.shed_invariant, "shed count diverged across layouts");
        assert!(r.shed_by_farms.iter().all(|&(_, shed)| shed > 0), "budget must shed");
        // One farm keeps everything local; more farms must tunnel.
        let transit = |farms| {
            let p = r.sweep.points.iter().find(|p| p.param.0 == farms).unwrap();
            p.result.federation.cross_farm_packets
        };
        assert_eq!(transit(1), 0);
        assert!(transit(4) > 0, "worm must cross farms");
        assert!(r.sweep.points.iter().all(|p| p.result.federation.route_drops == 0));
        assert_eq!(r.monitored_addresses, 65_536);
        let rendered = table(&r).to_string();
        assert!(rendered.contains("cross-farm"));
    }
}
