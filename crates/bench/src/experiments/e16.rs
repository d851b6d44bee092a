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
//! `BENCH_federation.json` (owned by this experiment) separates the
//! machine-independent digests from wall-clock throughput; CI's
//! federation-smoke job re-derives the digests and fails hard on any
//! cross-topology mismatch.

use std::time::Instant;

use potemkin_core::farm::FarmConfig;
use potemkin_core::federation::{run_telescope_federated, FederatedTelescopeConfig};
use potemkin_core::scenario::TelescopeConfig;
use potemkin_federation::AdmissionConfig;
use potemkin_gateway::policy::PolicyConfig;
use potemkin_metrics::Table;
use potemkin_net::addr::Ipv4Prefix;
use potemkin_sim::SimTime;
use potemkin_snapshot::fnv1a64;
use potemkin_workload::radiation::RadiationConfig;
use potemkin_workload::worm::WormSpec;

/// One (farm count, worker count) measurement.
#[derive(Clone, Debug)]
pub struct FederationPoint {
    /// Member farm clusters behind the routing tier.
    pub farms: usize,
    /// Worker threads the engine ran on.
    pub workers: usize,
    /// Wall-clock seconds for the replay.
    pub wall_secs: f64,
    /// Simulation events dispatched per wall-clock second.
    pub events_per_sec: f64,
    /// Fabric packets that crossed a farm boundary over GRE (transport
    /// telemetry: topology-dependent, excluded from the digest).
    pub cross_farm_packets: u64,
    /// Frames dropped at the tier for lack of a route (0 in a well-formed
    /// layout).
    pub route_drops: u64,
    /// FNV-1a digest of the merged deterministic report.
    pub digest: u64,
}

/// Result of the federated scaling sweep.
#[derive(Clone, Debug)]
pub struct FederationScaleResult {
    /// One point per (farm count, worker count), in sweep order (first is
    /// the single-farm serial reference).
    pub points: Vec<FederationPoint>,
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
    /// Whether every layout and worker count produced a byte-identical
    /// merged report.
    pub deterministic: bool,
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

fn digest_of(result: &potemkin_core::federation::FederatedTelescopeResult) -> u64 {
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
    let mut points = Vec::with_capacity(farm_counts.len() * worker_counts.len());
    let mut events = 0;
    let mut packets = 0;
    let mut monitored_addresses = 0;
    let mut cross_cell_packets = 0;
    let mut final_infected = 0;
    for &farms in farm_counts {
        let cfg = config(duration, telescope, farms, cells);
        for &workers in worker_counts {
            let start = Instant::now();
            let result = run_telescope_federated(&cfg, workers).expect("federated replay runs");
            let wall_secs = start.elapsed().as_secs_f64();
            // Progress to stderr: full-scale points run for minutes each.
            eprintln!("    [e16] farms={farms} workers={workers}: {wall_secs:.1}s");
            events = result.merged.engine.total.events_processed;
            packets = result.merged.packets;
            monitored_addresses = result.federation.monitored_addresses;
            cross_cell_packets = result.merged.cross_cell_packets;
            final_infected = result.merged.final_infected;
            points.push(FederationPoint {
                farms,
                workers,
                wall_secs,
                events_per_sec: if wall_secs > 0.0 { events as f64 / wall_secs } else { 0.0 },
                cross_farm_packets: result.federation.cross_farm_packets,
                route_drops: result.federation.route_drops,
                digest: digest_of(&result),
            });
        }
    }
    let deterministic = points.windows(2).all(|w| w[0].digest == w[1].digest);

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
        points,
        events,
        packets,
        monitored_addresses,
        cross_cell_packets,
        final_infected,
        cells,
        window: SimTime::from_millis(500),
        duration,
        deterministic,
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
    for p in &result.points {
        t.row_owned(vec![
            p.farms.to_string(),
            p.workers.to_string(),
            format!("{:.3}", p.wall_secs),
            format!("{:.0}", p.events_per_sec),
            p.cross_farm_packets.to_string(),
            p.route_drops.to_string(),
            format!("{:016x}", p.digest),
        ]);
    }
    t
}

/// Renders `BENCH_federation.json`: the machine-independent digest and
/// invariants at the top, wall-clock-dependent numbers under `"measured"`.
#[must_use]
pub fn bench_json(result: &FederationScaleResult) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"federation\",\n");
    s.push_str("  \"experiment\": \"e16\",\n");
    s.push_str(&format!("  \"cells\": {},\n", result.cells));
    s.push_str(&format!("  \"window_ns\": {},\n", result.window.as_nanos()));
    s.push_str(&format!("  \"duration_secs\": {},\n", result.duration.as_secs()));
    s.push_str(&format!("  \"monitored_addresses\": {},\n", result.monitored_addresses));
    s.push_str(&format!("  \"packets\": {},\n", result.packets));
    s.push_str(&format!("  \"events\": {},\n", result.events));
    s.push_str(&format!("  \"cross_cell_packets\": {},\n", result.cross_cell_packets));
    s.push_str(&format!("  \"final_infected\": {},\n", result.final_infected));
    s.push_str(&format!(
        "  \"digest\": \"{:016x}\",\n",
        result.points.first().map_or(0, |p| p.digest)
    ));
    s.push_str(&format!("  \"deterministic\": {},\n", result.deterministic));
    s.push_str(&format!("  \"shed_invariant\": {},\n", result.shed_invariant));
    s.push_str("  \"shed_by_farms\": [\n");
    for (i, (farms, shed)) in result.shed_by_farms.iter().enumerate() {
        let sep = if i + 1 == result.shed_by_farms.len() { "" } else { "," };
        s.push_str(&format!("    {{\"farms\": {farms}, \"shed_packets\": {shed}}}{sep}\n"));
    }
    s.push_str("  ],\n");
    s.push_str("  \"measured\": [\n");
    for (i, p) in result.points.iter().enumerate() {
        let sep = if i + 1 == result.points.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"farms\": {}, \"workers\": {}, \"wall_secs\": {:.6}, \
             \"events_per_sec\": {:.1}, \"cross_farm_packets\": {}, \"route_drops\": {}, \
             \"digest\": \"{:016x}\"}}{}\n",
            p.farms,
            p.workers,
            p.wall_secs,
            p.events_per_sec,
            p.cross_farm_packets,
            p.route_drops,
            p.digest,
            sep
        ));
    }
    s.push_str("  ]\n}\n");
    s
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
        assert!(r.deterministic, "digests diverged across layouts");
        assert!(r.shed_invariant, "shed count diverged across layouts");
        assert!(r.shed_by_farms.iter().all(|&(_, shed)| shed > 0), "budget must shed");
        // One farm keeps everything local; more farms must tunnel.
        let single = r.points.iter().find(|p| p.farms == 1).unwrap();
        assert_eq!(single.cross_farm_packets, 0);
        let multi = r.points.iter().find(|p| p.farms == 4).unwrap();
        assert!(multi.cross_farm_packets > 0, "worm must cross farms");
        assert!(r.points.iter().all(|p| p.route_drops == 0));
        let rendered = table(&r).to_string();
        assert!(rendered.contains("cross-farm"));
    }

    #[test]
    fn bench_json_shape() {
        let r = run(SimTime::from_secs(2), telescope(), 4, &[1, 2], &[1]);
        let json = bench_json(&r);
        assert!(json.contains("\"experiment\": \"e16\""));
        assert!(json.contains("\"deterministic\": true"));
        assert!(json.contains("\"shed_invariant\": true"));
        assert!(json.contains("\"monitored_addresses\": 65536"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
