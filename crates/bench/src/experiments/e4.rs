//! E4 — gateway scalability (pipeline throughput vs. state size).
//!
//! The paper's gateway had to keep up with a /16's traffic in software.
//! Absolute 2005 numbers are not reproducible, but the *scaling shape* is:
//! per-packet cost on the fast (bound) path must stay flat as flow-table and
//! binding state grow, and the clone-request path is the expensive one. This
//! experiment measures our pipeline's real wall-clock throughput at several
//! state sizes.

use std::net::Ipv4Addr;
use std::time::Instant;

use potemkin_gateway::binding::VmRef;
use potemkin_gateway::gateway::{Gateway, GatewayAction, GatewayConfig};
use potemkin_net::{Packet, PacketBuilder};
use potemkin_obs::Table;
use potemkin_sim::SimTime;

use crate::harness::Outcome;

/// One measurement point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct ThroughputPoint {
    /// Pre-installed bindings (≈ live VMs).
    pub(crate) bindings: usize,
    /// First packets of each bound flow per second: a flow-table insert
    /// on the bound path.
    pub(crate) first_pps: f64,
    /// Fast-path (bound inbound) packets per second, every flow already
    /// in the flow table.
    pub(crate) bound_pps: f64,
    /// Outbound reflect-path packets per second.
    pub(crate) reflect_pps: f64,
}

/// Result of the throughput measurement.
#[derive(Clone, Debug)]
pub(crate) struct ThroughputResult {
    /// Points at increasing state sizes.
    pub(crate) points: Vec<ThroughputPoint>,
    /// Unbound-path (clone-request) decisions per second, measured once.
    pub(crate) clone_request_pps: f64,
}

fn telescope_addr(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x0A01_0000 + (i % 65_536))
}

fn source_addr(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x0606_0000 + i)
}

/// Builds a gateway pre-loaded with `n` bindings.
#[must_use]
pub(crate) fn loaded_gateway(n: usize) -> Gateway {
    let mut g = Gateway::new(GatewayConfig::default());
    let t = SimTime::ZERO;
    for i in 0..n {
        let i = i as u32;
        g.bind(t, source_addr(i), telescope_addr(i), VmRef(u64::from(i)));
    }
    g
}

/// A pre-built batch of inbound packets targeting bound addresses.
#[must_use]
pub(crate) fn bound_packets(n: usize, count: usize) -> Vec<Packet> {
    (0..count)
        .map(|i| {
            let i = (i % n.max(1)) as u32;
            PacketBuilder::new(source_addr(i), telescope_addr(i)).tcp_syn(4_000, 445)
        })
        .collect()
}

fn measure<F: FnMut() -> bool>(iterations: usize, mut f: F) -> f64 {
    let start = Instant::now();
    let mut ok = 0usize;
    for _ in 0..iterations {
        if f() {
            ok += 1;
        }
    }
    let dt = start.elapsed().as_secs_f64();
    assert!(ok == iterations, "measurement path deviated: {ok}/{iterations}");
    iterations as f64 / dt
}

/// Rounds the bound and reflect paths are timed in. The sizes take turns
/// within a round, in alternating order, and each point keeps its best
/// round. A round is short — well under a scheduler time slice in tests —
/// so a stretch of contention on the machine slows some rounds of each
/// size rather than every sample of the size timed last.
const ROUNDS: usize = 16;

/// One state size under measurement: its gateway, its packet batches, and
/// how far through each batch the rounds so far have gone.
struct Loaded {
    gateway: Gateway,
    packets: Vec<Packet>,
    probes: Vec<Packet>,
    next_packet: usize,
    next_probe: usize,
}

/// Runs the throughput measurement at the given binding counts.
///
/// `iterations` controls measurement length (use ≥ 100k for stable figures,
/// less in tests): the packets each path is timed over, split across the
/// rounds.
#[must_use]
pub(crate) fn run(binding_counts: &[usize], iterations: usize) -> ThroughputResult {
    let now = SimTime::from_secs(1);
    let mut loaded: Vec<Loaded> = binding_counts
        .iter()
        .map(|&n| {
            let packets = bound_packets(n, iterations.min(10_000));
            // Reflect path: a bound VM probes unbound external addresses.
            let probes = (0..packets.len())
                .map(|k| {
                    PacketBuilder::new(telescope_addr(0), Ipv4Addr::from(0x2000_0000 + k as u32))
                        .tcp_syn(1_025, 445)
                })
                .collect();
            Loaded { gateway: loaded_gateway(n), packets, probes, next_packet: 0, next_probe: 0 }
        })
        .collect();
    // First packets: the batch cycles over its first `n` packets, one per
    // flow, and each inserts into the flow table — once per gateway, so
    // they are timed once, before the rounds, and the fast path below
    // refreshes a warm table at every state size.
    let mut points: Vec<ThroughputPoint> = binding_counts
        .iter()
        .zip(&mut loaded)
        .map(|(&n, l)| {
            let flows = n.min(l.packets.len());
            let mut i = 0usize;
            let first_pps = measure(flows, || {
                let p = l.packets[i].clone();
                i += 1;
                matches!(l.gateway.on_inbound(now, p), GatewayAction::Deliver { .. })
            });
            ThroughputPoint { bindings: n, first_pps, bound_pps: 0.0, reflect_pps: 0.0 }
        })
        .collect();
    // Each round picks up each batch where the last left off, so the rounds
    // together walk every flow, however short each one is.
    let per_round = iterations.div_ceil(ROUNDS);
    for round in 0..ROUNDS {
        let mut order: Vec<usize> = (0..loaded.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for at in order {
            let (l, point) = (&mut loaded[at], &mut points[at]);
            // Fast path: inbound to a bound address.
            let bound_pps = measure(per_round, || {
                let p = l.packets[l.next_packet % l.packets.len()].clone();
                l.next_packet += 1;
                matches!(l.gateway.on_inbound(now, p), GatewayAction::Deliver { .. })
            });
            let reflect_pps = measure(per_round, || {
                let p = l.probes[l.next_probe % l.probes.len()].clone();
                l.next_probe += 1;
                matches!(l.gateway.on_outbound(now, VmRef(0), p), GatewayAction::Reflect { .. })
            });
            point.bound_pps = point.bound_pps.max(bound_pps);
            point.reflect_pps = point.reflect_pps.max(reflect_pps);
        }
    }

    // Clone-request path: every packet targets a fresh unbound address.
    let mut g = Gateway::new(GatewayConfig::default());
    let mut j = 0u32;
    let clone_request_pps = measure(iterations, || {
        let p = PacketBuilder::new(source_addr(j), telescope_addr(j)).tcp_syn(4_000, 445);
        j += 1;
        matches!(g.on_inbound(now, p), GatewayAction::CloneAndDeliver { .. })
    });

    ThroughputResult { points, clone_request_pps }
}

/// Renders the measurement as a table.
#[must_use]
pub(crate) fn table(result: &ThroughputResult) -> Table {
    let mut t = Table::new(&["bindings", "bound-path pps", "reflect-path pps"])
        .with_title("E4: gateway pipeline throughput vs. state size");
    for p in &result.points {
        t.row_owned(vec![
            p.bindings.to_string(),
            format!("{:.0}", p.bound_pps),
            format!("{:.0}", p.reflect_pps),
        ]);
    }
    for p in &result.points {
        t.row_owned(vec![
            format!("{} (first packets)", p.bindings),
            format!("{:.0} (flow-table insert)", p.first_pps),
            "-".into(),
        ]);
    }
    t.row_owned(vec![
        "(unbound)".into(),
        format!("{:.0} (clone-request path)", result.clone_request_pps),
        "-".into(),
    ]);
    t
}

/// Runs the experiment at `figures` scale (shortened when `fast`).
#[must_use]
pub(crate) fn outcome(fast: bool) -> Outcome {
    let r = run(&[100, 1_000, 10_000, 50_000], if fast { 20_000 } else { 200_000 });
    Outcome::default().table(table(&r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_path_stays_flat_as_state_grows() {
        let r = run(&[100, 10_000], 20_000);
        assert_eq!(r.points.len(), 2);
        let small = r.points[0].bound_pps;
        let large = r.points[1].bound_pps;
        // Hash-table pipeline: within 3x across 100x state (generous bound
        // for noisy CI machines), each size at its best of the rounds.
        assert!(large > small / 3.0, "fast path degraded: {small} -> {large}");
        assert!(small > 10_000.0, "absurdly slow fast path: {small} pps");
    }

    #[test]
    fn clone_request_path_works_and_is_measured() {
        let r = run(&[100], 5_000);
        assert!(r.clone_request_pps > 1_000.0);
        assert!(r.points[0].first_pps > 1_000.0);
        assert!(r.points[0].reflect_pps > 1_000.0);
    }

    #[test]
    fn table_renders() {
        let r = run(&[10], 2_000);
        let s = table(&r).to_string();
        assert!(s.contains("bindings"));
        assert!(s.contains("10 (first packets)"));
        assert!(s.contains("clone-request"));
    }
}
