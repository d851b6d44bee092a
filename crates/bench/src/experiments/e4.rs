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
use potemkin_metrics::Table;
use potemkin_net::{Packet, PacketBuilder};
use potemkin_sim::SimTime;

use crate::harness::Outcome;

/// One measurement point.
#[derive(Clone, Copy, Debug)]
pub struct ThroughputPoint {
    /// Pre-installed bindings (≈ live VMs).
    pub bindings: usize,
    /// Fast-path (bound inbound) packets per second.
    pub bound_pps: f64,
    /// Outbound reflect-path packets per second.
    pub reflect_pps: f64,
}

/// Result of the throughput measurement.
#[derive(Clone, Debug)]
pub struct ThroughputResult {
    /// Points at increasing state sizes.
    pub points: Vec<ThroughputPoint>,
    /// Unbound-path (clone-request) decisions per second, measured once.
    pub clone_request_pps: f64,
}

fn telescope_addr(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x0A01_0000 + (i % 65_536))
}

fn source_addr(i: u32) -> Ipv4Addr {
    Ipv4Addr::from(0x0606_0000 + i)
}

/// Builds a gateway pre-loaded with `n` bindings.
#[must_use]
pub fn loaded_gateway(n: usize) -> Gateway {
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
pub fn bound_packets(n: usize, count: usize) -> Vec<Packet> {
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

/// Runs the throughput measurement at the given binding counts.
///
/// `iterations` controls measurement length (use ≥ 100k for stable figures,
/// less in tests).
#[must_use]
pub fn run(binding_counts: &[usize], iterations: usize) -> ThroughputResult {
    let mut points = Vec::new();
    for &n in binding_counts {
        let mut g = loaded_gateway(n);
        let packets = bound_packets(n, iterations.min(10_000));
        // Fast path: inbound to a bound address.
        let mut i = 0usize;
        let now = SimTime::from_secs(1);
        let bound_pps = measure(iterations, || {
            let p = packets[i % packets.len()].clone();
            i += 1;
            matches!(g.on_inbound(now, p), GatewayAction::Deliver { .. })
        });
        // Reflect path: a bound VM probes unbound external addresses.
        let probe_batch: Vec<Packet> = (0..packets.len())
            .map(|k| {
                PacketBuilder::new(telescope_addr(0), Ipv4Addr::from(0x2000_0000 + k as u32))
                    .tcp_syn(1_025, 445)
            })
            .collect();
        let mut k = 0usize;
        let reflect_pps = measure(iterations, || {
            let p = probe_batch[k % probe_batch.len()].clone();
            k += 1;
            matches!(g.on_outbound(now, VmRef(0), p), GatewayAction::Reflect { .. })
        });
        points.push(ThroughputPoint { bindings: n, bound_pps, reflect_pps });
    }

    // Clone-request path: every packet targets a fresh unbound address.
    let mut g = Gateway::new(GatewayConfig::default());
    let mut j = 0u32;
    let now = SimTime::from_secs(1);
    let clone_request_pps = measure(iterations, || {
        let p = PacketBuilder::new(source_addr(j), telescope_addr(j)).tcp_syn(4_000, 445);
        j += 1;
        matches!(g.on_inbound(now, p), GatewayAction::CloneAndDeliver { .. })
    });

    ThroughputResult { points, clone_request_pps }
}

/// Renders the measurement as a table.
#[must_use]
pub fn table(result: &ThroughputResult) -> Table {
    let mut t = Table::new(&["bindings", "bound-path pps", "reflect-path pps"])
        .with_title("E4: gateway pipeline throughput vs. state size");
    for p in &result.points {
        t.row_owned(vec![
            p.bindings.to_string(),
            format!("{:.0}", p.bound_pps),
            format!("{:.0}", p.reflect_pps),
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
pub fn outcome(fast: bool) -> Outcome {
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
        // for noisy CI machines).
        assert!(large > small / 3.0, "fast path degraded: {small} -> {large}");
        assert!(small > 10_000.0, "absurdly slow fast path: {small} pps");
    }

    #[test]
    fn clone_request_path_works_and_is_measured() {
        let r = run(&[100], 5_000);
        assert!(r.clone_request_pps > 1_000.0);
        assert!(r.points[0].reflect_pps > 1_000.0);
    }

    #[test]
    fn table_renders() {
        let r = run(&[10], 2_000);
        let s = table(&r).to_string();
        assert!(s.contains("bindings"));
        assert!(s.contains("clone-request"));
    }
}
