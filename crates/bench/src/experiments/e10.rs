//! E10 — graceful degradation under injected faults (extension).
//!
//! The paper argues the honeyfarm architecture degrades gracefully: losing
//! a physical server loses the VMs resident on it, but the gateway's late
//! binding lets every orphaned address re-materialize on a surviving
//! server, and under resource exhaustion the farm falls down a fidelity
//! ladder (full VM → standby VM → stateless SYN/ACK responder →
//! drop-with-count) rather than failing open. This experiment sweeps
//! deterministic fault plans of increasing severity over the same telescope
//! replay and reports availability (fraction of first contacts served by a
//! full VM), mean time to re-bind after a crash, fidelity loss per
//! degradation level, and — the invariant that must never move — escaped
//! packets. Each level is a one-cell, one-worker run of the shared cell
//! engine with the level as its fault-plan template.

use potemkin_core::farm::FarmConfig;
use potemkin_core::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin_core::scenario::TelescopeConfig;
use potemkin_gateway::policy::PolicyConfig;
use potemkin_obs::Table;
use potemkin_sim::{FaultPlanConfig, SimTime};
use potemkin_vmm::RetryPolicy;

use crate::harness::Outcome;

/// Severity of one sweep level.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FaultLevel {
    /// Display name.
    pub(crate) label: &'static str,
    /// Farm-wide host-crash arrival rate (crashes per hour).
    pub(crate) host_crash_rate_per_hour: f64,
    /// Per-attempt flash-clone failure probability.
    pub(crate) clone_failure_prob: f64,
    /// Gateway-stall arrival rate (stalls per hour).
    pub(crate) gateway_stall_rate_per_hour: f64,
}

/// Outcome of one sweep level.
#[derive(Clone, Debug)]
pub(crate) struct FaultPoint {
    /// The injected severity.
    pub(crate) level: FaultLevel,
    /// Host crashes that fired.
    pub(crate) crashes: u64,
    /// Injected clone faults consumed.
    pub(crate) clone_faults: u64,
    /// VMs torn down by crashes.
    pub(crate) vms_lost: u64,
    /// Orphaned addresses re-bound on survivors.
    pub(crate) rebinds: u64,
    /// Mean time to re-bind after a crash.
    pub(crate) mttr: SimTime,
    /// Fraction of first contacts served by a full VM.
    pub(crate) availability: f64,
    /// Fraction answered below full fidelity.
    pub(crate) fidelity_loss: f64,
    /// First contacts served by the stateless SYN/ACK rung.
    pub(crate) degraded_synacks: u64,
    /// First contacts dropped at the bottom rung.
    pub(crate) dropped: u64,
    /// Containment violations (must be 0 at every severity).
    pub(crate) escapes: u64,
}

/// Result of the fault sweep.
#[derive(Clone, Debug)]
pub(crate) struct FaultSweepResult {
    /// One point per severity level, in input order.
    pub(crate) points: Vec<FaultPoint>,
    /// Replay duration per point.
    pub(crate) duration: SimTime,
    /// Packets in the replayed trace (identical across levels).
    pub(crate) packets: u64,
}

const SERVERS: usize = 2;
const PLAN_SEED: u64 = 2005;

fn farm_config() -> FarmConfig {
    let mut farm = FarmConfig::small_test();
    farm.servers = SERVERS;
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
    farm.frames_per_server = 1_000_000;
    farm.max_domains_per_server = 8_192;
    farm.retry = Some(RetryPolicy::default_clone());
    farm.degradation_ladder = true;
    farm
}

fn plan_for(level: &FaultLevel, duration: SimTime) -> FaultPlanConfig {
    FaultPlanConfig {
        seed: PLAN_SEED,
        host_crash_rate_per_hour: level.host_crash_rate_per_hour,
        clone_failure_prob: level.clone_failure_prob,
        gateway_stall_rate_per_hour: level.gateway_stall_rate_per_hour,
        ..FaultPlanConfig::zero(duration, SERVERS)
    }
}

/// Runs the sweep: the same telescope replay under each fault level.
///
/// # Panics
///
/// Panics if a fixed configuration fails to build (a bug).
#[must_use]
pub(crate) fn run(duration: SimTime, levels: &[FaultLevel]) -> FaultSweepResult {
    let mut points = Vec::with_capacity(levels.len());
    let mut packets = 0;
    for &level in levels {
        let base = TelescopeConfig::builder(
            farm_config(),
            potemkin_workload::radiation::RadiationConfig::default(),
        )
        .seed(7)
        .duration(duration)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("fixed telescope config is valid");
        let config = ShardedTelescopeConfig::builder(base)
            .faults(plan_for(&level, duration))
            .build()
            .expect("fixed telescope config is valid");
        let result = run_telescope_sharded(&config, 1).expect("replay runs");
        let report = &result.degradation;
        packets = result.packets;
        points.push(FaultPoint {
            level,
            crashes: report.host_crashes,
            clone_faults: report.clone_faults,
            vms_lost: report.vms_lost_to_crash,
            rebinds: report.rebinds_after_crash,
            mttr: report.mttr(),
            availability: report.availability(),
            fidelity_loss: report.fidelity_loss(),
            degraded_synacks: report.degraded_synacks,
            dropped: report.dropped_degraded + report.dropped_no_capacity,
            escapes: report.escaped,
        });
    }
    FaultSweepResult { points, duration, packets }
}

/// The default severity ladder: fault-free through hostile.
#[must_use]
pub(crate) fn default_levels() -> Vec<FaultLevel> {
    vec![
        FaultLevel {
            label: "none",
            host_crash_rate_per_hour: 0.0,
            clone_failure_prob: 0.0,
            gateway_stall_rate_per_hour: 0.0,
        },
        FaultLevel {
            label: "light",
            host_crash_rate_per_hour: 30.0,
            clone_failure_prob: 0.02,
            gateway_stall_rate_per_hour: 12.0,
        },
        FaultLevel {
            label: "moderate",
            host_crash_rate_per_hour: 120.0,
            clone_failure_prob: 0.10,
            gateway_stall_rate_per_hour: 60.0,
        },
        FaultLevel {
            label: "severe",
            host_crash_rate_per_hour: 480.0,
            clone_failure_prob: 0.25,
            gateway_stall_rate_per_hour: 240.0,
        },
    ]
}

/// Renders the sweep.
#[must_use]
pub(crate) fn table(result: &FaultSweepResult) -> Table {
    let mut t = Table::new(&[
        "fault level",
        "crashes",
        "clone faults",
        "VMs lost",
        "rebinds",
        "MTTR",
        "availability",
        "fidelity loss",
        "SYN/ACK-only",
        "dropped",
        "escapes",
    ])
    .with_title("E10: availability and fidelity under injected faults (graceful degradation)");
    for p in &result.points {
        t.row_owned(vec![
            p.level.label.to_string(),
            p.crashes.to_string(),
            p.clone_faults.to_string(),
            p.vms_lost.to_string(),
            p.rebinds.to_string(),
            p.mttr.to_string(),
            format!("{:.4}", p.availability),
            format!("{:.4}", p.fidelity_loss),
            p.degraded_synacks.to_string(),
            p.dropped.to_string(),
            p.escapes.to_string(),
        ]);
    }
    t
}

/// Runs the experiment at `figures` scale (shortened when `fast`), with
/// the containment claim: nothing escapes at any fault level.
#[must_use]
pub(crate) fn outcome(fast: bool) -> Outcome {
    let r = run(SimTime::from_secs(if fast { 60 } else { 300 }), &default_levels());
    let trace = format!("trace: {} packets over {} per fault level", r.packets, r.duration);
    Outcome::default()
        .line(trace)
        .table(table(&r))
        .claim("no_escapes_at_any_fault_level", r.points.iter().all(|p| p.escapes == 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_degrade_availability_but_never_containment() {
        let r = run(SimTime::from_secs(60), &default_levels());
        assert_eq!(r.points.len(), 4);
        assert!(r.packets > 50);
        let clean = &r.points[0];
        assert_eq!(clean.crashes, 0);
        assert_eq!(clean.clone_faults, 0);
        assert!((clean.availability - 1.0).abs() < 1e-12, "fault-free level serves everything");
        let severe = r.points.last().unwrap();
        assert!(severe.crashes > 0, "severe level must crash hosts: {severe:?}");
        assert!(severe.clone_faults > 0);
        assert!(severe.availability <= clean.availability);
        // The containment invariant holds at every severity.
        for p in &r.points {
            assert_eq!(p.escapes, 0, "{} level leaked packets", p.level.label);
            assert!((0.0..=1.0).contains(&p.availability));
            assert!((p.availability + p.fidelity_loss - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn crashes_are_repaired_by_rebinding() {
        let levels = [FaultLevel {
            label: "crash-only",
            host_crash_rate_per_hour: 240.0,
            clone_failure_prob: 0.0,
            gateway_stall_rate_per_hour: 0.0,
        }];
        let r = run(SimTime::from_secs(60), &levels);
        let p = &r.points[0];
        assert!(p.crashes > 0);
        assert!(p.rebinds > 0, "orphaned addresses must re-bind: {p:?}");
        assert!(p.mttr > SimTime::ZERO);
    }

    #[test]
    fn table_renders() {
        let r = run(SimTime::from_secs(20), &default_levels()[..2]);
        let s = table(&r).to_string();
        assert!(s.contains("E10"));
        assert!(s.contains("availability"));
        assert!(s.contains("light"));
    }
}
