//! E3 — VMs required vs. VM recycle time (the paper's scalability figure).
//!
//! The paper's scalability analysis: each telescope address needs a VM only
//! while it is being talked to, so the number of *simultaneous* VMs is the
//! arrival rate of active addresses times how long a VM stays bound
//! (Little's law). Short recycle times collapse the requirement from "one VM
//! per address" (65 536 for a /16) to a few hundred. This experiment
//! generates a radiation trace for a /16, derives per-address binding
//! sessions for a sweep of idle-recycle times, and reports peak and mean
//! concurrent VMs per point.

use potemkin_obs::{ConcurrencyAnalyzer, Table};
use potemkin_sim::SimTime;
use potemkin_workload::radiation::{RadiationConfig, RadiationModel};

use crate::harness::Outcome;

/// One sweep point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DemandPoint {
    /// The idle recycle time.
    pub(crate) lifetime: SimTime,
    /// Peak simultaneous VMs.
    pub(crate) peak_vms: u64,
    /// Time-averaged simultaneous VMs.
    pub(crate) mean_vms: f64,
    /// Little's-law prediction λ·T from the binding-creation rate.
    pub(crate) littles_law: f64,
}

/// Result of the demand sweep.
#[derive(Clone, Debug)]
pub(crate) struct DemandResult {
    /// Sweep points, in lifetime order.
    pub(crate) points: Vec<DemandPoint>,
    /// Packets in the trace.
    pub(crate) packets: u64,
    /// Distinct destination addresses touched.
    pub(crate) addresses_touched: u64,
    /// Trace duration.
    pub(crate) duration: SimTime,
}

/// Runs the sweep over the given recycle times.
#[must_use]
pub(crate) fn run(duration: SimTime, lifetimes: &[SimTime], seed: u64) -> DemandResult {
    let mut model = RadiationModel::new(RadiationConfig::default(), seed);
    let trace = model.generate(duration);
    let arrivals = trace.events().iter().map(|e| (u32::from(e.packet.dst()), e.at));
    let demand = ConcurrencyAnalyzer::idle_recycling(arrivals, lifetimes);

    let points = lifetimes
        .iter()
        .zip(demand)
        .map(|(&lifetime, stats)| DemandPoint {
            lifetime,
            peak_vms: stats.peak,
            mean_vms: stats.mean,
            littles_law: stats.arrival_rate * lifetime.as_secs_f64(),
        })
        .collect();
    DemandResult {
        points,
        packets: trace.len() as u64,
        addresses_touched: trace.distinct_destinations() as u64,
        duration,
    }
}

/// Renders the sweep as a table.
#[must_use]
pub(crate) fn table(result: &DemandResult) -> Table {
    let mut t = Table::new(&[
        "recycle time",
        "peak VMs",
        "mean VMs",
        "Little's law λT",
        "fits 1 server (116)?",
    ])
    .with_title("E3: VM demand vs. recycle time (/16 telescope)");
    for p in &result.points {
        t.row_owned(vec![
            p.lifetime.to_string(),
            p.peak_vms.to_string(),
            format!("{:.1}", p.mean_vms),
            format!("{:.1}", p.littles_law),
            if p.peak_vms <= 116 { "yes".into() } else { "no".into() },
        ]);
    }
    t
}

/// The paper-style sweep schedule: 100 ms to 30 min.
#[must_use]
pub(crate) fn default_lifetimes() -> Vec<SimTime> {
    vec![
        SimTime::from_millis(100),
        SimTime::from_millis(500),
        SimTime::from_secs(1),
        SimTime::from_secs(5),
        SimTime::from_secs(30),
        SimTime::from_secs(60),
        SimTime::from_secs(300),
        SimTime::from_secs(1_800),
    ]
}

/// Runs the experiment at `figures` scale (shortened when `fast`).
#[must_use]
pub(crate) fn outcome(fast: bool) -> Outcome {
    let r = run(SimTime::from_secs(if fast { 300 } else { 1_800 }), &default_lifetimes(), 2005);
    let trace = format!(
        "trace: {} packets over {}, {} distinct telescope addresses",
        r.packets, r.duration, r.addresses_touched
    );
    Outcome::default().line(trace).table(table(&r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demand_grows_with_lifetime() {
        let r = run(SimTime::from_secs(300), &default_lifetimes(), 11);
        assert!(r.packets > 0);
        for w in r.points.windows(2) {
            assert!(
                w[1].mean_vms >= w[0].mean_vms,
                "mean must be monotone in lifetime: {} then {}",
                w[0].mean_vms,
                w[1].mean_vms
            );
            assert!(w[1].peak_vms >= w[0].peak_vms);
        }
        // Short lifetimes need orders of magnitude fewer VMs than long.
        let first = &r.points[0];
        let last = r.points.last().unwrap();
        assert!(
            last.mean_vms > first.mean_vms * 20.0,
            "sweep should span orders of magnitude: {} .. {}",
            first.mean_vms,
            last.mean_vms
        );
    }

    #[test]
    fn crossover_exists_around_single_server_capacity() {
        let r = run(SimTime::from_secs(300), &default_lifetimes(), 12);
        let fits: Vec<bool> = r.points.iter().map(|p| p.peak_vms <= 116).collect();
        assert!(fits[0], "sub-second recycling must fit one server");
        assert!(!fits[fits.len() - 1], "30-minute recycling must not fit one server");
    }

    #[test]
    fn littles_law_tracks_mean() {
        let r = run(SimTime::from_secs(600), &[SimTime::from_secs(30)], 13);
        let p = &r.points[0];
        // λT and the measured mean agree within a factor ~2 (sessions merge
        // under bursty arrivals, so λ is below the raw packet rate).
        assert!(
            p.mean_vms <= p.littles_law * 2.0 && p.littles_law <= p.mean_vms * 3.0,
            "mean {} vs λT {}",
            p.mean_vms,
            p.littles_law
        );
    }

    #[test]
    fn table_renders() {
        let r = run(SimTime::from_secs(60), &[SimTime::from_secs(1)], 14);
        let s = table(&r).to_string();
        assert!(s.contains("recycle time"));
        assert!(s.contains("Little"));
    }
}
