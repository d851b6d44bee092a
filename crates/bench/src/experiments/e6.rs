//! E6 — "Potemkin in practice": a 10-minute /16 telescope replay.
//!
//! The paper ran its prototype live against the UCSD telescope for ~10
//! minutes and reported the traffic served and VMs consumed. This experiment
//! replays synthetic radiation of the same character against the full farm
//! (gateway + servers + recycling) and reports the analogous numbers, as a
//! one-cell, one-worker run of the shared cell engine.

use potemkin_core::farm::FarmConfig;
use potemkin_core::parallel::{
    run_telescope_sharded, ShardedTelescopeConfig, ShardedTelescopeResult,
};
use potemkin_core::scenario::TelescopeConfig;
use potemkin_metrics::Table;
use potemkin_sim::SimTime;
use potemkin_workload::radiation::RadiationConfig;

use crate::harness::Outcome;

/// Builds the standard end-to-end configuration.
#[must_use]
pub fn config(duration: SimTime, idle_timeout: SimTime, servers: usize) -> ShardedTelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.servers = servers;
    farm.frames_per_server = 1_500_000;
    farm.max_domains_per_server = 2_048;
    farm.gateway.policy.binding_idle_timeout = idle_timeout;
    let base = TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(2005)
        .duration(duration)
        .sample_interval(SimTime::from_secs(5))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("fixed telescope config is valid");
    ShardedTelescopeConfig::builder(base).build().expect("fixed telescope config is valid")
}

/// Runs the replay.
///
/// # Panics
///
/// Panics if the fixed configuration fails to build (a bug).
#[must_use]
pub fn run(duration: SimTime, idle_timeout: SimTime, servers: usize) -> ShardedTelescopeResult {
    run_telescope_sharded(&config(duration, idle_timeout, servers), 1).expect("config must build")
}

/// Renders the headline numbers.
#[must_use]
pub fn summary_table(result: &ShardedTelescopeResult, duration: SimTime) -> Table {
    let mut t = Table::new(&["metric", "value"]).with_title("E6: end-to-end telescope replay");
    let s = &result.stats;
    t.row_owned(vec!["replay duration".into(), duration.to_string()]);
    t.row_owned(vec!["packets replayed".into(), result.packets.to_string()]);
    t.row_owned(vec!["distinct sources".into(), result.distinct_sources.to_string()]);
    t.row_owned(vec![
        "telescope addresses touched".into(),
        result.distinct_destinations.to_string(),
    ]);
    t.row_owned(vec!["VMs cloned".into(), s.vms_cloned.to_string()]);
    t.row_owned(vec!["VMs recycled".into(), s.vms_recycled.to_string()]);
    t.row_owned(vec!["peak live VMs".into(), format!("{:.0}", result.peak_live_vms)]);
    t.row_owned(vec!["clone latency p50".into(), s.clone_latency_p50.to_string()]);
    t.row_owned(vec!["clone latency p99".into(), s.clone_latency_p99.to_string()]);
    t.row_owned(vec![
        "marginal memory per VM".into(),
        format!("{:.2} MiB", s.marginal_frames_per_vm() * 4.0 / 1024.0),
    ]);
    t.row_owned(vec![
        "pings answered at gateway".into(),
        s.counters.get("gateway_pings_answered").to_string(),
    ]);
    t.row_owned(vec![
        "backscatter dropped (no VM)".into(),
        s.counters.get("dropped_backscatter").to_string(),
    ]);
    t.row_owned(vec!["escaped packets".into(), s.counters.get("escaped").to_string()]);
    t
}

/// Renders the trace's traffic-mix breakdown (the deployment report's
/// "what hit the telescope" table).
#[must_use]
pub fn mix_table(result: &ShardedTelescopeResult) -> Table {
    let mix = &result.mix;
    let mut t = Table::new(&["class", "packets"]).with_title("E6c: replayed traffic mix");
    t.row_owned(vec!["TCP SYN (scans)".into(), mix.tcp_syns.to_string()]);
    t.row_owned(vec!["TCP other (backscatter etc.)".into(), mix.tcp_other.to_string()]);
    t.row_owned(vec!["UDP".into(), mix.udp.to_string()]);
    t.row_owned(vec!["ICMP".into(), mix.icmp.to_string()]);
    for (port, count) in mix.top_ports(5) {
        t.row_owned(vec![format!("  port {port}"), count.to_string()]);
    }
    t
}

/// Renders the live-VM time series.
#[must_use]
pub fn series_table(result: &ShardedTelescopeResult) -> Table {
    let mut t = Table::new(&["t (s)", "live VMs"]).with_title("E6b: live VMs over the replay");
    for (at, v) in result.live_vm_series.iter() {
        t.row_owned(vec![at.as_secs().to_string(), format!("{v:.0}")]);
    }
    t
}

/// Runs the experiment at `figures` scale (shortened when `fast`).
#[must_use]
pub fn outcome(fast: bool) -> Outcome {
    let duration = SimTime::from_secs(if fast { 120 } else { 600 });
    let r = run(duration, SimTime::from_secs(60), 1);
    Outcome::default()
        .table(summary_table(&r, duration))
        .table(mix_table(&r))
        .table(series_table(&r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_exercises_the_whole_system() {
        let duration = SimTime::from_secs(120);
        let r = run(duration, SimTime::from_secs(30), 1);
        assert!(r.packets > 100);
        assert!(r.stats.vms_cloned > 10);
        assert!(r.stats.vms_recycled > 0, "30s recycling over 2 min must recycle");
        assert!(r.peak_live_vms >= 2.0);
        // No worm configured: nothing to escape but replies are expected.
        assert!(r.stats.counters.get("sent_external") > 0, "honeypots must answer scanners");
        // The resource-management filters saved VMs.
        assert!(r.stats.counters.get("gateway_pings_answered") > 0, "ping sweeps answered cheaply");
        assert!(r.stats.counters.get("dropped_backscatter") > 0, "backscatter filtered");
        // Clone latency is the calibrated few-hundred-ms figure.
        assert!(r.stats.clone_latency_p50 >= SimTime::from_millis(200));
        assert!(r.stats.clone_latency_p50 <= SimTime::from_millis(800));
    }

    #[test]
    fn shorter_recycling_lowers_peak_vms() {
        let duration = SimTime::from_secs(120);
        let short = run(duration, SimTime::from_secs(5), 1);
        let long = run(duration, SimTime::from_secs(60), 1);
        assert!(
            long.peak_live_vms > short.peak_live_vms,
            "60s recycle peak {} should exceed 5s recycle peak {}",
            long.peak_live_vms,
            short.peak_live_vms
        );
        // Same traffic in both runs (same seed).
        assert_eq!(short.packets, long.packets);
    }

    #[test]
    fn tables_render() {
        let r = run(SimTime::from_secs(30), SimTime::from_secs(10), 1);
        let s = summary_table(&r, SimTime::from_secs(30)).to_string();
        assert!(s.contains("VMs cloned"));
        assert!(s.contains("clone latency p50"));
        let series = series_table(&r).to_string();
        assert!(series.contains("live VMs"));
    }
}
