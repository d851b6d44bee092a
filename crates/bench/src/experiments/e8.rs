//! E8 — ablations of the design choices DESIGN.md §6 calls out.
//!
//! Four ablations, each isolating one mechanism on identical traffic:
//!
//! * **Binding granularity** — per-destination vs. per-(source,
//!   destination): attacker isolation costs VMs.
//! * **Standby pool** — first-contact service latency with and without
//!   pre-cloned VMs.
//! * **Recycle strategy** — destroy-and-clone vs. rollback-to-pool: VMM
//!   time spent per recycled VM.
//! * **Backscatter filter** — VMs wasted on DoS backscatter when the
//!   filter is off.
//!
//! Every variant is a one-cell, one-worker run of the shared cell engine.

use potemkin_core::farm::{FarmConfig, RecycleStrategy};
use potemkin_core::parallel::{
    run_telescope_sharded, ShardedTelescopeConfig, ShardedTelescopeResult,
};
use potemkin_core::scenario::TelescopeConfig;
use potemkin_gateway::binding::BindGranularity;
use potemkin_metrics::Table;
use potemkin_sim::SimTime;
use potemkin_workload::radiation::RadiationConfig;

use crate::harness::Outcome;

/// One ablation row: a label plus the run it produced.
#[derive(Clone, Debug)]
pub struct AblationRow {
    /// What was varied.
    pub label: String,
    /// The run.
    pub result: ShardedTelescopeResult,
}

/// Result of the ablation suite.
#[derive(Clone, Debug)]
pub struct AblationResult {
    /// Granularity ablation rows.
    pub granularity: Vec<AblationRow>,
    /// Standby-pool ablation rows.
    pub standby: Vec<AblationRow>,
    /// Recycle-strategy ablation rows.
    pub recycle: Vec<AblationRow>,
    /// Backscatter-filter ablation rows.
    pub backscatter: Vec<AblationRow>,
}

fn base_config(duration: SimTime) -> TelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.frames_per_server = 2_000_000;
    farm.max_domains_per_server = 8_192;
    farm.gateway.policy.binding_idle_timeout = SimTime::from_secs(20);
    TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(77)
        .duration(duration)
        .sample_interval(SimTime::from_secs(10))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("fixed telescope config is valid")
}

fn replay(base: TelescopeConfig) -> ShardedTelescopeResult {
    let config = ShardedTelescopeConfig::builder(base).build().expect("config builds");
    run_telescope_sharded(&config, 1).expect("config builds")
}

/// Runs the ablation suite over `duration` of identical radiation.
///
/// # Panics
///
/// Panics if a fixed configuration fails to build (a bug).
#[must_use]
pub fn run(duration: SimTime) -> AblationResult {
    let mut granularity = Vec::new();
    for (label, g) in [
        ("per-destination", BindGranularity::PerDestination),
        ("per-(source,destination)", BindGranularity::PerSourceDestination),
    ] {
        let mut cfg = base_config(duration);
        cfg.farm.gateway.granularity = g;
        granularity.push(AblationRow { label: label.to_string(), result: replay(cfg) });
    }

    let mut standby = Vec::new();
    for pool in [0usize, 32] {
        let mut cfg = base_config(duration);
        cfg.farm.standby_per_host = pool;
        cfg.farm.recycle = RecycleStrategy::RollbackToPool;
        // Both variants use rollback recycling (which refills the pool), so
        // the initial pool size matters for the cold-start transient; in
        // steady state recycled VMs dominate either way.
        standby.push(AblationRow { label: format!("initial pool = {pool}"), result: replay(cfg) });
    }

    let mut recycle = Vec::new();
    for (label, strategy) in [
        ("destroy + clone", RecycleStrategy::DestroyAndClone),
        ("rollback to pool", RecycleStrategy::RollbackToPool),
    ] {
        let mut cfg = base_config(duration);
        cfg.farm.recycle = strategy;
        recycle.push(AblationRow { label: label.to_string(), result: replay(cfg) });
    }

    let mut backscatter = Vec::new();
    for (label, filter) in [("filter on", true), ("filter off", false)] {
        let mut cfg = base_config(duration);
        cfg.farm.gateway.policy.filter_backscatter = filter;
        backscatter.push(AblationRow { label: label.to_string(), result: replay(cfg) });
    }

    AblationResult { granularity, standby, recycle, backscatter }
}

/// Renders all four ablations.
#[must_use]
pub fn table(result: &AblationResult) -> Table {
    let mut t =
        Table::new(&["ablation", "variant", "VMs cloned", "peak live", "clone p50", "vmm time"])
            .with_title("E8: design-choice ablations (identical radiation per pair)");
    for (name, rows) in [
        ("granularity", &result.granularity),
        ("standby pool", &result.standby),
        ("recycle", &result.recycle),
        ("backscatter", &result.backscatter),
    ] {
        for row in rows {
            let s = &row.result.stats;
            t.row_owned(vec![
                name.to_string(),
                row.label.clone(),
                s.vms_cloned.to_string(),
                format!("{:.0}", row.result.peak_live_vms),
                s.clone_latency_p50.to_string(),
                s.vmm_time.to_string(),
            ]);
        }
    }
    t
}

/// Runs the experiment at `figures` scale (shortened when `fast`).
#[must_use]
pub fn outcome(fast: bool) -> Outcome {
    Outcome::default().table(table(&run(SimTime::from_secs(if fast { 60 } else { 300 }))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_separate_as_designed() {
        let r = run(SimTime::from_secs(60));

        // Per-(source,destination) isolation needs at least as many VMs.
        assert!(
            r.granularity[1].result.stats.vms_cloned >= r.granularity[0].result.stats.vms_cloned,
            "finer granularity cannot need fewer VMs"
        );

        // A standby pool slashes first-contact latency.
        let no_pool = r.standby[0].result.stats.clone_latency_p50;
        let pool = r.standby[1].result.stats.clone_latency_p50;
        assert!(pool < no_pool / 2, "pool p50 {pool} vs no-pool {no_pool}");

        // Rollback recycling spends less VMM time than destroy + clone.
        let destroy_time = r.recycle[0].result.stats.vmm_time;
        let rollback_time = r.recycle[1].result.stats.vmm_time;
        assert!(rollback_time < destroy_time, "rollback {rollback_time} vs destroy {destroy_time}");

        // Disabling the backscatter filter wastes VMs on DoS echoes.
        assert!(
            r.backscatter[1].result.stats.vms_cloned > r.backscatter[0].result.stats.vms_cloned,
            "filter-off must clone more"
        );
    }

    #[test]
    fn table_renders() {
        let s = table(&run(SimTime::from_secs(30))).to_string();
        assert!(s.contains("granularity"));
        assert!(s.contains("rollback"));
        assert!(s.contains("backscatter"));
    }
}
