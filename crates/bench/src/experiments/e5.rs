//! E5 — containment: an in-farm worm outbreak under each policy.
//!
//! The paper's containment argument: with reflection, a captured worm's
//! outbound scans are turned back into the farm, so the epidemic proceeds
//! *inside* (exponential internal growth, full behavioural fidelity, zero
//! packets to third parties); with drop-all the worm appears inert; with
//! allow-all it attacks the Internet. This experiment runs the same outbreak
//! under all three policies and prints the infection curves, validating the
//! reflection curve's shape against the analytic SI model.
//!
//! Each outbreak is a one-cell, one-worker run of the shared cell engine
//! whose telescope is the worm's /24, with no radiation.

use potemkin_core::farm::FarmConfig;
use potemkin_core::parallel::{
    run_telescope_sharded, ShardedTelescopeConfig, ShardedTelescopeResult,
};
use potemkin_core::scenario::TelescopeConfig;
use potemkin_gateway::policy::{ContainmentMode, PolicyConfig};
use potemkin_obs::Table;
use potemkin_sim::SimTime;
use potemkin_workload::epidemic::SiModel;
use potemkin_workload::radiation::RadiationConfig;
use potemkin_workload::worm::WormSpec;

use crate::harness::Outcome;

/// Result of the three-policy comparison.
#[derive(Clone, Debug)]
pub(crate) struct ContainmentResult {
    /// Per-mode outbreak results, in `[Reflect, DropAll, AllowAll]` order.
    pub(crate) runs: Vec<(ContainmentMode, ShardedTelescopeResult)>,
    /// The analytic prediction for the reflection run.
    pub(crate) analytic: SiModel,
    /// Duration of each run.
    pub(crate) duration: SimTime,
}

/// The scanned space for the outbreak (a /24 so the sim stays fast).
const SPACE: &str = "10.1.0.0/24";

/// A Code-Red-like worm slowed to 0.5 probes/s so the epidemic's
/// exponential phase spans tens of seconds and is visible at 1-second
/// samples (at the real 11 probes/s the farm saturates inside the first
/// sample bin; the containment *outcome* is identical).
#[must_use]
pub(crate) fn slow_worm() -> WormSpec {
    WormSpec { scan_rate: 0.5, ..WormSpec::code_red(SPACE.parse().expect("static prefix")) }
}

fn config_for(mode: ContainmentMode, duration: SimTime) -> ShardedTelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = match mode {
        ContainmentMode::Reflect => PolicyConfig::reflect(),
        ContainmentMode::DropAll => PolicyConfig::drop_all(),
        ContainmentMode::AllowAll => PolicyConfig::allow_all(),
    };
    // Long idle timeout: infected VMs keep scanning for the whole run.
    farm.gateway.policy.binding_idle_timeout = SimTime::from_secs(3_600);
    farm.worm = Some(slow_worm());
    farm.frames_per_server = 4_000_000;
    farm.max_domains_per_server = 4_096;
    let quiet = RadiationConfig {
        telescope: SPACE.parse().expect("static prefix"),
        peak_source_rate: 0.0,
        ..RadiationConfig::default()
    };
    let base = TelescopeConfig::builder(farm, quiet)
        .duration(duration)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(10))
        .build()
        .expect("fixed outbreak config is valid");
    ShardedTelescopeConfig::builder(base)
        .seed_infections(1)
        .build()
        .expect("fixed outbreak config is valid")
}

/// Runs the comparison.
///
/// # Panics
///
/// Panics if a scenario fails to build (fixed configs make that a bug).
#[must_use]
pub(crate) fn run(duration: SimTime) -> ContainmentResult {
    let modes = [ContainmentMode::Reflect, ContainmentMode::DropAll, ContainmentMode::AllowAll];
    let runs = modes
        .into_iter()
        .map(|mode| {
            let config = config_for(mode, duration);
            (mode, run_telescope_sharded(&config, 1).expect("scenario must build"))
        })
        .collect();
    let worm = slow_worm();
    let analytic = SiModel::new(
        256,            // every /24 address is a (reflectable) victim
        1,              // one seed
        worm.scan_rate, // probes/s per infected
        256,            // the scanned space
    )
    .expect("valid model");
    ContainmentResult { runs, analytic, duration }
}

/// Renders the headline comparison.
#[must_use]
pub(crate) fn summary_table(result: &ContainmentResult) -> Table {
    let mut t = Table::new(&[
        "policy",
        "infected (final)",
        "escaped packets",
        "worm probes",
        "payloads captured",
        "live VMs",
    ])
    .with_title("E5: containment policy comparison (in-farm Code-Red-like outbreak)");
    for (mode, r) in &result.runs {
        t.row_owned(vec![
            format!("{mode:?}"),
            r.final_infected.to_string(),
            r.degradation.escaped.to_string(),
            r.stats.counters.get("worm_probes").to_string(),
            r.stats.counters.get("unique_payloads_captured").to_string(),
            r.stats.live_vms.to_string(),
        ]);
    }
    t
}

/// Renders the reflection run's infection curve against the analytic model.
#[must_use]
pub(crate) fn curve_table(result: &ContainmentResult) -> Table {
    let mut t = Table::new(&["t (s)", "infected (simulated)", "infected (SI model)"])
        .with_title("E5b: internal epidemic growth under reflection");
    let reflect_run = run_for(result, ContainmentMode::Reflect);
    let step = (result.duration.as_secs() / 12).max(1);
    for (at, v) in reflect_run.infected_series.iter() {
        if at.as_secs() % step == 0 {
            t.row_owned(vec![
                at.as_secs().to_string(),
                format!("{v:.0}"),
                format!("{:.1}", result.analytic.infected_at(at)),
            ]);
        }
    }
    t
}

/// The run under `mode` ([`run`] makes one under each).
fn run_for(result: &ContainmentResult, mode: ContainmentMode) -> &ShardedTelescopeResult {
    result.runs.iter().find(|(m, _)| *m == mode).map(|(_, r)| r).expect("every mode ran")
}

/// Runs the experiment at `figures` scale (shortened when `fast`), with
/// the containment claims: nothing escapes a containing policy, and
/// reflection spreads the worm while drop-all leaves it at its seed.
#[must_use]
pub(crate) fn outcome(fast: bool) -> Outcome {
    let r = run(SimTime::from_secs(if fast { 25 } else { 60 }));
    let reflect = run_for(&r, ContainmentMode::Reflect);
    let drop = run_for(&r, ContainmentMode::DropAll);
    Outcome::default()
        .table(summary_table(&r))
        .table(curve_table(&r))
        .claim(
            "reflect_and_drop_all_escape_nothing",
            reflect.degradation.escaped == 0 && drop.degradation.escaped == 0,
        )
        .claim(
            "reflect_spreads_while_drop_all_stays_at_its_seed",
            reflect.final_infected > 1 && drop.final_infected == 1,
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_separate_as_the_paper_shows() {
        let r = run(SimTime::from_secs(25));
        let reflect = run_for(&r, ContainmentMode::Reflect);
        let drop = run_for(&r, ContainmentMode::DropAll);
        let allow = run_for(&r, ContainmentMode::AllowAll);
        let probes = |r: &ShardedTelescopeResult| r.stats.counters.get("worm_probes");

        // Reflection: spreads internally, zero escapes.
        assert!(reflect.final_infected > 2, "reflect spread: {}", reflect.final_infected);
        assert_eq!(reflect.degradation.escaped, 0);
        // Drop-all: frozen at the seed, zero escapes.
        assert_eq!(drop.final_infected, 1);
        assert_eq!(drop.degradation.escaped, 0);
        // Allow-all: escapes to the Internet.
        assert!(allow.degradation.escaped > 0);
        // Reflection observes strictly more behaviour than drop-all.
        assert!(probes(reflect) >= probes(drop));
    }

    #[test]
    fn reflection_curve_grows_like_si_early_phase() {
        let r = run(SimTime::from_secs(30));
        let reflect = run_for(&r, ContainmentMode::Reflect);
        // Simulated infections at the horizon within a factor of ~3 of the
        // analytic prediction (the sim has cloning latency and dialogue
        // round-trips the ideal model lacks).
        let sim_final = reflect.final_infected as f64;
        let predicted = r.analytic.infected_at(r.duration);
        assert!(
            sim_final > predicted / 4.0 && sim_final < predicted * 4.0,
            "sim {sim_final} vs predicted {predicted}"
        );
    }

    #[test]
    fn tables_render() {
        let r = run(SimTime::from_secs(10));
        let s = summary_table(&r).to_string();
        assert!(s.contains("Reflect"));
        assert!(s.contains("escaped"));
        let c = curve_table(&r).to_string();
        assert!(c.contains("SI model"));
    }
}
