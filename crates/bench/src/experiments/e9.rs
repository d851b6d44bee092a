//! E9 — recycling as a containment knob (extension).
//!
//! Reflection keeps a worm inside the farm; VM recycling *scrubs* infected
//! honeypots back to pristine state. Together they make the farm's internal
//! epidemic a Susceptible–Infected–Susceptible process with recovery rate
//! γ = 1/recycle-time: the classic SIS threshold says the infection dies
//! out when γ exceeds the epidemic growth rate β, and otherwise settles at
//! the endemic level `N(1 − γ/β)`. This experiment sweeps the hard VM
//! lifetime and compares the simulated farm against the analytic
//! prediction — the operator can bound the farm's own infection level by
//! turning one dial. Each point is a one-cell, one-worker outbreak run of
//! the shared cell engine on the worm's quiet /24.

use potemkin_core::farm::FarmConfig;
use potemkin_core::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin_core::scenario::TelescopeConfig;
use potemkin_gateway::policy::PolicyConfig;
use potemkin_obs::Table;
use potemkin_sim::SimTime;
use potemkin_workload::epidemic::SisModel;
use potemkin_workload::radiation::RadiationConfig;
use potemkin_workload::worm::WormSpec;

use crate::harness::Outcome;

/// One sweep point.
#[derive(Clone, Debug)]
pub(crate) struct RecyclePoint {
    /// The hard VM lifetime (1/γ).
    pub(crate) lifetime: SimTime,
    /// The basic reproduction number β/γ.
    pub(crate) r0: f64,
    /// Final infected honeypots in the simulated farm.
    pub(crate) final_infected: usize,
    /// The SIS endemic-equilibrium prediction.
    pub(crate) predicted_equilibrium: f64,
    /// Packets escaped (must always be zero under reflection).
    pub(crate) escapes: u64,
}

/// Result of the recycling sweep.
#[derive(Clone, Debug)]
pub(crate) struct RecycleResult {
    /// Sweep points in lifetime order.
    pub(crate) points: Vec<RecyclePoint>,
}

const SPACE: &str = "10.1.0.0/24";
const SCAN_RATE: f64 = 0.5;
const SEEDS: usize = 4;

fn slow_worm() -> WormSpec {
    WormSpec { scan_rate: SCAN_RATE, ..WormSpec::code_red(SPACE.parse().expect("static prefix")) }
}

/// Runs the sweep over the given hard lifetimes.
///
/// # Panics
///
/// Panics if a fixed configuration fails to build (a bug).
#[must_use]
pub(crate) fn run(duration: SimTime, lifetimes: &[SimTime]) -> RecycleResult {
    let mut points = Vec::with_capacity(lifetimes.len());
    for &lifetime in lifetimes {
        let mut farm = FarmConfig::small_test();
        farm.gateway.policy = PolicyConfig::reflect();
        farm.gateway.policy.binding_idle_timeout = SimTime::from_secs(3_600);
        farm.gateway.policy.binding_max_lifetime = lifetime;
        farm.worm = Some(slow_worm());
        farm.frames_per_server = 2_000_000;
        farm.max_domains_per_server = 4_096;
        let quiet = RadiationConfig {
            telescope: SPACE.parse().expect("static prefix"),
            peak_source_rate: 0.0,
            ..RadiationConfig::default()
        };
        let base = TelescopeConfig::builder(farm, quiet)
            .duration(duration)
            .sample_interval(SimTime::from_secs(1))
            .tick_interval(SimTime::from_millis(500))
            .build()
            .expect("fixed outbreak config is valid");
        let config = ShardedTelescopeConfig::builder(base)
            .seed_infections(SEEDS)
            .build()
            .expect("fixed outbreak config is valid");
        let result = run_telescope_sharded(&config, 1).expect("outbreak runs");
        let model =
            SisModel::new(256, SEEDS as u64, SCAN_RATE, 256, lifetime).expect("valid model");
        points.push(RecyclePoint {
            lifetime,
            r0: model.si.beta() / model.gamma,
            final_infected: result.final_infected,
            predicted_equilibrium: model.endemic_equilibrium(),
            escapes: result.degradation.escaped,
        });
    }
    RecycleResult { points }
}

/// The default sweep: subcritical through saturating.
#[must_use]
pub(crate) fn default_lifetimes() -> Vec<SimTime> {
    vec![
        SimTime::from_secs(1),
        SimTime::from_secs(2),
        SimTime::from_secs(4),
        SimTime::from_secs(8),
        SimTime::from_secs(30),
        SimTime::from_secs(600),
    ]
}

/// Renders the sweep.
#[must_use]
pub(crate) fn table(result: &RecycleResult) -> Table {
    let mut t =
        Table::new(&["VM lifetime", "R0 = β/γ", "infected (sim)", "SIS equilibrium", "escapes"])
            .with_title("E9: VM recycling as an internal-containment knob (SIS threshold)");
    for p in &result.points {
        t.row_owned(vec![
            p.lifetime.to_string(),
            format!("{:.1}", p.r0),
            p.final_infected.to_string(),
            format!("{:.0}", p.predicted_equilibrium),
            p.escapes.to_string(),
        ]);
    }
    t
}

/// Runs the experiment at `figures` scale (shortened when `fast`), with
/// the containment claims: nothing escapes at any lifetime, and every
/// subcritical point (R0 < 1) dies out below its seeds.
#[must_use]
pub(crate) fn outcome(fast: bool) -> Outcome {
    let r = run(SimTime::from_secs(if fast { 30 } else { 90 }), &default_lifetimes());
    let mut subcritical = r.points.iter().filter(|p| p.r0 < 1.0).peekable();
    let dies_out = subcritical.peek().is_some() && subcritical.all(|p| p.final_infected < SEEDS);
    Outcome::default()
        .table(table(&r))
        .claim("no_escapes_at_any_lifetime", r.points.iter().all(|p| p.escapes == 0))
        .claim("subcritical_point_dies_out", dies_out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_behaviour_matches_sis() {
        let r = run(SimTime::from_secs(60), &default_lifetimes());
        let sub: Vec<&RecyclePoint> = r.points.iter().filter(|p| p.r0 < 1.0).collect();
        let sup: Vec<&RecyclePoint> = r.points.iter().filter(|p| p.r0 > 2.0).collect();
        assert!(!sub.is_empty() && !sup.is_empty());
        for p in sub {
            assert!(
                p.final_infected <= SEEDS,
                "subcritical (R0 {:.1}) must not grow: {}",
                p.r0,
                p.final_infected
            );
        }
        for p in &sup {
            assert!(
                p.final_infected > 20,
                "supercritical (R0 {:.1}) must grow: {}",
                p.r0,
                p.final_infected
            );
        }
        // Everything is contained regardless.
        for p in &r.points {
            assert_eq!(p.escapes, 0);
        }
        // Infection level increases with lifetime.
        let finals: Vec<usize> = r.points.iter().map(|p| p.final_infected).collect();
        assert!(finals.last().unwrap() > finals.first().unwrap());
    }

    #[test]
    fn table_renders() {
        let r = run(SimTime::from_secs(20), &[SimTime::from_secs(1), SimTime::from_secs(600)]);
        let s = table(&r).to_string();
        assert!(s.contains("SIS"));
        assert!(s.contains("R0"));
    }
}
