//! Property tests for the federated multi-farm telescope.
//!
//! The federation tier's core claim extends the sharded engine's: for a
//! fixed `(seed, cells, window)` over a fixed total monitored range, the
//! *farm grouping* is invisible — running the same replay as one farm or
//! as N farms behind the BGP-style routing tier produces a byte-identical
//! merged report, under arbitrary seeds, farm counts, worker counts, and
//! fault schedules. Cross-farm worm reflection rides GRE through the tier
//! and must land exactly where the single-farm fabric would have put it.
//!
//! Each case replays a full federated scenario per layout, so the case
//! budget is kept small; the fixed unit tests in
//! `potemkin_core::federation` cover the common topologies on every run.

use proptest::prelude::*;

use potemkin::farm::FarmConfig;
use potemkin::federation::{
    run_telescope_federated, FederatedTelescopeConfig, FederatedTelescopeResult,
};
use potemkin::gateway::policy::PolicyConfig;
use potemkin::parallel::{run_telescope_sharded, CellMap, ShardedTelescopeConfig};
use potemkin::scenario::TelescopeConfig;
use potemkin::sim::{FaultPlanConfig, SimTime};
use potemkin::workload::radiation::RadiationConfig;
use potemkin::workload::worm::WormSpec;

const DURATION_SECS: u64 = 3;

#[derive(Clone, Copy, Debug)]
struct SampledRun {
    seed: u64,
    /// Farm count for the federated layout (the reference is 1 farm).
    farms: usize,
    /// Global cell count, fixed across the compared layouts.
    cells: usize,
    workers: usize,
    window_ms: u64,
    crash_rate: f64,
    clone_prob: f64,
    with_worm: bool,
}

fn arb_run() -> impl Strategy<Value = SampledRun> {
    (
        any::<u64>(),
        // Power-of-two farm exponents 1..=3 (2..8 farms) and cell
        // exponents at or above them (farms <= cells <= 8).
        1u32..=3,
        0u32..=1,
        2usize..=6,
        100u64..=1_000,
        prop_oneof![Just(0.0), 120.0..600.0f64],
        prop_oneof![Just(0.0), 0.01..0.3f64],
        any::<bool>(),
    )
        .prop_map(
            |(
                seed,
                farm_exp,
                extra_cell_exp,
                workers,
                window_ms,
                crash_rate,
                clone_prob,
                with_worm,
            )| {
                SampledRun {
                    seed,
                    farms: 1 << farm_exp,
                    cells: 1 << (farm_exp + extra_cell_exp),
                    workers,
                    window_ms,
                    crash_rate,
                    clone_prob,
                    with_worm,
                }
            },
        )
}

fn config_for(s: SampledRun, farms: usize) -> FederatedTelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(5));
    farm.frames_per_server = 262_144;
    farm.seed = s.seed;
    farm.degradation_ladder = true;
    let mut seed_infections = 0;
    if s.with_worm {
        // The worm targets the whole monitored /16 so reflected probes
        // cross every sampled farm boundary (smaller aligned prefixes sit
        // entirely inside one farm's aggregate at low farm counts).
        farm.worm = Some(WormSpec::code_red("10.1.0.0/16".parse().unwrap()));
        seed_infections = 1;
        // Patient zero must place even when the sampled fault plan injects
        // clone failures: standby binds are pre-cloned fault-free.
        farm.standby_per_host = 1;
    }
    let duration = SimTime::from_secs(DURATION_SECS);
    let faults = (s.crash_rate > 0.0 || s.clone_prob > 0.0).then(|| FaultPlanConfig {
        seed: s.seed.wrapping_add(1),
        host_crash_rate_per_hour: s.crash_rate,
        clone_failure_prob: s.clone_prob,
        host_recovery_time: SimTime::from_secs(2),
        ..FaultPlanConfig::zero(duration, farm.servers)
    });
    let base = TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(s.seed)
        .duration(duration)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("valid telescope config");
    let mut builder = FederatedTelescopeConfig::builder(base)
        .farms(farms)
        .cells(s.cells)
        .window(SimTime::from_millis(s.window_ms))
        .seed_infections(seed_infections);
    if let Some(faults) = faults {
        builder = builder.faults(faults);
    }
    builder.build().expect("valid federated config")
}

/// The plain sharded replay a one-farm federation *is*: the same scenario
/// over the same sliced cells, built without any federation type.
fn sliced_config(fed: &FederatedTelescopeConfig) -> ShardedTelescopeConfig {
    let mut builder = ShardedTelescopeConfig::builder(fed.base.clone())
        .cells(fed.cells)
        .cell_map(CellMap::Sliced)
        .window(fed.window)
        .seed_infections(fed.seed_infections);
    if let Some(faults) = fed.faults {
        builder = builder.faults(faults);
    }
    builder.build().expect("valid sliced config")
}

fn run(config: &FederatedTelescopeConfig, workers: usize) -> FederatedTelescopeResult {
    run_telescope_federated(config, workers).expect("federated replay runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A federated replay (N farms behind the routing tier, sampled worker
    /// count) must produce a merged report byte-identical to the
    /// single-farm serial reference over the same total range — which in
    /// turn is the plain sliced sharded replay, no federation involved.
    #[test]
    fn federated_replay_matches_single_farm_byte_for_byte(s in arb_run()) {
        let reference = config_for(s, 1);
        let federated = config_for(s, s.farms);
        let single = run(&reference, 1);
        let multi = run(&federated, s.workers);
        prop_assert_eq!(single.merged.divergence(&multi.merged), None);
        let plain = run_telescope_sharded(&sliced_config(&reference), s.workers)
            .expect("sliced replay runs");
        prop_assert!(plain.federation.is_none());
        prop_assert_eq!(single.merged.divergence(&plain), None);
    }

    /// The routing tier must not open a containment hole: under
    /// reflection, no sampled fault schedule or cross-farm worm may push
    /// the escape counter off zero, in the single-farm reference or the
    /// federated layout.
    #[test]
    fn federated_containment_holds(s in arb_run()) {
        let single = run(&config_for(s, 1), 1);
        let multi = run(&config_for(s, s.farms), s.workers);
        prop_assert_eq!(single.merged.degradation.escaped, 0, "single-farm run leaked");
        prop_assert_eq!(multi.merged.degradation.escaped, 0, "federated run leaked");
    }
}
