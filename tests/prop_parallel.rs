//! Property tests for the sharded parallel replay engine.
//!
//! The engine's core claim: for a fixed `(seed, cells, window)` the
//! worker-thread count is invisible — a parallel replay produces a
//! byte-identical merged [`DegradationReport`] and identical merged
//! counters, under arbitrary seeds, worker counts, cell counts, and fault
//! schedules. Containment must also survive sharding: no cross-cell fabric
//! path may leak a packet. A `quiet` sample is outbreak-shaped — no
//! radiation, the worm's scan space as the telescope, a seeded worm — the
//! run the in-farm containment experiments make.
//!
//! Each case replays a full telescope scenario per worker count, so the
//! case budget is kept small; the fixed unit tests in
//! `potemkin_core::parallel` cover the common configurations on every run.
//!
//! [`DegradationReport`]: potemkin::report::DegradationReport

use proptest::prelude::*;

use potemkin::farm::FarmConfig;
use potemkin::gateway::policy::PolicyConfig;
use potemkin::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin::scenario::TelescopeConfig;
use potemkin::sim::{EngineTuning, FaultPlanConfig, SimTime};
use potemkin::workload::radiation::RadiationConfig;
use potemkin::workload::worm::WormSpec;

const DURATION_SECS: u64 = 5;

#[derive(Clone, Copy, Debug)]
struct SampledRun {
    seed: u64,
    cells: usize,
    workers: usize,
    window_ms: u64,
    crash_rate: f64,
    clone_prob: f64,
    with_worm: bool,
    /// Load-aware worker rebalancing (digest-invariant by design).
    rebalance: bool,
    /// Adaptive window sizing (deterministic per configuration).
    adaptive: bool,
    /// Outbreak-shaped: zero radiation rate, worm on, telescope = worm
    /// space.
    quiet: bool,
}

fn arb_run() -> impl Strategy<Value = SampledRun> {
    (
        any::<u64>(),
        1usize..=4,
        2usize..=8,
        100u64..=1_000,
        prop_oneof![Just(0.0), 120.0..600.0f64],
        prop_oneof![Just(0.0), 0.01..0.3f64],
        any::<bool>(),
        (any::<bool>(), any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(
                seed,
                cells,
                workers,
                window_ms,
                crash_rate,
                clone_prob,
                with_worm,
                (rebalance, adaptive, quiet),
            )| {
                SampledRun {
                    seed,
                    cells,
                    workers,
                    window_ms,
                    crash_rate,
                    clone_prob,
                    with_worm,
                    rebalance,
                    adaptive,
                    quiet,
                }
            },
        )
}

fn config_for(s: SampledRun) -> ShardedTelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(5));
    farm.frames_per_server = 262_144;
    farm.seed = s.seed;
    farm.degradation_ladder = true;
    let mut seed_infections = 0;
    let space = "10.1.8.0/22".parse().unwrap();
    let mut radiation = RadiationConfig::default();
    if s.quiet {
        radiation = RadiationConfig { telescope: space, peak_source_rate: 0.0, ..radiation };
    }
    if s.with_worm || s.quiet {
        // A small worm space keeps the saturated VM population (and the
        // debug-mode event count) bounded per sampled case.
        farm.worm = Some(WormSpec::code_red(space));
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
    let base = TelescopeConfig::builder(farm, radiation)
        .seed(s.seed)
        .duration(duration)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("valid telescope config");
    let tuning = EngineTuning {
        rebalance: s.rebalance,
        adaptive: s.adaptive.then(|| {
            potemkin::sim::AdaptiveWindow::bounded(
                SimTime::from_millis(s.window_ms / 2),
                SimTime::from_millis(s.window_ms * 2),
            )
        }),
    };
    let mut builder = ShardedTelescopeConfig::builder(base)
        .cells(s.cells)
        .window(SimTime::from_millis(s.window_ms))
        .seed_infections(seed_infections)
        .tuning(tuning);
    if let Some(faults) = faults {
        builder = builder.faults(faults);
    }
    builder.build().expect("valid sharded config")
}

/// Everything a replay reports except wall-clock telemetry, rendered to
/// one comparable string.
fn digest(config: &ShardedTelescopeConfig, workers: usize) -> (String, u64) {
    let r = run_telescope_sharded(config, workers).expect("replay runs");
    (
        format!(
            "{}|live={}|in={}|cloned={}|recycled={}|forwarded={}|infected={}|remote={}|\
             series={:?}",
            r.degradation.canonical_string(),
            r.stats.live_vms,
            r.stats.counters.get("packets_in"),
            r.stats.vms_cloned,
            r.stats.vms_recycled,
            r.cross_cell_packets,
            r.final_infected,
            r.engine.remote_messages,
            r.live_vm_series.iter().collect::<Vec<_>>(),
        ),
        r.degradation.escaped,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The serial (one-worker) run and the sampled parallel run must
    /// produce byte-identical merged reports.
    #[test]
    fn parallel_replay_matches_serial_byte_for_byte(s in arb_run()) {
        let config = config_for(s);
        let (serial, _) = digest(&config, 1);
        let (parallel, _) = digest(&config, s.workers);
        prop_assert_eq!(serial, parallel);
    }

    /// Sharding must not open a containment hole: under reflection, no
    /// sampled fault schedule or worm may push the escape counter off
    /// zero, in serial or in parallel.
    #[test]
    fn sharded_containment_holds(s in arb_run()) {
        let config = config_for(s);
        let (_, escaped_serial) = digest(&config, 1);
        let (_, escaped_parallel) = digest(&config, s.workers);
        prop_assert_eq!(escaped_serial, 0, "serial run leaked");
        prop_assert_eq!(escaped_parallel, 0, "parallel run leaked");
    }
}
