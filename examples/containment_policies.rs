//! Containment policy comparison: the same worm outbreak under reflect,
//! drop-all, and allow-all, plus the fidelity race against a scripted
//! responder.
//!
//! ```text
//! cargo run --release --example containment_policies
//! ```

use potemkin::baseline::{race_high_interaction, LowInteractionResponder};
use potemkin::farm::FarmConfig;
use potemkin::gateway::policy::{ContainmentMode, PolicyConfig};
use potemkin::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin::scenario::TelescopeConfig;
use potemkin::sim::SimTime;
use potemkin::workload::radiation::RadiationConfig;
use potemkin::workload::worm::WormSpec;

fn outbreak(mode: ContainmentMode) -> (ContainmentMode, usize, u64, u64) {
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = match mode {
        ContainmentMode::Reflect => PolicyConfig::reflect(),
        ContainmentMode::DropAll => PolicyConfig::drop_all(),
        ContainmentMode::AllowAll => PolicyConfig::allow_all(),
    };
    farm.gateway.policy.binding_idle_timeout = SimTime::from_secs(600);
    let space = "10.1.0.0/24".parse().expect("valid");
    farm.worm = Some(WormSpec::code_red(space));
    farm.frames_per_server = 4_000_000;
    farm.max_domains_per_server = 4_096;
    // A one-cell run whose quiet telescope is the worm's scan space.
    let quiet = RadiationConfig { telescope: space, peak_source_rate: 0.0, ..Default::default() };
    let base = TelescopeConfig::builder(farm, quiet)
        .duration(SimTime::from_secs(30))
        .sample_interval(SimTime::from_secs(5))
        .tick_interval(SimTime::from_secs(10))
        .build()
        .expect("valid config");
    let config = ShardedTelescopeConfig::builder(base).seed_infections(1).build().expect("valid");
    let result = run_telescope_sharded(&config, 1).expect("outbreak runs");
    let probes = result.stats.counters.get("worm_probes");
    (mode, result.final_infected, result.degradation.escaped, probes)
}

fn main() {
    println!("== Containment policy comparison (30s Code-Red outbreak) ==\n");
    println!("{:<10} {:>10} {:>10} {:>12}", "policy", "infected", "escaped", "probes seen");
    for mode in [ContainmentMode::Reflect, ContainmentMode::DropAll, ContainmentMode::AllowAll] {
        let (m, infected, escaped, probes) = outbreak(mode);
        println!("{:<10} {:>10} {:>10} {:>12}", format!("{m:?}"), infected, escaped, probes);
    }
    println!(
        "\nReflection observes the full epidemic (fidelity) with zero escapes\n\
         (containment); drop-all is safe but blind; allow-all is dangerous.\n"
    );

    println!("== Fidelity: exploit capture vs. responder kind ==\n");
    let exploits = [
        WormSpec::slammer("10.1.0.0/16".parse().expect("valid")).script(),
        WormSpec::code_red("10.1.0.0/16".parse().expect("valid")).script(),
        WormSpec::blaster("10.1.0.0/16".parse().expect("valid")).script(),
    ];
    println!("{:<24} {:>6} {:>24} {:>24}", "exploit", "depth", "scripted (depth 2)", "Potemkin VM");
    for script in exploits {
        let mut low = LowInteractionResponder::new(2, vec![80, 135, 445, 1434]);
        let low_outcome = low.race(&script);
        let high_outcome = race_high_interaction(&script);
        println!(
            "{:<24} {:>6} {:>24} {:>24}",
            format!("{} (tcp/{})", script.name(), script.port()),
            script.depth(),
            if low_outcome.captured() { "captured" } else { "MISSED" },
            if high_outcome.captured() { "captured" } else { "MISSED" },
        );
    }
}
