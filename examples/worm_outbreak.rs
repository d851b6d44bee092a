//! Worm outbreak under reflection containment.
//!
//! Seeds a Code-Red-like worm in one honeypot and lets the reflection policy
//! turn its outbound scans back into the farm: the epidemic unfolds entirely
//! among honeypots, at full fidelity, with zero packets escaping.
//!
//! ```text
//! cargo run --example worm_outbreak
//! ```

use potemkin::farm::FarmConfig;
use potemkin::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin::scenario::TelescopeConfig;
use potemkin::sim::SimTime;
use potemkin::workload::epidemic::SiModel;
use potemkin::workload::radiation::RadiationConfig;
use potemkin::workload::worm::WormSpec;

fn main() {
    let space = "10.1.0.0/24".parse().expect("valid prefix");
    let worm = WormSpec::code_red(space);
    println!("== Worm outbreak in the farm ==");
    println!(
        "worm: {} ({} probes/s, tcp/{}, exploit depth {})\n",
        worm.name, worm.scan_rate, worm.port, worm.exploit_depth
    );

    let mut farm = FarmConfig::small_test();
    farm.worm = Some(worm.clone());
    farm.gateway.policy.binding_idle_timeout = SimTime::from_secs(600);
    farm.frames_per_server = 4_000_000;
    farm.max_domains_per_server = 4_096;

    // The outbreak is a one-cell run whose telescope is the worm's scan
    // space, with no background radiation.
    let quiet = RadiationConfig { telescope: space, peak_source_rate: 0.0, ..Default::default() };
    let base = TelescopeConfig::builder(farm, quiet)
        .duration(SimTime::from_secs(40))
        .sample_interval(SimTime::from_secs(2))
        .tick_interval(SimTime::from_secs(10))
        .build()
        .expect("valid config");
    let config = ShardedTelescopeConfig::builder(base).seed_infections(1).build().expect("valid");
    let result = run_telescope_sharded(&config, 1).expect("outbreak runs");

    let analytic = SiModel::new(256, 1, worm.scan_rate, 256).expect("valid model");
    println!("t(s)  infected(sim)  infected(SI model)");
    for (at, v) in result.infected_series.iter() {
        println!("{:>4}  {:>13.0}  {:>18.1}", at.as_secs(), v, analytic.infected_at(at));
    }

    println!("\nfinal infected honeypots: {}", result.final_infected);
    println!("worm probes observed:     {}", result.stats.counters.get("worm_probes"));
    println!("packets escaped:          {}  <- containment", result.degradation.escaped);
    println!("live VMs at the end:      {}", result.stats.live_vms);
    println!(
        "marginal memory per VM:   {:.2} MiB (delta virtualization)",
        result.stats.marginal_frames_per_vm() * 4.0 / 1024.0
    );
}
