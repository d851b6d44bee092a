//! Telescope replay: drive the farm with synthetic /16 background
//! radiation and watch late binding + recycling keep the VM population
//! small.
//!
//! ```text
//! cargo run --release --example telescope_replay
//! ```

use potemkin::farm::FarmConfig;
use potemkin::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin::scenario::TelescopeConfig;
use potemkin::sim::SimTime;
use potemkin::workload::radiation::RadiationConfig;

fn main() {
    let duration = SimTime::from_secs(180);
    let mut farm = FarmConfig::small_test();
    farm.frames_per_server = 1_500_000;
    farm.max_domains_per_server = 4_096;
    farm.gateway.policy.binding_idle_timeout = SimTime::from_secs(30);

    println!("== Telescope replay ==");
    println!("replaying {duration} of synthetic /16 radiation, VM recycle after 30s idle...\n");

    let base = TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(2005)
        .duration(duration)
        .sample_interval(SimTime::from_secs(10))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("valid config");
    // One cell on one worker: the plain replay.
    let config = ShardedTelescopeConfig::builder(base).build().expect("valid config");
    let result = run_telescope_sharded(&config, 1).expect("replay runs");

    println!("packets replayed:           {}", result.packets);
    println!("distinct scan sources:      {}", result.distinct_sources);
    println!("telescope addresses hit:    {}", result.distinct_destinations);
    println!(
        "VMs cloned / recycled:      {} / {}",
        result.stats.vms_cloned, result.stats.vms_recycled
    );
    println!("peak simultaneous VMs:      {:.0}", result.peak_live_vms);
    println!(
        "clone latency p50 / p99:    {} / {}",
        result.stats.clone_latency_p50, result.stats.clone_latency_p99
    );
    println!("pings answered at gateway:  {}", result.stats.counters.get("gateway_pings_answered"));

    println!("\nlive VMs over time:");
    for (at, v) in result.live_vm_series.iter() {
        let bar = "#".repeat(v as usize);
        println!("{:>4}s {:>4.0} {bar}", at.as_secs(), v);
    }
    println!(
        "\nThe farm impersonated {} addresses with at most {:.0} VMs — the paper's\nlate-binding scalability argument in action.",
        result.distinct_destinations, result.peak_live_vms
    );
}
