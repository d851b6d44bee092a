//! Cross-crate tests of the farm's resource-management machinery: binding
//! lifetime caps, granularity, flow-table bounds under floods, and the
//! standby/rollback recycling loop under sustained load.

use potemkin::farm::{FarmConfig, Honeyfarm, RecycleStrategy};
use potemkin::gateway::binding::BindGranularity;
use potemkin::gateway::policy::PolicyConfig;
use potemkin::net::PacketBuilder;
use potemkin::sim::SimTime;
use potemkin::workload::radiation::{RadiationConfig, RadiationModel};
use std::net::Ipv4Addr;
use std::num::NonZeroUsize;

const SCANNER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 1);
const SCANNER2: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 2);
const HP: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 42);

fn syn(src: Ipv4Addr, dst: Ipv4Addr) -> potemkin::net::Packet {
    PacketBuilder::new(src, dst).tcp_syn(40_000, 445)
}

#[test]
fn hard_lifetime_cap_recycles_a_chatty_binding() {
    let mut cfg = FarmConfig::small_test();
    cfg.gateway.policy.binding_idle_timeout = SimTime::from_secs(30);
    cfg.gateway.policy.binding_max_lifetime = SimTime::from_secs(120);
    let mut farm = Honeyfarm::new(cfg).unwrap();

    // Keep the binding active every 10 s — idle never triggers.
    farm.inject_external(SimTime::ZERO, syn(SCANNER, HP));
    let mut recycled_at = None;
    for s in (10..360).step_by(10) {
        let now = SimTime::from_secs(s);
        farm.tick(now);
        if farm.live_vms() == 0 {
            recycled_at = Some(s);
            break;
        }
        farm.inject_external(now, syn(SCANNER, HP));
    }
    let at = recycled_at.expect("hard cap must fire despite constant activity");
    assert!((120..=180).contains(&at), "recycled at {at}s");
    // The next packet gets a *fresh* VM (pristine state).
    farm.inject_external(SimTime::from_secs(400), syn(SCANNER, HP));
    assert_eq!(farm.live_vms(), 1);
    assert!(farm.stats().vms_cloned >= 2);
}

#[test]
fn per_source_destination_granularity_isolates_attackers_end_to_end() {
    let mut cfg = FarmConfig::small_test();
    cfg.gateway.granularity = BindGranularity::PerSourceDestination;
    cfg.frames_per_server = 200_000;
    let mut farm = Honeyfarm::new(cfg).unwrap();

    // Two scanners probe the same address: two separate VMs.
    farm.inject_external(SimTime::ZERO, syn(SCANNER, HP));
    farm.inject_external(SimTime::ZERO, syn(SCANNER2, HP));
    assert_eq!(farm.live_vms(), 2, "per-(src,dst): one VM per attacker");

    // Under the default granularity they share one VM.
    let mut farm2 = Honeyfarm::new(FarmConfig::small_test()).unwrap();
    farm2.inject_external(SimTime::ZERO, syn(SCANNER, HP));
    farm2.inject_external(SimTime::ZERO, syn(SCANNER2, HP));
    assert_eq!(farm2.live_vms(), 1, "per-dst: attackers share the address's VM");
}

#[test]
fn flow_table_bound_survives_a_scan_flood() {
    let mut cfg = FarmConfig::small_test();
    cfg.gateway.policy.max_flows = NonZeroUsize::new(500);
    cfg.gateway.policy.per_source_vm_limit = Some(4); // don't spend VMs on the flood
    cfg.frames_per_server = 200_000;
    let mut farm = Honeyfarm::new(cfg).unwrap();

    // One source floods 5 000 one-packet flows.
    for i in 0..5_000u32 {
        let dst = Ipv4Addr::from(0x0A01_0000 + (i % 8_192));
        let p = PacketBuilder::new(SCANNER, dst).tcp_syn((i % 60_000) as u16, 445);
        farm.inject_external(SimTime::from_millis(u64::from(i)), p);
    }
    assert!(
        farm.gateway().live_flows() <= 500,
        "flow table bounded: {}",
        farm.gateway().live_flows()
    );
    assert_eq!(farm.live_vms(), 4, "quota held");
}

#[test]
fn rollback_recycling_sustains_load_without_leaking() {
    let mut cfg = FarmConfig::small_test();
    cfg.recycle = RecycleStrategy::RollbackToPool;
    cfg.standby_per_host = 4;
    cfg.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(5));
    cfg.frames_per_server = 2_000_000;
    cfg.max_domains_per_server = 8_192;
    let mut farm = Honeyfarm::new(cfg).unwrap();
    let baseline = farm.hosts()[0].memory_report().used_frames;

    let mut model = RadiationModel::new(RadiationConfig::default(), 321);
    let trace = model.generate(SimTime::from_secs(90));
    let mut last_tick = SimTime::ZERO;
    for event in trace.events() {
        farm.inject_external(event.at, event.packet.clone());
        if event.at.saturating_sub(last_tick) >= SimTime::from_secs(1) {
            farm.tick(event.at);
            last_tick = event.at;
        }
    }
    let stats = farm.stats();
    assert!(
        stats.counters.get("vms_rolled_back") > 20,
        "rollbacks: {}",
        stats.counters.get("vms_rolled_back")
    );
    assert!(stats.counters.get("standby_hits") > stats.vms_cloned / 2, "pool serves most contacts");

    // Everything comes back after the load stops: only standby overhead
    // remains (pool domains keep their fixed overhead pages).
    farm.tick(SimTime::from_secs(600));
    assert_eq!(farm.live_vms(), 0);
    let after = farm.hosts()[0].memory_report();
    let overhead = farm.config().overhead_pages;
    let pool = farm.standby_vms() as u64;
    assert_eq!(
        after.used_frames,
        baseline + (pool.saturating_sub(4)) * overhead,
        "frames accounted: pool grew from 4 to {pool}"
    );
    assert_eq!(after.private_frames, pool * overhead);
}

#[test]
fn multi_server_pool_exhaustion_falls_back_to_cloning() {
    let mut cfg = FarmConfig::small_test();
    cfg.servers = 2;
    cfg.standby_per_host = 1;
    cfg.frames_per_server = 200_000;
    let mut farm = Honeyfarm::new(cfg).unwrap();
    assert_eq!(farm.standby_vms(), 2);
    for i in 1..=4u8 {
        farm.inject_external(SimTime::ZERO, syn(SCANNER, Ipv4Addr::new(10, 1, 0, i)));
    }
    assert_eq!(farm.live_vms(), 4);
    assert_eq!(farm.standby_vms(), 0);
    assert_eq!(farm.counters().get("standby_hits"), 2, "two pool hits, two cold clones");
    let domains: usize = farm.hosts().iter().map(|h| h.domains().count()).sum();
    assert_eq!(domains, 4, "2 pool fills + 2 on-demand");
}
