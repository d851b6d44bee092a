//! Cross-crate containment invariants: for every worm preset and every
//! containment-relevant configuration, reflection keeps attack traffic
//! inside the farm.

use potemkin::farm::{FarmConfig, FarmOutput, Honeyfarm};
use potemkin::gateway::policy::PolicyConfig;
use potemkin::net::addr::Ipv4Prefix;
use potemkin::net::dns::{DnsMessage, DNS_PORT};
use potemkin::net::{PacketBuilder, PacketPayload};
use potemkin::sim::SimTime;
use potemkin::vmm::guest::GuestProfile;
use potemkin::workload::worm::WormSpec;
use std::net::Ipv4Addr;

fn space() -> Ipv4Prefix {
    "10.1.0.0/16".parse().unwrap()
}

fn farm_with_worm(worm: WormSpec) -> Honeyfarm {
    let mut cfg = FarmConfig::small_test();
    cfg.profile = GuestProfile::windows_server(); // listens on all preset ports
    cfg.frames_per_server = 4_000_000;
    cfg.max_domains_per_server = 4_096;
    cfg.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(600));
    cfg.worm = Some(worm);
    Honeyfarm::new(cfg).unwrap()
}

#[test]
fn no_worm_preset_escapes_under_reflection() {
    for worm in
        [WormSpec::slammer(space()), WormSpec::code_red(space()), WormSpec::blaster(space())]
    {
        let name = worm.name;
        let mut farm = farm_with_worm(worm);
        let vm0 = farm.materialize(SimTime::ZERO, Ipv4Addr::new(10, 1, 0, 1)).unwrap();
        farm.seed_infection(vm0).unwrap();
        for i in 0..300u64 {
            farm.worm_probe(SimTime::from_millis(i * 10), vm0, i);
        }
        assert_eq!(
            farm.gateway().counters().get("escaped"),
            0,
            "{name}: probes escaped under reflection"
        );
        let external: Vec<FarmOutput> = farm
            .take_outputs()
            .into_iter()
            .filter(|o| matches!(o, FarmOutput::SentExternal(_)))
            .collect();
        assert!(external.is_empty(), "{name}: {} packets left the farm", external.len());
        assert!(
            farm.infected_vms() > 1,
            "{name}: worm failed to spread internally ({} infected)",
            farm.infected_vms()
        );
    }
}

#[test]
fn blaster_subnet_preference_spreads_fast_in_farm() {
    // Blaster prefers its own /16 — which is exactly the telescope, so
    // in-farm spread is rapid.
    let mut farm = farm_with_worm(WormSpec::blaster(space()));
    let vm0 = farm.materialize(SimTime::ZERO, Ipv4Addr::new(10, 1, 0, 1)).unwrap();
    farm.seed_infection(vm0).unwrap();
    let mut infected_history = vec![1usize];
    for i in 0..200u64 {
        farm.worm_probe(SimTime::from_millis(i * 50), vm0, i);
        infected_history.push(farm.infected_vms());
    }
    let last = *infected_history.last().unwrap();
    assert!(last >= 2, "blaster spread: {last}");
}

#[test]
fn dns_resolution_leads_to_sinkhole_honeypot_not_internet() {
    let mut farm = farm_with_worm(WormSpec::code_red(space()));
    let bot_addr = Ipv4Addr::new(10, 1, 0, 1);
    let vm0 = farm.materialize(SimTime::ZERO, bot_addr).unwrap();
    farm.seed_infection(vm0).unwrap();

    // The bot resolves its C&C host.
    let query = DnsMessage::query_a(77, "cc.botnet.example").build().unwrap();
    let qpkt = PacketBuilder::new(bot_addr, Ipv4Addr::new(8, 8, 8, 8)).udp(5353, DNS_PORT, &query);
    assert!(farm.emit_from_vm(SimTime::ZERO, vm0, qpkt));

    // The gateway answered from the sinkhole; nothing reached 8.8.8.8.
    let outputs = farm.take_outputs();
    assert!(
        !outputs.iter().any(
            |o| matches!(o, FarmOutput::SentExternal(p) if p.dst() == Ipv4Addr::new(8, 8, 8, 8))
        ),
        "DNS query must not escape"
    );

    // The DNS reply was delivered back into the VM and consumed by the
    // guest's resolver.
    assert_eq!(farm.gateway().counters().get("dns_answered"), 1);
    assert_eq!(farm.counters().get("dns_responses_consumed"), 1);

    // Bot connects to the resolved address: the connection must reflect to
    // a honeypot impersonating the C&C, never leave.
    let c2_addr = {
        // Find the sinkhole address via the proxy's reverse map.
        let dns = farm.gateway().dns();
        let prefix: Ipv4Prefix = "172.20.0.0/16".parse().unwrap();
        prefix
            .iter()
            .find(|&addr| dns.name_for(addr) == Some("cc.botnet.example"))
            .expect("resolved name must map to a sinkhole address")
    };
    let connect = PacketBuilder::new(bot_addr, c2_addr).tcp_syn(2_000, 6667);
    farm.emit_from_vm(SimTime::from_millis(1), vm0, connect);
    assert!(farm.gateway().counters().get("reflected_sinkhole") >= 1);
    assert_eq!(farm.gateway().counters().get("escaped"), 0);
    // A honeypot now impersonates the C&C server.
    assert!(farm.live_vms() >= 2);
}

#[test]
fn aggressive_recycling_extinguishes_the_internal_epidemic() {
    // The SIS prediction (workload::epidemic::SisModel): the farm's internal
    // epidemic dies out when the recycle rate γ exceeds the growth rate β.
    // Worm: 0.5 probes/s over a /24 (β ≈ 0.5/s). Hard VM lifetime 1 s
    // (γ = 1/s) → subcritical → extinction. Lifetime 600 s → supercritical
    // → saturation. Each outbreak is a one-cell run on the worm's quiet /24.
    use potemkin::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
    use potemkin::scenario::TelescopeConfig;
    use potemkin::workload::radiation::RadiationConfig;

    let run_with_lifetime = |lifetime: SimTime| {
        let mut farm = FarmConfig::small_test();
        farm.gateway.policy = PolicyConfig::reflect();
        farm.gateway.policy.binding_idle_timeout = SimTime::from_secs(3_600);
        farm.gateway.policy.binding_max_lifetime = lifetime;
        farm.worm =
            Some(WormSpec { scan_rate: 0.5, ..WormSpec::code_red("10.1.0.0/24".parse().unwrap()) });
        farm.frames_per_server = 2_000_000;
        farm.max_domains_per_server = 4_096;
        let quiet = RadiationConfig {
            telescope: "10.1.0.0/24".parse().unwrap(),
            peak_source_rate: 0.0,
            ..RadiationConfig::default()
        };
        let base = TelescopeConfig::builder(farm, quiet)
            .duration(SimTime::from_secs(60))
            .sample_interval(SimTime::from_secs(1))
            .tick_interval(SimTime::from_millis(500))
            .build()
            .expect("valid config");
        let config =
            ShardedTelescopeConfig::builder(base).seed_infections(4).build().expect("valid config");
        run_telescope_sharded(&config, 1).expect("outbreak runs")
    };

    let subcritical = run_with_lifetime(SimTime::from_secs(1));
    assert!(
        subcritical.final_infected <= 2,
        "subcritical epidemic must die out: {} infected",
        subcritical.final_infected
    );
    assert_eq!(subcritical.degradation.escaped, 0);

    let supercritical = run_with_lifetime(SimTime::from_secs(600));
    assert!(
        supercritical.final_infected > 100,
        "supercritical epidemic must spread: {} infected",
        supercritical.final_infected
    );
    assert_eq!(supercritical.degradation.escaped, 0);
}

#[test]
fn per_source_quota_limits_scanner_resource_consumption() {
    let mut cfg = FarmConfig::small_test();
    cfg.gateway.policy.per_source_vm_limit = Some(5);
    cfg.frames_per_server = 2_000_000;
    cfg.max_domains_per_server = 4_096;
    let mut farm = Honeyfarm::new(cfg).unwrap();
    let scanner = Ipv4Addr::new(198, 51, 100, 66);
    for i in 0..50u32 {
        let dst = Ipv4Addr::from(0x0A01_0100 + i);
        farm.inject_external(SimTime::ZERO, PacketBuilder::new(scanner, dst).tcp_syn(1, 445));
    }
    assert_eq!(farm.live_vms(), 5, "quota caps one scanner at 5 VMs");
    // An unrelated source is unaffected.
    let other = Ipv4Addr::new(198, 51, 100, 67);
    farm.inject_external(
        SimTime::ZERO,
        PacketBuilder::new(other, Ipv4Addr::new(10, 1, 2, 200)).tcp_syn(1, 445),
    );
    assert_eq!(farm.live_vms(), 6);
}

#[test]
fn rate_limited_worm_still_contained_but_slower() {
    let mut cfg = FarmConfig::small_test();
    cfg.profile = GuestProfile::windows_server();
    cfg.frames_per_server = 4_000_000;
    cfg.max_domains_per_server = 4_096;
    cfg.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(600));
    cfg.gateway.policy.outbound_pps_limit = Some(2.0);
    cfg.gateway.policy.outbound_burst = 2.0;
    cfg.worm = Some(WormSpec::slammer(space()));
    let mut farm = Honeyfarm::new(cfg).unwrap();
    let vm0 = farm.materialize(SimTime::ZERO, Ipv4Addr::new(10, 1, 0, 1)).unwrap();
    farm.seed_infection(vm0).unwrap();
    // 100 probes in one simulated second: only the burst + refill survive.
    for i in 0..100u64 {
        farm.worm_probe(SimTime::from_millis(i * 10), vm0, i);
    }
    let dropped = farm.gateway().counters().get("dropped_rate_limited");
    let reflected = farm.gateway().counters().get("reflected");
    assert!(dropped > 80, "dropped: {dropped}");
    assert!(reflected <= 5, "reflected: {reflected}");
    assert_eq!(farm.gateway().counters().get("escaped"), 0);
}

#[test]
fn udp_probe_to_closed_port_gets_unreachable_back() {
    // Fidelity detail: a real stack answers closed UDP ports with ICMP.
    let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
    let probe = PacketBuilder::new(Ipv4Addr::new(6, 6, 6, 6), Ipv4Addr::new(10, 1, 0, 3)).udp(
        9_000,
        9_999,
        b"anyone-there",
    );
    farm.inject_external(SimTime::ZERO, probe);
    let unreachable = farm
        .take_outputs()
        .into_iter()
        .find_map(|o| match o {
            FarmOutput::SentExternal(p) => match p.payload() {
                PacketPayload::Icmp(potemkin::net::icmp::IcmpMessage::DestUnreachable {
                    code,
                    ..
                }) => Some(code),
                _ => None,
            },
            _ => None,
        })
        .expect("ICMP unreachable expected");
    assert_eq!(unreachable, potemkin::net::icmp::IcmpMessage::CODE_PORT_UNREACHABLE);
}
