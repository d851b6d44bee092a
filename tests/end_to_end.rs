//! Cross-crate integration: the full packet walk from a GRE-tunneled
//! telescope frame to a honeypot's answer, plus long-run conservation
//! invariants.

use potemkin::farm::{FarmConfig, FarmOutput, Honeyfarm};
use potemkin::gateway::tunnel::{Telescope, TunnelEndpoint};
use potemkin::net::gre::GreHeader;
use potemkin::net::tcp::TcpFlags;
use potemkin::net::{Packet, PacketBuilder};
use potemkin::sim::SimTime;
use potemkin::workload::radiation::{RadiationConfig, RadiationModel};
use std::net::Ipv4Addr;

const ATTACKER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 9);

#[test]
fn gre_tunnel_to_honeypot_and_back() {
    // Telescope side: encapsulate a probe exactly as a remote router would.
    let mut tunnel = TunnelEndpoint::new();
    tunnel.attach(Telescope { key: 7, prefix: "10.1.0.0/16".parse().unwrap() }).unwrap();
    let inner = PacketBuilder::new(ATTACKER, Ipv4Addr::new(10, 1, 9, 9)).tcp_syn(50_000, 445);
    let frame = GreHeader::encapsulate_ipv4(7, inner.wire());

    // Gateway side: decapsulate, inject, collect the answer.
    let (key, packet) = tunnel.decapsulate(&frame).expect("valid GRE frame");
    assert_eq!(key, 7);
    let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
    farm.inject_external(SimTime::ZERO, packet);

    let reply: Packet = farm
        .take_outputs()
        .into_iter()
        .find_map(|o| match o {
            FarmOutput::SentExternal(p) => Some(p),
            _ => None,
        })
        .expect("honeypot answered");
    assert_eq!(reply.tcp_flags().unwrap(), TcpFlags::SYN_ACK);

    // The reply is routed back down the tunnel that owns... the *source*
    // address is the telescope address; the destination (the attacker) is
    // not tunneled, so the reply egresses natively.
    assert!(tunnel.encapsulate_reply(&reply).is_none());

    // Traffic *to* a telescope address does get tunneled.
    let to_telescope = PacketBuilder::new(ATTACKER, Ipv4Addr::new(10, 1, 3, 3)).tcp_syn(1, 2);
    let wrapped = tunnel.encapsulate_reply(&to_telescope).expect("owned prefix");
    let (k2, p2) = tunnel.decapsulate(&wrapped).expect("roundtrip");
    assert_eq!(k2, 7);
    assert_eq!(p2, to_telescope);
}

#[test]
fn full_handshake_and_data_exchange_with_honeypot() {
    let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
    let hp = Ipv4Addr::new(10, 1, 0, 50);
    let t = SimTime::ZERO;

    // SYN -> SYN-ACK.
    farm.inject_external(t, PacketBuilder::new(ATTACKER, hp).tcp_syn(50_000, 80));
    let synack = farm
        .take_outputs()
        .into_iter()
        .find_map(|o| match o {
            FarmOutput::SentExternal(p) if p.tcp_flags().is_some_and(|f| f.syn && f.ack) => Some(p),
            _ => None,
        })
        .expect("SYN-ACK");

    // Data request -> service banner response.
    let request = PacketBuilder::new(ATTACKER, hp).tcp_segment(
        50_000,
        80,
        TcpFlags::PSH_ACK,
        1,
        synack.flow_key().transport.src_port().map_or(0, |_| 1),
        b"GET / HTTP/1.0\r\n\r\n",
    );
    farm.inject_external(SimTime::from_millis(10), request);
    let response = farm
        .take_outputs()
        .into_iter()
        .find_map(|o| match o {
            FarmOutput::SentExternal(p) if !p.app_payload().is_empty() => Some(p),
            _ => None,
        })
        .expect("service data response");
    assert_eq!(response.dst(), ATTACKER);
    assert_eq!(response.app_payload(), b"220 service ready");

    // Guest dirtied pages while serving: delta virtualization at work.
    let report = farm.hosts()[0].memory_report();
    assert!(report.private_frames > 64, "private frames: {}", report.private_frames);
}

#[test]
fn long_run_conserves_frames_exactly() {
    let mut cfg = FarmConfig::small_test();
    cfg.gateway.policy.binding_idle_timeout = SimTime::from_secs(5);
    cfg.frames_per_server = 2_000_000;
    cfg.max_domains_per_server = 8_192;
    let mut farm = Honeyfarm::new(cfg).unwrap();
    let baseline = farm.hosts()[0].memory_report().used_frames;

    // Replay 2 minutes of radiation with aggressive 5s recycling.
    let mut model = RadiationModel::new(RadiationConfig::default(), 99);
    let trace = model.generate(SimTime::from_secs(120));
    assert!(trace.len() > 100);
    let mut last_tick = SimTime::ZERO;
    for event in trace.events() {
        farm.inject_external(event.at, event.packet.clone());
        if event.at.saturating_sub(last_tick) >= SimTime::from_secs(1) {
            farm.tick(event.at);
            last_tick = event.at;
        }
    }
    let cloned = farm.stats().vms_cloned;
    assert!(cloned > 20, "clones: {cloned}");

    // Drain everything and verify exact frame conservation.
    farm.tick(SimTime::from_secs(600));
    assert_eq!(farm.live_vms(), 0);
    let after = farm.hosts()[0].memory_report();
    assert_eq!(after.used_frames, baseline, "frame leak after {cloned} clone/destroy cycles");
    assert_eq!(after.private_frames, 0);
}

#[test]
fn farm_counters_are_consistent() {
    let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
    for i in 1..=20u8 {
        let p = PacketBuilder::new(ATTACKER, Ipv4Addr::new(10, 1, 1, i)).tcp_syn(1000, 445);
        farm.inject_external(SimTime::ZERO, p);
    }
    let stats = farm.stats();
    assert_eq!(stats.vms_cloned, 20);
    assert_eq!(stats.live_vms, 20);
    // Every first contact is seen twice by the gateway (original + re-offer
    // after cloning).
    assert_eq!(stats.counters.get("packets_in"), 40);
    assert_eq!(stats.counters.get("clone_requests"), 20);
    assert_eq!(stats.counters.get("delivered"), 20);
    assert_eq!(stats.counters.get("bindings_created"), 20);
    // Each guest answered once.
    assert_eq!(stats.counters.get("replies_forwarded"), 20);
    assert_eq!(stats.counters.get("sent_external"), 20);
}

#[test]
fn paper_scale_farm_serves_a_telescope_under_pressure() {
    // The paper's deployment shape: 2 GiB servers, 128 MiB Windows images,
    // the Xen-era 116-domain limit, rollback recycling with standby pools,
    // evict-oldest under pressure.
    let mut cfg = potemkin::farm::FarmConfig::paper_scale(2);
    cfg.gateway.policy.binding_idle_timeout = SimTime::from_secs(20);
    let mut farm = Honeyfarm::new(cfg).unwrap();
    assert_eq!(farm.standby_vms(), 16, "8 standby per server");

    let mut model = RadiationModel::new(RadiationConfig::default(), 515);
    let trace = model.generate(SimTime::from_secs(120));
    let mut last_tick = SimTime::ZERO;
    for event in trace.events() {
        farm.inject_external(event.at, event.packet.clone());
        if event.at.saturating_sub(last_tick) >= SimTime::from_secs(1) {
            farm.tick(event.at);
            last_tick = event.at;
        }
    }
    let stats = farm.stats();
    // The domain cap holds on every server (standby + bound).
    for host in farm.hosts() {
        assert!(host.live_domains() <= 116, "domain cap violated: {}", host.live_domains());
        let report = host.memory_report();
        assert!(report.free_frames > 0, "memory exhausted");
    }
    // Under pressure the farm replaced old bindings rather than going deaf.
    assert!(stats.vms_cloned > 100, "clones: {}", stats.vms_cloned);
    assert!(
        stats.counters.get("evicted_for_pressure") > 0,
        "2 min of /16 radiation against 232 domains must create pressure"
    );
    assert_eq!(stats.counters.get("dropped_no_capacity"), 0, "eviction kept serving");
    assert!(stats.counters.get("standby_hits") > 0);
    // Marginal memory stays in the paper's few-MiB band.
    let marginal_mib = stats.marginal_frames_per_vm() * 4.0 / 1024.0;
    assert!(marginal_mib < 16.0, "marginal {marginal_mib} MiB");
}

#[test]
fn deterministic_across_identical_runs() {
    let run = || {
        let mut cfg = FarmConfig::small_test();
        cfg.frames_per_server = 2_000_000;
        cfg.max_domains_per_server = 8_192;
        let mut farm = Honeyfarm::new(cfg).unwrap();
        let mut model = RadiationModel::new(RadiationConfig::default(), 1234);
        let trace = model.generate(SimTime::from_secs(30));
        for event in trace.events() {
            farm.inject_external(event.at, event.packet.clone());
        }
        let s = farm.stats();
        (s.vms_cloned, s.counters.get("packets_in"), s.total_used_frames())
    };
    assert_eq!(run(), run(), "same seed, same result");
}

/// `potemkin` with `args`, its stdout, failing on a nonzero exit.
fn potemkin(args: &[&str]) -> String {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_potemkin"))
        .args(args)
        .output()
        .expect("run potemkin");
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `potemkin replay` over ten seconds with `args`.
fn replay(args: &[&str]) -> String {
    potemkin(&[&["replay", "--duration", "10"], args].concat())
}

/// Runs `args` with `--verify true` and checks it matched its reference.
fn assert_verified(args: &[&str]) {
    let out = potemkin(&[args, &["--verify", "true"]].concat());
    let line = out.lines().find(|l| l.starts_with("verify: "));
    assert!(line.is_some_and(|l| l.contains(" matches, stream digest ")), "{out}");
}

#[test]
fn federate_verify_matches_the_single_farm_reference() {
    assert_verified(&["federate", "--farms", "2", "--cells", "4", "--duration", "2"]);
}

#[test]
fn services_verify_matches_the_serial_reference() {
    assert_verified(&["services", "--cells", "2", "--attackers", "1", "--duration", "5"]);
}

/// The one "telescope replay" table of a replay's output.
fn table(stdout: &str) -> &str {
    let start = stdout.find("== telescope replay ==").expect("a telescope replay table");
    &stdout[start..]
}

#[test]
fn a_saved_trace_loads_and_replays_to_the_generated_table() {
    let path = std::env::temp_dir().join(format!("potemkin-e2e-{}.pcap", std::process::id()));
    let file = path.to_str().expect("utf-8 temp path");
    assert!(replay(&["--save-trace", file]).starts_with("wrote "));
    let bytes = std::fs::read(&path).expect("the saved trace");
    assert_eq!(bytes[..4], 0xA1B2_3C4Du32.to_le_bytes(), "nanosecond libpcap");
    let loaded = replay(&["--load-trace", file]);
    let _ = std::fs::remove_file(&path);
    let generated = replay(&[]);
    assert_eq!(table(&loaded), table(&generated));
    assert!(table(&generated).lines().any(|l| l.starts_with("escapes") && l.ends_with(" 0")));
}
