//! Parameterized worm models.
//!
//! Real worm binaries are neither available nor desirable here; what the
//! containment and fidelity experiments need is each worm's
//! *decision-relevant behaviour*: how fast it scans, how it picks targets,
//! which service it exploits, how many dialogue rounds the exploit needs,
//! and a recognizable payload marker so capture can be asserted. The presets
//! are modeled on the canonical 2001–2004 worms the paper's era studied.

use std::net::Ipv4Addr;

use potemkin_net::addr::Ipv4Prefix;
use potemkin_net::{BufferPool, Packet, PacketBuilder};
use potemkin_sim::{SimRng, SimTime};

use crate::dialogue::ExploitScript;

/// How an infected host picks scan targets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScanStrategy {
    /// Uniformly random addresses within `space` (Code Red, Slammer).
    UniformRandom {
        /// The address space scanned.
        space: Ipv4Prefix,
    },
    /// With probability `local_permille`/1000 pick inside the infected
    /// host's /24 or /16 (Blaster, Nimda); otherwise uniform in `space`.
    SubnetPreference {
        /// The global address space.
        space: Ipv4Prefix,
        /// Per-mille probability of a same-/16 target.
        local16_permille: u16,
        /// Per-mille probability of a same-/24 target.
        local24_permille: u16,
    },
    /// Works through a precomputed list (hitlist/flash worms).
    Hitlist {
        /// The list of targets, probed in order.
        targets: Vec<Ipv4Addr>,
    },
}

/// Transport used by the worm's probe.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProbeTransport {
    /// TCP connect to `port` (multi-round exploits).
    Tcp,
    /// Single UDP datagram to `port` (Slammer-style, exploit in one packet).
    Udp,
}

/// A worm behaviour specification.
///
/// # Examples
///
/// ```
/// use potemkin_net::BufferPool;
/// use potemkin_sim::SimRng;
/// use potemkin_workload::worm::WormSpec;
/// use std::net::Ipv4Addr;
///
/// let space = "10.1.0.0/16".parse().unwrap();
/// let worm = WormSpec::slammer(space);
/// let mut rng = SimRng::seed_from(7);
/// let src = Ipv4Addr::new(10, 1, 0, 1);
/// let target = worm.pick_target(&mut rng, src, 0).unwrap();
/// let probe = worm.probe_instance_pooled(src, 1025, target, 0, &BufferPool::new());
/// assert_eq!(probe.flow_key().transport.dst_port(), Some(1434));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct WormSpec {
    /// Name for reports.
    pub name: &'static str,
    /// Probes per second per infected host.
    pub scan_rate: f64,
    /// The exploited service port.
    pub port: u16,
    /// The probe transport.
    pub transport: ProbeTransport,
    /// Target selection strategy.
    pub strategy: ScanStrategy,
    /// Dialogue rounds the exploit needs (1 for single-packet UDP worms).
    pub exploit_depth: u8,
    /// A recognizable payload marker (stands in for the exploit bytes).
    pub payload_marker: &'static [u8],
    /// Whether each exploit instance mutates its payload around the marker
    /// (polymorphic worms defeat content-hash dedup; the marker itself
    /// stays constant, as real polymorphic engines keep a functional core).
    pub polymorphic: bool,
}

impl WormSpec {
    /// A Code-Red-like TCP/80 uniform-random scanner.
    #[must_use]
    pub fn code_red(space: Ipv4Prefix) -> Self {
        WormSpec {
            name: "codered",
            scan_rate: 11.0,
            port: 80,
            transport: ProbeTransport::Tcp,
            strategy: ScanStrategy::UniformRandom { space },
            exploit_depth: 2,
            payload_marker: b"GET /default.ida?NNNN-marker",
            polymorphic: false,
        }
    }

    /// A Slammer-like UDP/1434 single-packet worm (very fast scanner).
    #[must_use]
    pub fn slammer(space: Ipv4Prefix) -> Self {
        WormSpec {
            name: "slammer",
            scan_rate: 4_000.0,
            port: 1434,
            transport: ProbeTransport::Udp,
            strategy: ScanStrategy::UniformRandom { space },
            exploit_depth: 1,
            payload_marker: b"\x04slammer-marker",
            polymorphic: false,
        }
    }

    /// A Blaster-like TCP/135 subnet-preference scanner.
    #[must_use]
    pub fn blaster(space: Ipv4Prefix) -> Self {
        WormSpec {
            name: "blaster",
            scan_rate: 20.0,
            port: 135,
            transport: ProbeTransport::Tcp,
            strategy: ScanStrategy::SubnetPreference {
                space,
                local16_permille: 400,
                local24_permille: 0,
            },
            exploit_depth: 3,
            payload_marker: b"blaster-dcom-marker",
            polymorphic: false,
        }
    }

    /// The exploit dialogue this worm drives against a target.
    #[must_use]
    pub fn script(&self) -> ExploitScript {
        ExploitScript::new(self.name, self.port, self.exploit_depth, self.payload_marker)
    }

    /// Mean gap between probes from one infected host.
    #[must_use]
    pub fn probe_gap(&self) -> SimTime {
        SimTime::from_secs_f64(1.0 / self.scan_rate)
    }

    /// Picks the next scan target for an infected host at `src`.
    ///
    /// `probe_idx` sequences hitlist scans; random strategies ignore it.
    #[must_use]
    pub fn pick_target(&self, rng: &mut SimRng, src: Ipv4Addr, probe_idx: u64) -> Option<Ipv4Addr> {
        match &self.strategy {
            ScanStrategy::UniformRandom { space } => {
                Some(space.addr_at(rng.below(space.len())).expect("index in range"))
            }
            ScanStrategy::SubnetPreference { space, local16_permille, local24_permille } => {
                let roll = rng.below(1000) as u16;
                let o = src.octets();
                if roll < *local24_permille {
                    Some(Ipv4Addr::new(o[0], o[1], o[2], rng.below(256) as u8))
                } else if roll < local24_permille + local16_permille {
                    Some(Ipv4Addr::new(o[0], o[1], rng.below(256) as u8, rng.below(256) as u8))
                } else {
                    Some(space.addr_at(rng.below(space.len())).expect("index in range"))
                }
            }
            ScanStrategy::Hitlist { targets } => targets.get(probe_idx as usize).copied(),
        }
    }

    /// The payload bytes for one exploit instance: the marker, plus a
    /// per-instance mutation suffix when the worm is polymorphic.
    #[must_use]
    pub fn payload_instance(&self, instance_seed: u64) -> Vec<u8> {
        let mut p = self.payload_marker.to_vec();
        if self.polymorphic {
            // A nop-sled-style mutation: the functional marker survives.
            p.extend_from_slice(format!(":{instance_seed:016x}").as_bytes());
        }
        p
    }

    /// A probe of this worm from `src:src_port` to `dst`, carrying the
    /// payload of instance `instance_seed` (UDP worms), with the wire
    /// buffer drawn from `pool` — the farm's allocation-free scanning
    /// path.
    #[must_use]
    pub fn probe_instance_pooled(
        &self,
        src: Ipv4Addr,
        src_port: u16,
        dst: Ipv4Addr,
        instance_seed: u64,
        pool: &BufferPool,
    ) -> Packet {
        match self.transport {
            ProbeTransport::Tcp => {
                PacketBuilder::new(src, dst).pooled(pool).tcp_syn(src_port, self.port)
            }
            ProbeTransport::Udp => PacketBuilder::new(src, dst).pooled(pool).udp(
                src_port,
                self.port,
                &self.payload_instance(instance_seed),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> Ipv4Prefix {
        "10.1.0.0/16".parse().unwrap()
    }

    #[test]
    fn presets_sane() {
        for w in
            [WormSpec::code_red(space()), WormSpec::slammer(space()), WormSpec::blaster(space())]
        {
            assert!(w.scan_rate > 0.0);
            assert!(!w.payload_marker.is_empty());
            assert!(w.exploit_depth >= 1);
            assert!(w.probe_gap() > SimTime::ZERO);
        }
        assert_eq!(WormSpec::slammer(space()).exploit_depth, 1);
        assert!(WormSpec::slammer(space()).probe_gap() < WormSpec::code_red(space()).probe_gap());
    }

    #[test]
    fn uniform_targets_inside_space() {
        let w = WormSpec::code_red(space());
        let mut rng = SimRng::seed_from(1);
        let src = Ipv4Addr::new(10, 1, 3, 4);
        for i in 0..1000 {
            let t = w.pick_target(&mut rng, src, i).unwrap();
            assert!(space().contains(t));
        }
    }

    #[test]
    fn subnet_preference_biases_local() {
        let w = WormSpec::blaster(space());
        let mut rng = SimRng::seed_from(2);
        let src = Ipv4Addr::new(10, 1, 7, 7);
        let n = 10_000;
        let mut local16 = 0;
        for i in 0..n {
            let t = w.pick_target(&mut rng, src, i).unwrap();
            let o = t.octets();
            if o[0] == 10 && o[1] == 1 {
                local16 += 1;
            }
        }
        // 40% explicit local preference plus the uniform mass that happens
        // to land in-prefix (all of it here, since space == the /16). The
        // bias shows up for hosts whose /16 differs from the scanned space;
        // verify with a source outside the space instead.
        assert_eq!(local16, n, "space == /16 means everything is local16");
        let mut rng2 = SimRng::seed_from(3);
        let outside_src = Ipv4Addr::new(99, 99, 1, 1);
        let mut same16 = 0;
        for i in 0..n {
            let t = w.pick_target(&mut rng2, outside_src, i).unwrap();
            let o = t.octets();
            if o[0] == 99 && o[1] == 99 {
                same16 += 1;
            }
        }
        let frac = same16 as f64 / n as f64;
        assert!((frac - 0.4).abs() < 0.03, "local16 fraction {frac}");
    }

    #[test]
    fn hitlist_is_ordered_and_finite() {
        let targets = vec![
            Ipv4Addr::new(10, 1, 0, 1),
            Ipv4Addr::new(10, 1, 0, 2),
            Ipv4Addr::new(10, 1, 0, 3),
        ];
        let w = WormSpec {
            name: "flash",
            scan_rate: 100.0,
            port: 80,
            transport: ProbeTransport::Tcp,
            strategy: ScanStrategy::Hitlist { targets: targets.clone() },
            exploit_depth: 1,
            payload_marker: b"flash",
            polymorphic: false,
        };
        let mut rng = SimRng::seed_from(4);
        let src = Ipv4Addr::new(1, 1, 1, 1);
        for (i, expect) in targets.iter().enumerate() {
            assert_eq!(w.pick_target(&mut rng, src, i as u64), Some(*expect));
        }
        assert_eq!(w.pick_target(&mut rng, src, 3), None, "hitlist exhausted");
    }

    #[test]
    fn probe_packet_shape() {
        let src = Ipv4Addr::new(10, 1, 0, 1);
        let dst = Ipv4Addr::new(10, 1, 0, 2);
        let pool = BufferPool::new();
        let tcp = WormSpec::code_red(space()).probe_instance_pooled(src, 1025, dst, 0, &pool);
        assert_eq!(tcp.flow_key().transport.dst_port(), Some(80));
        assert!(tcp.tcp_flags().unwrap().syn);
        let udp = WormSpec::slammer(space()).probe_instance_pooled(src, 1025, dst, 0, &pool);
        assert_eq!(udp.flow_key().transport.dst_port(), Some(1434));
        assert_eq!(udp.app_payload(), b"\x04slammer-marker");
    }

    #[test]
    fn polymorphic_payloads_vary_but_keep_the_marker() {
        let mut w = WormSpec::slammer(space());
        assert_eq!(w.payload_instance(1), w.payload_instance(2), "monomorphic: identical");
        w.polymorphic = true;
        let a = w.payload_instance(1);
        let b = w.payload_instance(2);
        assert_ne!(a, b, "polymorphic instances differ");
        for p in [&a, &b] {
            assert!(
                p.windows(w.payload_marker.len()).any(|win| win == w.payload_marker),
                "marker must survive mutation"
            );
        }
        // The probe carries the instance payload for UDP worms.
        let src = Ipv4Addr::new(10, 1, 0, 1);
        let dst = Ipv4Addr::new(10, 1, 0, 2);
        let pool = BufferPool::new();
        let p1 = w.probe_instance_pooled(src, 1, dst, 1, &pool);
        let p2 = w.probe_instance_pooled(src, 1, dst, 2, &pool);
        assert_ne!(p1.app_payload(), p2.app_payload());
    }

    #[test]
    fn script_carries_worm_identity() {
        let w = WormSpec::blaster(space());
        let s = w.script();
        assert_eq!(s.depth(), 3);
        assert_eq!(s.port(), 135);
    }
}
