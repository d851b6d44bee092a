//! Telescope background radiation synthesis.
//!
//! A network telescope receives a continuous stream of unsolicited traffic:
//! worm probes, backscatter, and misconfiguration. The published telescope
//! literature of the paper's era characterizes it as (a) Poisson-ish source
//! arrivals with a diurnal cycle, (b) heavy-tailed per-source activity (most
//! sources send a handful of probes, a few scan relentlessly), and (c)
//! highly skewed destination-port popularity. [`RadiationModel`] synthesizes
//! a trace with exactly those properties, deterministically from a seed.

use std::net::Ipv4Addr;

use potemkin_net::addr::Ipv4Prefix;
use potemkin_net::tcp::TcpFlags;
use potemkin_net::PacketBuilder;
use potemkin_sim::{Exponential, Pareto, SimRng, SimTime, Zipf};

use crate::trace::Trace;

/// Scanning behaviour of a radiation source.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SourceStrategy {
    /// Probes uniformly random addresses in the telescope.
    Random,
    /// Sweeps addresses sequentially from a random start.
    Sequential,
    /// Revisits one address repeatedly (backscatter-like).
    Fixated,
}

/// Configuration for the radiation generator.
#[derive(Clone, Debug)]
pub struct RadiationConfig {
    /// The telescope prefix being watched.
    pub telescope: Ipv4Prefix,
    /// Mean new-source arrival rate at the diurnal peak (sources/second).
    /// Zero is a quiet telescope: the trace is empty.
    pub peak_source_rate: f64,
    /// Ratio of trough to peak rate (0–1; the diurnal cycle).
    pub diurnal_trough_ratio: f64,
    /// Period of the diurnal cycle.
    pub diurnal_period: SimTime,
    /// Pareto shape for probes-per-source (≤ ~1.2 gives the observed heavy
    /// tail).
    pub probes_per_source_alpha: f64,
    /// Minimum probes per source.
    pub probes_per_source_min: f64,
    /// Mean inter-probe gap within a source's scan.
    pub mean_probe_gap: SimTime,
    /// Port popularity skew (Zipf exponent over [`Self::ports`]).
    pub port_skew: f64,
    /// The destination ports scanners probe, most popular first.
    pub ports: Vec<u16>,
    /// Fraction of sources that sweep sequentially.
    pub sequential_fraction: f64,
    /// Fraction of sources fixated on one address.
    pub fixated_fraction: f64,
    /// Fraction of sources that send ICMP echo (ping sweeps) instead of
    /// TCP/UDP probes.
    pub ping_fraction: f64,
    /// Fraction of sources that are *backscatter* — responses (SYN-ACK,
    /// RST) from victims of spoofed-source DoS attacks, a large share of
    /// real telescope traffic. Backscatter cannot start an interaction and
    /// should never earn a VM.
    pub backscatter_fraction: f64,
}

impl Default for RadiationConfig {
    /// A /16 telescope with 2005-era ambient radiation: a few new scan
    /// sources per second at peak, worm-era port mix.
    fn default() -> Self {
        RadiationConfig {
            telescope: "10.1.0.0/16".parse().expect("static prefix"),
            peak_source_rate: 4.0,
            diurnal_trough_ratio: 0.4,
            diurnal_period: SimTime::from_hours(24),
            probes_per_source_alpha: 1.15,
            probes_per_source_min: 1.0,
            mean_probe_gap: SimTime::from_millis(150),
            port_skew: 1.1,
            ports: vec![445, 135, 1434, 80, 139, 1433, 22, 25, 3389, 5554],
            sequential_fraction: 0.2,
            fixated_fraction: 0.05,
            ping_fraction: 0.08,
            backscatter_fraction: 0.25,
        }
    }
}

/// The radiation trace generator.
///
/// # Examples
///
/// ```
/// use potemkin_sim::SimTime;
/// use potemkin_workload::radiation::{RadiationConfig, RadiationModel};
///
/// let mut model = RadiationModel::new(RadiationConfig::default(), 42);
/// let trace = model.generate(SimTime::from_secs(30));
/// assert!(!trace.is_empty());
/// // Deterministic: the same seed regenerates the same trace.
/// let again = RadiationModel::new(RadiationConfig::default(), 42)
///     .generate(SimTime::from_secs(30));
/// assert_eq!(trace.len(), again.len());
/// ```
pub struct RadiationModel {
    config: RadiationConfig,
    rng: SimRng,
    port_dist: Zipf,
    probes_dist: Pareto,
}

impl RadiationModel {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no ports, a negative or
    /// NaN rate).
    #[must_use]
    pub fn new(config: RadiationConfig, seed: u64) -> Self {
        assert!(!config.ports.is_empty(), "need at least one port");
        assert!(config.peak_source_rate >= 0.0, "need a non-negative source rate");
        let port_dist = Zipf::new(config.ports.len(), config.port_skew).expect("validated");
        let probes_dist = Pareto::new(config.probes_per_source_min, config.probes_per_source_alpha)
            .expect("validated");
        RadiationModel { config, rng: SimRng::seed_from(seed), port_dist, probes_dist }
    }

    /// Instantaneous source arrival rate at time `t` (diurnal sinusoid
    /// between trough and peak).
    #[must_use]
    pub(crate) fn rate_at(&self, t: SimTime) -> f64 {
        let peak = self.config.peak_source_rate;
        let trough = peak * self.config.diurnal_trough_ratio.clamp(0.0, 1.0);
        let phase = (t % self.config.diurnal_period).as_secs_f64()
            / self.config.diurnal_period.as_secs_f64();
        let mid = (peak + trough) / 2.0;
        let amp = (peak - trough) / 2.0;
        mid + amp * (core::f64::consts::TAU * phase).cos()
    }

    fn random_external_source(rng: &mut SimRng) -> Ipv4Addr {
        // Any public-looking /8 except the 10/8 we use for telescopes.
        loop {
            let a = rng.range_u64(1, 223) as u8;
            if a != 10 && a != 127 && a != 172 && a != 192 {
                return Ipv4Addr::new(
                    a,
                    rng.below(256) as u8,
                    rng.below(256) as u8,
                    rng.below(256) as u8,
                );
            }
        }
    }

    /// Generates the full trace up to `horizon`.
    ///
    /// Source arrivals are a non-homogeneous Poisson process (thinning
    /// method); each source then emits its Pareto-sized probe train. A
    /// zero peak rate generates nothing.
    #[must_use]
    pub fn generate(&mut self, horizon: SimTime) -> Trace {
        let mut trace = Trace::new();
        let peak = self.config.peak_source_rate;
        if peak == 0.0 {
            return trace;
        }
        let gap = Exponential::with_mean(1.0 / peak).expect("positive rate");
        let mut t = SimTime::ZERO;
        loop {
            // Thinning: propose at the peak rate, accept at rate(t)/peak.
            t += SimTime::from_secs_f64(gap.sample(&mut self.rng).max(1e-9));
            if t >= horizon {
                break;
            }
            if !self.rng.chance(self.rate_at(t) / peak) {
                continue;
            }
            self.emit_source(&mut trace, t, horizon);
        }
        trace.sort();
        trace
    }

    fn emit_source(&mut self, trace: &mut Trace, start: SimTime, horizon: SimTime) {
        let src = Self::random_external_source(&mut self.rng);
        let probes = self.probes_dist.sample(&mut self.rng).min(5_000.0) as u64;
        let port_rank = self.port_dist.sample(&mut self.rng);
        let port = self.config.ports[port_rank - 1];
        let r = self.rng.f64();
        let strategy = if r < self.config.fixated_fraction {
            SourceStrategy::Fixated
        } else if r < self.config.fixated_fraction + self.config.sequential_fraction {
            SourceStrategy::Sequential
        } else {
            SourceStrategy::Random
        };
        let kind = self.rng.f64();
        let is_ping = kind < self.config.ping_fraction;
        let is_backscatter =
            !is_ping && kind < self.config.ping_fraction + self.config.backscatter_fraction;
        let telescope = self.config.telescope;
        let first_index = self.rng.below(telescope.len());
        let gap_dist = Exponential::with_mean(self.config.mean_probe_gap.as_secs_f64().max(1e-9))
            .expect("positive gap");
        let mut at = start;
        let src_port = 1024 + (self.rng.below(60_000) as u16);
        let ping_ident = self.rng.next_u32() as u16;
        for i in 0..probes {
            if at >= horizon {
                break;
            }
            let dst_index = match strategy {
                SourceStrategy::Random => self.rng.below(telescope.len()),
                SourceStrategy::Sequential => (first_index + i) % telescope.len(),
                SourceStrategy::Fixated => first_index,
            };
            let dst = telescope.addr_at(dst_index).expect("index reduced mod len");
            let packet = if is_ping {
                PacketBuilder::new(src, dst).ttl(110).icmp_echo(ping_ident, i as u16, b"ping")
            } else if is_backscatter {
                // A DoS victim answering a spoofed SYN that claimed one of
                // the telescope's addresses: SYN-ACK (or RST) from the
                // victim's service port.
                let flags = if self.rng.chance(0.7) { TcpFlags::SYN_ACK } else { TcpFlags::RST };
                PacketBuilder::new(src, dst).ttl(110).tcp_segment(
                    port,
                    src_port,
                    flags,
                    self.rng.next_u32(),
                    self.rng.next_u32(),
                    &[],
                )
            } else if port == 1434 {
                // Slammer-style single-UDP-datagram probe.
                PacketBuilder::new(src, dst).ttl(110).udp(src_port, port, b"radiation-probe")
            } else {
                PacketBuilder::new(src, dst).ttl(110).tcp_syn(src_port, port)
            };
            trace.push(at, packet);
            at += SimTime::from_secs_f64(gap_dist.sample(&mut self.rng));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(seed: u64) -> RadiationModel {
        RadiationModel::new(RadiationConfig::default(), seed)
    }

    #[test]
    fn deterministic_given_seed() {
        let horizon = SimTime::from_secs(60);
        let a = model(1).generate(horizon);
        let b = model(1).generate(horizon);
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (x, y) in a.events().iter().zip(b.events()) {
            assert_eq!(x.at, y.at);
            assert_eq!(x.packet, y.packet);
        }
        let c = model(2).generate(horizon);
        assert_ne!(
            a.events().first().map(|e| e.packet.clone()),
            c.events().first().map(|e| e.packet.clone())
        );
    }

    #[test]
    fn all_destinations_inside_telescope() {
        let t = model(3).generate(SimTime::from_secs(120));
        let prefix: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
        for e in t.events() {
            assert!(prefix.contains(e.packet.dst()), "dst {} outside telescope", e.packet.dst());
            assert!(!prefix.contains(e.packet.src()), "src {} inside telescope", e.packet.src());
        }
    }

    #[test]
    fn events_are_time_ordered_within_horizon() {
        let horizon = SimTime::from_secs(60);
        let t = model(4).generate(horizon);
        let mut last = SimTime::ZERO;
        for e in t.events() {
            assert!(e.at >= last);
            assert!(e.at < horizon);
            last = e.at;
        }
    }

    #[test]
    fn rate_is_plausible() {
        let t = model(5).generate(SimTime::from_secs(300));
        // With ~4 sources/s at peak and heavy-tailed probe counts the packet
        // rate must exceed the source rate.
        let rate = t.mean_rate();
        assert!(rate > 2.0, "rate {rate} too low");
        assert!(t.distinct_sources() > 200, "sources {}", t.distinct_sources());
    }

    #[test]
    fn heavy_tail_present() {
        let t = model(6).generate(SimTime::from_secs(600));
        // Count per-source packets; the max source should dominate the
        // median source by a large factor.
        use std::collections::HashMap;
        let mut counts: HashMap<u32, u64> = HashMap::new();
        for e in t.events() {
            *counts.entry(u32::from(e.packet.src())).or_insert(0) += 1;
        }
        let mut v: Vec<u64> = counts.into_values().collect();
        v.sort_unstable();
        let median = v[v.len() / 2];
        let max = *v.last().unwrap();
        assert!(max >= median * 20, "max {max} vs median {median}: tail too light");
    }

    #[test]
    fn diurnal_rate_oscillates() {
        let m = model(7);
        let peak = m.rate_at(SimTime::ZERO);
        let trough = m.rate_at(SimTime::from_hours(12));
        assert!(peak > trough * 2.0, "peak {peak}, trough {trough}");
        let recovered = m.rate_at(SimTime::from_hours(24));
        assert!((recovered - peak).abs() < 1e-9);
    }

    #[test]
    fn traffic_mix_includes_pings_and_backscatter() {
        let t = model(10).generate(SimTime::from_secs(600));
        let mut pings = 0u64;
        let mut backscatter = 0u64;
        let mut syns = 0u64;
        for e in t.events() {
            match e.packet.payload() {
                potemkin_net::PacketPayload::Icmp(_) => pings += 1,
                potemkin_net::PacketPayload::Tcp { header, .. } => {
                    if header.flags.syn && !header.flags.ack {
                        syns += 1;
                    } else if header.flags.rst || (header.flags.syn && header.flags.ack) {
                        backscatter += 1;
                    }
                }
                _ => {}
            }
        }
        assert!(pings > 0, "no pings generated");
        assert!(backscatter > 0, "no backscatter generated");
        assert!(syns > backscatter / 10, "SYNs vanished from the mix");
        // Roughly a quarter of packets are backscatter (per-source fractions
        // weighted by heavy-tailed probe counts — allow a wide band).
        let frac = backscatter as f64 / t.len() as f64;
        assert!((0.05..0.60).contains(&frac), "backscatter fraction {frac}");
    }

    #[test]
    fn zero_rate_is_a_quiet_telescope() {
        let cfg = RadiationConfig { peak_source_rate: 0.0, ..RadiationConfig::default() };
        assert!(RadiationModel::new(cfg, 1).generate(SimTime::from_secs(60)).is_empty());
    }

    #[test]
    fn zero_fractions_disable_ping_and_backscatter() {
        let cfg = RadiationConfig {
            ping_fraction: 0.0,
            backscatter_fraction: 0.0,
            ..RadiationConfig::default()
        };
        let t = RadiationModel::new(cfg, 11).generate(SimTime::from_secs(120));
        for e in t.events() {
            if let potemkin_net::PacketPayload::Tcp { header, .. } = e.packet.payload() {
                assert!(header.flags.syn && !header.flags.ack, "unexpected non-SYN TCP");
            }
            assert!(
                !matches!(e.packet.payload(), potemkin_net::PacketPayload::Icmp(_)),
                "unexpected ping"
            );
        }
    }

    #[test]
    fn port_mix_is_skewed_and_slammer_is_udp() {
        let t = model(8).generate(SimTime::from_secs(600));
        let mut tcp445 = 0u64;
        let mut udp1434 = 0u64;
        let mut other = 0u64;
        for e in t.events() {
            match e.packet.flow_key().transport.dst_port() {
                Some(445) => tcp445 += 1,
                Some(1434) => {
                    udp1434 += 1;
                    assert!(matches!(e.packet.payload(), potemkin_net::PacketPayload::Udp { .. }));
                }
                _ => other += 1,
            }
        }
        assert!(tcp445 > 0);
        assert!(udp1434 > 0);
        assert!(other > 0);
        // Rank-1 port (445) beats the tail ports combined? Not necessarily,
        // but it must be the single most popular.
        assert!(tcp445 >= udp1434);
    }
}
