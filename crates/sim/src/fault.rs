//! Deterministic fault injection for honeyfarm experiments.
//!
//! The Potemkin paper argues that a honeyfarm must degrade gracefully: physical
//! hosts crash, flash clones fail, the GRE tunnel from the telescope drops or
//! delays packets, and the gateway itself can stall. This module provides a
//! *seeded, reproducible* schedule of such faults — a [`FaultPlan`] — generated
//! entirely from a [`SimRng`] so that the same configuration and seed always
//! yield byte-identical fault timelines, and therefore byte-identical
//! experiment reports.
//!
//! The plan is consumed through a [`FaultInjector`], a cursor that hands out
//! due events as virtual time advances. The farm applies each event to its own
//! state (crashing a host, arming a clone-fault budget, opening a tunnel-loss
//! window, stalling the gateway); the injector itself holds no mutable farm
//! state, which keeps replay trivial.
//!
//! # Examples
//!
//! ```
//! use potemkin_sim::{FaultInjector, FaultPlan, FaultPlanConfig, SimTime};
//!
//! let mut config = FaultPlanConfig::zero(SimTime::from_secs(600), 4);
//! config.seed = 7;
//! config.host_crash_rate_per_hour = 12.0;
//! config.host_recovery_time = SimTime::from_secs(30);
//!
//! let plan = FaultPlan::generate(&config);
//! assert_eq!(plan, FaultPlan::generate(&config)); // reproducible
//!
//! let mut injector = FaultInjector::new(plan);
//! while let Some(event) = injector.next_due(SimTime::from_secs(600)) {
//!     // apply `event.kind` at `event.at`
//!     let _ = event;
//! }
//! ```

use potemkin_snapshot::{snap_enum, snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

use crate::rng::SimRng;
use crate::time::SimTime;

/// One class of injectable fault, with its parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultKind {
    /// Physical server `host` crashes: every resident domain is lost and its
    /// frames are released. The host rejects all VMM operations until it
    /// recovers.
    HostCrash {
        /// Index of the crashing physical server.
        host: usize,
    },
    /// Physical server `host` comes back online (reference images are
    /// re-provisioned from stable storage; the standby pool is refilled).
    HostRecover {
        /// Index of the recovering physical server.
        host: usize,
    },
    /// The next `count` flash-clone attempts on `host` fail with an injected
    /// VMM error (modelling transient hypervisor allocation failures).
    CloneFaultBurst {
        /// Index of the affected physical server.
        host: usize,
        /// How many consecutive clone attempts fail.
        count: u32,
    },
    /// The GRE tunnel from the telescope degrades for `duration`: inbound
    /// packets are dropped with probability `loss`, and survivors incur
    /// `extra_latency` of added one-way delay.
    TunnelDegrade {
        /// Packet-loss probability in `[0, 1]` while degraded.
        loss: f64,
        /// Additional one-way latency applied to surviving packets.
        extra_latency: SimTime,
        /// How long the degraded window lasts.
        duration: SimTime,
    },
    /// The gateway stalls for `duration`: existing bindings keep forwarding,
    /// but no *new* VM bindings are admitted until the stall clears.
    GatewayStall {
        /// How long the stall lasts.
        duration: SimTime,
    },
}

snap_enum!(FaultKind {
    HostCrash { host } = 0,
    HostRecover { host } = 1,
    CloneFaultBurst { host, count } = 2,
    TunnelDegrade { loss, extra_latency, duration } = 3,
    GatewayStall { duration } = 4,
});

/// A single scheduled fault: a [`FaultKind`] pinned to a virtual timestamp.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

snap_struct!(FaultEvent { at, kind });

/// Parameters from which a [`FaultPlan`] is generated.
///
/// All rates are farm-wide Poisson arrival rates (events per simulated hour);
/// a rate of zero disables that fault class entirely. [`FaultPlanConfig::zero`]
/// builds a configuration with every class disabled, which generates the empty
/// plan — runs under the empty plan are byte-identical to unfaulted runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlanConfig {
    /// Seed for the plan's private RNG stream.
    pub seed: u64,
    /// Horizon: no event is scheduled after this time.
    pub duration: SimTime,
    /// Number of physical servers in the farm (crash targets).
    pub hosts: usize,
    /// Farm-wide host-crash arrival rate (crashes per hour).
    pub host_crash_rate_per_hour: f64,
    /// How long a crashed host stays down before recovering.
    pub host_recovery_time: SimTime,
    /// Probability that any individual flash-clone attempt fails with an
    /// injected fault (sampled continuously by the consumer, not scheduled
    /// as discrete events).
    pub clone_failure_prob: f64,
    /// Arrival rate of tunnel-degradation windows (windows per hour).
    pub tunnel_degrade_rate_per_hour: f64,
    /// Length of each tunnel-degradation window.
    pub tunnel_degrade_duration: SimTime,
    /// Packet-loss probability while the tunnel is degraded.
    pub tunnel_loss: f64,
    /// Extra one-way latency while the tunnel is degraded.
    pub tunnel_extra_latency: SimTime,
    /// Arrival rate of gateway stalls (stalls per hour).
    pub gateway_stall_rate_per_hour: f64,
    /// Length of each gateway stall.
    pub gateway_stall_duration: SimTime,
}

impl FaultPlanConfig {
    /// A configuration with every fault class disabled.
    #[must_use]
    pub fn zero(duration: SimTime, hosts: usize) -> Self {
        FaultPlanConfig {
            seed: 0,
            duration,
            hosts,
            host_crash_rate_per_hour: 0.0,
            host_recovery_time: SimTime::from_secs(30),
            clone_failure_prob: 0.0,
            tunnel_degrade_rate_per_hour: 0.0,
            tunnel_degrade_duration: SimTime::from_secs(5),
            tunnel_loss: 0.0,
            tunnel_extra_latency: SimTime::ZERO,
            gateway_stall_rate_per_hour: 0.0,
            gateway_stall_duration: SimTime::from_secs(2),
        }
    }
}

/// A reproducible, time-sorted schedule of faults plus the continuous
/// clone-failure probability.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct FaultPlan {
    /// Scheduled discrete faults, sorted by [`FaultEvent::at`].
    pub events: Vec<FaultEvent>,
    /// Per-attempt flash-clone failure probability, sampled by the consumer.
    pub clone_failure_prob: f64,
}

impl FaultPlan {
    /// The empty plan: no discrete events, zero clone-failure probability.
    #[must_use]
    pub fn zero() -> Self {
        FaultPlan::default()
    }

    /// Generates a plan from `config`, deterministically in `config.seed`.
    ///
    /// Arrivals for each fault class are drawn from independent exponential
    /// inter-arrival streams (each class forks its own RNG substream, so
    /// enabling one class never perturbs another's timeline). Host crashes
    /// pick a currently-up host uniformly; each crash schedules the matching
    /// [`FaultKind::HostRecover`] `host_recovery_time` later when that still
    /// falls inside the horizon.
    #[must_use]
    pub fn generate(config: &FaultPlanConfig) -> FaultPlan {
        let mut root = SimRng::seed_from(config.seed);
        let mut crash_rng = root.fork();
        let mut tunnel_rng = root.fork();
        let mut stall_rng = root.fork();
        let mut events = Vec::new();

        // Host crashes + paired recoveries.
        if config.host_crash_rate_per_hour > 0.0 && config.hosts > 0 {
            let mut down_until = vec![SimTime::ZERO; config.hosts];
            let mut t = SimTime::ZERO;
            loop {
                t = t.saturating_add(exp_interval(&mut crash_rng, config.host_crash_rate_per_hour));
                if t > config.duration {
                    break;
                }
                // Pick an up host; scan cyclically if the first choice is down.
                let first = crash_rng.index(config.hosts);
                let Some(host) = (0..config.hosts)
                    .map(|off| (first + off) % config.hosts)
                    .find(|&h| down_until[h] <= t)
                else {
                    continue; // every host already down at t
                };
                let recover_at = t.saturating_add(config.host_recovery_time);
                down_until[host] = recover_at;
                events.push(FaultEvent { at: t, kind: FaultKind::HostCrash { host } });
                if recover_at <= config.duration {
                    events
                        .push(FaultEvent { at: recover_at, kind: FaultKind::HostRecover { host } });
                }
            }
        }

        // Tunnel-degradation windows.
        if config.tunnel_degrade_rate_per_hour > 0.0 {
            let mut t = SimTime::ZERO;
            loop {
                t = t.saturating_add(exp_interval(
                    &mut tunnel_rng,
                    config.tunnel_degrade_rate_per_hour,
                ));
                if t > config.duration {
                    break;
                }
                events.push(FaultEvent {
                    at: t,
                    kind: FaultKind::TunnelDegrade {
                        loss: config.tunnel_loss,
                        extra_latency: config.tunnel_extra_latency,
                        duration: config.tunnel_degrade_duration,
                    },
                });
            }
        }

        // Gateway stalls.
        if config.gateway_stall_rate_per_hour > 0.0 {
            let mut t = SimTime::ZERO;
            loop {
                t = t.saturating_add(exp_interval(
                    &mut stall_rng,
                    config.gateway_stall_rate_per_hour,
                ));
                if t > config.duration {
                    break;
                }
                events.push(FaultEvent {
                    at: t,
                    kind: FaultKind::GatewayStall { duration: config.gateway_stall_duration },
                });
            }
        }

        events.sort_by_key(|e| e.at);
        FaultPlan { events, clone_failure_prob: config.clone_failure_prob.clamp(0.0, 1.0) }
    }
}

/// Samples one exponential inter-arrival interval for a per-hour rate.
fn exp_interval(rng: &mut SimRng, rate_per_hour: f64) -> SimTime {
    let rate_per_sec = rate_per_hour / 3600.0;
    SimTime::from_secs_f64(-rng.f64_open().ln() / rate_per_sec)
}

/// A consuming cursor over a [`FaultPlan`].
///
/// Call [`FaultInjector::next_due`] with the current virtual time to drain
/// events whose timestamps have arrived; each event is handed out exactly
/// once, in schedule order.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    cursor: usize,
    clone_failure_prob: f64,
}

impl FaultInjector {
    /// Wraps a plan in a fresh cursor.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            events: plan.events,
            cursor: 0,
            clone_failure_prob: plan.clone_failure_prob,
        }
    }

    /// Pops the next event scheduled at or before `now`, if any.
    pub fn next_due(&mut self, now: SimTime) -> Option<FaultEvent> {
        let event = *self.events.get(self.cursor)?;
        if event.at <= now {
            self.cursor += 1;
            Some(event)
        } else {
            None
        }
    }

    /// The plan's continuous per-attempt clone-failure probability.
    #[must_use]
    pub fn clone_failure_prob(&self) -> f64 {
        self.clone_failure_prob
    }
}

/// The whole plan plus the cursor, so an injector restored mid-plan hands
/// out exactly the suffix the original would have. A cursor past the end of
/// the plan is a decode error.
impl Snap for FaultInjector {
    fn snap(&self, w: &mut SnapWriter) {
        w.f64(self.clone_failure_prob);
        w.usize(self.cursor);
        self.events.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let clone_failure_prob = r.f64()?;
        let cursor = r.usize()?;
        let events = Vec::<FaultEvent>::unsnap(r)?;
        if cursor > events.len() {
            return Err(r.bad());
        }
        Ok(FaultInjector { events, cursor, clone_failure_prob })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faulty_config() -> FaultPlanConfig {
        let mut c = FaultPlanConfig::zero(SimTime::from_secs(30 * 60), 4);
        c.seed = 42;
        c.host_crash_rate_per_hour = 20.0;
        c.host_recovery_time = SimTime::from_secs(45);
        c.clone_failure_prob = 0.1;
        c.tunnel_degrade_rate_per_hour = 10.0;
        c.tunnel_loss = 0.3;
        c.tunnel_extra_latency = SimTime::from_millis(40);
        c.gateway_stall_rate_per_hour = 6.0;
        c
    }

    #[test]
    fn same_seed_same_plan() {
        let config = faulty_config();
        assert_eq!(FaultPlan::generate(&config), FaultPlan::generate(&config));
    }

    #[test]
    fn different_seeds_diverge() {
        let a = faulty_config();
        let mut b = a;
        b.seed = 43;
        assert_ne!(FaultPlan::generate(&a), FaultPlan::generate(&b));
    }

    #[test]
    fn zero_config_generates_empty_plan() {
        let plan = FaultPlan::generate(&FaultPlanConfig::zero(SimTime::from_hours(1), 8));
        assert_eq!(plan, FaultPlan::zero());
    }

    #[test]
    fn events_are_sorted_and_within_horizon() {
        let config = faulty_config();
        let plan = FaultPlan::generate(&config);
        assert!(!plan.events.is_empty());
        for pair in plan.events.windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        for e in &plan.events {
            assert!(e.at <= config.duration);
        }
    }

    #[test]
    fn every_crash_pairs_with_a_recovery_inside_the_horizon() {
        let config = faulty_config();
        let plan = FaultPlan::generate(&config);
        let crashes: Vec<_> = plan
            .events
            .iter()
            .filter_map(|e| match e.kind {
                FaultKind::HostCrash { host } => Some((e.at, host)),
                _ => None,
            })
            .collect();
        assert!(!crashes.is_empty());
        for (at, host) in crashes {
            let recover_at = at.saturating_add(config.host_recovery_time);
            if recover_at <= config.duration {
                assert!(plan
                    .events
                    .iter()
                    .any(|e| e.at == recover_at && e.kind == FaultKind::HostRecover { host }));
            }
        }
    }

    #[test]
    fn disabling_one_class_preserves_the_others() {
        // Independent RNG substreams: turning off tunnel faults must not
        // change when host crashes happen.
        let full = faulty_config();
        let mut crashes_only = full;
        crashes_only.tunnel_degrade_rate_per_hour = 0.0;
        crashes_only.gateway_stall_rate_per_hour = 0.0;

        let crash_times = |plan: &FaultPlan| -> Vec<SimTime> {
            plan.events
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::HostCrash { .. }))
                .map(|e| e.at)
                .collect()
        };
        assert_eq!(
            crash_times(&FaultPlan::generate(&full)),
            crash_times(&FaultPlan::generate(&crashes_only))
        );
    }

    #[test]
    fn injector_drains_in_order_exactly_once() {
        let plan = FaultPlan::generate(&faulty_config());
        let total = plan.events.len();
        let mut injector = FaultInjector::new(plan.clone());
        assert_eq!(injector.events.len() - injector.cursor, total);

        // Nothing due before the first event.
        let before = plan.events[0].at.saturating_sub(SimTime::from_nanos(1));
        assert!(injector.next_due(before).is_none());

        let mut drained = Vec::new();
        while let Some(e) = injector.next_due(SimTime::MAX) {
            drained.push(e);
        }
        assert_eq!(drained, plan.events);
        assert_eq!(injector.events.len() - injector.cursor, 0);
        assert!(injector.next_due(SimTime::MAX).is_none());
    }

    #[test]
    fn clone_probability_is_clamped() {
        let mut config = FaultPlanConfig::zero(SimTime::from_secs(1), 1);
        config.clone_failure_prob = 7.0;
        assert_eq!(FaultPlan::generate(&config).clone_failure_prob, 1.0);
    }
}
