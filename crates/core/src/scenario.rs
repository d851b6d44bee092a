//! Event-driven experiment scenarios.
//!
//! Two drivers cover the paper's dynamic experiments:
//!
//! * [`run_outbreak`] — seed a worm inside the farm and watch it propagate
//!   under the configured containment policy (the containment experiment).
//! * [`run_telescope`] — replay synthetic telescope radiation against the
//!   farm for a period (the end-to-end deployment experiment).
//!
//! Both run on the deterministic event loop from `potemkin-sim` and sample
//! time series for the figures. [`sweep`] runs independent scenario
//! configurations across OS threads for parameter sweeps.

use potemkin_gateway::binding::VmRef;
use potemkin_gateway::ConfigError;
use potemkin_metrics::TimeSeries;
use potemkin_sim::{run_until, EventQueue, FaultPlan, SimTime, World};
use potemkin_workload::radiation::{RadiationConfig, RadiationModel};
use potemkin_workload::trace::TrafficMix;

use crate::error::FarmError;
use crate::farm::{FarmConfig, Honeyfarm};
use crate::report::{DegradationReport, FarmStats};

/// Configuration of an in-farm worm outbreak experiment.
///
/// Construct via [`OutbreakConfig::builder`]; the struct is
/// `#[non_exhaustive]`, so new knobs may be added without breaking
/// downstream crates.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct OutbreakConfig {
    /// The farm (its `worm` field must be set).
    pub farm: FarmConfig,
    /// Number of seeded patient-zero VMs.
    pub initial_infections: usize,
    /// How long to run.
    pub duration: SimTime,
    /// Time-series sampling interval.
    pub sample_interval: SimTime,
    /// Gateway/binding expiry tick interval.
    pub tick_interval: SimTime,
}

impl OutbreakConfig {
    /// A validating builder: one patient zero, a 10-second horizon,
    /// 1-second sampling and ticking. The farm's `worm` must be set by
    /// [`OutbreakConfigBuilder::build`] time.
    #[must_use]
    pub fn builder(farm: FarmConfig) -> OutbreakConfigBuilder {
        OutbreakConfigBuilder {
            inner: OutbreakConfig {
                farm,
                initial_infections: 1,
                duration: SimTime::from_secs(10),
                sample_interval: SimTime::from_secs(1),
                tick_interval: SimTime::from_secs(1),
            },
        }
    }
}

/// Typed builder for [`OutbreakConfig`]; see [`OutbreakConfig::builder`].
#[derive(Clone, Debug)]
pub struct OutbreakConfigBuilder {
    inner: OutbreakConfig,
}

impl OutbreakConfigBuilder {
    /// Sets the number of seeded patient-zero VMs.
    #[must_use]
    pub fn initial_infections(mut self, n: usize) -> Self {
        self.inner.initial_infections = n;
        self
    }

    /// Sets the run horizon.
    #[must_use]
    pub fn duration(mut self, duration: SimTime) -> Self {
        self.inner.duration = duration;
        self
    }

    /// Sets the time-series sampling interval.
    #[must_use]
    pub fn sample_interval(mut self, interval: SimTime) -> Self {
        self.inner.sample_interval = interval;
        self
    }

    /// Sets the gateway/binding expiry tick interval.
    #[must_use]
    pub fn tick_interval(mut self, interval: SimTime) -> Self {
        self.inner.tick_interval = interval;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when the farm has no worm, there are zero
    /// seeds or more than 254 (one `10.1.255.x` address each), or any
    /// interval is zero.
    pub fn build(self) -> Result<OutbreakConfig, ConfigError> {
        let c = self.inner;
        if c.farm.worm.is_none() {
            return Err(ConfigError::new("OutbreakConfig", "farm.worm", "outbreak needs a worm"));
        }
        if c.initial_infections == 0 {
            return Err(ConfigError::new(
                "OutbreakConfig",
                "initial_infections",
                "need at least one seed infection",
            ));
        }
        if c.initial_infections > MAX_OUTBREAK_SEEDS {
            return Err(ConfigError::new(
                "OutbreakConfig",
                "initial_infections",
                "at most 254 seeds fit 10.1.255.1..=254",
            ));
        }
        if c.duration == SimTime::ZERO {
            return Err(ConfigError::new("OutbreakConfig", "duration", "must be > 0"));
        }
        if c.sample_interval == SimTime::ZERO {
            return Err(ConfigError::new("OutbreakConfig", "sample_interval", "must be > 0"));
        }
        if c.tick_interval == SimTime::ZERO {
            return Err(ConfigError::new("OutbreakConfig", "tick_interval", "must be > 0"));
        }
        Ok(c)
    }
}

/// Patient zero `i` lives at `10.1.255.(i + 1)`; past `.254` the last octet
/// would wrap onto addresses that already hold a VM.
const MAX_OUTBREAK_SEEDS: usize = 254;

/// Result of an outbreak run.
#[derive(Clone, Debug)]
pub struct OutbreakResult {
    /// Infected-VM count over time (per sample bin).
    pub infected_series: TimeSeries,
    /// Live-VM count over time.
    pub live_vm_series: TimeSeries,
    /// Final farm statistics.
    pub stats: FarmStats,
    /// Packets that escaped to the real Internet.
    pub escapes: u64,
    /// Worm probes emitted.
    pub probes: u64,
    /// Final infected count.
    pub final_infected: usize,
}

enum OutbreakEvent {
    Probe { vm: VmRef, idx: u64 },
    Tick,
    Sample,
}

struct OutbreakWorld {
    farm: Honeyfarm,
    probe_gap: SimTime,
    tick_interval: SimTime,
    sample_interval: SimTime,
    duration: SimTime,
    infected_series: TimeSeries,
    live_vm_series: TimeSeries,
}

impl OutbreakWorld {
    fn schedule_new_infections(&mut self, now: SimTime, q: &mut EventQueue<OutbreakEvent>) {
        for vm in self.farm.take_new_infections() {
            q.schedule(now + self.probe_gap, OutbreakEvent::Probe { vm, idx: 0 });
        }
    }
}

impl World for OutbreakWorld {
    type Event = OutbreakEvent;

    fn handle(&mut self, now: SimTime, event: OutbreakEvent, q: &mut EventQueue<OutbreakEvent>) {
        match event {
            OutbreakEvent::Probe { vm, idx } => {
                if self.farm.worm_probe(now, vm, idx) {
                    q.schedule(now + self.probe_gap, OutbreakEvent::Probe { vm, idx: idx + 1 });
                }
                self.schedule_new_infections(now, q);
            }
            OutbreakEvent::Tick => {
                self.farm.tick(now);
                if now + self.tick_interval < self.duration {
                    q.schedule(now + self.tick_interval, OutbreakEvent::Tick);
                }
            }
            OutbreakEvent::Sample => {
                self.infected_series.record_max(now, self.farm.infected_vms() as f64);
                self.live_vm_series.record_max(now, self.farm.live_vms() as f64);
                if now + self.sample_interval < self.duration {
                    q.schedule(now + self.sample_interval, OutbreakEvent::Sample);
                }
            }
        }
    }
}

/// Runs a worm-outbreak scenario.
///
/// # Examples
///
/// ```
/// use potemkin_core::farm::FarmConfig;
/// use potemkin_core::scenario::{run_outbreak, OutbreakConfig};
/// use potemkin_sim::SimTime;
/// use potemkin_workload::worm::WormSpec;
///
/// let farm = FarmConfig::builder()
///     .worm(WormSpec::code_red("10.1.0.0/28".parse().unwrap()))
///     .frames_per_server(200_000)
///     .build()
///     .unwrap();
/// let config = OutbreakConfig::builder(farm)
///     .initial_infections(1)
///     .duration(SimTime::from_secs(5))
///     .sample_interval(SimTime::from_secs(1))
///     .tick_interval(SimTime::from_secs(2))
///     .build()
///     .unwrap();
/// let result = run_outbreak(config).unwrap();
/// assert!(result.final_infected >= 1);
/// assert_eq!(result.escapes, 0, "reflection contains the worm");
/// ```
///
/// # Errors
///
/// Returns [`FarmError`] for invalid configurations (including a missing
/// worm, zero seeds, or more than 254) or when the farm cannot be built.
pub fn run_outbreak(config: OutbreakConfig) -> Result<OutbreakResult, FarmError> {
    let Some(worm) = config.farm.worm.clone() else {
        return Err(FarmError::BadConfig { what: "outbreak needs farm.worm" });
    };
    if config.initial_infections == 0 {
        return Err(FarmError::BadConfig { what: "need at least one seed infection" });
    }
    if config.initial_infections > MAX_OUTBREAK_SEEDS {
        return Err(FarmError::BadConfig { what: "at most 254 seed infections" });
    }
    let mut farm = Honeyfarm::new(config.farm.clone())?;
    // Materialize and seed the patient-zero VMs on distinct telescope
    // addresses.
    for i in 0..config.initial_infections {
        let addr = std::net::Ipv4Addr::new(10, 1, 255, (i + 1) as u8);
        let vm = farm.materialize(SimTime::ZERO, addr).ok_or(FarmError::NoCapacity)?;
        farm.seed_infection(vm)?;
    }
    let probe_gap = worm.probe_gap();
    let mut world = OutbreakWorld {
        farm,
        probe_gap,
        tick_interval: config.tick_interval,
        sample_interval: config.sample_interval,
        duration: config.duration,
        infected_series: TimeSeries::new(config.sample_interval),
        live_vm_series: TimeSeries::new(config.sample_interval),
    };
    let mut q = EventQueue::new();
    world.schedule_new_infections(SimTime::ZERO, &mut q);
    q.schedule(SimTime::ZERO, OutbreakEvent::Sample);
    q.schedule(config.tick_interval, OutbreakEvent::Tick);
    run_until(&mut world, &mut q, config.duration);
    // Final sample at the horizon.
    let final_infected = world.farm.infected_vms();
    world
        .infected_series
        .record_max(config.duration.saturating_sub(SimTime::from_nanos(1)), final_infected as f64);
    let stats = world.farm.stats();
    Ok(OutbreakResult {
        escapes: stats.counters.get("escaped"),
        probes: stats.counters.get("worm_probes"),
        final_infected,
        infected_series: world.infected_series,
        live_vm_series: world.live_vm_series,
        stats,
    })
}

/// Configuration of a telescope-replay experiment.
///
/// Construct via [`TelescopeConfig::builder`]; the struct is
/// `#[non_exhaustive]`, so new knobs may be added without breaking
/// downstream crates.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct TelescopeConfig {
    /// The farm.
    pub farm: FarmConfig,
    /// The radiation generator configuration.
    pub radiation: RadiationConfig,
    /// Radiation seed.
    pub seed: u64,
    /// How long to replay.
    pub duration: SimTime,
    /// Time-series sampling interval.
    pub sample_interval: SimTime,
    /// Gateway/binding expiry tick interval.
    pub tick_interval: SimTime,
}

impl TelescopeConfig {
    /// A validating builder: the radiation seed defaults to the farm's
    /// seed, with a 10-second horizon and 1-second sampling and ticking.
    #[must_use]
    pub fn builder(farm: FarmConfig, radiation: RadiationConfig) -> TelescopeConfigBuilder {
        let seed = farm.seed;
        TelescopeConfigBuilder {
            inner: TelescopeConfig {
                farm,
                radiation,
                seed,
                duration: SimTime::from_secs(10),
                sample_interval: SimTime::from_secs(1),
                tick_interval: SimTime::from_secs(1),
            },
        }
    }
}

/// Typed builder for [`TelescopeConfig`]; see [`TelescopeConfig::builder`].
#[derive(Clone, Debug)]
pub struct TelescopeConfigBuilder {
    inner: TelescopeConfig,
}

impl TelescopeConfigBuilder {
    /// Sets the radiation seed (defaults to the farm seed).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Sets the replay horizon.
    #[must_use]
    pub fn duration(mut self, duration: SimTime) -> Self {
        self.inner.duration = duration;
        self
    }

    /// Sets the time-series sampling interval.
    #[must_use]
    pub fn sample_interval(mut self, interval: SimTime) -> Self {
        self.inner.sample_interval = interval;
        self
    }

    /// Sets the gateway/binding expiry tick interval.
    #[must_use]
    pub fn tick_interval(mut self, interval: SimTime) -> Self {
        self.inner.tick_interval = interval;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when any interval is zero.
    pub fn build(self) -> Result<TelescopeConfig, ConfigError> {
        let c = self.inner;
        if c.duration == SimTime::ZERO {
            return Err(ConfigError::new("TelescopeConfig", "duration", "must be > 0"));
        }
        if c.sample_interval == SimTime::ZERO {
            return Err(ConfigError::new("TelescopeConfig", "sample_interval", "must be > 0"));
        }
        if c.tick_interval == SimTime::ZERO {
            return Err(ConfigError::new("TelescopeConfig", "tick_interval", "must be > 0"));
        }
        Ok(c)
    }
}

/// Result of a telescope replay.
#[derive(Clone, Debug)]
pub struct TelescopeResult {
    /// Live-VM count over time.
    pub live_vm_series: TimeSeries,
    /// Packets replayed.
    pub packets: u64,
    /// Distinct external sources in the trace.
    pub distinct_sources: u64,
    /// Distinct telescope addresses touched.
    pub distinct_destinations: u64,
    /// Peak simultaneous live VMs.
    pub peak_live_vms: f64,
    /// Traffic-mix breakdown of the replayed trace.
    pub mix: TrafficMix,
    /// Final farm statistics.
    pub stats: FarmStats,
}

enum TelescopeEvent {
    Packet(Box<potemkin_net::Packet>),
    Tick,
    Sample,
}

struct TelescopeWorld {
    farm: Honeyfarm,
    tick_interval: SimTime,
    sample_interval: SimTime,
    duration: SimTime,
    live_vm_series: TimeSeries,
    peak: f64,
}

impl World for TelescopeWorld {
    type Event = TelescopeEvent;

    fn handle(&mut self, now: SimTime, event: TelescopeEvent, q: &mut EventQueue<TelescopeEvent>) {
        match event {
            TelescopeEvent::Packet(p) => {
                self.farm.inject_external(now, *p);
                let live = self.farm.live_vms() as f64;
                if live > self.peak {
                    self.peak = live;
                }
            }
            TelescopeEvent::Tick => {
                self.farm.tick(now);
                if now + self.tick_interval < self.duration {
                    q.schedule(now + self.tick_interval, TelescopeEvent::Tick);
                }
            }
            TelescopeEvent::Sample => {
                self.live_vm_series.record_max(now, self.farm.live_vms() as f64);
                if now + self.sample_interval < self.duration {
                    q.schedule(now + self.sample_interval, TelescopeEvent::Sample);
                }
            }
        }
    }
}

/// Runs a telescope-replay scenario.
///
/// # Errors
///
/// Returns [`FarmError`] when the farm cannot be built.
pub fn run_telescope(config: TelescopeConfig) -> Result<TelescopeResult, FarmError> {
    run_telescope_impl(config, None).map(|(result, _)| result)
}

/// Runs a telescope replay with a fault plan installed, additionally
/// returning the [`DegradationReport`] (availability, MTTR, fidelity
/// loss). A [`FaultPlan::zero`] plan reproduces [`run_telescope`] exactly.
///
/// # Errors
///
/// Returns [`FarmError`] when the farm cannot be built.
pub fn run_telescope_faulted(
    config: TelescopeConfig,
    plan: FaultPlan,
) -> Result<(TelescopeResult, DegradationReport), FarmError> {
    run_telescope_impl(config, Some(plan))
}

fn run_telescope_impl(
    config: TelescopeConfig,
    plan: Option<FaultPlan>,
) -> Result<(TelescopeResult, DegradationReport), FarmError> {
    let mut farm = Honeyfarm::new(config.farm.clone())?;
    if let Some(plan) = plan {
        farm.install_fault_plan(plan);
    }
    let mut model = RadiationModel::new(config.radiation.clone(), config.seed);
    let trace = model.generate(config.duration);
    let packets = trace.len() as u64;
    let distinct_sources = trace.distinct_sources() as u64;
    let distinct_destinations = trace.distinct_destinations() as u64;
    let mix = trace.traffic_mix();

    let mut world = TelescopeWorld {
        farm,
        tick_interval: config.tick_interval,
        sample_interval: config.sample_interval,
        duration: config.duration,
        live_vm_series: TimeSeries::new(config.sample_interval),
        peak: 0.0,
    };
    let mut q = EventQueue::new();
    for event in trace.into_events() {
        q.schedule(event.at, TelescopeEvent::Packet(Box::new(event.packet)));
    }
    q.schedule(config.tick_interval, TelescopeEvent::Tick);
    q.schedule(SimTime::ZERO, TelescopeEvent::Sample);
    run_until(&mut world, &mut q, config.duration);
    let degradation = DegradationReport::collect(&world.farm);
    let stats = world.farm.stats();
    Ok((
        TelescopeResult {
            live_vm_series: world.live_vm_series,
            packets,
            distinct_sources,
            distinct_destinations,
            peak_live_vms: world.peak,
            mix,
            stats,
        },
        degradation,
    ))
}

/// Runs independent jobs across OS threads (parameter sweeps for the
/// benches). Results come back in input order.
pub fn sweep<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    std::thread::scope(|s| {
        let f = &f;
        let jobs: Vec<_> = items.into_iter().map(|item| s.spawn(move || f(item))).collect();
        jobs.into_iter().map(|job| job.join().expect("sweep job panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use potemkin_gateway::policy::PolicyConfig;
    use potemkin_vmm::guest::GuestProfile;
    use potemkin_workload::worm::WormSpec;

    fn outbreak_config(policy: PolicyConfig) -> OutbreakConfig {
        let mut farm = FarmConfig::small_test();
        farm.gateway.policy = policy;
        farm.worm = Some(WormSpec::code_red("10.1.0.0/24".parse().unwrap()));
        farm.frames_per_server = 600_000;
        farm.max_domains_per_server = 4_096;
        OutbreakConfig {
            farm,
            initial_infections: 1,
            duration: SimTime::from_secs(30),
            sample_interval: SimTime::from_secs(1),
            tick_interval: SimTime::from_secs(5),
        }
    }

    #[test]
    fn outbreak_under_reflection_spreads_internally() {
        let result = run_outbreak(outbreak_config(PolicyConfig::reflect())).unwrap();
        assert!(result.final_infected > 1, "worm must spread: {}", result.final_infected);
        assert_eq!(result.escapes, 0, "reflection must contain everything");
        assert!(result.probes > 0);
        // The infection series is monotone non-decreasing.
        let mut last = 0.0;
        for (_, v) in result.infected_series.iter() {
            assert!(v >= last || v == 0.0, "series dipped: {v} after {last}");
            if v > 0.0 {
                last = v;
            }
        }
    }

    #[test]
    fn outbreak_under_drop_all_does_not_spread() {
        let result = run_outbreak(outbreak_config(PolicyConfig::drop_all())).unwrap();
        assert_eq!(result.final_infected, 1, "drop-all freezes the worm");
        assert_eq!(result.escapes, 0);
    }

    #[test]
    fn outbreak_under_allow_all_escapes() {
        let result = run_outbreak(outbreak_config(PolicyConfig::allow_all())).unwrap();
        assert!(result.escapes > 0, "allow-all leaks probes");
    }

    #[test]
    fn outbreak_config_validation() {
        let mut c = outbreak_config(PolicyConfig::reflect());
        c.farm.worm = None;
        assert!(run_outbreak(c).is_err());
        let mut c2 = outbreak_config(PolicyConfig::reflect());
        c2.initial_infections = 0;
        assert!(run_outbreak(c2).is_err());
    }

    #[test]
    fn outbreak_rejects_more_seeds_than_distinct_addresses() {
        // Seed 255 would wrap to 10.1.255.0 and seed 256 onto seed 0's VM.
        let mut config = outbreak_config(PolicyConfig::reflect());
        let built = |n| OutbreakConfig::builder(config.farm.clone()).initial_infections(n).build();
        assert!(built(254).is_ok());
        assert_eq!(built(255).unwrap_err().field(), "initial_infections");
        config.initial_infections = 255;
        assert!(matches!(run_outbreak(config), Err(FarmError::BadConfig { .. })));
    }

    #[test]
    fn telescope_replay_binds_vms_and_recycles() {
        let mut farm = FarmConfig::small_test();
        farm.profile = GuestProfile::small();
        farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
        farm.frames_per_server = 1_000_000;
        farm.max_domains_per_server = 8_192;
        let config = TelescopeConfig {
            farm,
            radiation: RadiationConfig::default(),
            seed: 7,
            duration: SimTime::from_secs(60),
            sample_interval: SimTime::from_secs(1),
            tick_interval: SimTime::from_secs(1),
        };
        let result = run_telescope(config).unwrap();
        assert!(result.packets > 50, "packets: {}", result.packets);
        assert!(result.peak_live_vms > 1.0);
        assert!(result.stats.vms_cloned > 0);
        assert!(result.stats.vms_recycled > 0, "10s idle timeout must recycle");
        assert!(result.distinct_sources > 10);
        assert!(!result.live_vm_series.is_empty());
    }

    fn telescope_config() -> TelescopeConfig {
        let mut farm = FarmConfig::small_test();
        farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
        farm.frames_per_server = 1_000_000;
        farm.max_domains_per_server = 8_192;
        TelescopeConfig {
            farm,
            radiation: RadiationConfig::default(),
            seed: 7,
            duration: SimTime::from_secs(30),
            sample_interval: SimTime::from_secs(1),
            tick_interval: SimTime::from_secs(1),
        }
    }

    #[test]
    fn zero_fault_plan_reproduces_the_unfaulted_run() {
        let plain = run_telescope(telescope_config()).unwrap();
        let (faulted, report) =
            run_telescope_faulted(telescope_config(), FaultPlan::zero()).unwrap();
        assert_eq!(plain.packets, faulted.packets);
        assert_eq!(plain.stats.vms_cloned, faulted.stats.vms_cloned);
        assert_eq!(plain.stats.vms_recycled, faulted.stats.vms_recycled);
        assert_eq!(
            plain.stats.counters.get("packets_in"),
            faulted.stats.counters.get("packets_in")
        );
        assert_eq!(plain.stats.counters.get("escaped"), faulted.stats.counters.get("escaped"));
        assert_eq!(report.host_crashes, 0);
        assert_eq!(report.availability(), 1.0);
    }

    #[test]
    fn faulted_replay_degrades_but_contains() {
        use potemkin_sim::FaultPlanConfig;
        let mut config = telescope_config();
        config.farm.servers = 2;
        config.farm.retry = Some(potemkin_vmm::RetryPolicy::default_clone());
        config.farm.degradation_ladder = true;
        let plan = FaultPlan::generate(&FaultPlanConfig {
            host_crash_rate_per_hour: 240.0, // expect a couple of crashes
            clone_failure_prob: 0.10,
            ..FaultPlanConfig::zero(config.duration, config.farm.servers)
        });
        assert!(!plan.is_zero(), "plan must schedule events");
        let (result, report) = run_telescope_faulted(config, plan).unwrap();
        assert!(result.packets > 50);
        assert_eq!(report.escaped, 0, "faults must not break containment");
        assert!(report.host_crashes > 0, "crashes fired: {report:?}");
        assert!(report.clone_faults > 0, "clone faults fired");
        assert!(report.clone_retries > 0, "retry policy engaged");
        let availability = report.availability();
        assert!((0.0..=1.0).contains(&availability));
        assert!(report.canonical_string().contains("escaped=0"));
    }

    #[test]
    fn same_fault_seed_gives_byte_identical_reports() {
        use potemkin_sim::FaultPlanConfig;
        let mk_plan = || {
            FaultPlan::generate(&FaultPlanConfig {
                host_crash_rate_per_hour: 120.0,
                clone_failure_prob: 0.05,
                gateway_stall_rate_per_hour: 60.0,
                ..FaultPlanConfig::zero(SimTime::from_secs(30), 2)
            })
        };
        let mk_config = || {
            let mut c = telescope_config();
            c.farm.servers = 2;
            c.farm.degradation_ladder = true;
            c
        };
        let (_, a) = run_telescope_faulted(mk_config(), mk_plan()).unwrap();
        let (_, b) = run_telescope_faulted(mk_config(), mk_plan()).unwrap();
        assert_eq!(a.canonical_string(), b.canonical_string());
    }

    #[test]
    fn sweep_preserves_order_and_runs_all() {
        let results = sweep(vec![1u64, 2, 3, 4, 5, 6, 7, 8], |x| x * 10);
        assert_eq!(results, vec![10, 20, 30, 40, 50, 60, 70, 80]);
    }
}
