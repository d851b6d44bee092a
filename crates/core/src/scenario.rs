//! The experiment scenario: the farm, the radiation, the horizon.
//!
//! [`TelescopeConfig`] is the one scenario every run starts from. It is
//! lowered to a [`ShardedTelescopeConfig`](crate::parallel::ShardedTelescopeConfig)
//! and run by [`run_telescope_sharded`](crate::parallel::run_telescope_sharded)
//! — a plain replay as one cell on one worker, a worm outbreak as the same
//! with the worm's scan space as the telescope, a radiation rate of zero
//! and `seed_infections(n)`.

use potemkin_gateway::ConfigError;
use potemkin_sim::SimTime;
use potemkin_workload::radiation::RadiationConfig;

use crate::farm::FarmConfig;

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
    pub(crate) sample_interval: SimTime,
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
