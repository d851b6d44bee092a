//! The analytic SI epidemic model.
//!
//! The containment experiment releases a worm inside the farm and watches it
//! propagate under reflection. Classic epidemic modeling (Staniford et al.'s
//! random-constant-spread model) predicts logistic growth:
//!
//! `i(t) = N / (1 + (N/i0 − 1) · e^(−β t))`
//!
//! where `β = scan_rate × N / |address space|` is the pairwise contact rate
//! times the population. The simulated outbreak's infection curve is
//! validated against this closed form.

use potemkin_sim::SimTime;

/// Susceptible–Infected epidemic with logistic growth.
#[derive(Clone, Copy, Debug)]
pub struct SiModel {
    /// Vulnerable population size.
    pub(crate) population: f64,
    /// Initially infected count.
    pub(crate) initial_infected: f64,
    /// Probes per second per infected host.
    pub(crate) scan_rate: f64,
    /// Size of the scanned address space.
    pub(crate) address_space: f64,
}

impl SiModel {
    /// Creates a model.
    ///
    /// Returns `None` for degenerate parameters (empty population, zero
    /// space, no initial infection, or initial > population).
    #[must_use]
    pub fn new(
        population: u64,
        initial_infected: u64,
        scan_rate: f64,
        address_space: u64,
    ) -> Option<Self> {
        if population == 0
            || address_space == 0
            || initial_infected == 0
            || initial_infected > population
            || scan_rate.partial_cmp(&0.0) != Some(core::cmp::Ordering::Greater)
        {
            return None;
        }
        Some(SiModel {
            population: population as f64,
            initial_infected: initial_infected as f64,
            scan_rate,
            address_space: address_space as f64,
        })
    }

    /// The epidemic growth exponent β (per second).
    #[must_use]
    pub fn beta(&self) -> f64 {
        self.scan_rate * self.population / self.address_space
    }

    /// Expected infected count at time `t`.
    #[must_use]
    pub fn infected_at(&self, t: SimTime) -> f64 {
        let n = self.population;
        let i0 = self.initial_infected;
        let b = self.beta();
        n / (1.0 + (n / i0 - 1.0) * (-b * t.as_secs_f64()).exp())
    }

    /// The characteristic doubling time in the early exponential phase:
    /// the reference the early-growth test checks `infected_at` against.
    #[cfg(test)]
    fn early_doubling_time(&self) -> SimTime {
        SimTime::from_secs_f64(core::f64::consts::LN_2 / self.beta())
    }
}

/// Susceptible–Infected–Susceptible epidemic: infected hosts *recover* at
/// rate γ and become reinfectable.
///
/// This models the honeyfarm's own dynamics under reflection: recycling an
/// infected VM (idle timeout or hard lifetime cap) scrubs it back to
/// pristine state, so the farm's internal epidemic is an SIS process. The
/// classic threshold applies: when the recovery rate γ exceeds the growth
/// rate β, the epidemic goes extinct; otherwise it settles at the endemic
/// equilibrium `i* = N·(1 − γ/β)` — meaning the farm can bound (or
/// extinguish) its own internal infection level purely by tuning the VM
/// recycle time.
#[derive(Clone, Copy, Debug)]
pub struct SisModel {
    /// The underlying SI parameters.
    pub si: SiModel,
    /// Recovery (recycling) rate γ, per second.
    pub gamma: f64,
}

impl SisModel {
    /// Creates an SIS model; `recycle_time` is the mean infectious period
    /// (γ = 1/recycle_time).
    ///
    /// Returns `None` for degenerate parameters.
    #[must_use]
    pub fn new(
        population: u64,
        initial_infected: u64,
        scan_rate: f64,
        address_space: u64,
        recycle_time: SimTime,
    ) -> Option<Self> {
        let si = SiModel::new(population, initial_infected, scan_rate, address_space)?;
        if recycle_time.is_zero() {
            return None;
        }
        Some(SisModel { si, gamma: 1.0 / recycle_time.as_secs_f64() })
    }

    /// Whether the epidemic sustains itself (β > γ).
    #[must_use]
    pub(crate) fn is_supercritical(&self) -> bool {
        self.si.beta() > self.gamma
    }

    /// The endemic equilibrium `i* = N(1 − γ/β)`, or zero when
    /// subcritical.
    #[must_use]
    pub fn endemic_equilibrium(&self) -> f64 {
        if self.is_supercritical() {
            self.si.population * (1.0 - self.gamma / self.si.beta())
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SiModel {
        // 1000 vulnerable hosts in a /16, scanning 10 probes/s.
        SiModel::new(1_000, 1, 10.0, 65_536).unwrap()
    }

    #[test]
    fn rejects_degenerate_params() {
        assert!(SiModel::new(0, 1, 1.0, 100).is_none());
        assert!(SiModel::new(10, 0, 1.0, 100).is_none());
        assert!(SiModel::new(10, 11, 1.0, 100).is_none());
        assert!(SiModel::new(10, 1, 0.0, 100).is_none());
        assert!(SiModel::new(10, 1, 1.0, 0).is_none());
        assert!(SiModel::new(10, 1, f64::NAN, 100).is_none());
    }

    #[test]
    fn starts_at_initial_and_saturates() {
        let m = model();
        assert!((m.infected_at(SimTime::ZERO) - 1.0).abs() < 1e-9);
        let late = m.infected_at(SimTime::from_hours(10));
        assert!((late - 1_000.0).abs() < 1.0, "late = {late}");
    }

    #[test]
    fn growth_is_monotone() {
        let m = model();
        let mut last = 0.0;
        for s in (0..3600).step_by(60) {
            let i = m.infected_at(SimTime::from_secs(s));
            assert!(i >= last);
            last = i;
        }
    }

    #[test]
    fn early_phase_is_exponential() {
        let m = model();
        let d = m.early_doubling_time();
        // At one doubling time, infections ≈ 2 (from 1), while the
        // population is far from saturation.
        let at_d = m.infected_at(d);
        assert!((at_d - 2.0).abs() < 0.1, "at doubling time: {at_d}");
        let at_2d = m.infected_at(d * 2);
        assert!((at_2d - 4.0).abs() < 0.3, "at 2 doublings: {at_2d}");
    }

    #[test]
    fn faster_scanners_spread_faster() {
        let slow = SiModel::new(1_000, 1, 10.0, 65_536).unwrap();
        let fast = SiModel::new(1_000, 1, 4_000.0, 65_536).unwrap();
        assert!(fast.early_doubling_time() < slow.early_doubling_time() / 100);
    }

    #[test]
    fn denser_population_spreads_faster() {
        let sparse = SiModel::new(100, 1, 10.0, 65_536).unwrap();
        let dense = SiModel::new(10_000, 1, 10.0, 65_536).unwrap();
        assert!(dense.beta() > sparse.beta());
    }

    #[test]
    fn sis_rejects_degenerate_params() {
        assert!(SisModel::new(0, 1, 1.0, 10, SimTime::from_secs(1)).is_none());
        assert!(SisModel::new(10, 1, 1.0, 10, SimTime::ZERO).is_none());
        assert!(SisModel::new(10, 1, 1.0, 10, SimTime::from_secs(1)).is_some());
    }

    #[test]
    fn sis_subcritical_epidemic_goes_extinct() {
        // β = 0.5/s over a /24; recycle every 1 s → γ = 1 > β.
        let m = SisModel::new(256, 8, 0.5, 256, SimTime::from_secs(1)).unwrap();
        assert!(!m.is_supercritical());
        assert_eq!(m.endemic_equilibrium(), 0.0);
    }

    #[test]
    fn sis_supercritical_settles_at_endemic_equilibrium() {
        // β = 2/s, recycle every 10 s → γ = 0.1: i* = 256·(1 − 0.05) = 243.2.
        let m = SisModel::new(256, 1, 2.0, 256, SimTime::from_secs(10)).unwrap();
        assert!(m.is_supercritical());
        let eq = m.endemic_equilibrium();
        assert!((eq - 243.2).abs() < 0.1, "eq = {eq}");
        // The equilibrium is below full saturation — recycling holds the
        // internal infection level down.
        assert!(eq < 256.0);
    }

    #[test]
    fn sis_faster_recycling_lowers_equilibrium() {
        let slow = SisModel::new(256, 1, 2.0, 256, SimTime::from_secs(60)).unwrap();
        let fast = SisModel::new(256, 1, 2.0, 256, SimTime::from_secs(2)).unwrap();
        assert!(fast.endemic_equilibrium() < slow.endemic_equilibrium());
    }
}
