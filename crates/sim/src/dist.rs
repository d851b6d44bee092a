//! Probability distributions used by the workload models.
//!
//! The telescope-traffic and worm models in `potemkin-workload` need a small
//! set of distributions with precise, well-tested parameterizations:
//!
//! * [`Exponential`] — inter-arrival times of Poisson scan traffic.
//! * [`Pareto`] — heavy-tailed source on-times and session sizes.
//! * [`Zipf`] — popularity skew across destination ports and prefixes.

use crate::rng::SimRng;

/// Exponential distribution with rate `lambda` (mean `1/lambda`).
///
/// # Examples
///
/// ```
/// use potemkin_sim::{Exponential, SimRng};
///
/// let mut rng = SimRng::seed_from(1);
/// let d = Exponential::with_mean(0.5).unwrap();
/// let x = d.sample(&mut rng);
/// assert!(x >= 0.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    lambda: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean.
    ///
    /// Returns `None` unless `mean` is finite and strictly positive.
    #[must_use]
    pub fn with_mean(mean: f64) -> Option<Self> {
        (mean.is_finite() && mean > 0.0).then(|| Exponential { lambda: 1.0 / mean })
    }

    /// Draws a sample (inverse-CDF method).
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        -rng.f64_open().ln() / self.lambda
    }
}

/// Pareto (type I) distribution with scale `x_min` and shape `alpha`.
///
/// Heavy-tailed: for `alpha <= 1` the mean is infinite — exactly the behaviour
/// needed to model elephant scanning sources on a network telescope.
#[derive(Clone, Copy, Debug)]
pub struct Pareto {
    x_min: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// Returns `None` unless both parameters are finite and strictly positive.
    #[must_use]
    pub fn new(x_min: f64, alpha: f64) -> Option<Self> {
        (x_min.is_finite() && x_min > 0.0 && alpha.is_finite() && alpha > 0.0)
            .then_some(Pareto { x_min, alpha })
    }

    /// Draws a sample (inverse-CDF method); always `>= x_min`.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.x_min / rng.f64_open().powf(1.0 / self.alpha)
    }

    /// The analytic mean, `None` when infinite (`alpha <= 1`): the reference
    /// the sampler's test checks against.
    #[cfg(test)]
    fn mean(&self) -> Option<f64> {
        (self.alpha > 1.0).then(|| self.alpha * self.x_min / (self.alpha - 1.0))
    }
}

/// Zipf distribution over ranks `1..=n` with skew `s`.
///
/// Sampling is by inverted-CDF binary search over precomputed cumulative
/// weights: O(log n) per sample, exact for any `s >= 0`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `1..=n` with exponent `s`.
    ///
    /// Returns `None` if `n == 0` or `s` is negative or non-finite.
    #[must_use]
    pub fn new(n: usize, s: f64) -> Option<Self> {
        if n == 0 || !s.is_finite() || s < 0.0 {
            return None;
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Some(Zipf { cdf })
    }

    /// Draws a rank in `1..=n` (rank 1 is the most popular).
    pub fn sample(&self, rng: &mut SimRng) -> usize {
        let u = rng.f64();
        // partition_point returns the count of entries strictly below u.
        let idx = self.cdf.partition_point(|&c| c < u);
        idx.min(self.cdf.len() - 1) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn exponential_mean_matches() {
        let mut rng = SimRng::seed_from(21);
        let d = Exponential::with_mean(4.0).unwrap();
        let samples: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        let m = mean_of(&samples);
        assert!((m - 4.0).abs() < 0.1, "mean = {m}");
        assert!(samples.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn exponential_rejects_bad_params() {
        assert!(Exponential::with_mean(0.0).is_none());
        assert!(Exponential::with_mean(-1.0).is_none());
        assert!(Exponential::with_mean(f64::NAN).is_none());
        assert!(Exponential::with_mean(f64::INFINITY).is_none());
    }

    #[test]
    fn pareto_respects_minimum_and_mean() {
        let mut rng = SimRng::seed_from(22);
        let d = Pareto::new(2.0, 3.0).unwrap();
        let samples: Vec<f64> = (0..200_000).map(|_| d.sample(&mut rng)).collect();
        assert!(samples.iter().all(|&x| x >= 2.0));
        let m = mean_of(&samples);
        let expect = d.mean().unwrap();
        assert!((m - expect).abs() / expect < 0.05, "mean = {m}, expect = {expect}");
    }

    #[test]
    fn pareto_rejects_bad_params() {
        assert!(Pareto::new(0.0, 1.0).is_none());
        assert!(Pareto::new(1.0, -1.0).is_none());
    }

    #[test]
    fn zipf_rank_one_most_popular() {
        let mut rng = SimRng::seed_from(27);
        let d = Zipf::new(50, 1.2).unwrap();
        let mut counts = vec![0u32; 51];
        for _ in 0..100_000 {
            let r = d.sample(&mut rng);
            assert!((1..=50).contains(&r));
            counts[r] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        assert!(counts[10] > counts[50]);
    }

    #[test]
    fn zipf_uniform_when_s_zero() {
        let mut rng = SimRng::seed_from(28);
        let d = Zipf::new(4, 0.0).unwrap();
        let mut counts = [0u32; 5];
        for _ in 0..100_000 {
            counts[d.sample(&mut rng)] += 1;
        }
        for &c in &counts[1..] {
            assert!((23_000..27_000).contains(&c), "count {c}");
        }
    }

    #[test]
    fn zipf_single_rank_always_one() {
        let mut rng = SimRng::seed_from(31);
        let d = Zipf::new(1, 2.0).unwrap();
        assert_eq!(d.cdf.len(), 1);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut rng), 1);
        }
    }

    #[test]
    fn zipf_extreme_skew_concentrates_on_rank_one() {
        let mut rng = SimRng::seed_from(32);
        let d = Zipf::new(100, 8.0).unwrap();
        let ones = (0..10_000).filter(|_| d.sample(&mut rng) == 1).count();
        assert!(ones > 9_900, "rank-1 draws: {ones}");
    }

    #[test]
    fn zipf_rejects_bad_params() {
        assert!(Zipf::new(0, 1.0).is_none());
        assert!(Zipf::new(5, -1.0).is_none());
        assert!(Zipf::new(5, f64::NAN).is_none());
    }
}
