//! Deterministic random number generation.
//!
//! [`SimRng`] wraps a `xoshiro256**`-style generator seeded via SplitMix64.
//! Every experiment in the repository derives all randomness from a single
//! user-provided seed, so runs are exactly reproducible. The generator is
//! implemented locally (rather than pulling in `rand_distr`) because the
//! workload models need a handful of distributions with well-understood
//! parameterizations; see [`crate::dist`].

use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};

/// Advances a SplitMix64 state and returns the next value.
///
/// SplitMix64 is used to expand a single `u64` seed into the four words of
/// xoshiro state; it is statistically robust for this purpose and is the
/// seeding procedure recommended by the xoshiro authors.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small, fast, deterministic random number generator (xoshiro256**).
///
/// Not cryptographically secure — it drives simulations, not key material.
///
/// # Examples
///
/// ```
/// use potemkin_sim::SimRng;
///
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

/// The four state words, so a restored generator continues the exact
/// sequence the original would have produced.
impl Snap for SimRng {
    fn snap(&self, w: &mut SnapWriter) {
        self.s.iter().for_each(|word| w.u64(*word));
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(SimRng { s: [r.u64()?, r.u64()?, r.u64()?, r.u64()?] })
    }
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        SimRng { s }
    }

    /// The four state words.
    #[must_use]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Derives an independent child generator from this one.
    ///
    /// Useful for giving each simulated component its own stream so that
    /// adding randomness consumption to one component does not perturb the
    /// sequences seen by others.
    #[must_use]
    pub fn fork(&mut self) -> SimRng {
        SimRng::seed_from(self.next_u64())
    }

    /// Returns the next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Returns the next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased results.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire's method: multiply-high with rejection on the low word.
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: only values below `threshold` are biased.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "range_u64: lo > hi");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(span + 1)
    }

    /// Returns a uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub(crate) fn index(&mut self, bound: usize) -> usize {
        self.below(bound as u64) as usize
    }

    /// Returns a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniform `f64` in the open interval `(0, 1]`.
    ///
    /// Handy for `ln()`-based transforms that must not see zero.
    pub(crate) fn f64_open(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut parent = SimRng::seed_from(99);
        let mut c1 = parent.fork();
        let mut c2 = parent.fork();
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = SimRng::seed_from(3);
        for bound in [1u64, 2, 3, 10, 1000, u64::MAX / 2] {
            for _ in 0..200 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = SimRng::seed_from(4);
        let mut counts = [0u32; 10];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow 5% slack.
            assert!((9_500..10_500).contains(&c), "bucket count {c} out of range");
        }
    }

    #[test]
    fn range_inclusive_endpoints_reachable() {
        let mut rng = SimRng::seed_from(5);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..10_000 {
            match rng.range_u64(10, 12) {
                10 => saw_lo = true,
                12 => saw_hi = true,
                11 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(6);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from(8);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-0.5));
        assert!(rng.chance(1.5));
    }

    #[test]
    fn chance_probability_is_close() {
        let mut rng = SimRng::seed_from(9);
        let hits = (0..100_000).filter(|_| rng.chance(0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "p = {p}");
    }
}
