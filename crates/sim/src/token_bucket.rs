//! Token-bucket rate limiter.
//!
//! The gateway's containment policy can rate-limit outbound traffic classes
//! (e.g. permit DNS lookups but no faster than N per second per VM). The
//! bucket is driven by explicit virtual time, like everything else in the
//! simulator.

use crate::time::SimTime;

/// A token bucket with a fill rate in tokens/second and a burst capacity.
///
/// # Examples
///
/// ```
/// use potemkin_sim::{SimTime, TokenBucket};
///
/// // 10 tokens/s, burst of 5; starts full.
/// let mut tb = TokenBucket::new(10.0, 5.0);
/// let t0 = SimTime::ZERO;
/// assert!(tb.try_take(t0, 5.0));
/// assert!(!tb.try_take(t0, 1.0), "bucket drained");
/// // After 100ms one token has accumulated.
/// assert!(tb.try_take(SimTime::from_millis(100), 1.0));
/// ```
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: SimTime,
}

impl TokenBucket {
    /// Creates a bucket that starts full.
    ///
    /// `rate` is in tokens per second; `burst` is the bucket capacity. Both
    /// are clamped below at zero; a zero-rate bucket never refills.
    #[must_use]
    pub fn new(rate: f64, burst: f64) -> Self {
        let rate = rate.max(0.0);
        let burst = burst.max(0.0);
        TokenBucket { rate, burst, tokens: burst, last: SimTime::ZERO }
    }

    fn refill(&mut self, now: SimTime) {
        if now > self.last {
            let dt = (now - self.last).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate).min(self.burst);
            self.last = now;
        }
    }

    /// Attempts to take `amount` tokens at virtual time `now`.
    ///
    /// Returns `true` and debits the bucket on success; leaves the bucket
    /// untouched (apart from refill) on failure. Time moving backwards is
    /// treated as "no time elapsed".
    pub fn try_take(&mut self, now: SimTime, amount: f64) -> bool {
        self.refill(now);
        // Tolerate float dust so that exact-rate consumers are not starved.
        if self.tokens + 1e-9 >= amount {
            self.tokens = (self.tokens - amount).max(0.0);
            true
        } else {
            false
        }
    }
}

potemkin_snapshot::snap_struct!(TokenBucket { rate, burst, tokens, last });

#[cfg(test)]
mod tests {
    use super::*;

    /// The token level after refilling to `now`.
    fn available(tb: &mut TokenBucket, now: SimTime) -> f64 {
        tb.refill(now);
        tb.tokens
    }

    #[test]
    fn starts_full_and_drains() {
        let mut tb = TokenBucket::new(1.0, 3.0);
        let t = SimTime::ZERO;
        assert!(tb.try_take(t, 1.0));
        assert!(tb.try_take(t, 1.0));
        assert!(tb.try_take(t, 1.0));
        assert!(!tb.try_take(t, 1.0));
    }

    #[test]
    fn refills_at_rate() {
        let mut tb = TokenBucket::new(2.0, 10.0);
        assert!(tb.try_take(SimTime::ZERO, 10.0));
        // 2 tokens/s for 1.5 s = 3 tokens.
        assert!((available(&mut tb, SimTime::from_millis(1500)) - 3.0).abs() < 1e-6);
        assert!(tb.try_take(SimTime::from_millis(1500), 3.0));
        assert!(!tb.try_take(SimTime::from_millis(1500), 0.5));
    }

    #[test]
    fn capped_at_burst() {
        let mut tb = TokenBucket::new(100.0, 5.0);
        assert!((available(&mut tb, SimTime::from_secs(1000)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn failed_take_does_not_debit() {
        let mut tb = TokenBucket::new(1.0, 2.0);
        assert!(!tb.try_take(SimTime::ZERO, 5.0));
        assert!((available(&mut tb, SimTime::ZERO) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn zero_rate_never_refills() {
        let mut tb = TokenBucket::new(0.0, 1.0);
        assert!(tb.try_take(SimTime::ZERO, 1.0));
        assert!(!tb.try_take(SimTime::from_hours(24), 1.0));
    }

    #[test]
    fn time_regression_is_tolerated() {
        let mut tb = TokenBucket::new(1.0, 4.0);
        assert!(tb.try_take(SimTime::from_secs(10), 4.0));
        // Asking about the past does not mint tokens.
        assert!(available(&mut tb, SimTime::from_secs(5)) < 1e-9);
    }

    #[test]
    fn negative_params_clamped() {
        let mut tb = TokenBucket::new(-5.0, -1.0);
        assert_eq!(tb.rate, 0.0);
        assert_eq!(tb.burst, 0.0);
        assert!(!tb.try_take(SimTime::ZERO, 1.0));
        // Zero-amount takes always succeed.
        assert!(tb.try_take(SimTime::ZERO, 0.0));
    }

    #[test]
    fn exact_rate_consumer_not_starved_by_float_dust() {
        let mut tb = TokenBucket::new(10.0, 1.0);
        let mut t = SimTime::ZERO;
        assert!(tb.try_take(t, 1.0));
        // Take exactly one token every 100 ms for a while.
        for _ in 0..1000 {
            t += SimTime::from_millis(100);
            assert!(tb.try_take(t, 1.0));
        }
    }
}
