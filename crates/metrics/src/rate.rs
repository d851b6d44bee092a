//! Exponentially-weighted event-rate estimation.
//!
//! The gateway reports its instantaneous inbound packet rate (the load
//! figure the paper's gateway-scalability discussion is about) without
//! storing per-packet history: an exponentially-weighted moving average
//! over inter-event gaps, driven by virtual time.

use potemkin_sim::SimTime;

/// An EWMA estimator of event rate (events/second).
///
/// # Examples
///
/// ```
/// use potemkin_metrics::RateEstimator;
/// use potemkin_sim::SimTime;
///
/// // 100ms time constant: converges within ~0.5s of event time.
/// let mut r = RateEstimator::new(SimTime::from_millis(100));
/// // 100 events at 10ms spacing ≈ 100 events/s.
/// for i in 1..=100u64 {
///     r.record(SimTime::from_millis(i * 10));
/// }
/// let rate = r.rate(SimTime::from_secs(1));
/// assert!((80.0..120.0).contains(&rate), "rate = {rate}");
/// ```
#[derive(Clone, Debug)]
pub struct RateEstimator {
    /// Smoothing horizon: gaps are averaged with time constant τ.
    tau: f64,
    /// Current smoothed rate (events/s).
    rate: f64,
    last: Option<SimTime>,
    events: u64,
}

impl RateEstimator {
    /// Creates an estimator with time constant `tau` (larger = smoother).
    ///
    /// # Panics
    ///
    /// Panics if `tau` is zero.
    #[must_use]
    pub fn new(tau: SimTime) -> Self {
        assert!(!tau.is_zero(), "time constant must be non-zero");
        RateEstimator { tau: tau.as_secs_f64(), rate: 0.0, last: None, events: 0 }
    }

    /// Records one event at virtual time `now`.
    pub fn record(&mut self, now: SimTime) {
        self.events += 1;
        match self.last {
            None => {
                self.last = Some(now);
            }
            Some(last) if now > last => {
                let gap = (now - last).as_secs_f64();
                let inst = 1.0 / gap;
                let alpha = 1.0 - (-gap / self.tau).exp();
                self.rate += alpha * (inst - self.rate);
                self.last = Some(now);
            }
            Some(_) => {
                // Same-instant burst: fold into the estimate as an
                // infinitesimally-spaced event by bumping the rate toward
                // burstiness conservatively (count it, keep the clock).
            }
        }
    }

    /// The smoothed rate, decayed for the idle gap since the last event.
    #[must_use]
    pub fn rate(&self, now: SimTime) -> f64 {
        match self.last {
            None => 0.0,
            Some(last) => {
                let idle = now.saturating_sub(last).as_secs_f64();
                // With no events for `idle`, the estimate decays toward the
                // upper bound 1/idle (you cannot claim a higher rate than
                // the silence allows).
                if idle > 0.0 {
                    self.rate.min(1.0 / idle).max(0.0)
                } else {
                    self.rate
                }
            }
        }
    }

    /// Lifetime event count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.events
    }
}

potemkin_snapshot::snap_struct!(RateEstimator { tau, rate, last, events });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_stream_converges() {
        // EWMA time constant 1 s: after 6 s of a steady 1000/s stream the
        // estimate is within e^-6 ≈ 0.25% of the true rate.
        let mut r = RateEstimator::new(SimTime::from_secs(1));
        for i in 1..=6_000u64 {
            r.record(SimTime::from_millis(i)); // 1000 events/s
        }
        let rate = r.rate(SimTime::from_secs(6));
        assert!((950.0..1_050.0).contains(&rate), "rate = {rate}");
        assert_eq!(r.count(), 6_000);
    }

    #[test]
    fn empty_and_single_event() {
        let r = RateEstimator::new(SimTime::from_secs(1));
        assert_eq!(r.rate(SimTime::from_secs(5)), 0.0);
        let mut r2 = RateEstimator::new(SimTime::from_secs(1));
        r2.record(SimTime::from_secs(1));
        assert_eq!(r2.rate(SimTime::from_secs(1)), 0.0, "one event defines no rate yet");
    }

    #[test]
    fn idle_decay_bounds_the_estimate() {
        let mut r = RateEstimator::new(SimTime::from_secs(1));
        for i in 1..=1_000u64 {
            r.record(SimTime::from_millis(i));
        }
        let busy = r.rate(SimTime::from_secs(1));
        assert!(busy > 500.0);
        // After 100 quiet seconds, the claimable rate is at most 0.01/s.
        let quiet = r.rate(SimTime::from_secs(101));
        assert!(quiet <= 0.011, "quiet rate = {quiet}");
    }

    #[test]
    fn rate_tracks_changes() {
        let mut r = RateEstimator::new(SimTime::from_millis(500));
        // 10/s for 5 seconds.
        for i in 1..=50u64 {
            r.record(SimTime::from_millis(i * 100));
        }
        let slow = r.rate(SimTime::from_secs(5));
        assert!((7.0..13.0).contains(&slow), "slow = {slow}");
        // Then 1000/s for 2 seconds.
        for i in 0..2_000u64 {
            r.record(SimTime::from_secs(5) + SimTime::from_millis(i + 1));
        }
        let fast = r.rate(SimTime::from_secs(7));
        assert!(fast > 300.0, "fast = {fast}");
    }

    #[test]
    fn same_instant_events_do_not_panic_or_inflate() {
        let mut r = RateEstimator::new(SimTime::from_secs(1));
        for _ in 0..100 {
            r.record(SimTime::from_secs(1));
        }
        r.record(SimTime::from_secs(2));
        let rate = r.rate(SimTime::from_secs(2));
        assert!(rate.is_finite());
        assert_eq!(r.count(), 101);
    }
}
