//! Clone timing: the per-stage latency record of a provisioning operation.
//!
//! Reproduces the paper's flash-cloning latency-breakdown table: every
//! provisioning call on a [`crate::host::Host`] returns a [`CloneTiming`]
//! listing each stage and its (virtual-time) cost.

use core::fmt;

use potemkin_sim::SimTime;

/// The per-stage timing record of one provisioning operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CloneTiming {
    stages: Vec<(&'static str, SimTime)>,
}

impl CloneTiming {
    /// Wraps a stage list.
    #[must_use]
    pub fn new(stages: Vec<(&'static str, SimTime)>) -> Self {
        CloneTiming { stages }
    }

    /// The stages in execution order.
    #[must_use]
    pub fn stages(&self) -> &[(&'static str, SimTime)] {
        &self.stages
    }

    /// Total latency across all stages.
    #[must_use]
    pub fn total(&self) -> SimTime {
        self.stages.iter().map(|&(_, t)| t).sum()
    }

    /// The most expensive stage.
    #[must_use]
    pub fn dominant_stage(&self) -> Option<(&'static str, SimTime)> {
        self.stages.iter().copied().max_by_key(|&(_, t)| t)
    }

    /// Appends a stage (used to fold retry backoff into the latency record).
    pub fn push_stage(&mut self, name: &'static str, t: SimTime) {
        self.stages.push((name, t));
    }

    /// Emits this timing into `tracer` as a span tree: one root span named
    /// `root` starting at `start`, with one child span per stage laid
    /// end-to-end in virtual time. A disabled tracer makes this a no-op.
    pub fn emit_spans(
        &self,
        tracer: &mut potemkin_obs::Tracer,
        start: SimTime,
        root: &'static str,
    ) {
        if !tracer.is_enabled() {
            return;
        }
        let span = tracer.begin(start, root);
        let mut at = start;
        for &(name, duration) in &self.stages {
            let stage = tracer.begin(at, name);
            at = at.saturating_add(duration);
            tracer.end(at, stage);
        }
        tracer.end(at, span);
    }
}

impl fmt::Display for CloneTiming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, t) in &self.stages {
            writeln!(f, "  {name:<20} {:>10.3} ms", t.as_millis_f64())?;
        }
        writeln!(f, "  {:<20} {:>10.3} ms", "TOTAL", self.total().as_millis_f64())
    }
}

/// Bounded retry with exponential backoff and jitter, budgeted in virtual
/// time.
///
/// The policy itself is pure: it never draws randomness. The caller supplies
/// the jitter coordinate (a uniform value in `[0, 1)` from its own seeded
/// RNG), so retry schedules stay deterministic per run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (1 means "no retries").
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub(crate) base_backoff: SimTime,
    /// Cap on the exponential term.
    pub(crate) max_backoff: SimTime,
    /// Fraction of the backoff added as jitter (`0.25` means up to +25%).
    pub(crate) jitter_frac: f64,
}

impl RetryPolicy {
    /// Default policy for flash-clone provisioning: three attempts, 10 ms
    /// base backoff doubling to at most 500 ms, 25% jitter.
    #[must_use]
    pub fn default_clone() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: SimTime::from_millis(10),
            max_backoff: SimTime::from_millis(500),
            jitter_frac: 0.25,
        }
    }

    /// Backoff to wait after the `attempt`-th failure (1-based), given a
    /// uniform jitter coordinate in `[0, 1)`.
    ///
    /// The exponential term is `base_backoff * 2^(attempt-1)`, capped at
    /// `max_backoff`; jitter adds up to `jitter_frac` of that on top.
    #[must_use]
    pub fn backoff(&self, attempt: u32, jitter_unit: f64) -> SimTime {
        let doublings = attempt.saturating_sub(1).min(32);
        let exp = (self.base_backoff * (1u64 << doublings)).min(self.max_backoff);
        let jitter = exp.mul_f64(self.jitter_frac.max(0.0) * jitter_unit.clamp(0.0, 1.0));
        exp.saturating_add(jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> CloneTiming {
        CloneTiming::new(vec![
            ("alpha", SimTime::from_millis(10)),
            ("beta", SimTime::from_millis(30)),
            ("gamma", SimTime::from_millis(5)),
        ])
    }

    #[test]
    fn total_sums_stages() {
        assert_eq!(timing().total(), SimTime::from_millis(45));
    }

    #[test]
    fn dominant_stage() {
        assert_eq!(timing().dominant_stage(), Some(("beta", SimTime::from_millis(30))));
        assert_eq!(CloneTiming::new(vec![]).dominant_stage(), None);
    }

    #[test]
    fn display_contains_rows_and_total() {
        let s = timing().to_string();
        assert!(s.contains("alpha"));
        assert!(s.contains("TOTAL"));
        assert!(s.contains("45.000"));
    }

    #[test]
    fn push_stage_extends_the_total() {
        let mut t = timing();
        t.push_stage("retry_backoff", SimTime::from_millis(15));
        assert_eq!(t.total(), SimTime::from_millis(60));
        assert_eq!(t.stages.last(), Some(&("retry_backoff", SimTime::from_millis(15))));
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_attempts: 5,
            base_backoff: SimTime::from_millis(10),
            max_backoff: SimTime::from_millis(35),
            jitter_frac: 0.0,
        };
        assert_eq!(p.backoff(1, 0.0), SimTime::from_millis(10));
        assert_eq!(p.backoff(2, 0.0), SimTime::from_millis(20));
        assert_eq!(p.backoff(3, 0.0), SimTime::from_millis(35)); // capped
        assert_eq!(p.backoff(100, 0.0), SimTime::from_millis(35)); // no overflow
    }

    #[test]
    fn jitter_adds_a_bounded_fraction() {
        let p = RetryPolicy { jitter_frac: 0.5, ..RetryPolicy::default_clone() };
        let base = p.backoff(1, 0.0);
        let jittered = p.backoff(1, 1.0);
        assert!(jittered > base);
        assert!(jittered <= base.mul_f64(1.5).saturating_add(SimTime::from_nanos(1)));
        // Deterministic in the jitter coordinate.
        assert_eq!(p.backoff(2, 0.37), p.backoff(2, 0.37));
    }
}
