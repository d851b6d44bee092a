//! Concurrency analysis for the paper's scalability argument.
//!
//! Potemkin's central scalability claim is a queueing argument: the number of
//! simultaneously live VMs a honeyfarm needs is (by Little's law) the product
//! of the VM *creation rate* λ and the VM *lifetime* T, so aggressive VM
//! recycling (small T) turns an intractable "one VM per telescope address"
//! requirement into hundreds of VMs. The reproduction of the paper's
//! "VMs required vs. VM lifetime" figure feeds first-contact arrival times
//! into a [`ConcurrencyAnalyzer`] and sweeps T.

use std::collections::HashMap;

use potemkin_sim::SimTime;

/// Result of a concurrency analysis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConcurrencyStats {
    /// Number of intervals analyzed.
    pub intervals: u64,
    /// Maximum number of simultaneously open intervals.
    pub peak: u64,
    /// Time-averaged number of open intervals over the span.
    pub mean: f64,
    /// The observation span used for the average.
    pub(crate) span: SimTime,
    /// Arrival rate λ over the span (intervals per second).
    pub arrival_rate: f64,
}

impl ConcurrencyStats {
    /// Little's-law prediction of mean concurrency for a given lifetime:
    /// `N = λ·T`. The reference the analyzer's test checks against.
    #[cfg(test)]
    fn littles_law_prediction(&self, lifetime: SimTime) -> f64 {
        self.arrival_rate * lifetime.as_secs_f64()
    }
}

/// Sweep-style analyzer: collects `(start, duration)` intervals, then
/// answers concurrency queries.
#[derive(Clone, Debug, Default)]
pub struct ConcurrencyAnalyzer {
    /// (start, duration) pairs.
    intervals: Vec<(SimTime, SimTime)>,
}

impl ConcurrencyAnalyzer {
    /// Creates an empty analyzer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// VM demand under idle recycling, one `ConcurrencyStats` per
    /// `lifetime`: a key (a telescope address) holds a VM from an arrival
    /// until `lifetime` after the last arrival that followed its
    /// predecessor by less than `lifetime` — the gateway's idle-recycling
    /// semantics. `arrivals` are `(key, time)` pairs in time order.
    #[must_use]
    pub fn idle_recycling(
        arrivals: impl IntoIterator<Item = (u32, SimTime)>,
        lifetimes: &[SimTime],
    ) -> Vec<ConcurrencyStats> {
        let mut per_key: HashMap<u32, Vec<SimTime>> = HashMap::new();
        for (key, at) in arrivals {
            per_key.entry(key).or_default().push(at);
        }
        let sessions = |lifetime: SimTime| {
            let mut analyzer = ConcurrencyAnalyzer::new();
            for times in per_key.values() {
                let mut start = times[0];
                for pair in times.windows(2) {
                    if pair[1].saturating_sub(pair[0]) >= lifetime {
                        analyzer.record(start, pair[0] + lifetime - start);
                        start = pair[1];
                    }
                }
                analyzer.record(start, times[times.len() - 1] + lifetime - start);
            }
            analyzer.analyze()
        };
        lifetimes.iter().map(|&lifetime| sessions(lifetime)).collect()
    }

    /// Records an interval starting at `start` lasting `duration`.
    pub fn record(&mut self, start: SimTime, duration: SimTime) {
        self.intervals.push((start, duration));
    }

    /// Analyzes concurrency with each interval's own duration.
    #[must_use]
    pub fn analyze(&self) -> ConcurrencyStats {
        if self.intervals.is_empty() {
            return ConcurrencyStats {
                intervals: 0,
                peak: 0,
                mean: 0.0,
                span: SimTime::ZERO,
                arrival_rate: 0.0,
            };
        }
        // Sweep-line over +1 at start, -1 at end events.
        let mut events: Vec<(SimTime, i64)> = Vec::with_capacity(self.intervals.len() * 2);
        let mut span_end = SimTime::ZERO;
        let mut span_start = SimTime::MAX;
        for &(start, dur) in &self.intervals {
            let end = start.saturating_add(dur);
            events.push((start, 1));
            events.push((end, -1));
            span_end = span_end.max(end);
            span_start = span_start.min(start);
        }
        // Ends sort before starts at the same instant (interval is
        // half-open [start, end)).
        events.sort_by_key(|&(t, delta)| (t, delta));
        let mut current: i64 = 0;
        let mut peak: i64 = 0;
        let mut weighted: f64 = 0.0;
        let mut last = span_start;
        for (t, delta) in events {
            if t > last {
                weighted += current as f64 * (t - last).as_secs_f64();
                last = t;
            }
            current += delta;
            peak = peak.max(current);
        }
        let span = span_end.saturating_sub(span_start);
        let span_secs = span.as_secs_f64();
        ConcurrencyStats {
            intervals: self.intervals.len() as u64,
            peak: peak as u64,
            mean: if span_secs > 0.0 { weighted / span_secs } else { 0.0 },
            span,
            arrival_rate: if span_secs > 0.0 {
                self.intervals.len() as f64 / span_secs
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn idle_recycling_splits_a_session_at_a_gap_of_one_lifetime() {
        // One address: packets at 0 s, 5 s (gap < 10), 60 s (gap >= 10).
        let arrivals = [(1, secs(0)), (1, secs(5)), (1, secs(60))];
        let stats = ConcurrencyAnalyzer::idle_recycling(arrivals, &[secs(10)]);
        assert_eq!(stats[0].intervals, 2, "two sessions: [0,15) and [60,70)");
        assert_eq!(stats[0].peak, 1);
    }

    #[test]
    fn empty_analyzer() {
        let a = ConcurrencyAnalyzer::new();
        let s = a.analyze();
        assert_eq!(s.peak, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.intervals, 0);
    }

    #[test]
    fn disjoint_intervals_peak_one() {
        let mut a = ConcurrencyAnalyzer::new();
        a.record(secs(0), secs(1));
        a.record(secs(2), secs(1));
        a.record(secs(4), secs(1));
        let s = a.analyze();
        assert_eq!(s.peak, 1);
        assert_eq!(s.intervals, 3);
        // 3 seconds busy out of a 5-second span.
        assert!((s.mean - 0.6).abs() < 1e-9, "mean = {}", s.mean);
    }

    #[test]
    fn nested_intervals_stack() {
        let mut a = ConcurrencyAnalyzer::new();
        a.record(secs(0), secs(10));
        a.record(secs(2), secs(2));
        a.record(secs(3), secs(1));
        let s = a.analyze();
        assert_eq!(s.peak, 3);
    }

    #[test]
    fn half_open_semantics_no_phantom_overlap() {
        // [0, 1) and [1, 2) never overlap.
        let mut a = ConcurrencyAnalyzer::new();
        a.record(secs(0), secs(1));
        a.record(secs(1), secs(1));
        assert_eq!(a.analyze().peak, 1);
    }

    #[test]
    fn littles_law_holds_for_poisson_like_arrivals() {
        // Deterministic arrivals at 10/s with 2s lifetime: N = λT = 20.
        let lifetime = secs(2);
        let mut a = ConcurrencyAnalyzer::new();
        for i in 0..1000u64 {
            a.record(SimTime::from_millis(i * 100), lifetime);
        }
        let s = a.analyze();
        let predicted = s.littles_law_prediction(lifetime);
        assert!(
            (s.mean - predicted).abs() / predicted < 0.05,
            "mean {} vs predicted {predicted}",
            s.mean
        );
    }

    #[test]
    fn span_and_rate() {
        let mut a = ConcurrencyAnalyzer::new();
        a.record(secs(10), secs(1));
        a.record(secs(19), secs(1));
        let s = a.analyze();
        assert_eq!(s.span, secs(10));
        assert!((s.arrival_rate - 0.2).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_intervals() {
        let mut a = ConcurrencyAnalyzer::new();
        a.record(secs(1), SimTime::ZERO);
        a.record(secs(1), SimTime::ZERO);
        let s = a.analyze();
        assert_eq!(s.peak, 0, "zero-length intervals never open");
    }
}
