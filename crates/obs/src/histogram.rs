//! Log-bucketed histograms with quantile estimation.
//!
//! Latency and size distributions in the experiments span orders of magnitude
//! (sub-microsecond page faults to multi-second VM lifetimes), so buckets
//! grow geometrically: each power of two is split into a fixed number of
//! linear sub-buckets, giving a bounded relative error everywhere — the same
//! scheme HdrHistogram uses, reduced to the essentials.

use std::collections::BTreeMap;

use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};

/// Linear sub-buckets per power of two: the one precision every histogram
/// has, so any two merge and none carries it on the wire.
const SUB_BUCKETS: u64 = 32;

/// A histogram of `u64` samples with geometric buckets.
///
/// Relative quantile error is bounded by `1 / 32`.
///
/// # Examples
///
/// ```
/// use potemkin_obs::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.quantile(0.50);
/// assert!((450..=560).contains(&p50), "p50 = {p50}");
/// ```
#[derive(Clone, Debug)]
pub struct LogHistogram {
    /// counts[b] where b encodes (power, sub-bucket).
    counts: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// Creates an empty histogram.
    #[must_use]
    pub fn new() -> Self {
        // 64 powers of two, each with `SUB_BUCKETS` linear sub-buckets.
        LogHistogram {
            counts: vec![0; 64 * SUB_BUCKETS as usize],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        let sb = SUB_BUCKETS;
        if value < sb {
            // The first `SUB_BUCKETS` values map one-to-one.
            return value as usize;
        }
        let msb = 63 - value.leading_zeros() as u64;
        let shift = msb - sb.trailing_zeros() as u64;
        let sub = (value >> shift) - sb; // in [0, sb)
        ((msb - sb.trailing_zeros() as u64 + 1) * sb + sub) as usize
    }

    fn bucket_low(bucket: usize) -> u64 {
        let sb = SUB_BUCKETS;
        let b = bucket as u64;
        if b < sb {
            return b;
        }
        let power = b / sb - 1 + sb.trailing_zeros() as u64;
        let sub = b % sb;
        (sb + sub) << (power - sb.trailing_zeros() as u64)
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        self.counts[b] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a sample `n` times.
    pub fn record_n(&mut self, value: u64, n: u64) {
        let b = Self::bucket_of(value);
        self.counts[b] += n;
        self.count += n;
        self.sum += u128::from(value) * u128::from(n);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples (zero when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the quantile `q` in `[0, 1]` (returns the lower bound of the
    /// bucket containing the target rank; zero when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Clamp to observed extremes for tighter tails.
                return Self::bucket_low(b).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Merges another histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The summary (`count`, `sum`, `min`, `max`), then only the non-zero
/// buckets as `(index, count)` pairs. A bucket index outside the table,
/// out of ascending order or with a zero count, bucket counts that do not
/// sum to `count`, or a non-empty histogram whose `min` exceeds its `max`
/// (which [`LogHistogram::quantile`] clamps between) is a decode error.
impl Snap for LogHistogram {
    fn snap(&self, w: &mut SnapWriter) {
        w.u64(self.count);
        w.u128(self.sum);
        w.u64(self.min);
        w.u64(self.max);
        let sparse: Vec<(u64, u64)> =
            (0..).zip(&self.counts).filter(|&(_, &c)| c > 0).map(|(i, &c)| (i, c)).collect();
        sparse.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut h = LogHistogram::new();
        h.count = r.u64()?;
        h.sum = r.u128()?;
        h.min = r.u64()?;
        h.max = r.u64()?;
        let mut total = 0u64;
        for (idx, c) in BTreeMap::<u64, u64>::unsnap(r)? {
            let slot = usize::try_from(idx).ok().and_then(|i| h.counts.get_mut(i));
            *slot.filter(|_| c > 0).ok_or_else(|| r.bad())? = c;
            total = total.checked_add(c).ok_or_else(|| r.bad())?;
        }
        if total != h.count || (h.count > 0 && h.min > h.max) {
            return Err(r.bad());
        }
        Ok(h)
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        // Values below `SUB_BUCKETS` land in their own bucket.
        for v in 0..SUB_BUCKETS {
            assert_eq!(LogHistogram::bucket_of(v), v as usize);
            assert_eq!(LogHistogram::bucket_low(v as usize), v);
        }
    }

    #[test]
    fn bucket_low_is_lower_bound_of_bucket() {
        for v in [1u64, 31, 32, 33, 100, 1000, 4096, 1 << 20, u64::MAX / 2] {
            let b = LogHistogram::bucket_of(v);
            let low = LogHistogram::bucket_low(b);
            assert!(low <= v, "low {low} > value {v}");
            // The next bucket's low must be above the value.
            let next_low = LogHistogram::bucket_low(b + 1);
            assert!(v < next_low, "value {v} >= next bucket low {next_low}");
        }
    }

    #[test]
    fn relative_error_bounded() {
        let mut h = LogHistogram::new();
        let v = 123_456_789u64;
        h.record(v);
        let p = h.quantile(1.0);
        let err = (v as f64 - p as f64).abs() / v as f64;
        assert!(err <= 1.0 / 32.0 + 1e-9, "err = {err}");
    }

    #[test]
    fn quantiles_of_uniform_range() {
        let mut h = LogHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5) as f64;
        let p99 = h.quantile(0.99) as f64;
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.05, "p50 = {p50}");
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.05, "p99 = {p99}");
        assert_eq!(h.quantile(0.0), 1);
        // quantile returns a bucket lower bound: within 1/32 of the true max.
        let p100 = h.quantile(1.0) as f64;
        assert!((10_000.0 - p100) / 10_000.0 <= 1.0 / 32.0, "p100 = {p100}");
    }

    #[test]
    fn mean_min_max() {
        let mut h = LogHistogram::new();
        assert_eq!(h.mean(), 0.0);
        h.record(10);
        h.record(20);
        h.record(30);
        assert!((h.mean() - 20.0).abs() < 1e-12);
        assert_eq!(h.min, 10);
        assert_eq!(h.max, 30);
    }

    #[test]
    fn record_n_equivalent_to_loop() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record_n(500, 100);
        for _ in 0..100 {
            b.record(500);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.quantile(0.5), b.quantile(0.5));
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn merge_combines() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.record(1);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min, 1);
        assert_eq!(a.max, 1_000_000);
    }

    #[test]
    fn a_bucket_list_out_of_order_miscounted_or_with_min_over_max_is_refused() {
        let mut h = LogHistogram::new();
        h.record(3);
        h.record(900);
        let bytes = h.to_bytes();
        assert_eq!(
            LogHistogram::from_bytes(&bytes, "hist").map(|h| h.to_bytes()),
            Ok(bytes.clone())
        );
        // The two (index, count) pairs sit at the end, 16 bytes each.
        let pairs = bytes.len() - 32;
        let mut swapped = bytes[..pairs].to_vec();
        swapped.extend_from_slice(&bytes[pairs + 16..]);
        swapped.extend_from_slice(&bytes[pairs..pairs + 16]);
        let mut zero = bytes.clone();
        zero[bytes.len() - 8..].fill(0);
        // `count` is the first field; `min` and `max` follow `sum`.
        let mut miscounted = bytes.clone();
        miscounted[0] += 1;
        let mut inverted = bytes.clone();
        inverted[24..32].copy_from_slice(&1_000u64.to_le_bytes());
        for hostile in [swapped, zero, miscounted, inverted] {
            let decoded = LogHistogram::from_bytes(&hostile, "hist");
            assert_eq!(decoded.err(), Some(SnapshotError::Decode { context: "hist" }));
        }
    }

    #[test]
    fn extreme_values() {
        let mut h = LogHistogram::new();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, u64::MAX);
        assert_eq!(h.quantile(0.0), 0);
    }
}
