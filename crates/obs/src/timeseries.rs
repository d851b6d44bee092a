//! Binned time series.
//!
//! Figures like "packets per second over the run" and "infected honeypots
//! over time" are time series with a fixed bin width. [`TimeSeries`]
//! accumulates values into bins keyed by virtual time and renders the series
//! for the `figures` binary.

use potemkin_sim::SimTime;
use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};

/// A fixed-bin-width time series of `f64` accumulators.
///
/// # Examples
///
/// ```
/// use potemkin_obs::TimeSeries;
/// use potemkin_sim::SimTime;
///
/// let mut ts = TimeSeries::new(SimTime::from_secs(1));
/// ts.add(SimTime::from_millis(500), 1.0);
/// ts.add(SimTime::from_millis(700), 1.0);
/// ts.add(SimTime::from_millis(1200), 1.0);
/// let values: Vec<f64> = ts.iter().map(|(_, v)| v).collect();
/// assert_eq!(values, [2.0, 1.0]);
/// ```
#[derive(Clone, Debug)]
pub struct TimeSeries {
    bin_width: SimTime,
    bins: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    #[must_use]
    pub fn new(bin_width: SimTime) -> Self {
        assert!(!bin_width.is_zero(), "bin width must be non-zero");
        TimeSeries { bin_width, bins: Vec::new() }
    }

    /// The bin index for a timestamp.
    #[must_use]
    pub(crate) fn bin_index(&self, at: SimTime) -> usize {
        (at / self.bin_width) as usize
    }

    /// Adds `value` to the bin containing `at`, growing the series as
    /// needed.
    pub fn add(&mut self, at: SimTime, value: f64) {
        let idx = self.bin_index(at);
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += value;
    }

    /// Sets the bin containing `at` to the max of its current value and
    /// `value` (a peak-tracking series).
    pub fn record_max(&mut self, at: SimTime, value: f64) {
        let idx = self.bin_index(at);
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] = self.bins[idx].max(value);
    }

    /// The number of bins (highest touched bin + 1).
    #[must_use]
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether no bin has been touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Iterates `(bin_start_time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.bins.iter().enumerate().map(move |(i, &v)| (self.bin_width * i as u64, v))
    }

    /// Largest bin value (zero when empty).
    #[must_use]
    pub fn peak(&self) -> f64 {
        self.bins.iter().copied().fold(0.0, f64::max)
    }

    /// Adds `other` into `self` bin-by-bin, growing as needed. Used to fold
    /// per-shard series (e.g. live VMs per cell) into a farm-wide series.
    ///
    /// # Panics
    ///
    /// Panics if the bin widths differ.
    pub fn merge(&mut self, other: &TimeSeries) {
        assert_eq!(self.bin_width, other.bin_width, "cannot merge differing bin widths");
        if other.bins.len() > self.bins.len() {
            self.bins.resize(other.bins.len(), 0.0);
        }
        for (dst, src) in self.bins.iter_mut().zip(other.bins.iter()) {
            *dst += src;
        }
    }
}

/// The bin width, then the raw bins; a zero bin width is a decode error.
impl Snap for TimeSeries {
    fn snap(&self, w: &mut SnapWriter) {
        self.bin_width.snap(w);
        self.bins.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let bin_width = SimTime::unsnap(r)?;
        if bin_width.is_zero() {
            return Err(r.bad());
        }
        Ok(TimeSeries { bin_width, bins: Snap::unsnap(r)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_bins_and_grows() {
        let mut a = TimeSeries::new(SimTime::from_secs(1));
        a.add(SimTime::from_secs(0), 2.0);
        a.add(SimTime::from_secs(1), 3.0);
        let mut b = TimeSeries::new(SimTime::from_secs(1));
        b.add(SimTime::from_secs(1), 5.0);
        b.add(SimTime::from_secs(3), 7.0);
        a.merge(&b);
        assert_eq!(a.bins[0], 2.0);
        assert_eq!(a.bins[1], 8.0);
        assert_eq!(a.bins[2], 0.0);
        assert_eq!(a.bins[3], 7.0);
        assert_eq!(a.len(), 4);
    }

    #[test]
    #[should_panic(expected = "differing bin widths")]
    fn merge_mismatched_widths_panics() {
        let mut a = TimeSeries::new(SimTime::from_secs(1));
        a.merge(&TimeSeries::new(SimTime::from_secs(2)));
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn binning_boundaries() {
        let mut ts = TimeSeries::new(secs(10));
        ts.add(SimTime::ZERO, 1.0);
        ts.add(SimTime::from_millis(9_999), 1.0);
        ts.add(secs(10), 1.0); // exactly on the boundary goes to bin 1
        assert_eq!(ts.bins[0], 2.0);
        assert_eq!(ts.bins[1], 1.0);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    fn sparse_bins_are_zero() {
        let mut ts = TimeSeries::new(secs(1));
        ts.add(secs(5), 1.0);
        assert_eq!(ts.len(), 6);
        for i in 0..5 {
            assert_eq!(ts.bins[i], 0.0);
        }
        assert_eq!(ts.bins[5], 1.0);
    }

    #[test]
    fn record_max_tracks_peaks() {
        let mut ts = TimeSeries::new(secs(1));
        ts.record_max(secs(0), 5.0);
        ts.record_max(secs(0), 3.0);
        ts.record_max(secs(0), 8.0);
        assert_eq!(ts.bins[0], 8.0);
    }

    #[test]
    fn aggregates() {
        let mut ts = TimeSeries::new(secs(1));
        ts.add(secs(0), 1.0);
        ts.add(secs(1), 3.0);
        ts.add(secs(2), 2.0);
        assert_eq!(ts.peak(), 3.0);
    }

    #[test]
    fn iter_yields_bin_starts() {
        let mut ts = TimeSeries::new(secs(2));
        ts.add(secs(3), 1.0);
        let points: Vec<(SimTime, f64)> = ts.iter().collect();
        assert_eq!(points, vec![(secs(0), 0.0), (secs(2), 1.0)]);
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new(secs(1));
        assert!(ts.is_empty());
        assert_eq!(ts.peak(), 0.0);
    }
}
