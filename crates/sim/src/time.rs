//! Virtual time for the discrete-event simulator.
//!
//! [`SimTime`] is a nanosecond-resolution virtual timestamp. It doubles as a
//! duration type: the difference of two `SimTime`s is a `SimTime`, and all the
//! usual arithmetic is defined. Nanosecond resolution in a `u64` covers about
//! 584 years of simulated time, far beyond any honeyfarm experiment.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Rem, Sub, SubAssign};

/// A point in (or span of) virtual time, with nanosecond resolution.
///
/// `SimTime` is ordered, hashable, and cheap to copy. Construction helpers
/// exist for every common unit.
///
/// # Examples
///
/// ```
/// use potemkin_sim::SimTime;
///
/// let t = SimTime::from_millis(1500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// assert_eq!(t + SimTime::from_millis(500), SimTime::from_secs(2));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    nanos: u64,
}

// As its nanosecond count.
potemkin_snapshot::snap_struct!(SimTime { nanos });

impl SimTime {
    /// The zero timestamp (simulation start).
    pub const ZERO: SimTime = SimTime { nanos: 0 };

    /// The largest representable timestamp.
    pub const MAX: SimTime = SimTime { nanos: u64::MAX };

    /// Creates a timestamp from raw nanoseconds.
    #[must_use]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime { nanos }
    }

    /// Creates a timestamp from microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime { nanos: micros * 1_000 }
    }

    /// Creates a timestamp from milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime { nanos: millis * 1_000_000 }
    }

    /// Creates a timestamp from whole seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime { nanos: secs * 1_000_000_000 }
    }

    /// Creates a timestamp from whole minutes.
    #[must_use]
    pub const fn from_mins(mins: u64) -> Self {
        SimTime::from_secs(mins * 60)
    }

    /// Creates a timestamp from whole hours.
    #[must_use]
    pub const fn from_hours(hours: u64) -> Self {
        SimTime::from_secs(hours * 3600)
    }

    /// Creates a timestamp from fractional seconds.
    ///
    /// Negative and non-finite inputs saturate to zero; values beyond the
    /// representable range saturate to [`SimTime::MAX`].
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        let nanos = secs * 1e9;
        if nanos >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime { nanos: nanos as u64 }
        }
    }

    /// Returns the raw nanosecond count.
    #[must_use]
    pub const fn as_nanos(self) -> u64 {
        self.nanos
    }

    /// Returns the timestamp in whole microseconds (truncating).
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.nanos / 1_000
    }

    /// Returns the timestamp in whole milliseconds (truncating).
    #[must_use]
    pub const fn as_millis(self) -> u64 {
        self.nanos / 1_000_000
    }

    /// Returns the timestamp in whole seconds (truncating).
    #[must_use]
    pub const fn as_secs(self) -> u64 {
        self.nanos / 1_000_000_000
    }

    /// Returns the timestamp as fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.nanos as f64 / 1e9
    }

    /// Returns the timestamp as fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.nanos as f64 / 1e6
    }

    /// Saturating addition.
    #[must_use]
    pub const fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime { nanos: self.nanos.saturating_add(rhs.nanos) }
    }

    /// Saturating subtraction (clamps at zero).
    #[must_use]
    pub const fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime { nanos: self.nanos.saturating_sub(rhs.nanos) }
    }

    /// Checked addition, `None` on overflow.
    #[must_use]
    pub const fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        match self.nanos.checked_add(rhs.nanos) {
            Some(nanos) => Some(SimTime { nanos }),
            None => None,
        }
    }

    /// Checked subtraction, `None` on underflow.
    #[must_use]
    pub const fn checked_sub(self, rhs: SimTime) -> Option<SimTime> {
        match self.nanos.checked_sub(rhs.nanos) {
            Some(nanos) => Some(SimTime { nanos }),
            None => None,
        }
    }

    /// Returns `true` if this is the zero timestamp.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.nanos == 0
    }

    /// Multiplies the span by a floating-point factor, saturating.
    #[must_use]
    pub fn mul_f64(self, factor: f64) -> SimTime {
        SimTime::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns the minimum of two timestamps.
    #[must_use]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Returns the maximum of two timestamps.
    #[must_use]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime { nanos: self.nanos + rhs.nanos }
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.nanos += rhs.nanos;
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime { nanos: self.nanos - rhs.nanos }
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.nanos -= rhs.nanos;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;

    fn mul(self, rhs: u64) -> SimTime {
        SimTime { nanos: self.nanos * rhs }
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;

    fn div(self, rhs: u64) -> SimTime {
        SimTime { nanos: self.nanos / rhs }
    }
}

impl Div<SimTime> for SimTime {
    type Output = u64;

    /// Integer ratio of two spans (how many `rhs` fit into `self`).
    fn div(self, rhs: SimTime) -> u64 {
        self.nanos / rhs.nanos
    }
}

impl Rem<SimTime> for SimTime {
    type Output = SimTime;

    fn rem(self, rhs: SimTime) -> SimTime {
        SimTime { nanos: self.nanos % rhs.nanos }
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, Add::add)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({self})")
    }
}

impl fmt::Display for SimTime {
    /// Human-readable rendering with an adaptive unit.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.nanos;
        if n == 0 {
            write!(f, "0s")
        } else if n < 1_000 {
            write!(f, "{n}ns")
        } else if n < 1_000_000 {
            write!(f, "{:.3}us", n as f64 / 1e3)
        } else if n < 1_000_000_000 {
            write!(f, "{:.3}ms", n as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", n as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_constructors_agree() {
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1_000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1_000));
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1_000));
        assert_eq!(SimTime::from_mins(1), SimTime::from_secs(60));
        assert_eq!(SimTime::from_hours(1), SimTime::from_mins(60));
    }

    #[test]
    fn float_roundtrip() {
        let t = SimTime::from_secs_f64(2.25);
        assert_eq!(t.as_nanos(), 2_250_000_000);
        assert!((t.as_secs_f64() - 2.25).abs() < 1e-12);
    }

    #[test]
    fn float_edge_cases() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::INFINITY), SimTime::ZERO.max(SimTime::ZERO));
        assert_eq!(SimTime::from_secs_f64(1e30), SimTime::MAX);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_secs(3);
        let b = SimTime::from_secs(1);
        assert_eq!(a - b, SimTime::from_secs(2));
        assert_eq!(a + b, SimTime::from_secs(4));
        assert_eq!(a * 2, SimTime::from_secs(6));
        assert_eq!(a / 3, SimTime::from_secs(1));
        assert_eq!(a / b, 3);
        assert_eq!(a % SimTime::from_secs(2), SimTime::from_secs(1));
    }

    #[test]
    fn saturating_and_checked() {
        assert_eq!(SimTime::MAX.saturating_add(SimTime::from_secs(1)), SimTime::MAX);
        assert_eq!(SimTime::ZERO.saturating_sub(SimTime::from_secs(1)), SimTime::ZERO);
        assert_eq!(SimTime::MAX.checked_add(SimTime::from_nanos(1)), None);
        assert_eq!(SimTime::ZERO.checked_sub(SimTime::from_nanos(1)), None);
        assert_eq!(
            SimTime::from_secs(2).checked_sub(SimTime::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
    }

    #[test]
    fn display_adapts_units() {
        assert_eq!(SimTime::ZERO.to_string(), "0s");
        assert_eq!(SimTime::from_nanos(17).to_string(), "17ns");
        assert_eq!(SimTime::from_micros(5).to_string(), "5.000us");
        assert_eq!(SimTime::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimTime::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    fn min_max_and_sum() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let total: SimTime = [a, b, b].into_iter().sum();
        assert_eq!(total, SimTime::from_secs(5));
    }

    #[test]
    fn ordering_is_by_nanos() {
        assert!(SimTime::from_millis(999) < SimTime::from_secs(1));
        assert!(SimTime::from_secs(1) <= SimTime::from_millis(1000));
    }
}
