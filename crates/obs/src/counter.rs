//! Named monotonic counters.
//!
//! Components (gateway, VMM hosts, policy engine) export their telemetry as a
//! [`CounterSet`]; the controller merges them into one report.

use std::borrow::Cow;
use std::collections::BTreeMap;

use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};

/// A set of named monotonic `u64` counters.
///
/// Counters are created on first touch. A name is borrowed when code touches
/// it, so the hot path never allocates, and owned when a snapshot decoded it;
/// either way a BTreeMap keeps reports deterministically ordered.
///
/// # Examples
///
/// ```
/// use potemkin_obs::CounterSet;
///
/// let mut c = CounterSet::new();
/// c.incr("packets_in");
/// c.add("bytes_in", 1500);
/// assert_eq!(c.get("packets_in"), 1);
/// assert_eq!(c.get("bytes_in"), 1500);
/// assert_eq!(c.get("never_touched"), 0);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CounterSet {
    counters: BTreeMap<Cow<'static, str>, u64>,
}

impl CounterSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Increments `name` by one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `delta` to `name`.
    pub fn add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(Cow::Borrowed(name)).or_insert(0) += delta;
    }

    /// Reads a counter (zero if never touched).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Merges another set into this one by summing matching names.
    pub fn merge(&mut self, other: &CounterSet) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_ref(), v))
    }
}

/// A sequence of `(name, value)` pairs in strictly ascending name order, as
/// a map of names is written. A decoded name is owned by the set it was
/// decoded into and freed with it.
impl Snap for CounterSet {
    fn snap(&self, w: &mut SnapWriter) {
        w.seq(&self.counters, |(name, value), w| {
            w.str(name);
            w.u64(*value);
        });
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let counters = BTreeMap::<String, u64>::unsnap(r)?;
        Ok(CounterSet { counters: counters.into_iter().map(|(k, v)| (Cow::Owned(k), v)).collect() })
    }
}

impl core::fmt::Display for CounterSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for (name, value) in self.iter() {
            writeln!(f, "{name:<32} {value:>12}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incr_and_add() {
        let mut c = CounterSet::new();
        c.incr("a");
        c.incr("a");
        c.add("b", 10);
        assert_eq!(c.get("a"), 2);
        assert_eq!(c.get("b"), 10);
        assert_eq!(c.get("c"), 0);
        assert_eq!(c.counters.len(), 2);
    }

    #[test]
    fn merge_sums() {
        let mut a = CounterSet::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = CounterSet::new();
        b.add("y", 3);
        b.add("z", 4);
        a.merge(&b);
        assert_eq!(a.get("x"), 1);
        assert_eq!(a.get("y"), 5);
        assert_eq!(a.get("z"), 4);
    }

    #[test]
    fn iter_is_name_ordered() {
        let mut c = CounterSet::new();
        c.incr("zeta");
        c.incr("alpha");
        c.incr("mid");
        let names: Vec<&str> = c.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn a_name_no_code_uses_round_trips() {
        let mut c = CounterSet::new();
        c.counters.insert(Cow::Owned("never_compiled_in".to_string()), 7);
        c.add("packets_in", 3);
        let mut w = SnapWriter::new();
        c.snap(&mut w);
        let bytes = w.into_bytes();
        let decoded = CounterSet::unsnap(&mut SnapReader::new(&bytes, "counters")).unwrap();
        assert_eq!((decoded.get("never_compiled_in"), &decoded), (7, &c));
    }

    #[test]
    fn display_contains_all() {
        let mut c = CounterSet::new();
        c.add("packets", 7);
        let s = c.to_string();
        assert!(s.contains("packets"));
        assert!(s.contains('7'));
    }
}
