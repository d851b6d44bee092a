//! Named monotonic counters.
//!
//! Components (gateway, VMM hosts, policy engine) export their telemetry as a
//! [`CounterSet`]; the controller merges them into one report.

use std::collections::BTreeMap;

use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};

/// A set of named monotonic `u64` counters.
///
/// Counters are created on first touch. Names are `&'static str` because the
/// set of telemetry points is fixed at compile time; a BTreeMap keeps reports
/// deterministically ordered.
///
/// # Examples
///
/// ```
/// use potemkin_metrics::CounterSet;
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
    counters: BTreeMap<&'static str, u64>,
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
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Reads a counter (zero if never touched).
    #[must_use]
    pub fn get(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Merges another set into this one by summing matching names.
    pub fn merge(&mut self, other: &CounterSet) {
        for (name, value) in &other.counters {
            *self.counters.entry(name).or_insert(0) += value;
        }
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// The number of distinct counters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counters.len()
    }

    /// Whether no counter has been touched.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }
}

/// A sequence of `(name, value)` pairs in name order. Decoded names are
/// interned into a global table — telemetry names form a small fixed
/// vocabulary, so repeated restores never grow memory beyond it.
impl Snap for CounterSet {
    fn snap(&self, w: &mut SnapWriter) {
        w.seq(&self.counters, |(name, value), w| {
            w.str(name);
            w.u64(*value);
        });
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let mut set = CounterSet::new();
        for _ in 0..r.seq_len()? {
            set.counters.insert(intern(r.str()?), r.u64()?);
        }
        Ok(set)
    }
}

/// Interns a counter name, reusing a previously leaked copy when available.
fn intern(name: &str) -> &'static str {
    use std::collections::BTreeSet;
    use std::sync::{Mutex, OnceLock};
    static TABLE: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    let table = TABLE.get_or_init(|| Mutex::new(BTreeSet::new()));
    let mut guard = table.lock().expect("intern table poisoned");
    if let Some(&existing) = guard.get(name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.into());
    guard.insert(leaked);
    leaked
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
        assert_eq!(c.len(), 2);
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
    fn display_contains_all() {
        let mut c = CounterSet::new();
        c.add("packets", 7);
        let s = c.to_string();
        assert!(s.contains("packets"));
        assert!(s.contains('7'));
    }
}
