//! The one contract between an experiment and the `figures` binary.
//!
//! Every experiment returns an [`Outcome`]: what to print, the
//! `BENCH_*.json` it owns (if any), and the named claims it makes about its
//! own result. `figures` prints, writes, and fails the run on a false claim
//! or — under `--check DIR` — on any artifact value outside a `measured`
//! member that differs from `DIR`'s copy. The parameter sweeps the
//! determinism experiments share live here too (`sweep`).

use std::path::Path;
use std::time::Instant;

use potemkin_json::{obj, JsonValue};
use potemkin_metrics::Table;

/// One printed item: a summary line or a table.
#[derive(Debug)]
pub enum Block {
    /// A plain line.
    Line(String),
    /// An aligned (or, under `--csv`, comma-separated) table.
    Table(Table),
}

/// What one experiment hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Summary lines and tables, in print order.
    pub blocks: Vec<Block>,
    /// The `BENCH_*.json` this experiment owns: file name and value.
    pub artifact: Option<(&'static str, JsonValue)>,
    /// Side files written under `--out-dir` and never compared (E12's
    /// wall-clock-stamped Chrome trace).
    pub files: Vec<(&'static str, String)>,
    /// Named claims about the result; a false one fails the run.
    pub(crate) claims: Vec<(&'static str, bool)>,
}

impl Outcome {
    /// Appends a summary line.
    #[must_use]
    pub(crate) fn line(mut self, line: String) -> Self {
        self.blocks.push(Block::Line(line));
        self
    }

    /// Appends a table.
    #[must_use]
    pub(crate) fn table(mut self, table: Table) -> Self {
        self.blocks.push(Block::Table(table));
        self
    }

    /// Records a named claim.
    #[must_use]
    pub(crate) fn claim(mut self, name: &'static str, holds: bool) -> Self {
        self.claims.push((name, holds));
        self
    }

    /// Sets the artifact from two objects: `pinned` members are the
    /// behavioural contract `--check` compares; `measured` members depend on
    /// the machine and are not. Run length goes in as `fast` so a short
    /// baseline is never compared with a long run, and the machine
    /// description goes under `measured` so a wall-clock number can be read.
    #[must_use]
    pub(crate) fn artifact(
        mut self,
        file: &'static str,
        fast: bool,
        mut pinned: JsonValue,
        mut measured: JsonValue,
    ) -> Self {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        measured.insert("machine", obj! {"available_parallelism": cores, "profile": profile});
        pinned.insert("fast", fast);
        pinned.insert("measured", measured);
        self.artifact = Some((file, pinned));
        self
    }

    /// Everything wrong with this outcome, one message each: false claims,
    /// and with `baseline_dir` the first pinned value that differs from the
    /// checked-in artifact. Empty means pass.
    #[must_use]
    pub fn failures(&self, baseline_dir: Option<&Path>) -> Vec<String> {
        let mut failures: Vec<String> = self
            .claims
            .iter()
            .filter(|(_, holds)| !holds)
            .map(|(name, _)| format!("claim '{name}' is false"))
            .collect();
        if let (Some(dir), Some((file, value))) = (baseline_dir, &self.artifact) {
            let path = dir.join(file);
            let baseline = std::fs::read_to_string(&path)
                .map_err(|e| e.to_string())
                .and_then(|text| JsonValue::parse(&text).map_err(|e| e.to_string()));
            match baseline {
                Err(e) => failures.push(format!("cannot read baseline {}: {e}", path.display())),
                Ok(baseline) if baseline.get("fast") != value.get("fast") => {
                    failures.push(format!(
                        "baseline {} and this run differ in length (one is --fast, one is not); \
                     nothing else was compared",
                        path.display()
                    ))
                }
                Ok(baseline) => failures.extend(
                    first_difference(file, &baseline, value)
                        .map(|d| format!("differs from baseline {} at {d}", path.display())),
                ),
            }
        }
        failures
    }
}

/// The first key path at which `run` differs from `baseline`, skipping every
/// object member named `measured`.
fn first_difference(path: &str, baseline: &JsonValue, run: &JsonValue) -> Option<String> {
    match (baseline, run) {
        (JsonValue::Object(b), JsonValue::Object(r)) => b
            .keys()
            .chain(r.keys().filter(|k| !b.contains_key(*k)))
            .filter(|k| *k != "measured")
            .find_map(|k| match (b.get(k), r.get(k)) {
                (Some(b), Some(r)) => first_difference(&format!("{path}.{k}"), b, r),
                (Some(_), None) => Some(format!("{path}.{k}: missing from this run")),
                _ => Some(format!("{path}.{k}: missing from the baseline")),
            }),
        (JsonValue::Array(b), JsonValue::Array(r)) if b.len() == r.len() => b
            .iter()
            .zip(r)
            .enumerate()
            .find_map(|(i, (b, r))| first_difference(&format!("{path}[{i}]"), b, r)),
        _ if baseline == run => None,
        _ => Some(format!("{path}: baseline {baseline}, run {run}")),
    }
}

/// One timed run of a sweep.
#[derive(Clone, Debug)]
pub(crate) struct Point<P, R> {
    /// The swept parameter (a worker count, a `(farms, workers)` pair, …).
    pub(crate) param: P,
    /// Wall-clock seconds the run took.
    pub(crate) wall_secs: f64,
    /// Simulation events dispatched per wall-clock second.
    pub(crate) events_per_sec: f64,
    /// Throughput relative to the sweep's first point.
    pub(crate) speedup: f64,
    /// Digest of the run's deterministic report.
    pub(crate) digest: u64,
    /// What the run returned, kept whole: a report is small next to the
    /// run that produced it (full-length e16 peaks at 2.0 GB either way).
    pub(crate) result: R,
}

/// A parameter sweep over one scenario.
#[derive(Clone, Debug)]
pub(crate) struct Sweep<P, R> {
    /// One point per parameter, in input order.
    pub(crate) points: Vec<Point<P, R>>,
    /// Whether every point produced the same digest.
    pub(crate) deterministic: bool,
}

/// Runs and times `run` at each parameter; `measure` (untimed) extracts
/// `(events, digest)` from a result. Each experiment keeps its own digest
/// recipe — they differ on purpose and the digests are pinned.
pub(crate) fn sweep<P: Copy, R>(
    params: &[P],
    mut run: impl FnMut(P) -> R,
    measure: impl Fn(&R) -> (u64, u64),
) -> Sweep<P, R> {
    let mut points: Vec<Point<P, R>> = Vec::with_capacity(params.len());
    for &param in params {
        let start = Instant::now();
        let result = run(param);
        let wall_secs = start.elapsed().as_secs_f64();
        let (events, digest) = measure(&result);
        let events_per_sec = if wall_secs > 0.0 { events as f64 / wall_secs } else { 0.0 };
        let speedup =
            points.first().map_or(1.0, |base| events_per_sec / base.events_per_sec.max(1e-9));
        points.push(Point { param, wall_secs, events_per_sec, speedup, digest, result });
    }
    let deterministic = points.windows(2).all(|w| w[0].digest == w[1].digest);
    Sweep { points, deterministic }
}

impl<P, R> Point<P, R> {
    /// A `measured` row: `row` (an object naming the swept parameter) plus
    /// this point's machine-dependent numbers.
    #[must_use]
    pub(crate) fn timing(&self, mut row: JsonValue) -> JsonValue {
        row.insert("wall_secs", round_to(self.wall_secs, 6));
        row.insert("events_per_sec", round_to(self.events_per_sec, 1));
        row.insert("speedup", round_to(self.speedup, 3));
        row
    }
}

/// A digest as the 16-digit hex string every table and artifact shows.
#[must_use]
pub(crate) fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// `x` rounded to `places` decimals, so artifacts carry `24.94`, not the
/// full mantissa.
#[must_use]
pub(crate) fn round_to(x: f64, places: i32) -> f64 {
    let scale = 10f64.powi(places);
    (x * scale).round() / scale
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(digest: &str, wall: f64) -> Outcome {
        Outcome::default().claim("holds", true).artifact(
            "BENCH_t.json",
            true,
            obj! {"rows": [obj! {"digest": digest}].into_iter().collect::<JsonValue>()},
            obj! {"wall_secs": wall},
        )
    }

    #[test]
    fn a_false_claim_fails_and_a_true_one_passes() {
        assert!(outcome("aa", 1.0).failures(None).is_empty());
        let broken = outcome("aa", 1.0).claim("broken", false);
        assert_eq!(broken.failures(None), vec!["claim 'broken' is false".to_string()]);
    }

    #[test]
    fn check_names_the_first_pinned_difference_and_skips_measured() {
        let dir = std::env::temp_dir().join(format!("potemkin-harness-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(outcome("aa", 1.0).failures(Some(&dir))[0].contains("cannot read baseline"));
        let (file, value) = outcome("aa", 1.0).artifact.unwrap();
        std::fs::write(dir.join(file), value.to_string()).unwrap();
        assert!(outcome("aa", 9.0).failures(Some(&dir)).is_empty(), "measured is not compared");
        let failures = outcome("ab", 1.0).failures(Some(&dir));
        assert!(failures[0].contains("BENCH_t.json.rows[0].digest"), "{failures:?}");
        let long = outcome("aa", 1.0).artifact("BENCH_t.json", false, obj! {}, obj! {});
        assert!(long.failures(Some(&dir))[0].contains("differ in length"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_reports_speedup_against_the_first_point_and_digest_equality() {
        let s = sweep(&[1_u64, 2], |p| p, |_| (100, 7));
        assert!(s.deterministic);
        assert!((s.points[0].speedup - 1.0).abs() < 1e-9);
        assert!(!sweep(&[1_u64, 2], |p| p, |&p| (100, p)).deterministic);
    }
}
