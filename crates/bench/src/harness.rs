//! The one contract between an experiment and the `figures` binary.
//!
//! Every experiment returns an [`Outcome`]: what to print, the
//! `BENCH_*.json` it owns (if any), and the named claims it makes about its
//! own result. An artifact is a behavioural contract only — no key and no
//! claim reads a clock — so `figures` fails the run on a false claim or,
//! under `--check DIR`, on any byte that differs from `DIR`'s copy. The
//! parameter sweeps the determinism experiments share live here too
//! (`sweep`); the wall time they keep is for printed tables only.

use std::path::Path;
use std::time::Instant;

use potemkin_core::parallel::ShardedTelescopeResult;
use potemkin_json::JsonValue;
use potemkin_obs::Table;

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

    /// Sets the artifact. Run length goes in as `fast` so a short
    /// baseline never matches a long run.
    #[must_use]
    pub(crate) fn artifact(mut self, file: &'static str, fast: bool, mut value: JsonValue) -> Self {
        value.insert("fast", fast);
        self.artifact = Some((file, value));
        self
    }

    /// The artifact's file name and its exact on-disk text — what
    /// `--out-dir` writes and what `--check` compares byte for byte.
    #[must_use]
    pub fn artifact_text(&self) -> Option<(&'static str, String)> {
        self.artifact.as_ref().map(|(file, value)| (*file, format!("{value}\n")))
    }

    /// Everything wrong with this outcome, one message each: false claims,
    /// and with `baseline_dir` an artifact whose bytes differ from the
    /// checked-in copy, naming its first differing line. Empty means pass.
    #[must_use]
    pub fn failures(&self, baseline_dir: Option<&Path>) -> Vec<String> {
        let mut failures: Vec<String> = self
            .claims
            .iter()
            .filter(|(_, holds)| !holds)
            .map(|(name, _)| format!("claim '{name}' is false"))
            .collect();
        if let (Some(dir), Some((file, run))) = (baseline_dir, self.artifact_text()) {
            let path = dir.join(file);
            match std::fs::read_to_string(&path) {
                Err(e) => failures.push(format!("cannot read baseline {}: {e}", path.display())),
                Ok(baseline) if baseline != run => {
                    let same = baseline.lines().zip(run.lines()).take_while(|(b, r)| b == r);
                    let line = same.count();
                    let at = |text: &str| {
                        text.lines()
                            .nth(line)
                            .map_or("<end of file>".into(), |l| l.trim().to_string())
                    };
                    failures.push(format!(
                        "differs from baseline {} at line {}: baseline `{}`, run `{}`",
                        path.display(),
                        line + 1,
                        at(&baseline),
                        at(&run)
                    ));
                }
                Ok(_) => {}
            }
        }
        failures
    }
}

/// One timed run of a sweep. The wall-clock fields feed printed tables,
/// never an artifact or a claim.
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
    /// The run's stream digest.
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
    /// Whether every point produced the first point's stream digest.
    pub(crate) deterministic: bool,
}

/// Runs and times `run` at each parameter; `merged` picks the merged
/// telescope report out of a result, whose event count and stream digest
/// the point keeps. The first point that departs from the first is named
/// on stderr with where it departs.
pub(crate) fn sweep<P: Copy + std::fmt::Debug, R>(
    params: &[P],
    mut run: impl FnMut(P) -> R,
    merged: impl Fn(&R) -> &ShardedTelescopeResult,
) -> Sweep<P, R> {
    let mut points: Vec<Point<P, R>> = Vec::with_capacity(params.len());
    for &param in params {
        let start = Instant::now();
        let result = run(param);
        let wall_secs = start.elapsed().as_secs_f64();
        let events = merged(&result).engine.total.events_processed;
        let events_per_sec = if wall_secs > 0.0 { events as f64 / wall_secs } else { 0.0 };
        let speedup =
            points.first().map_or(1.0, |base| events_per_sec / base.events_per_sec.max(1e-9));
        let digest = merged(&result).stream_digest;
        points.push(Point { param, wall_secs, events_per_sec, speedup, digest, result });
    }
    let divergence = points.split_first().and_then(|(first, rest)| {
        rest.iter()
            .find_map(|p| Some((p.param, merged(&first.result).divergence(merged(&p.result))?)))
    });
    if let Some((param, divergence)) = divergence {
        eprintln!("sweep: {param:?} diverged from {:?}: {divergence:?}", params[0]);
    }
    Sweep { points, deterministic: divergence.is_none() }
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
    use potemkin_json::obj;

    fn outcome(digest: &str) -> Outcome {
        Outcome::default().claim("holds", true).artifact(
            "BENCH_t.json",
            true,
            obj! {"rows": [obj! {"digest": digest}].into_iter().collect::<JsonValue>()},
        )
    }

    #[test]
    fn a_false_claim_fails_and_a_true_one_passes() {
        assert!(outcome("aa").failures(None).is_empty());
        let broken = outcome("aa").claim("broken", false);
        assert_eq!(broken.failures(None), vec!["claim 'broken' is false".to_string()]);
    }

    #[test]
    fn check_is_byte_equality_and_names_the_first_differing_line() {
        let dir = std::env::temp_dir().join(format!("potemkin-harness-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        assert!(outcome("aa").failures(Some(&dir))[0].contains("cannot read baseline"));
        let (file, text) = outcome("aa").artifact_text().unwrap();
        std::fs::write(dir.join(file), &text).unwrap();
        assert!(outcome("aa").failures(Some(&dir)).is_empty());
        let failures = outcome("ab").failures(Some(&dir));
        assert!(failures[0].contains("BENCH_t.json at line 4"), "{failures:?}");
        assert!(failures[0].ends_with(r#"baseline `{"digest": "aa"}`, run `{"digest": "ab"}`"#));
        let long = outcome("aa").artifact("BENCH_t.json", false, obj! {});
        assert!(long.failures(Some(&dir))[0].contains("at line 1"));
        std::fs::write(dir.join(file), text.trim_end()).unwrap();
        let failures = outcome("aa").failures(Some(&dir));
        assert!(failures[0].contains("<end of file>"), "{failures:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_reports_speedup_against_the_first_point_and_stream_digest_equality() {
        use potemkin_core::farm::FarmConfig;
        use potemkin_core::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
        use potemkin_core::scenario::TelescopeConfig;
        use potemkin_sim::SimTime;
        use potemkin_workload::radiation::RadiationConfig;
        let run = |seed| {
            let base =
                TelescopeConfig::builder(FarmConfig::small_test(), RadiationConfig::default())
                    .seed(seed)
                    .duration(SimTime::from_secs(2))
                    .build()
                    .unwrap();
            let config = ShardedTelescopeConfig::builder(base).cells(2).build().unwrap();
            run_telescope_sharded(&config, 1).unwrap()
        };
        let same = sweep(&[1_u64, 1], run, |r| r);
        assert!(same.deterministic);
        assert!((same.points[0].speedup - 1.0).abs() < 1e-9);
        assert!(!sweep(&[1_u64, 2], run, |r| r).deterministic);
    }
}
