//! E14 — whole-farm checkpoint/restore: crash-consistent snapshots,
//! integrity verification, and deterministic resume (extension).
//!
//! The paper's honeyfarm is a long-running service; §6 discusses the
//! operational reality of keeping a farm alive across gateway and VMM
//! restarts. This experiment makes the reproduction's durability story
//! measurable with four claims:
//!
//! 1. **Observation purity.** Auto-checkpointing at window barriers is
//!    pure observation: a checkpointed run's report is byte-identical to a
//!    plain [`run_telescope_sharded`] run.
//! 2. **Deterministic resume.** Killing the run mid-outbreak, recovering
//!    the latest snapshot, and resuming produces a final report
//!    byte-identical to the uninterrupted run — at every worker count.
//! 3. **Integrity.** Truncated and bit-flipped snapshots are rejected
//!    with typed errors ([`SnapshotError::TornWrite`],
//!    [`SnapshotError::SectionCorrupt`], [`SnapshotError::DigestMismatch`]),
//!    a snapshot offered to the wrong scenario is rejected with
//!    [`SnapshotError::ConfigMismatch`], and a corrupted primary falls
//!    back to the rotated previous checkpoint.
//! 4. **Robust writes and what-if forks.** Injected transient write
//!    failures are absorbed by bounded deterministic retry without
//!    touching results, and a reseeded fork explores a reproducibly
//!    different branch from the faithful resume.
//!
//! Everything here is virtual-time simulation; `BENCH_snapshot.json`
//! carries no wall-clock fields and is comparable across machines.

use std::path::PathBuf;

use potemkin_core::checkpoint::{
    fork_telescope_checkpointed, read_snapshot, recover_snapshot, resume_telescope_checkpointed,
    run_telescope_checkpointed, CheckpointOptions,
};
use potemkin_core::farm::FarmConfig;
use potemkin_core::parallel::{
    run_telescope_sharded, ShardedTelescopeConfig, ShardedTelescopeResult,
};
use potemkin_core::scenario::TelescopeConfig;
use potemkin_gateway::policy::PolicyConfig;
use potemkin_json::{obj, JsonValue};
use potemkin_obs::Table;
use potemkin_sim::{FaultPlanConfig, SimTime};
use potemkin_snapshot::{fnv1a64, SnapshotError, SnapshotFile};
use potemkin_workload::radiation::RadiationConfig;
use potemkin_workload::worm::WormSpec;

use crate::harness::{hex, sweep, Outcome};

/// Checkpoint cadence: one snapshot per window barrier, so the kill
/// point always has both a primary and a rotated previous checkpoint.
const EVERY_WINDOWS: u64 = 1;

/// One corruption-rejection case.
#[derive(Clone, Debug)]
pub(crate) struct RejectionCase {
    /// Case label (`truncated`, `bit-flip`, `config-mismatch`).
    pub(crate) case: &'static str,
    /// The typed error's variant name (empty when wrongly accepted).
    pub(crate) error: &'static str,
    /// Whether the snapshot was rejected.
    pub(crate) rejected: bool,
}

/// Result of the full experiment.
#[derive(Clone, Debug)]
pub(crate) struct SnapshotResult {
    /// Replay horizon.
    pub(crate) duration: SimTime,
    /// Barrier windows in the horizon.
    pub(crate) windows: u64,
    /// Window after which the mid-outbreak run is killed.
    pub(crate) kill_after_windows: u64,
    /// Canonical digest of the uninterrupted baseline run.
    pub(crate) baseline_digest: u64,
    /// Whether the fully checkpointed run matched the plain run.
    pub(crate) observation_pure: bool,
    /// Checkpoints the full run wrote.
    pub(crate) checkpoints_written: u64,
    /// Encoded size of the recovered mid-outbreak snapshot.
    pub(crate) snapshot_bytes: u64,
    /// Infected VMs at the kill point (the "mid-outbreak" witness).
    pub(crate) infected_at_kill: usize,
    /// Infected VMs at the end of the resumed run.
    pub(crate) final_infected: usize,
    /// `(workers, canonical report digest)` of each resumed run, in input
    /// order.
    pub(crate) resumes: Vec<(usize, u64)>,
    /// Whether every resume matched the baseline digest.
    pub(crate) deterministic: bool,
    /// Retry attempts burned absorbing injected write failures.
    pub(crate) retried_attempts: u64,
    /// Checkpoints skipped after retry exhaustion (run survives).
    pub(crate) retry_skipped: u64,
    /// Whether the flaky-writes run still matched the baseline.
    pub(crate) retry_digest_clean: bool,
    /// Whether a corrupted primary recovered via the rotated previous
    /// checkpoint and resumed to the baseline digest.
    pub(crate) fallback_recovered: bool,
    /// One entry per corruption case, in fixed order.
    pub(crate) rejections: Vec<RejectionCase>,
    /// Whether every corruption case was rejected with a typed error.
    pub(crate) all_rejected: bool,
    /// Whether the reseeded fork diverged from the faithful resume.
    pub(crate) fork_diverges: bool,
    /// Whether the same fork salt reproduced the same branch.
    pub(crate) fork_reproducible: bool,
}

/// The scenario: a code-red outbreak over telescope radiation across four
/// cells, with clone faults enabled so degradation (and therefore the
/// fork branch point) is non-trivial. Guest footprint is trimmed — the
/// snapshot encoder walks every domain page table and host free list, and
/// E14 measures durability semantics, not encoder bandwidth.
fn sharded_config(duration: SimTime) -> ShardedTelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
    farm.frames_per_server = 65_536;
    let mut profile = potemkin_vmm::guest::GuestProfile::small();
    profile.memory_pages = 2_048;
    profile.disk_blocks = 1_024;
    farm.profile = profile;
    farm.worm = Some(WormSpec::code_red("10.1.8.0/24".parse().expect("static prefix")));
    farm.retry = Some(potemkin_vmm::RetryPolicy::default_clone());
    let base = TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(2005)
        .duration(duration)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("fixed telescope config is valid");
    let mut config = ShardedTelescopeConfig::builder(base)
        .cells(4)
        .window(SimTime::from_millis(500))
        .seed_infections(1)
        .build()
        .expect("fixed sharded config is valid");
    // Clone faults draw from each farm's fault RNG, so a reseeded fork's
    // degradation report must diverge from the faithful resume.
    config.faults = Some(FaultPlanConfig {
        clone_failure_prob: 0.1,
        ..FaultPlanConfig::zero(config.base.duration, config.base.farm.servers)
    });
    config
}

/// The canonical report digest — same field set as E11/E13, so "byte
/// identical" means the same thing across the determinism experiments.
fn digest(r: &ShardedTelescopeResult) -> u64 {
    fnv1a64(r.canonical_string().as_bytes())
}

fn error_name(e: &SnapshotError) -> &'static str {
    match e {
        SnapshotError::BadMagic { .. } => "bad-magic",
        SnapshotError::VersionMismatch { .. } => "version-mismatch",
        SnapshotError::TornWrite { .. } => "torn-write",
        SnapshotError::SectionCorrupt { .. } => "section-corrupt",
        SnapshotError::DigestMismatch { .. } => "digest-mismatch",
        SnapshotError::MissingSection { .. } => "missing-section",
        SnapshotError::Decode { .. } => "decode",
        SnapshotError::ConfigMismatch { .. } => "config-mismatch",
        SnapshotError::Io { .. } => "io",
    }
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("potemkin-e14-{}-{name}", std::process::id()));
    p
}

fn cleanup(path: &PathBuf) {
    let _ = std::fs::remove_file(path);
    let mut prev = path.clone();
    if let Some(name) = path.file_name() {
        let mut name = name.to_os_string();
        name.push(".prev");
        prev.set_file_name(name);
        let _ = std::fs::remove_file(&prev);
    }
}

/// Runs all four claims against one scenario.
///
/// # Panics
///
/// Panics if a fixed configuration fails to build or a run fails (a bug).
#[must_use]
pub(crate) fn run(duration: SimTime, worker_counts: &[usize]) -> SnapshotResult {
    let config = sharded_config(duration);
    let windows = duration.as_nanos().div_ceil(config.window.as_nanos());
    // Kill a third of the way in, while the outbreak is still growing. At
    // least two windows must have run before the kill so the rotated
    // previous checkpoint exists for the fallback claim.
    let kill_after_windows = (windows / 3).max(2);
    assert!(windows > kill_after_windows, "horizon too short to kill mid-run");

    // Claim 1: checkpointing is pure observation.
    let baseline = run_telescope_sharded(&config, 1).expect("baseline runs");
    let baseline_digest = digest(&baseline);
    let full_path = temp_path("full.snap");
    let mut options = CheckpointOptions::new(&full_path);
    options.every_windows = EVERY_WINDOWS;
    let full = run_telescope_checkpointed(&config, 1, &options).expect("checkpointed run");
    let observation_pure = digest(&full.result) == baseline_digest;
    let checkpoints_written = full.checkpoints.written;
    cleanup(&full_path);

    // Claim 2: kill mid-outbreak, recover, resume — byte identical at
    // every worker count.
    let kill_path = temp_path("kill.snap");
    let mut kill_options = CheckpointOptions::new(&kill_path);
    kill_options.every_windows = EVERY_WINDOWS;
    kill_options.stop_after_windows = Some(kill_after_windows);
    let killed = run_telescope_checkpointed(&config, 1, &kill_options).expect("killed run");
    assert!(killed.checkpoints.interrupted, "run must stop at the kill window");
    let infected_at_kill = killed.result.final_infected;
    let (snapshot, fell_back) = recover_snapshot(&kill_path).expect("recover latest snapshot");
    assert!(!fell_back, "primary checkpoint must be intact");
    let snapshot_bytes = snapshot.encode().len() as u64;
    let mut resume_options = CheckpointOptions::new(&kill_path);
    resume_options.every_windows = 0; // pure resume: no further writes
    let resumed = sweep(
        worker_counts,
        |workers| {
            resume_telescope_checkpointed(&config, workers, &snapshot, &resume_options)
                .expect("resume runs")
                .result
        },
        |r| (r.engine.total.events_processed, digest(r)),
    );
    let final_infected = resumed.points.last().map_or(0, |p| p.result.final_infected);
    let resumes: Vec<(usize, u64)> = resumed.points.iter().map(|p| (p.param, p.digest)).collect();
    let deterministic = resumes.iter().all(|&(_, digest)| digest == baseline_digest);

    // Claim 4a: transient write failures retry, then skip — never kill
    // the run or touch its results.
    let flaky_path = temp_path("flaky.snap");
    let mut flaky_options = CheckpointOptions::new(&flaky_path);
    flaky_options.every_windows = EVERY_WINDOWS;
    flaky_options.inject_write_failures = 3;
    let flaky = run_telescope_checkpointed(&config, 1, &flaky_options).expect("flaky run");
    let retried_attempts = flaky.checkpoints.retried_attempts;
    let retry_skipped = flaky.checkpoints.skipped;
    let retry_digest_clean = digest(&flaky.result) == baseline_digest;
    cleanup(&flaky_path);

    // Claim 3a: a corrupted primary falls back to the rotated previous
    // checkpoint, which still resumes to the baseline digest.
    let mut bytes = std::fs::read(&kill_path).expect("read primary checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&kill_path, &bytes).expect("corrupt primary checkpoint");
    let fallback_recovered = read_snapshot(&kill_path).is_err()
        && match recover_snapshot(&kill_path) {
            Ok((older, fell_back)) => {
                fell_back
                    && resume_telescope_checkpointed(&config, 1, &older, &resume_options)
                        .is_ok_and(|r| digest(&r.result) == baseline_digest)
            }
            Err(_) => false,
        };
    cleanup(&kill_path);

    // Claim 3b: torn, flipped, and mismatched snapshots are rejected
    // with typed errors.
    let good = snapshot.encode();
    let mut rejections = Vec::with_capacity(3);
    let truncated = SnapshotFile::decode(&good[..good.len() / 3]);
    rejections.push(RejectionCase {
        case: "truncated",
        error: truncated.as_ref().err().map_or("", error_name),
        rejected: truncated.is_err(),
    });
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    let bitflip = SnapshotFile::decode(&flipped);
    rejections.push(RejectionCase {
        case: "bit-flip",
        error: bitflip.as_ref().err().map_or("", error_name),
        rejected: bitflip.is_err(),
    });
    let mut other = sharded_config(duration);
    other.base.seed = 999;
    let mismatch = resume_telescope_checkpointed(&other, 1, &snapshot, &resume_options);
    rejections.push(RejectionCase {
        case: "config-mismatch",
        error: match &mismatch {
            Err(potemkin_core::FarmError::Snapshot(e)) => error_name(e),
            _ => "",
        },
        rejected: mismatch.is_err(),
    });
    let all_rejected = rejections.iter().all(|c| c.rejected && !c.error.is_empty());

    // Claim 4b: a reseeded fork is a reproducible what-if branch.
    let resume_digest = resumes.first().map_or(0, |r| r.1);
    let fork_a =
        fork_telescope_checkpointed(&config, 1, &snapshot, 42, &resume_options).expect("fork runs");
    let fork_b = fork_telescope_checkpointed(&config, 1, &snapshot, 42, &resume_options)
        .expect("fork reruns");
    let fork_reproducible = digest(&fork_a.result) == digest(&fork_b.result);
    let fork_diverges = digest(&fork_a.result) != resume_digest;

    SnapshotResult {
        duration,
        windows,
        kill_after_windows,
        baseline_digest,
        observation_pure,
        checkpoints_written,
        snapshot_bytes,
        infected_at_kill,
        final_infected,
        resumes,
        deterministic,
        retried_attempts,
        retry_skipped,
        retry_digest_clean,
        fallback_recovered,
        rejections,
        all_rejected,
        fork_diverges,
        fork_reproducible,
    }
}

/// Renders the kill/restore/resume sweep.
#[must_use]
pub(crate) fn resume_table(result: &SnapshotResult) -> Table {
    let mut t = Table::new(&["run", "workers", "digest", "matches baseline"])
        .with_title("E14a: kill mid-outbreak, restore, resume — digest vs. uninterrupted run");
    t.row_owned(vec![
        "uninterrupted".to_string(),
        "1".to_string(),
        hex(result.baseline_digest),
        "—".to_string(),
    ]);
    for &(workers, digest) in &result.resumes {
        t.row_owned(vec![
            "resumed".to_string(),
            workers.to_string(),
            hex(digest),
            (digest == result.baseline_digest).to_string(),
        ]);
    }
    t
}

/// Renders the integrity and robustness cases.
#[must_use]
pub(crate) fn integrity_table(result: &SnapshotResult) -> Table {
    let mut t = Table::new(&["case", "typed error", "handled"])
        .with_title("E14b: integrity verification and write robustness");
    for c in &result.rejections {
        t.row_owned(vec![c.case.to_string(), c.error.to_string(), c.rejected.to_string()]);
    }
    t.row_owned(vec![
        "corrupt primary".to_string(),
        "fell back to rotated previous".to_string(),
        result.fallback_recovered.to_string(),
    ]);
    t.row_owned(vec![
        "injected write failures".to_string(),
        format!("{} retries, {} skipped", result.retried_attempts, result.retry_skipped),
        result.retry_digest_clean.to_string(),
    ]);
    t.row_owned(vec![
        "what-if fork".to_string(),
        "diverges, reproducibly".to_string(),
        (result.fork_diverges && result.fork_reproducible).to_string(),
    ]);
    t
}

/// Runs the experiment at `figures` scale (shortened when `fast`) and
/// builds `BENCH_snapshot.json`. Every field is virtual-time canonical —
/// snapshot size is a deterministic function of the scenario.
#[must_use]
pub(crate) fn outcome(fast: bool) -> Outcome {
    let workers: &[usize] = if fast { &[1, 2] } else { &[1, 2, 4] };
    let r = run(SimTime::from_secs(if fast { 3 } else { 6 }), workers);
    let summary = format!(
        "snapshot: {} windows, killed after {}, {} checkpoints, {} bytes; \
         resume deterministic: {}, corruption rejected: {}",
        r.windows,
        r.kill_after_windows,
        r.checkpoints_written,
        r.snapshot_bytes,
        r.deterministic,
        r.all_rejected
    );
    let resume_json = |&(workers, digest): &(usize, u64)| {
        let matches = digest == r.baseline_digest;
        obj! {"workers": workers, "digest": hex(digest), "matches_baseline": matches}
    };
    let rejection_json =
        |c: &RejectionCase| obj! {"case": c.case, "error": c.error, "rejected": c.rejected};
    let pinned = obj! {
        "bench": "snapshot",
        "duration_secs": r.duration.as_secs(),
        "windows": r.windows,
        "kill_after_windows": r.kill_after_windows,
        "baseline_digest": hex(r.baseline_digest),
        "observation_pure": r.observation_pure,
        "checkpoints_written": r.checkpoints_written,
        "snapshot_bytes": r.snapshot_bytes,
        "infected_at_kill": r.infected_at_kill,
        "final_infected": r.final_infected,
        "deterministic": r.deterministic,
        "retried_attempts": r.retried_attempts,
        "retry_skipped": r.retry_skipped,
        "retry_digest_clean": r.retry_digest_clean,
        "fallback_recovered": r.fallback_recovered,
        "all_rejected": r.all_rejected,
        "fork_diverges": r.fork_diverges,
        "fork_reproducible": r.fork_reproducible,
        "resumes": r.resumes.iter().map(resume_json).collect::<JsonValue>(),
        "rejections": r.rejections.iter().map(rejection_json).collect::<JsonValue>(),
    };
    Outcome::default()
        .line(summary)
        .table(resume_table(&r))
        .table(integrity_table(&r))
        .claim("checkpointing_is_pure_observation", r.observation_pure)
        .claim("resume_matches_uninterrupted_run", r.deterministic)
        .claim("corrupt_snapshots_rejected_with_typed_errors", r.all_rejected)
        .claim("corrupt_primary_falls_back_to_previous", r.fallback_recovered)
        .claim("write_failures_leave_digest_clean", r.retry_digest_clean)
        .claim("fork_diverges_reproducibly", r.fork_diverges && r.fork_reproducible)
        .artifact("BENCH_snapshot.json", fast, pinned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_restore_resume_is_byte_identical_and_corruption_is_rejected() {
        let r = run(SimTime::from_secs(2), &[1, 2]);
        assert!(r.observation_pure, "checkpointing must not perturb results");
        assert!(r.deterministic, "a resume digest diverged from the baseline");
        assert!(r.checkpoints_written > 0);
        assert!(r.snapshot_bytes > 0);
        assert!(r.infected_at_kill > 0, "the kill point must be mid-outbreak");
        assert!(r.final_infected >= r.infected_at_kill);
        assert!(r.all_rejected, "corruption cases must be rejected: {:?}", r.rejections);
        assert_eq!(
            r.rejections.iter().map(|c| c.error).collect::<Vec<_>>(),
            // Truncation loses the trailer, a flip trips a CRC or the
            // digest, the wrong scenario trips the fingerprint.
            vec!["torn-write", r.rejections[1].error, "config-mismatch"],
        );
        assert!(matches!(r.rejections[1].error, "section-corrupt" | "digest-mismatch"));
        assert!(r.fallback_recovered, "rotated previous checkpoint must recover");
        assert!(r.retried_attempts >= 2, "injected failures must burn retries");
        assert!(r.retry_digest_clean, "flaky checkpoint writes must not touch results");
        assert!(r.fork_diverges, "a reseeded fork must explore a different branch");
        assert!(r.fork_reproducible, "the same salt must reproduce the same branch");
    }
}
