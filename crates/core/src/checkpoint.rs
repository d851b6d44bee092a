//! Whole-farm checkpoint/restore for the sharded telescope driver.
//!
//! A long outbreak replay is exactly the kind of run a machine reboot
//! should not erase. This module serializes *everything* the sharded
//! engine needs to continue — every cell farm (server pool, gateway
//! bindings and flow tables, RNG streams, fault-injector cursor), every
//! pending event queue with original sequence numbers, and the engine's
//! own window progress — into one versioned [`SnapshotFile`] with
//! per-section CRCs and a whole-file digest, written crash-consistently
//! via temp-file + atomic rename.
//!
//! The contract is *deterministic resume*: a run killed at a window
//! barrier and restored from its latest checkpoint produces a final
//! report byte-identical to the uninterrupted run, at any worker count
//! (`tests/prop_snapshot.rs` and experiment E14 enforce this). Three
//! guarantees make that work:
//!
//! 1. **Barrier-aligned capture.** Checkpoints are taken only inside the
//!    engine's barrier hook, when no event is mid-flight and cross-cell
//!    messages for the window have been delivered into their destination
//!    queues.
//! 2. **Complete state, original identities.** Queue entries keep their
//!    FIFO sequence numbers, RNGs their exact word state, the fault
//!    injector its cursor — nothing is re-derived in a way that could
//!    reorder events after restore.
//! 3. **Config fingerprinting.** A snapshot records a fingerprint of the
//!    deterministic configuration; restoring under a different config is
//!    a typed error ([`SnapshotError::ConfigMismatch`]), not a silent
//!    divergence. The observability config is excluded — tracing is
//!    observer-effect-free, so a traced resume of an untraced run is
//!    legal.
//!
//! The auto-checkpoint write path makes up to three attempts at once,
//! with no wait between them: a transient I/O failure never kills the
//! run, it only costs (at worst) one skipped checkpoint. Recovery reads fall back from the
//! newest checkpoint to the rotated previous one ([`recover_snapshot`])
//! when the newest fails integrity validation.
//! [`fork_telescope_checkpointed`] reseeds a restored farm into a
//! deterministic what-if branch instead of replaying the original
//! timeline.
//!
//! The three entry points are one body over `parallel::run_cells`,
//! differing only in where the run starts. A config lowered from a
//! federated one checkpoints through them too: its snapshot adds one
//! `federation.router` and one `cell<i>.fed` section per cell — only
//! then, so a plain snapshot's bytes and fingerprint never moved.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::path::{Path, PathBuf};
use std::sync::PoisonError;

use potemkin_obs::{names as obs, Tracer};
use potemkin_sim::{BarrierControl, Shard, ShardProgress, SimTime};
use potemkin_snapshot::{fnv1a64, write_atomic, Fnv64, Snap, SnapshotError, SnapshotFile};

use crate::error::FarmError;
use crate::parallel::{
    assemble_result, decode_cell_queue, encode_cell_aux, encode_cell_queue, restore_cell_aux,
    run_cells, CellWorld, Lane, ShardedTelescopeConfig, ShardedTelescopeResult,
};

/// Write attempts per checkpoint before it is skipped.
const WRITE_ATTEMPTS: u32 = 3;

/// How a checkpointed run writes its snapshots.
#[derive(Clone, Debug)]
pub struct CheckpointOptions {
    /// Destination file. Written atomically; the previous checkpoint is
    /// rotated to `<path>.prev` first, so one good snapshot survives even
    /// a corrupted write.
    pub path: PathBuf,
    /// Checkpoint every N window barriers (`1` = every window).
    pub every_windows: u64,
    /// Test hook: fail this many write attempts with a synthetic
    /// transient I/O error before letting writes through. Deterministic,
    /// so faulted checkpoint runs replay bit-identically.
    pub inject_write_failures: u32,
    /// Kill switch: stop the run (as if the process died) after this many
    /// windows have executed. `None` runs to the horizon.
    pub stop_after_windows: Option<u64>,
}

impl CheckpointOptions {
    /// Checkpoint every window to `path`.
    #[must_use]
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CheckpointOptions {
            path: path.into(),
            every_windows: 1,
            inject_write_failures: 0,
            stop_after_windows: None,
        }
    }
}

/// What the checkpoint side of a run did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Snapshots successfully written.
    pub written: u64,
    /// Checkpoints abandoned after exhausting retries (the run continued).
    pub skipped: u64,
    /// Total write attempts beyond the first, across all checkpoints.
    pub retried_attempts: u64,
    /// Encoded size of the most recent snapshot, in bytes.
    pub last_snapshot_bytes: u64,
    /// Content digest of the most recent snapshot.
    pub last_digest: u64,
    /// Whether the run was stopped at a barrier by `stop_after_windows`.
    pub interrupted: bool,
}

/// A finished (or deliberately killed) checkpointed run.
#[derive(Clone, Debug)]
pub struct CheckpointedRun {
    /// The merged telescope result. For an interrupted run this covers
    /// only the windows executed before the kill.
    pub result: ShardedTelescopeResult,
    /// Checkpoint-side accounting.
    pub checkpoints: CheckpointReport,
}

/// Fingerprint of every configuration field that affects deterministic
/// results — for a config lowered from a federated one, the farm grouping
/// and admission policy too, the adaptive window controller when one is
/// set, and a digest of the capture's `(stamp, wire bytes)` when one is
/// replayed (each appended only then, so no other snapshot's fingerprint
/// moved). The trace config is deliberately excluded (tracing is
/// observer-effect-free by the `prop_obs` rule), so traced and untraced
/// runs share snapshots; so is `tuning.rebalance`, which is
/// digest-invariant.
#[must_use]
pub(crate) fn config_fingerprint(config: &ShardedTelescopeConfig) -> u64 {
    let mut canonical = format!(
        "{:?}|{}|{:?}|{:?}|{:?}|{}",
        config.base,
        config.cells,
        config.cell_map,
        config.window,
        config.faults,
        config.seed_infections
    );
    if let Some(plan) = &config.federation {
        canonical.push_str(&format!("|{plan:?}"));
    }
    if let Some(adaptive) = &config.tuning.adaptive {
        canonical.push_str(&format!("|{adaptive:?}"));
    }
    if let Some(capture) = &config.capture {
        let mut digest = Fnv64::new();
        for event in capture.events() {
            // A wire image carries its own length (IPv4 total length).
            digest.update(&event.at.as_nanos().to_le_bytes());
            digest.update(event.packet.wire());
        }
        canonical.push_str(&format!("|capture {:016x}", digest.finish()));
    }
    fnv1a64(canonical.as_bytes())
}

/// Assembles the whole-farm snapshot at a window barrier; the federation
/// sections exist only when the cells carry a hop.
fn encode_snapshot(
    config: &ShardedTelescopeConfig,
    progress: &ShardProgress,
    shards: &[Shard<CellWorld>],
) -> SnapshotFile {
    let mut file = SnapshotFile::new(config_fingerprint(config));
    file.push("progress", progress.to_bytes());
    for (cell, shard) in shards.iter().enumerate() {
        file.push(&format!("cell{cell}.farm"), shard.world.farm.encode_state());
        file.push(&format!("cell{cell}.world"), encode_cell_aux(&shard.world));
        file.push(
            &format!("cell{cell}.queue"),
            encode_cell_queue(&shard.queue, &shard.world.packets),
        );
        if let Some(hop) = &shard.world.hop {
            file.push(&format!("cell{cell}.fed"), hop.encode_fed_aux());
        }
    }
    if let Some(hop) = shards.first().and_then(|s| s.world.hop.as_ref()) {
        let router = hop.router.lock().unwrap_or_else(PoisonError::into_inner);
        file.push("federation.router", router.encode_state());
    }
    file
}

/// Restores a decoded snapshot into freshly prepared shards.
pub(crate) fn restore_snapshot(
    config: &ShardedTelescopeConfig,
    file: &SnapshotFile,
    shards: &mut [Shard<CellWorld>],
) -> Result<ShardProgress, SnapshotError> {
    let offered = config_fingerprint(config);
    if file.config_fingerprint != offered {
        return Err(SnapshotError::ConfigMismatch { stored: file.config_fingerprint, offered });
    }
    // The fingerprint covers the cell count, window, duration and seed;
    // the per-shard progress must still name every cell.
    const PROGRESS: &str = "core.checkpoint.progress";
    let progress = ShardProgress::from_bytes(file.section("progress")?, PROGRESS)?;
    if progress.per_shard.len() != shards.len() {
        return Err(SnapshotError::Decode { context: PROGRESS });
    }
    for (cell, shard) in shards.iter_mut().enumerate() {
        shard.world.farm.restore_state(file.section(&format!("cell{cell}.farm"))?)?;
        restore_cell_aux(&mut shard.world, file.section(&format!("cell{cell}.world"))?)?;
        shard.queue = decode_cell_queue(
            file.section(&format!("cell{cell}.queue"))?,
            &mut shard.world.packets,
        )?;
        if let Some(hop) = &mut shard.world.hop {
            hop.restore_fed_aux(file.section(&format!("cell{cell}.fed"))?)?;
        }
    }
    if let Some(hop) = shards.first().and_then(|s| s.world.hop.as_ref()) {
        let router = file.section("federation.router")?;
        hop.router.lock().unwrap_or_else(PoisonError::into_inner).restore_state(router)?;
    }
    Ok(progress)
}

/// Reads and validates a snapshot file, falling back to the rotated
/// `<path>.prev` checkpoint when the newest one is missing or fails
/// integrity validation. Returns the decoded snapshot and whether the
/// fallback was taken.
///
/// # Errors
///
/// Returns the *primary* snapshot's error when neither file validates
/// (the fallback's own failure is strictly less interesting).
pub fn recover_snapshot(path: &Path) -> Result<(SnapshotFile, bool), SnapshotError> {
    let primary = read_snapshot(path);
    match primary {
        Ok(file) => Ok((file, false)),
        Err(primary_err) => match read_snapshot(&rotated_path(path)) {
            Ok(file) => Ok((file, true)),
            Err(_) => Err(primary_err),
        },
    }
}

/// Reads and fully validates one snapshot file.
///
/// # Errors
///
/// Any [`SnapshotError`]: I/O failure, torn write, bad magic/version,
/// section CRC or whole-file digest mismatch.
pub fn read_snapshot(path: &Path) -> Result<SnapshotFile, SnapshotError> {
    let bytes =
        std::fs::read(path).map_err(|e| SnapshotError::Io { op: "read", kind: e.kind() })?;
    SnapshotFile::decode(&bytes)
}

fn rotated_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(String::new, |n| n.to_string_lossy().into_owned());
    name.push_str(".prev");
    path.with_file_name(name)
}

/// The per-barrier checkpoint driver shared by fresh and resumed runs.
pub(crate) struct CheckpointSink<'a> {
    config: &'a ShardedTelescopeConfig,
    options: &'a CheckpointOptions,
    report: CheckpointReport,
    remaining_failures: u32,
    /// Snapshot-lane tracer ([`Lane::Snapshot`]), present only when the run
    /// is traced. Emits one `snap.save` span per checkpoint with the
    /// encoded size as a `snap.bytes` counter — never any result field.
    tracer: Option<Tracer>,
}

impl<'a> CheckpointSink<'a> {
    fn new(config: &'a ShardedTelescopeConfig, options: &'a CheckpointOptions) -> Self {
        let tracer = config
            .trace
            .map(|trace_config| Tracer::new(Lane::Snapshot.number(config.cells), trace_config));
        CheckpointSink {
            config,
            options,
            report: CheckpointReport::default(),
            remaining_failures: options.inject_write_failures,
            tracer,
        }
    }

    /// Records that the run about to start was restored from `snapshot`
    /// at virtual time `at` (a `snap.restore` span on the snapshot lane).
    pub(crate) fn restored(&mut self, at: SimTime, snapshot: &SnapshotFile) {
        if let Some(tracer) = self.tracer.as_mut() {
            let span = tracer.begin(at, obs::SNAP_RESTORE);
            tracer.counter(at, "snap.bytes", snapshot.encode().len() as u64);
            tracer.end(at, span);
        }
    }

    /// Runs at every barrier; returns the engine control decision.
    pub(crate) fn on_barrier(
        &mut self,
        progress: &ShardProgress,
        shards: &mut [Shard<CellWorld>],
    ) -> BarrierControl {
        if self.options.every_windows > 0
            && progress.windows.is_multiple_of(self.options.every_windows)
        {
            self.save(progress, shards);
        }
        if self.options.stop_after_windows.is_some_and(|stop| progress.windows >= stop) {
            self.report.interrupted = true;
            return BarrierControl::Stop;
        }
        BarrierControl::Continue
    }

    fn save(&mut self, progress: &ShardProgress, shards: &[Shard<CellWorld>]) {
        let file = encode_snapshot(self.config, progress, shards);
        let digest = file.digest();
        let bytes = file.encode();
        let path = &self.options.path;
        let span = self.tracer.as_mut().map(|t| t.begin(progress.window_start, obs::SNAP_SAVE));
        let (mut made, mut written) = (0, false);
        while !written && made < WRITE_ATTEMPTS {
            made += 1;
            written = if self.remaining_failures > 0 {
                self.remaining_failures -= 1;
                false
            } else {
                rotate_previous(path);
                write_atomic(path, &bytes).is_ok()
            };
        }
        self.report.retried_attempts += u64::from(made - 1);
        if written {
            self.report.written += 1;
            self.report.last_snapshot_bytes = bytes.len() as u64;
            self.report.last_digest = digest;
        } else {
            // The run survives a failed checkpoint; it only loses the
            // ability to resume from this barrier.
            self.report.skipped += 1;
        }
        if let (Some(tracer), Some(span)) = (self.tracer.as_mut(), span) {
            tracer.counter(progress.window_start, "snap.bytes", bytes.len() as u64);
            tracer.end(progress.window_start, span);
        }
    }

    /// Folds the snapshot lane into an assembled result's trace.
    fn finish_into(mut self, result: &mut ShardedTelescopeResult) -> CheckpointReport {
        if let Some(mut tracer) = self.tracer.take() {
            let events = tracer.drain();
            if !events.is_empty() {
                result.trace.extend(events);
                result.trace.sort_by_key(|e| (e.at, e.lane, e.seq));
                let lane = Lane::Snapshot.number(self.config.cells);
                result.trace_lanes.push((lane, "snapshot".to_string()));
            }
        }
        self.report
    }
}

/// Best-effort rotation of the existing checkpoint to `<path>.prev` so a
/// torn or corrupted write of the new one cannot destroy the only copy.
fn rotate_previous(path: &Path) {
    if path.exists() {
        let _ = std::fs::rename(path, rotated_path(path));
    }
}

/// The one body of the three checkpointed entry points: run the cells —
/// fresh, resumed or forked, per `resume` — under a [`CheckpointSink`].
fn checkpointed(
    config: &ShardedTelescopeConfig,
    workers: usize,
    resume: Option<(&SnapshotFile, Option<u64>)>,
    options: &CheckpointOptions,
) -> Result<CheckpointedRun, FarmError> {
    let mut sink = CheckpointSink::new(config, options);
    let (run, engine) = run_cells(config, workers, resume, Some(&mut sink))?;
    let mut result = assemble_result(config, run, engine);
    let checkpoints = sink.finish_into(&mut result);
    Ok(CheckpointedRun { result, checkpoints })
}

/// Runs a sharded telescope replay with periodic whole-farm checkpoints.
///
/// Identical to [`run_telescope_sharded`] in every deterministic result
/// field (checkpointing is pure observation), plus snapshot writes at
/// window barriers per `options`. With `options.stop_after_windows` set,
/// the run is killed at that barrier — models a process death for
/// restore experiments — and `checkpoints.interrupted` is `true`.
///
/// # Errors
///
/// Returns [`FarmError::Config`] for the same rejects as
/// [`run_telescope_sharded`]. Checkpoint write failures are *not*
/// errors: the retry loop absorbs transients and exhaustion only
/// increments `checkpoints.skipped`.
///
/// [`run_telescope_sharded`]: crate::parallel::run_telescope_sharded
pub fn run_telescope_checkpointed(
    config: &ShardedTelescopeConfig,
    workers: usize,
    options: &CheckpointOptions,
) -> Result<CheckpointedRun, FarmError> {
    checkpointed(config, workers, None, options)
}

/// Resumes a killed run from a decoded snapshot and runs it to the
/// horizon, continuing the periodic checkpoints.
///
/// The final result is byte-identical (in every deterministic field) to
/// the run that was never killed, for any worker count.
///
/// # Errors
///
/// [`FarmError::Snapshot`] when the snapshot fails fingerprint or
/// structural validation; [`FarmError::Config`] for config rejects.
pub fn resume_telescope_checkpointed(
    config: &ShardedTelescopeConfig,
    workers: usize,
    snapshot: &SnapshotFile,
    options: &CheckpointOptions,
) -> Result<CheckpointedRun, FarmError> {
    checkpointed(config, workers, Some((snapshot, None)), options)
}

/// Restores a snapshot, then *reseeds* every cell farm's RNG streams with
/// `salt` before resuming — a deterministic what-if branch of the
/// captured outbreak instead of a faithful replay. Two forks with the
/// same salt are identical; different salts diverge.
///
/// # Errors
///
/// Same as [`resume_telescope_checkpointed`].
pub fn fork_telescope_checkpointed(
    config: &ShardedTelescopeConfig,
    workers: usize,
    snapshot: &SnapshotFile,
    salt: u64,
    options: &CheckpointOptions,
) -> Result<CheckpointedRun, FarmError> {
    checkpointed(config, workers, Some((snapshot, Some(salt))), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::FarmConfig;
    use crate::parallel::run_telescope_sharded;
    use crate::scenario::TelescopeConfig;
    use potemkin_gateway::policy::PolicyConfig;
    use potemkin_workload::radiation::{RadiationConfig, RadiationModel};
    use potemkin_workload::trace::Trace;
    use potemkin_workload::worm::WormSpec;
    use std::sync::Arc;

    /// A deliberately small scenario: checkpoint encoding walks every
    /// domain page table and every host free list, so tests trim the guest
    /// footprint (1 Ki pages) and frame pool to keep per-window snapshots
    /// cheap in debug builds.
    fn sharded_config(cells: usize) -> ShardedTelescopeConfig {
        let mut farm = FarmConfig::small_test();
        farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
        farm.frames_per_server = 32_768;
        let mut profile = potemkin_vmm::guest::GuestProfile::small();
        profile.memory_pages = 1_024;
        profile.disk_blocks = 512;
        farm.profile = profile;
        farm.worm = Some(WormSpec::code_red("10.1.8.0/26".parse().unwrap()));
        ShardedTelescopeConfig::builder(TelescopeConfig {
            farm,
            radiation: RadiationConfig::default(),
            seed: 11,
            duration: SimTime::from_secs(3),
            sample_interval: SimTime::from_secs(1),
            tick_interval: SimTime::from_secs(1),
        })
        .cells(cells)
        .window(SimTime::from_millis(500))
        .seed_infections(1)
        .build()
        .unwrap()
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("potemkin-ckpt-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn checkpointed_run_matches_plain_run() {
        let config = sharded_config(2);
        let path = temp_path("plain.snap");
        let plain = run_telescope_sharded(&config, 1).unwrap();
        let checked =
            run_telescope_checkpointed(&config, 1, &CheckpointOptions::new(&path)).unwrap();
        assert_eq!(
            plain.canonical_string(),
            checked.result.canonical_string(),
            "checkpointing is pure observation"
        );
        assert!(checked.checkpoints.written > 0);
        assert!(!checked.checkpoints.interrupted);
        assert!(path.exists());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(rotated_path(&path));
    }

    #[test]
    fn kill_restore_resume_is_byte_identical() {
        let config = sharded_config(2);
        let path = temp_path("resume.snap");
        let uninterrupted = run_telescope_sharded(&config, 1).unwrap();

        let mut options = CheckpointOptions::new(&path);
        options.stop_after_windows = Some(4);
        let killed = run_telescope_checkpointed(&config, 1, &options).unwrap();
        assert!(killed.checkpoints.interrupted);

        let (snapshot, fell_back) = recover_snapshot(&path).unwrap();
        assert!(!fell_back);
        options.stop_after_windows = None;
        for workers in [1, 2] {
            let resumed =
                resume_telescope_checkpointed(&config, workers, &snapshot, &options).unwrap();
            assert_eq!(
                uninterrupted.canonical_string(),
                resumed.result.canonical_string(),
                "workers={workers}"
            );
            assert!(!resumed.checkpoints.interrupted);
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(rotated_path(&path));
    }

    #[test]
    fn injected_write_failures_retry_then_skip_without_killing_the_run() {
        let config = sharded_config(1);
        let path = temp_path("faulty.snap");
        let mut options = CheckpointOptions::new(&path);
        // First checkpoint exhausts all three attempts and is skipped; the
        // second loses one attempt to the last injected failure and then
        // lands.
        options.inject_write_failures = WRITE_ATTEMPTS + 1;
        let run = run_telescope_checkpointed(&config, 1, &options).unwrap();
        assert!(run.checkpoints.skipped >= 1, "{:?}", run.checkpoints);
        assert!(run.checkpoints.written >= 1, "{:?}", run.checkpoints);
        assert!(run.checkpoints.retried_attempts >= 2);
        let plain = run_telescope_sharded(&config, 1).unwrap();
        assert_eq!(
            plain.canonical_string(),
            run.result.canonical_string(),
            "faulted writes don't touch results"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(rotated_path(&path));
    }

    #[test]
    fn corrupted_primary_falls_back_to_rotated_previous() {
        let config = sharded_config(1);
        let path = temp_path("fallback.snap");
        let mut options = CheckpointOptions::new(&path);
        options.stop_after_windows = Some(4);
        run_telescope_checkpointed(&config, 1, &options).unwrap();
        assert!(rotated_path(&path).exists(), "rotation kept the previous checkpoint");
        let plain = run_telescope_sharded(&config, 1).unwrap().canonical_string();
        // Resumed runs checkpoint elsewhere, so every case below reads the
        // files the killed run left.
        let resumed_path = temp_path("fallback-resumed.snap");
        let resume_options = CheckpointOptions::new(&resumed_path);
        let resume = |snapshot: &SnapshotFile| {
            let run = resume_telescope_checkpointed(&config, 1, snapshot, &resume_options);
            run.unwrap().result.canonical_string()
        };

        // Flip a byte mid-file: the primary must fail integrity
        // validation and recovery must fall back.
        let newest = std::fs::read(&path).unwrap();
        let mut bytes = newest.clone();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_snapshot(&path).is_err());
        let (snapshot, fell_back) = recover_snapshot(&path).unwrap();
        assert!(fell_back);
        // The fallback is one checkpoint older but still resumable.
        assert_eq!(plain, resume(&snapshot));

        // A crash inside `save`, after `rotate_previous` and before
        // `write_atomic`, leaves no primary: only `.prev`, which now holds
        // the newest checkpoint.
        std::fs::write(&path, &newest).unwrap();
        rotate_previous(&path);
        assert!(!path.exists());
        let (snapshot, fell_back) = recover_snapshot(&path).unwrap();
        assert!(fell_back);
        assert_eq!(snapshot.digest(), SnapshotFile::decode(&newest).unwrap().digest());
        assert_eq!(plain, resume(&snapshot));
        for p in [&path, &resumed_path] {
            let _ = std::fs::remove_file(p);
            let _ = std::fs::remove_file(rotated_path(p));
        }
    }

    #[test]
    fn truncated_and_bitflipped_snapshots_are_rejected_with_typed_errors() {
        let config = sharded_config(1);
        let path = temp_path("reject.snap");
        let mut options = CheckpointOptions::new(&path);
        options.stop_after_windows = Some(2);
        run_telescope_checkpointed(&config, 1, &options).unwrap();
        let bytes = std::fs::read(&path).unwrap();

        assert!(matches!(
            SnapshotFile::decode(&bytes[..bytes.len() / 3]),
            Err(SnapshotError::TornWrite { .. })
        ));
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(
            SnapshotFile::decode(&flipped),
            Err(SnapshotError::SectionCorrupt { .. } | SnapshotError::DigestMismatch { .. })
        ));

        // Config mismatch is typed, not a silent divergence.
        let snapshot = SnapshotFile::decode(&bytes).unwrap();
        let mut other = sharded_config(1);
        other.base.seed = 999;
        assert!(matches!(
            resume_telescope_checkpointed(&other, 1, &snapshot, &options),
            Err(FarmError::Snapshot(SnapshotError::ConfigMismatch { .. }))
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(rotated_path(&path));
    }

    #[test]
    fn a_snapshot_does_not_resume_under_other_adaptive_windows() {
        // Adaptive windows change the window sequence and so the run: a
        // config that differs only in them is a different run.
        let config = sharded_config(1);
        let path = temp_path("adaptive.snap");
        let mut options = CheckpointOptions::new(&path);
        options.stop_after_windows = Some(2);
        run_telescope_checkpointed(&config, 1, &options).unwrap();
        let (snapshot, _) = recover_snapshot(&path).unwrap();
        let mut adaptive = config;
        adaptive.tuning.adaptive = Some(potemkin_sim::AdaptiveWindow::bounded(
            SimTime::from_millis(250),
            SimTime::from_millis(1000),
        ));
        options.stop_after_windows = None;
        assert!(matches!(
            resume_telescope_checkpointed(&adaptive, 1, &snapshot, &options),
            Err(FarmError::Snapshot(SnapshotError::ConfigMismatch { .. }))
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(rotated_path(&path));
    }

    #[test]
    fn a_capture_run_resumes_exactly_and_only_under_its_own_capture() {
        let mut config = sharded_config(2);
        let base = &config.base;
        let capture =
            RadiationModel::new(base.radiation.clone(), base.seed).generate(base.duration);
        let mut one_short = Trace::new();
        for event in &capture.events()[1..] {
            one_short.push(event.at, event.packet.clone());
        }
        config.capture = Some(Arc::new(capture));
        let path = temp_path("capture.snap");
        let uninterrupted = run_telescope_sharded(&config, 1).unwrap();

        let mut options = CheckpointOptions::new(&path);
        options.stop_after_windows = Some(4);
        assert!(run_telescope_checkpointed(&config, 1, &options).unwrap().checkpoints.interrupted);
        let (snapshot, _) = recover_snapshot(&path).unwrap();
        options.stop_after_windows = None;
        for workers in [1, 2] {
            let resumed =
                resume_telescope_checkpointed(&config, workers, &snapshot, &options).unwrap();
            assert_eq!(
                uninterrupted.canonical_string(),
                resumed.result.canonical_string(),
                "workers={workers}"
            );
        }
        config.capture = Some(Arc::new(one_short));
        assert!(matches!(
            resume_telescope_checkpointed(&config, 1, &snapshot, &options),
            Err(FarmError::Snapshot(SnapshotError::ConfigMismatch { .. }))
        ));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(rotated_path(&path));
    }

    #[test]
    fn fork_diverges_from_resume_but_is_reproducible() {
        let mut config = sharded_config(2);
        // Clone faults draw from the farm's fault RNG on every clone
        // attempt, so a reseeded fork's degradation report must diverge
        // from the faithful resume.
        config.faults = Some(potemkin_sim::FaultPlanConfig {
            clone_failure_prob: 0.25,
            ..potemkin_sim::FaultPlanConfig::zero(config.base.duration, config.base.farm.servers)
        });
        config.base.farm.retry = Some(potemkin_vmm::RetryPolicy::default_clone());
        let path = temp_path("fork.snap");
        let mut options = CheckpointOptions::new(&path);
        options.stop_after_windows = Some(3);
        run_telescope_checkpointed(&config, 1, &options).unwrap();
        let (snapshot, _) = recover_snapshot(&path).unwrap();
        options.stop_after_windows = None;

        let resumed = resume_telescope_checkpointed(&config, 1, &snapshot, &options).unwrap();
        let fork_a = fork_telescope_checkpointed(&config, 1, &snapshot, 42, &options).unwrap();
        let fork_b = fork_telescope_checkpointed(&config, 1, &snapshot, 42, &options).unwrap();
        assert_eq!(
            fork_a.result.canonical_string(),
            fork_b.result.canonical_string(),
            "same salt, same branch"
        );
        assert_ne!(
            resumed.result.canonical_string(),
            fork_a.result.canonical_string(),
            "fork must explore a different branch"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(rotated_path(&path));
    }

    #[test]
    fn traced_checkpoint_run_emits_snapshot_lane_without_changing_results() {
        let mut config = sharded_config(1);
        let path = temp_path("traced.snap");
        let plain = run_telescope_checkpointed(&config, 1, &CheckpointOptions::new(&path)).unwrap();
        config.trace = Some(potemkin_obs::TraceConfig::unbounded());
        let traced =
            run_telescope_checkpointed(&config, 1, &CheckpointOptions::new(&path)).unwrap();
        assert_eq!(plain.result.canonical_string(), traced.result.canonical_string());
        assert_eq!(plain.checkpoints, traced.checkpoints, "tracing is observer-effect-free");
        let snap_lane = Lane::Snapshot.number(config.cells);
        let saves = traced
            .result
            .trace
            .iter()
            .filter(|e| {
                e.lane == snap_lane
                    && matches!(
                        e.kind,
                        potemkin_obs::TraceEventKind::SpanBegin { name: obs::SNAP_SAVE, .. }
                    )
            })
            .count();
        assert_eq!(saves as u64, traced.checkpoints.written + traced.checkpoints.skipped);
        assert!(traced
            .result
            .trace_lanes
            .iter()
            .any(|(lane, name)| { *lane == snap_lane && name == "snapshot" }));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(rotated_path(&path));
    }
}
