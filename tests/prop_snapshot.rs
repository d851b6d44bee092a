//! Property tests for whole-farm checkpoint/restore.
//!
//! Three claims, sampled rather than enumerated:
//!
//! 1. **Container round trip.** Any snapshot container — arbitrary
//!    section names and payloads — survives `encode` → `decode` with its
//!    contents intact, and re-encodes byte-identically.
//! 2. **Resume ≡ uninterrupted.** For any sampled scenario (seed, cells,
//!    workers, fault schedule) and any kill window, killing the run at a
//!    checkpoint barrier, recovering the snapshot from disk, and resuming
//!    produces a report digest byte-identical to the run that was never
//!    interrupted.
//! 3. **Corruption rejection.** Flipping any single byte of an encoded
//!    snapshot, or truncating it at any point, yields a typed
//!    [`SnapshotError`] — never a panic, never a silently-accepted
//!    snapshot.
//!
//! Each resume case replays a full telescope scenario three times, so the
//! case budget is kept small; the fixed unit tests in
//! `potemkin_core::checkpoint` cover the common configurations on every
//! run.
//!
//! [`SnapshotError`]: potemkin::snapshot::SnapshotError

use proptest::prelude::*;

use potemkin::checkpoint::{
    recover_snapshot, resume_telescope_checkpointed, run_telescope_checkpointed, CheckpointOptions,
};
use potemkin::farm::FarmConfig;
use potemkin::gateway::policy::PolicyConfig;
use potemkin::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin::scenario::TelescopeConfig;
use potemkin::sim::{FaultPlanConfig, SimTime};
use potemkin::snapshot::SnapshotFile;
use potemkin::workload::radiation::RadiationConfig;
use potemkin::workload::worm::WormSpec;

#[derive(Clone, Copy, Debug)]
struct SampledRun {
    seed: u64,
    cells: usize,
    workers: usize,
    kill_after_windows: u64,
    clone_prob: f64,
    with_worm: bool,
}

fn arb_run() -> impl Strategy<Value = SampledRun> {
    (
        any::<u64>(),
        1usize..=3,
        1usize..=4,
        2u64..=3,
        prop_oneof![Just(0.0), 0.01..0.3f64],
        any::<bool>(),
    )
        .prop_map(|(seed, cells, workers, kill_after_windows, clone_prob, with_worm)| {
            SampledRun { seed, cells, workers, kill_after_windows, clone_prob, with_worm }
        })
}

/// The snapshot encoder walks every domain page table and host free
/// list, so sampled scenarios trim the guest footprint to keep
/// per-window checkpoints cheap in debug builds (same rationale as the
/// `potemkin_core::checkpoint` unit tests).
fn config_for(s: SampledRun) -> ShardedTelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
    farm.frames_per_server = 32_768;
    let mut profile = potemkin::vmm::guest::GuestProfile::small();
    profile.memory_pages = 1_024;
    profile.disk_blocks = 512;
    farm.profile = profile;
    farm.seed = s.seed;
    let mut seed_infections = 0;
    if s.with_worm {
        farm.worm = Some(WormSpec::code_red("10.1.8.0/26".parse().unwrap()));
        seed_infections = 1;
    }
    let duration = SimTime::from_secs(2);
    let faults = (s.clone_prob > 0.0).then(|| FaultPlanConfig {
        seed: s.seed.wrapping_add(1),
        clone_failure_prob: s.clone_prob,
        ..FaultPlanConfig::zero(duration, farm.servers)
    });
    let base = TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(s.seed)
        .duration(duration)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("valid telescope config");
    let mut builder = ShardedTelescopeConfig::builder(base)
        .cells(s.cells)
        .window(SimTime::from_millis(500))
        .seed_infections(seed_infections);
    if let Some(faults) = faults {
        builder = builder.faults(faults);
    }
    builder.build().expect("valid sharded config")
}

fn temp_path(tag: u64) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("potemkin-prop-snap-{}-{tag:016x}.snap", std::process::id()));
    p
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut prev = path.to_path_buf();
    if let Some(name) = path.file_name() {
        let mut name = name.to_os_string();
        name.push(".prev");
        prev.set_file_name(name);
        let _ = std::fs::remove_file(&prev);
    }
}

fn arb_container() -> impl Strategy<Value = SnapshotFile> {
    (
        any::<u64>(),
        proptest::collection::vec(
            ("[a-z][a-z0-9.]{0,15}", proptest::collection::vec(any::<u8>(), 0..256)),
            0..6,
        ),
    )
        .prop_map(|(fingerprint, sections)| {
            let mut file = SnapshotFile::new(fingerprint);
            for (name, payload) in sections {
                file.push(&name, payload);
            }
            file
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Claim 1: the container survives a round trip with contents intact
    /// and re-encodes byte-identically.
    #[test]
    fn container_round_trips_byte_identically(file in arb_container()) {
        let bytes = file.encode();
        let decoded = SnapshotFile::decode(&bytes).expect("valid container decodes");
        prop_assert_eq!(decoded.config_fingerprint, file.config_fingerprint);
        prop_assert_eq!(decoded.sections.len(), file.sections.len());
        for (a, b) in decoded.sections.iter().zip(&file.sections) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(&a.payload, &b.payload);
        }
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// Claim 3a: flipping any single byte is rejected with a typed error.
    #[test]
    fn any_single_byte_flip_is_rejected(
        file in arb_container(),
        pos_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = file.encode();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(
            SnapshotFile::decode(&bytes).is_err(),
            "flip at {pos}/{} was accepted",
            bytes.len(),
        );
    }

    /// Claim 3b: truncating at any point is rejected with a typed error.
    #[test]
    fn any_truncation_is_rejected(file in arb_container(), pos_seed in any::<usize>()) {
        let bytes = file.encode();
        let len = pos_seed % bytes.len(); // strictly shorter than the file
        prop_assert!(
            SnapshotFile::decode(&bytes[..len]).is_err(),
            "truncation to {len}/{} was accepted",
            bytes.len(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Claim 2: kill at a sampled checkpoint barrier, recover from disk,
    /// resume at a sampled worker count — byte-identical to the
    /// uninterrupted run.
    #[test]
    fn resume_matches_uninterrupted_run(s in arb_run()) {
        let config = config_for(s);
        let uninterrupted = run_telescope_sharded(&config, 1).expect("baseline runs");

        let path = temp_path(s.seed);
        let mut options = CheckpointOptions::new(&path);
        options.stop_after_windows = Some(s.kill_after_windows);
        let killed = run_telescope_checkpointed(&config, 1, &options).expect("killed run");
        prop_assert!(killed.checkpoints.interrupted);
        prop_assert!(killed.checkpoints.written >= 1);

        let (snapshot, fell_back) = recover_snapshot(&path).expect("snapshot recovers");
        prop_assert!(!fell_back);
        options.stop_after_windows = None;
        let resumed = resume_telescope_checkpointed(&config, s.workers, &snapshot, &options)
            .expect("resume runs");
        cleanup(&path);
        prop_assert_eq!(uninterrupted.canonical_string(), resumed.result.canonical_string());
    }
}
