//! Property tests for the content-addressed chunked block store.
//!
//! Three claims, sampled rather than enumerated:
//!
//! 1. **Chunked ≡ flat.** For any disk geometry (size, chunk size, content
//!    seed) and any overlay write pattern, a chunked base + overlay disk
//!    reads exactly what the flat model computes: the golden content
//!    formula everywhere, overridden by the latest overlay write. Chunk
//!    geometry is invisible to guests.
//! 2. **Dedupe is content-faithful.** Same-seed images materialized into
//!    one store occupy one stored copy per distinct chunk, and every
//!    stored chunk hashes back to the key it is filed under — dedupe can
//!    never alias two different contents.
//! 3. **Restore ≡ uninterrupted.** For any sampled scenario and chunk
//!    geometry (including the flat 1-block layout), killing a run at a
//!    checkpoint barrier, recovering the snapshot — whose disks are
//!    manifest references, not block walks — and resuming produces a
//!    report digest byte-identical to the run that was never interrupted,
//!    at any worker count.
//!
//! Each resume case replays a full telescope scenario three times, so the
//! case budget is kept small (same rationale as `tests/prop_snapshot.rs`).

use std::collections::HashMap;

use proptest::prelude::*;

use potemkin::checkpoint::{
    recover_snapshot, resume_telescope_checkpointed, run_telescope_checkpointed, CheckpointOptions,
};
use potemkin::farm::FarmConfig;
use potemkin::gateway::policy::PolicyConfig;
use potemkin::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin::scenario::TelescopeConfig;
use potemkin::sim::SimTime;
use potemkin::vmm::{BaseDisk, ChunkHash, ChunkRef, CowDisk, Manifest, SharedChunkStore};
use potemkin::workload::radiation::RadiationConfig;
use potemkin::workload::worm::WormSpec;

#[derive(Clone, Debug)]
struct SampledDisk {
    seed: u64,
    size: u64,
    chunk_blocks: u64,
    /// `(block_seed, content)` pairs; block = `block_seed % size`, so any
    /// sampled pattern is valid for any sampled size.
    writes: Vec<(u64, u64)>,
}

fn arb_disk() -> impl Strategy<Value = SampledDisk> {
    (
        1u64..=500,
        any::<u64>(),
        1u64..=64,
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..40),
    )
        .prop_map(|(size, seed, chunk_blocks, writes)| SampledDisk {
            seed,
            size,
            chunk_blocks,
            writes,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Claim 1: chunked reads equal the flat model under any geometry and
    /// write pattern.
    #[test]
    fn chunked_disk_reads_match_flat_model(d in arb_disk()) {
        let store = SharedChunkStore::new_memory();
        let base = BaseDisk::open(&store, d.size, d.chunk_blocks, d.seed);
        let mut disk = CowDisk::new(base);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for &(block_seed, content) in &d.writes {
            let block = block_seed % d.size;
            disk.write(block, content).expect("write in range");
            model.insert(block, content);
        }
        for block in 0..d.size {
            let expect = model
                .get(&block)
                .copied()
                .unwrap_or_else(|| Manifest::block_content(d.seed, block));
            prop_assert_eq!(disk.read(block).expect("read in range"), expect);
        }
        prop_assert!(disk.read(d.size).is_err(), "out-of-range read must fail typed");
    }

    /// Claim 2: same-seed images cost one stored copy per distinct chunk,
    /// and every stored chunk hashes back to its key.
    #[test]
    fn dedupe_is_content_faithful(
        seed in any::<u64>(),
        size in 1u64..=300,
        chunk_blocks in 1u64..=32,
        images in 2usize..=4,
    ) {
        let store = SharedChunkStore::new_memory();
        let mut manifests: Vec<Manifest> =
            (0..images).map(|_| Manifest::new(size, chunk_blocks, seed)).collect();
        for m in &mut manifests {
            for block in 0..size {
                prop_assert_eq!(
                    m.read(&store, block).expect("read in range"),
                    Manifest::block_content(seed, block),
                );
            }
        }
        let stats = store.stats();
        let chunks = size.div_ceil(chunk_blocks);
        prop_assert_eq!(stats.resident_chunks, chunks, "one stored copy per distinct chunk");
        prop_assert_eq!(stats.puts, chunks * images as u64);
        prop_assert_eq!(stats.dedupe_hits, chunks * (images as u64 - 1));
        for m in &manifests {
            for slot in m.slots() {
                let ChunkRef::Stored(hash) = *slot else {
                    panic!("every chunk was read, so every slot is stored");
                };
                let words = store.get(hash).expect("stored chunk exists");
                prop_assert_eq!(ChunkHash::of_words(&words), hash, "hash round-trips");
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct SampledRun {
    seed: u64,
    cells: usize,
    workers: usize,
    kill_after_windows: u64,
    chunk_blocks: u64,
    with_worm: bool,
}

fn arb_run() -> impl Strategy<Value = SampledRun> {
    (
        any::<u64>(),
        1usize..=3,
        1usize..=4,
        2u64..=3,
        prop_oneof![Just(1u64), Just(16u64), Just(64u64)],
        any::<bool>(),
    )
        .prop_map(|(seed, cells, workers, kill_after_windows, chunk_blocks, with_worm)| {
            SampledRun { seed, cells, workers, kill_after_windows, chunk_blocks, with_worm }
        })
}

/// Trimmed guest footprint, same rationale as `tests/prop_snapshot.rs`.
fn config_for(s: SampledRun) -> ShardedTelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
    farm.frames_per_server = 32_768;
    let mut profile = potemkin::vmm::guest::GuestProfile::small();
    profile.memory_pages = 1_024;
    profile.disk_blocks = 512;
    farm.profile = profile;
    farm.seed = s.seed;
    farm.disk_chunk_blocks = s.chunk_blocks;
    let mut seed_infections = 0;
    if s.with_worm {
        farm.worm = Some(WormSpec::code_red("10.1.8.0/26".parse().unwrap()));
        seed_infections = 1;
    }
    let base = TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(s.seed)
        .duration(SimTime::from_secs(2))
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("valid telescope config");
    ShardedTelescopeConfig::builder(base)
        .cells(s.cells)
        .window(SimTime::from_millis(500))
        .seed_infections(seed_infections)
        .build()
        .expect("valid sharded config")
}

fn temp_path(tag: u64) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("potemkin-prop-store-{}-{tag:016x}.snap", std::process::id()));
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Claim 3: kill at a barrier, recover the manifest-reference
    /// snapshot, resume at a sampled worker count and chunk geometry —
    /// byte-identical to the uninterrupted run. The digest is also
    /// invariant across chunk geometries: the flat layout run (same
    /// scenario, `disk_chunk_blocks = 1`) reports the same bytes.
    #[test]
    fn restore_from_manifests_matches_uninterrupted_run(s in arb_run()) {
        let config = config_for(s);
        let uninterrupted = run_telescope_sharded(&config, 1).expect("baseline runs");
        let baseline = uninterrupted.canonical_string();

        let flat = config_for(SampledRun { chunk_blocks: 1, ..s });
        let flat_run = run_telescope_sharded(&flat, 1).expect("flat run");
        prop_assert_eq!(&flat_run.canonical_string(), &baseline, "chunk geometry leaked into the report");

        let path = temp_path(s.seed);
        let mut options = CheckpointOptions::new(&path);
        options.stop_after_windows = Some(s.kill_after_windows);
        let killed = run_telescope_checkpointed(&config, 1, &options).expect("killed run");
        prop_assert!(killed.checkpoints.interrupted);

        let (snapshot, fell_back) = recover_snapshot(&path).expect("snapshot recovers");
        prop_assert!(!fell_back);
        options.stop_after_windows = None;
        let resumed = resume_telescope_checkpointed(&config, s.workers, &snapshot, &options)
            .expect("resume runs");
        cleanup(&path);
        prop_assert_eq!(&resumed.result.canonical_string(), &baseline);
    }
}
