//! E18 — content-addressed chunked block store: farm-wide dedupe, lazy
//! materialization, and manifest checkpoints (extension).
//!
//! Potemkin's delta virtualization applies to disks too: every clone's
//! block device is a copy-on-write overlay over a golden image, and §4.2's
//! flash cloning works *because* nothing is copied until touched. The
//! `potemkin-storage` redesign pushes that one level further — golden
//! images themselves are manifests over one farm-wide content-addressed
//! chunk store — and this experiment makes three claims measurable:
//!
//! 1. **Farm-wide dedupe.** Reference images built from the same golden
//!    content share every chunk in the store, across images and across
//!    hosts: N same-seed images cost one stored copy, and the store's
//!    `sharing_ratio` is the disk-side analogue of the memory plane's
//!    frame-sharing ratio.
//! 2. **Late binding of disk content.** Chunks materialize only on first
//!    guest read: the materialization counter is zero after image
//!    creation and cloning, and rises only once guests actually read —
//!    the paper's "late binding of resources" applied to disk blocks.
//! 3. **Manifest checkpoints.** Host snapshots encode disks as manifest
//!    references (geometry + one bool per chunk slot) instead of an
//!    O(disk) block walk, so checkpoint size is governed by dirty
//!    overlays, not virtual disk size — and results stay byte-identical
//!    across worker counts and across chunked vs. flat layouts.
//!
//! Everything here is virtual-time simulation; `BENCH_storage.json`
//! carries no wall-clock fields and is comparable across machines.

use potemkin_core::farm::FarmConfig;
use potemkin_core::parallel::{
    run_telescope_sharded, ShardedTelescopeConfig, ShardedTelescopeResult,
};
use potemkin_core::scenario::TelescopeConfig;
use potemkin_gateway::policy::PolicyConfig;
use potemkin_json::{obj, JsonValue};
use potemkin_metrics::Table;
use potemkin_sim::SimTime;
use potemkin_snapshot::fnv1a64;
use potemkin_vmm::guest::GuestProfile;
use potemkin_vmm::{Host, SharedChunkStore, StoreStats};
use potemkin_workload::radiation::RadiationConfig;
use potemkin_workload::worm::WormSpec;

use crate::harness::{hex, round_to, sweep, Outcome};

/// Chunk geometry of the host-level study.
const CHUNK_BLOCKS: u64 = 64;

/// Virtual disk size of the study images (blocks). Deliberately much
/// larger than guest memory — on real guests the disk dwarfs RAM, which
/// is exactly why the flat O(disk) checkpoint walk hurt.
const DISK_BLOCKS: u64 = 32_768;

/// Guest memory of the study images (pages).
const MEM_PAGES: u64 = 256;

/// One checkpoint-size measurement at a clone count.
#[derive(Clone, Debug)]
pub struct CheckpointPoint {
    /// Live clones when the host snapshot was taken.
    pub clones: usize,
    /// Encoded host-snapshot size with manifest-reference disks.
    pub chunked_bytes: u64,
    /// What the same snapshot would cost with the flat O(disk) block
    /// walk the manifest codec replaced (analytic: 8 bytes per block per
    /// image, everything else identical).
    pub flat_bytes: u64,
    /// `flat_bytes / chunked_bytes`.
    pub reduction: f64,
}

/// Result of the full experiment.
#[derive(Clone, Debug)]
pub struct StorageResult {
    /// Chunk size of the host-level study (blocks).
    pub chunk_blocks: u64,
    /// Virtual disk size of each study image (blocks).
    pub disk_blocks: u64,
    /// Reference images sharing the store (across two hosts).
    pub images: usize,
    /// Store accounting after image creation and cloning, before any
    /// guest read (the late-binding witness: everything still lazy).
    pub before_reads: StoreStats,
    /// Store accounting after the guests' read pattern.
    pub after_reads: StoreStats,
    /// Whether no chunk materialized before the first guest read.
    pub lazy: bool,
    /// Whether same-content images deduped across images and hosts
    /// (dedupe hits > 0 and resident < puts).
    pub cross_image_dedupe: bool,
    /// Final store sharing ratio (puts per resident chunk).
    pub sharing_ratio: f64,
    /// Virtual time charged for chunk materializations during the reads.
    pub materialize_time: SimTime,
    /// Checkpoint-size sweep, ascending clone counts.
    pub checkpoints: Vec<CheckpointPoint>,
    /// `(chunk blocks, workers, canonical report digest)` over chunk sizes
    /// (1 = flat layout) × worker counts.
    pub digests: Vec<(u64, usize, u64)>,
    /// Whether every digest (any workers, chunked or flat) was identical.
    pub deterministic: bool,
}

/// The study profile: the small guest trimmed to a 2,048-block disk so
/// the analytic flat baseline is a meaningful multiple of the chunked
/// size without making the sweep slow.
fn study_profile(disk_seed: u64) -> GuestProfile {
    let mut p = GuestProfile::small();
    p.memory_pages = MEM_PAGES;
    p.request_touch_pages = 16;
    p.infection_touch_pages = 64;
    p.disk_blocks = DISK_BLOCKS;
    p.disk_seed = disk_seed;
    p
}

/// The determinism scenario: the E14 outbreak, shrunk. Only
/// `disk_chunk_blocks` varies between runs — reports must not.
fn sharded_config(duration: SimTime, chunk_blocks: u64) -> ShardedTelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
    farm.frames_per_server = 65_536;
    let mut profile = GuestProfile::small();
    profile.memory_pages = 2_048;
    profile.disk_blocks = 1_024;
    farm.profile = profile;
    farm.worm = Some(WormSpec::code_red("10.1.8.0/24".parse().expect("static prefix")));
    farm.disk_chunk_blocks = chunk_blocks;
    let base = TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(2005)
        .duration(duration)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("fixed telescope config is valid");
    ShardedTelescopeConfig::builder(base)
        .cells(4)
        .window(SimTime::from_millis(500))
        .seed_infections(1)
        .build()
        .expect("fixed sharded config is valid")
}

/// The canonical report digest — same field set as E11/E13/E14, so
/// "byte identical" means the same thing across the determinism
/// experiments.
fn digest(r: &ShardedTelescopeResult) -> u64 {
    fnv1a64(r.canonical_string().as_bytes())
}

/// A study host: 2 K frames (kept tight — the encoded free list is
/// O(frames)), chunked store shared with `store`.
fn study_host(store: &SharedChunkStore) -> Host {
    Host::new(2_048)
        .with_overhead_pages(16)
        .with_chunk_store(store.clone())
        .with_disk_chunk_blocks(CHUNK_BLOCKS)
}

/// Runs all three claims.
///
/// # Panics
///
/// Panics if a fixed configuration fails to build or a run fails (a bug).
#[must_use]
pub fn run(duration: SimTime, worker_counts: &[usize]) -> StorageResult {
    // Claim 1 + 2: one farm-wide store, two hosts, four images — three
    // golden (same disk seed: the same OS release installed everywhere)
    // and one divergent (a different image whose chunks must NOT share).
    let store = SharedChunkStore::new_memory();
    let mut host_a = study_host(&store);
    let mut host_b = study_host(&store);
    let golden_a =
        host_a.create_reference_image("golden-a", study_profile(0xD15C)).expect("image fits");
    let golden_a2 =
        host_a.create_reference_image("golden-a2", study_profile(0xD15C)).expect("image fits");
    let golden_b =
        host_b.create_reference_image("golden-b", study_profile(0xD15C)).expect("image fits");
    let divergent =
        host_b.create_reference_image("divergent", study_profile(0x11F5)).expect("image fits");
    let images = 4;

    // Clone before reading: late binding means cloning costs no chunks.
    let (vm_a, _) = host_a.flash_clone(golden_a).expect("clone fits");
    let (vm_a2, _) = host_a.flash_clone(golden_a2).expect("clone fits");
    let (vm_b, _) = host_b.flash_clone(golden_b).expect("clone fits");
    let (vm_d, _) = host_b.flash_clone(divergent).expect("clone fits");
    let before_reads = store.stats();

    // The read pattern: every guest reads the front half of its disk.
    // Three same-content images materialize the same chunks — one stored
    // copy, two dedupe hits each — while the divergent image's chunks
    // are all fresh.
    let mut materialize_time = SimTime::ZERO;
    for block in 0..DISK_BLOCKS / 2 {
        let (_, t_a) = host_a.read_block(vm_a, block).expect("read in range");
        let (_, t_a2) = host_a.read_block(vm_a2, block).expect("read in range");
        let (_, t_b) = host_b.read_block(vm_b, block).expect("read in range");
        let (_, t_d) = host_b.read_block(vm_d, block).expect("read in range");
        materialize_time = [t_a, t_a2, t_b, t_d]
            .into_iter()
            .fold(materialize_time, potemkin_sim::SimTime::saturating_add);
    }
    let after_reads = store.stats();
    let lazy = before_reads.materialized == 0 && after_reads.materialized > 0;
    let cross_image_dedupe =
        after_reads.dedupe_hits > 0 && after_reads.resident_chunks < after_reads.puts;

    // Claim 3a: checkpoint size vs. clone count. Each clone dirties a
    // few blocks (what an exploit write pattern leaves behind), then the
    // host snapshot is measured against the flat O(disk) walk it
    // replaced: 8 bytes per block per image.
    let mut checkpoints = Vec::new();
    for &clones in &[1usize, 8, 64] {
        let snap_store = SharedChunkStore::new_memory();
        let mut host = study_host(&snap_store);
        let image =
            host.create_reference_image("golden", study_profile(0xD15C)).expect("image fits");
        for i in 0..clones {
            let (vm, _) = host.flash_clone(image).expect("clone fits");
            let dom = host.domain_mut(vm).expect("just cloned");
            for w in 0..8u64 {
                let block = (i as u64).wrapping_mul(31).wrapping_add(w * 17) % DISK_BLOCKS;
                dom.disk_mut().write(block, 0xBAD0_0000 + w).expect("write in range");
            }
        }
        let chunked_bytes = host.encode_state().len() as u64;
        let flat_bytes = chunked_bytes + 8 * DISK_BLOCKS - manifest_section_bytes();
        let reduction = flat_bytes as f64 / chunked_bytes as f64;
        checkpoints.push(CheckpointPoint { clones, chunked_bytes, flat_bytes, reduction });
    }

    // Claim 3b: results are byte-identical at any worker count and at
    // any chunk geometry (64-block chunks vs. the flat 1-block layout).
    let layouts: Vec<(u64, usize)> = [CHUNK_BLOCKS, 1]
        .iter()
        .flat_map(|&chunk_blocks| worker_counts.iter().map(move |&workers| (chunk_blocks, workers)))
        .collect();
    let runs = sweep(
        &layouts,
        |(chunk_blocks, workers)| {
            run_telescope_sharded(&sharded_config(duration, chunk_blocks), workers)
                .expect("sharded run")
        },
        |r| (r.engine.total.events_processed, digest(r)),
    );
    let digests = runs.points.iter().map(|p| (p.param.0, p.param.1, p.digest)).collect();
    let deterministic = runs.deterministic;

    StorageResult {
        chunk_blocks: CHUNK_BLOCKS,
        disk_blocks: DISK_BLOCKS,
        images,
        before_reads,
        after_reads,
        lazy,
        cross_image_dedupe,
        sharing_ratio: after_reads.sharing_ratio(),
        materialize_time,
        checkpoints,
        digests,
        deterministic,
    }
}

/// Encoded size of one study manifest: geometry words plus one bool per
/// chunk slot (the part that replaced the flat walk).
fn manifest_section_bytes() -> u64 {
    4 * 8 + DISK_BLOCKS.div_ceil(CHUNK_BLOCKS)
}

/// Renders the dedupe / late-binding accounting.
#[must_use]
pub fn store_table(result: &StorageResult) -> Table {
    let mut t = Table::new(&["moment", "puts", "dedupe hits", "materialized", "resident chunks"])
        .with_title(&format!(
            "E18a: farm-wide chunk store — {} images, {}-block chunks, {}-block disks",
            result.images, result.chunk_blocks, result.disk_blocks
        ));
    for (moment, s) in
        [("after clone, before reads", &result.before_reads), ("after reads", &result.after_reads)]
    {
        t.row_owned(vec![
            moment.to_string(),
            s.puts.to_string(),
            s.dedupe_hits.to_string(),
            s.materialized.to_string(),
            s.resident_chunks.to_string(),
        ]);
    }
    t
}

/// Renders the checkpoint-size sweep.
#[must_use]
pub fn checkpoint_table(result: &StorageResult) -> Table {
    let mut t = Table::new(&["clones", "chunked bytes", "flat bytes", "reduction"])
        .with_title("E18b: host checkpoint size — manifest references vs. flat block walk");
    for p in &result.checkpoints {
        t.row_owned(vec![
            p.clones.to_string(),
            p.chunked_bytes.to_string(),
            p.flat_bytes.to_string(),
            format!("{:.2}x", p.reduction),
        ]);
    }
    t
}

/// Renders the determinism sweep.
#[must_use]
pub fn digest_table(result: &StorageResult) -> Table {
    let mut t = Table::new(&["chunk blocks", "workers", "digest"])
        .with_title("E18c: report digests — chunked vs. flat, at every worker count");
    for &(chunk_blocks, workers, digest) in &result.digests {
        t.row_owned(vec![chunk_blocks.to_string(), workers.to_string(), hex(digest)]);
    }
    t
}

/// Runs the experiment at `figures` scale (shortened when `fast`) and
/// builds `BENCH_storage.json`. Every field is virtual-time canonical, so
/// `measured` carries the machine description only.
#[must_use]
pub fn outcome(fast: bool) -> Outcome {
    let workers: &[usize] = if fast { &[1, 2] } else { &[1, 2, 4] };
    let r = run(SimTime::from_secs(if fast { 2 } else { 6 }), workers);
    let summary = format!(
        "storage: {} images over {}-block chunks; sharing {:.2}x, {} dedupe hits, \
         lazy: {}, deterministic: {}",
        r.images,
        r.chunk_blocks,
        r.sharing_ratio,
        r.after_reads.dedupe_hits,
        r.lazy,
        r.deterministic
    );
    let checkpoint_json = |p: &CheckpointPoint| {
        obj! {
            "clones": p.clones,
            "chunked_bytes": p.chunked_bytes,
            "flat_bytes": p.flat_bytes,
            "reduction": round_to(p.reduction, 2),
        }
    };
    let digest_json = |&(chunk_blocks, workers, digest): &(u64, usize, u64)| {
        obj! {"chunk_blocks": chunk_blocks, "workers": workers, "digest": hex(digest)}
    };
    let pinned = obj! {
        "bench": "storage",
        "chunk_blocks": r.chunk_blocks,
        "disk_blocks": r.disk_blocks,
        "images": r.images,
        "puts": r.after_reads.puts,
        "dedupe_hits": r.after_reads.dedupe_hits,
        "materialized": r.after_reads.materialized,
        "resident_chunks": r.after_reads.resident_chunks,
        "sharing_ratio": round_to(r.sharing_ratio, 4),
        "lazy": r.lazy,
        "cross_image_dedupe": r.cross_image_dedupe,
        "materialize_us": r.materialize_time.as_micros(),
        "deterministic": r.deterministic,
        "checkpoints": r.checkpoints.iter().map(checkpoint_json).collect::<JsonValue>(),
        "digests": r.digests.iter().map(digest_json).collect::<JsonValue>(),
    };
    let shrinks = r.checkpoints.iter().any(|c| c.clones == 64 && c.reduction >= 2.0);
    Outcome::default()
        .line(summary)
        .table(store_table(&r))
        .table(checkpoint_table(&r))
        .table(digest_table(&r))
        .claim("byte_identical_across_layouts_and_workers", r.deterministic)
        .claim("nothing_materializes_before_the_first_read", r.lazy)
        .claim("reads_materialize_chunks", r.after_reads.materialized > 0)
        .claim("identical_images_share_chunks", r.cross_image_dedupe)
        .claim("sharing_ratio_above_1x", r.sharing_ratio > 1.0)
        .claim("checkpoint_shrinks_2x_at_64_clones", shrinks)
        .artifact("BENCH_storage.json", fast, pinned, obj! {})
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedupe_lazy_and_checkpoint_claims_hold() {
        let r = run(SimTime::from_secs(2), &[1, 2]);
        assert!(r.lazy, "no chunk may materialize before the first guest read");
        assert!(r.cross_image_dedupe, "same-seed images must share chunks: {:?}", r.after_reads);
        assert!(r.sharing_ratio > 1.0, "three golden images must beat 1.0x");
        assert!(r.materialize_time > SimTime::ZERO, "materialization must be charged");
        // Three same-content images: the front half of each disk resolves
        // to one stored set; the divergent image adds its own.
        let half_chunks = DISK_BLOCKS / 2 / CHUNK_BLOCKS;
        assert_eq!(r.after_reads.resident_chunks, 2 * half_chunks);
        assert_eq!(r.after_reads.materialized, 4 * half_chunks);
        for p in &r.checkpoints {
            assert!(p.reduction > 2.0, "manifest references must shrink the checkpoint: {p:?}");
        }
        assert!(r.deterministic, "digests diverged across workers or chunk sizes");
    }
}
