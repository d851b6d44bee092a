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
use potemkin_metrics::Table;
use potemkin_sim::SimTime;
use potemkin_snapshot::fnv1a64;
use potemkin_vmm::guest::GuestProfile;
use potemkin_vmm::{Host, SharedChunkStore, StoreStats};
use potemkin_workload::radiation::RadiationConfig;
use potemkin_workload::worm::WormSpec;

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

/// One determinism measurement.
#[derive(Clone, Debug)]
pub struct DigestPoint {
    /// Shard workers driving the run.
    pub workers: usize,
    /// Store chunk size in blocks (1 = flat layout).
    pub chunk_blocks: u64,
    /// Canonical report digest.
    pub digest: u64,
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
    /// Digest sweep over worker counts × chunk sizes.
    pub digests: Vec<DigestPoint>,
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
    let mut digests = Vec::new();
    for &chunk_blocks in &[CHUNK_BLOCKS, 1] {
        let config = sharded_config(duration, chunk_blocks);
        for &workers in worker_counts {
            let r = run_telescope_sharded(&config, workers).expect("sharded run");
            digests.push(DigestPoint { workers, chunk_blocks, digest: digest(&r) });
        }
    }
    let deterministic = digests.windows(2).all(|w| w[0].digest == w[1].digest);

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
    for p in &result.digests {
        t.row_owned(vec![
            p.chunk_blocks.to_string(),
            p.workers.to_string(),
            format!("{:016x}", p.digest),
        ]);
    }
    t
}

/// Renders `BENCH_storage.json`. Every field is virtual-time canonical.
#[must_use]
pub fn bench_json(result: &StorageResult) -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"bench\": \"storage\",\n");
    s.push_str(&format!("  \"chunk_blocks\": {},\n", result.chunk_blocks));
    s.push_str(&format!("  \"disk_blocks\": {},\n", result.disk_blocks));
    s.push_str(&format!("  \"images\": {},\n", result.images));
    s.push_str(&format!("  \"puts\": {},\n", result.after_reads.puts));
    s.push_str(&format!("  \"dedupe_hits\": {},\n", result.after_reads.dedupe_hits));
    s.push_str(&format!("  \"materialized\": {},\n", result.after_reads.materialized));
    s.push_str(&format!("  \"resident_chunks\": {},\n", result.after_reads.resident_chunks));
    s.push_str(&format!("  \"sharing_ratio\": {:.4},\n", result.sharing_ratio));
    s.push_str(&format!("  \"lazy\": {},\n", result.lazy));
    s.push_str(&format!("  \"cross_image_dedupe\": {},\n", result.cross_image_dedupe));
    s.push_str(&format!("  \"materialize_us\": {},\n", result.materialize_time.as_micros()));
    s.push_str(&format!("  \"deterministic\": {},\n", result.deterministic));
    s.push_str("  \"checkpoints\": [\n");
    for (i, p) in result.checkpoints.iter().enumerate() {
        let sep = if i + 1 == result.checkpoints.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"clones\": {}, \"chunked_bytes\": {}, \"flat_bytes\": {}, \
             \"reduction\": {:.2}}}{}\n",
            p.clones, p.chunked_bytes, p.flat_bytes, p.reduction, sep
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"digests\": [\n");
    for (i, p) in result.digests.iter().enumerate() {
        let sep = if i + 1 == result.digests.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"chunk_blocks\": {}, \"workers\": {}, \"digest\": \"{:016x}\"}}{}\n",
            p.chunk_blocks, p.workers, p.digest, sep
        ));
    }
    s.push_str("  ]\n}\n");
    s
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

    #[test]
    fn bench_json_shape() {
        let r = run(SimTime::from_secs(1), &[1]);
        let json = bench_json(&r);
        assert!(json.contains("\"bench\": \"storage\""));
        assert!(json.contains("\"checkpoints\""));
        assert!(json.contains("\"digests\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
