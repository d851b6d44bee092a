//! Property tests for the memory control plane.
//!
//! Three claims, each load-bearing for the content-sharing story:
//!
//! 1. **Sharing monotonicity.** Cloning more domains from one image never
//!    lowers the post-merge sharing ratio: every clone adds a full logical
//!    address space but only its private delta in resident frames, and the
//!    merge pass folds identical deltas. More clones → more sharing.
//! 2. **Merge invisibility.** A content-index merge pass never changes
//!    what any guest reads from any page — shared or private, written or
//!    pristine. Merging is a frame-table optimization, not a semantic op.
//! 3. **Reclaim determinism + containment.** Under a per-host frame
//!    budget, every shipped reclamation policy produces a byte-identical
//!    merged report for any shard worker count, and no pressure eviction
//!    opens a containment hole (the escape counter stays zero).
//!
//! 4. **The reference rule.** Whatever a host has been through, a frame's
//!    count is the snapshots' frozen pages naming it plus the *stored*
//!    shared p2m entries naming it — a clone's pristine pages and image
//!    pages hold nothing — every frame in use is such a row, one private
//!    page or one page of a boot image, through a checkpoint and back, and
//!    once every domain is gone what stays resident is what the images
//!    hold.
//! 5. **An image is its profile.** Its bookkeeping is constant in its
//!    size: no row, a checkpoint of the same length whatever its pages,
//!    and a forensic snapshot that costs what its domain dirtied.
//!
//! The replay cases run full telescope scenarios per worker count, so
//! their budget is small; the fixed tests in `potemkin_bench::e13` and
//! `potemkin_vmm` cover the common configurations on every run.

use proptest::prelude::*;

use potemkin::farm::FarmConfig;
use potemkin::gateway::policy::PolicyConfig;
use potemkin::gateway::reclaim::ReclaimPolicyKind;
use potemkin::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin::scenario::TelescopeConfig;
use potemkin::sim::SimTime;
use potemkin::vmm::addrspace::Pte;
use potemkin::vmm::guest::GuestProfile;
use potemkin::vmm::{DomainId, FrameId, Host, ImageId};
use potemkin::workload::radiation::RadiationConfig;
use potemkin::workload::worm::WormSpec;

/// A host with `clones` flash clones of one small image, each having
/// executed the same payload (identical pages, identical bytes), merged.
/// Returns the host and the clone domain ids.
fn diverged_merged_host(clones: usize, payload_seed: u64) -> (Host, Vec<DomainId>) {
    let profile = GuestProfile::small();
    let pages = profile.memory_pages;
    let payload = profile.pages_for_infection(payload_seed);
    let mut host = Host::new(4 * pages * clones as u64 + 65_536);
    let image = host.create_reference_image("prop", profile).expect("image fits");
    let mut domains = Vec::with_capacity(clones);
    for _ in 0..clones {
        let (id, _) = host.flash_clone(image).expect("clone fits");
        host.touch_pages(id, &payload, payload_seed).expect("guest writes");
        domains.push(id);
    }
    host.scan_and_merge().expect("host is alive");
    (host, domains)
}

fn pressure_config(kind: ReclaimPolicyKind, seed: u64, cells: usize) -> ShardedTelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
    farm.servers = 2;
    farm.frames_per_server = 262_144;
    farm.max_domains_per_server = 4_096;
    farm.seed = seed;
    farm.worm = Some(WormSpec::code_red("10.1.0.0/22".parse().expect("static prefix")));
    farm.evict_on_pressure = true;
    farm.memory_budget_frames = Some(10_752);
    farm.merge_interval = Some(SimTime::from_secs(1));
    farm.reclaim_policy = kind;
    let base = TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(seed)
        .duration(SimTime::from_secs(3))
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("valid telescope config");
    ShardedTelescopeConfig::builder(base)
        .cells(cells)
        .window(SimTime::from_millis(500))
        .seed_infections(1)
        .build()
        .expect("valid sharded config")
}

/// Everything a pressure replay reports that must not depend on the
/// worker count, rendered to one comparable string.
fn pressure_digest(config: &ShardedTelescopeConfig, workers: usize) -> (String, u64) {
    let r = run_telescope_sharded(config, workers).expect("replay runs");
    (
        format!(
            "{}|in={}|cloned={}|recycled={}|evicted={}|pressure={}|merged={}|\
             logical={}|resident={}|infected={}",
            r.degradation.canonical_string(),
            r.stats.counters.get("packets_in"),
            r.stats.vms_cloned,
            r.stats.vms_recycled,
            r.stats.counters.get("evicted_for_pressure"),
            r.stats.counters.get("memory_pressure_events"),
            r.stats.counters.get("pages_merged"),
            r.stats.sharing.logical_pages,
            r.stats.sharing.resident_frames,
            r.final_infected,
        ),
        r.degradation.escaped,
    )
}

/// One step of a host's life, domains and images picked by index into
/// what is live at the time.
#[derive(Clone, Debug)]
enum HostOp {
    FlashClone {
        image: usize,
    },
    FullCopy {
        image: usize,
    },
    Touch {
        dom: usize,
        pfns: Vec<u64>,
        seed: u64,
    },
    /// Write a page's boot content back, so a merge finds it.
    Revert {
        dom: usize,
        pfn: u64,
    },
    Rollback {
        dom: usize,
    },
    Merge,
    Snapshot {
        dom: usize,
    },
    Destroy {
        dom: usize,
    },
    CrashAndRevive,
}

// Four words of the delta's bitmap, the last one partial, and a tail.
const RULE_IMAGE_PAGES: u64 = 200;
const RULE_OVERHEAD_PAGES: u64 = 3;

fn arb_host_op() -> impl Strategy<Value = HostOp> {
    let pick = 0usize..64;
    let pfn = 0..RULE_IMAGE_PAGES + RULE_OVERHEAD_PAGES;
    prop_oneof![
        4 => pick.clone().prop_map(|image| HostOp::FlashClone { image }),
        1 => pick.clone().prop_map(|image| HostOp::FullCopy { image }),
        // Few seeds, so that clones write the same contents and merge.
        8 => (pick.clone(), proptest::collection::vec(pfn.clone(), 1..12), 0u64..3)
            .prop_map(|(dom, pfns, seed)| HostOp::Touch { dom, pfns, seed }),
        3 => (pick.clone(), 0..RULE_IMAGE_PAGES).prop_map(|(dom, pfn)| HostOp::Revert { dom, pfn }),
        2 => pick.clone().prop_map(|dom| HostOp::Rollback { dom }),
        4 => Just(HostOp::Merge),
        1 => pick.clone().prop_map(|dom| HostOp::Snapshot { dom }),
        2 => pick.prop_map(|dom| HostOp::Destroy { dom }),
        1 => Just(HostOp::CrashAndRevive),
    ]
}

fn rule_host() -> Host {
    Host::new(16_384).with_overhead_pages(RULE_OVERHEAD_PAGES)
}

/// The reference rule, checked frame by frame: every live row is named by a
/// snapshot's frozen page or a stored shared entry, and counts exactly
/// those; every other frame in use is one domain's private page or one page
/// of the boot image, `images[0]`.
fn check_reference_rule(host: &Host, images: &[ImageId]) -> Result<(), TestCaseError> {
    let mut owed: std::collections::BTreeMap<FrameId, u32> = Default::default();
    let frozen = images.iter().map(|&id| host.image(id).expect("kept").frozen());
    for (_, pte) in frozen.chain(host.domains().map(|d| d.space())).flat_map(|s| s.stored()) {
        if let Pte::Shared(frame) = pte {
            *owed.entry(frame).or_default() += 1;
        }
    }
    let rows = host.frames().live_rows();
    let private: u64 = host.domains().map(|d| d.private_pages()).sum();
    let boot_pages = host.image(images[0]).expect("kept").pages();
    prop_assert_eq!(rows, owed.len() as u64, "a row nothing names");
    let used = host.frames().used_frames();
    prop_assert_eq!(used, rows + private + boot_pages, "a frame neither row nor page");
    for (&frame, &count) in &owed {
        prop_assert_eq!(host.frames().refcount(frame), count, "{}", frame);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Claim 4, over random lives of one host with a checkpoint round trip
    /// somewhere in the middle.
    #[test]
    fn refcounts_are_frozen_pages_plus_stored_entries(
        ops in proptest::collection::vec(arb_host_op(), 1..80),
        checkpoint_at in 0usize..80,
    ) {
        let profile = GuestProfile { memory_pages: RULE_IMAGE_PAGES, ..GuestProfile::small() };
        let mut host = rule_host();
        let mut images = vec![host.create_reference_image("rule", profile).expect("fits")];
        for (step, op) in ops.into_iter().enumerate() {
            if step == checkpoint_at {
                let bytes = host.encode_state();
                host = rule_host();
                host.restore_state(&bytes).expect("own payload");
                prop_assert_eq!(host.encode_state(), bytes);
                check_reference_rule(&host, &images)?;
            }
            let live: Vec<DomainId> = host.domains().map(|d| d.id()).collect();
            let dom = |i: usize| live.get(i % live.len().max(1)).copied();
            // A refusal (no domain yet, no room) is part of a life too:
            // outcomes are dropped, only the rule is checked.
            match op {
                HostOp::FlashClone { image } => {
                    let _ = host.flash_clone(images[image % images.len()]);
                }
                HostOp::FullCopy { image } => {
                    let _ = host.full_copy_clone(images[image % images.len()]);
                }
                HostOp::Merge => {
                    host.scan_and_merge().expect("host is alive");
                }
                HostOp::CrashAndRevive => {
                    host.crash();
                    host.revive();
                }
                HostOp::Touch { dom: i, pfns, seed } => {
                    let _ = dom(i).map(|id| host.touch_pages(id, &pfns, seed));
                }
                HostOp::Revert { dom: i, pfn } => {
                    let content = GuestProfile::boot_content(images[0].0, pfn);
                    let _ = dom(i).map(|id| host.write_page(id, pfn, content));
                }
                HostOp::Rollback { dom: i } => {
                    let _ = dom(i).map(|id| host.rollback(id));
                }
                HostOp::Snapshot { dom: i } => {
                    if let Some(id) = dom(i) {
                        images.push(host.snapshot_domain(id, "frozen").expect("live domain"));
                    }
                }
                HostOp::Destroy { dom: i } => {
                    let _ = dom(i).map(|id| host.destroy(id));
                }
            }
            check_reference_rule(&host, &images)?;
        }
        let live: Vec<DomainId> = host.domains().map(|d| d.id()).collect();
        for id in live {
            host.destroy(id).expect("live domain");
        }
        // With no domain left the rule says it all: what stays resident is
        // what the images hold.
        check_reference_rule(&host, &images)?;
    }
}

/// A host of 2^17 frames with one boot image of `memory_pages` pages and
/// a `disk_blocks`-block disk.
fn sized_host(memory_pages: u64, disk_blocks: u64) -> (Host, ImageId) {
    let mut host = Host::new(1 << 17).with_overhead_pages(RULE_OVERHEAD_PAGES);
    let profile = GuestProfile { memory_pages, disk_blocks, ..GuestProfile::small() };
    let image = host.create_reference_image("sized", profile).expect("fits");
    (host, image)
}

/// What a forensic snapshot of a clone that wrote `writes` (pfns taken
/// modulo `span`) adds to its host's checkpoint, in bytes, and to its
/// frames in use, for an image of `memory_pages` pages.
fn snapshot_growth(memory_pages: u64, span: u64, writes: &[(u64, u64)]) -> (usize, u64) {
    let (mut host, image) = sized_host(memory_pages, 64);
    let (vm, _) = host.flash_clone(image).expect("fits");
    for &(pfn, value) in writes {
        host.write_page(vm, pfn % span, value).expect("in range");
    }
    let (bytes, used) = (host.encode_state().len(), host.frames().used_frames());
    host.snapshot_domain(vm, "frozen").expect("live domain");
    (host.encode_state().len() - bytes, host.frames().used_frames() - used)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Claim 5: an image costs the host its page count and nothing per
    /// page — no row, and checkpoint bytes that do not depend on its size —
    /// a clone reads its computed pages until it writes them, and a
    /// forensic snapshot of a clone costs what the clone dirtied.
    #[test]
    fn image_bookkeeping_is_constant_in_image_size(
        memory_pages in 1u64..=65_536,
        other_pages in 1u64..=65_536,
        disk_blocks in 1u64..=1 << 20,
        writes in proptest::collection::vec((any::<u64>(), any::<u64>()), 0..24),
        probes in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        let (mut host, image) = sized_host(memory_pages, disk_blocks);
        prop_assert_eq!(host.frames().live_rows(), 0);
        prop_assert_eq!(host.frames().used_frames(), memory_pages);
        let (one_page, _) = sized_host(1, 1);
        prop_assert_eq!(host.encode_state().len(), one_page.encode_state().len());

        let (vm, _) = host.flash_clone(image).expect("fits");
        let mut written = std::collections::HashMap::new();
        for &(pfn, value) in &writes {
            let pfn = pfn % memory_pages;
            host.write_page(vm, pfn, value).expect("in range");
            written.insert(pfn, value);
        }
        for pfn in probes.iter().map(|p| p % memory_pages).chain(written.keys().copied()) {
            let boot = GuestProfile::boot_content(image.0, pfn);
            let expect = written.get(&pfn).copied().unwrap_or(boot);
            prop_assert_eq!(host.read_page(vm, pfn).expect("in range"), expect, "pfn {}", pfn);
        }

        // Each frozen page is a row (20 bytes) and a (pfn, entry) pair (17).
        let span = memory_pages.min(other_pages);
        let dirtied = writes.iter().map(|&(pfn, _)| pfn % span).collect::<std::collections::HashSet<_>>();
        let (grown, used) = snapshot_growth(memory_pages, span, &writes);
        prop_assert_eq!(used, 0, "a snapshot takes no frame");
        prop_assert_eq!(snapshot_growth(other_pages, span, &writes), (grown, 0));
        prop_assert_eq!(grown, snapshot_growth(memory_pages, span, &[]).0 + 37 * dirtied.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// More clones of the same image never lower the post-merge sharing
    /// ratio, and the ratio always exceeds 1 once two clones share an
    /// image (a single clone pays the whole image cost alone, so its
    /// ratio legitimately sits below 1).
    #[test]
    fn sharing_ratio_is_monotone_in_clone_count(
        payload_seed in any::<u64>(),
        base in 2usize..=6,
        extra in 1usize..=6,
    ) {
        let (small_host, _) = diverged_merged_host(base, payload_seed);
        let (big_host, _) = diverged_merged_host(base + extra, payload_seed);
        let small = small_host.sharing_report();
        let big = big_host.sharing_report();
        prop_assert!(small.ratio() > 1.0, "clones must share: {}", small.ratio());
        prop_assert!(
            big.ratio() >= small.ratio(),
            "ratio fell with clone count: {} clones -> {:.4}, {} clones -> {:.4}",
            base, small.ratio(), base + extra, big.ratio()
        );
    }

    /// A merge pass never changes any guest-visible page: clones that
    /// wrote identical payloads, clones that wrote private data, and
    /// pristine pages all read back exactly as before the pass.
    #[test]
    fn merge_never_changes_guest_visible_contents(
        payload_seed in any::<u64>(),
        clones in 2usize..=5,
        private_writes in proptest::collection::vec((0u64..8_192, any::<u64>()), 0..16),
        probe_pfns in proptest::collection::vec(0u64..8_192, 1..32),
    ) {
        let profile = GuestProfile::small();
        let payload = profile.pages_for_infection(payload_seed);
        let mut host = Host::new(4 * profile.memory_pages * clones as u64 + 65_536);
        let image = host.create_reference_image("prop", profile).expect("image fits");
        let mut domains = Vec::with_capacity(clones);
        for _ in 0..clones {
            let (id, _) = host.flash_clone(image).expect("clone fits");
            host.touch_pages(id, &payload, payload_seed).expect("shared payload");
            domains.push(id);
        }
        // Domain 0 additionally writes private, clone-unique data.
        for &(pfn, value) in &private_writes {
            host.write_page(domains[0], pfn, value).expect("private write");
        }
        let before: Vec<Vec<u64>> = domains
            .iter()
            .map(|&d| {
                probe_pfns
                    .iter()
                    .map(|&pfn| host.read_page(d, pfn).expect("pfn in range"))
                    .collect()
            })
            .collect();
        host.scan_and_merge().expect("host is alive");
        for (i, &d) in domains.iter().enumerate() {
            for (j, &pfn) in probe_pfns.iter().enumerate() {
                let after = host.read_page(d, pfn).expect("pfn in range");
                prop_assert_eq!(
                    after, before[i][j],
                    "merge changed domain {} pfn {}", i, pfn
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Under budget pressure, every reclaim policy yields a byte-identical
    /// report across 1/2/4 workers, and no eviction path leaks a packet.
    #[test]
    fn every_policy_is_deterministic_across_workers_and_contained(
        seed in any::<u64>(),
        cells in 1usize..=3,
    ) {
        for kind in [
            ReclaimPolicyKind::Oldest,
            ReclaimPolicyKind::LruByLastPacket,
            ReclaimPolicyKind::Clock,
        ] {
            let config = pressure_config(kind, seed, cells);
            let (serial, escaped_serial) = pressure_digest(&config, 1);
            prop_assert_eq!(escaped_serial, 0, "{}: serial run leaked", kind.name());
            for workers in [2usize, 4] {
                let (parallel, escaped_parallel) = pressure_digest(&config, workers);
                prop_assert_eq!(
                    &serial, &parallel,
                    "{}: {} workers diverged from serial", kind.name(), workers
                );
                prop_assert_eq!(escaped_parallel, 0, "{}: parallel run leaked", kind.name());
            }
        }
    }
}
