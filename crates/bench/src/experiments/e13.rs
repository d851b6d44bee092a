//! E13 — memory control plane: content-hash frame sharing and pluggable
//! reclamation (extension).
//!
//! Two claims, both downstream of the delta-virtualization story the paper
//! tells in §4.2:
//!
//! 1. **Sharing.** Flash clones start fully CoW-shared, diverge as guests
//!    dirty pages, and — because a worm writes the *same* payload into
//!    every victim — re-converge. A periodic content-index merge pass
//!    ([`Host::scan_and_merge`]) folds identical-content frames back to
//!    shared mappings, so resident memory per VM *falls* as the clone
//!    count grows: the image cost amortizes and the payload delta
//!    collapses to one canonical copy. The sweep runs under every
//!    [`ReclaimPolicyKind`] and the curves must be identical — merging is
//!    policy-independent.
//! 2. **Reclamation.** Under a per-host frame budget the farm evicts
//!    bindings chosen by the configured policy. Whatever the policy picks,
//!    the result must be a pure function of the scenario: the merged
//!    report digest is byte-identical across shard worker counts.
//!
//! Everything here is virtual-time simulation; `BENCH_memory.json` carries
//! no wall-clock fields and is comparable across machines.
//!
//! [`Host::scan_and_merge`]: potemkin_vmm::host::Host::scan_and_merge
//! [`ReclaimPolicyKind`]: potemkin_gateway::reclaim::ReclaimPolicyKind

use potemkin_core::farm::{FarmConfig, Honeyfarm};
use potemkin_core::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin_core::scenario::TelescopeConfig;
use potemkin_gateway::policy::PolicyConfig;
use potemkin_gateway::reclaim::ReclaimPolicyKind;
use potemkin_json::{obj, JsonValue};
use potemkin_obs::Table;
use potemkin_sim::SimTime;
use potemkin_snapshot::fnv1a64;
use potemkin_workload::radiation::RadiationConfig;
use potemkin_workload::worm::WormSpec;

use crate::harness::{hex, round_to, sweep, Outcome};

/// The three shipped reclamation policies, in a fixed report order.
pub(crate) const POLICIES: [ReclaimPolicyKind; 3] =
    [ReclaimPolicyKind::Oldest, ReclaimPolicyKind::LruByLastPacket, ReclaimPolicyKind::Clock];

/// The common "worm payload" every diverged clone writes in the sharing
/// sweep — same pages, same bytes, so the merge pass can re-converge them.
const PAYLOAD_SEED: u64 = 0x0E13;

/// One (clone count) measurement of the sharing sweep.
#[derive(Clone, Debug)]
pub(crate) struct SharingPoint {
    /// Live clones on the host.
    pub(crate) clones: usize,
    /// Logical guest pages mapped across all domains.
    pub(crate) logical_pages: u64,
    /// Resident frames before the guests diverged.
    pub(crate) frames_pristine: u64,
    /// Resident frames after every clone wrote the payload (peak).
    pub(crate) frames_diverged: u64,
    /// Resident frames after the merge pass.
    pub(crate) frames_merged: u64,
    /// Pages folded back to shared mappings by the merge pass.
    pub(crate) merged_pages: u64,
    /// Sharing ratio (logical pages / resident frames) after the merge.
    pub(crate) sharing_ratio: f64,
    /// Resident frames per clone after the merge — the falling curve.
    pub(crate) frames_per_vm: f64,
}

/// The sharing sweep under one reclamation policy.
#[derive(Clone, Debug)]
pub(crate) struct SharingCurve {
    /// One point per clone count, in input order.
    pub(crate) points: Vec<SharingPoint>,
    /// FNV-1a digest over every canonical field of the curve.
    pub(crate) digest: u64,
}

/// One policy's determinism measurement under memory pressure.
#[derive(Clone, Debug)]
pub(crate) struct PressurePoint {
    /// Policy name.
    pub(crate) policy: &'static str,
    /// `(workers, digest)` per worker count, in input order.
    pub(crate) digests: Vec<(usize, u64)>,
    /// Bindings evicted through the reclaim policy.
    pub(crate) evictions: u64,
    /// Typed pressure events the budget raised.
    pub(crate) pressure_events: u64,
    /// Pages folded by the periodic merge passes.
    pub(crate) merged_pages: u64,
    /// Farm-wide sharing ratio at the end of the replay.
    pub(crate) sharing_ratio: f64,
    /// Whether every worker count produced a byte-identical report.
    pub(crate) deterministic: bool,
}

/// Result of the full experiment.
#[derive(Clone, Debug)]
pub(crate) struct MemoryResult {
    /// Clone counts of the sharing sweep.
    pub(crate) clone_counts: Vec<usize>,
    /// One curve per policy; merging is policy-independent, so all curves
    /// must be identical.
    pub(crate) curves: Vec<SharingCurve>,
    /// Whether every policy produced the same sharing curve.
    pub(crate) curves_identical: bool,
    /// Smallest post-merge sharing ratio across every curve point (the CI
    /// floor; must stay strictly above 1).
    pub(crate) sharing_ratio_min: f64,
    /// One determinism measurement per policy.
    pub(crate) pressure: Vec<PressurePoint>,
    /// Whether every policy was deterministic across worker counts.
    pub(crate) deterministic: bool,
    /// Pressure-replay horizon.
    pub(crate) duration: SimTime,
}

/// The sharing sweep: `n` flash clones of one image, an identical payload
/// written into each, then one merge pass through the farm's control plane.
fn sharing_point(kind: ReclaimPolicyKind, clones: usize) -> SharingPoint {
    let mut config = FarmConfig::small_test();
    config.frames_per_server = 262_144;
    config.max_domains_per_server = 4_096;
    config.reclaim_policy = kind;
    config.merge_interval = Some(SimTime::from_secs(1));
    config.seed = 2005;
    let profile = config.profile.clone();
    let mut farm = Honeyfarm::new(config).expect("farm builds");
    for i in 0..clones {
        let addr = std::net::Ipv4Addr::from(0x0A01_0001 + i as u32);
        farm.materialize(SimTime::ZERO, addr).expect("host has capacity");
    }
    let frames_pristine = used_frames(&farm);
    // Every clone executes the same payload: identical pages, identical
    // bytes. Each write CoW-faults a private frame — peak divergence.
    let payload = profile.pages_for_infection(PAYLOAD_SEED);
    let slots: Vec<(usize, potemkin_vmm::DomainId)> = farm
        .hosts()
        .iter()
        .enumerate()
        .flat_map(|(h, host)| host.domains().map(|d| (h, d.id())).collect::<Vec<_>>())
        .collect();
    for (h, domain) in slots {
        farm.hosts_mut()[h].touch_pages(domain, &payload, PAYLOAD_SEED).expect("guest writes");
    }
    let frames_diverged = used_frames(&farm);
    // The first tick past the merge interval runs the content-index sweep.
    farm.tick(SimTime::from_secs(1));
    let frames_merged = used_frames(&farm);
    let sharing = farm.sharing_report();
    SharingPoint {
        clones,
        logical_pages: sharing.logical_pages,
        frames_pristine,
        frames_diverged,
        frames_merged,
        merged_pages: farm.counters().get("pages_merged"),
        sharing_ratio: sharing.ratio(),
        frames_per_vm: frames_merged as f64 / clones as f64,
    }
}

fn used_frames(farm: &Honeyfarm) -> u64 {
    farm.hosts().iter().map(|h| h.memory_report().used_frames).sum()
}

/// The pressure scenario: telescope radiation plus an in-farm worm against
/// a budget tight enough that placements must evict through the policy.
fn pressure_config(kind: ReclaimPolicyKind, duration: SimTime) -> ShardedTelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
    farm.servers = 2;
    farm.frames_per_server = 262_144;
    farm.max_domains_per_server = 4_096;
    farm.seed = 2005;
    farm.worm = Some(WormSpec::code_red("10.1.0.0/22".parse().expect("static prefix")));
    farm.evict_on_pressure = true;
    farm.memory_budget_frames = Some(10_752); // image (8192) + ~40 clone overheads
    farm.merge_interval = Some(SimTime::from_secs(1));
    farm.reclaim_policy = kind;
    let base = TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(2005)
        .duration(duration)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("fixed telescope config is valid");
    ShardedTelescopeConfig::builder(base)
        .cells(2)
        .window(SimTime::from_millis(500))
        .seed_infections(1)
        .build()
        .expect("fixed sharded config is valid")
}

fn pressure_point(
    kind: ReclaimPolicyKind,
    duration: SimTime,
    worker_counts: &[usize],
) -> PressurePoint {
    let config = pressure_config(kind, duration);
    let runs = sweep(
        worker_counts,
        |workers| run_telescope_sharded(&config, workers).expect("replay runs"),
        |r| r,
    );
    let last = &runs.points.last().expect("at least one worker count").result;
    PressurePoint {
        policy: kind.name(),
        digests: runs.points.iter().map(|p| (p.param, p.digest)).collect(),
        evictions: last.stats.counters.get("evicted_for_pressure"),
        pressure_events: last.stats.counters.get("memory_pressure_events"),
        merged_pages: last.stats.counters.get("pages_merged"),
        sharing_ratio: last.stats.sharing.ratio(),
        deterministic: runs.deterministic,
    }
}

/// Runs both halves: the sharing sweep per policy, then the pressure
/// determinism sweep per policy.
///
/// # Panics
///
/// Panics if a fixed configuration fails to build (a bug).
#[must_use]
pub(crate) fn run(
    duration: SimTime,
    clone_counts: &[usize],
    worker_counts: &[usize],
) -> MemoryResult {
    let curves: Vec<SharingCurve> = POLICIES
        .iter()
        .map(|&kind| {
            let points: Vec<SharingPoint> =
                clone_counts.iter().map(|&n| sharing_point(kind, n)).collect();
            let canonical: String = points
                .iter()
                .map(|p| {
                    format!(
                        "{}|{}|{}|{}|{}|{}|{:.6};",
                        p.clones,
                        p.logical_pages,
                        p.frames_pristine,
                        p.frames_diverged,
                        p.frames_merged,
                        p.merged_pages,
                        p.sharing_ratio,
                    )
                })
                .collect();
            SharingCurve { digest: fnv1a64(canonical.as_bytes()), points }
        })
        .collect();
    let curves_identical = curves.windows(2).all(|w| w[0].digest == w[1].digest);
    let sharing_ratio_min = curves
        .iter()
        .flat_map(|c| c.points.iter().map(|p| p.sharing_ratio))
        .fold(f64::INFINITY, f64::min);
    let pressure: Vec<PressurePoint> =
        POLICIES.iter().map(|&kind| pressure_point(kind, duration, worker_counts)).collect();
    let deterministic = pressure.iter().all(|p| p.deterministic);
    MemoryResult {
        clone_counts: clone_counts.to_vec(),
        curves,
        curves_identical,
        sharing_ratio_min,
        pressure,
        deterministic,
        duration,
    }
}

/// Renders the sharing sweep (one curve — they are identical across
/// policies, which the summary line asserts).
#[must_use]
pub(crate) fn sharing_table(result: &MemoryResult) -> Table {
    let mut t = Table::new(&[
        "clones",
        "logical pages",
        "pristine",
        "diverged",
        "merged",
        "pages folded",
        "sharing",
        "frames/VM",
    ])
    .with_title("E13a: content-hash sharing — resident frames vs. clone count");
    if let Some(curve) = result.curves.first() {
        for p in &curve.points {
            t.row_owned(vec![
                p.clones.to_string(),
                p.logical_pages.to_string(),
                p.frames_pristine.to_string(),
                p.frames_diverged.to_string(),
                p.frames_merged.to_string(),
                p.merged_pages.to_string(),
                format!("{:.2}x", p.sharing_ratio),
                format!("{:.1}", p.frames_per_vm),
            ]);
        }
    }
    t
}

/// Renders the per-policy pressure sweep.
#[must_use]
pub(crate) fn pressure_table(result: &MemoryResult) -> Table {
    let mut t = Table::new(&[
        "policy",
        "evictions",
        "pressure events",
        "pages merged",
        "sharing",
        "digest",
        "deterministic",
    ])
    .with_title("E13b: reclaim under budget pressure — determinism across workers");
    for p in &result.pressure {
        t.row_owned(vec![
            p.policy.to_string(),
            p.evictions.to_string(),
            p.pressure_events.to_string(),
            p.merged_pages.to_string(),
            format!("{:.2}x", p.sharing_ratio),
            hex(p.digests.first().map_or(0, |d| d.1)),
            p.deterministic.to_string(),
        ]);
    }
    t
}

/// Runs the experiment at `figures` scale (shortened when `fast`) and
/// builds `BENCH_memory.json`. Every field is virtual-time canonical.
#[must_use]
pub(crate) fn outcome(fast: bool) -> Outcome {
    let counts: &[usize] = if fast { &[8, 16, 32] } else { &[8, 16, 32, 64] };
    let workers: &[usize] = if fast { &[1, 2] } else { &[1, 2, 4] };
    let r = run(SimTime::from_secs(if fast { 4 } else { 10 }), counts, workers);
    let summary = format!(
        "sharing curves identical across policies: {}, min post-merge ratio: {:.2}x, \
         deterministic: {}",
        r.curves_identical, r.sharing_ratio_min, r.deterministic
    );
    let curve = r.curves.first().map_or(&[][..], |c| &c.points[..]);
    let sharing_json = |p: &SharingPoint| {
        obj! {
            "clones": p.clones,
            "logical_pages": p.logical_pages,
            "frames_pristine": p.frames_pristine,
            "frames_diverged": p.frames_diverged,
            "frames_merged": p.frames_merged,
            "merged_pages": p.merged_pages,
            "sharing_ratio": round_to(p.sharing_ratio, 6),
            "frames_per_vm": round_to(p.frames_per_vm, 3),
        }
    };
    let digest_json =
        |&(workers, digest): &(usize, u64)| obj! {"workers": workers, "digest": hex(digest)};
    let policy_json = |p: &PressurePoint| {
        obj! {
            "policy": p.policy,
            "evictions": p.evictions,
            "pressure_events": p.pressure_events,
            "pages_merged": p.merged_pages,
            "sharing_ratio": round_to(p.sharing_ratio, 6),
            "deterministic": p.deterministic,
            "digests": p.digests.iter().map(digest_json).collect::<JsonValue>(),
        }
    };
    let pinned = obj! {
        "bench": "memory",
        "duration_secs": r.duration.as_secs(),
        "clone_counts": r.clone_counts.iter().copied().collect::<JsonValue>(),
        "curves_identical": r.curves_identical,
        "sharing_ratio_min": round_to(r.sharing_ratio_min, 6),
        "deterministic": r.deterministic,
        "sharing": curve.iter().map(sharing_json).collect::<JsonValue>(),
        "policies": r.pressure.iter().map(policy_json).collect::<JsonValue>(),
    };
    let falling = curve.windows(2).all(|w| w[1].frames_per_vm < w[0].frames_per_vm);
    Outcome::default()
        .line(summary)
        .table(sharing_table(&r))
        .table(pressure_table(&r))
        .claim("policies_deterministic_across_worker_counts", r.deterministic)
        .claim("sharing_curves_identical_across_policies", r.curves_identical)
        .claim("sharing_ratio_above_5x", r.sharing_ratio_min > 5.0)
        .claim("frames_per_vm_falls_with_clone_count", falling)
        .artifact("BENCH_memory.json", fast, pinned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharing_curve_falls_and_stays_above_one() {
        let r = run(SimTime::from_secs(2), &[4, 8, 16], &[1]);
        assert!(r.curves_identical, "merging must be policy-independent");
        assert!(r.sharing_ratio_min > 1.0, "post-merge sharing ratio must exceed 1");
        let curve = &r.curves[0];
        assert_eq!(curve.points.len(), 3);
        for pair in curve.points.windows(2) {
            assert!(
                pair[1].frames_per_vm < pair[0].frames_per_vm,
                "frames/VM must fall with clone count: {} -> {}",
                pair[0].frames_per_vm,
                pair[1].frames_per_vm
            );
        }
        for p in &curve.points {
            assert!(p.frames_diverged > p.frames_pristine, "payload writes must CoW-fault");
            assert!(p.frames_merged < p.frames_diverged, "merge must reclaim frames");
            assert!(p.merged_pages > 0);
        }
    }

    #[test]
    fn pressure_path_is_deterministic_per_policy() {
        let r = run(SimTime::from_secs(2), &[4], &[1, 2]);
        assert!(r.deterministic, "worker count changed a report digest");
        assert_eq!(r.pressure.len(), POLICIES.len());
        for p in &r.pressure {
            assert!(p.evictions > 0, "{}: budget pressure must evict", p.policy);
            assert!(p.pressure_events > 0, "{}: budget must raise events", p.policy);
            assert!(p.merged_pages > 0, "{}: merge passes must fold pages", p.policy);
        }
    }
}
