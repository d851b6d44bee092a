//! E2 — delta-virtualization memory scaling (the paper's memory figure).
//!
//! The paper demonstrated 116 concurrent VMs on one 2 GiB server, with each
//! clone's marginal footprint a few MiB (fixed overhead plus dirtied pages)
//! instead of the full 128 MiB image. This experiment spawns N clones on one
//! server — once with delta virtualization (flash clones) and once with the
//! eager-full-copy baseline — lets each guest handle a few requests, and
//! reports aggregate and marginal memory.

use potemkin_obs::Table;
use potemkin_vmm::guest::GuestProfile;
use potemkin_vmm::{Host, VmmError};

use crate::harness::Outcome;

/// One sweep point.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MemoryPoint {
    /// Number of live clones.
    pub(crate) vms: u64,
    /// Aggregate used memory with delta virtualization (MiB).
    pub(crate) cow_mib: f64,
    /// Aggregate used memory with eager full copies (MiB), `None` when the
    /// baseline ran out of memory at this point.
    pub(crate) full_mib: Option<f64>,
    /// Marginal memory per CoW clone (MiB).
    pub(crate) cow_marginal_mib: f64,
}

/// Result of the memory-scaling sweep.
#[derive(Clone, Debug)]
pub(crate) struct MemoryScalingResult {
    /// Sweep points.
    pub(crate) points: Vec<MemoryPoint>,
    /// How many clones the full-copy baseline managed before OOM.
    pub(crate) full_copy_capacity: u64,
    /// How many clones delta virtualization managed in the same memory (we
    /// stop the sweep at the largest requested point, so this is a lower
    /// bound when no OOM was hit).
    pub(crate) cow_capacity: u64,
}

const FRAMES_2GIB: u64 = 2 * 1024 * 1024 / 4; // 2 GiB / 4 KiB
const REQUESTS_PER_VM: u64 = 4;

fn mib(frames: u64) -> f64 {
    frames as f64 * 4.0 / 1024.0
}

/// Runs the sweep at the given VM counts (pass the paper's
/// `[1, 25, 50, 75, 100, 116]` or any other schedule).
///
/// # Panics
///
/// Panics only on internal inconsistencies in the fixed configuration.
#[must_use]
pub(crate) fn run(vm_counts: &[u64]) -> MemoryScalingResult {
    let profile = GuestProfile::windows_server();

    // Delta-virtualization server.
    let mut cow_host = Host::new(FRAMES_2GIB).with_max_domains(usize::MAX);
    let cow_image = cow_host.create_reference_image("winxp", profile.clone()).unwrap();
    // Full-copy baseline server.
    let mut full_host = Host::new(FRAMES_2GIB).with_max_domains(usize::MAX);
    let full_image = full_host.create_reference_image("winxp", profile).unwrap();

    let mut points = Vec::new();
    let mut cow_spawned = 0u64;
    let mut full_spawned = 0u64;
    let mut full_oom = false;
    let mut req = 0u64;

    for &target in vm_counts {
        while cow_spawned < target {
            match cow_host.flash_clone(cow_image) {
                Ok((dom, _)) => {
                    for _ in 0..REQUESTS_PER_VM {
                        let _ = cow_host.apply_request(dom, req);
                        req += 1;
                    }
                    cow_spawned += 1;
                }
                Err(VmmError::OutOfMemory { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        while !full_oom && full_spawned < target {
            match full_host.full_copy_clone(full_image) {
                Ok((dom, _)) => {
                    for _ in 0..REQUESTS_PER_VM {
                        let _ = full_host.apply_request(dom, req);
                        req += 1;
                    }
                    full_spawned += 1;
                }
                Err(VmmError::OutOfMemory { .. }) => {
                    full_oom = true;
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        let cow_report = cow_host.memory_report();
        let full_report = full_host.memory_report();
        points.push(MemoryPoint {
            vms: target,
            cow_mib: mib(cow_report.used_frames),
            full_mib: (!full_oom && full_spawned == target).then(|| mib(full_report.used_frames)),
            cow_marginal_mib: mib(1) * cow_report.marginal_frames_per_domain(),
        });
        if cow_spawned < target {
            break; // even CoW hit the wall
        }
    }

    MemoryScalingResult { points, full_copy_capacity: full_spawned, cow_capacity: cow_spawned }
}

/// Renders the sweep as a table.
#[must_use]
pub(crate) fn table(result: &MemoryScalingResult) -> Table {
    let mut t =
        Table::new(&["VMs", "CoW total (MiB)", "full-copy total (MiB)", "CoW marginal (MiB/VM)"])
            .with_title("E2: aggregate memory vs. live VMs (2 GiB server, 128 MiB image)");
    for p in &result.points {
        t.row_owned(vec![
            p.vms.to_string(),
            format!("{:.0}", p.cow_mib),
            p.full_mib.map_or_else(|| "OOM".to_string(), |m| format!("{m:.0}")),
            format!("{:.2}", p.cow_marginal_mib),
        ]);
    }
    t
}

/// Runs the experiment at `figures` scale (shortened when `fast`).
#[must_use]
pub(crate) fn outcome(fast: bool) -> Outcome {
    let counts: &[u64] = if fast { &[1, 25, 50] } else { &[1, 10, 25, 50, 75, 100, 116] };
    let r = run(counts);
    Outcome::default().table(table(&r)).line(format!(
        "full-copy baseline capacity: {} VMs; delta virtualization: {} VMs\n",
        r.full_copy_capacity, r.cow_capacity
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let r = run(&[1, 25, 50, 75, 100, 116]);
        assert_eq!(r.points.len(), 6);
        // The full-copy baseline exhausts 2 GiB after ~14 copies
        // (2048 / (128 + 4) ≈ 15 minus the image itself).
        assert!(
            (10..20).contains(&r.full_copy_capacity),
            "full-copy capacity {}",
            r.full_copy_capacity
        );
        // Delta virtualization reaches the paper's 116 concurrent VMs.
        assert_eq!(r.cow_capacity, 116);
        let last = r.points.last().unwrap();
        // Marginal cost per clone is a few MiB, far below the 128 MiB image.
        assert!(last.cow_marginal_mib < 16.0, "marginal {} MiB", last.cow_marginal_mib);
        assert!(last.cow_marginal_mib > 1.0);
        // CoW total stays under half the server at 116 VMs.
        assert!(last.cow_mib < mib(FRAMES_2GIB) / 2.0, "cow total {} MiB", last.cow_mib);
        // Totals grow monotonically.
        for w in r.points.windows(2) {
            assert!(w[1].cow_mib >= w[0].cow_mib);
        }
    }

    #[test]
    fn table_renders() {
        let r = run(&[1, 10]);
        let s = table(&r).to_string();
        assert!(s.contains("CoW"));
        assert!(s.contains("MiB"));
    }
}
