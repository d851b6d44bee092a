//! E1 — flash-cloning latency breakdown (the paper's Table 1).
//!
//! The paper's unoptimized prototype cloned a 128 MiB domain in ≈521 ms,
//! dominated by control-plane overhead, and contrasted that with the tens of
//! seconds a cold boot takes. This experiment prints the per-stage breakdown
//! from the calibrated cost model, the measured breakdown of an actual clone
//! performed by our VMM, and the provisioning-strategy comparison.

use potemkin_obs::Table;
use potemkin_sim::SimTime;
use potemkin_vmm::cost::CostModel;
use potemkin_vmm::guest::GuestProfile;
use potemkin_vmm::{CloneTiming, Host};

use crate::harness::Outcome;

/// Pages in the paper's 128 MiB clone.
pub(crate) const PAPER_CLONE_PAGES: u64 = 32_768;

/// Result of the clone-latency experiment.
#[derive(Clone, Debug)]
pub(crate) struct CloneLatencyResult {
    /// The measured stage breakdown of a real flash clone.
    pub(crate) flash: CloneTiming,
    /// Totals: (flash, full copy, cold boot).
    pub(crate) totals: (SimTime, SimTime, SimTime),
    /// The optimized-model flash total (the paper's projection).
    pub(crate) optimized_flash: SimTime,
}

/// Runs the experiment: clones a 128 MiB image each way and records the
/// timings.
///
/// # Panics
///
/// Panics only if the fixed test configuration is internally inconsistent.
#[must_use]
pub(crate) fn run() -> CloneLatencyResult {
    let profile = GuestProfile::windows_server();
    let mut host = Host::new(3 * profile.memory_pages + 16_384);
    let image = host.create_reference_image("winxp", profile).unwrap();
    let (_, flash) = host.flash_clone(image).unwrap();
    let (_, full) = host.full_copy_clone(image).unwrap();
    let (_, boot) = host.cold_boot(image).unwrap();

    let opt = CostModel::optimized();
    let optimized_flash = CloneTiming::new(opt.flash_clone_stages(PAPER_CLONE_PAGES)).total();

    CloneLatencyResult {
        totals: (flash.total(), full.total(), boot.total()),
        flash,
        optimized_flash,
    }
}

/// Renders the breakdown table (the reproduction of Table 1).
#[must_use]
pub(crate) fn breakdown_table(result: &CloneLatencyResult) -> Table {
    let mut t = Table::new(&["stage", "time (ms)"])
        .with_title("E1 / Table 1: flash-clone latency breakdown (128 MiB image)");
    for (stage, d) in result.flash.stages() {
        t.row_owned(vec![stage.to_string(), format!("{:.1}", d.as_millis_f64())]);
    }
    t.row_owned(vec!["TOTAL".into(), format!("{:.1}", result.flash.total().as_millis_f64())]);
    t
}

/// Renders the provisioning-strategy comparison table.
#[must_use]
pub(crate) fn comparison_table(result: &CloneLatencyResult) -> Table {
    let (flash, full, boot) = result.totals;
    let mut t = Table::new(&["strategy", "time (ms)", "vs flash"])
        .with_title("E1b: provisioning strategy comparison");
    let base = flash.as_millis_f64();
    for (name, d) in [
        ("flash clone (CoW)", flash),
        ("eager full copy", full),
        ("cold boot", boot),
        ("flash clone (optimized model)", result.optimized_flash),
    ] {
        t.row_owned(vec![
            name.to_string(),
            format!("{:.1}", d.as_millis_f64()),
            format!("{:.2}x", d.as_millis_f64() / base),
        ]);
    }
    t
}

/// Runs the experiment at `figures` scale (nothing here shortens under `--fast`).
#[must_use]
pub(crate) fn outcome(_fast: bool) -> Outcome {
    let r = run();
    Outcome::default().table(breakdown_table(&r)).table(comparison_table(&r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let r = run();
        let (flash, full, boot) = r.totals;
        // Flash clone lands in the paper's "low hundreds of ms" band.
        let ms = flash.as_millis();
        assert!((400..700).contains(&ms), "flash total {ms} ms");
        // Ordering: flash < full copy < cold boot, boot ≥ 20 s.
        assert!(flash < full);
        assert!(full < boot);
        assert!(boot >= SimTime::from_secs(20));
        // The optimized projection is several times faster.
        assert!(r.optimized_flash * 4 < flash);
        // Control plane dominates the unoptimized breakdown, as measured in
        // the paper.
        let (dominant, _) = r.flash.dominant_stage().unwrap();
        assert_eq!(dominant, "control plane");
    }

    #[test]
    fn tables_render() {
        let r = run();
        let b = breakdown_table(&r).to_string();
        assert!(b.contains("control plane"));
        assert!(b.contains("TOTAL"));
        let c = comparison_table(&r).to_string();
        assert!(c.contains("cold boot"));
        assert!(c.contains("vs flash"));
    }
}
