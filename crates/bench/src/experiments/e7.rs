//! E7 — fidelity: exploit capture, scripted responder vs. real guest.
//!
//! The paper's motivating comparison: low-interaction honeypots script a
//! few dialogue rounds per service and therefore never see the payload of an
//! exploit deeper than their script, while a high-interaction VM converses
//! to any depth. This experiment races the preset worms' exploit dialogues
//! (and a depth sweep) against both responder kinds and tabulates who
//! captured the payload.

use potemkin_core::baseline::{race_high_interaction, LowInteractionResponder};
use potemkin_metrics::Table;
use potemkin_workload::dialogue::{DialogueOutcome, ExploitScript};
use potemkin_workload::worm::WormSpec;

use crate::harness::Outcome;

/// One race outcome row.
#[derive(Clone, Debug)]
pub struct FidelityRow {
    /// The exploit's name.
    pub exploit: String,
    /// Dialogue rounds the exploit needs.
    pub depth: u8,
    /// What the scripted responder managed.
    pub low: DialogueOutcome,
    /// What the real guest managed.
    pub high: DialogueOutcome,
}

/// Result of the fidelity comparison.
#[derive(Clone, Debug)]
pub struct FidelityResult {
    /// The scripted depth used for the low-interaction baseline.
    pub scripted_depth: u8,
    /// Rows per exploit.
    pub rows: Vec<FidelityRow>,
}

/// Runs the comparison with the given scripted depth (honeyd-style scripts
/// typically cover banner + one command; the paper's point holds for any
/// finite depth).
#[must_use]
pub fn run(scripted_depth: u8) -> FidelityResult {
    let space = "10.1.0.0/16".parse().expect("static prefix");
    let mut scripts: Vec<ExploitScript> = vec![
        WormSpec::slammer(space).script(),
        WormSpec::code_red(space).script(),
        WormSpec::blaster(space).script(),
    ];
    // A depth sweep past any plausible script.
    for depth in [4u8, 6, 8] {
        scripts.push(ExploitScript::new("synthetic", 445, depth, b"synthetic-payload"));
    }

    let rows = scripts
        .into_iter()
        .map(|script| {
            let mut low = LowInteractionResponder::new(scripted_depth, vec![80, 135, 445, 1434]);
            FidelityRow {
                exploit: format!("{} (tcp/{})", script.name(), script.port()),
                depth: script.depth(),
                low: low.race(&script),
                high: race_high_interaction(&script),
            }
        })
        .collect();
    FidelityResult { scripted_depth, rows }
}

fn outcome_cell(o: &DialogueOutcome) -> String {
    match o {
        DialogueOutcome::PayloadDelivered { rounds, .. } => {
            format!("CAPTURED ({rounds} rounds)")
        }
        DialogueOutcome::StalledAt { rounds } => format!("stalled at round {rounds}"),
    }
}

/// Renders the comparison table.
#[must_use]
pub fn table(result: &FidelityResult) -> Table {
    let mut t =
        Table::new(&["exploit", "depth", "low-interaction", "high-interaction (Potemkin VM)"])
            .with_title(
                format!(
                    "E7: payload capture, scripted responder (depth {}) vs. real guest",
                    result.scripted_depth
                )
                .as_str(),
            );
    for row in &result.rows {
        t.row_owned(vec![
            row.exploit.clone(),
            row.depth.to_string(),
            outcome_cell(&row.low),
            outcome_cell(&row.high),
        ]);
    }
    t
}

/// Runs the experiment at `figures` scale (nothing here shortens under `--fast`).
#[must_use]
pub fn outcome(_fast: bool) -> Outcome {
    Outcome::default().table(table(&run(2)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_interaction_captures_everything() {
        let r = run(2);
        assert!(!r.rows.is_empty());
        for row in &r.rows {
            assert!(row.high.captured(), "{} must be captured by a real guest", row.exploit);
        }
    }

    #[test]
    fn scripted_responder_misses_deep_exploits() {
        let r = run(2);
        let deep: Vec<&FidelityRow> = r.rows.iter().filter(|row| row.depth > 2).collect();
        assert!(!deep.is_empty());
        for row in deep {
            assert!(
                !row.low.captured(),
                "{} (depth {}) must defeat a depth-2 script",
                row.exploit,
                row.depth
            );
        }
        // Shallow exploits are captured by both — the distinction is depth.
        let shallow: Vec<&FidelityRow> = r.rows.iter().filter(|row| row.depth <= 2).collect();
        assert!(!shallow.is_empty());
        for row in shallow {
            assert!(row.low.captured(), "{} should fool even the script", row.exploit);
        }
    }

    #[test]
    fn table_renders() {
        let s = table(&run(2)).to_string();
        assert!(s.contains("CAPTURED"));
        assert!(s.contains("stalled"));
        assert!(s.contains("slammer"));
    }
}
