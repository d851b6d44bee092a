//! E17 — interaction services: scripted depth vs scenario-driven capture
//! (extension).
//!
//! The paper's fidelity argument (§ "A case for fidelity", reproduced in
//! E7) is that scripted low-interaction responders stall multi-round
//! exploits before the payload arrives. E17 extends it to the new
//! interaction plane: the same four attack drives (worm dropper over
//! SMTP, botnet C2 check-in, credential stuffing, multi-stage HTTP
//! dropper) are replayed twice —
//!
//! 1. against the seed's **fixed banner** (`220 service ready`, the
//!    scripted baseline): every drive stalls at its first real
//!    expectation, and no marked payload is ever reached;
//! 2. against the **scenario engine** (`potemkin-services`): the
//!    declarative state machines sustain every round and capture the
//!    marked payload.
//!
//! The second half runs the full sharded interaction replay
//! ([`potemkin_core::interaction`]) — scripted attacker fleets against cell
//! farms with the pack installed, plus ambient radiation — at several
//! worker counts, and checks the merged fidelity report is
//! byte-identical (the window-barrier determinism argument extended to
//! conversation state).
//!
//! `BENCH_services.json` (owned by this experiment) pins the digest and
//! capture counts; `figures --check` fails hard on a digest mismatch and
//! the claims on a zero capture count. The sweep table's wall-clock
//! columns are printed only.

use std::net::Ipv4Addr;

use potemkin_core::interaction::{run_interaction, InteractionConfig, InteractionResult};
use potemkin_json::{obj, JsonValue};
use potemkin_obs::Table;
use potemkin_services::pack::builtin;
use potemkin_services::{render, ServiceEngine, ServicesConfig};
use potemkin_sim::SimTime;

use crate::harness::{hex, sweep, Outcome, Sweep};

/// The scripted baseline's only line (the seed farm's fixed banner).
const FIXED_BANNER: &[u8] = b"220 service ready";

/// One scenario's capture outcome under both responders.
#[derive(Clone, Debug)]
pub(crate) struct ScenarioFidelity {
    /// Scenario name.
    pub(crate) scenario: String,
    /// Rounds in the attack drive.
    pub(crate) drive_steps: usize,
    /// Rounds the fixed banner sustained before the drive stalled.
    pub(crate) scripted_rounds: usize,
    /// Whether the fixed banner kept the attacker talking long enough to
    /// receive the marked payload.
    pub(crate) scripted_captured: bool,
    /// Rounds the scenario engine sustained.
    pub(crate) scenario_rounds: usize,
    /// Whether the scenario engine captured the marked payload.
    pub(crate) scenario_captured: bool,
}

/// Result of the interaction-services experiment.
#[derive(Clone, Debug)]
pub(crate) struct ServicesResult {
    /// Per-scenario scripted-vs-scenario capture comparison.
    pub(crate) fidelity: Vec<ScenarioFidelity>,
    /// End-to-end sweep, one point per worker count; the first is the
    /// reference run the counts below come from.
    pub(crate) sweep: Sweep<usize, InteractionResult>,
    /// Scripted attacker actors launched per run.
    pub(crate) attackers: u64,
    /// Actors that completed their full drive.
    pub(crate) drive_completed: u64,
    /// Marked payloads captured farm-wide in the reference run.
    pub(crate) payloads_captured: u64,
    /// Interaction sessions opened farm-wide in the reference run.
    pub(crate) sessions_opened: u64,
    /// Replay horizon.
    pub(crate) duration: SimTime,
    /// Address-space cells.
    pub(crate) cells: usize,
    /// Barrier window width.
    pub(crate) window: SimTime,
}

/// The benchmark scenario: the built-in four-scenario pack, a small
/// attacker fleet per scenario, light ambient radiation.
///
/// # Panics
///
/// Panics if the fixed configuration fails to validate (a bug).
#[must_use]
pub(crate) fn config(duration: SimTime, cells: usize, attackers: usize) -> InteractionConfig {
    let pack = builtin().expect("the built-in scenarios are valid");
    InteractionConfig::builder(ServicesConfig::new(pack))
        .duration(duration)
        .cells(cells)
        .attackers_per_scenario(attackers)
        .seed(2005)
        .build()
        .expect("fixed interaction config is valid")
}

/// Replays one scenario's drive against a responder, returning the
/// rounds sustained (steps whose expectation the response met) and
/// whether the marked payload was captured.
fn replay_drive(
    scenario_idx: usize,
    pack_config: &ServicesConfig,
    scripted: bool,
) -> (usize, bool) {
    let scenario = &pack_config.pack.scenarios()[scenario_idx];
    let host = Ipv4Addr::new(10, 4, 0, 1);
    let attacker = Ipv4Addr::new(198, 51, 100, 200);
    let port = scenario.ports[0];
    let mut engine = ServiceEngine::new(pack_config);
    let mut captured = false;
    let mut rounds = 0;
    for (i, step) in scenario.drive.iter().enumerate() {
        let now = SimTime::from_millis(10 * (i as u64 + 1));
        let request = render(&step.send, host, attacker, i as u64);
        let response = if scripted {
            FIXED_BANNER.to_vec()
        } else {
            match engine.on_request(now, attacker, host, port, &request) {
                Some(outcome) => {
                    captured |= outcome.capture.is_some();
                    outcome.response
                }
                None => Vec::new(),
            }
        };
        if let Some(expect) = &step.expect {
            if !expect.matches(&response) {
                break; // the attacker gives up at the first wrong answer
            }
        }
        rounds = i + 1;
    }
    (rounds, captured)
}

/// The drive index of the request carrying the scenario's capture
/// marker (the payload a responder must sustain the conversation to
/// receive).
fn marker_step(scenario_idx: usize, pack_config: &ServicesConfig) -> usize {
    let scenario = &pack_config.pack.scenarios()[scenario_idx];
    scenario
        .drive
        .iter()
        .position(|step| step.send.contains(&scenario.capture_marker))
        .unwrap_or(scenario.drive.len().saturating_sub(1))
}

/// Runs the experiment: the per-scenario capture comparison, then the
/// end-to-end sharded sweep at each worker count.
///
/// # Panics
///
/// Panics if the fixed configuration fails to build or a replay fails to
/// run (a bug).
#[must_use]
pub(crate) fn run(
    duration: SimTime,
    cells: usize,
    attackers: usize,
    workers: &[usize],
) -> ServicesResult {
    let cfg = config(duration, cells, attackers);
    let pack_config = &cfg.services;

    let mut fidelity = Vec::new();
    for (idx, scenario) in pack_config.pack.scenarios().iter().enumerate() {
        let marker = marker_step(idx, pack_config);
        let (scripted_rounds, scripted_captured_direct) = replay_drive(idx, pack_config, true);
        let (scenario_rounds, scenario_captured) = replay_drive(idx, pack_config, false);
        // A scripted responder "captures" only if the drive survives past
        // the marker-carrying request — stalling earlier means the
        // payload never arrives.
        let scripted_captured = scripted_captured_direct || scripted_rounds > marker;
        fidelity.push(ScenarioFidelity {
            scenario: scenario.name.clone(),
            drive_steps: scenario.drive.len(),
            scripted_rounds,
            scripted_captured,
            scenario_rounds,
            scenario_captured,
        });
    }

    let sweep = sweep(
        workers,
        |w| run_interaction(&cfg, w).expect("interaction replay runs"),
        |r| &r.merged,
    );
    let reference = &sweep.points.first().expect("at least one worker count").result;

    ServicesResult {
        fidelity,
        attackers: reference.attackers,
        drive_completed: reference.drive_completed,
        payloads_captured: reference.merged.stats.counters.get("svc_payloads_captured"),
        sessions_opened: reference.merged.stats.counters.get("svc_sessions_opened"),
        sweep,
        duration,
        cells,
        window: cfg.window,
    }
}

/// Renders the capture comparison and the end-to-end sweep as one table.
#[must_use]
pub(crate) fn table(result: &ServicesResult) -> Table {
    let mut t = Table::new(&[
        "scenario",
        "drive steps",
        "scripted rounds",
        "scripted capture",
        "scenario rounds",
        "scenario capture",
    ])
    .with_title("E17: interaction services — scripted banner vs scenario engine");
    for f in &result.fidelity {
        t.row_owned(vec![
            f.scenario.clone(),
            f.drive_steps.to_string(),
            f.scripted_rounds.to_string(),
            if f.scripted_captured { "yes" } else { "no" }.to_string(),
            f.scenario_rounds.to_string(),
            if f.scenario_captured { "yes" } else { "no" }.to_string(),
        ]);
    }
    t
}

/// Renders the end-to-end worker sweep.
#[must_use]
pub(crate) fn sweep_table(result: &ServicesResult) -> Table {
    let mut t = Table::new(&["workers", "wall (s)", "events/sec", "digest"])
        .with_title("E17: sharded interaction replay — byte-identical at any worker count");
    for p in &result.sweep.points {
        t.row_owned(vec![
            p.param.to_string(),
            format!("{:.3}", p.wall_secs),
            format!("{:.0}", p.events_per_sec),
            hex(p.digest),
        ]);
    }
    t
}

/// Runs the experiment at `figures` scale (shortened when `fast`) and
/// builds `BENCH_services.json`: the digest, capture counts and fidelity
/// rows.
#[must_use]
pub(crate) fn outcome(fast: bool) -> Outcome {
    let workers: &[usize] = if fast { &[1, 2] } else { &[1, 2, 4] };
    let scale = if fast { 2 } else { 4 };
    let r = run(SimTime::from_secs(if fast { 12 } else { 30 }), scale, scale, workers);
    let summary = format!(
        "services: {} attackers over 4 scenarios, {} drives completed, {} payloads \
         captured, {} sessions; deterministic: {}",
        r.attackers,
        r.drive_completed,
        r.payloads_captured,
        r.sessions_opened,
        r.sweep.deterministic
    );
    let fidelity_json = |f: &ScenarioFidelity| {
        obj! {
            "scenario": f.scenario.as_str(),
            "drive_steps": f.drive_steps,
            "scripted_rounds": f.scripted_rounds,
            "scripted_captured": f.scripted_captured,
            "scenario_rounds": f.scenario_rounds,
            "scenario_captured": f.scenario_captured,
        }
    };
    let points = &r.sweep.points;
    let pinned = obj! {
        "bench": "services",
        "experiment": "e17",
        "cells": r.cells,
        "window_ns": r.window.as_nanos(),
        "duration_secs": r.duration.as_secs(),
        "attackers": r.attackers,
        "drive_completed": r.drive_completed,
        "payloads_captured": r.payloads_captured,
        "sessions_opened": r.sessions_opened,
        "digest": hex(points.first().map_or(0, |p| p.digest)),
        "deterministic": r.sweep.deterministic,
        "fidelity": r.fidelity.iter().map(fidelity_json).collect::<JsonValue>(),
    };
    let every = |holds: fn(&ScenarioFidelity) -> bool| r.fidelity.iter().all(holds);
    Outcome::default()
        .line(summary)
        .table(table(&r))
        .table(sweep_table(&r))
        .claim("deterministic_across_worker_counts", r.sweep.deterministic)
        .claim("payloads_captured", r.payloads_captured > 0)
        .claim("every_drive_completed", r.drive_completed == r.attackers)
        .claim("scenario_engine_captures_every_payload", every(|f| f.scenario_captured))
        .claim("fixed_banner_captures_nothing", every(|f| !f.scripted_captured))
        .claim("banner_stalls_before_the_engine", every(|f| f.scripted_rounds < f.scenario_rounds))
        .artifact("BENCH_services.json", fast, pinned)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_engine_beats_scripted_banner() {
        let r = run(SimTime::from_secs(10), 2, 2, &[1, 2]);
        assert_eq!(r.fidelity.len(), 4);
        for f in &r.fidelity {
            assert!(f.scenario_captured, "scenario engine must capture {}", f.scenario);
            assert!(!f.scripted_captured, "fixed banner must not capture {}", f.scenario);
            assert_eq!(f.scenario_rounds, f.drive_steps, "{} must sustain every round", f.scenario);
            assert!(
                f.scripted_rounds < f.scenario_rounds,
                "{} must stall earlier against the banner",
                f.scenario
            );
        }
        assert!(r.sweep.deterministic, "digests diverged across worker counts");
        assert!(r.payloads_captured > 0);
        assert!(r.sessions_opened > 0);
        assert_eq!(r.drive_completed, r.attackers);
        let rendered = table(&r).to_string();
        assert!(rendered.contains("scripted rounds"));
        assert!(sweep_table(&r).to_string().contains("digest"));
    }
}
