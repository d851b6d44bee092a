//! Property tests for the interaction-services plane.
//!
//! Two claims are held here. First, the scenario DSL round-trips: any
//! valid scenario serialized with [`Scenario::to_json`] parses back to an
//! identical value, and each class of malformed document is rejected with
//! its typed [`ScenarioError`] — no panics, no silent coercion. Second,
//! the sharded interaction replay is worker-invariant: the merged
//! fidelity report (per-scenario capture metrics, drive counters, farm
//! degradation) is byte-identical at any worker count, because every
//! attacker conversation lives inside the cell that owns its target.
//!
//! Each replay case runs several full sharded interactions, so the case
//! budget is kept small; the fixed unit tests in
//! `potemkin_core::interaction` and `potemkin_services` cover the common
//! shapes on every run.

use proptest::prelude::*;

use potemkin::interaction::{run_interaction, InteractionConfig};
use potemkin::services::{
    Action, DriveStep, Matcher, Protocol, Rule, Scenario, ScenarioError, ScenarioPack,
    ServicesConfig, State,
};
use potemkin::sim::SimTime;

fn arb_matcher() -> impl Strategy<Value = Matcher> {
    prop_oneof![
        "[a-zA-Z0-9 .:<>/-]{1,12}".prop_map(Matcher::Prefix),
        "[a-zA-Z0-9 .:<>/-]{1,12}".prop_map(Matcher::Contains),
        Just(Matcher::Any),
    ]
}

/// An [`Action`] with its `next` target as a raw index, resolved to a
/// concrete state name (modulo the state count) once that count is known.
type RawAction = (String, usize, bool);

fn arb_action() -> impl Strategy<Value = RawAction> {
    ("[a-zA-Z0-9 {}.:-]{1,16}", 0usize..3, any::<bool>())
}

/// Everything in a [`State`] except its name, which is assigned by index
/// (`s0`, `s1`, ...) so `initial` and every `next` reference resolve.
type RawState = (Option<u64>, Vec<(Matcher, RawAction)>, Option<RawAction>);

fn arb_state_body() -> impl Strategy<Value = RawState> {
    (
        proptest::option::of(1u64..10_000),
        proptest::collection::vec((arb_matcher(), arb_action()), 0..3),
        proptest::option::of(arb_action()),
    )
}

fn resolve_action((respond, next, capture): RawAction, states: usize) -> Action {
    Action { respond, next: format!("s{}", next % states), capture }
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (
            "[a-z][a-z0-9-]{0,11}",
            prop_oneof![
                Just(Protocol::Ssh),
                Just(Protocol::Http),
                Just(Protocol::Smtp),
                Just(Protocol::Telnet),
            ],
            proptest::collection::vec(1u16..u16::MAX, 0..3),
            1usize..=3,
        ),
        (
            0usize..3,
            1u64..60_000,
            "[A-Z][A-Z0-9-]{2,7}",
            proptest::collection::vec(arb_state_body(), 3..=3),
        ),
        proptest::collection::vec(
            ("[a-zA-Z0-9 {}.:-]{1,16}", proptest::option::of(arb_matcher()))
                .prop_map(|(send, expect)| DriveStep { send, expect }),
            1..4,
        ),
    )
        .prop_map(
            |((name, protocol, ports, count), (initial, session_ms, marker, bodies), drive)| {
                Scenario {
                    name,
                    protocol,
                    ports,
                    initial: format!("s{}", initial % count),
                    session_timeout: SimTime::from_millis(session_ms),
                    capture_marker: marker,
                    states: bodies
                        .into_iter()
                        .take(count)
                        .enumerate()
                        .map(|(i, (timeout_ms, rules, fallback))| State {
                            name: format!("s{i}"),
                            timeout: timeout_ms.map(SimTime::from_millis),
                            rules: rules
                                .into_iter()
                                .map(|(matcher, action)| Rule {
                                    matcher,
                                    action: resolve_action(action, count),
                                })
                                .collect(),
                            fallback: fallback.map(|a| resolve_action(a, count)),
                        })
                        .collect(),
                    drive,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Serialize → parse must be the identity over valid scenarios: every
    /// field (matchers, timeouts, fallbacks, drive expectations) survives
    /// the canonical JSON form byte-exactly.
    #[test]
    fn scenario_round_trips_through_json(scenario in arb_scenario()) {
        let json = scenario.to_json();
        let parsed = Scenario::parse(&json).expect("canonical form parses");
        prop_assert_eq!(parsed, scenario);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The merged interaction report must be byte-identical at any worker
    /// count, for arbitrary seeds, cell counts, and fleet sizes.
    #[test]
    fn interaction_report_is_worker_invariant(
        seed in any::<u64>(),
        cells_exp in 0u32..=2,
        attackers in 1usize..=2,
        workers in 2usize..=4,
    ) {
        let config = InteractionConfig::builder(ServicesConfig::new(
            potemkin::services::pack::builtin().unwrap(),
        ))
        .duration(SimTime::from_secs(8))
        .cells(1 << cells_exp)
        .attackers_per_scenario(attackers)
        .seed(seed)
        .build()
        .expect("sampled interaction config is valid");

        let reference = run_interaction(&config, 1).expect("serial run");
        let parallel = run_interaction(&config, workers).expect("parallel run");
        prop_assert_eq!(
            parallel.canonical_summary(),
            reference.canonical_summary(),
            "fidelity summary diverged at {} workers", workers
        );
        prop_assert_eq!(
            parallel.merged.degradation.canonical_string(),
            reference.merged.degradation.canonical_string(),
            "degradation report diverged at {} workers", workers
        );
        prop_assert_eq!(
            parallel.merged.stats.counters.get("packets_in"),
            reference.merged.stats.counters.get("packets_in")
        );
        prop_assert_eq!(parallel.records.len(), reference.records.len());
    }
}

/// A scenario referencing a state that does not exist must be rejected
/// with the typed error naming both ends of the dangling edge.
#[test]
fn unknown_state_ref_is_rejected() {
    let doc = r#"{
        "scenario": "broken", "protocol": "smtp", "ports": [25],
        "initial": "greet", "session_timeout_ms": 1000, "capture_marker": "MZ",
        "states": [
            { "name": "greet", "rules": [
                { "match": {"kind": "any"}, "respond": "250 ok", "next": "nowhere" }
            ] }
        ],
        "drive": [ { "send": "HELO" } ]
    }"#;
    match Scenario::parse(doc) {
        Err(ScenarioError::UnknownStateRef { referenced, .. }) => assert_eq!(referenced, "nowhere"),
        other => panic!("expected UnknownStateRef, got {other:?}"),
    }
}

/// An empty prefix/contains matcher can never meaningfully match; it must
/// be a load-time error, not a silent always/never rule.
#[test]
fn empty_match_rule_is_rejected() {
    let doc = r#"{
        "scenario": "broken", "protocol": "http", "ports": [80],
        "initial": "start", "session_timeout_ms": 1000, "capture_marker": "MZ",
        "states": [
            { "name": "start", "rules": [
                { "match": {"kind": "prefix", "bytes": ""}, "respond": "x", "next": "start" }
            ] }
        ],
        "drive": [ { "send": "GET /" } ]
    }"#;
    assert!(matches!(Scenario::parse(doc), Err(ScenarioError::EmptyMatchRule { .. })));
}

/// Two scenarios with the same name cannot share a pack: selection is by
/// name-stable metrics, so the collision must fail loudly at load.
#[test]
fn duplicate_scenario_name_is_rejected() {
    let scenario = r#"{
        "scenario": "twin", "protocol": "http", "ports": [80],
        "initial": "start", "session_timeout_ms": 1000, "capture_marker": "MZ",
        "states": [ { "name": "start", "rules": [] } ],
        "drive": [ { "send": "GET /" } ]
    }"#;
    match ScenarioPack::parse_many(&[scenario, scenario]) {
        Err(ScenarioError::DuplicateScenarioName { name }) => assert_eq!(name, "twin"),
        other => panic!("expected DuplicateScenarioName, got {other:?}"),
    }
}

/// A truncated document is a JSON error, not a panic or a partial parse.
#[test]
fn truncated_document_is_rejected() {
    let full = r#"{"scenario": "cut", "protocol": "ssh", "ports": [22]"#;
    assert!(matches!(Scenario::parse(full), Err(ScenarioError::Json(_))));
}

/// A document missing a required field reports which one.
#[test]
fn missing_field_is_rejected() {
    let doc = r#"{ "scenario": "incomplete", "protocol": "ssh" }"#;
    match Scenario::parse(doc) {
        Err(ScenarioError::MissingField { field, .. }) => assert_eq!(field, "initial"),
        Err(ScenarioError::BadField { .. }) | Err(ScenarioError::NoStates { .. }) => {}
        other => panic!("expected a typed missing-field error, got {other:?}"),
    }
}

/// A protocol outside the detector's vocabulary is a typed error.
#[test]
fn unknown_protocol_is_rejected() {
    let doc = r#"{
        "scenario": "weird", "protocol": "gopher", "ports": [70],
        "initial": "start", "session_timeout_ms": 1000, "capture_marker": "MZ",
        "states": [ { "name": "start", "rules": [] } ],
        "drive": [ { "send": "x" } ]
    }"#;
    match Scenario::parse(doc) {
        Err(ScenarioError::UnknownProtocol { protocol, .. }) => assert_eq!(protocol, "gopher"),
        other => panic!("expected UnknownProtocol, got {other:?}"),
    }
}
