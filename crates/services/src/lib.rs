//! The interaction-fidelity plane of the Potemkin reproduction.
//!
//! The paper's core fidelity claim (§ "Fidelity") is that only
//! high-interaction honeypots — real execution, real protocol state —
//! carry attacks deep enough to observe the payload. This crate supplies
//! the farm's *service* side of that argument as data, not code:
//!
//! * `detect` — stateless protocol classification from the first
//!   payload bytes (SSH/HTTP/SMTP/Telnet banner heuristics, port-hint
//!   fallback, fixed tie-break order).
//! * `scenario` — the declarative scenario DSL: JSON documents
//!   describing interaction state machines (states, ordered match rules,
//!   templated responses, capture markers, timeouts) validated at load
//!   with typed [`ScenarioError`]s, plus the attacker-side `drive`
//!   sequence each scenario canonically expects.
//! * `session` — per-`(attacker, scenario)` session state preserved
//!   across connections, with a budget and deterministic
//!   least-recently-active eviction.
//! * `engine` — the interpreter: classify, select, step the state
//!   machine, emit templated responses and captured payloads, accumulate
//!   per-scenario fidelity metrics (rounds sustained, payloads captured,
//!   stall points).
//! * `store` — the capture pipeline: finalized sessions become
//!   [`SessionRecord`]s routed through the [`SessionStore`] trait
//!   (in-memory for reports, JSONL files for offline forensics).
//! * [`pack`] — the built-in four-scenario pack (worm dropper, botnet
//!   C2, credential stuffing, multi-stage HTTP dropper) compiled in from
//!   `examples/scenarios/`.
//!
//! Determinism contract: every decision in this crate is a pure function
//! of the request stream — ordered maps, ordered rules, fixed
//! tie-breaks, no randomness, no wall clock — so the farm's digests stay
//! byte-identical at any worker count (`tests/prop_services.rs`).

#![warn(unreachable_pub)]

mod detect;
mod engine;
pub mod pack;
mod scenario;
mod session;
mod store;

pub use detect::{classify, Protocol};
pub use engine::{merge_metrics, render, ScenarioMetrics, ServiceEngine, ServicesConfig};
pub use scenario::{
    Action, DriveStep, Matcher, Rule, Scenario, ScenarioError, ScenarioPack, State,
};
pub use store::{JsonlStore, SessionRecord, SessionStore};
