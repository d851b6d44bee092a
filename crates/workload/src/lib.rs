//! Traffic synthesis for the Potemkin experiments.
//!
//! The paper drove its honeyfarm from the UCSD network telescope — live
//! Internet background radiation for a /16 — and from real worms. Neither is
//! available (or advisable) here, so this crate synthesizes the
//! decision-relevant equivalents (see DESIGN.md §5):
//!
//! * [`radiation`] — telescope background radiation: Poisson scan arrivals
//!   with a diurnal cycle, heavy-tailed per-source activity, Zipf port
//!   popularity, and a choice of per-source scan strategies. This drives
//!   the "VMs required vs. recycle time" scalability experiment.
//! * [`worm`] — parameterized worm models (uniform random scanning à la
//!   Code Red / Slammer, subnet-preference à la Blaster/Nimda, hitlist) that
//!   generate probe packets from infected hosts.
//! * [`epidemic`] — the analytic SI epidemic model the simulated outbreaks
//!   are validated against.
//! * [`dialogue`] — fixed multi-stage exploit dialogues for the fidelity
//!   experiment (high-interaction honeypots complete them; scripted
//!   responders stall at their scripted depth). These are the *attacker*
//!   side of an exploit as a hard-coded round sequence; the *service* side
//!   — protocol detection and data-driven interaction state machines
//!   loaded from declarative scenario files — lives in the
//!   `potemkin-services` crate.
//! * [`trace`] — the timestamped packet-event container shared by all
//!   generators.

#![warn(unreachable_pub)]

pub mod dialogue;
pub mod epidemic;
pub mod radiation;
pub mod trace;
pub mod worm;
