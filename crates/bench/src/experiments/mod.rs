//! One module per reproduced experiment, and the table `figures` loops over.
//!
//! | Module | Paper artifact | What it regenerates |
//! |--------|----------------|---------------------|
//! | `e1` | Table 1 | flash-cloning latency breakdown + provisioning comparison |
//! | `e2` | delta-virtualization figure | memory vs. number of live VMs, CoW vs full copy |
//! | `e3` | scalability figure | VMs required vs. VM recycle time for a /16 telescope |
//! | `e4` | gateway scalability | gateway pipeline throughput vs. state size |
//! | `e5` | containment | in-farm worm outbreak under each containment mode |
//! | `e6` | "Potemkin in practice" | 10-minute telescope replay, end to end |
//! | `e7` | fidelity motivation | exploit capture: scripted responder vs. real guest |
//! | `e8` | (extension) | ablations: binding granularity, standby pool, recycle strategy, backscatter filter |
//! | `e9` | (extension) | VM recycling as an internal-containment knob (SIS threshold) |
//! | `e10` | (extension) | availability and fidelity under injected faults (graceful degradation) |
//! | `e11` | (extension) | sharded parallel replay: byte-identical results at every worker count, baseline and tuned engine |
//! | `e12` | (extension) | observability: clone-stage breakdown from trace events + digest-invisible tracing |
//! | `e13` | (extension) | memory control plane: content-hash frame sharing + reclaim-policy determinism |
//! | `e14` | (extension) | checkpoint/restore: crash-consistent snapshots, integrity verification, deterministic resume |
//! | `e16` | (extension) | federated multi-farm telescope: BGP-style prefix routing, cross-farm worm reflection, byte-identical reports across topologies |
//! | `e17` | (extension) | interaction services: scripted-banner vs scenario-engine capture rates, deterministic sharded attacker replay |
//! | `e18` | (extension) | content-addressed chunked block store: farm-wide image dedupe, lazy chunk materialization, manifest checkpoints |

pub(crate) mod e1;
pub(crate) mod e10;
pub(crate) mod e11;
pub(crate) mod e12;
pub(crate) mod e13;
pub(crate) mod e14;
pub(crate) mod e16;
pub(crate) mod e17;
pub(crate) mod e18;
pub(crate) mod e2;
pub(crate) mod e3;
pub(crate) mod e4;
pub(crate) mod e5;
pub(crate) mod e6;
pub(crate) mod e7;
pub(crate) mod e8;
pub(crate) mod e9;

use crate::harness::Outcome;

/// Runs one experiment at `figures` scale, shortened when the argument is
/// true.
pub(crate) type Experiment = fn(bool) -> Outcome;

/// Every experiment by name, in the order `figures` runs them.
pub const ALL: [(&str, Experiment); 17] = [
    ("e1", e1::outcome),
    ("e2", e2::outcome),
    ("e3", e3::outcome),
    ("e4", e4::outcome),
    ("e5", e5::outcome),
    ("e6", e6::outcome),
    ("e7", e7::outcome),
    ("e8", e8::outcome),
    ("e9", e9::outcome),
    ("e10", e10::outcome),
    ("e11", e11::outcome),
    ("e12", e12::outcome),
    ("e13", e13::outcome),
    ("e14", e14::outcome),
    ("e16", e16::outcome),
    ("e17", e17::outcome),
    ("e18", e18::outcome),
];
