//! Deterministic discrete-event simulation substrate for the Potemkin honeyfarm.
//!
//! The Potemkin paper (Vrable et al., SOSP 2005) evaluated a honeyfarm built on
//! Xen and a live network telescope. This crate provides the substrate that
//! replaces "real time on a cluster" in our reproduction: a virtual clock, a
//! deterministic event queue, seeded random number generation with the
//! distributions the workload models need, a recency-ordered keyed slab for
//! high-volume idle-timeout state (gateway flow expiry, VM recycling), and a
//! token bucket for rate-limiting containment policies.
//!
//! Everything here is deterministic given a seed, so every experiment in the
//! repository is exactly reproducible.
//!
//! # Examples
//!
//! ```
//! use potemkin_sim::{EventQueue, Exponential, SimRng, SimTime};
//!
//! // Same seed, same stream: a scan source's probe times are reproducible.
//! let gaps = |seed| {
//!     let d = Exponential::with_mean(0.5).unwrap();
//!     let mut rng = SimRng::seed_from(seed);
//!     (0..3).map(|_| d.sample(&mut rng)).collect::<Vec<f64>>()
//! };
//! assert_eq!(gaps(7), gaps(7));
//!
//! // Events at equal times leave the queue in scheduling order.
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::from_millis(5), "first");
//! q.schedule(SimTime::from_millis(5), "second");
//! assert_eq!(q.pop(), Some((SimTime::from_millis(5), "first")));
//! ```

#![warn(unreachable_pub)]

pub mod arena;
mod dist;
mod engine;
mod event;
mod fault;
pub mod recency;
mod rng;
mod shard;
mod time;
mod token_bucket;

pub use arena::Slab;
pub use dist::{Exponential, Pareto, Zipf};
pub use engine::World;
pub use event::EventQueue;
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultPlanConfig};
pub use recency::RecencySlab;
pub use rng::SimRng;
pub use shard::{
    fold, fold_bytes, run_sharded, run_sharded_resumable, AdaptiveWindow, BarrierControl,
    EngineTuning, Shard, ShardConfig, ShardProgress, ShardRunReport, ShardWorld,
};
pub use time::SimTime;
pub use token_bucket::TokenBucket;
