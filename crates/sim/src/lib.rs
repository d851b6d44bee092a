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
//! use potemkin_sim::{EventQueue, SimTime, World, run_until};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! enum Ev {
//!     Tick,
//! }
//!
//! impl World for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, now: SimTime, _ev: Ev, q: &mut EventQueue<Ev>) {
//!         self.fired += 1;
//!         if self.fired < 10 {
//!             q.schedule(now + SimTime::from_millis(5), Ev::Tick);
//!         }
//!     }
//! }
//!
//! let mut world = Counter { fired: 0 };
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO, Ev::Tick);
//! let stats = run_until(&mut world, &mut q, SimTime::from_secs(1));
//! assert_eq!(world.fired, 10);
//! assert_eq!(stats.events_processed, 10);
//! ```

pub mod arena;
pub mod dist;
pub mod engine;
pub mod event;
pub mod fault;
pub mod recency;
pub mod rng;
pub mod shard;
pub mod stats;
pub mod time;
pub mod token_bucket;

pub use arena::Slab;
pub use dist::{Alias, Exponential, LogNormal, Pareto, Poisson, Zipf};
pub use engine::{run_until, RunStats, World};
pub use event::EventQueue;
pub use fault::{FaultEvent, FaultInjector, FaultKind, FaultPlan, FaultPlanConfig};
pub use recency::RecencySlab;
pub use rng::SimRng;
pub use shard::{
    run_sharded, run_sharded_resumable, AdaptiveWindow, BarrierControl, BatchStat, EngineTuning,
    Shard, ShardConfig, ShardProgress, ShardRunReport, ShardWorld,
};
pub use stats::{OnlineStats, WelfordVariance};
pub use time::SimTime;
pub use token_bucket::TokenBucket;
