//! Sharded parallel simulation with a conservative time-window barrier.
//!
//! [`run_sharded`] partitions a simulation into independent shards — each a
//! [`World`] with its own [`EventQueue`] — and advances them in lock-step
//! time windows `[k·w, (k+1)·w)`. Within a window every shard runs
//! independently (in parallel across worker threads); at the window barrier
//! shards exchange cross-shard messages, which are delivered at the window
//! end in a canonical order. The result is **byte-identical for any worker
//! count**, including the serial one-worker run:
//!
//! * A shard's evolution inside a window depends only on its own state and
//!   queue, never on thread scheduling.
//! * Cross-shard messages are collected per source shard in emission order
//!   and merged sorted by `(delivery time, source shard, emission seq)`
//!   before delivery, so the destination queue's FIFO tie-break (see
//!   [`EventQueue`]) observes the same insertion order regardless of which
//!   worker ran which shard, or when.
//!
//! The barrier is *conservative*: a message emitted at time `t` inside
//! window `k` is delivered no earlier than the window's end. Choosing the
//! window at or below the minimum cross-shard latency of the modelled
//! system (for the honeyfarm: the telescope→farm tunnel delay) makes this
//! exact rather than approximate.
//!
//! # Scheduling optimizations (digest-invariant and otherwise)
//!
//! [`EngineTuning`] adds two optional throughput levers:
//!
//! * **Load-aware rebalancing** ([`EngineTuning::rebalance`]): instead of the
//!   static contiguous partition, shards are re-packed onto workers at every
//!   barrier by greedy longest-processing-time over a decaying estimate of
//!   each shard's *event count* in recent windows. The estimate is virtual
//!   telemetry (never wall clock), so the assignment is a pure function of
//!   simulation state and is recomputed identically on every run. Assignment
//!   only decides which OS thread executes a shard — results are
//!   byte-identical with rebalancing on or off, at any worker count.
//! * **Adaptive window sizing** ([`EngineTuning::adaptive`]): the barrier
//!   width widens while cross-shard traffic is light (fewer barriers, less
//!   synchronization) and narrows back toward [`AdaptiveWindow::min`] when it
//!   is heavy. The controller is a pure function of the *previous* window's
//!   deterministic message count, so every run — serial or parallel — walks
//!   the same window sequence and stays byte-identical across worker counts.
//!   Unlike rebalancing, the chosen window sequence *does* shape message
//!   delivery times, exactly as a different fixed `window` would; the
//!   [`AdaptiveWindow::max`] bound must therefore respect the same
//!   minimum-cross-shard-latency rule as a fixed window.

use crate::engine::{run_until, RunStats, World};
use crate::event::EventQueue;
use crate::time::SimTime;

/// A [`World`] that can exchange messages with sibling shards at window
/// barriers.
pub trait ShardWorld: World {
    /// The message type exchanged between shards.
    type Remote: Send;

    /// Drains messages for other shards produced during the last window, as
    /// `(destination shard, message)` in emission order. Destinations are
    /// indices into the slice passed to [`run_sharded`]; a message addressed
    /// to the emitting shard itself is delivered back to it at the barrier
    /// like any other.
    fn take_outbound(&mut self) -> Vec<(usize, Self::Remote)>;

    /// Accepts one message from a sibling shard at the window barrier,
    /// scheduling any resulting events at or after `at` (the barrier time).
    fn accept_remote(
        &mut self,
        at: SimTime,
        msg: Self::Remote,
        queue: &mut EventQueue<Self::Event>,
    );
}

/// One shard: a world plus its private event queue.
pub struct Shard<W: World> {
    /// The shard-local world.
    pub world: W,
    /// The shard-local event queue.
    pub queue: EventQueue<W::Event>,
}

impl<W: World> Shard<W> {
    /// Pairs a world with an empty queue.
    pub fn new(world: W) -> Shard<W> {
        Shard { world, queue: EventQueue::new() }
    }
}

/// Bounds and thresholds for the adaptive window controller.
///
/// The next window's width is decided from the cross-shard message count of
/// the window that just completed — a deterministic quantity — so the width
/// sequence is identical for every worker count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveWindow {
    /// Narrowest width the controller may pick.
    pub min: SimTime,
    /// Widest width the controller may pick. For an exact (rather than
    /// approximate) replay this must not exceed the modelled system's
    /// minimum cross-shard latency, the same rule a fixed window obeys.
    pub max: SimTime,
    /// Cross-shard message count above which the next window halves.
    pub narrow_above: u64,
    /// Cross-shard message count at or below which the next window doubles.
    pub widen_below: u64,
}

impl AdaptiveWindow {
    /// Controller bounded to `[floor, ceiling]` with default thresholds.
    #[must_use]
    pub fn bounded(floor: SimTime, ceiling: SimTime) -> AdaptiveWindow {
        AdaptiveWindow { min: floor, max: ceiling, narrow_above: 64, widen_below: 8 }
    }

    /// Pure controller step: the width for the next window given the width
    /// and cross-shard message count of the one that just completed.
    #[must_use]
    pub(crate) fn next_width(&self, current: SimTime, remote_msgs: u64) -> SimTime {
        let clamped = current.max(self.min).min(self.max);
        if remote_msgs > self.narrow_above {
            (clamped / 2).max(self.min)
        } else if remote_msgs <= self.widen_below {
            (clamped * 2).min(self.max)
        } else {
            clamped
        }
    }
}

/// Scheduler tuning for the sharded engine. The default is the legacy
/// behavior: static contiguous partition, fixed window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineTuning {
    /// Re-pack shards onto workers at each barrier by greedy LPT over a
    /// decaying per-shard event-count estimate. Digest-invariant.
    pub rebalance: bool,
    /// Adaptive window widths; `None` keeps the fixed configured window.
    pub adaptive: Option<AdaptiveWindow>,
}

impl EngineTuning {
    /// Everything on: rebalancing plus adaptive windows bounded to
    /// `[floor, ceiling]`.
    #[must_use]
    pub fn tuned(floor: SimTime, ceiling: SimTime) -> EngineTuning {
        EngineTuning { rebalance: true, adaptive: Some(AdaptiveWindow::bounded(floor, ceiling)) }
    }
}

/// Parallelism and barrier configuration for [`run_sharded`].
#[derive(Clone, Copy, Debug)]
pub struct ShardConfig {
    /// Barrier window width (the starting width when adaptive sizing is on).
    /// Results depend on the window sequence (it bounds when cross-shard
    /// messages land) but never on `workers`.
    pub window: SimTime,
    /// Worker threads. `1` runs every shard inline on the calling thread;
    /// values above the shard count are clamped.
    pub workers: usize,
    /// Scheduler tuning; [`EngineTuning::default`] is the legacy fixed
    /// window with a static partition.
    pub tuning: EngineTuning,
}

/// Telemetry for one `(window, shard)` execution. Virtual-time fields
/// (`events`, `queue_depth_high`) are deterministic;
/// `elapsed_nanos` is wall-clock and is not — which is why the rebalancer
/// packs on event counts, not on it.
#[derive(Clone, Copy, Debug)]
pub struct BatchStat {
    /// Shard index.
    pub shard: usize,
    /// Virtual time at which the window opened. Windows need not be
    /// `window * width` apart: adaptive sizing varies the width and a
    /// resumed run starts mid-sequence.
    pub start: SimTime,
    /// Virtual time of the barrier that closed the window.
    pub end: SimTime,
    /// Events dispatched in this batch.
    pub events: u64,
    /// Wall-clock nanoseconds spent dispatching the batch.
    pub elapsed_nanos: u64,
    /// High-watermark of the shard's event-queue depth during the window.
    pub queue_depth_high: u64,
}

/// Outcome of a sharded run.
#[derive(Clone, Debug)]
pub struct ShardRunReport {
    /// Aggregated run statistics (events summed across shards).
    pub total: RunStats,
    /// Per-shard aggregated statistics, indexed like the input slice.
    pub(crate) per_shard: Vec<RunStats>,
    /// Per-`(window, shard)` batch telemetry, in `(window, shard)` order.
    pub batches: Vec<BatchStat>,
    /// Cross-shard messages delivered across all barriers.
    pub remote_messages: u64,
    /// Windows executed (including the final partial one).
    pub windows: u64,
}

/// Engine progress at a window barrier: everything [`run_sharded`]
/// accumulates outside the shards themselves. Captured into checkpoints so a
/// resumed run's final [`ShardRunReport`] matches the uninterrupted one.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ShardProgress {
    /// Index of the next window to execute.
    pub next_window: u64,
    /// Virtual time at which the next window starts.
    pub window_start: SimTime,
    /// Width of the next window. [`SimTime::ZERO`] means "derive from the
    /// config" (fresh start); under adaptive sizing the controller state is
    /// exactly this width, so carrying it across a checkpoint keeps the
    /// resumed window sequence identical to the uninterrupted run's.
    pub window_width: SimTime,
    /// Per-shard aggregated statistics so far.
    pub per_shard: Vec<RunStats>,
    /// Cross-shard messages delivered so far.
    pub remote_messages: u64,
    /// Windows executed so far.
    pub windows: u64,
}

potemkin_snapshot::snap_struct!(ShardProgress {
    next_window,
    window_start,
    per_shard,
    remote_messages,
    windows,
    window_width,
});

/// What a barrier hook tells the engine to do after a window completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierControl {
    /// Keep running.
    Continue,
    /// Abandon the run at this barrier (models a process kill for
    /// checkpoint/restore experiments). The partial report is returned with
    /// `interrupted` in [`run_sharded_resumable`]'s result set to `true`.
    Stop,
}

/// Runs `shards` to `horizon` in conservative time windows, `workers` at a
/// time. See the module docs for the determinism argument.
///
/// # Examples
///
/// A ring of counters passing a token one shard to the right each window;
/// the outcome is identical for any worker count:
///
/// ```
/// use potemkin_sim::{
///     run_sharded, EngineTuning, EventQueue, Shard, ShardConfig, ShardWorld, SimTime, World,
/// };
///
/// struct Ring { id: usize, n: usize, seen: u64, out: Vec<(usize, u64)> }
/// impl World for Ring {
///     type Event = u64;
///     fn handle(&mut self, _: SimTime, tok: u64, _: &mut EventQueue<u64>) {
///         self.seen += tok;
///         if tok > 1 {
///             self.out.push(((self.id + 1) % self.n, tok - 1));
///         }
///     }
/// }
/// impl ShardWorld for Ring {
///     type Remote = u64;
///     fn take_outbound(&mut self) -> Vec<(usize, u64)> {
///         std::mem::take(&mut self.out)
///     }
///     fn accept_remote(&mut self, at: SimTime, tok: u64, q: &mut EventQueue<u64>) {
///         q.schedule(at, tok);
///     }
/// }
///
/// let run = |workers| {
///     let mut shards: Vec<Shard<Ring>> = (0..4)
///         .map(|id| Shard::new(Ring { id, n: 4, seen: 0, out: vec![] }))
///         .collect();
///     shards[0].queue.schedule(SimTime::ZERO, 8);
///     let config = ShardConfig {
///         window: SimTime::from_secs(1),
///         workers,
///         tuning: EngineTuning { rebalance: true, adaptive: None },
///     };
///     run_sharded(&mut shards, SimTime::from_secs(20), &config);
///     shards.iter().map(|s| s.world.seen).collect::<Vec<_>>()
/// };
/// assert_eq!(run(1), run(4));
/// ```
///
/// # Panics
///
/// Panics if `config.window` is zero.
pub fn run_sharded<W>(
    shards: &mut [Shard<W>],
    horizon: SimTime,
    config: &ShardConfig,
) -> ShardRunReport
where
    W: ShardWorld + Send,
    W::Event: Send,
{
    let (report, _) =
        run_sharded_resumable(shards, horizon, config, None, |_, _| BarrierControl::Continue);
    report
}

/// [`run_sharded`] with two checkpoint/restore extension points:
///
/// * `resume` — progress captured at a prior barrier; the run continues from
///   that window with the supplied (restored) shard states, and the final
///   report aggregates the pre-kill statistics so it is identical to an
///   uninterrupted run's.
/// * `barrier_hook` — called after every completed window with the progress
///   that a checkpoint taken *now* must record (the hook may serialize the
///   shards; they are quiescent and the cross-shard fabric is drained at a
///   barrier). Returning [`BarrierControl::Stop`] abandons the run, modelling
///   a crash; the second element of the result is `true` in that case.
///
/// # Panics
///
/// Panics if `config.window` is zero, or if adaptive bounds are zero or
/// inverted.
pub fn run_sharded_resumable<W, F>(
    shards: &mut [Shard<W>],
    horizon: SimTime,
    config: &ShardConfig,
    resume: Option<ShardProgress>,
    mut barrier_hook: F,
) -> (ShardRunReport, bool)
where
    W: ShardWorld + Send,
    W::Event: Send,
    F: FnMut(&ShardProgress, &mut [Shard<W>]) -> BarrierControl,
{
    assert!(!config.window.is_zero(), "barrier window must be non-zero");
    if let Some(a) = config.tuning.adaptive {
        assert!(!a.min.is_zero(), "adaptive window floor must be non-zero");
        assert!(a.min <= a.max, "adaptive window floor must not exceed the ceiling");
    }
    let n = shards.len();
    let workers = config.workers.clamp(1, n.max(1));
    let resume = resume.unwrap_or_default();
    let mut report = ShardRunReport {
        total: RunStats::default(),
        per_shard: if resume.per_shard.len() == n {
            resume.per_shard
        } else {
            vec![RunStats::default(); n]
        },
        batches: Vec::new(),
        remote_messages: resume.remote_messages,
        windows: resume.windows,
    };
    let initial_width = match config.tuning.adaptive {
        Some(a) => config.window.max(a.min).min(a.max),
        None => config.window,
    };
    let mut width = if resume.window_width.is_zero() { initial_width } else { resume.window_width };
    let mut window_start = resume.window_start;
    let mut window_index = resume.next_window;
    let mut interrupted = false;
    // Decaying per-shard load estimate feeding the LPT rebalancer. Purely
    // virtual (event counts), so it evolves identically on every run; it is
    // deliberately *not* checkpointed — a resume re-warms it, which can pick
    // different worker assignments but never different results.
    let mut costs: Vec<u64> = vec![1; n];
    while window_start < horizon {
        let window_end = (window_start + width).min(horizon);
        let assignment = if config.tuning.rebalance && workers > 1 {
            lpt_assignment(&costs, workers)
        } else {
            static_assignment(n, workers)
        };
        let mut results = execute_window(shards, window_end, &assignment);
        results.sort_by_key(|r| r.shard);

        let mut window_events = 0u64;
        let mut deliveries = 0u64;
        for result in results {
            let WindowResult { shard: idx, stats, elapsed_nanos, queue_depth_high, outbound } =
                result;
            window_events += stats.events_processed;
            costs[idx] = costs[idx] / 2 + stats.events_processed;
            let agg = &mut report.per_shard[idx];
            agg.events_processed += stats.events_processed;
            report.batches.push(BatchStat {
                shard: idx,
                start: window_start,
                end: window_end,
                events: stats.events_processed,
                elapsed_nanos,
                queue_depth_high,
            });
            // `results` is sorted by source shard and each `outbound` is in
            // emission order, so this loop delivers in the canonical
            // (barrier time, source shard, emission seq) order.
            for (dest, msg) in outbound {
                assert!(dest < n, "shard {idx} addressed nonexistent shard {dest}");
                let shard = &mut shards[dest];
                shard.world.accept_remote(window_end, msg, &mut shard.queue);
                deliveries += 1;
            }
        }
        report.remote_messages += deliveries;
        report.windows += 1;
        window_index += 1;
        window_start = window_end;
        if let Some(a) = config.tuning.adaptive {
            width = a.next_width(width, deliveries);
        }
        let progress = ShardProgress {
            next_window: window_index,
            window_start,
            window_width: width,
            per_shard: report.per_shard.clone(),
            remote_messages: report.remote_messages,
            windows: report.windows,
        };
        if barrier_hook(&progress, shards) == BarrierControl::Stop {
            interrupted = true;
            break;
        }
        // Quiescence: nothing queued anywhere and no message in flight means
        // every remaining window would be a no-op.
        if window_events == 0 && deliveries == 0 && shards.iter().all(|s| s.queue.is_empty()) {
            break;
        }
    }
    for s in &report.per_shard {
        report.total.events_processed += s.events_processed;
    }
    (report, interrupted)
}

/// The legacy partition: contiguous index chunks, one per worker.
fn static_assignment(n: usize, workers: usize) -> Vec<Vec<usize>> {
    let chunk = n.div_ceil(workers.max(1));
    (0..workers)
        .map(|w| ((w * chunk).min(n)..((w + 1) * chunk).min(n)).collect::<Vec<usize>>())
        .filter(|bucket| !bucket.is_empty())
        .collect()
}

/// Greedy longest-processing-time packing: shards in decreasing cost order,
/// each onto the currently least-loaded worker. All ties break on the lower
/// index, so the packing is a deterministic function of `costs`.
fn lpt_assignment(costs: &[u64], workers: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    let mut load = vec![0u64; workers];
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); workers];
    for i in order {
        let w = (0..workers).min_by_key(|&w| (load[w], w)).expect("at least one worker");
        load[w] += costs[i].max(1);
        buckets[w].push(i);
    }
    buckets.retain(|bucket| !bucket.is_empty());
    buckets
}

struct WindowResult<R> {
    shard: usize,
    stats: RunStats,
    elapsed_nanos: u64,
    queue_depth_high: u64,
    outbound: Vec<(usize, R)>,
}

/// Runs every shard for one window under the given worker assignment,
/// returning per-shard results in arbitrary order. A single bucket stays on
/// the calling thread.
fn execute_window<'a, W>(
    shards: &'a mut [Shard<W>],
    window_end: SimTime,
    assignment: &[Vec<usize>],
) -> Vec<WindowResult<W::Remote>>
where
    W: ShardWorld + Send,
    W::Event: Send,
{
    let run_one = |idx: usize, shard: &mut Shard<W>| {
        let start = std::time::Instant::now();
        let stats = run_until(&mut shard.world, &mut shard.queue, window_end);
        let elapsed_nanos = start.elapsed().as_nanos() as u64;
        let queue_depth_high = shard.queue.take_depth_high_watermark() as u64;
        let outbound = shard.world.take_outbound();
        WindowResult { shard: idx, stats, elapsed_nanos, queue_depth_high, outbound }
    };
    // Hand each worker exclusive ownership of its assigned shards.
    let mut slots: Vec<Option<&'a mut Shard<W>>> = shards.iter_mut().map(Some).collect();
    let mut buckets: Vec<Vec<(usize, &'a mut Shard<W>)>> = assignment
        .iter()
        .map(|idxs| {
            idxs.iter()
                .map(|&i| (i, slots[i].take().expect("shard assigned to two workers")))
                .collect()
        })
        .collect();
    debug_assert!(slots.iter().all(Option::is_none), "every shard must be assigned");
    if buckets.len() <= 1 {
        return buckets.pop().unwrap_or_default().into_iter().map(|(i, s)| run_one(i, s)).collect();
    }
    std::thread::scope(|scope| {
        let run_one = &run_one;
        let workers: Vec<_> = buckets
            .into_iter()
            .map(|bucket| {
                scope.spawn(move || {
                    bucket.into_iter().map(|(idx, shard)| run_one(idx, shard)).collect::<Vec<_>>()
                })
            })
            .collect();
        workers.into_iter().flat_map(|w| w.join().expect("shard worker panicked")).collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard that records every (time, value) it handles and forwards
    /// values to a fixed peer with a per-hop decrement.
    struct Echo {
        peer: usize,
        log: Vec<(SimTime, u32)>,
        pending: Vec<(usize, u32)>,
    }

    impl World for Echo {
        type Event = u32;
        fn handle(&mut self, now: SimTime, v: u32, q: &mut EventQueue<u32>) {
            self.log.push((now, v));
            if v >= 10 {
                // Local follow-up inside the same shard.
                q.schedule(now + SimTime::from_millis(50), v - 10);
            } else if v > 0 {
                self.pending.push((self.peer, v - 1));
            }
        }
    }

    impl ShardWorld for Echo {
        type Remote = u32;
        fn take_outbound(&mut self) -> Vec<(usize, u32)> {
            std::mem::take(&mut self.pending)
        }
        fn accept_remote(&mut self, at: SimTime, v: u32, q: &mut EventQueue<u32>) {
            q.schedule(at, v);
        }
    }

    fn build(n: usize) -> Vec<Shard<Echo>> {
        (0..n)
            .map(|id| Shard::new(Echo { peer: (id + 1) % n, log: vec![], pending: vec![] }))
            .collect()
    }

    fn run_tuned(
        workers: usize,
        tuning: EngineTuning,
    ) -> (Vec<Vec<(SimTime, u32)>>, ShardRunReport) {
        let mut shards = build(4);
        shards[0].queue.schedule(SimTime::from_millis(1), 25);
        shards[2].queue.schedule(SimTime::from_millis(1), 14);
        let config = ShardConfig { window: SimTime::from_millis(200), workers, tuning };
        let report = run_sharded(&mut shards, SimTime::from_secs(30), &config);
        (shards.into_iter().map(|s| s.world.log).collect(), report)
    }

    fn run_with(workers: usize) -> (Vec<Vec<(SimTime, u32)>>, ShardRunReport) {
        run_tuned(workers, EngineTuning::default())
    }

    #[test]
    fn identical_logs_for_any_worker_count() {
        let (serial_logs, serial_report) = run_with(1);
        for workers in [2, 3, 4, 8] {
            let (logs, report) = run_with(workers);
            assert_eq!(logs, serial_logs, "worker count {workers} changed the run");
            assert_eq!(report.total.events_processed, serial_report.total.events_processed);
            assert_eq!(report.remote_messages, serial_report.remote_messages);
            assert_eq!(report.windows, serial_report.windows);
        }
        assert!(serial_report.remote_messages > 0, "test must exercise cross-shard traffic");
    }

    #[test]
    fn rebalancing_is_digest_invariant() {
        let (baseline_logs, baseline) = run_with(1);
        let tuning = EngineTuning { rebalance: true, adaptive: None };
        for workers in [1, 2, 3, 4] {
            let (logs, report) = run_tuned(workers, tuning);
            assert_eq!(logs, baseline_logs, "rebalancing changed results at {workers} workers");
            assert_eq!(report.remote_messages, baseline.remote_messages);
            assert_eq!(report.windows, baseline.windows);
        }
    }

    #[test]
    fn adaptive_windows_are_deterministic_across_worker_counts() {
        // Long local phases (big tokens burn down in 50 ms local steps) with
        // rare cross-shard hops at the end — the workload adaptive windows
        // are built for.
        let run = |workers: usize, tuning: EngineTuning| {
            let mut shards = build(4);
            shards[0].queue.schedule(SimTime::from_millis(1), 205);
            shards[2].queue.schedule(SimTime::from_millis(1), 144);
            let config = ShardConfig { window: SimTime::from_millis(100), workers, tuning };
            let report = run_sharded(&mut shards, SimTime::from_secs(60), &config);
            (shards.into_iter().map(|s| s.world.log).collect::<Vec<_>>(), report)
        };
        let tuning = EngineTuning {
            rebalance: true,
            adaptive: Some(AdaptiveWindow {
                min: SimTime::from_millis(100),
                max: SimTime::from_millis(1600),
                narrow_above: 4,
                widen_below: 1,
            }),
        };
        let (serial_logs, serial_report) = run(1, tuning);
        for workers in [2, 4] {
            let (logs, report) = run(workers, tuning);
            assert_eq!(logs, serial_logs, "adaptive windows diverged at {workers} workers");
            assert_eq!(report.windows, serial_report.windows);
            assert_eq!(report.remote_messages, serial_report.remote_messages);
        }
        // The controller must actually adapt: with widening enabled the run
        // takes fewer barriers than the fixed-window baseline.
        let (_, fixed) = run(1, EngineTuning::default());
        assert!(
            serial_report.windows < fixed.windows,
            "adaptive run used {} windows, fixed used {}",
            serial_report.windows,
            fixed.windows
        );
    }

    #[test]
    fn adaptive_controller_is_bounded_and_pure() {
        let a = AdaptiveWindow {
            min: SimTime::from_millis(100),
            max: SimTime::from_millis(800),
            narrow_above: 10,
            widen_below: 2,
        };
        // Quiet traffic widens up to the ceiling and no further.
        let mut w = SimTime::from_millis(100);
        for _ in 0..8 {
            w = a.next_width(w, 0);
        }
        assert_eq!(w, SimTime::from_millis(800));
        // Hot traffic narrows down to the floor and no further.
        for _ in 0..8 {
            w = a.next_width(w, 1_000);
        }
        assert_eq!(w, SimTime::from_millis(100));
        // In-band traffic holds steady.
        assert_eq!(a.next_width(SimTime::from_millis(400), 5), SimTime::from_millis(400));
    }

    #[test]
    fn lpt_assignment_is_deterministic_and_balanced() {
        let costs = vec![100, 1, 1, 50, 60, 1, 1, 1];
        let a = lpt_assignment(&costs, 3);
        let b = lpt_assignment(&costs, 3);
        assert_eq!(a, b, "packing must be a pure function of costs");
        let mut seen: Vec<usize> = a.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..costs.len()).collect::<Vec<_>>(), "every shard assigned once");
        // The heaviest shard sits alone until the others catch up: its
        // bucket's total cost stays below the sum of the rest.
        let loads: Vec<u64> =
            a.iter().map(|bucket| bucket.iter().map(|&i| costs[i]).sum()).collect();
        assert_eq!(loads.iter().max(), Some(&100), "LPT must isolate the hot shard");
    }

    #[test]
    fn quiescence_stops_early() {
        let mut shards = build(2);
        shards[0].queue.schedule(SimTime::ZERO, 3);
        let config = ShardConfig {
            window: SimTime::from_secs(1),
            workers: 2,
            tuning: EngineTuning::default(),
        };
        let report = run_sharded(&mut shards, SimTime::from_secs(1_000_000), &config);
        assert!(report.windows < 10, "must quiesce, ran {} windows", report.windows);
        assert_eq!(report.total.events_processed, 4, "3 → 2 → 1 → 0 hops");
    }

    #[test]
    fn barrier_delays_cross_shard_delivery_to_window_end() {
        let mut shards = build(2);
        shards[0].queue.schedule(SimTime::from_millis(10), 1);
        let config = ShardConfig {
            window: SimTime::from_secs(1),
            workers: 1,
            tuning: EngineTuning::default(),
        };
        run_sharded(&mut shards, SimTime::from_secs(5), &config);
        // Shard 1 receives the hop at the barrier, not at emission time.
        assert_eq!(shards[1].world.log, vec![(SimTime::from_secs(1), 0)]);
    }

    #[test]
    fn per_shard_stats_and_batches_are_tracked() {
        let (_, report) = run_with(3);
        assert_eq!(report.per_shard.len(), 4);
        let per_shard_sum: u64 = report.per_shard.iter().map(|s| s.events_processed).sum();
        assert_eq!(per_shard_sum, report.total.events_processed);
        let batch_sum: u64 = report.batches.iter().map(|b| b.events).sum();
        assert_eq!(batch_sum, report.total.events_processed);
        // A batch that processed events must have seen a non-empty queue.
        for b in &report.batches {
            assert!(
                b.events == 0 || b.queue_depth_high > 0,
                "shard {} processed {} events with a zero depth watermark",
                b.shard,
                b.events
            );
        }
        assert!(
            report.batches.iter().any(|b| b.queue_depth_high > 0),
            "telemetry must observe queue depth"
        );
    }

    #[test]
    #[should_panic(expected = "window must be non-zero")]
    fn zero_window_panics() {
        let mut shards = build(1);
        let config =
            ShardConfig { window: SimTime::ZERO, workers: 1, tuning: EngineTuning::default() };
        run_sharded(&mut shards, SimTime::from_secs(1), &config);
    }
}
