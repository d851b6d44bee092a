//! Property tests for the observability subsystem.
//!
//! Three claims, each load-bearing for the tracing layer's contract:
//!
//! 1. **Zero observer effect.** Enabling tracing on a sharded replay —
//!    under arbitrary seeds, worker counts, cell counts, and fault
//!    schedules — leaves every deterministic report byte-identical to the
//!    untraced run. A tracer never consults an RNG and never reorders
//!    simulation events; this test is what holds that line.
//! 2. **Flight-recorder retention.** A ring recorder never exceeds its
//!    capacity, drains the newest events oldest-first, and accounts for
//!    every overwritten event in its dropped counter.
//! 3. **Export round-trip.** A Chrome-trace export of an arbitrary
//!    well-nested span tree parses back as valid JSON whose intervals are
//!    strictly nested per lane (every pair of spans on a lane is either
//!    disjoint or one contains the other).
//!
//! Each replay case runs a full telescope scenario twice, so the case
//! budget is kept small; the fixed unit tests in `potemkin_obs` and
//! `potemkin_core::parallel` cover the common configurations on every run.

use proptest::prelude::*;

use potemkin::farm::FarmConfig;
use potemkin::gateway::policy::PolicyConfig;
use potemkin::json::JsonValue;
use potemkin::obs::{chrome_trace_json, RecorderMode, RingRecorder, TraceConfig, Tracer};
use potemkin::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin::scenario::TelescopeConfig;
use potemkin::sim::{FaultPlanConfig, SimTime};
use potemkin::workload::radiation::RadiationConfig;
use potemkin::workload::worm::WormSpec;

const DURATION_SECS: u64 = 4;

#[derive(Clone, Copy, Debug)]
struct SampledRun {
    seed: u64,
    cells: usize,
    workers: usize,
    crash_rate: f64,
    with_worm: bool,
    flight_capacity: usize,
}

fn arb_run() -> impl Strategy<Value = SampledRun> {
    (
        any::<u64>(),
        1usize..=3,
        1usize..=4,
        prop_oneof![Just(0.0), 120.0..600.0f64],
        any::<bool>(),
        64usize..=2_048,
    )
        .prop_map(|(seed, cells, workers, crash_rate, with_worm, flight_capacity)| {
            SampledRun { seed, cells, workers, crash_rate, with_worm, flight_capacity }
        })
}

fn config_for(s: SampledRun, trace: Option<TraceConfig>) -> ShardedTelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(5));
    farm.frames_per_server = 262_144;
    farm.seed = s.seed;
    farm.degradation_ladder = true;
    let mut seed_infections = 0;
    if s.with_worm {
        farm.worm = Some(WormSpec::code_red("10.1.8.0/22".parse().unwrap()));
        seed_infections = 1;
    }
    let duration = SimTime::from_secs(DURATION_SECS);
    let faults = (s.crash_rate > 0.0).then(|| FaultPlanConfig {
        seed: s.seed.wrapping_add(1),
        host_crash_rate_per_hour: s.crash_rate,
        host_recovery_time: SimTime::from_secs(2),
        ..FaultPlanConfig::zero(duration, farm.servers)
    });
    let base = TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(s.seed)
        .duration(duration)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("valid telescope config");
    let mut builder = ShardedTelescopeConfig::builder(base)
        .cells(s.cells)
        .window(SimTime::from_millis(500))
        .seed_infections(seed_infections);
    if let Some(faults) = faults {
        builder = builder.faults(faults);
    }
    if let Some(trace) = trace {
        builder = builder.trace(trace);
    }
    builder.build().expect("valid sharded config")
}

/// One scripted tracer operation for the export round-trip property.
#[derive(Clone, Copy, Debug)]
enum Op {
    Begin,
    End,
    Instant,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(prop_oneof![Just(Op::Begin), Just(Op::End), Just(Op::Instant)], 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Tracing on (flight recorder, sampled capacity) vs. off: the
    /// deterministic report must be byte-identical, and only the traced
    /// run may carry events.
    #[test]
    fn tracing_never_changes_a_report_digest(s in arb_run()) {
        let plain_config = config_for(s, None);
        let traced_config =
            config_for(s, Some(TraceConfig::flight(s.flight_capacity)));
        let plain_run = run_telescope_sharded(&plain_config, s.workers).expect("replay runs");
        let traced_run = run_telescope_sharded(&traced_config, s.workers).expect("replay runs");
        prop_assert_eq!(plain_run.divergence(&traced_run), None, "tracing changed the run");
        prop_assert!(plain_run.trace.is_empty(), "untraced run must capture nothing");
        prop_assert!(!traced_run.trace.is_empty(), "traced run must capture events");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A flight recorder holds at most `capacity` events, drains the
    /// newest `min(n, capacity)` in order, and counts every overwrite.
    #[test]
    fn ring_recorder_keeps_newest_within_capacity(
        capacity in 1usize..=64,
        n in 0u64..300,
    ) {
        let mut recorder = RingRecorder::new(RecorderMode::Flight { capacity });
        let tracer_events = {
            let mut t = Tracer::new(0, TraceConfig::unbounded());
            for i in 0..n {
                t.instant(SimTime::from_nanos(i), "tick", i);
            }
            t.drain()
        };
        for event in &tracer_events {
            recorder.record(*event);
            prop_assert!(recorder.len() <= capacity, "ring exceeded capacity");
        }
        prop_assert_eq!(recorder.dropped(), n.saturating_sub(capacity as u64));
        let drained = recorder.drain();
        let expect: Vec<u64> = (n.saturating_sub(capacity as u64)..n).collect();
        let got: Vec<u64> = drained.iter().map(|e| e.seq).collect();
        prop_assert_eq!(got, expect, "drain must yield the newest events oldest-first");
    }

    /// An arbitrary op script (with a strictly advancing clock) produces a
    /// Chrome trace that parses as JSON and whose `"X"` intervals per lane
    /// are strictly nested: any two either don't overlap or one contains
    /// the other.
    #[test]
    fn chrome_export_round_trips_with_nested_intervals(
        scripts in proptest::collection::vec(arb_ops(), 1..4),
    ) {
        let mut all_events = Vec::new();
        let mut lane_names = Vec::new();
        for (lane, script) in scripts.iter().enumerate() {
            let lane = lane as u32;
            lane_names.push((lane, format!("lane {lane}")));
            let mut t = Tracer::new(lane, TraceConfig::unbounded());
            let mut clock = 0u64;
            let mut open = Vec::new();
            for op in script {
                // One microsecond per op: no two events share a stamp, so
                // sibling spans can never abut into false overlap.
                clock += 1;
                let now = SimTime::from_micros(clock);
                match op {
                    Op::Begin => open.push(t.begin(now, "work")),
                    Op::End => {
                        if let Some(token) = open.pop() {
                            t.end(now, token);
                        } else {
                            t.instant(now, "noop", 0);
                        }
                    }
                    Op::Instant => t.instant(now, "mark", 1),
                }
            }
            // Close whatever is still open, innermost first.
            while let Some(token) = open.pop() {
                clock += 1;
                t.end(SimTime::from_micros(clock), token);
            }
            all_events.extend(t.drain());
        }

        let doc = chrome_trace_json(&all_events, &lane_names);
        let parsed = JsonValue::parse(&doc).expect("chrome trace parses");
        let events = parsed
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");

        // Group X intervals (in integer nanoseconds) by tid.
        let mut by_lane: std::collections::BTreeMap<u64, Vec<(u64, u64)>> =
            std::collections::BTreeMap::new();
        for e in events {
            if e.get("ph").and_then(JsonValue::as_str) != Some("X") {
                continue;
            }
            let tid = e.get("tid").and_then(JsonValue::as_f64).expect("tid") as u64;
            let ts_ns = (e.get("ts").and_then(JsonValue::as_f64).expect("ts") * 1_000.0).round();
            let dur_ns =
                (e.get("dur").and_then(JsonValue::as_f64).expect("dur") * 1_000.0).round();
            by_lane.entry(tid).or_default().push((ts_ns as u64, ts_ns as u64 + dur_ns as u64));
        }
        for (lane, mut intervals) in by_lane {
            // Outermost first at equal starts, then sweep with a stack.
            intervals.sort_by_key(|&(start, end)| (start, std::cmp::Reverse(end)));
            let mut stack: Vec<(u64, u64)> = Vec::new();
            for (start, end) in intervals {
                while let Some(&(_, open_end)) = stack.last() {
                    if start >= open_end {
                        stack.pop();
                    } else {
                        break;
                    }
                }
                if let Some(&(open_start, open_end)) = stack.last() {
                    prop_assert!(
                        open_start <= start && end <= open_end,
                        "lane {}: [{start}, {end}) partially overlaps [{open_start}, {open_end})",
                        lane
                    );
                }
                stack.push((start, end));
            }
        }
    }
}
