//! The three children the runner starts for a workload, one at a time:
//! cold (fresh process, default allocator: peak RSS and the cross-check),
//! warm (retained heap: set-up time, then repetitions for the given time)
//! and traced (counts, unit costs, direct drive, shares). Each prints one
//! JSON object as its last line.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::drive::{self, Counts, Inputs, Outcome, TempDir, Workload, PINNED_SEED};
use crate::host;
use crate::json::Obj;
use crate::layers::{self, Layers};
use crate::trace::{count_allocs, Spans};

/// Timed repetitions the warm child makes however short `--seconds` is.
const MIN_REPS: usize = 3;
/// One set-up sample times this many set-ups in a row, as one takes less
/// than the clock can tell apart.
const SETUP_BATCH: usize = 32;
/// Set-up samples taken before each warm repetition, and after the cold one.
const SETUP_SAMPLES: usize = 8;

pub struct ChildArgs<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Directory for temporary files and the trace, inside the checkout.
    pub out_dir: &'a Path,
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// One timed driver call: `(outcome, wall seconds, CPU seconds)`.
fn timed_run(
    inputs: &Inputs,
    dir: &TempDir,
    spans: &mut Spans,
) -> Result<(Outcome, f64, f64), String> {
    let cpu = host::cpu_seconds();
    let start = Instant::now();
    let outcome = drive::run(inputs, dir, spans)?;
    let wall = start.elapsed().as_secs_f64();
    Ok((outcome, wall, host::cpu_seconds() - cpu))
}

/// Checks every repetition did the same work, and at the pinned seed the
/// pinned work. Returns what went wrong, one line each.
fn check(workload: Workload, seed: u64, outcomes: &[Outcome]) -> Vec<String> {
    let mut problems = Vec::new();
    let first = &outcomes[0];
    if outcomes.iter().any(|o| (o.ops, o.digest) != (first.ops, first.digest)) {
        problems.push("repetitions of one input disagree".to_string());
    }
    if first.escaped != 0 {
        problems.push(format!("{} packets escaped containment", first.escaped));
    }
    if seed == PINNED_SEED && (first.ops, first.digest) != workload.pinned() {
        let (ops, digest) = workload.pinned();
        problems.push(format!(
            "ops {} digest {:016x} differ from the pinned {ops} {digest:016x}",
            first.ops, first.digest
        ));
    }
    problems
}

fn outcome_fields(obj: &mut Obj, outcomes: &[Outcome], problems: &[String]) {
    let first = &outcomes[0];
    obj.int("ops", first.ops);
    obj.int("attempted", outcomes.iter().map(|o| o.ops).sum());
    obj.int("failed", outcomes.iter().map(|o| o.failed).sum());
    obj.str("digest", &format!("{:016x}", first.digest));
    obj.int("events", first.counts.events);
    obj.strs("problems", problems);
}

/// Cold child: one repetition in a fresh process with the default
/// allocator, then the reference run the digest must equal.
pub fn cold(args: &ChildArgs) -> Result<String, String> {
    let dir = TempDir::create(args.out_dir)?;
    let inputs = drive::setup(args.workload, args.seed)?;
    let (outcome, wall, _) = timed_run(&inputs, &dir, &mut Spans::new())?;
    // Read before the reference run, which would raise the mark.
    let peak_rss_mb = host::peak_rss_mb();
    let mut problems = check(args.workload, args.seed, std::slice::from_ref(&outcome));
    if let Some(reference) = drive::reference(&inputs) {
        let expected = drive::run(&reference, &dir, &mut Spans::new())?.digest;
        if expected != outcome.digest {
            problems.push(format!(
                "digest {:016x} differs from the reference run's {expected:016x}",
                outcome.digest
            ));
        }
    }
    let mut obj = Obj::new();
    obj.num("wall_s", wall);
    obj.num("peak_rss_mb", peak_rss_mb);
    obj.num("setup_s", setup_seconds(args)?);
    outcome_fields(&mut obj, &[outcome], &problems);
    Ok(obj.finish())
}

/// The cheapest of [`SETUP_SAMPLES`] set-up samples, in seconds per set-up.
/// A neighbour on the core's other thread slows these few hundred
/// nanoseconds of builders by half for seconds on end, with quiet moments in
/// between: as with `wall_s`, the least disturbed sample is the time.
fn setup_seconds(args: &ChildArgs) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..SETUP_SAMPLES {
        let start = Instant::now();
        for _ in 0..SETUP_BATCH {
            std::hint::black_box(drive::setup(args.workload, args.seed)?);
        }
        best = best.min(start.elapsed().as_secs_f64() / SETUP_BATCH as f64);
    }
    Ok(best)
}

/// Warm child: one untimed repetition to fault the heap in, then timed
/// repetitions until `seconds` are spent, with set-up samples taken before
/// each so that they spread over the whole run.
pub fn warm(args: &ChildArgs) -> Result<String, String> {
    let dir = TempDir::create(args.out_dir)?;
    let inputs = drive::setup(args.workload, args.seed)?;
    let mut spans = Spans::new();
    let mut outcomes = vec![timed_run(&inputs, &dir, &mut spans)?.0];

    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let mut setup_s = f64::INFINITY;
    let start = Instant::now();
    // Stop when the next repetition would overrun: the cheapest so far is
    // the best guess of what it costs.
    while walls.len() < MIN_REPS || start.elapsed().as_secs_f64() + min(&walls) <= args.seconds {
        setup_s = setup_s.min(setup_seconds(args)?);
        let (outcome, wall, cpu) = timed_run(&inputs, &dir, &mut spans)?;
        outcomes.push(outcome);
        walls.push(wall);
        cpus.push(cpu);
    }
    let problems = check(args.workload, args.seed, &outcomes);
    let mut obj = Obj::new();
    obj.num("setup_s", setup_s);
    obj.int("reps", walls.len() as u64);
    obj.num("wall_s", min(&walls));
    obj.num("wall_max_s", max(&walls));
    obj.num("wall_median_s", median(&mut walls));
    obj.num("cpu_s", min(&cpus));
    obj.num("cpu_max_s", max(&cpus));
    obj.num("cpu_median_s", median(&mut cpus));
    outcome_fields(&mut obj, &outcomes, &problems);
    Ok(obj.finish())
}

/// Seconds each layer accounts for: Σ count × unit cost. The model behind
/// every `*.share`; README.md spells it out.
fn layer_seconds(
    c: &Counts,
    workers: usize,
    unit: impl Fn(&str) -> f64,
) -> Vec<(&'static str, f64)> {
    let n = |count: u64| count as f64;
    let window_us = if workers > 1 { unit("sim.window_us_w2") } else { unit("sim.window_us_w1") };
    let mb = |bytes: u64| bytes as f64 / 1e6;
    vec![
        ("sim.share", n(c.events) * unit("sim.queue_ns") / 1e9 + n(c.windows) * window_us / 1e6),
        (
            "net.share",
            (n(c.pkts_out + c.reflected) * unit("net.build_ns")
                + n(c.xfarm_pkts) * (unit("net.parse_ns") + unit("net.gre_ns")))
                / 1e9,
        ),
        ("workload.share", n(c.trace_pkts) * unit("workload.gen_us_per_pkt") / 1e6),
        (
            "gateway.share",
            (n(c.delivered) * unit("gateway.inbound_bound_ns")
                + n(c.clone_requests) * unit("gateway.inbound_new_ns")
                + n(c.pkts_out) * unit("gateway.outbound_ns"))
                / 1e9
                + n(c.ticks) * unit("gateway.expire_us") / 1e6,
        ),
        (
            "vmm.share",
            (n(c.clones) * unit("vmm.clone_us")
                + n(c.recycles) * unit("vmm.destroy_us")
                + n(c.guest_requests) * unit("vmm.request_us")
                + n(c.infections) * unit("vmm.infect_us"))
                / 1e6,
        ),
        (
            "storage.share",
            unit("storage.reads") * unit("storage.read_ns") / 1e9
                + unit("storage.materialized") * unit("storage.materialize_us") / 1e6,
        ),
        (
            "snapshot.share",
            mb(c.snapshot_bytes)
                * (1.0 / unit("snapshot.encode_mb_s") + 1.0 / unit("snapshot.file_mb_s"))
                + mb(c.restored_bytes) / unit("snapshot.restore_mb_s"),
        ),
        ("services.share", n(c.svc_requests) * unit("services.request_us") / 1e6),
        ("federation.share", n(c.xfarm_pkts) * unit("federation.forward_ns") / 1e9),
    ]
}

/// Traced child: a first repetition (cold, timed as a diagnostic), two
/// untraced ones, one with the counting allocator on, then the direct
/// drive and the layer drives. Writes the spans and returns the per-layer
/// metrics.
pub fn traced(args: &ChildArgs) -> Result<String, String> {
    let workers = args.workload.workers();
    let mut spans = Spans::new();
    let run = spans.begin("run");
    let dir = TempDir::create(args.out_dir)?;
    let (inputs, _) = spans.timed("setup", || drive::setup(args.workload, args.seed));
    let inputs = inputs?;
    let (first, cold_run_s, _) = timed_run(&inputs, &dir, &mut Spans::new())?;
    let mut outcomes = vec![first];
    let mut best: Option<(Outcome, f64)> = None;
    for _ in 0..2 {
        let (outcome, wall, _) = timed_run(&inputs, &dir, &mut Spans::new())?;
        outcomes.push(outcome.clone());
        if best.as_ref().is_none_or(|(_, w)| wall < *w) {
            best = Some((outcome, wall));
        }
    }
    let (outcome, wall_s) = best.expect("two repetitions ran");
    let drive_span = spans.begin("drive");
    let start = Instant::now();
    let (traced_outcome, alloc_bytes, alloc_count) =
        count_allocs(|| drive::run(&inputs, &dir, &mut spans));
    let traced_wall_s = start.elapsed().as_secs_f64();
    spans.end(drive_span);
    outcomes.push(traced_outcome?);
    spans.end(run);
    let mut problems = check(args.workload, args.seed, &outcomes);
    if let Some(reference) = drive::reference(&inputs) {
        if drive::run(&reference, &dir, &mut Spans::new())?.digest != outcome.digest {
            problems.push("digest differs from the reference run's".to_string());
        }
    }

    let c = &outcome.counts;
    let n = |count: u64| count as f64;
    let busy_s = n(c.busy_ns) / 1e9;
    let mut out: layers::Values = vec![
        ("sim.events", n(c.events)),
        ("sim.events_per_pkt", n(c.events) / n(c.pkts_in.max(1))),
        ("sim.events_per_s", n(c.events) / wall_s),
        ("sim.remote_msgs", n(c.remote_msgs)),
        ("sim.windows", n(c.windows)),
        ("sim.busy_s", busy_s),
        ("sim.busy_skew", c.busy_skew),
        ("sim.offbatch_s", workers as f64 * wall_s - busy_s),
        // The runner fills this in from two more processes.
        ("sim.speedup_w2", 0.0),
        ("core.pkts_in", n(c.pkts_in)),
        ("core.pkts_per_s", n(c.pkts_in) / wall_s),
        ("core.xcell_pkts", n(c.xcell_pkts)),
        ("gateway.reflected", n(c.reflected)),
        ("gateway.bindings_created", n(c.bindings_created)),
        ("gateway.bindings_expired", n(c.bindings_expired)),
        ("vmm.clones", n(c.clones)),
        ("vmm.recycles", n(c.recycles)),
        ("federation.xfarm_pkts", n(c.xfarm_pkts)),
        ("snapshot.bytes", n(c.snapshot_bytes)),
        ("snapshot.writes", n(c.snapshot_writes)),
        ("services.requests", n(c.svc_requests)),
        ("services.sessions", n(c.svc_sessions)),
        ("core.alloc_mb", n(alloc_bytes) / 1e6),
        ("core.alloc_count", n(alloc_count)),
    ];

    let direct_span = spans.begin("direct");
    let direct = match inputs.telescope() {
        Some(base) => Some(layers::direct(base, &mut spans)?),
        None => None,
    };
    spans.end(direct_span);

    let layers_span = spans.begin("layers");
    let mut drives = Layers {
        spans: &mut spans,
        // A third of the run's time, spread over some thirty drives.
        budget: Duration::from_secs_f64(args.seconds / 90.0),
        seed: args.seed,
        scratch: dir.path(),
        out: Vec::new(),
    };
    drives.sim(c.depth_high);
    drives.net();
    drives.gateway(c.peak_bindings);
    drives.vmm();
    drives.snapshot();
    drives.services()?;
    out.append(&mut drives.out);
    spans.end(layers_span);

    let mean_us = |name: &str| {
        let (ns, count) = spans.total(name);
        if count == 0 {
            0.0
        } else {
            ns as f64 / count as f64 / 1e3
        }
    };
    out.push(("core.inject_clone_us", mean_us("core.inject_clone")));
    out.push(("core.inject_bound_us", mean_us("core.inject_bound")));
    out.push(("core.tick_us", mean_us("core.tick")));
    out.push(("storage.reads", direct.as_ref().map_or(0.0, |d| n(d.store_reads))));
    out.push(("storage.materialized", direct.as_ref().map_or(0.0, |d| n(d.store_materialized))));

    let unit = |name: &str| {
        out.iter().find(|(n, _)| *n == name).map_or_else(|| panic!("{name} not measured"), |v| v.1)
    };
    let shares: layers::Values = layer_seconds(c, workers, unit)
        .into_iter()
        .map(|(name, seconds)| (name, seconds / wall_s))
        .collect();
    let explained: f64 = shares.iter().map(|(_, share)| share).sum();
    out.extend(shares);
    out.push(("core.share", 1.0 - explained));
    out.push(("core.trace_overhead", traced_wall_s / wall_s - 1.0));
    out.push(("core.cold_run_s", cold_run_s));
    out.push(("core.run_wall_s", wall_s));

    let trace_path = args.out_dir.join(format!("trace-{}.jsonl", args.workload.name()));
    spans
        .write_jsonl(&trace_path, args.workload.name())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let mut metrics = Obj::new();
    for (name, value) in &out {
        metrics.num(name, *value);
    }
    let mut obj = Obj::new();
    obj.raw("metrics", &metrics.finish());
    outcome_fields(&mut obj, &outcomes, &problems);
    Ok(obj.finish())
}
