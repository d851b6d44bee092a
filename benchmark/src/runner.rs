//! The parent process: starts a workload's children strictly one at a time,
//! gathers what they print, applies the correctness gate, and reports.

use std::path::Path;
use std::process::{Command, Stdio};

use potemkin::json::JsonValue;

use crate::drive::Workload;
use crate::host;
use crate::json::Obj;
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};

#[derive(Clone, Copy)]
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
}

/// One workload's result from either kind of run.
pub struct Measured {
    /// `(name, value)` of every metric of the run's kind.
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub ops: u64,
    pub events: u64,
    pub digest: String,
    /// Why the outputs are not correct; empty when they are.
    pub problems: Vec<String>,
    /// Plain fields for the human report: repetitions, medians, maxima.
    pub notes: Vec<(&'static str, f64)>,
}

impl Measured {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The last line the driver reads.
    pub fn contract_line(&self) -> String {
        let mut metrics = Obj::new();
        for (name, value) in &self.metrics {
            let mut m = Obj::new();
            m.num("value", *value);
            m.str("unit", unit_of(name));
            metrics.raw(name, &m.finish());
        }
        let mut obj = Obj::new();
        obj.bool("correct", self.correct());
        obj.int("attempted", self.attempted.max(1));
        // Outputs that fail the gate fail every operation that made them.
        obj.int(
            "failed",
            if self.problems.is_empty() { self.failed } else { self.attempted.max(1) },
        );
        obj.raw("metrics", &metrics.finish());
        obj.finish()
    }
}

fn child_failed(role: &str, why: String) -> Measured {
    Measured {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        ops: 0,
        events: 0,
        digest: String::new(),
        problems: vec![format!("{role} child: {why}")],
        notes: Vec::new(),
    }
}

/// Starts this binary again in `role` and parses the last line it prints.
fn child(role: &str, workload: Workload, args: RunArgs) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--role", role, "--workload", workload.name()])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if role == "cold" {
        command.env_remove("GLIBC_TUNABLES");
    } else {
        command.env("GLIBC_TUNABLES", host::WARM_TUNABLES);
    }
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!("{} ({last})", output.status));
    }
    JsonValue::parse(last).map_err(|e| format!("unreadable result {last:?}: {e}"))
}

fn num(value: &JsonValue, key: &str) -> Result<f64, String> {
    value.get(key).and_then(JsonValue::as_f64).ok_or_else(|| format!("result lacks {key}"))
}

fn text(value: &JsonValue, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("result lacks {key}"))
}

fn problems(value: &JsonValue, role: &str) -> Vec<String> {
    value
        .get("problems")
        .and_then(JsonValue::as_array)
        .map(|items| {
            items.iter().filter_map(JsonValue::as_str).map(|p| format!("{role}: {p}")).collect()
        })
        .unwrap_or_default()
}

/// The untraced run: cold child, then warm child; the end-to-end metrics.
pub fn untraced(workload: Workload, args: RunArgs) -> Measured {
    let cold = match child("cold", workload, args) {
        Ok(v) => v,
        Err(e) => return child_failed("cold", e),
    };
    let warm = match child("warm", workload, args) {
        Ok(v) => v,
        Err(e) => return child_failed("warm", e),
    };
    let gather = || -> Result<Measured, String> {
        let mut problems = [problems(&cold, "cold"), problems(&warm, "warm")].concat();
        let digest = text(&warm, "digest")?;
        if text(&cold, "digest")? != digest || num(&cold, "ops")? != num(&warm, "ops")? {
            problems.push("cold and warm children disagree".to_string());
        }
        let metrics = vec![
            ("wall_s", num(&warm, "wall_s")?),
            ("cpu_s", num(&warm, "cpu_s")?),
            ("peak_rss_mb", num(&cold, "peak_rss_mb")?),
            ("setup_s", num(&warm, "setup_s")?.min(num(&cold, "setup_s")?)),
        ];
        let mut notes = vec![("cold_wall_s", num(&cold, "wall_s")?)];
        for key in ["reps", "wall_median_s", "wall_max_s", "cpu_median_s", "cpu_max_s"] {
            notes.push((key, num(&warm, key)?));
        }
        Ok(Measured {
            metrics,
            attempted: (num(&cold, "attempted")? + num(&warm, "attempted")?) as u64,
            failed: (num(&cold, "failed")? + num(&warm, "failed")?) as u64,
            ops: num(&warm, "ops")? as u64,
            events: num(&warm, "events")? as u64,
            digest,
            problems,
            notes,
        })
    };
    gather().unwrap_or_else(|e| child_failed("cold or warm", e))
}

/// What the second worker bought: the one-worker twin's `wall_s` over this
/// workload's, each from a short warm child of its own. A one-worker run in
/// a process that has just run two workers starts from the wrong heap and
/// times up to 3x slow, so the ratio cannot come from one process.
fn speedup(workload: Workload, twin: Workload, args: RunArgs) -> Result<f64, String> {
    let brief = RunArgs { seconds: args.seconds / 4.0, ..args };
    let serial = num(&child("warm", twin, brief)?, "wall_s")?;
    let parallel = num(&child("warm", workload, brief)?, "wall_s")?;
    Ok(serial / parallel)
}

/// The traced run: the per-layer metrics.
pub fn traced(workload: Workload, args: RunArgs) -> Measured {
    let value = match child("traced", workload, args) {
        Ok(v) => v,
        Err(e) => return child_failed("traced", e),
    };
    let gather = || -> Result<Measured, String> {
        let reported = value.get("metrics").ok_or("result lacks metrics")?;
        let mut metrics = Vec::with_capacity(PER_LAYER.len());
        for (name, _) in PER_LAYER {
            metrics.push((name, num(reported, name)?));
        }
        if let Some(twin) = workload.serial_twin() {
            let ratio = speedup(workload, twin, args)?;
            metrics.iter_mut().filter(|(n, _)| *n == "sim.speedup_w2").for_each(|m| m.1 = ratio);
        }
        Ok(Measured {
            metrics,
            attempted: num(&value, "attempted")? as u64,
            failed: num(&value, "failed")? as u64,
            ops: num(&value, "ops")? as u64,
            events: num(&value, "events")? as u64,
            digest: text(&value, "digest")?,
            problems: problems(&value, "traced"),
            notes: Vec::new(),
        })
    };
    gather().unwrap_or_else(|e| child_failed("traced", e))
}

/// `storm_w2` on one core measures the scheduler, not the engine.
fn unresolved(workload: Workload) -> bool {
    workload.workers() > host::cores()
}

fn print_machine(machine: &[(&'static str, String)]) {
    println!("machine:");
    for (key, value) in machine {
        println!("  {key:<22} {value}");
    }
}

/// Six decimals, or six significant digits for what would print as zeros.
fn shown(value: f64) -> String {
    if value != 0.0 && value.abs() < 1e-3 {
        format!("{value:.5e}")
    } else {
        format!("{value:.6}")
    }
}

fn print_workload(workload: Workload, args: RunArgs, e2e: &Measured, layers: Option<&Measured>) {
    println!("\n== {} (seed {}, {} s) ==", workload.name(), args.seed, args.seconds);
    if unresolved(workload) {
        println!("  unresolved: {} workers on {} core(s)", workload.workers(), host::cores());
    }
    let note = |key: &str| e2e.notes.iter().find(|(k, _)| *k == key).map_or(f64::NAN, |(_, v)| *v);
    for (name, value) in &e2e.metrics {
        let extra = match *name {
            "wall_s" => format!(
                "min of {} reps, median {:.4}, max {:.4}; {:.0} ops/s; cold {:.4}",
                note("reps"),
                note("wall_median_s"),
                note("wall_max_s"),
                e2e.ops as f64 / value,
                note("cold_wall_s"),
            ),
            "cpu_s" => {
                format!("min, median {:.4}, max {:.4}", note("cpu_median_s"), note("cpu_max_s"))
            }
            "peak_rss_mb" => "VmHWM of the cold child".to_string(),
            _ => "cheapest sample of 32 set-ups, taken before every repetition".to_string(),
        };
        println!("  {name:<28} {:>16} {:<6} ({extra})", shown(*value), unit_of(name));
    }
    let fail_share = if e2e.correct() {
        0.0
    } else {
        1.0f64.min(e2e.failed.max(1) as f64 / e2e.ops.max(1) as f64)
    };
    println!(
        "  {:<28} {:>16} {:<6} ({} failed of {} attempted)",
        "fail_share",
        shown(fail_share),
        "ratio",
        e2e.failed,
        e2e.attempted
    );
    println!("  {:<28} {:>16} ops {} events {}", "digest", e2e.digest, e2e.ops, e2e.events);
    for measured in [Some(e2e), layers].into_iter().flatten() {
        for problem in &measured.problems {
            println!("  INCORRECT: {problem}");
        }
    }
    if let Some(layers) = layers {
        for (name, value) in &layers.metrics {
            println!("  {name:<28} {:>16} {}", shown(*value), unit_of(name));
        }
    }
}

fn measured_json(m: &Measured) -> String {
    let mut obj = Obj::new();
    obj.bool("correct", m.correct());
    obj.int("attempted", m.attempted);
    obj.int("failed", m.failed);
    obj.int("ops", m.ops);
    obj.int("events", m.events);
    obj.str("digest", &m.digest);
    obj.strs("problems", &m.problems);
    for (label, values) in [("metrics", &m.metrics), ("notes", &m.notes)] {
        let mut inner = Obj::new();
        for (name, value) in values {
            inner.num(name, *value);
        }
        obj.raw(label, &inner.finish());
    }
    obj.finish()
}

/// Runs every listed workload, prints every metric by name and unit, and
/// writes `results.json`. Returns whether every output was correct.
pub fn suite(workloads: &[Workload], args: RunArgs, trace: bool, out_dir: &Path) -> bool {
    let machine = host::machine();
    print_machine(&machine);
    let mut all_correct = true;
    let mut results = Obj::new();
    for &workload in workloads {
        let e2e = untraced(workload, args);
        let layers = trace.then(|| traced(workload, args));
        print_workload(workload, args, &e2e, layers.as_ref());
        all_correct &= e2e.correct() && layers.as_ref().is_none_or(Measured::correct);
        let mut entry = Obj::new();
        entry.bool("unresolved", unresolved(workload));
        entry.raw("end_to_end", &measured_json(&e2e));
        if let Some(layers) = &layers {
            entry.raw("per_layer", &measured_json(layers));
        }
        results.raw(workload.name(), &entry.finish());
    }
    let mut machine_obj = Obj::new();
    for (key, value) in &machine {
        machine_obj.str(key, value);
    }
    let mut doc = Obj::new();
    doc.raw("machine", &machine_obj.finish());
    doc.int("seed", args.seed);
    doc.num("seconds", args.seconds);
    doc.raw("workloads", &results.finish());
    let path = out_dir.join("results.json");
    match std::fs::write(&path, doc.finish() + "\n") {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => {
            eprintln!("{}: {e}", path.display());
            all_correct = false;
        }
    }
    println!("{}", if all_correct { "all outputs correct" } else { "SOME OUTPUTS INCORRECT" });
    all_correct
}

/// What `BENCHMARK.json` declares: each end-to-end metric's bound, once
/// its workload and metric names are seen to be the ones this binary prints.
fn declared_bounds() -> Result<Vec<(String, f64)>, String> {
    let file = "BENCHMARK.json";
    let doc = std::fs::read_to_string(file)
        .map_err(|e| e.to_string())
        .and_then(|t| JsonValue::parse(&t).map_err(|e| e.to_string()))
        .map_err(|e| format!("{file}: {e}"))?;
    let listed = |key: &str| -> Result<Vec<(String, f64)>, String> {
        let items =
            doc.get(key).and_then(JsonValue::as_array).ok_or(format!("{file}: no {key}"))?;
        items.iter().map(|m| Ok((text(m, "name")?, num(m, "bound").unwrap_or(0.0)))).collect()
    };
    let workloads = Workload::GATED.map(|w| w.name());
    let e2e = END_TO_END.map(|(name, _)| name);
    let per_layer = PER_LAYER.map(|(name, _)| name);
    for (key, known) in
        [("workloads", &workloads[..]), ("end_to_end", &e2e[..]), ("per_layer", &per_layer[..])]
    {
        if !listed(key)?.iter().map(|(name, _)| name.as_str()).eq(known.iter().copied()) {
            return Err(format!("{file}: {key} differs from what this binary prints"));
        }
    }
    listed("end_to_end")
}

/// Runs the untraced suite twice and holds the two against each other:
/// counts and digests exactly, each end-to-end metric within its bound.
pub fn selfcheck(workloads: &[Workload], args: RunArgs) -> bool {
    let bounds = match declared_bounds() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{e}");
            return false;
        }
    };
    print_machine(&host::machine());
    let sets: Vec<Vec<Measured>> =
        (0..2).map(|_| workloads.iter().map(|&w| untraced(w, args)).collect()).collect();
    let mut ok = true;
    println!(
        "\n{:<12} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (i, &workload) in workloads.iter().enumerate() {
        let (a, b) = (&sets[0][i], &sets[1][i]);
        for m in [a, b] {
            for problem in &m.problems {
                println!("{:<12} INCORRECT: {problem}", workload.name());
            }
        }
        let same = (a.ops, a.events, &a.digest) == (b.ops, b.events, &b.digest);
        println!(
            "{:<12} {:<12} {:>14} {:>14} {:>9}",
            workload.name(),
            "digest",
            a.digest,
            b.digest,
            if same { "same" } else { "DIFFER" }
        );
        ok &= same && a.correct() && b.correct();
        if unresolved(workload) {
            println!("{:<12} unresolved: fewer cores than workers, not compared", workload.name());
            continue;
        }
        for (name, bound) in &bounds {
            let (Some(x), Some(y)) = (a.get(name), b.get(name)) else {
                ok = false;
                continue;
            };
            let diff = (y - x).abs() / x.min(y);
            let within = diff <= *bound;
            ok &= within;
            println!(
                "{:<12} {:<12} {:>14} {:>14} {:>8.2}% {:>6.0}%{}",
                workload.name(),
                name,
                shown(x),
                shown(y),
                diff * 100.0,
                bound * 100.0,
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    println!("{}", if ok { "selfcheck passed" } else { "SELFCHECK FAILED" });
    ok
}
