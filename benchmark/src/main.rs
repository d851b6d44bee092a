//! The performance ledger's one binary: the runner a person or the driver
//! starts, and (with `--role`) each child the runner starts for itself.
//! `benchmark/README.md` has the protocol and the reasons for it.

mod child;
mod drive;
mod host;
mod json;
mod layers;
mod metrics;
mod runner;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use child::ChildArgs;
use drive::{Workload, PINNED_SEED};
use runner::RunArgs;

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

/// Where temporary files, traces and `results.json` go.
const OUT_DIR: &str = "benchmark/out";

/// Seconds of warm repetitions when `--seconds` is not given; the value
/// `BENCHMARK.json` passes as `run_seconds`.
const DEFAULT_SECONDS: f64 = 55.0;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: benchmark/run.sh [selfcheck] [WORKLOAD...] [--seed N] [--seconds S] [--no-trace]\n\
         \x20      benchmark/run.sh --workload WORKLOAD --seed N --seconds S --trace 0|1\n\
         workloads: {}\n\
         With no workload named, all six run (`selfcheck`: the two that\n\
         BENCHMARK.json holds to bounds). The second form is the driver's: one\n\
         workload, one kind of run, one JSON object as the last line of output.",
        names.join(" ")
    )
}

struct Cli {
    selfcheck: bool,
    workloads: Vec<Workload>,
    /// `--workload`: the driver's single-run form.
    single: Option<Workload>,
    seed: u64,
    seconds: f64,
    /// `--trace 0|1`, the single-run form's choice of run.
    trace: Option<bool>,
    /// `--no-trace`, the suite's.
    no_trace: bool,
    role: Option<String>,
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or_else(|| format!("unknown workload or subcommand {name:?}"))
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        selfcheck: false,
        workloads: Vec::new(),
        single: None,
        seed: PINNED_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        no_trace: false,
        role: None,
    };
    let mut it = args.iter().enumerate();
    while let Some((i, arg)) = it.next() {
        let mut value = || it.next().map(|(_, v)| v.as_str()).ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "selfcheck" if i == 0 => cli.selfcheck = true,
            "--workload" => cli.single = Some(workload(value()?)?),
            "--seed" => {
                cli.seed = value()?.parse().map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(cli.seconds > 0.0 && cli.seconds <= 3600.0) {
                    return Err("--seconds must be above 0 and at most 3600".to_string());
                }
            }
            "--trace" => {
                cli.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--no-trace" => cli.no_trace = true,
            "--role" => cli.role = Some(value()?.to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            name => cli.workloads.push(workload(name)?),
        }
    }
    if cli.single.is_some() && (cli.selfcheck || !cli.workloads.is_empty()) {
        return Err("--workload runs one workload; name the others without it".to_string());
    }
    if (cli.single.is_some() && cli.no_trace) || (cli.single.is_none() && cli.trace.is_some()) {
        return Err("--trace goes with --workload, --no-trace with the suite".to_string());
    }
    if cli.workloads.is_empty() {
        // The bounds `selfcheck` holds runs to are declared for these only.
        cli.workloads =
            if cli.selfcheck { Workload::GATED.to_vec() } else { Workload::ALL.to_vec() };
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("{OUT_DIR}: {e}");
        return ExitCode::FAILURE;
    }
    let run = RunArgs { seed: cli.seed, seconds: cli.seconds };

    if let Some(role) = &cli.role {
        let Some(workload) = cli.single else {
            eprintln!("--role needs --workload");
            return ExitCode::from(2);
        };
        let args = ChildArgs { workload, seed: cli.seed, seconds: cli.seconds, out_dir: &out_dir };
        let result = match role.as_str() {
            "cold" => child::cold(&args),
            "warm" => child::warm(&args),
            "traced" => child::traced(&args),
            other => Err(format!("unknown role {other:?}")),
        };
        return match result {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{} {role}: {e}", workload.name());
                ExitCode::FAILURE
            }
        };
    }

    let ok = if let Some(workload) = cli.single {
        let measured = if cli.trace == Some(true) {
            runner::traced(workload, run)
        } else {
            runner::untraced(workload, run)
        };
        for problem in &measured.problems {
            eprintln!("{}: INCORRECT: {problem}", workload.name());
        }
        if measured.metrics.is_empty() {
            // No child finished: there is no result to print.
            return ExitCode::FAILURE;
        }
        println!("{}", measured.contract_line());
        measured.correct()
    } else if cli.selfcheck {
        runner::selfcheck(&cli.workloads, run)
    } else {
        runner::suite(&cli.workloads, run, !cli.no_trace, &out_dir)
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
