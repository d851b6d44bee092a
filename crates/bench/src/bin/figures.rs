//! Regenerates every table and figure of the Potemkin evaluation.
//!
//! ```text
//! figures                  # all experiments
//! figures e1 e5            # a subset
//! figures --fast           # all, with shortened runs
//! figures --csv e3         # machine-readable output for plotting pipelines
//! figures --out-dir out    # also write every JSON artifact into out/
//! figures --fast --check . # compare every artifact with the checked-in one
//! ```
//!
//! Output is plain aligned text; EXPERIMENTS.md quotes it directly. The
//! exit status is 1 if any experiment's claim is false or, under `--check`,
//! any pinned artifact value differs from the baseline; 2 on a bad command
//! line or an unwritable `--out-dir`.

use std::path::{Path, PathBuf};

use potemkin_bench::experiments::ALL;
use potemkin_bench::harness::Block;

struct Opts {
    which: Vec<String>,
    fast: bool,
    csv: bool,
    /// Directory receiving every emitted artifact (`BENCH_*.json`, `trace.json`).
    out_dir: Option<PathBuf>,
    /// Directory holding the baseline artifacts to compare against.
    check: Option<PathBuf>,
}

/// A command-line or output-directory problem: one line, exit 2.
fn usage_error(message: &str) -> ! {
    eprintln!("figures: {message}");
    std::process::exit(2);
}

fn parse_args() -> Opts {
    let names: Vec<&str> = ALL.iter().map(|(id, _)| *id).collect();
    let mut opts = Opts { which: Vec::new(), fast: false, csv: false, out_dir: None, check: None };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut dir = || match args.next() {
            Some(dir) => Some(PathBuf::from(dir)),
            None => usage_error(&format!("{arg} needs a directory")),
        };
        match arg.as_str() {
            "--fast" => opts.fast = true,
            "--csv" => opts.csv = true,
            "--out-dir" => opts.out_dir = dir(),
            "--check" => opts.check = dir(),
            "--help" | "-h" => {
                println!(
                    "usage: figures [--fast] [--csv] [--out-dir DIR] [--check DIR] [{}]\n\
                     --out-dir DIR   write every BENCH_*.json and trace.json into DIR\n\
                     --check DIR     exit 1 if an artifact value outside `measured` differs \
                     from DIR's copy",
                    names.join(" ")
                );
                std::process::exit(0);
            }
            flag if flag.starts_with('-') => usage_error(&format!("unknown flag '{flag}'")),
            // A misspelt name used to select nothing and exit 0, which reads
            // as a pass to whatever script called us.
            name if !names.contains(&name) => {
                usage_error(&format!("unknown experiment '{name}'; valid: {}", names.join(" ")))
            }
            name => opts.which.push(name.to_string()),
        }
    }
    if let Some(dir) = &opts.out_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            usage_error(&format!("cannot create --out-dir {}: {e}", dir.display()));
        }
    }
    opts
}

fn write(dir: &Path, file: &str, contents: &str) {
    let path = dir.join(file);
    if let Err(e) = std::fs::write(&path, contents) {
        usage_error(&format!("cannot write {}: {e}", path.display()));
    }
    println!("wrote {}", path.display());
}

fn main() {
    let opts = parse_args();
    println!("Potemkin virtual honeyfarm — evaluation harness");
    println!("(paper: Vrable et al., SOSP 2005; see EXPERIMENTS.md for the mapping)\n");

    let mut failed = false;
    for (id, run) in ALL {
        if !opts.which.is_empty() && !opts.which.iter().any(|w| w == id) {
            continue;
        }
        let outcome = run(opts.fast);
        for block in &outcome.blocks {
            match block {
                Block::Line(line) => println!("{line}"),
                Block::Table(table) if opts.csv => println!("{}", table.to_csv()),
                Block::Table(table) => println!("{table}"),
            }
        }
        if let Some(dir) = &opts.out_dir {
            if let Some((file, value)) = &outcome.artifact {
                write(dir, file, &format!("{value}\n"));
            }
            for (file, contents) in &outcome.files {
                write(dir, file, contents);
            }
        }
        for failure in outcome.failures(opts.check.as_deref()) {
            eprintln!("figures: {id}: {failure}");
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
}
