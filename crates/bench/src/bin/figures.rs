//! Regenerates every table and figure of the Potemkin evaluation.
//!
//! ```text
//! figures                  # all experiments
//! figures e1 e5            # a subset
//! figures --fast           # all, with shortened runs
//! figures --csv e3         # machine-readable output for plotting pipelines
//! figures --out-dir out    # also write every JSON artifact into out/
//! ```
//!
//! Output is plain aligned text; EXPERIMENTS.md quotes it directly.

use potemkin_bench::experiments::{
    e1, e10, e11, e12, e13, e14, e15, e16, e17, e18, e2, e3, e4, e5, e6, e7, e8, e9,
};
use potemkin_sim::SimTime;

/// Every experiment this harness can run, in the order it runs them.
const EXPERIMENTS: [&str; 18] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18",
];

struct Opts {
    which: Vec<String>,
    fast: bool,
    csv: bool,
    /// Directory receiving every emitted artifact (`BENCH_replay.json`,
    /// `BENCH_obs.json`, `BENCH_memory.json`, `BENCH_snapshot.json`,
    /// `BENCH_federation.json`, `trace.json`). The legacy per-file flags
    /// below override the directory-derived path for their artifact and
    /// remain accepted as aliases.
    out_dir: Option<String>,
    bench_out: Option<String>,
    obs_out: Option<String>,
    trace_out: Option<String>,
    memory_out: Option<String>,
    snapshot_out: Option<String>,
    federation_out: Option<String>,
    services_out: Option<String>,
    storage_out: Option<String>,
}

impl Opts {
    /// The output path for `name`: the explicit alias flag when given,
    /// else `<out-dir>/<name>`.
    fn artifact(&self, alias: &Option<String>, name: &str) -> Option<String> {
        alias.clone().or_else(|| self.out_dir.as_ref().map(|dir| format!("{dir}/{name}")))
    }
}

fn parse_args() -> Opts {
    let mut opts = Opts {
        which: Vec::new(),
        fast: false,
        csv: false,
        out_dir: None,
        bench_out: None,
        obs_out: None,
        trace_out: None,
        memory_out: None,
        snapshot_out: None,
        federation_out: None,
        services_out: None,
        storage_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fast" => opts.fast = true,
            "--csv" => opts.csv = true,
            "--out-dir" => opts.out_dir = args.next(),
            // Aliases kept from before --out-dir existed.
            "--bench-out" => opts.bench_out = args.next(),
            "--obs-out" => opts.obs_out = args.next(),
            "--trace-out" => opts.trace_out = args.next(),
            "--memory-out" => opts.memory_out = args.next(),
            "--snapshot-out" => opts.snapshot_out = args.next(),
            "--federation-out" => opts.federation_out = args.next(),
            "--services-out" => opts.services_out = args.next(),
            "--storage-out" => opts.storage_out = args.next(),
            "--help" | "-h" => {
                println!(
                    "usage: figures [--fast] [--csv] [--out-dir DIR] [{}]\n\
                     --out-dir DIR   write BENCH_replay.json, BENCH_obs.json, \
                     BENCH_memory.json, BENCH_snapshot.json, BENCH_federation.json, \
                     BENCH_services.json, BENCH_storage.json and trace.json into DIR\n\
                     (per-file aliases: --bench-out, --obs-out, --trace-out, \
                     --memory-out, --snapshot-out, --federation-out, --services-out, \
                     --storage-out)",
                    EXPERIMENTS.join(" ")
                );
                std::process::exit(0);
            }
            other => opts.which.push(other.trim_start_matches("--").to_string()),
        }
    }
    // A misspelt name used to select nothing and exit 0, which reads as a
    // pass to whatever script called us.
    if let Some(unknown) = opts.which.iter().find(|w| !EXPERIMENTS.contains(&w.as_str())) {
        eprintln!("figures: unknown experiment '{unknown}'; valid: {}", EXPERIMENTS.join(" "));
        std::process::exit(2);
    }
    if let Some(dir) = &opts.out_dir {
        std::fs::create_dir_all(dir).expect("create --out-dir");
    }
    opts
}

fn emit(opts: &Opts, table: &potemkin_metrics::Table) {
    if opts.csv {
        print!("{}", table.to_csv());
        println!();
    } else {
        println!("{table}");
    }
}

fn wants(opts: &Opts, id: &str) -> bool {
    opts.which.is_empty() || opts.which.iter().any(|w| w == id)
}

fn main() {
    let opts = parse_args();
    println!("Potemkin virtual honeyfarm — evaluation harness");
    println!("(paper: Vrable et al., SOSP 2005; see EXPERIMENTS.md for the mapping)\n");

    if wants(&opts, "e1") {
        let r = e1::run();
        emit(&opts, &e1::breakdown_table(&r));
        emit(&opts, &e1::comparison_table(&r));
    }
    if wants(&opts, "e2") {
        let counts: &[u64] = if opts.fast { &[1, 25, 50] } else { &[1, 10, 25, 50, 75, 100, 116] };
        let r = e2::run(counts);
        emit(&opts, &e2::table(&r));
        println!(
            "full-copy baseline capacity: {} VMs; delta virtualization: {} VMs\n",
            r.full_copy_capacity, r.cow_capacity
        );
    }
    if wants(&opts, "e3") {
        let duration = if opts.fast { SimTime::from_secs(300) } else { SimTime::from_secs(1_800) };
        let r = e3::run(duration, &e3::default_lifetimes(), 2005);
        println!(
            "trace: {} packets over {}, {} distinct telescope addresses",
            r.packets, r.duration, r.addresses_touched
        );
        emit(&opts, &e3::table(&r));
    }
    if wants(&opts, "e4") {
        let iters = if opts.fast { 20_000 } else { 200_000 };
        let r = e4::run(&[100, 1_000, 10_000, 50_000], iters);
        emit(&opts, &e4::table(&r));
    }
    if wants(&opts, "e5") {
        let duration = if opts.fast { SimTime::from_secs(25) } else { SimTime::from_secs(60) };
        let r = e5::run(duration);
        emit(&opts, &e5::summary_table(&r));
        emit(&opts, &e5::curve_table(&r));
    }
    if wants(&opts, "e6") {
        let duration = if opts.fast { SimTime::from_secs(120) } else { SimTime::from_secs(600) };
        let r = e6::run(duration, SimTime::from_secs(60), 1);
        emit(&opts, &e6::summary_table(&r, duration));
        emit(&opts, &e6::mix_table(&r));
        emit(&opts, &e6::series_table(&r));
    }
    if wants(&opts, "e7") {
        let r = e7::run(2);
        emit(&opts, &e7::table(&r));
    }
    if wants(&opts, "e8") {
        let duration = if opts.fast { SimTime::from_secs(60) } else { SimTime::from_secs(300) };
        let r = e8::run(duration);
        emit(&opts, &e8::table(&r));
    }
    if wants(&opts, "e9") {
        let duration = if opts.fast { SimTime::from_secs(30) } else { SimTime::from_secs(90) };
        let r = e9::run(duration, &e9::default_lifetimes());
        emit(&opts, &e9::table(&r));
    }
    if wants(&opts, "e10") {
        let duration = if opts.fast { SimTime::from_secs(60) } else { SimTime::from_secs(300) };
        let r = e10::run(duration, &e10::default_levels());
        println!("trace: {} packets over {} per fault level", r.packets, r.duration);
        emit(&opts, &e10::table(&r));
    }
    if wants(&opts, "e11") {
        let duration = if opts.fast { SimTime::from_secs(15) } else { SimTime::from_secs(60) };
        let workers: &[usize] = if opts.fast { &[1, 2] } else { &[1, 2, 4, 8] };
        let r = e11::run(duration, 8, workers);
        println!(
            "replay: {} packets, {} events, {} cross-cell, deterministic: {}",
            r.packets, r.events, r.cross_cell_packets, r.deterministic
        );
        emit(&opts, &e11::table(&r));
    }
    if wants(&opts, "e12") {
        let duration = if opts.fast { SimTime::from_secs(5) } else { SimTime::from_secs(20) };
        let r = e12::run(duration, if opts.fast { 2 } else { 4 });
        println!(
            "trace capture: {} events over {} lanes; digests match: {}",
            r.events_captured,
            r.trace_lanes.len(),
            r.digests_match
        );
        emit(&opts, &e12::breakdown_table(&r));
        emit(&opts, &e12::overhead_table(&r));
        if let Some(path) = opts.artifact(&opts.obs_out, "BENCH_obs.json") {
            std::fs::write(&path, e12::bench_json(&r)).expect("write obs bench json");
            println!("wrote {path}");
        }
        if let Some(path) = opts.artifact(&opts.trace_out, "trace.json") {
            let chrome = potemkin_obs::chrome_trace_json(&r.trace, &r.trace_lanes);
            std::fs::write(&path, chrome).expect("write chrome trace");
            println!("wrote {path} (open in chrome://tracing or ui.perfetto.dev)");
        }
    }
    if wants(&opts, "e13") {
        let duration = if opts.fast { SimTime::from_secs(4) } else { SimTime::from_secs(10) };
        let counts: &[usize] = if opts.fast { &[8, 16, 32] } else { &[8, 16, 32, 64] };
        let workers: &[usize] = if opts.fast { &[1, 2] } else { &[1, 2, 4] };
        let r = e13::run(duration, counts, workers);
        println!(
            "sharing curves identical across policies: {}, min post-merge ratio: {:.2}x, \
             deterministic: {}",
            r.curves_identical, r.sharing_ratio_min, r.deterministic
        );
        emit(&opts, &e13::sharing_table(&r));
        emit(&opts, &e13::pressure_table(&r));
        if let Some(path) = opts.artifact(&opts.memory_out, "BENCH_memory.json") {
            std::fs::write(&path, e13::bench_json(&r)).expect("write memory bench json");
            println!("wrote {path}");
        }
    }
    if wants(&opts, "e14") {
        let duration = if opts.fast { SimTime::from_secs(3) } else { SimTime::from_secs(6) };
        let workers: &[usize] = if opts.fast { &[1, 2] } else { &[1, 2, 4] };
        let r = e14::run(duration, workers);
        println!(
            "snapshot: {} windows, killed after {}, {} checkpoints, {} bytes; \
             resume deterministic: {}, corruption rejected: {}",
            r.windows,
            r.kill_after_windows,
            r.checkpoints_written,
            r.snapshot_bytes,
            r.deterministic,
            r.all_rejected
        );
        emit(&opts, &e14::resume_table(&r));
        emit(&opts, &e14::integrity_table(&r));
        if let Some(path) = opts.artifact(&opts.snapshot_out, "BENCH_snapshot.json") {
            std::fs::write(&path, e14::bench_json(&r)).expect("write snapshot bench json");
            println!("wrote {path}");
        }
    }
    if wants(&opts, "e15") {
        let duration = if opts.fast { SimTime::from_secs(10) } else { SimTime::from_secs(60) };
        let workers: &[usize] = if opts.fast { &[1, 2] } else { &[1, 2, 4, 8] };
        let r = e15::run(duration, 8, workers);
        println!(
            "hot path: {} packets; per-worker gain {:.2}x; deterministic: baseline {}, tuned {}",
            r.packets, r.per_worker_gain, r.baseline.deterministic, r.tuned.deterministic
        );
        emit(&opts, &e15::table(&r));
        if let Some(path) = opts.artifact(&opts.bench_out, "BENCH_replay.json") {
            std::fs::write(&path, e15::bench_json(&r)).expect("write bench json");
            println!("wrote {path}");
        }
    }
    if wants(&opts, "e16") {
        // Fast: a /16 across up to 4 farms for CI smoke. Full: a /11 —
        // ~2.1M monitored addresses — federated across up to 16 farms.
        let duration = if opts.fast { SimTime::from_secs(4) } else { SimTime::from_secs(6) };
        let telescope: potemkin_net::addr::Ipv4Prefix =
            if opts.fast { "10.1.0.0/16" } else { "10.0.0.0/11" }.parse().expect("static prefix");
        let cells = if opts.fast { 8 } else { 16 };
        let farm_counts: &[usize] = if opts.fast { &[1, 2, 4] } else { &[1, 2, 4, 8, 16] };
        let workers: &[usize] = &[1, 2];
        let r = e16::run(duration, telescope, cells, farm_counts, workers);
        println!(
            "federation: {} addresses across up to {} farms, {} packets, {} cross-cell; \
             deterministic: {}, shed invariant: {}",
            r.monitored_addresses,
            farm_counts.last().unwrap_or(&1),
            r.packets,
            r.cross_cell_packets,
            r.deterministic,
            r.shed_invariant
        );
        emit(&opts, &e16::table(&r));
        if let Some(path) = opts.artifact(&opts.federation_out, "BENCH_federation.json") {
            std::fs::write(&path, e16::bench_json(&r)).expect("write federation bench json");
            println!("wrote {path}");
        }
    }
    if wants(&opts, "e17") {
        let duration = if opts.fast { SimTime::from_secs(12) } else { SimTime::from_secs(30) };
        let cells = if opts.fast { 2 } else { 4 };
        let attackers = if opts.fast { 2 } else { 4 };
        let workers: &[usize] = if opts.fast { &[1, 2] } else { &[1, 2, 4] };
        let r = e17::run(duration, cells, attackers, workers);
        println!(
            "services: {} attackers over 4 scenarios, {} drives completed, {} payloads \
             captured, {} sessions; deterministic: {}",
            r.attackers, r.drive_completed, r.payloads_captured, r.sessions_opened, r.deterministic
        );
        emit(&opts, &e17::table(&r));
        emit(&opts, &e17::sweep_table(&r));
        if let Some(path) = opts.artifact(&opts.services_out, "BENCH_services.json") {
            std::fs::write(&path, e17::bench_json(&r)).expect("write services bench json");
            println!("wrote {path}");
        }
    }
    if wants(&opts, "e18") {
        let duration = if opts.fast { SimTime::from_secs(2) } else { SimTime::from_secs(6) };
        let workers: &[usize] = if opts.fast { &[1, 2] } else { &[1, 2, 4] };
        let r = e18::run(duration, workers);
        println!(
            "storage: {} images over {}-block chunks; sharing {:.2}x, {} dedupe hits, \
             lazy: {}, deterministic: {}",
            r.images,
            r.chunk_blocks,
            r.sharing_ratio,
            r.after_reads.dedupe_hits,
            r.lazy,
            r.deterministic
        );
        emit(&opts, &e18::store_table(&r));
        emit(&opts, &e18::checkpoint_table(&r));
        emit(&opts, &e18::digest_table(&r));
        if let Some(path) = opts.artifact(&opts.storage_out, "BENCH_storage.json") {
            std::fs::write(&path, e18::bench_json(&r)).expect("write storage bench json");
            println!("wrote {path}");
        }
    }
}
