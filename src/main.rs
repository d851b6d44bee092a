//! `potemkin` — command-line driver for the honeyfarm.
//!
//! ```text
//! potemkin replay   [--duration SECS] [--idle SECS] [--servers N]
//!                   [--seed N] [--save-trace FILE.pcap] [--load-trace FILE.pcap]
//! potemkin outbreak [--worm codered|slammer|blaster] [--policy reflect|drop|allow]
//!                   [--duration SECS] [--scan-rate R] [--seeds N]
//! potemkin demand   [--duration SECS] [--lifetimes S1,S2,...] [--seed N]
//! potemkin clone    [--image small|windows|linux]
//! potemkin snapshot [--out FILE] [--duration SECS] [--cells N] [--workers N]
//!                   [--seed N] [--every-windows N] [--kill-after-windows N]
//! potemkin restore  [--from FILE] [--duration SECS] [--cells N] [--workers N]
//!                   [--seed N] [--every-windows N]
//! potemkin fork     [--from FILE] [--salt N] [--duration SECS] [--cells N]
//!                   [--workers N] [--seed N]
//! potemkin federate [--farms N] [--cells N] [--workers N] [--duration SECS]
//!                   [--seed N] [--window-ms MS] [--shed-after EVENTS]
//!                   [--verify true]
//! potemkin services [--scenario-dir DIR] [--duration SECS] [--cells N]
//!                   [--workers N] [--attackers N] [--seed N]
//!                   [--session-cap N] [--store FILE.jsonl] [--verify true]
//! potemkin storage  [--image small|windows|linux] [--images N] [--clones N]
//!                   [--chunk-blocks N] [--reads N]
//! ```
//!
//! A trace file is a libpcap file of bare IPv4 packets (LINKTYPE_RAW):
//! `replay --save-trace` writes the generated radiation as one, with
//! nanosecond stamps, and exits; `replay --load-trace` replays one — its
//! stamps read as time since the start, microsecond files too — in the
//! radiation's place, on the same engine and into the same table.
//!
//! Each subcommand exercises the public library API end to end; the
//! `figures` binary in `potemkin-bench` regenerates the paper's tables.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

use potemkin::checkpoint::{
    fork_telescope_checkpointed, recover_snapshot, resume_telescope_checkpointed,
    run_telescope_checkpointed, CheckpointOptions, CheckpointedRun,
};
use potemkin::farm::FarmConfig;
use potemkin::fed::AdmissionConfig;
use potemkin::federation::{run_telescope_federated, FederatedTelescopeConfig};
use potemkin::gateway::policy::PolicyConfig;
use potemkin::interaction::{run_interaction, InteractionConfig};
use potemkin::obs::{ConcurrencyAnalyzer, Table};
use potemkin::parallel::{run_telescope_sharded, ShardedTelescopeConfig, ShardedTelescopeResult};
use potemkin::scenario::TelescopeConfig;
use potemkin::services::{JsonlStore, ScenarioPack, ServicesConfig};
use potemkin::sim::SimTime;
use potemkin::vmm::guest::GuestProfile;
use potemkin::vmm::Host;
use potemkin::workload::radiation::{RadiationConfig, RadiationModel};
use potemkin::workload::trace::Trace;
use potemkin::workload::worm::WormSpec;
use potemkin::Error;

/// Parsed `--key value` flags plus the subcommand.
struct Args {
    command: String,
    flags: HashMap<String, String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or_else(usage)?;
    let mut flags = HashMap::new();
    while let Some(key) = argv.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {key:?}"))?
            .to_string();
        let value = argv.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key, value);
    }
    Ok(Args { command, flags })
}

fn usage() -> String {
    "usage: potemkin \
     <replay|outbreak|demand|clone|snapshot|restore|fork|federate|services|storage> \
     [--flag value ...]\n\
     see `src/main.rs` header for per-command flags"
        .to_string()
}

impl Args {
    fn secs(&self, key: &str, default: u64) -> Result<SimTime, String> {
        match self.flags.get(key) {
            None => Ok(SimTime::from_secs(default)),
            Some(v) => v
                .parse::<u64>()
                .map(SimTime::from_secs)
                .map_err(|_| format!("--{key}: bad number {v:?}")),
        }
    }

    fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: bad number {v:?}")),
        }
    }

    fn float(&self, key: &str) -> Result<Option<f64>, String> {
        match self.flags.get(key) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("--{key}: bad number {v:?}")),
        }
    }

    fn str(&self, key: &str, default: &str) -> String {
        self.flags.get(key).cloned().unwrap_or_else(|| default.to_string())
    }

    /// The guest profile `--image` names.
    fn image(&self, default: &str) -> Result<GuestProfile, String> {
        match self.str("image", default).as_str() {
            "small" => Ok(GuestProfile::small()),
            "windows" => Ok(GuestProfile::windows_server()),
            "linux" => Ok(GuestProfile::linux_server()),
            other => Err(format!("unknown image {other:?}")),
        }
    }
}

fn cmd_replay(args: &Args) -> Result<(), Error> {
    let duration = args.secs("duration", 120)?;
    let idle = args.secs("idle", 60)?;
    let servers = args.num("servers", 1)? as usize;
    let seed = args.num("seed", 2005)?;

    let mut farm = FarmConfig::small_test();
    farm.servers = servers;
    farm.frames_per_server = 1_500_000;
    farm.max_domains_per_server = 4_096;
    farm.gateway.policy.binding_idle_timeout = idle;

    if let Some(path) = args.flags.get("save-trace") {
        let trace = RadiationModel::new(RadiationConfig::default(), seed).generate(duration);
        let mut bytes = Vec::new();
        trace.write_pcap(&mut bytes)?;
        std::fs::write(path, bytes)?;
        println!("wrote {} packets to {path} (libpcap, LINKTYPE_RAW, ns stamps)", trace.len());
        return Ok(());
    }

    let base = TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(seed)
        .duration(duration)
        .sample_interval(SimTime::from_secs(5))
        .tick_interval(SimTime::from_secs(1))
        .build()?;
    let mut config = ShardedTelescopeConfig::builder(base);
    if let Some(path) = args.flags.get("load-trace") {
        let trace = Trace::read_pcap(&std::fs::read(path)?)?;
        println!("loaded {} packets from {path}", trace.len());
        config = config.capture(Arc::new(trace));
    }
    let result = run_telescope_sharded(&config.build()?, 1)?;

    let mut t = Table::new(&["metric", "value"]).with_title("telescope replay");
    t.row_owned(vec!["packets".into(), result.packets.to_string()]);
    t.row_owned(vec!["distinct sources".into(), result.distinct_sources.to_string()]);
    t.row_owned(vec!["addresses touched".into(), result.distinct_destinations.to_string()]);
    t.row_owned(vec!["VMs cloned".into(), result.stats.vms_cloned.to_string()]);
    t.row_owned(vec!["VMs recycled".into(), result.stats.vms_recycled.to_string()]);
    t.row_owned(vec!["peak live VMs".into(), format!("{:.0}", result.peak_live_vms)]);
    t.row_owned(vec!["clone p50".into(), result.stats.clone_latency_p50.to_string()]);
    t.row_owned(vec!["escapes".into(), result.stats.counters.get("escaped").to_string()]);
    println!("{t}");
    Ok(())
}

fn cmd_outbreak(args: &Args) -> Result<(), Error> {
    let duration = args.secs("duration", 40)?;
    let space = "10.1.0.0/24".parse().expect("static prefix");
    let mut worm = match args.str("worm", "codered").as_str() {
        "codered" => WormSpec::code_red(space),
        "slammer" => WormSpec::slammer(space),
        "blaster" => WormSpec::blaster(space),
        other => return Err(Error::Cli(format!("unknown worm {other:?}"))),
    };
    if let Some(rate) = args.float("scan-rate")? {
        if rate <= 0.0 {
            return Err(Error::Cli("--scan-rate must be positive".to_string()));
        }
        worm.scan_rate = rate;
    }
    let policy = match args.str("policy", "reflect").as_str() {
        "reflect" => PolicyConfig::reflect(),
        "drop" => PolicyConfig::drop_all(),
        "allow" => PolicyConfig::allow_all(),
        other => return Err(Error::Cli(format!("unknown policy {other:?}"))),
    };

    let mut farm = FarmConfig::small_test();
    farm.profile = GuestProfile::windows_server();
    farm.gateway.policy = policy;
    farm.gateway.policy.binding_idle_timeout = SimTime::from_secs(3_600);
    farm.worm = Some(worm.clone());
    farm.frames_per_server = 16_000_000;
    farm.max_domains_per_server = 4_096;

    // An outbreak is a one-cell run whose quiet telescope is the worm's
    // scan space.
    let quiet = RadiationConfig { telescope: space, peak_source_rate: 0.0, ..Default::default() };
    let base = TelescopeConfig::builder(farm, quiet)
        .duration(duration)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(10))
        .build()?;
    let config = ShardedTelescopeConfig::builder(base)
        .seed_infections(args.num("seeds", 1)? as usize)
        .build()?;
    let result = run_telescope_sharded(&config, 1)?;

    println!("worm: {} ({} probes/s, port {})", worm.name, worm.scan_rate, worm.port);
    println!("t(s)  infected (cumulative)");
    let step = (duration.as_secs() / 20).max(1);
    for (at, v) in result.infected_series.iter() {
        if at.as_secs().is_multiple_of(step) {
            println!("{:>4}  {:>8.0}", at.as_secs(), v);
        }
    }
    println!("\nfinal infected: {}", result.final_infected);
    println!("probes seen:    {}", result.stats.counters.get("worm_probes"));
    println!("escapes:        {}", result.degradation.escaped);
    Ok(())
}

fn cmd_demand(args: &Args) -> Result<(), Error> {
    let duration = args.secs("duration", 600)?;
    let seed = args.num("seed", 2005)?;
    let lifetimes: Vec<SimTime> = match args.flags.get("lifetimes") {
        None => vec![1, 5, 30, 60, 300].into_iter().map(SimTime::from_secs).collect(),
        Some(list) => list
            .split(',')
            .map(|s| s.trim().parse::<u64>().map(SimTime::from_secs))
            .collect::<Result<_, _>>()
            .map_err(|_| "--lifetimes: comma-separated seconds".to_string())?,
    };

    let mut model = RadiationModel::new(RadiationConfig::default(), seed);
    let trace = model.generate(duration);
    println!(
        "trace: {} packets, {} addresses over {}",
        trace.len(),
        trace.distinct_destinations(),
        duration
    );

    let arrivals = trace.events().iter().map(|e| (u32::from(e.packet.dst()), e.at));
    let demand = ConcurrencyAnalyzer::idle_recycling(arrivals, &lifetimes);
    let mut t = Table::new(&["recycle time", "peak VMs", "mean VMs"])
        .with_title("VM demand vs. recycle time");
    for (lifetime, stats) in lifetimes.into_iter().zip(demand) {
        t.row_owned(vec![
            lifetime.to_string(),
            stats.peak.to_string(),
            format!("{:.1}", stats.mean),
        ]);
    }
    println!("{t}");
    Ok(())
}

fn cmd_clone(args: &Args) -> Result<(), Error> {
    let profile = args.image("windows")?;
    let pages = profile.memory_pages;
    let mut host = Host::new(4 * pages + 8_192);
    let image = host.create_reference_image("cli", profile)?;
    let (_, flash) = host.flash_clone(image)?;
    let (_, full) = host.full_copy_clone(image)?;
    let (_, boot) = host.cold_boot(image)?;
    println!("image: {pages} pages ({} MiB)\n", pages * 4 / 1024);
    println!("flash clone breakdown:\n{flash}");
    println!(
        "totals: flash {} | full copy {} | cold boot {}",
        flash.total(),
        full.total(),
        boot.total()
    );
    Ok(())
}

/// The checkpoint commands all replay the same sharded telescope scenario;
/// the deterministic fields (cells, window, seed, duration) must match
/// between `snapshot` and a later `restore`/`fork` — the snapshot's config
/// fingerprint enforces that.
fn checkpoint_scenario(args: &Args) -> Result<ShardedTelescopeConfig, Error> {
    let mut farm = FarmConfig::small_test();
    farm.servers = args.num("servers", 2)? as usize;
    farm.frames_per_server = 262_144;
    farm.max_domains_per_server = 4_096;
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(30));
    farm.worm = Some(WormSpec::code_red("10.1.8.0/22".parse().expect("static prefix")));
    let base = TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(args.num("seed", 2005)?)
        .duration(args.secs("duration", 30)?)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()?;
    Ok(ShardedTelescopeConfig::builder(base)
        .cells(args.num("cells", 4)? as usize)
        .window(SimTime::from_millis(args.num("window-ms", 500)?))
        .seed_infections(1)
        .build()?)
}

fn checkpoint_options(args: &Args, path: String) -> Result<CheckpointOptions, Error> {
    let mut options = CheckpointOptions::new(path);
    options.every_windows = args.num("every-windows", 4)?;
    if let Some(kill) = args.flags.get("kill-after-windows") {
        let n = kill
            .parse::<u64>()
            .map_err(|_| Error::Cli(format!("--kill-after-windows: bad number {kill:?}")))?;
        options.stop_after_windows = Some(n);
    }
    Ok(options)
}

fn print_checkpointed_run(run: &CheckpointedRun) {
    let r = &run.result;
    let c = &run.checkpoints;
    let mut t = Table::new(&["metric", "value"]).with_title("checkpointed sharded replay");
    t.row_owned(vec!["packets".into(), r.packets.to_string()]);
    t.row_owned(vec!["cross-cell packets".into(), r.cross_cell_packets.to_string()]);
    t.row_owned(vec!["final infected".into(), r.final_infected.to_string()]);
    t.row_owned(vec!["peak live VMs".into(), format!("{:.0}", r.peak_live_vms)]);
    t.row_owned(vec!["windows executed".into(), r.engine.windows.to_string()]);
    t.row_owned(vec!["stream digest".into(), format!("{:016x}", r.stream_digest)]);
    t.row_owned(vec!["checkpoints written".into(), c.written.to_string()]);
    t.row_owned(vec!["checkpoints skipped".into(), c.skipped.to_string()]);
    t.row_owned(vec!["last snapshot bytes".into(), c.last_snapshot_bytes.to_string()]);
    t.row_owned(vec!["last digest".into(), format!("{:#018x}", c.last_digest)]);
    t.row_owned(vec!["interrupted".into(), c.interrupted.to_string()]);
    println!("{t}");
}

fn cmd_snapshot(args: &Args) -> Result<(), Error> {
    let config = checkpoint_scenario(args)?;
    let workers = args.num("workers", 2)? as usize;
    let options = checkpoint_options(args, args.str("out", "potemkin.snap"))?;
    let run = run_telescope_checkpointed(&config, workers, &options)?;
    if run.checkpoints.interrupted {
        println!(
            "run killed at window barrier {} (checkpoint on disk: {})",
            run.result.engine.windows,
            options.path.display()
        );
    }
    print_checkpointed_run(&run);
    Ok(())
}

fn cmd_restore(args: &Args) -> Result<(), Error> {
    let config = checkpoint_scenario(args)?;
    let workers = args.num("workers", 2)? as usize;
    let path = args.str("from", "potemkin.snap");
    let (snapshot, fell_back) =
        recover_snapshot(std::path::Path::new(&path)).map_err(potemkin::Error::from)?;
    if fell_back {
        println!("{path}: failed validation, fell back to {path}.prev");
    }
    let options = checkpoint_options(args, path)?;
    let run = resume_telescope_checkpointed(&config, workers, &snapshot, &options)?;
    print_checkpointed_run(&run);
    Ok(())
}

fn cmd_fork(args: &Args) -> Result<(), Error> {
    let config = checkpoint_scenario(args)?;
    let workers = args.num("workers", 2)? as usize;
    let salt = args.num("salt", 1)?;
    let path = args.str("from", "potemkin.snap");
    let (snapshot, fell_back) =
        recover_snapshot(std::path::Path::new(&path)).map_err(potemkin::Error::from)?;
    if fell_back {
        println!("{path}: failed validation, fell back to {path}.prev");
    }
    // The fork writes its own checkpoint chain so it can't clobber the
    // branch point it came from.
    let options = checkpoint_options(args, format!("{path}.fork{salt}"))?;
    let run = fork_telescope_checkpointed(&config, workers, &snapshot, salt, &options)?;
    println!("forked from {path} with salt {salt} (what-if branch)");
    print_checkpointed_run(&run);
    Ok(())
}

/// Runs the same telescope replay as a federation of N member farms
/// behind the BGP-style routing tier; with `--verify true` it re-runs the
/// scenario as a single farm and checks the merged reports agree.
fn cmd_federate(args: &Args) -> Result<(), Error> {
    let farms = args.num("farms", 4)? as usize;
    let cells = args.num("cells", 8)? as usize;
    let workers = args.num("workers", 2)? as usize;

    let mut farm = FarmConfig::small_test();
    farm.frames_per_server = 262_144;
    farm.max_domains_per_server = 4_096;
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
    // The worm targets the whole monitored range, so reflected probes
    // cross farm boundaries and exercise the GRE transit path.
    farm.worm = Some(WormSpec::code_red(RadiationConfig::default().telescope));
    let base = TelescopeConfig::builder(farm, RadiationConfig::default())
        .seed(args.num("seed", 2005)?)
        .duration(args.secs("duration", 10)?)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()?;
    let mut builder = FederatedTelescopeConfig::builder(base)
        .farms(farms)
        .cells(cells)
        .window(SimTime::from_millis(args.num("window-ms", 500)?))
        .seed_infections(2);
    if let Some(events) = args.flags.get("shed-after") {
        let n = events
            .parse::<u64>()
            .map_err(|_| Error::Cli(format!("--shed-after: bad number {events:?}")))?;
        builder = builder.admission(AdmissionConfig::shed_after(n));
    }
    let config = builder.build()?;
    let result = run_telescope_federated(&config, workers)?;

    let merged = &result.merged;
    let fed = &result.federation;
    let mut t = Table::new(&["metric", "value"]).with_title("federated telescope replay");
    t.row_owned(vec!["farms".into(), fed.farms.to_string()]);
    t.row_owned(vec!["cells".into(), fed.cells.to_string()]);
    t.row_owned(vec!["monitored addresses".into(), fed.monitored_addresses.to_string()]);
    t.row_owned(vec!["advertised routes".into(), fed.advertised_routes.to_string()]);
    t.row_owned(vec!["packets".into(), merged.packets.to_string()]);
    t.row_owned(vec!["cross-cell packets".into(), merged.cross_cell_packets.to_string()]);
    t.row_owned(vec!["cross-farm packets".into(), fed.cross_farm_packets.to_string()]);
    t.row_owned(vec!["shed packets".into(), fed.shed_packets.to_string()]);
    t.row_owned(vec!["route drops".into(), fed.route_drops.to_string()]);
    t.row_owned(vec!["final infected".into(), merged.final_infected.to_string()]);
    t.row_owned(vec!["peak live VMs".into(), format!("{:.0}", merged.peak_live_vms)]);
    t.row_owned(vec!["escapes".into(), merged.degradation.escaped.to_string()]);
    println!("{t}");

    let mut links = Table::new(&["farm", "prefix", "uplink pkts", "downlink pkts", "shed"])
        .with_title("per-farm links");
    for link in &fed.per_farm {
        links.row_owned(vec![
            link.farm.to_string(),
            link.prefix.to_string(),
            link.uplink_packets.to_string(),
            link.downlink_packets.to_string(),
            link.shed_packets.to_string(),
        ]);
    }
    println!("{links}");

    if args.str("verify", "false") == "true" {
        let mut reference = config.clone();
        reference.farms = 1;
        let single = run_telescope_federated(&reference, 1)?;
        verify(&single.merged, merged, &format!("single-farm reference ({farms} farms ≡ 1 farm)"))?;
    }
    Ok(())
}

/// Compares a run with its `reference` by stream digest, naming the first
/// `(window, cell)` where they part.
fn verify(
    reference: &ShardedTelescopeResult,
    run: &ShardedTelescopeResult,
    what: &str,
) -> Result<(), Error> {
    if let Some(divergence) = reference.divergence(run) {
        return Err(Error::Cli(format!("verify FAILED against the {what}: {divergence:?}")));
    }
    println!("verify: {what} matches, stream digest {:016x}", run.stream_digest);
    Ok(())
}

/// Loads every `*.json` scenario in `dir` (sorted by file name for a
/// deterministic pack order) and runs the scenario-driven interaction
/// replay; with `--store FILE.jsonl` every captured session transcript
/// is exported one JSON object per line.
fn cmd_services(args: &Args) -> Result<(), Error> {
    let dir = args.str("scenario-dir", "examples/scenarios");
    let mut paths: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        return Err(Error::Cli(format!("no *.json scenarios in {dir:?}")));
    }
    let mut sources = Vec::with_capacity(paths.len());
    for path in &paths {
        sources.push(std::fs::read_to_string(path)?);
    }
    let pack = ScenarioPack::parse_many(&sources)
        .map_err(|e| Error::Cli(format!("scenario pack in {dir:?}: {e}")))?;
    println!(
        "loaded {} scenarios from {dir}: {}",
        pack.scenarios().len(),
        pack.scenarios().iter().map(|s| s.name.as_str()).collect::<Vec<_>>().join(", ")
    );

    let mut builder = InteractionConfig::builder(ServicesConfig::new(pack))
        .duration(args.secs("duration", 30)?)
        .cells(args.num("cells", 4)? as usize)
        .attackers_per_scenario(args.num("attackers", 4)? as usize)
        .seed(args.num("seed", 2005)?);
    if let Some(cap) = args.flags.get("session-cap") {
        let n = cap
            .parse::<usize>()
            .map_err(|_| Error::Cli(format!("--session-cap: bad number {cap:?}")))?;
        builder = builder.session_cap(Some(n));
    }
    let config = builder.build()?;
    let workers = args.num("workers", 2)? as usize;
    let result = run_interaction(&config, workers)?;

    let counters = &result.merged.stats.counters;
    let mut t = Table::new(&["metric", "value"]).with_title("interaction services replay");
    t.row_owned(vec!["attackers".into(), result.attackers.to_string()]);
    t.row_owned(vec!["drive requests".into(), result.drive_requests.to_string()]);
    t.row_owned(vec!["drives completed".into(), result.drive_completed.to_string()]);
    t.row_owned(vec!["drives aborted".into(), result.drive_aborted.to_string()]);
    t.row_owned(vec!["sessions opened".into(), counters.get("svc_sessions_opened").to_string()]);
    t.row_owned(vec![
        "sessions rejected".into(),
        counters.get("svc_sessions_rejected").to_string(),
    ]);
    t.row_owned(vec![
        "payloads captured".into(),
        counters.get("svc_payloads_captured").to_string(),
    ]);
    t.row_owned(vec!["stalls".into(), counters.get("svc_stalls").to_string()]);
    t.row_owned(vec!["unclaimed requests".into(), result.svc_unclaimed.to_string()]);
    t.row_owned(vec!["transcripts".into(), result.records.len().to_string()]);
    println!("{t}");

    let mut fidelity =
        Table::new(&["scenario", "sessions", "rounds", "payloads", "stalls", "completions"])
            .with_title("per-scenario fidelity");
    for m in &result.scenarios {
        fidelity.row_owned(vec![
            m.scenario.clone(),
            m.sessions.to_string(),
            m.rounds.to_string(),
            m.payloads.to_string(),
            m.stalls.to_string(),
            m.completions.to_string(),
        ]);
    }
    println!("{fidelity}");

    if let Some(path) = args.flags.get("store") {
        let mut store = JsonlStore::create(std::path::Path::new(path))?;
        result.export_sessions(&mut store);
        store.flush()?;
        println!("wrote {} session transcripts to {path}", store.written());
    }

    if args.str("verify", "false") == "true" {
        let reference = run_interaction(&config, 1)?;
        let what = format!("serial reference ({workers} workers ≡ 1 worker)");
        verify(&reference.merged, &result.merged, &what)?;
    }
    Ok(())
}

/// Builds N same-content reference images over one farm-wide chunk store,
/// flash-clones guests off the first, drives a deterministic read pattern,
/// and prints the store's dedupe / lazy-materialization accounting plus
/// the manifest-checkpoint size against the flat O(disk) walk it replaced.
fn cmd_storage(args: &Args) -> Result<(), Error> {
    let profile = args.image("small")?;
    let images = args.num("images", 3)?.max(1);
    let clones = args.num("clones", 4)?.max(1) as usize;
    let chunk_blocks = args.num("chunk-blocks", 64)?.max(1);
    let reads = args.num("reads", profile.disk_blocks / 4)?.min(profile.disk_blocks);

    let store = potemkin::vmm::SharedChunkStore::new_memory();
    let frames = images * profile.memory_pages + clones as u64 * 4_096 + 8_192;
    let mut host = Host::new(frames)
        .with_max_domains(clones.max(16))
        .with_chunk_store(store.clone())
        .with_disk_chunk_blocks(chunk_blocks);
    let mut ids = Vec::new();
    for i in 0..images {
        ids.push(host.create_reference_image(&format!("golden-{i}"), profile.clone())?);
    }
    let mut vms = Vec::new();
    for i in 0..clones {
        let (vm, _) = host.flash_clone(ids[i % ids.len()])?;
        vms.push(vm);
    }
    let before = store.stats();
    let mut materialize_time = SimTime::ZERO;
    for &vm in &vms {
        for block in 0..reads {
            let (_, t) = host.read_block(vm, block)?;
            materialize_time = materialize_time.saturating_add(t);
        }
    }
    let after = store.stats();

    let chunk_count = profile.disk_blocks.div_ceil(chunk_blocks);
    let manifest_bytes = images * (4 * 8 + chunk_count);
    let flat_bytes = images * 8 * profile.disk_blocks;
    let mut t = Table::new(&["metric", "value"]).with_title("content-addressed chunk store");
    t.row_owned(vec!["images".into(), images.to_string()]);
    t.row_owned(vec!["clones".into(), clones.to_string()]);
    t.row_owned(vec!["chunk blocks".into(), chunk_blocks.to_string()]);
    t.row_owned(vec!["chunks per image".into(), chunk_count.to_string()]);
    t.row_owned(vec!["materialized before reads".into(), before.materialized.to_string()]);
    t.row_owned(vec!["materialized after reads".into(), after.materialized.to_string()]);
    t.row_owned(vec!["puts".into(), after.puts.to_string()]);
    t.row_owned(vec!["dedupe hits".into(), after.dedupe_hits.to_string()]);
    t.row_owned(vec!["resident chunks".into(), after.resident().to_string()]);
    t.row_owned(vec!["sharing ratio".into(), format!("{:.2}x", after.sharing_ratio())]);
    t.row_owned(vec!["materialize time".into(), materialize_time.to_string()]);
    t.row_owned(vec!["checkpoint disk sections".into(), format!("{manifest_bytes} B")]);
    t.row_owned(vec![
        "flat block walk (replaced)".into(),
        format!("{flat_bytes} B ({:.0}x larger)", flat_bytes as f64 / manifest_bytes as f64),
    ]);
    println!("{t}");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "replay" => cmd_replay(&args),
        "outbreak" => cmd_outbreak(&args),
        "demand" => cmd_demand(&args),
        "clone" => cmd_clone(&args),
        "snapshot" => cmd_snapshot(&args),
        "restore" => cmd_restore(&args),
        "fork" => cmd_fork(&args),
        "federate" => cmd_federate(&args),
        "services" => cmd_services(&args),
        "storage" => cmd_storage(&args),
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(Error::Cli(format!("unknown command {other:?}\n{}", usage()))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
