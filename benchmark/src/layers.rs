//! Unit costs, one layer at a time: each drive times batches of
//! [`BATCH`] calls into one public function, on inputs generated from the
//! run's seed, with one span per batch. Together with the counts a run
//! returns they give each layer's share of the run's wall time.
//!
//! Every call into a layer's own API lives here (the run drivers are in
//! `drive.rs`). Noise on this machine only adds time, so each drive reports
//! its cheapest batch.

use std::hint::black_box;
use std::net::Ipv4Addr;
use std::path::Path;
use std::time::{Duration, Instant};

use potemkin::farm::{FarmConfig, Honeyfarm};
use potemkin::fed::FederationLayout;
use potemkin::gateway::policy::PolicyConfig;
use potemkin::gateway::{Gateway, GatewayAction, GatewayConfig, VmRef};
use potemkin::json::{strip_line_comments, JsonValue};
use potemkin::metrics::CounterSet;
use potemkin::net::gre::GreHeader;
use potemkin::net::{BufferPool, Ipv4Prefix, Packet, PacketBuilder};
use potemkin::scenario::TelescopeConfig;
use potemkin::services::{classify, render, ServiceEngine, ServicesConfig};
use potemkin::sim::{
    run_sharded, EngineTuning, EventQueue, Shard, ShardConfig, ShardWorld, SimRng, SimTime, World,
};
use potemkin::snapshot::{write_atomic, SnapshotFile};
use potemkin::vmm::{
    DomainId, GuestProfile, Host, Manifest, SharedChunkStore, DEFAULT_CHUNK_BLOCKS,
};
use potemkin::workload::radiation::{RadiationConfig, RadiationModel};

use crate::drive::load_pack;
use crate::trace::{count_allocs, Spans};

/// Calls per timed batch.
pub const BATCH: usize = 1024;

/// Named results, in the order the drives ran.
pub type Values = Vec<(&'static str, f64)>;

pub struct Layers<'a> {
    pub spans: &'a mut Spans,
    /// Wall time each drive may spend repeating its batch.
    pub budget: Duration,
    pub seed: u64,
    /// A directory the file drive may write in; its owner removes it.
    pub scratch: &'a Path,
    pub out: Values,
}

/// Repeats `batch` — which returns the nanoseconds its timed part took —
/// at least three times and until `budget` is spent; returns the cheapest.
fn cheapest(budget: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut best = u64::MAX;
    let mut n = 0;
    while n < 3 || start.elapsed() < budget {
        best = best.min(batch());
        n += 1;
    }
    best as f64
}

fn per_call(batch_ns: f64) -> f64 {
    batch_ns / BATCH as f64
}

fn mb_per_s(bytes: usize, ns: f64) -> f64 {
    bytes as f64 / 1e6 / (ns / 1e9)
}

/// The engine's barrier window in every workload.
const WINDOW: SimTime = SimTime::from_millis(500);

/// A cell that does nothing but keep its windows from being skipped: one
/// event per window, which schedules the next.
struct Idle;

impl World for Idle {
    type Event = ();
    fn handle(&mut self, now: SimTime, (): (), queue: &mut EventQueue<()>) {
        queue.schedule(now + WINDOW, ());
    }
}

impl ShardWorld for Idle {
    type Remote = ();
    fn take_outbound(&mut self) -> Vec<(usize, ())> {
        Vec::new()
    }
    fn accept_remote(&mut self, _: SimTime, (): (), _: &mut EventQueue<()>) {}
}

/// A telescope address, an outside source and a SYN between them, per call.
struct Probes {
    telescope: Ipv4Prefix,
    rng: SimRng,
}

impl Probes {
    fn new(telescope: &str, seed: u64) -> Probes {
        Probes {
            telescope: telescope.parse().expect("static prefix"),
            rng: SimRng::seed_from(seed),
        }
    }

    fn source(&mut self) -> Ipv4Addr {
        Ipv4Addr::from(0x0600_0000 | self.rng.next_u32() >> 8)
    }

    /// The `i`-th telescope address: distinct for distinct `i`.
    fn target(&self, i: usize) -> Ipv4Addr {
        self.telescope.addr_at(i as u64 % self.telescope.len()).expect("index below len")
    }

    fn syn(&mut self, i: usize) -> Packet {
        PacketBuilder::new(self.source(), self.target(i)).tcp_syn(1024 + (i % 60_000) as u16, 445)
    }
}

impl Layers<'_> {
    fn push(&mut self, name: &'static str, value: f64) {
        self.out.push((name, value));
    }

    /// Times `f` as one span called `name`.
    fn span_ns<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> u64 {
        let (out, ns) = self.spans.timed(name, f);
        black_box(out);
        ns
    }

    /// `sim`: the event queue at the run's depth, and an empty window.
    pub fn sim(&mut self, depth: u64) {
        let mut rng = SimRng::seed_from(self.seed);
        let mut queue: EventQueue<u64> = EventQueue::new();
        for i in 0..depth.max(1) {
            queue.schedule(SimTime::from_micros(rng.below(1_000_000)), i);
        }
        let budget = self.budget;
        let ns = cheapest(budget, || {
            self.span_ns("sim.queue", || {
                for _ in 0..BATCH {
                    let (at, event) = queue.pop().expect("the queue never drains");
                    queue.schedule(at + SimTime::from_micros(1 + event % 1_000_000), event);
                }
            })
        });
        self.push("sim.queue_ns", per_call(ns));

        for (workers, span, name) in
            [(1, "sim.window_w1", "sim.window_us_w1"), (2, "sim.window_w2", "sim.window_us_w2")]
        {
            let config = ShardConfig {
                window: WINDOW,
                workers,
                tuning: EngineTuning { rebalance: false, adaptive: None },
            };
            let horizon = WINDOW * BATCH as u64;
            let ns = cheapest(budget, || {
                let mut shards: Vec<Shard<Idle>> = (0..8).map(|_| Shard::new(Idle)).collect();
                for shard in &mut shards {
                    shard.queue.schedule(SimTime::ZERO, ());
                }
                self.span_ns(span, || run_sharded(&mut shards, horizon, &config))
            });
            self.push(name, per_call(ns) / 1e3);
        }
    }

    /// `net`, `federation`, `workload`: build, parse, GRE, transit, and the
    /// radiation generator.
    pub fn net(&mut self) {
        let budget = self.budget;
        let pool = BufferPool::new();
        let mut probes = Probes::new("10.1.0.0/20", self.seed);
        let ns = cheapest(budget, || {
            let ends: Vec<(Ipv4Addr, Ipv4Addr)> =
                (0..BATCH).map(|i| (probes.source(), probes.target(i))).collect();
            self.span_ns("net.build", || {
                for (i, &(src, dst)) in ends.iter().enumerate() {
                    black_box(PacketBuilder::new(src, dst).pooled(&pool).tcp_syn(i as u16, 445));
                }
            })
        });
        self.push("net.build_ns", per_call(ns));

        // The generator's own packets, so parse sees the trace's mix.
        let radiation = RadiationConfig {
            telescope: probes.telescope,
            peak_source_rate: 40.0,
            ..RadiationConfig::default()
        };
        let mut packets = Vec::new();
        let ns = cheapest(budget, || {
            let mut model = RadiationModel::new(radiation.clone(), self.seed);
            let id = self.spans.begin("workload.generate");
            let trace = model.generate(SimTime::from_secs(20));
            let ns = self.spans.end(id);
            packets = trace.into_events().into_iter().map(|e| e.packet).collect();
            ns
        });
        self.push("workload.gen_us_per_pkt", ns / packets.len().max(1) as f64 / 1e3);
        assert!(!packets.is_empty(), "20 s of radiation at 40 sources/s is never empty");
        let batch: Vec<&Packet> = packets.iter().cycle().take(BATCH).collect();

        let ns = cheapest(budget, || {
            self.span_ns("net.parse", || {
                for p in &batch {
                    black_box(Packet::parse(black_box(p.wire())).expect("the generator's bytes"));
                }
            })
        });
        self.push("net.parse_ns", per_call(ns));

        let ns = cheapest(budget, || {
            self.span_ns("net.gre", || {
                for (i, p) in batch.iter().enumerate() {
                    let frame = GreHeader::encapsulate_ipv4(i as u32, p.wire());
                    black_box(GreHeader::parse(&frame).expect("just built"));
                }
            })
        });
        self.push("net.gre_ns", per_call(ns));

        let layout = FederationLayout::new(probes.telescope, 4, 8).expect("static layout");
        let mut router = layout.router().expect("slices never overlap");
        let ns = cheapest(budget, || {
            self.span_ns("federation.forward", || {
                for (i, p) in batch.iter().enumerate() {
                    black_box(router.forward(i as u32 % 4, p).expect("the telescope is routed"));
                }
            })
        });
        self.push("federation.forward_ns", per_call(ns));
    }

    /// `gateway`: the four paths a packet or a tick can take.
    pub fn gateway(&mut self, peak_bindings: u64) {
        let budget = self.budget;
        let config = || {
            let mut config = GatewayConfig::default();
            config.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
            config
        };
        let now = SimTime::from_secs(1);
        let mut probes = Probes::new("10.1.0.0/16", self.seed);

        let ns = cheapest(budget, || {
            let mut gateway = Gateway::new(config());
            let syns: Vec<Packet> = (0..BATCH).map(|i| probes.syn(i)).collect();
            self.span_ns("gateway.inbound_new", || {
                for (i, syn) in syns.into_iter().enumerate() {
                    let src = syn.src();
                    match gateway.on_inbound(now, syn) {
                        GatewayAction::CloneAndDeliver { addr, .. } => {
                            gateway.bind(now, src, addr, VmRef(i as u64));
                        }
                        other => panic!("a first SYN asks for a clone, not {other:?}"),
                    }
                }
            })
        });
        self.push("gateway.inbound_new_ns", per_call(ns));

        // One gateway with every address bound, for the three steady paths.
        let mut gateway = Gateway::new(config());
        let bound = (peak_bindings as usize).max(BATCH);
        for i in 0..bound {
            gateway.bind(now, probes.source(), probes.target(i), VmRef(i as u64));
        }
        let ns = cheapest(budget, || {
            let syns: Vec<Packet> = (0..BATCH).map(|i| probes.syn(i)).collect();
            self.span_ns("gateway.inbound_bound", || {
                for syn in syns {
                    black_box(gateway.on_inbound(now, syn));
                }
            })
        });
        self.push("gateway.inbound_bound_ns", per_call(ns));

        let ns = cheapest(budget, || {
            // A scan from each bound address to a fresh outside target.
            let scans: Vec<Packet> = (0..BATCH)
                .map(|i| PacketBuilder::new(probes.target(i), probes.source()).tcp_syn(2048, 80))
                .collect();
            self.span_ns("gateway.outbound", || {
                for (i, scan) in scans.into_iter().enumerate() {
                    match gateway.on_outbound(now, VmRef(i as u64), scan) {
                        GatewayAction::Reflect { .. } => {}
                        other => panic!("reflect policy turns a scan around, not {other:?}"),
                    }
                }
            })
        });
        self.push("gateway.outbound_ns", per_call(ns));

        let ns = cheapest(budget, || {
            self.span_ns("gateway.expire", || {
                for _ in 0..BATCH {
                    black_box(gateway.expire(now));
                }
            })
        });
        self.push("gateway.expire_us", per_call(ns) / 1e3);
    }

    /// `vmm` and `storage`: a clone's life on a `GuestProfile::small()`
    /// image, and the chunk store underneath its disk.
    pub fn vmm(&mut self) {
        let budget = self.budget;
        // A host as the workloads' farms build theirs.
        let mut host = Host::new(524_288).with_max_domains(4_096).with_overhead_pages(64);
        let image =
            host.create_reference_image("ref", GuestProfile::small()).expect("the image fits");
        let clones = |host: &mut Host| -> Vec<DomainId> {
            (0..BATCH).map(|_| host.flash_clone(image).expect("room for a batch").0).collect()
        };
        let destroy = |host: &mut Host, ids: Vec<DomainId>| {
            for id in ids {
                host.destroy(id).expect("a live clone");
            }
        };

        let (mut clone_ns, mut destroy_ns) = (f64::MAX, f64::MAX);
        cheapest(budget, || {
            let id = self.spans.begin("vmm.flash_clone");
            let ids = clones(&mut host);
            let ns = self.spans.end(id);
            clone_ns = clone_ns.min(ns as f64);
            let ns = self.span_ns("vmm.destroy", || destroy(&mut host, ids));
            destroy_ns = destroy_ns.min(ns as f64);
            ns
        });
        self.push("vmm.clone_us", per_call(clone_ns) / 1e3);
        self.push("vmm.destroy_us", per_call(destroy_ns) / 1e3);

        let (ids, bytes, _) = count_allocs(|| clones(&mut host));
        destroy(&mut host, ids);
        self.push("vmm.clone_alloc_kb", bytes as f64 / BATCH as f64 / 1024.0);

        // First request and infection of a fresh clone: the CoW faults are
        // the cost, and most clones in a run see only a few of either.
        let ns = cheapest(budget, || {
            let ids = clones(&mut host);
            let ns = self.span_ns("vmm.apply_request", || {
                for (i, &id) in ids.iter().enumerate() {
                    black_box(host.apply_request(id, i as u64).expect("frames to spare"));
                }
            });
            destroy(&mut host, ids);
            ns
        });
        self.push("vmm.request_us", per_call(ns) / 1e3);

        let seed = self.seed;
        let ns = cheapest(budget, || {
            let ids = clones(&mut host);
            let ns = self.span_ns("vmm.apply_infection", || {
                for (i, &id) in ids.iter().enumerate() {
                    black_box(host.apply_infection(id, seed + i as u64).expect("frames to spare"));
                }
            });
            destroy(&mut host, ids);
            ns
        });
        self.push("vmm.infect_us", per_call(ns) / 1e3);

        let (id, _) = host.flash_clone(image).expect("room for one");
        let blocks = GuestProfile::small().disk_blocks;
        for block in 0..blocks {
            host.read_block(id, block).expect("in range");
        }
        let ns = cheapest(budget, || {
            self.span_ns("vmm.read_block", || {
                for i in 0..BATCH as u64 {
                    black_box(host.read_block(id, i * 7 % blocks).expect("in range"));
                }
            })
        });
        self.push("vmm.read_block_ns", per_call(ns));

        let mut rng = SimRng::seed_from(self.seed);
        let store = SharedChunkStore::new_memory();
        let mut hashes = Vec::new();
        let ns = cheapest(budget, || {
            let chunks: Vec<Vec<u64>> = (0..BATCH)
                .map(|_| (0..DEFAULT_CHUNK_BLOCKS).map(|_| rng.next_u64()).collect())
                .collect();
            store.clear();
            hashes.clear();
            self.span_ns("storage.put", || {
                for chunk in &chunks {
                    hashes.push(store.put(chunk).expect("memory store"));
                }
            })
        });
        self.push("storage.put_us", per_call(ns) / 1e3);

        let ns = cheapest(budget, || {
            self.span_ns("storage.read_word", || {
                for (i, &hash) in hashes.iter().enumerate() {
                    let offset = i as u64 % DEFAULT_CHUNK_BLOCKS;
                    black_box(store.read_word(hash, offset).expect("just put"));
                }
            })
        });
        self.push("storage.read_ns", per_call(ns));

        let ns = cheapest(budget, || {
            store.clear();
            let mut manifest =
                Manifest::new(BATCH as u64 * DEFAULT_CHUNK_BLOCKS, DEFAULT_CHUNK_BLOCKS, seed);
            self.span_ns("storage.materialize", || {
                for chunk in 0..BATCH as u64 {
                    black_box(
                        manifest.read(&store, chunk * DEFAULT_CHUNK_BLOCKS).expect("in range"),
                    );
                }
            })
        });
        self.push("storage.materialize_us", per_call(ns) / 1e3);
    }

    /// `snapshot`: a farm with [`BATCH`] bound VMs through its codec, and
    /// the bytes through the container and the disk. One call per batch:
    /// each moves tens of megabytes.
    pub fn snapshot(&mut self) {
        let budget = self.budget;
        let mut config = FarmConfig::small_test();
        config.frames_per_server = 524_288;
        config.max_domains_per_server = 4_096;
        let mut farm = Honeyfarm::new(config).expect("static config");
        let mut probes = Probes::new("10.1.0.0/16", self.seed);
        for i in 0..BATCH {
            farm.inject_external(SimTime::from_millis(i as u64), probes.syn(i));
        }
        farm.drain_outputs();
        assert_eq!(farm.live_vms(), BATCH, "one VM per probed address");

        let mut state = Vec::new();
        let ns = cheapest(budget, || {
            let id = self.spans.begin("snapshot.encode_state");
            state = farm.encode_state();
            self.spans.end(id)
        });
        self.push("snapshot.encode_mb_s", mb_per_s(state.len(), ns));
        self.push("snapshot.bytes_per_vm", state.len() as f64 / BATCH as f64);

        let ns = cheapest(budget, || {
            self.span_ns("snapshot.restore_state", || {
                farm.restore_state(&state).expect("own bytes")
            })
        });
        self.push("snapshot.restore_mb_s", mb_per_s(state.len(), ns));

        // The container and the disk see the first 16 MiB: enough to time a
        // transfer rate, a fifth of what the whole state costs to sync.
        state.truncate(16 << 20);
        let path = self.scratch.join("layers.snap");
        let mut file = SnapshotFile::new(self.seed);
        file.push("farm", state);
        let mut size = 0;
        let ns = cheapest(budget, || {
            self.span_ns("snapshot.file", || {
                let bytes = file.encode();
                size = bytes.len();
                write_atomic(&path, &bytes).expect("scratch is writable");
                let read = std::fs::read(&path).expect("just written");
                SnapshotFile::decode(&read).expect("own bytes")
            })
        });
        self.push("snapshot.file_mb_s", mb_per_s(size, ns));
    }

    /// `services`, `json`, `metrics`: the interaction plane one request at
    /// a time, the pack loader, and a counter bump.
    pub fn services(&mut self) -> Result<(), String> {
        let budget = self.budget;
        let (sources, pack) = load_pack()?;
        let ns = cheapest(budget, || {
            self.span_ns("services.pack_load", || load_pack().expect("loaded once already"))
        });
        self.push("services.pack_load_ms", ns / 1e6);

        let text: Vec<String> = sources.iter().map(|s| strip_line_comments(s)).collect();
        let bytes: usize = text.iter().map(String::len).sum();
        let ns = cheapest(budget, || {
            self.span_ns("json.parse", || {
                for doc in &text {
                    black_box(JsonValue::parse(black_box(doc)).expect("the pack's own text"));
                }
            })
        });
        self.push("json.parse_mb_s", mb_per_s(bytes, ns));

        // Every drive script in turn, a new attacker per pass.
        let local = Ipv4Addr::new(10, 4, 0, 5);
        let mut attacker = 0xC633_6401u32;
        let mut requests: Vec<(Ipv4Addr, u16, Vec<u8>)> = Vec::with_capacity(BATCH);
        'fill: loop {
            for scenario in pack.scenarios() {
                attacker += 1;
                for (round, step) in scenario.drive.iter().enumerate() {
                    let from = Ipv4Addr::from(attacker);
                    let payload = render(&step.send, local, from, round as u64);
                    requests.push((from, scenario.ports[0], payload));
                    if requests.len() == BATCH {
                        break 'fill;
                    }
                }
            }
        }
        let services = ServicesConfig::new(pack);
        let ns = cheapest(budget, || {
            let mut engine = ServiceEngine::new(&services);
            self.span_ns("services.on_request", || {
                for (i, (from, port, payload)) in requests.iter().enumerate() {
                    let now = SimTime::from_millis(i as u64);
                    black_box(engine.on_request(now, *from, local, *port, payload));
                }
            })
        });
        self.push("services.request_us", per_call(ns) / 1e3);

        let ns = cheapest(budget, || {
            self.span_ns("services.classify", || {
                for (_, port, payload) in &requests {
                    black_box(classify(black_box(payload), *port));
                }
            })
        });
        self.push("services.classify_ns", per_call(ns));

        let mut counters = CounterSet::new();
        counters.incr("packets_in");
        let ns = cheapest(budget, || {
            self.span_ns("metrics.counter", || {
                for _ in 0..BATCH {
                    black_box(&mut counters).incr("packets_in");
                }
            })
        });
        self.push("metrics.counter_ns", per_call(ns));
        Ok(())
    }
}

enum DirectEvent {
    Packet(Box<Packet>),
    Tick,
}

/// What the direct drive saw, beside its spans.
pub struct Direct {
    pub store_reads: u64,
    pub store_materialized: u64,
}

/// Plays a workload's radiation trace through one `Honeyfarm` with the
/// harness's own event loop, a span around each `pop`, `inject_external`
/// (named by whether it cloned), `tick` and `drain_outputs`.
pub fn direct(base: &TelescopeConfig, spans: &mut Spans) -> Result<Direct, String> {
    let (farm, _) = spans.timed("direct.build_farm", || Honeyfarm::new(base.farm.clone()));
    let mut farm = farm.map_err(|e| format!("direct farm: {e}"))?;
    let (trace, _) = spans.timed("direct.generate", || {
        RadiationModel::new(base.radiation.clone(), base.seed).generate(base.duration)
    });
    let mut queue = EventQueue::new();
    for event in trace.into_events() {
        queue.schedule(event.at, DirectEvent::Packet(Box::new(event.packet)));
    }
    queue.schedule(base.tick_interval, DirectEvent::Tick);
    loop {
        let id = spans.begin("sim.pop");
        let next = queue.pop();
        spans.end(id);
        let Some((now, event)) = next else { break };
        if now >= base.duration {
            break;
        }
        match event {
            DirectEvent::Packet(packet) => {
                let before = farm.live_vms();
                let id = spans.begin("core.inject_bound");
                farm.inject_external(now, *packet);
                spans.end(id);
                if farm.live_vms() > before {
                    spans.rename(id, "core.inject_clone");
                }
            }
            DirectEvent::Tick => {
                let id = spans.begin("core.tick");
                farm.tick(now);
                spans.end(id);
                queue.schedule(now + base.tick_interval, DirectEvent::Tick);
            }
        }
        let id = spans.begin("core.drain_outputs");
        black_box(farm.drain_outputs().count());
        spans.end(id);
    }
    let store = farm.store_stats();
    Ok(Direct { store_reads: store.reads, store_materialized: store.materialized })
}
