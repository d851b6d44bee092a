//! The metric vocabulary: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names (with direction, bound, and what
//! each should move); `selfcheck` refuses to run if the two disagree.

/// `(name, unit)` of what a user of the farm sees, per workload.
pub const END_TO_END: [(&str, &str); 4] =
    [("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s")];

/// `(name, unit)` of the per-layer metrics, grouped as the traced child
/// computes them: counts read from the run, unit costs from the layer
/// drives, direct-drive costs, then shares of the run's wall time.
pub const PER_LAYER: [(&str, &str); 72] = [
    ("sim.events", "count"),
    ("sim.events_per_pkt", "ratio"),
    ("sim.events_per_s", "1/s"),
    ("sim.remote_msgs", "count"),
    ("sim.windows", "count"),
    ("sim.busy_s", "s"),
    ("sim.busy_skew", "ratio"),
    ("sim.offbatch_s", "s"),
    ("sim.speedup_w2", "ratio"),
    ("core.pkts_in", "count"),
    ("core.pkts_per_s", "1/s"),
    ("core.xcell_pkts", "count"),
    ("gateway.reflected", "count"),
    ("gateway.bindings_created", "count"),
    ("gateway.bindings_expired", "count"),
    ("vmm.clones", "count"),
    ("vmm.recycles", "count"),
    ("federation.xfarm_pkts", "count"),
    ("snapshot.bytes", "B"),
    ("snapshot.writes", "count"),
    ("services.requests", "count"),
    ("services.sessions", "count"),
    ("core.alloc_mb", "MB"),
    ("core.alloc_count", "count"),
    ("sim.queue_ns", "ns"),
    ("sim.window_us_w1", "us"),
    ("sim.window_us_w2", "us"),
    ("net.build_ns", "ns"),
    ("workload.gen_us_per_pkt", "us"),
    ("net.parse_ns", "ns"),
    ("net.gre_ns", "ns"),
    ("federation.forward_ns", "ns"),
    ("gateway.inbound_new_ns", "ns"),
    ("gateway.inbound_bound_ns", "ns"),
    ("gateway.outbound_ns", "ns"),
    ("gateway.expire_us", "us"),
    ("vmm.clone_us", "us"),
    ("vmm.destroy_us", "us"),
    ("vmm.clone_alloc_kb", "KB"),
    ("vmm.request_us", "us"),
    ("vmm.infect_us", "us"),
    ("vmm.read_block_ns", "ns"),
    ("storage.put_us", "us"),
    ("storage.read_ns", "ns"),
    ("storage.materialize_us", "us"),
    ("snapshot.encode_mb_s", "MB/s"),
    ("snapshot.bytes_per_vm", "B"),
    ("snapshot.restore_mb_s", "MB/s"),
    ("snapshot.file_mb_s", "MB/s"),
    ("services.pack_load_ms", "ms"),
    ("json.parse_mb_s", "MB/s"),
    ("services.request_us", "us"),
    ("services.classify_ns", "ns"),
    ("metrics.counter_ns", "ns"),
    ("core.inject_clone_us", "us"),
    ("core.inject_bound_us", "us"),
    ("core.tick_us", "us"),
    ("storage.reads", "count"),
    ("storage.materialized", "count"),
    ("sim.share", "ratio"),
    ("net.share", "ratio"),
    ("workload.share", "ratio"),
    ("gateway.share", "ratio"),
    ("vmm.share", "ratio"),
    ("storage.share", "ratio"),
    ("snapshot.share", "ratio"),
    ("services.share", "ratio"),
    ("federation.share", "ratio"),
    ("core.share", "ratio"),
    ("core.trace_overhead", "ratio"),
    ("core.cold_run_s", "s"),
    ("core.run_wall_s", "s"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or_else(|| panic!("metric {name} is not in the vocabulary"), |(_, unit)| unit)
}
