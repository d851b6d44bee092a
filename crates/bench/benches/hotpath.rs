//! E15 micro-benches: the four hot-path primitives in isolation.
//!
//! The end-to-end gain in `figures e15` is the product of these parts:
//! the cell router hashing every packet, the event queue and packet
//! arena cycling once per event, the wire-buffer pool recycling every
//! emission, and the flow table batching its refresh bookkeeping to the
//! window barrier.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use potemkin_core::parallel::cell_for;
use potemkin_gateway::flowtable::{FlowDirection, FlowTable};
use potemkin_net::{BufferPool, FlowKey, PacketBuilder};
use potemkin_sim::{EventQueue, SimTime, Slab};
use std::hint::black_box;
use std::net::Ipv4Addr;

fn bench_cell_for(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_cell_for");
    for &cells in &[4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(cells), &cells, |b, &cells| {
            let mut i = 0u32;
            b.iter(|| {
                i = i.wrapping_add(1);
                cell_for(Ipv4Addr::from(0x0A01_0000 + (i % 65_536)), black_box(cells))
            });
        });
    }
    group.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_event_queue");

    // Bare queue: schedule and drain a burst of plain u64 payloads.
    group.bench_function("push_pop_burst32", |b| {
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut round = 0u64;
        b.iter(|| {
            for i in 0..32 {
                queue.schedule(SimTime::from_nanos(round * 32 + i), i);
            }
            round += 1;
            let mut drained = 0u64;
            while queue.pop().is_some() {
                drained += 1;
            }
            drained
        });
    });

    // Arena-backed: the sharded engine's shape — payload lives in a
    // slab, the queue carries only the key.
    group.bench_function("push_pop_burst32_slab", |b| {
        let mut queue: EventQueue<usize> = EventQueue::new();
        let mut slab: Slab<[u8; 64]> = Slab::new();
        let mut round = 0u64;
        b.iter(|| {
            for i in 0..32 {
                let key = slab.insert([0u8; 64]);
                queue.schedule(SimTime::from_nanos(round * 32 + i), key);
            }
            round += 1;
            let mut drained = 0u64;
            while let Some((_, key)) = queue.pop() {
                slab.remove(key);
                drained += 1;
            }
            drained
        });
    });

    group.finish();
}

fn bench_buffer_pool(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_buffer_pool");
    let src = Ipv4Addr::new(10, 0, 0, 1);
    let dst = Ipv4Addr::new(10, 1, 2, 3);

    group.bench_function("build_unpooled", |b| {
        b.iter(|| PacketBuilder::new(black_box(src), black_box(dst)).tcp_syn(4444, 445));
    });

    group.bench_function("build_pooled_recycling", |b| {
        let pool = BufferPool::new();
        // Warm the pool so the loop measures pure acquire/release.
        drop(PacketBuilder::new(src, dst).pooled(&pool).tcp_syn(4444, 445));
        b.iter(|| {
            PacketBuilder::new(black_box(src), black_box(dst)).pooled(&pool).tcp_syn(4444, 445)
        });
    });

    group.finish();
}

fn bench_flow_table(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_flow_table");
    let now = SimTime::from_secs(1);
    let keys: Vec<FlowKey> = (0..256u32)
        .map(|i| {
            FlowKey::tcp(Ipv4Addr::from(0x0707_0000 + i), 9_999, Ipv4Addr::new(10, 0, 0, 1), 445)
        })
        .collect();

    // Refresh cost for an established flow: per-packet timer + LRU churn.
    group.bench_function("refresh_per_packet", |b| {
        let mut ft = FlowTable::new(SimTime::from_secs(30));
        for &key in &keys {
            ft.observe(now, key, 40, FlowDirection::InboundInitiated);
        }
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % keys.len();
            ft.observe(now, keys[i], 40, FlowDirection::InboundInitiated)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_cell_for, bench_event_queue, bench_buffer_pool, bench_flow_table);
criterion_main!(benches);
