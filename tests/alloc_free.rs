//! Steady-state allocation accounting for the hot event/packet path.
//!
//! The sharded engine's throughput claim rests on the packets it carries
//! never touching the heap — a [`Packet`] of up to 78 bytes holds its wire
//! image inline, so building, cloning and dropping every shape a worm storm
//! emits allocates nothing, cold — and on primitives that must stop
//! allocating once warm: the packet-event arena ([`Slab`]), the event queue
//! ([`EventQueue`]), and the gateway every packet crosses, whose flow and
//! binding tables must do the same. This test installs a counting global
//! allocator and drives each through its cycle, asserting the heap traffic
//! is exactly zero. The [`BufferPool`] shim that the benchmark's packet-build
//! layer still passes to [`PacketBuilder::pooled`] keeps its own rows: a
//! pooled build is as free as a plain one, warm or cold.
//!
//! The counters are thread-local (const-initialized, so reading them never
//! allocates), which keeps the accounting immune to other test threads
//! in this binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

use potemkin::gateway::{Gateway, GatewayAction, GatewayConfig, VmRef};
use potemkin::net::tcp::TcpFlags;
use potemkin::net::{BufferPool, Packet, PacketBuilder};
use potemkin::sim::{EventQueue, SimTime, Slab};
use potemkin::workload::worm::WormSpec;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// The largest single request since the test last zeroed it.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn count(size: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    LARGEST.with(|c| c.set(c.get().max(size)));
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`; the side counter is
// thread-local and never re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

fn probe(pool: &BufferPool) -> Packet {
    PacketBuilder::new("10.0.0.1".parse().unwrap(), "10.1.2.3".parse().unwrap())
        .pooled(pool)
        .tcp_syn(4444, 445)
}

#[test]
fn warmed_buffer_pool_builds_packets_without_allocating() {
    let pool = BufferPool::new();
    drop(probe(&pool));
    drop(probe(&pool));
    let before = allocations();
    for _ in 0..256 {
        let packet = probe(&pool);
        assert_eq!(packet.dst(), "10.1.2.3".parse::<Ipv4Addr>().unwrap());
        drop(packet);
    }
    assert_eq!(allocations() - before, 0, "steady-state packet builds must not allocate");
}

#[test]
fn a_fresh_pooled_syn_reserves_its_size_class_not_an_mtu() {
    let pool = BufferPool::new();
    LARGEST.with(|c| c.set(0));
    let before = allocations();
    let syn = probe(&pool);
    assert_eq!(syn.wire().len(), 40);
    let largest = LARGEST.with(Cell::get);
    assert!(largest <= 128, "a 40-byte SYN asked the allocator for {largest} bytes at once");
    assert_eq!(allocations() - before, 0, "a fresh SYN is held inline, even from a cold pool");
}

#[test]
fn storm_packets_build_clone_and_drop_without_allocating() {
    let (attacker, honeypot) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 1, 2, 3));
    let exploit = WormSpec::code_red("10.1.0.0/16".parse().unwrap()).payload_marker;
    // Nothing is warmed: the first packet of each shape must be as free as
    // the thousandth.
    let before = allocations();
    for (flags, payload, len) in [
        (TcpFlags::SYN, &[][..], 40),
        (TcpFlags::SYN_ACK, &[], 40),
        (TcpFlags::RST, &[], 40),
        (TcpFlags::ACK, &[], 40),
        (TcpFlags::PSH_ACK, exploit, 68),
    ] {
        let packet =
            PacketBuilder::new(attacker, honeypot).tcp_segment(1025, 80, flags, 7, 9, payload);
        assert_eq!(packet.len(), len);
        let copy = packet.clone();
        assert_eq!(copy, packet);
        assert_eq!(copy.app_payload(), payload);
        drop(packet);
        drop(copy);
    }
    assert_eq!(allocations() - before, 0, "a storm packet must never touch the heap");
}

#[test]
fn warmed_slab_recycles_slots_without_allocating() {
    let mut slab: Slab<u64> = Slab::new();
    let mut keys = Vec::with_capacity(64);
    // Warmup: grow to the high watermark once.
    for i in 0..64 {
        keys.push(slab.insert(i));
    }
    for key in keys.drain(..) {
        slab.remove(key);
    }
    let before = allocations();
    for round in 0..128u64 {
        let a = slab.insert(round);
        let b = slab.insert(round + 1);
        // The freelist recycles: every key stays below the warmed 64.
        assert!(a < 64 && b < 64, "freelist must be recycling");
        assert_eq!(slab.remove(a), Some(round));
        assert_eq!(slab.remove(b), Some(round + 1));
    }
    assert_eq!(allocations() - before, 0, "slab churn below the watermark must be free");
}

#[test]
fn warmed_event_queue_cycles_without_allocating() {
    let mut queue: EventQueue<u64> = EventQueue::new();
    // Warmup: reach peak occupancy once so the heap's buffer is sized.
    for i in 0..64 {
        queue.schedule(SimTime::from_nanos(i), i);
    }
    while queue.pop().is_some() {}
    let before = allocations();
    for round in 0..128u64 {
        for i in 0..32 {
            queue.schedule(SimTime::from_nanos(round * 32 + i), i);
        }
        while queue.pop().is_some() {}
    }
    assert_eq!(allocations() - before, 0, "steady-state scheduling must not grow the heap");
}

/// A gateway with `10.1.2.3` bound, and a source of SYNs to it from
/// `10.0.0.1`, one flow per source port.
fn bound_gateway() -> (Gateway, impl Fn(u16) -> Packet) {
    let syn = |port: u16| {
        PacketBuilder::new("10.0.0.1".parse().unwrap(), "10.1.2.3".parse().unwrap())
            .tcp_syn(port, 445)
    };
    let mut gateway = Gateway::new(GatewayConfig::default());
    let first = syn(1);
    gateway.bind(SimTime::ZERO, first.src(), first.dst(), VmRef(1));
    (gateway, syn)
}

#[test]
fn warmed_gateway_refreshes_a_known_flow_without_allocating() {
    let (mut gateway, syn) = bound_gateway();
    let deliver = |gateway: &mut Gateway, ms: u64| {
        let action = gateway.on_inbound(SimTime::from_millis(ms), syn(4444));
        assert!(matches!(action, GatewayAction::Deliver { vm: VmRef(1), .. }));
    };
    // Warmup: the flow and its address chains exist.
    deliver(&mut gateway, 0);
    deliver(&mut gateway, 1);
    let before = allocations();
    for ms in 2..258 {
        deliver(&mut gateway, ms);
    }
    assert_eq!(allocations() - before, 0, "a packet on a known flow to a bound address is free");
    assert_eq!(gateway.live_flows(), 1);
}

#[test]
fn warmed_gateway_churns_flows_at_a_constant_count_without_allocating() {
    let (mut gateway, syn) = bound_gateway();
    // One new flow a second; the default 120 s flow timeout holds the live
    // count at ~120 while every second one flow idles out and one arrives
    // (and keeps the binding active).
    let second = |gateway: &mut Gateway, s: u64| {
        let now = SimTime::from_secs(s);
        gateway.on_inbound(now, syn(1_024 + (s % 60_000) as u16));
        assert!(gateway.expire(now).is_empty(), "the binding stays active");
    };
    // Warmup: long enough for the tables to reach their steady size and
    // for the hash maps to have rehashed in place once (a table that has
    // only ever grown still owes one resize to its tombstones).
    for s in 0..4_096 {
        second(&mut gateway, s);
    }
    let live = gateway.live_flows();
    let before = allocations();
    for s in 4_096..8_192 {
        second(&mut gateway, s);
    }
    assert_eq!(allocations() - before, 0, "flow churn at a constant live count is free");
    assert_eq!(gateway.live_flows(), live);
    assert!((100..=130).contains(&live), "live flows {live}");
    assert_eq!(gateway.counters().get("flows_expired"), 8_192 - live as u64);
}
