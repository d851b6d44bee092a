//! Property tests on the one trace format, nanosecond libpcap: arbitrary
//! packet mixes round-trip bit-exactly, a mutated file is refused or read
//! as exactly the bytes it holds, and a written-then-read trace replays on
//! the sharded engine exactly as the radiation it was generated from.
//!
//! The test binary counts the largest single allocation per thread, so the
//! mutation property can check that no length field sizes an allocation
//! before the input has been found to hold that many bytes.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;
use std::sync::Arc;

use potemkin::farm::FarmConfig;
use potemkin::gateway::policy::PolicyConfig;
use potemkin::net::tcp::TcpFlags;
use potemkin::net::{Packet, PacketBuilder};
use potemkin::parallel::{run_telescope_sharded, CellMap, ShardedTelescopeConfig};
use potemkin::scenario::TelescopeConfig;
use potemkin::sim::SimTime;
use potemkin::workload::radiation::{RadiationConfig, RadiationModel};
use potemkin::workload::trace::Trace;
use potemkin::workload::worm::WormSpec;

thread_local! {
    /// The largest single request since the test last zeroed it.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct LargestAlloc;

// SAFETY: delegates every operation to `System`; the side record is
// thread-local and never re-enters the allocator.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.with(|c| c.set(c.get().max(layout.size())));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.with(|c| c.set(c.get().max(new_size)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

#[derive(Clone, Debug)]
enum AnyPacket {
    Tcp { src: u32, dst: u32, sport: u16, dport: u16, flags: u8, payload: Vec<u8> },
    Udp { src: u32, dst: u32, sport: u16, dport: u16, payload: Vec<u8> },
    Icmp { src: u32, dst: u32, ident: u16, seq: u16 },
}

fn arb_packet() -> impl Strategy<Value = AnyPacket> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u32>(),
            any::<u16>(),
            any::<u16>(),
            0u8..64,
            proptest::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(src, dst, sport, dport, flags, payload)| AnyPacket::Tcp {
                src,
                dst,
                sport,
                dport,
                flags,
                payload
            }),
        (
            any::<u32>(),
            any::<u32>(),
            any::<u16>(),
            any::<u16>(),
            proptest::collection::vec(any::<u8>(), 0..64)
        )
            .prop_map(|(src, dst, sport, dport, payload)| AnyPacket::Udp {
                src,
                dst,
                sport,
                dport,
                payload
            }),
        (any::<u32>(), any::<u32>(), any::<u16>(), any::<u16>())
            .prop_map(|(src, dst, ident, seq)| AnyPacket::Icmp { src, dst, ident, seq }),
    ]
}

fn build(p: &AnyPacket) -> Packet {
    match p {
        AnyPacket::Tcp { src, dst, sport, dport, flags, payload } => PacketBuilder::new(
            Ipv4Addr::from(*src),
            Ipv4Addr::from(*dst),
        )
        .tcp_segment(*sport, *dport, TcpFlags::from_byte(*flags), 1, 2, payload),
        AnyPacket::Udp { src, dst, sport, dport, payload } => {
            PacketBuilder::new(Ipv4Addr::from(*src), Ipv4Addr::from(*dst))
                .udp(*sport, *dport, payload)
        }
        AnyPacket::Icmp { src, dst, ident, seq } => {
            PacketBuilder::new(Ipv4Addr::from(*src), Ipv4Addr::from(*dst))
                .icmp_echo(*ident, *seq, b"x")
        }
    }
}

fn trace_of(items: &[(u64, AnyPacket)]) -> Trace {
    let mut trace = Trace::new();
    for (nanos, p) in items {
        trace.push(SimTime::from_nanos(*nanos), build(p));
    }
    trace
}

fn pcap_bytes(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::new();
    trace.write_pcap(&mut buf).unwrap();
    buf
}

/// One change to a valid file.
#[derive(Clone, Debug)]
enum Mutation {
    /// XOR a nonzero mask into the byte at this position (mod length).
    Flip { at: usize, mask: u8 },
    /// Keep only the first `at` bytes (mod length).
    Truncate { at: usize },
    /// Raise the `incl_len` and `orig_len` of record `record` (mod count)
    /// by `by`, so the record claims bytes past its packet.
    Inflate { record: usize, by: u32 },
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        any::<usize>().prop_map(|at| Mutation::Truncate { at }),
        (any::<usize>(), prop_oneof![1u32..64, 1u32 << 20..=u32::MAX])
            .prop_map(|(record, by)| Mutation::Inflate { record, by }),
    ]
}

fn mutate(trace: &Trace, mutation: &Mutation) -> Vec<u8> {
    let mut buf = pcap_bytes(trace);
    match *mutation {
        Mutation::Flip { at, mask } => {
            let at = at % buf.len();
            buf[at] ^= mask;
        }
        Mutation::Truncate { at } => buf.truncate(at % buf.len()),
        Mutation::Inflate { record, by } => {
            let mut at = 24;
            for e in &trace.events()[..record % trace.len()] {
                at += 16 + e.packet.wire().len();
            }
            for field in [at + 8, at + 12] {
                let len = u32::from_le_bytes(buf[field..field + 4].try_into().unwrap());
                buf[field..field + 4].copy_from_slice(&len.wrapping_add(by).to_le_bytes());
            }
        }
    }
    buf
}

/// A small telescope: a /22 under ten times the default radiation for
/// five seconds, with a slow worm loose in it, so packets cross cells.
fn telescope(seed: u64) -> TelescopeConfig {
    let space = "10.1.8.0/22".parse().unwrap();
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(5));
    farm.frames_per_server = 262_144;
    farm.seed = seed;
    // A slow worm: some dozens of reflected probes, not a saturated /22.
    farm.worm = Some(WormSpec { scan_rate: 1.0, ..WormSpec::code_red(space) });
    let radiation =
        RadiationConfig { telescope: space, peak_source_rate: 40.0, ..Default::default() };
    TelescopeConfig::builder(farm, radiation)
        .seed(seed)
        .duration(SimTime::from_secs(5))
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .unwrap()
}

/// The radiation `base` generates, written as a pcap file and read back.
fn captured(base: &TelescopeConfig) -> Trace {
    let generated = RadiationModel::new(base.radiation.clone(), base.seed).generate(base.duration);
    Trace::read_pcap(&pcap_bytes(&generated)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stamps anywhere in the first four seconds, nanosecond-exact, in file
    /// order (unsorted), and the re-written file is the same bytes.
    #[test]
    fn pcap_format_roundtrips_arbitrary_traces(
        items in proptest::collection::vec((0u64..4_000_000_000u64, arb_packet()), 0..40),
    ) {
        let trace = trace_of(&items);
        let bytes = pcap_bytes(&trace);
        let parsed = Trace::read_pcap(&bytes).unwrap();
        prop_assert_eq!(parsed.events(), trace.events());
        prop_assert_eq!(pcap_bytes(&parsed), bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// One mutation of a valid file — a byte flipped, a cut, or a record's
    /// length fields inflated — is a typed error, or a trace whose file is
    /// the mutated bytes again (up to the header's zone, accuracy and
    /// snap-length fields, which the reader skips). It never panics, and
    /// no single allocation while reading exceeds eight bytes per input
    /// byte plus a kilobyte: the record list's worst-case doubling, far
    /// below what an inflated length would ask for.
    #[test]
    fn a_mutated_pcap_is_refused_or_rewrites_to_itself(
        items in proptest::collection::vec((0u64..4_000_000_000u64, arb_packet()), 1..8),
        mutation in arb_mutation(),
    ) {
        let mutated = mutate(&trace_of(&items), &mutation);
        LARGEST.with(|c| c.set(0));
        let read = Trace::read_pcap(&mutated);
        let largest = LARGEST.with(Cell::get);
        prop_assert!(largest <= 8 * mutated.len() + 1024, "{mutation:?}: allocated {largest}");
        if let Ok(trace) = read {
            let mut rewritten = pcap_bytes(&trace);
            if mutated.len() >= 24 {
                rewritten[8..20].copy_from_slice(&mutated[8..20]);
            }
            prop_assert!(rewritten == mutated, "{:?}: read, but rewrites else", mutation);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The tentpole's equivalence: a telescope's radiation, written to a
    /// pcap file, read back and replayed as a capture, gives the generated
    /// run's result — on one cell and two workers as on one, and on four
    /// sliced cells.
    #[test]
    fn a_read_capture_replays_as_the_radiation_it_was_written_from(seed in any::<u64>()) {
        let base = telescope(seed);
        let capture = Arc::new(captured(&base));
        for (cells, map, workers) in
            [(2, CellMap::Hashed, 1), (2, CellMap::Hashed, 2), (4, CellMap::Sliced, 2)]
        {
            let layout = ShardedTelescopeConfig::builder(base.clone())
                .cells(cells)
                .cell_map(map)
                .seed_infections(1);
            let generated = run_telescope_sharded(&layout.clone().build().unwrap(), workers).unwrap();
            let config = layout.capture(Arc::clone(&capture)).build().unwrap();
            let replayed = run_telescope_sharded(&config, workers).unwrap();
            let at = format!("cells={cells} {map:?} workers={workers}");
            prop_assert!(generated.packets > 0, "{}: an empty trace proves nothing", at);
            prop_assert!(generated.cross_cell_packets > 0, "{}: no packet crossed a cell", at);
            prop_assert_eq!(generated.divergence(&replayed), None, "{}", at);
            prop_assert_eq!(generated.distinct_sources, replayed.distinct_sources, "{}", at);
            prop_assert_eq!(
                generated.distinct_destinations,
                replayed.distinct_destinations,
                "{}",
                at
            );
            prop_assert_eq!(&generated.mix, &replayed.mix, "{}", at);
        }
    }
}

#[test]
fn a_capture_with_a_destination_outside_the_telescope_is_a_config_error() {
    let base = telescope(5);
    let mut capture = captured(&base);
    let stray = PacketBuilder::new(Ipv4Addr::new(6, 6, 6, 6), Ipv4Addr::new(10, 1, 12, 1));
    capture.push(SimTime::from_millis(1), stray.tcp_syn(4_444, 445));
    let capture = Arc::new(capture);
    for (cells, map) in [(1, CellMap::Hashed), (4, CellMap::Sliced)] {
        let built = ShardedTelescopeConfig::builder(base.clone())
            .cells(cells)
            .cell_map(map)
            .capture(Arc::clone(&capture))
            .build();
        let err = built.expect_err("a stray destination must be refused");
        assert!(err.to_string().contains("capture"), "{map:?}: {err}");
    }
}

/// A capture stamped in epoch time — as tcpdump writes one — lies past the
/// run's horizon, so no packet of it would be delivered: the config is
/// refused, naming the first such stamp, instead of running empty.
#[test]
fn an_epoch_stamped_capture_is_a_config_error() {
    let base = telescope(5);
    let shift = SimTime::from_secs(1_700_000_000);
    let mut epoch = Trace::new();
    for event in captured(&base).events() {
        epoch.push(event.at + shift, event.packet.clone());
    }
    let first = epoch.events().iter().map(|e| e.at).min().unwrap();
    let built = ShardedTelescopeConfig::builder(base).capture(Arc::new(epoch)).build();
    let err = built.expect_err("an epoch-stamped capture must be refused");
    assert_eq!(err.field(), "capture", "{err}");
    assert!(err.to_string().contains(&first.to_string()), "{err}");
}
