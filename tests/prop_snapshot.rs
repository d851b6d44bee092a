//! Property tests for whole-farm checkpoint/restore.
//!
//! Three claims, sampled rather than enumerated:
//!
//! 1. **Container round trip.** Any snapshot container — arbitrary
//!    section names and payloads — survives `encode` → `decode` with its
//!    contents intact, and re-encodes byte-identically.
//! 2. **Resume ≡ uninterrupted.** For any sampled scenario (seed, cells,
//!    workers, fault schedule, outbreak-shaped or not) and any kill window,
//!    killing the run at a checkpoint barrier, recovering the snapshot from
//!    disk, and resuming produces a report digest byte-identical to the run
//!    that was never interrupted.
//! 3. **Corruption rejection.** Flipping any single byte of an encoded
//!    snapshot, or truncating it at any point, yields a typed
//!    [`SnapshotError`] — never a panic, never a silently-accepted
//!    snapshot.
//!
//! 4. **Payload codecs.** Every [`Snap`] value re-encodes byte-identically
//!    after a round trip that consumes its bytes exactly, *every*
//!    truncation of its encoding is [`SnapshotError::Decode`], and a
//!    component handed a length no payload could hold refuses it with the
//!    same typed error before reserving anything. A host's or a farm's
//!    payload with one byte flipped, cut or inflated is refused, or restored
//!    as exactly the state it encodes.
//!
//! Each resume case replays a full telescope scenario three times, so the
//! case budget is kept small; the fixed unit tests in
//! `potemkin_core::checkpoint` cover the common configurations on every
//! run.
//!
//! [`SnapshotError`]: potemkin::snapshot::SnapshotError
//! [`Snap`]: potemkin::snapshot::Snap

use proptest::prelude::*;

use potemkin::checkpoint::{
    recover_snapshot, resume_telescope_checkpointed, run_telescope_checkpointed, CheckpointOptions,
};
use potemkin::farm::{FarmConfig, Honeyfarm};
use potemkin::gateway::policy::PolicyConfig;
use potemkin::parallel::{run_telescope_sharded, ShardedTelescopeConfig};
use potemkin::scenario::TelescopeConfig;
use potemkin::sim::{FaultPlanConfig, SimRng, SimTime};
use potemkin::snapshot::{Snap, SnapshotError, SnapshotFile};
use potemkin::workload::radiation::RadiationConfig;
use potemkin::workload::worm::WormSpec;

#[derive(Clone, Copy, Debug)]
struct SampledRun {
    seed: u64,
    cells: usize,
    workers: usize,
    kill_after_windows: u64,
    clone_prob: f64,
    with_worm: bool,
    /// Outbreak-shaped: zero radiation rate, worm on, telescope = worm
    /// space.
    quiet: bool,
}

fn arb_run() -> impl Strategy<Value = SampledRun> {
    (
        any::<u64>(),
        1usize..=3,
        1usize..=4,
        2u64..=3,
        prop_oneof![Just(0.0), 0.01..0.3f64],
        (any::<bool>(), any::<bool>()),
    )
        .prop_map(
            |(seed, cells, workers, kill_after_windows, clone_prob, (with_worm, quiet))| {
                SampledRun {
                    seed,
                    cells,
                    workers,
                    kill_after_windows,
                    clone_prob,
                    with_worm,
                    quiet,
                }
            },
        )
}

/// The snapshot encoder walks every domain page table and host free
/// list, so sampled scenarios trim the guest footprint to keep
/// per-window checkpoints cheap in debug builds (same rationale as the
/// `potemkin_core::checkpoint` unit tests).
fn config_for(s: SampledRun) -> ShardedTelescopeConfig {
    let mut farm = FarmConfig::small_test();
    farm.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
    farm.frames_per_server = 32_768;
    let mut profile = potemkin::vmm::guest::GuestProfile::small();
    profile.memory_pages = 1_024;
    profile.disk_blocks = 512;
    farm.profile = profile;
    farm.seed = s.seed;
    let mut seed_infections = 0;
    let space = "10.1.8.0/26".parse().unwrap();
    let mut radiation = RadiationConfig::default();
    if s.quiet {
        radiation = RadiationConfig { telescope: space, peak_source_rate: 0.0, ..radiation };
    }
    if s.with_worm || s.quiet {
        farm.worm = Some(WormSpec::code_red(space));
        seed_infections = 1;
    }
    let duration = SimTime::from_secs(2);
    let faults = (s.clone_prob > 0.0).then(|| FaultPlanConfig {
        seed: s.seed.wrapping_add(1),
        clone_failure_prob: s.clone_prob,
        ..FaultPlanConfig::zero(duration, farm.servers)
    });
    let base = TelescopeConfig::builder(farm, radiation)
        .seed(s.seed)
        .duration(duration)
        .sample_interval(SimTime::from_secs(1))
        .tick_interval(SimTime::from_secs(1))
        .build()
        .expect("valid telescope config");
    let mut builder = ShardedTelescopeConfig::builder(base)
        .cells(s.cells)
        .window(SimTime::from_millis(500))
        .seed_infections(seed_infections);
    if let Some(faults) = faults {
        builder = builder.faults(faults);
    }
    builder.build().expect("valid sharded config")
}

fn temp_path(tag: u64) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("potemkin-prop-snap-{}-{tag:016x}.snap", std::process::id()));
    p
}

fn cleanup(path: &std::path::Path) {
    let _ = std::fs::remove_file(path);
    let mut prev = path.to_path_buf();
    if let Some(name) = path.file_name() {
        let mut name = name.to_os_string();
        name.push(".prev");
        prev.set_file_name(name);
        let _ = std::fs::remove_file(&prev);
    }
}

fn arb_container() -> impl Strategy<Value = SnapshotFile> {
    (
        any::<u64>(),
        proptest::collection::vec(
            ("[a-z][a-z0-9.]{0,15}", proptest::collection::vec(any::<u8>(), 0..256)),
            0..6,
        ),
    )
        .prop_map(|(fingerprint, sections)| {
            let mut file = SnapshotFile::new(fingerprint);
            for (name, payload) in sections {
                file.push(&name, payload);
            }
            file
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Claim 1: the container survives a round trip with contents intact
    /// and re-encodes byte-identically.
    #[test]
    fn container_round_trips_byte_identically(file in arb_container()) {
        let bytes = file.encode();
        let decoded = SnapshotFile::decode(&bytes).expect("valid container decodes");
        prop_assert_eq!(decoded.config_fingerprint, file.config_fingerprint);
        prop_assert_eq!(decoded.sections.len(), file.sections.len());
        for (a, b) in decoded.sections.iter().zip(&file.sections) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(&a.payload, &b.payload);
        }
        prop_assert_eq!(decoded.encode(), bytes);
    }

    /// Claim 3a: flipping any single byte is rejected with a typed error.
    #[test]
    fn any_single_byte_flip_is_rejected(
        file in arb_container(),
        pos_seed in any::<usize>(),
        flip in 1u8..=255,
    ) {
        let mut bytes = file.encode();
        let pos = pos_seed % bytes.len();
        bytes[pos] ^= flip;
        prop_assert!(
            SnapshotFile::decode(&bytes).is_err(),
            "flip at {pos}/{} was accepted",
            bytes.len(),
        );
    }

    /// Claim 3b: truncating at any point is rejected with a typed error.
    #[test]
    fn any_truncation_is_rejected(file in arb_container(), pos_seed in any::<usize>()) {
        let bytes = file.encode();
        let len = pos_seed % bytes.len(); // strictly shorter than the file
        prop_assert!(
            SnapshotFile::decode(&bytes[..len]).is_err(),
            "truncation to {len}/{} was accepted",
            bytes.len(),
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Claim 2: kill at a sampled checkpoint barrier, recover from disk,
    /// resume at a sampled worker count — byte-identical to the
    /// uninterrupted run.
    #[test]
    fn resume_matches_uninterrupted_run(s in arb_run()) {
        let config = config_for(s);
        let uninterrupted = run_telescope_sharded(&config, 1).expect("baseline runs");

        let path = temp_path(s.seed);
        let mut options = CheckpointOptions::new(&path);
        options.stop_after_windows = Some(s.kill_after_windows);
        let killed = run_telescope_checkpointed(&config, 1, &options).expect("killed run");
        prop_assert!(killed.checkpoints.interrupted);
        prop_assert!(killed.checkpoints.written >= 1);

        let (snapshot, fell_back) = recover_snapshot(&path).expect("snapshot recovers");
        prop_assert!(!fell_back);
        options.stop_after_windows = None;
        let resumed = resume_telescope_checkpointed(&config, s.workers, &snapshot, &options)
            .expect("resume runs");
        cleanup(&path);
        prop_assert_eq!(uninterrupted.canonical_string(), resumed.result.canonical_string());
    }
}

/// Claim 4 for one value: round trip, exact consumption, and a typed
/// error — never a panic, never an accepted prefix — at every cut.
fn check_codec<T: Snap>(what: &str, value: &T) -> Result<(), TestCaseError> {
    let decode = Some(SnapshotError::Decode { context: "prop" });
    let bytes = value.to_bytes();
    let back = T::from_bytes(&bytes, "prop");
    prop_assert!(back.is_ok(), "{what}: own bytes refused");
    prop_assert_eq!(back.ok().map(|v| v.to_bytes()), Some(bytes.clone()), "{}", what);
    for cut in 0..bytes.len() {
        prop_assert_eq!(T::from_bytes(&bytes[..cut], "prop").err(), decode.clone(), "{}", what);
    }
    let mut tail = bytes;
    tail.push(0);
    prop_assert_eq!(T::from_bytes(&tail, "prop").err(), decode, "{}", what);
    Ok(())
}

/// One small value of every [`Snap`] type the tree checkpoints, drawn from
/// `seed`, each put through [`check_codec`].
fn check_every_codec(seed: u64) -> Result<(), TestCaseError> {
    use potemkin::farm::{CaptureRecord, FarmOutput, InfectionRecord};
    use potemkin::gateway::binding::{BindKey, VmRef};
    use potemkin::gateway::DropReason;
    use potemkin::net::{FlowKey, PacketBuilder, Transport};
    use potemkin::obs::TimeSeries;
    use potemkin::obs::{CounterSet, LogHistogram};
    use potemkin::sim::{
        EventQueue, FaultEvent, FaultKind, RecencySlab, ShardProgress, TokenBucket,
    };
    use potemkin::vmm::guest::GuestProfile;
    use potemkin::vmm::{FrameTable, OverlayManifest};
    use std::collections::{BTreeMap, HashMap};
    use std::net::Ipv4Addr;

    let mut rng = SimRng::seed_from(seed);
    let n = rng.below(6) as usize;
    let mut words = |count: usize| (0..count).map(|_| rng.next_u64()).collect::<Vec<u64>>();
    let w = words(48);
    let time = |i: usize| SimTime::from_nanos(w[i] >> 20);
    let addr = |i: usize| Ipv4Addr::from(w[i] as u32);

    // Primitives and containers.
    check_codec("u8", &(w[0] as u8))?;
    check_codec("u16", &(w[0] as u16))?;
    check_codec("u32", &(w[0] as u32))?;
    check_codec("u64", &w[0])?;
    check_codec("u128", &(u128::from(w[0]) << 64 | u128::from(w[1])))?;
    check_codec("i64", &(w[0] as i64))?;
    check_codec("f64", &f64::from_bits(w[0]))?;
    check_codec("bool", &(w[0] & 1 == 1))?;
    check_codec("usize", &(w[0] as u32 as usize))?;
    check_codec("String", &format!("näme-{:x}", w[0] >> (8 * n)))?;
    check_codec("Ipv4Addr", &addr(0))?;
    check_codec("Option", &(w[1] & 1 == 1).then_some(w[0]))?;
    check_codec("Vec", &w[..n].iter().map(|&x| x as u16).collect::<Vec<u16>>())?;
    check_codec("Vec<Vec>", &vec![w[..n].to_vec(), Vec::new()])?;
    check_codec("pair", &(w[0] as u8, format!("{}", w[1])))?;
    check_codec("triple", &(w[0], w[1] & 1 == 1, w[2] as u32))?;
    let pairs = || w[..n].iter().map(|&x| (x as u32, x >> 32));
    check_codec("BTreeMap", &pairs().collect::<BTreeMap<u32, u64>>())?;
    check_codec("HashMap", &pairs().collect::<HashMap<u32, u64>>())?;

    // Simulation substrate.
    check_codec("SimTime", &time(0))?;
    check_codec("SimRng", &SimRng::seed_from(w[0]))?;
    let mut bucket = TokenBucket::new(5.0, 10.0);
    bucket.try_take(time(1), 3.0);
    check_codec("TokenBucket", &bucket)?;
    let mut recency = RecencySlab::default();
    let secs = |s: usize| SimTime::from_secs(s as u64);
    let slots: Vec<_> = (0..n).map(|i| recency.insert(i, secs(i), w[i])).collect();
    if let Some(&first) = slots.first() {
        recency.remove(first);
    }
    recency.sweep(time(40));
    recency.refresh(&(n / 2), time(40) + secs(n));
    check_codec("RecencySlab", &recency)?;
    let mut queue = EventQueue::new();
    (0..n).for_each(|i| queue.schedule(time(i), w[i]));
    queue.pop();
    check_codec("EventQueue", &queue)?;
    let kinds = [
        FaultKind::HostCrash { host: n },
        FaultKind::HostRecover { host: n },
        FaultKind::CloneFaultBurst { host: n, count: w[2] as u32 },
        FaultKind::TunnelDegrade { loss: f64::from_bits(w[3]), duration: time(5) },
        FaultKind::GatewayStall { duration: time(6) },
    ];
    for kind in kinds {
        check_codec("FaultKind", &kind)?;
    }
    check_codec("FaultEvent", &FaultEvent { at: time(7), kind: kinds[n % kinds.len()] })?;
    let mut progress =
        ShardProgress { next_window: w[8], window_start: time(9), ..Default::default() };
    progress.per_shard.resize(n, Default::default());
    check_codec("ShardProgress", &progress)?;

    // Metrics.
    let mut hist = LogHistogram::new();
    w[..n].iter().for_each(|&x| hist.record(x >> (x % 60)));
    check_codec("LogHistogram", &hist)?;
    let mut series = TimeSeries::new(SimTime::from_secs(1));
    w[..n].iter().for_each(|&x| series.add(SimTime::from_secs(x % 7), (x >> 40) as f64));
    check_codec("TimeSeries", &series)?;
    let mut counters = CounterSet::new();
    counters.add("packets_in", w[11]);
    if n > 2 {
        counters.add("delivered", w[12]);
    }
    check_codec("CounterSet", &counters)?;

    // Gateway, network and VMM records.
    let src = (w[13] & 1 == 1).then(|| addr(14));
    check_codec("BindKey", &BindKey { dst: addr(15), src })?;
    let transports = [
        Transport::Tcp { src_port: w[16] as u16, dst_port: w[17] as u16 },
        Transport::Udp { src_port: w[16] as u16, dst_port: w[17] as u16 },
        Transport::Icmp { ident: w[16] as u16 },
        Transport::Other { protocol: w[16] as u8 },
    ];
    for transport in transports {
        check_codec("FlowKey", &FlowKey { src: addr(18), dst: addr(19), transport })?;
    }
    // Each reason keeps its wire number; 3 and 5 were reasons that no
    // longer exist, so they decode to an error.
    let reasons = [
        (0, DropReason::Containment),
        (1, DropReason::RateLimited),
        (2, DropReason::SourceQuota),
        (4, DropReason::Backscatter),
        (6, DropReason::SpoofedSource),
        (7, DropReason::AdmissionControl),
        (8, DropReason::GatewayStalled),
        (9, DropReason::TunnelLoss),
        (10, DropReason::Degraded),
    ];
    for (tag, reason) in reasons {
        prop_assert_eq!(reason.to_bytes(), [tag]);
        check_codec("DropReason", &reason)?;
    }
    for gone in [3, 5] {
        prop_assert!(DropReason::from_bytes(&[gone], "DropReason").is_err());
    }
    let packet =
        PacketBuilder::new(addr(20), addr(21)).udp(w[22] as u16, 1434, &w[23].to_le_bytes());
    check_codec("Packet", &packet)?;
    check_codec("FarmOutput", &FarmOutput::ForwardedCell { packet: packet.clone(), cell: n })?;
    check_codec("FarmOutput", &FarmOutput::DroppedInbound(reasons[n].1))?;
    check_codec(
        "InfectionRecord",
        &InfectionRecord {
            vm: VmRef(w[24]),
            victim_addr: src,
            infected_by: addr(25),
            port: (n > 1).then_some(w[26] as u16),
            internal_origin: n > 3,
            at: time(27),
        },
    )?;
    check_codec(
        "CaptureRecord",
        &CaptureRecord {
            payload: packet.wire().to_vec(),
            port: w[28] as u16,
            first_source: addr(29),
            first_seen: time(30),
            hits: w[31],
        },
    )?;
    let mut overlay = OverlayManifest::new();
    w[..n].iter().for_each(|&x| overlay.set(x % 512, x));
    check_codec("OverlayManifest", &overlay)?;
    let mut frames = FrameTable::new(64);
    let live: Vec<_> = w[..n].iter().map(|&x| frames.alloc(x).expect("64 frames")).collect();
    if let Some(&first) = live.first() {
        frames.release(first);
    }
    check_codec("FrameTable", &frames)?;
    check_codec("GuestProfile", &GuestProfile::windows_server())?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Claim 4a: one property for every `Snap` impl.
    #[test]
    fn every_payload_codec_round_trips_and_refuses_every_truncation(seed in any::<u64>()) {
        check_every_codec(seed)?;
    }
}

/// Claim 4b: a payload whose first length is `u64::MAX >> 4` — alone, and
/// followed by enough zeros that the bytes after it parse — is a decode
/// error for every component with a `restore_state`, and for every
/// sequence-bearing `Snap` type. So is a frame table whose lengths add up
/// but whose slots are not each claimed once: a count of zero means free, so
/// such a table would hold a slot that is neither live nor free.
#[test]
fn a_hostile_first_length_is_a_decode_error_for_every_component() {
    use potemkin::fed::FederationRouter;
    use potemkin::gateway::reclaim::ReclaimPolicyKind;
    use potemkin::gateway::{AddressBinder, BindGranularity, DnsProxy, FlowTable, Gateway};
    use potemkin::obs::{CounterSet, LogHistogram, TimeSeries};
    use potemkin::sim::{EventQueue, RecencySlab};
    use potemkin::vmm::{FrameTable, Host, OverlayManifest};

    let bare = (u64::MAX >> 4).to_le_bytes().to_vec();
    let padded = [&bare[..], &[0; 96]].concat();
    for hostile in [&bare[..], &padded] {
        let mut components: Vec<(&str, Result<(), SnapshotError>)> = vec![
            ("flows", FlowTable::new(SimTime::from_secs(30), None).restore_state(hostile)),
            (
                "binder",
                AddressBinder::new(
                    BindGranularity::PerDestination,
                    SimTime::from_secs(30),
                    SimTime::MAX,
                    None,
                )
                .restore_state(hostile),
            ),
            ("dns", DnsProxy::new("172.20.0.0/16".parse().unwrap()).restore_state(hostile)),
            ("gateway", Gateway::new(Default::default()).restore_state(hostile)),
            ("clock", ReclaimPolicyKind::Clock.instantiate().restore_state(hostile)),
            ("host", Host::new(1_000).restore_state(hostile)),
            ("farm", Honeyfarm::new(FarmConfig::small_test()).unwrap().restore_state(hostile)),
            ("router", FederationRouter::new().restore_state(hostile)),
        ];
        let from_bytes = [
            ("Vec", Vec::<u64>::from_bytes(hostile, "hostile").map(drop)),
            ("RecencySlab", RecencySlab::<u64, u64>::from_bytes(hostile, "hostile").map(drop)),
            ("EventQueue", EventQueue::<u64>::from_bytes(hostile, "hostile").map(drop)),
            ("LogHistogram", LogHistogram::from_bytes(hostile, "hostile").map(drop)),
            ("TimeSeries", TimeSeries::from_bytes(hostile, "hostile").map(drop)),
            ("CounterSet", CounterSet::from_bytes(hostile, "hostile").map(drop)),
            ("FrameTable", FrameTable::from_bytes(hostile, "hostile").map(drop)),
            ("OverlayManifest", OverlayManifest::from_bytes(hostile, "hostile").map(drop)),
        ];
        components.extend(from_bytes);
        for (what, outcome) in components {
            assert!(
                matches!(outcome, Err(SnapshotError::Decode { .. })),
                "{what} on {} bytes: {outcome:?}",
                hostile.len()
            );
        }
    }

    // A three-slot table as `FrameTable::snap` writes it: total, private
    // pages, table length, the free list, then `(index, refcount, content)`
    // per live row.
    let table_of = |private: u64, free: &[u64], live: &[(u64, u32, u64)]| {
        let mut w = potemkin::snapshot::SnapWriter::new();
        (8u64, private).snap(&mut w);
        w.usize(3);
        free.to_vec().snap(&mut w);
        live.to_vec().snap(&mut w);
        FrameTable::from_bytes(&w.into_bytes(), "hostile")
    };
    let table = |free: &[u64], live: &[(u64, u32, u64)]| table_of(1, free, live);
    let honest = table_of(6, &[1], &[(0, 1, 7), (2, 3, 9)]).expect("one claim per slot");
    assert_eq!((honest.used_frames(), honest.refcount(potemkin::vmm::FrameId(2))), (8, 3));
    let crowded = table_of(7, &[1], &[(0, 1, 7), (2, 3, 9)]).map(drop);
    assert!(matches!(crowded, Err(SnapshotError::Decode { .. })), "9 of 8 frames: {crowded:?}");
    for (what, free, live) in [
        ("a live row with refcount 0", &[1][..], &[(0, 0, 7), (2, 3, 9)][..]),
        ("an index live twice", &[1], &[(0, 1, 7), (0, 3, 9)]),
        ("an index live and free", &[0], &[(0, 1, 7), (2, 3, 9)]),
        ("an index free twice", &[1, 1], &[(0, 1, 7)]),
        ("a live index past the table", &[1], &[(0, 1, 7), (3, 3, 9)]),
        ("a free index past the table", &[3], &[(0, 1, 7), (2, 3, 9)]),
    ] {
        let outcome = table(free, live).map(drop);
        assert!(matches!(outcome, Err(SnapshotError::Decode { .. })), "{what}: {outcome:?}");
    }
}

/// Claim 4c: a host payload whose frame table disagrees with what names its
/// frames — the image lists and the shared p2m entries, one reference each,
/// and the private pages, one count each — is a decode error, and the host
/// it was offered to is left as it was. Each case is the host's own payload
/// with only its frame table, the payload's first field, replaced.
#[test]
fn a_host_payload_that_breaks_the_reference_rule_is_a_decode_error() {
    use potemkin::snapshot::SnapReader;
    use potemkin::vmm::addrspace::Pte;
    use potemkin::vmm::guest::GuestProfile;
    use potemkin::vmm::{FrameId, FrameTable, Host};

    let fresh = || Host::new(100_000).with_overhead_pages(16);
    let mut host = fresh();
    let image = host.create_reference_image("rule", GuestProfile::small()).unwrap();
    let (a, _) = host.flash_clone(image).unwrap();
    let (b, _) = host.flash_clone(image).unwrap();
    host.write_page(a, 9, 0xC0DE).unwrap();
    host.write_page(b, 9, 0xC0DE).unwrap();
    host.write_page(b, 10, 0xF00D).unwrap();
    host.scan_and_merge().unwrap();
    let Ok(Pte::Shared(merged)) = host.domain(a).unwrap().space().lookup(9) else {
        panic!("the merge shares pfn 9")
    };
    let bytes = host.encode_state();
    let table = FrameTable::unsnap(&mut SnapReader::new(&bytes, "table")).unwrap();
    let rest = &bytes[table.to_bytes().len()..];
    let with = |edit: &dyn Fn(&mut FrameTable)| {
        let mut t = table.clone();
        edit(&mut t);
        [t.to_bytes(), rest.to_vec()].concat()
    };
    // The private count is the second word, after the total.
    let private_off_by = |delta: i64| {
        let mut payload = bytes.clone();
        let private = u64::from_le_bytes(payload[8..16].try_into().unwrap());
        payload[8..16].copy_from_slice(&private.wrapping_add_signed(delta).to_le_bytes());
        payload
    };
    let mut honest = fresh();
    honest.restore_state(&with(&|_| {})).expect("the payload as written");
    assert_eq!(honest.encode_state(), bytes);

    let mut bystander = fresh();
    let kept = bystander.create_reference_image("kept", GuestProfile::small()).unwrap();
    let (c, _) = bystander.flash_clone(kept).unwrap();
    bystander.write_page(c, 3, 0xAB).unwrap();
    let before = bystander.encode_state();
    for (what, payload) in [
        ("an image frame on the free list", with(&|t| t.release(FrameId(8_191)))),
        ("a shared entry naming a free slot", with(&|t| (0..2).for_each(|_| t.release(merged)))),
        ("a refcount one above its holders", with(&|t| t.share(FrameId(0)))),
        ("a refcount one below its holders", with(&|t| t.release(merged))),
        ("a row nothing names", with(&|t| assert!(t.alloc(5).is_ok()))),
        ("a private count one high", private_off_by(1)),
        ("a private count one low", private_off_by(-1)),
    ] {
        let outcome = bystander.restore_state(&payload);
        assert!(matches!(outcome, Err(SnapshotError::Decode { .. })), "{what}: {outcome:?}");
        assert_eq!(bystander.encode_state(), before, "{what}: the host moved");
    }
}

/// Finds the one place `part` occurs in `bytes`.
fn find_once(bytes: &[u8], part: &[u8]) -> usize {
    let mut hits = bytes.windows(part.len()).enumerate().filter(|(_, w)| *w == part);
    let (at, _) = hits.next().expect("the part is in the payload");
    assert!(hits.next().is_none(), "the part is in the payload once");
    at
}

/// Claim 4d: a host payload whose p2m is not one a host makes — a space
/// smaller than its image, a delta pair out of pfn order, repeated, past
/// the image or equal to what the image implies, or a shared page past the
/// image — is a decode error, and the host it was offered to is left as it
/// was. Each case splices one domain's space and edits the frame table to
/// match, so the reference rule alone would accept it.
#[test]
fn a_host_payload_with_a_hostile_p2m_is_a_decode_error() {
    use potemkin::snapshot::SnapReader;
    use potemkin::snapshot::SnapWriter;
    use potemkin::vmm::addrspace::Pte;
    use potemkin::vmm::guest::GuestProfile;
    use potemkin::vmm::{FrameTable, Host};

    let fresh = || Host::new(100_000).with_overhead_pages(16);
    let mut host = fresh();
    let image = host.create_reference_image("p2m", GuestProfile::small()).unwrap();
    let (clone, _) = host.flash_clone(image).unwrap();
    host.write_page(clone, 3, 0xA3).unwrap();
    host.write_page(clone, 9, 0xA9).unwrap();
    let (copy, _) = host.full_copy_clone(image).unwrap();
    let bytes = host.encode_state();
    let base = host.image(image).unwrap().frames().to_vec();

    // A space as it goes on the wire: whether it sits over its image's
    // list, the pairs that differ from the list, then the pages past it.
    let space = |over: bool, pairs: &[(u64, Pte)], tail: &[Pte]| {
        let mut w = SnapWriter::new();
        w.bool(over);
        pairs.to_vec().snap(&mut w);
        tail.to_vec().snap(&mut w);
        w.into_bytes()
    };
    let overhead = [Pte::Private(0); 16];
    let (a3, a9) = ((3, Pte::Private(0xA3)), (9, Pte::Private(0xA9)));
    let clone_space = space(true, &[a3, a9], &overhead);
    let copied: Vec<Pte> = host.domain(copy).unwrap().space().iter().map(|(_, pte)| pte).collect();
    let copy_space = space(false, &[], &copied);
    // The payload with `was` replaced by `now` and `edit` made to the frame
    // table, the payload's first field.
    let table = FrameTable::unsnap(&mut SnapReader::new(&bytes, "table")).unwrap();
    let rest = &bytes[table.to_bytes().len()..];
    let splice = |was: &[u8], now: &[u8], edit: &dyn Fn(&mut FrameTable)| {
        let at = find_once(rest, was);
        let mut t = table.clone();
        edit(&mut t);
        [&t.to_bytes()[..], &rest[..at], now, &rest[at + was.len()..]].concat()
    };
    let fewer_private = |pages: u64| move |t: &mut FrameTable| t.release_private(pages);
    let mut honest = fresh();
    honest.restore_state(&splice(&clone_space, &clone_space, &|_| {})).expect("as written");
    assert_eq!(honest.encode_state(), bytes);

    let mut bystander = fresh();
    let kept = bystander.create_reference_image("kept", GuestProfile::small()).unwrap();
    let (c, _) = bystander.flash_clone(kept).unwrap();
    bystander.write_page(c, 3, 0xAB).unwrap();
    let before = bystander.encode_state();
    let short = [Pte::Private(0); 10];
    let mut shared_overhead = copied.clone();
    *shared_overhead.last_mut().unwrap() = Pte::Shared(base[0]);
    let (same, one_fewer) = (&|_: &mut FrameTable| {}, &fewer_private(1));
    for (what, payload) in [
        ("a flash clone mapping fewer pages than its image", {
            splice(&clone_space, &space(false, &[], &short), &fewer_private(18 - 10))
        }),
        ("a full copy mapping fewer pages than its image", {
            let fewer = fewer_private(copied.len() as u64 - 10);
            splice(&copy_space, &space(false, &[], &short), &fewer)
        }),
        ("pairs out of pfn order", splice(&clone_space, &space(true, &[a9, a3], &overhead), same)),
        ("a pair repeated", splice(&clone_space, &space(true, &[a3, a3, a9], &overhead), same)),
        ("a pair past the image", {
            let past = space(true, &[a3, (8_192, Pte::Private(1))], &overhead);
            splice(&clone_space, &past, one_fewer)
        }),
        ("a pair equal to the image's mapping", {
            let equal = space(true, &[a3, (9, Pte::Shared(base[9]))], &overhead);
            splice(&clone_space, &equal, one_fewer)
        }),
        ("a shared page past the image", {
            splice(&copy_space, &space(false, &[], &shared_overhead), &|t| {
                t.release_private(1);
                t.share(base[0]);
            })
        }),
    ] {
        let outcome = bystander.restore_state(&payload);
        assert!(matches!(outcome, Err(SnapshotError::Decode { .. })), "{what}: {outcome:?}");
        assert_eq!(bystander.encode_state(), before, "{what}: the host moved");
    }
}

/// A host that has been through every path that changes a p2m entry or the
/// frame table, on a 256-page image so that a case stays cheap: CoW writes,
/// a forensic snapshot and a clone of it, a merge pass, a rollback, a full
/// copy and a cold boot.
fn diverged_small_host() -> potemkin::vmm::Host {
    use potemkin::vmm::guest::GuestProfile;
    use potemkin::vmm::{DomainId, Host};

    let mut host = Host::new(4_096).with_overhead_pages(8);
    let profile = GuestProfile { memory_pages: 256, ..GuestProfile::small() };
    let image = host.create_reference_image("small", profile).unwrap();
    let vms: Vec<DomainId> = (0..3).map(|_| host.flash_clone(image).unwrap().0).collect();
    host.touch_pages(vms[0], &[1, 9, 40, 200], 0xA0).unwrap();
    host.touch_pages(vms[1], &[9, 70], 0xA1).unwrap();
    host.write_page(vms[1], 9, 0xA1 + 1).unwrap();
    let forensic = host.snapshot_domain(vms[0], "forensic").unwrap();
    host.write_page(vms[0], 1, 0xB0).unwrap();
    host.write_page(vms[2], 9, 0xA1 + 1).unwrap();
    host.scan_and_merge().unwrap();
    host.rollback(vms[1]).unwrap();
    host.full_copy_clone(image).unwrap();
    host.cold_boot(image).unwrap();
    let (of_forensic, _) = host.flash_clone(forensic).unwrap();
    host.write_page(of_forensic, 40, 0xC0).unwrap();
    host
}

/// Restores `payload`, `what` a mutation made, into a host that holds a
/// clone of its own and holds the outcome to claim 4e.
fn check_mutated_host_payload(what: &str, payload: &[u8]) -> Result<(), TestCaseError> {
    use potemkin::vmm::guest::GuestProfile;
    use potemkin::vmm::{DomainId, Host};

    let mut host = Host::new(4_096).with_overhead_pages(8);
    let profile = GuestProfile { memory_pages: 16, ..GuestProfile::small() };
    let image = host.create_reference_image("bystander", profile).unwrap();
    let (vm, _) = host.flash_clone(image).unwrap();
    host.write_page(vm, 3, 0xAB).unwrap();
    let before = host.encode_state();
    match host.restore_state(payload) {
        Err(SnapshotError::Decode { .. }) => {
            prop_assert!(host.encode_state() == before, "{what}: refused, but the host moved");
            return Ok(());
        }
        Err(other) => prop_assert!(false, "{what}: not a decode error: {other:?}"),
        Ok(()) => prop_assert!(host.encode_state() == payload, "{what}: accepted, re-encodes else"),
    }
    let ids: Vec<(DomainId, u64)> =
        host.domains().map(|d| (d.id(), d.private_pages() + d.shared_pages())).collect();
    for (id, pages) in ids {
        let _ = host.read_page(id, pages.saturating_sub(1));
        let _ = host.rollback(id);
        let _ = host.snapshot_domain(id, "mutated");
        let _ = host.destroy(id);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Claim 4e: one mutation of a diverged host's payload — a byte
    /// flipped, a cut, or a large value added to an 8-byte field — is
    /// either refused as a decode error with the host unchanged, or
    /// accepted as exactly the state it encodes, on which every domain
    /// operation returns rather than panics.
    #[test]
    fn a_mutated_host_payload_is_refused_or_restored_whole(seed in any::<u64>()) {
        let bytes = diverged_small_host().encode_state();
        let mut rng = SimRng::seed_from(seed);
        let at = rng.below(bytes.len() as u64) as usize;
        let mut payload = bytes.clone();
        let what = match rng.below(3) {
            0 => {
                let bit = rng.below(8);
                payload[at] ^= 1 << bit;
                format!("bit {bit} of byte {at} flipped")
            }
            1 => {
                payload.truncate(at);
                format!("cut at {at}")
            }
            _ => {
                let at = at.min(bytes.len() - 8);
                let field = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
                let large = 1 << 32 | rng.next_u64();
                payload[at..at + 8].copy_from_slice(&field.wrapping_add(large).to_le_bytes());
                format!("{large:#x} added at byte {at}")
            }
        };
        check_mutated_host_payload(&what, &payload)?;
    }
}

/// A two-server farm on a 256-page image that has been through every path
/// that writes its checkpointed state, so that a case stays cheap: standby
/// binds and fresh clones, a worm infection and its probes, merge passes,
/// a memory budget, a host crash and recovery, a tunnel degradation and
/// clone failures, with outputs left undrained.
fn busy_small_farm_config() -> FarmConfig {
    use potemkin::vmm::guest::GuestProfile;

    let mut cfg = FarmConfig::small_test();
    cfg.servers = 2;
    cfg.frames_per_server = 4_096;
    cfg.overhead_pages = 8;
    cfg.profile = GuestProfile { memory_pages: 256, disk_blocks: 256, ..GuestProfile::small() };
    cfg.standby_per_host = 1;
    cfg.worm = Some(WormSpec::slammer("10.1.0.0/26".parse().unwrap()));
    cfg.gateway.policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(4));
    cfg.merge_interval = Some(SimTime::from_secs(2));
    cfg.memory_budget_frames = Some(900);
    cfg
}

/// The seconds [`busy_small_farm`] drives its farm for.
const BUSY_SECS: u64 = 10;

fn busy_small_farm() -> Honeyfarm {
    use potemkin::net::PacketBuilder;
    use potemkin::sim::{FaultEvent, FaultKind, FaultPlan};
    use std::net::Ipv4Addr;

    let mut farm = Honeyfarm::new(busy_small_farm_config()).unwrap();
    let at = SimTime::from_secs;
    farm.install_fault_plan(FaultPlan {
        events: vec![
            FaultEvent { at: at(3), kind: FaultKind::HostCrash { host: 1 } },
            FaultEvent { at: at(5), kind: FaultKind::HostRecover { host: 1 } },
            FaultEvent { at: at(6), kind: FaultKind::TunnelDegrade { loss: 0.5, duration: at(2) } },
            FaultEvent { at: at(8), kind: FaultKind::CloneFaultBurst { host: 0, count: 2 } },
        ],
        clone_failure_prob: 0.05,
    });
    let attacker = Ipv4Addr::new(6, 6, 6, 6);
    let vm0 = farm.materialize(SimTime::ZERO, Ipv4Addr::new(10, 1, 0, 1)).unwrap();
    farm.seed_infection(vm0).unwrap();
    for s in 0..BUSY_SECS {
        let octet = 2 + (s % 40) as u8;
        let dst = Ipv4Addr::new(10, 1, 0, octet);
        farm.inject_external(at(s), PacketBuilder::new(attacker, dst).tcp_syn(4_444, 445));
        let probe = PacketBuilder::new(attacker, dst).udp(40_000, 1434, &[4u8; 376]);
        farm.inject_external(at(s), probe);
        farm.worm_probe(at(s), vm0, s);
        farm.tick(at(s));
    }
    farm
}

/// Restores `payload`, `what` a mutation made, into a farm built from the
/// same configuration and holds the outcome to claim 4f.
fn check_mutated_farm_payload(what: &str, payload: &[u8]) -> Result<(), TestCaseError> {
    use potemkin::net::PacketBuilder;
    use std::net::Ipv4Addr;

    let mut farm = Honeyfarm::new(busy_small_farm_config()).unwrap();
    match farm.restore_state(payload) {
        Err(SnapshotError::Decode { .. }) => return Ok(()),
        Err(other) => prop_assert!(false, "{what}: not a decode error: {other:?}"),
        Ok(()) => prop_assert!(farm.encode_state() == payload, "{what}: accepted, re-encodes else"),
    }
    // The report merges the restored histograms, so it runs on the state
    // as decoded and again after the farm moves on.
    let _ = farm.stats();
    let next = SimTime::from_secs(BUSY_SECS);
    farm.tick(next);
    let syn = PacketBuilder::new(Ipv4Addr::new(7, 7, 7, 7), Ipv4Addr::new(10, 1, 0, 60));
    farm.inject_external(next, syn.tcp_syn(4_445, 445));
    let _ = farm.stats();
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Claim 4f: one mutation of a busy farm's payload — a byte flipped, a
    /// cut, or a large value added to an 8-byte field — is either refused
    /// as a decode error or accepted as exactly the state it encodes, on
    /// which the report, a tick and an inbound packet return rather than
    /// panic.
    #[test]
    fn a_mutated_farm_payload_is_refused_or_restored_whole(seed in any::<u64>()) {
        static BUSY: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
        let bytes = BUSY.get_or_init(|| busy_small_farm().encode_state());
        let mut rng = SimRng::seed_from(seed);
        let at = rng.below(bytes.len() as u64) as usize;
        let mut payload = bytes.clone();
        let what = match rng.below(3) {
            0 => {
                let bit = rng.below(8);
                payload[at] ^= 1 << bit;
                format!("bit {bit} of byte {at} flipped")
            }
            1 => {
                payload.truncate(at);
                format!("cut at {at}")
            }
            _ => {
                let at = at.min(bytes.len() - 8);
                let field = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
                let large = 1 << 32 | rng.next_u64();
                payload[at..at + 8].copy_from_slice(&field.wrapping_add(large).to_le_bytes());
                format!("{large:#x} added at byte {at}")
            }
        };
        check_mutated_farm_payload(&what, &payload)?;
    }
}
