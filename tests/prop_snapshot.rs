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
//!    same typed error before reserving anything.
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
    use potemkin::obs::{CounterSet, FaultClass, FaultLedger, LogHistogram, RateEstimator};
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
        FaultKind::TunnelDegrade {
            loss: f64::from_bits(w[3]),
            extra_latency: time(4),
            duration: time(5),
        },
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
    let mut hist = LogHistogram::new(32);
    w[..n].iter().for_each(|&x| hist.record(x >> (x % 60)));
    check_codec("LogHistogram", &hist)?;
    let mut series = TimeSeries::new(SimTime::from_secs(1));
    w[..n].iter().for_each(|&x| series.add(SimTime::from_secs(x % 7), (x >> 40) as f64));
    check_codec("TimeSeries", &series)?;
    let mut rate = RateEstimator::new(SimTime::from_secs(1));
    (0..n as u64).for_each(|i| rate.record(SimTime::from_millis(10 * i)));
    check_codec("RateEstimator", &rate)?;
    let mut ledger = FaultLedger::new();
    ledger.record(FaultClass::ALL[n % FaultClass::ALL.len()]);
    ledger.record_rebind_us(w[10] >> 30);
    check_codec("FaultLedger", &ledger)?;
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
    let reasons = [
        DropReason::Containment,
        DropReason::RateLimited,
        DropReason::SourceQuota,
        DropReason::PortFiltered,
        DropReason::Backscatter,
        DropReason::Malformed,
        DropReason::SpoofedSource,
        DropReason::AdmissionControl,
        DropReason::GatewayStalled,
        DropReason::TunnelLoss,
        DropReason::Degraded,
    ];
    for (tag, reason) in (0u8..).zip(reasons) {
        prop_assert_eq!(reason.to_bytes(), [tag]);
        check_codec("DropReason", &reason)?;
    }
    let packet =
        PacketBuilder::new(addr(20), addr(21)).udp(w[22] as u16, 1434, &w[23].to_le_bytes());
    check_codec("Packet", &packet)?;
    check_codec("FarmOutput", &FarmOutput::ForwardedCell { packet: packet.clone(), cell: n })?;
    check_codec("FarmOutput", &FarmOutput::DroppedInbound(reasons[n]))?;
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
    use potemkin::gateway::tunnel::TunnelEndpoint;
    use potemkin::gateway::{AddressBinder, BindGranularity, DnsProxy, FlowTable, Gateway};
    use potemkin::obs::{CounterSet, FaultLedger, LogHistogram, TimeSeries};
    use potemkin::sim::{EventQueue, RecencySlab};
    use potemkin::vmm::{FrameTable, Host, OverlayManifest};

    let bare = (u64::MAX >> 4).to_le_bytes().to_vec();
    let padded = [&bare[..], &[0; 96]].concat();
    for hostile in [&bare[..], &padded] {
        let mut components: Vec<(&str, Result<(), SnapshotError>)> = vec![
            ("flows", FlowTable::new(SimTime::from_secs(30)).restore_state(hostile)),
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
            ("tunnel", TunnelEndpoint::new().restore_state(hostile)),
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
            ("FaultLedger", FaultLedger::from_bytes(hostile, "hostile").map(drop)),
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

    // A three-slot table as `FrameTable::snap` writes it: total, allocs,
    // frees, table length, the free list, then `(index, refcount, content)`
    // per live frame.
    let table = |free: &[u64], live: &[(u64, u32, u64)]| {
        let mut w = potemkin::snapshot::SnapWriter::new();
        (8u64, 5u64, 2u64).snap(&mut w);
        w.usize(3);
        free.to_vec().snap(&mut w);
        live.to_vec().snap(&mut w);
        FrameTable::from_bytes(&w.into_bytes(), "hostile")
    };
    let honest = table(&[1], &[(0, 1, 7), (2, 3, 9)]).expect("one claim per slot");
    assert_eq!((honest.used_frames(), honest.refcount(potemkin::vmm::FrameId(2))), (2, 3));
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
