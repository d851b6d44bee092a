//! Property-based tests on gateway invariants: whatever packets arrive in
//! whatever order, (1) reflection mode never produces a ForwardExternal for
//! a non-reply, (2) the binder's accounting stays consistent, (3) flow
//! canonicalization is total, and (4) the flow table and the binder expire,
//! evict and count exactly as a linearly scanned `Vec` that applies the due
//! rule entry by entry — across a checkpoint taken at any step.

use proptest::prelude::*;
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::num::NonZeroUsize;

use potemkin::gateway::binding::{AddressBinder, BindGranularity, BindKey, ExpiredBinding, VmRef};
use potemkin::gateway::flowtable::{FlowDirection, FlowTable};
use potemkin::gateway::gateway::{Gateway, GatewayAction, GatewayConfig};
use potemkin::gateway::policy::PolicyConfig;
use potemkin::net::{FlowKey, PacketBuilder};
use potemkin::sim::recency::SWEEP_TICK;
use potemkin::sim::SimTime;
use potemkin::snapshot::SnapshotError;

fn telescope_addr(i: u16) -> Ipv4Addr {
    let [a, b] = i.to_be_bytes();
    Ipv4Addr::new(10, 1, a, b)
}

/// The reference models' idle timeout: ten sweep ticks, so a run of a few
/// hundred steps of up to 400 ms sees entries idle out and be refreshed in
/// time.
const IDLE: SimTime = SimTime::from_secs(1);

/// Time moves in half ticks, so deadlines fall on and between tick edges.
const STEP: SimTime = SimTime::from_millis(50);

/// What a reference table keeps beside its entries: the first tick no sweep
/// has covered and the next refresh sequence number.
#[derive(Default)]
struct SweepClock {
    unswept: u64,
    next_seq: u64,
}

impl SweepClock {
    /// The `(due tick, sequence)` of an entry whose deadline is set now:
    /// `max(ceil(deadline / tick), first unswept tick)`.
    fn stamp(&mut self, deadline: SimTime) -> (u64, u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        (deadline.as_nanos().div_ceil(SWEEP_TICK.as_nanos()).max(self.unswept), seq)
    }

    /// The tick a sweep at `now` covers up to: an entry is due iff its due
    /// tick is `<= floor(now / tick)`. `None` when that tick was swept
    /// before (everything due then has already gone).
    fn sweep(&mut self, now: SimTime) -> Option<u64> {
        let target = now / SWEEP_TICK;
        (target >= self.unswept).then(|| {
            self.unswept = target + 1;
            target
        })
    }
}

struct ModelFlow {
    key: FlowKey,
    direction: FlowDirection,
    due: u64,
    seq: u64,
}

/// The flow table as a `Vec` scanned linearly.
#[derive(Default)]
struct ModelFlows {
    flows: Vec<ModelFlow>,
    clock: SweepClock,
    max_flows: Option<usize>,
}

impl ModelFlows {
    fn observe(&mut self, now: SimTime, key: FlowKey, direction: FlowDirection) {
        let key = key.canonical();
        if let Some(flow) = self.flows.iter_mut().find(|f| f.key == key) {
            (flow.due, flow.seq) = self.clock.stamp(now + IDLE);
            return;
        }
        while self.max_flows.is_some_and(|max| self.flows.len() >= max) {
            let lru = (0..self.flows.len()).min_by_key(|&i| self.flows[i].seq).unwrap();
            self.flows.remove(lru);
        }
        let (due, seq) = self.clock.stamp(now + IDLE);
        self.flows.push(ModelFlow { key, direction, due, seq });
    }

    fn expire(&mut self, now: SimTime) -> Vec<FlowKey> {
        let Some(target) = self.clock.sweep(now) else { return Vec::new() };
        let mut due: Vec<(u64, u64, FlowKey)> =
            self.flows.iter().filter(|f| f.due <= target).map(|f| (f.due, f.seq, f.key)).collect();
        due.sort_unstable_by_key(|&(tick, seq, _)| (tick, seq));
        self.flows.retain(|f| f.due > target);
        due.into_iter().map(|(_, _, key)| key).collect()
    }

    fn flows_for(&self, addr: Ipv4Addr) -> usize {
        self.flows.iter().filter(|f| f.key.src == addr || f.key.dst == addr).count()
    }

    fn retire_addr(&mut self, addr: Ipv4Addr) -> usize {
        let retired = self.flows_for(addr);
        self.flows.retain(|f| f.key.src != addr && f.key.dst != addr);
        retired
    }
}

struct ModelBinding {
    key: BindKey,
    vm: VmRef,
    src: Ipv4Addr,
    bound_at: SimTime,
    last_active: SimTime,
    packets: u64,
    epoch: u64,
    due: u64,
    seq: u64,
}

/// The binder as a `Vec` scanned linearly, one deadline per binding: the
/// earlier of idle timeout and lifetime cap, recomputed at every refresh.
struct ModelBinder {
    per_source: bool,
    max_lifetime: SimTime,
    bindings: Vec<ModelBinding>,
    clock: SweepClock,
    next_epoch: u64,
}

impl ModelBinder {
    fn key_for(&self, src: Ipv4Addr, dst: Ipv4Addr) -> BindKey {
        BindKey { dst, src: self.per_source.then_some(src) }
    }

    fn take(&mut self, key: BindKey) -> Option<ModelBinding> {
        let at = self.bindings.iter().position(|b| b.key == key)?;
        Some(self.bindings.remove(at))
    }

    fn bind(&mut self, now: SimTime, src: Ipv4Addr, dst: Ipv4Addr, vm: VmRef) -> Option<VmRef> {
        let key = self.key_for(src, dst);
        let old = self.take(key).map(|b| b.vm);
        let deadline = (now + IDLE).min(now.saturating_add(self.max_lifetime));
        let (due, seq) = self.clock.stamp(deadline);
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        self.bindings.push(ModelBinding {
            key,
            vm,
            src,
            bound_at: now,
            last_active: now,
            packets: 0,
            epoch,
            due,
            seq,
        });
        old
    }

    fn lookup_active(&mut self, now: SimTime, src: Ipv4Addr, dst: Ipv4Addr) -> Option<VmRef> {
        let key = self.key_for(src, dst);
        let b = self.bindings.iter_mut().find(|b| b.key == key)?;
        let deadline = (now + IDLE).min(b.bound_at.saturating_add(self.max_lifetime));
        (b.due, b.seq) = self.clock.stamp(deadline);
        b.last_active = now;
        b.packets += 1;
        Some(b.vm)
    }

    fn expired(b: &ModelBinding, now: SimTime) -> ExpiredBinding {
        ExpiredBinding {
            key: b.key,
            vm: b.vm,
            lifetime: now.saturating_sub(b.bound_at),
            packets: b.packets,
        }
    }

    fn expire(&mut self, now: SimTime) -> Vec<ExpiredBinding> {
        let Some(target) = self.clock.sweep(now) else { return Vec::new() };
        let (mut due, live): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.bindings).into_iter().partition(|b| b.due <= target);
        self.bindings = live;
        due.sort_unstable_by_key(|b| (b.due, b.seq));
        due.iter().map(|b| Self::expired(b, now)).collect()
    }

    fn evict_key(&mut self, key: BindKey, now: SimTime) -> Option<ExpiredBinding> {
        let b = self.take(key)?;
        Some(Self::expired(&b, now))
    }

    fn unbind_vm(&mut self, vm: VmRef) -> Vec<BindKey> {
        let (mut gone, live): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.bindings).into_iter().partition(|b| b.vm == vm);
        self.bindings = live;
        gone.sort_unstable_by_key(|b| b.epoch);
        gone.iter().map(|b| b.key).collect()
    }

    fn source_bindings(&self, src: Ipv4Addr) -> u32 {
        self.bindings.iter().filter(|b| b.src == src).count() as u32
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under reflection, a VM's new outbound connections NEVER escape, no
    /// matter the destination mix.
    #[test]
    fn reflection_never_forwards_new_outbound(
        dests in proptest::collection::vec(any::<u32>(), 1..80),
        ports in proptest::collection::vec(1u16..u16::MAX, 1..80),
    ) {
        let mut g = Gateway::new(GatewayConfig::default());
        let t = SimTime::ZERO;
        let vm_addr = telescope_addr(1);
        g.bind(t, Ipv4Addr::new(6, 6, 6, 6), vm_addr, VmRef(0));
        for (i, (&d, &port)) in dests.iter().zip(ports.iter().cycle()).enumerate() {
            let dst = Ipv4Addr::from(d);
            if dst == vm_addr { continue; }
            let p = PacketBuilder::new(vm_addr, dst).tcp_syn(1_024 + i as u16, port);
            match g.on_outbound(t, VmRef(0), p) {
                GatewayAction::ForwardExternal(fp) => {
                    prop_assert!(false, "escaped to {}", fp.dst());
                }
                GatewayAction::Deliver { .. }
                | GatewayAction::Reflect { .. }
                | GatewayAction::Drop { .. }
                | GatewayAction::GatewayReply(_)
                | GatewayAction::CloneAndDeliver { .. } => {}
            }
        }
        prop_assert_eq!(g.counters().get("escaped"), 0);
    }

    /// Binder accounting: live count equals binds minus (expiries + unbinds
    /// + replacements), and per-source counters sum to the live count.
    #[test]
    fn binder_accounting_consistent(
        ops in proptest::collection::vec((any::<u16>(), any::<u8>(), 0u64..120), 1..200),
    ) {
        let mut binder = AddressBinder::new(
            BindGranularity::PerDestination,
            SimTime::from_secs(30),
            SimTime::MAX,
            None,
        );
        let mut now = SimTime::ZERO;
        let mut live: HashSet<Ipv4Addr> = HashSet::new();
        for (vmref, (dst_raw, src_raw, advance)) in ops.into_iter().enumerate() {
            now += SimTime::from_secs(advance);
            for e in binder.expire(now) {
                prop_assert!(live.remove(&e.key.dst), "expired unknown binding");
            }
            let dst = telescope_addr(dst_raw % 64);
            let src = Ipv4Addr::new(99, 99, 99, src_raw);
            binder.bind(now, src, dst, VmRef(vmref as u64));
            live.insert(dst);
            prop_assert_eq!(binder.len(), live.len());
        }
        // Everything expires eventually.
        now += SimTime::from_secs(3_600);
        let expired = binder.expire(now);
        prop_assert_eq!(expired.len(), live.len());
        prop_assert!(binder.is_empty());
    }

    /// The flow table against [`ModelFlows`]: the same initiator verdicts,
    /// the same keys expired in the same order, the same live flows and
    /// per-address counts after every step, with and without a capacity
    /// bound (so the same least recently seen flow goes),
    /// and a table restored from a checkpoint at a random step carries on
    /// identically.
    #[test]
    fn flow_table_matches_a_scanned_vec(
        ops in proptest::collection::vec((0u8..10, any::<u8>(), any::<u8>(), 0u64..9), 1..300),
        max_flows in proptest::option::of(1usize..6),
        restore_at in any::<usize>(),
    ) {
        let fresh = || FlowTable::new(IDLE, max_flows.and_then(NonZeroUsize::new));
        let mut table = fresh();
        let mut model = ModelFlows { max_flows, ..Default::default() };
        // Four addresses and two ports a side: flows share endpoints, run
        // both ways, and some go from an address to itself.
        let addr = |pick: u8| Ipv4Addr::new(10, 0, 0, 1 + (pick & 3));
        let mut now = SimTime::ZERO;
        let restore_at = restore_at % ops.len();
        for (step, &(kind, a, b, advance)) in ops.iter().enumerate() {
            now += STEP * advance;
            match kind {
                0..=5 => {
                    let key = FlowKey::tcp(
                        addr(a),
                        1_000 + u16::from(a >> 4 & 1),
                        addr(a >> 2),
                        445 + u16::from(a >> 5 & 1),
                    );
                    let direction = if b & 1 == 0 {
                        FlowDirection::InboundInitiated
                    } else {
                        FlowDirection::OutboundInitiated
                    };
                    model.observe(now, key, direction);
                    let initiator = table.observe(now, key, direction);
                    let flow = model.flows.iter().find(|f| f.key == key.canonical()).unwrap();
                    prop_assert_eq!(initiator, flow.direction);
                    prop_assert_eq!(table.get(key.reversed()), Some(flow.direction));
                }
                6..=8 => {
                    let mut expired = Vec::new();
                    let count = table.expire(now, |key| expired.push(key));
                    prop_assert_eq!(count, expired.len());
                    prop_assert_eq!(expired, model.expire(now), "expiry order at step {}", step);
                }
                _ => prop_assert_eq!(table.retire_addr(addr(a)), model.retire_addr(addr(a))),
            }
            if step == restore_at {
                let bytes = table.encode_state();
                table = fresh();
                table.restore_state(&bytes).unwrap();
                prop_assert_eq!(table.encode_state(), bytes);
            }
            prop_assert_eq!(table.len(), model.flows.len());
            for flow in &model.flows {
                prop_assert_eq!(table.get(flow.key), Some(flow.direction));
            }
            for pick in 0..4 {
                prop_assert_eq!(table.flows_for(addr(pick)), model.flows_for(addr(pick)));
            }
        }
    }

    /// The binder against [`ModelBinder`], at both granularities, with no
    /// lifetime cap, with one short enough to cut active bindings off, and
    /// with a zero cap (every deadline is already past, so the first unswept
    /// tick decides): the same VMs found, the same bindings expired in the
    /// same order, the same quota counts and reclaim candidates
    /// after every step, across a checkpoint at a random step.
    #[test]
    fn binder_matches_a_scanned_vec(
        ops in proptest::collection::vec((0u8..12, any::<u8>(), 0u64..9), 1..300),
        per_source in any::<bool>(),
        cap in 0usize..3,
        restore_at in any::<usize>(),
    ) {
        let granularity = if per_source {
            BindGranularity::PerSourceDestination
        } else {
            BindGranularity::PerDestination
        };
        let max_lifetime = [SimTime::MAX, SimTime::from_millis(2_450), SimTime::ZERO][cap];
        let fresh = || AddressBinder::new(granularity, IDLE, max_lifetime, Some(3));
        let mut binder = fresh();
        let mut model = ModelBinder {
            per_source,
            max_lifetime,
            bindings: Vec::new(),
            clock: SweepClock::default(),
            next_epoch: 0,
        };
        let source = |pick: u8| Ipv4Addr::new(6, 6, 6, 1 + pick % 3);
        let mut now = SimTime::ZERO;
        let restore_at = restore_at % ops.len();
        for (step, &(kind, a, advance)) in ops.iter().enumerate() {
            now += STEP * advance;
            let (src, dst) = (source(a), telescope_addr(u16::from(a >> 2 & 3)));
            match kind {
                0..=2 => {
                    let vm = VmRef(step as u64);
                    prop_assert_eq!(binder.bind(now, src, dst, vm), model.bind(now, src, dst, vm));
                }
                3..=6 => prop_assert_eq!(
                    binder.lookup_active(now, src, dst),
                    model.lookup_active(now, src, dst)
                ),
                7..=8 => {
                    prop_assert_eq!(binder.expire(now), model.expire(now), "at step {}", step);
                }
                9 => {
                    let key = model.key_for(src, dst);
                    prop_assert_eq!(binder.key_for(src, dst), key);
                    prop_assert_eq!(binder.evict_key(key, now), model.evict_key(key, now));
                }
                10 => {
                    let key = model.key_for(src, dst);
                    prop_assert_eq!(binder.unbind(key), model.take(key).map(|b| b.vm));
                }
                _ => {
                    let vm = match model.bindings.len() {
                        0 => VmRef(u64::MAX),
                        live => model.bindings[usize::from(a) % live].vm,
                    };
                    prop_assert_eq!(binder.unbind_vm(vm), model.unbind_vm(vm));
                }
            }
            if step == restore_at {
                let bytes = binder.encode_state();
                binder = fresh();
                binder.restore_state(&bytes).unwrap();
                prop_assert_eq!(binder.encode_state(), bytes);
            }
            prop_assert_eq!(binder.len(), model.bindings.len());
            for pick in 0..3 {
                let live = model.source_bindings(source(pick));
                prop_assert_eq!(binder.source_bindings(source(pick)), live);
                prop_assert_eq!(binder.source_within_quota(source(pick)), live < 3);
            }
            model.bindings.sort_unstable_by_key(|b| b.epoch);
            let candidates = binder.reclaim_candidates();
            prop_assert_eq!(candidates.len(), model.bindings.len());
            for (c, b) in candidates.iter().zip(&model.bindings) {
                prop_assert_eq!(
                    (c.key, c.vm, c.bound_at, c.last_active, c.packets, c.epoch),
                    (b.key, b.vm, b.bound_at, b.last_active, b.packets, b.epoch)
                );
            }
        }
    }

    /// Flow canonicalization: total, idempotent, direction-independent, and
    /// injective across distinct connections.
    #[test]
    fn flow_canonicalization_properties(
        a in any::<u32>(), b in any::<u32>(),
        pa in any::<u16>(), pb in any::<u16>(),
    ) {
        let k = FlowKey::tcp(Ipv4Addr::from(a), pa, Ipv4Addr::from(b), pb);
        let c = k.canonical();
        prop_assert_eq!(c.canonical(), c, "idempotent");
        prop_assert_eq!(k.reversed().canonical(), c, "direction independent");
        prop_assert_eq!(k.reversed().reversed(), k, "reverse is involutive");
    }

    /// The inbound pipeline is total: any syntactically valid packet gets
    /// exactly one action without panicking, in every mode.
    #[test]
    fn inbound_pipeline_total(
        src in any::<u32>(),
        dst_raw in any::<u16>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        mode_pick in 0u8..3,
    ) {
        let policy = match mode_pick {
            0 => PolicyConfig::reflect(),
            1 => PolicyConfig::drop_all(),
            _ => PolicyConfig::allow_all(),
        };
        let mut config = GatewayConfig::default();
        config.policy = policy;
        let mut g = Gateway::new(config);
        let p = PacketBuilder::new(Ipv4Addr::from(src), telescope_addr(dst_raw))
            .tcp_syn(sport, dport);
        let action = g.on_inbound(SimTime::ZERO, p);
        // First contact is always a clone request (no filters configured).
        let is_clone_request = matches!(action, GatewayAction::CloneAndDeliver { .. });
        prop_assert!(is_clone_request);
        prop_assert_eq!(g.counters_snapshot().get("packets_in"), 1);
    }
}

/// A checkpoint that lists one key twice is refused, not merged: the second
/// record would shadow the first in the index and leave it on the lists.
#[test]
fn a_repeated_key_in_a_checkpoint_is_a_decode_error() {
    /// `bytes` — one record, then `tail` bytes of scalars, the first two of
    /// which are the unswept tick and the next sequence number — with the
    /// record written twice, the copy one sequence number later. `distinct`
    /// flips a bit of the copy's key (its first byte): the control.
    fn doubled(bytes: &[u8], tail: usize, distinct: bool) -> Vec<u8> {
        let record = &bytes[8..bytes.len() - tail];
        let mut copy = record.to_vec();
        copy[0] ^= u8::from(distinct);
        let seq_at = copy.len() - 8;
        copy[seq_at..].copy_from_slice(&1u64.to_le_bytes());
        let mut scalars = bytes[bytes.len() - tail..].to_vec();
        scalars[8..16].copy_from_slice(&2u64.to_le_bytes());
        [&2u64.to_le_bytes()[..], record, &copy, &scalars].concat()
    }
    let decode = |what| Err(SnapshotError::Decode { context: what });

    let mut flows = FlowTable::new(IDLE, None);
    let key = FlowKey::tcp(Ipv4Addr::new(6, 6, 6, 6), 9_999, telescope_addr(1), 445);
    flows.observe(SimTime::ZERO, key, FlowDirection::InboundInitiated);
    let bytes = flows.encode_state();
    assert_eq!(flows.restore_state(&doubled(&bytes, 16, true)), Ok(()));
    assert_eq!(flows.len(), 2);
    assert_eq!(flows.restore_state(&doubled(&bytes, 16, false)), decode("gateway.flows"));
    assert_eq!(flows.len(), 2, "a refused payload leaves the table alone");

    let mut binder = AddressBinder::new(BindGranularity::PerDestination, IDLE, SimTime::MAX, None);
    binder.bind(SimTime::ZERO, Ipv4Addr::new(6, 6, 6, 6), telescope_addr(1), VmRef(1));
    let bytes = binder.encode_state();
    assert_eq!(binder.restore_state(&doubled(&bytes, 24, true)), Ok(()));
    assert_eq!(binder.len(), 2);
    assert_eq!(binder.restore_state(&doubled(&bytes, 24, false)), decode("gateway.binder"));
    assert_eq!(binder.len(), 2);
}
