//! Late binding of telescope addresses to honeypot VMs.
//!
//! The honeyfarm does not dedicate a VM per monitored address — it binds an
//! address to a VM only when traffic arrives, and unbinds (recycling the VM)
//! after inactivity. [`AddressBinder`] owns that mapping and decides when a
//! binding has idled out or outlived its cap; the per-source quota the paper
//! proposes for resource containment is implemented here too.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use potemkin_sim::arena::{Links, SlotList};
use potemkin_sim::{RecencySlab, SimTime};
use potemkin_snapshot::{snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

use crate::reclaim::ReclaimCandidate;

/// Opaque reference to a honeypot VM, minted by the controller.
///
/// The gateway never dereferences it — it only routes packets to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmRef(pub u64);

snap_struct!(VmRef { 0 });

/// Binding granularity: what key maps to a VM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BindGranularity {
    /// One VM per destination address (the default; all attackers of one
    /// address share its VM).
    PerDestination,
    /// One VM per (source, destination) pair (isolates attackers from each
    /// other at higher VM cost — the paper's suggested refinement for
    /// attributing infections).
    PerSourceDestination,
}

/// A binding key under the configured granularity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BindKey {
    /// The telescope address being impersonated.
    pub dst: Ipv4Addr,
    /// The remote source, when granularity is per-(source, destination).
    pub src: Option<Ipv4Addr>,
}

snap_struct!(BindKey { dst, src });

/// One hasher write, as for `FlowKey`: the destination, a set bit, the source.
impl std::hash::Hash for BindKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let src = self.src.map_or(0, |src| 1 << 32 | u64::from(src.to_bits()));
        state.write_u128(u128::from(self.dst.to_bits()) << 64 | u128::from(src));
    }
}

#[derive(Clone, Debug)]
struct Binding {
    vm: VmRef,
    src: Ipv4Addr,
    bound_at: SimTime,
    last_active: SimTime,
    packets: u64,
    /// Monotone bind counter: the binding's place in bind order.
    epoch: u64,
    /// The tick from which a sweep expires the binding however active it
    /// is: the hard lifetime cap, as [`RecencySlab::due_tick`] read it at
    /// bind time.
    hard_due: u64,
}

snap_struct!(Binding { vm, src, bound_at, last_active, packets, epoch, hard_due });

/// An expired binding, reported so the controller can destroy the VM.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExpiredBinding {
    /// The key that expired.
    pub key: BindKey,
    /// The VM that should be recycled.
    pub vm: VmRef,
    /// How long the binding lived.
    pub lifetime: SimTime,
    /// Packets it served.
    pub packets: u64,
}

/// The address-to-VM binding table with idle/lifetime recycling.
///
/// Bindings sit on two lists threaded through one [`RecencySlab`]'s slots:
/// its own least-recently-active-first order, whose oldest end is where
/// bindings idle out, and a first-bound-first FIFO, whose oldest end is
/// where they reach the hard lifetime cap (one constant, so bind order is
/// cap order).
pub struct AddressBinder {
    granularity: BindGranularity,
    idle_timeout: SimTime,
    max_lifetime: SimTime,
    bindings: RecencySlab<BindKey, Binding>,
    /// First bound first.
    bind_order: SlotList,
    bind_links: Vec<Links>,
    per_source: HashMap<Ipv4Addr, u32>,
    per_source_limit: Option<u32>,
    next_epoch: u64,
}

impl AddressBinder {
    /// Creates a binder.
    #[must_use]
    pub fn new(
        granularity: BindGranularity,
        idle_timeout: SimTime,
        max_lifetime: SimTime,
        per_source_limit: Option<u32>,
    ) -> Self {
        AddressBinder {
            granularity,
            idle_timeout,
            max_lifetime,
            bindings: RecencySlab::default(),
            bind_order: SlotList::EMPTY,
            bind_links: Vec::new(),
            per_source: HashMap::new(),
            per_source_limit,
            next_epoch: 0,
        }
    }

    /// The key a packet from `src` to `dst` binds under.
    #[must_use]
    pub fn key_for(&self, src: Ipv4Addr, dst: Ipv4Addr) -> BindKey {
        match self.granularity {
            BindGranularity::PerDestination => BindKey { dst, src: None },
            BindGranularity::PerSourceDestination => BindKey { dst, src: Some(src) },
        }
    }

    /// Looks up the VM bound for traffic from `src` to `dst`, refreshing the
    /// idle timer on hit. The hard lifetime cap stays where bind put it.
    pub fn lookup_active(&mut self, now: SimTime, src: Ipv4Addr, dst: Ipv4Addr) -> Option<VmRef> {
        let key = self.key_for(src, dst);
        let slot = self.bindings.refresh(&key, now + self.idle_timeout)?;
        let binding = &mut self.bindings[slot];
        binding.last_active = now;
        binding.packets += 1;
        Some(binding.vm)
    }

    /// Whether `src` may be granted another VM under the per-source quota.
    #[must_use]
    pub fn source_within_quota(&self, src: Ipv4Addr) -> bool {
        match self.per_source_limit {
            None => true,
            Some(limit) => self.per_source.get(&src).copied().unwrap_or(0) < limit,
        }
    }

    /// Binds `vm` for traffic from `src` to `dst`.
    ///
    /// Returns the previous VM if the key was already bound (the controller
    /// should not normally let this happen).
    pub fn bind(&mut self, now: SimTime, src: Ipv4Addr, dst: Ipv4Addr, vm: VmRef) -> Option<VmRef> {
        let key = self.key_for(src, dst);
        // A replaced binding releases its quota slot and both list places.
        let old = self.unbind(key);
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let hard_due = self.bindings.due_tick(now.saturating_add(self.max_lifetime));
        let binding =
            Binding { vm, src, bound_at: now, last_active: now, packets: 0, epoch, hard_due };
        let slot = self.bindings.insert(key, now + self.idle_timeout, binding);
        self.bind_order.push_last(&mut self.bind_links, slot);
        *self.per_source.entry(src).or_insert(0) += 1;
        old
    }

    /// Removes the binding at `slot` from the table, the bind-order FIFO
    /// and its source's quota count.
    fn release(&mut self, slot: usize) -> (BindKey, Binding) {
        let (key, binding) = self.bindings.remove(slot);
        self.bind_order.unlink(&mut self.bind_links, slot);
        if let Some(count) = self.per_source.get_mut(&binding.src) {
            *count -= 1;
            if *count == 0 {
                self.per_source.remove(&binding.src);
            }
        }
        (key, binding)
    }

    /// Ends the binding at `slot` as an expiry at `now`.
    fn expire_slot(&mut self, slot: usize, now: SimTime) -> ExpiredBinding {
        let (key, binding) = self.release(slot);
        ExpiredBinding {
            key,
            vm: binding.vm,
            lifetime: now.saturating_sub(binding.bound_at),
            packets: binding.packets,
        }
    }

    /// Explicitly unbinds a key (e.g. the controller killed the VM for
    /// other reasons). Returns the VM if it was bound.
    pub fn unbind(&mut self, key: BindKey) -> Option<VmRef> {
        let slot = self.bindings.slot(&key)?;
        Some(self.release(slot).1.vm)
    }

    /// Unbinds every key bound to `vm` (the VM's host crashed; all of its
    /// bindings die with it). Returns the removed keys, first bound first.
    pub fn unbind_vm(&mut self, vm: VmRef) -> Vec<BindKey> {
        let bound = self.bind_order.iter(&self.bind_links);
        let slots: Vec<usize> = bound.filter(|&slot| self.bindings[slot].vm == vm).collect();
        slots.into_iter().map(|slot| self.release(slot).0).collect()
    }

    /// Every live binding as a reclaim candidate, in ascending bind epoch.
    /// Epochs are unique and monotone, so the order is deterministic — the
    /// contract every [`crate::reclaim::ReclaimPolicy`] pick relies on.
    #[must_use]
    pub fn reclaim_candidates(&self) -> Vec<ReclaimCandidate> {
        self.bind_order
            .iter(&self.bind_links)
            .map(|slot| {
                let b = &self.bindings[slot];
                ReclaimCandidate {
                    key: self.bindings.key(slot),
                    vm: b.vm,
                    bound_at: b.bound_at,
                    last_active: b.last_active,
                    packets: b.packets,
                    epoch: b.epoch,
                }
            })
            .collect()
    }

    /// Forcibly expires the binding for `key` (resource pressure: a reclaim
    /// policy chose it as the victim). Returns the evicted binding, or
    /// `None` when the key is not bound.
    pub fn evict_key(&mut self, key: BindKey, now: SimTime) -> Option<ExpiredBinding> {
        let slot = self.bindings.slot(&key)?;
        Some(self.expire_slot(slot, now))
    }

    /// Advances time, expiring idle / over-lifetime bindings. The controller
    /// destroys the returned VMs.
    pub fn expire(&mut self, now: SimTime) -> Vec<ExpiredBinding> {
        let Some(target) = self.bindings.sweep(now) else { return Vec::new() };
        let mut due = Vec::new();
        loop {
            // Idle (lookup_active() moves an active binding to the newest
            // end, so a due oldest end means idle), else hard lifetime
            // reached.
            let first = self.bind_order.iter(&self.bind_links).next();
            let capped = first.filter(|&first| self.bindings[first].hard_due <= target);
            let Some(slot) = self.bindings.oldest_due(target).or(capped) else { break };
            // A binding leaves at the earlier of its two ticks; within a
            // tick, in the order of last activity.
            let (idle_due, seq) = self.bindings.stamp(slot);
            let order = (idle_due.min(self.bindings[slot].hard_due), seq);
            due.push((order, self.expire_slot(slot, now)));
        }
        due.sort_unstable_by_key(|&(order, _)| order);
        due.into_iter().map(|(_, expired)| expired).collect()
    }

    /// Number of live bindings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bindings.len()
    }

    /// Whether no bindings are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bindings.is_empty()
    }

    /// Live bindings for a given source (quota accounting).
    #[must_use]
    pub fn source_bindings(&self, src: Ipv4Addr) -> u32 {
        self.per_source.get(&src).copied().unwrap_or(0)
    }

    /// Checkpoint support: serializes every mutable field — the bindings,
    /// least recently active first, and the next bind epoch.
    /// Configuration (granularity, timeouts, quota limit) is not included —
    /// restore goes into a binder freshly built from the same
    /// [`crate::GatewayConfig`].
    #[must_use]
    pub fn encode_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.bindings.snap(&mut w);
        w.u64(self.next_epoch);
        w.into_bytes()
    }

    /// Restores mutable state encoded by [`AddressBinder::encode_state`]
    /// into this binder (its configuration fields are kept). The per-source
    /// quota index and the bind-order FIFO are rebuilt from the restored
    /// bindings.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Decode`] on truncated or malformed input;
    /// the binder is left untouched in that case.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapReader::new(bytes, "gateway.binder");
        let bindings = RecencySlab::<BindKey, Binding>::unsnap(&mut r)?;
        let next_epoch = r.u64()?;
        r.finish()?;
        let mut slots: Vec<usize> = bindings.slots().collect();
        slots.sort_unstable_by_key(|&slot| bindings[slot].epoch);
        self.bindings = bindings;
        (self.bind_order, self.per_source) = (SlotList::EMPTY, HashMap::new());
        for slot in slots {
            self.bind_order.push_last(&mut self.bind_links, slot);
            *self.per_source.entry(self.bindings[slot].src).or_insert(0) += 1;
        }
        self.next_epoch = next_epoch;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(6, 6, 6, 6);
    const SRC2: Ipv4Addr = Ipv4Addr::new(7, 7, 7, 7);
    const DST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const DST2: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn binder(idle_secs: u64) -> AddressBinder {
        AddressBinder::new(
            BindGranularity::PerDestination,
            SimTime::from_secs(idle_secs),
            SimTime::MAX,
            None,
        )
    }

    #[test]
    fn a_key_hashes_its_source_and_whether_it_has_one() {
        use std::hash::BuildHasher;
        let hasher = std::collections::hash_map::RandomState::new();
        let keys = [
            BindKey { dst: DST, src: None },
            BindKey { dst: DST, src: Some(Ipv4Addr::UNSPECIFIED) },
            BindKey { dst: DST, src: Some(SRC) },
            BindKey { dst: SRC, src: Some(DST) },
        ];
        let hashes: Vec<u64> = keys.iter().map(|k| hasher.hash_one(k)).collect();
        for (i, h) in hashes.iter().enumerate() {
            assert!(!hashes[i + 1..].contains(h), "{:?}", keys[i]);
        }
        assert_eq!(hasher.hash_one(keys[2]), hasher.hash_one(BindKey { dst: DST, src: Some(SRC) }));
    }

    #[test]
    fn bind_then_lookup() {
        let mut b = binder(60);
        assert_eq!(b.lookup_active(SimTime::ZERO, SRC, DST), None);
        b.bind(SimTime::ZERO, SRC, DST, VmRef(1));
        assert_eq!(b.lookup_active(SimTime::from_secs(1), SRC, DST), Some(VmRef(1)));
        assert_eq!(b.lookup_active(SimTime::from_secs(1), SRC, DST2), None);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn per_destination_shares_across_sources() {
        let mut b = binder(60);
        b.bind(SimTime::ZERO, SRC, DST, VmRef(1));
        assert_eq!(b.lookup_active(SimTime::ZERO, SRC2, DST), Some(VmRef(1)));
    }

    #[test]
    fn per_source_destination_isolates() {
        let mut b = AddressBinder::new(
            BindGranularity::PerSourceDestination,
            SimTime::from_secs(60),
            SimTime::MAX,
            None,
        );
        b.bind(SimTime::ZERO, SRC, DST, VmRef(1));
        assert_eq!(b.lookup_active(SimTime::ZERO, SRC, DST), Some(VmRef(1)));
        assert_eq!(b.lookup_active(SimTime::ZERO, SRC2, DST), None, "different source, no binding");
    }

    #[test]
    fn idle_expiry_reports_vm() {
        let mut b = binder(10);
        b.bind(SimTime::ZERO, SRC, DST, VmRef(42));
        assert!(b.expire(SimTime::from_secs(9)).is_empty());
        let expired = b.expire(SimTime::from_secs(11));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].vm, VmRef(42));
        assert!(b.is_empty());
        assert_eq!(b.lookup_active(SimTime::from_secs(12), SRC, DST), None);
    }

    #[test]
    fn activity_refreshes_idle_timer() {
        let mut b = binder(10);
        b.bind(SimTime::ZERO, SRC, DST, VmRef(1));
        for s in (5..50).step_by(5) {
            assert!(b.lookup_active(SimTime::from_secs(s), SRC, DST).is_some());
            assert!(b.expire(SimTime::from_secs(s)).is_empty());
        }
        let expired = b.expire(SimTime::from_secs(45 + 11));
        assert_eq!(expired.len(), 1);
        assert!(expired[0].lifetime >= SimTime::from_secs(55));
        assert_eq!(expired[0].packets, 9);
    }

    #[test]
    fn hard_lifetime_caps_active_binding() {
        let mut b = AddressBinder::new(
            BindGranularity::PerDestination,
            SimTime::from_secs(10),
            SimTime::from_secs(30),
            None,
        );
        b.bind(SimTime::ZERO, SRC, DST, VmRef(1));
        // Stay active every 5 s — idle never fires, but the cap does.
        let mut expired_at = None;
        for s in (5..60).step_by(5) {
            let now = SimTime::from_secs(s);
            let e = b.expire(now);
            if !e.is_empty() {
                expired_at = Some(s);
                break;
            }
            b.lookup_active(now, SRC, DST);
        }
        let at = expired_at.expect("binding must expire at the hard cap");
        assert!((30..=40).contains(&at), "expired at {at}s");
    }

    #[test]
    fn rebind_after_expiry_uses_new_epoch() {
        let mut b = binder(10);
        b.bind(SimTime::ZERO, SRC, DST, VmRef(1));
        assert_eq!(b.expire(SimTime::from_secs(11)).len(), 1);
        b.bind(SimTime::from_secs(12), SRC, DST, VmRef(2));
        // The old binding's deadline must not kill the new binding.
        assert!(b.expire(SimTime::from_secs(13)).is_empty());
        assert_eq!(b.lookup_active(SimTime::from_secs(13), SRC, DST), Some(VmRef(2)));
    }

    #[test]
    fn per_source_quota() {
        let mut b = AddressBinder::new(
            BindGranularity::PerDestination,
            SimTime::from_secs(60),
            SimTime::MAX,
            Some(2),
        );
        assert!(b.source_within_quota(SRC));
        b.bind(SimTime::ZERO, SRC, DST, VmRef(1));
        b.bind(SimTime::ZERO, SRC, DST2, VmRef(2));
        assert!(!b.source_within_quota(SRC));
        assert!(b.source_within_quota(SRC2), "other sources unaffected");
        assert_eq!(b.source_bindings(SRC), 2);
        // Expiry releases quota.
        let expired = b.expire(SimTime::from_secs(61));
        assert_eq!(expired.len(), 2);
        assert!(b.source_within_quota(SRC));
        assert_eq!(b.source_bindings(SRC), 0);
    }

    #[test]
    fn unbind_releases_state() {
        let mut b = binder(60);
        b.bind(SimTime::ZERO, SRC, DST, VmRef(5));
        let key = b.key_for(SRC, DST);
        assert_eq!(b.unbind(key), Some(VmRef(5)));
        assert_eq!(b.unbind(key), None);
        assert!(b.is_empty());
        assert_eq!(b.source_bindings(SRC), 0);
        // The unbound key must not expire later.
        assert!(b.expire(SimTime::from_secs(120)).is_empty());
    }

    #[test]
    fn reclaim_candidates_sorted_by_epoch() {
        let mut b = binder(600);
        assert!(b.reclaim_candidates().is_empty(), "empty binder");
        b.bind(SimTime::from_secs(1), SRC2, DST2, VmRef(2));
        b.bind(SimTime::from_secs(5), SRC, DST, VmRef(1));
        // Activity reorders idle expiry, never the candidates.
        b.lookup_active(SimTime::from_secs(6), SRC2, DST2);
        let cs = b.reclaim_candidates();
        assert_eq!(cs.len(), 2);
        assert!(cs[0].epoch < cs[1].epoch, "ascending epoch");
        assert_eq!(cs[0].vm, VmRef(2), "first bound first");
        assert_eq!(cs[0].last_active, SimTime::from_secs(6));
        assert_eq!(cs[1].bound_at, SimTime::from_secs(5));
    }

    #[test]
    fn evict_key_releases_state_like_expiry() {
        let mut b = binder(600);
        b.bind(SimTime::from_secs(1), SRC, DST, VmRef(1));
        b.bind(SimTime::from_secs(5), SRC2, DST2, VmRef(2));
        let key = b.key_for(SRC, DST);
        let e = b.evict_key(key, SimTime::from_secs(10)).unwrap();
        assert_eq!(e.vm, VmRef(1));
        assert_eq!(e.lifetime, SimTime::from_secs(9));
        assert_eq!(b.len(), 1);
        assert_eq!(b.source_bindings(SRC), 0, "quota released");
        assert!(b.evict_key(key, SimTime::from_secs(11)).is_none(), "already gone");
        // The evicted key never expires a second time.
        assert!(b.expire(SimTime::from_hours(1)).len() == 1, "only the survivor expires");
        assert!(b.is_empty());
    }

    #[test]
    fn unbind_vm_removes_all_its_keys() {
        let mut b = binder(60);
        b.bind(SimTime::ZERO, SRC, DST, VmRef(1));
        b.bind(SimTime::ZERO, SRC2, DST2, VmRef(2));
        let removed = b.unbind_vm(VmRef(1));
        assert_eq!(removed, vec![b.key_for(SRC, DST)]);
        assert_eq!(b.len(), 1);
        assert_eq!(b.source_bindings(SRC), 0, "quota released");
        assert_eq!(b.lookup_active(SimTime::from_secs(1), SRC2, DST2), Some(VmRef(2)));
        assert!(b.unbind_vm(VmRef(99)).is_empty());
    }
}
