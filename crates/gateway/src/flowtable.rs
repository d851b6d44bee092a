//! The gateway's flow table.
//!
//! Tracks every transport flow crossing the gateway by who initiated it: the
//! containment policy allows replies within attacker-initiated flows but not
//! honeypot-initiated ones, and that is all it reads. Flows live in a
//! [`RecencySlab`]: every flow shares one idle timeout, so the least recently
//! seen flow is both the next to idle out and the capacity victim, and a
//! packet costs one hash probe, new flow or known. Sustained scan loads (tens
//! of thousands of one-packet flows) stay O(1) per packet.

use std::collections::hash_map::{Entry, HashMap};
use std::net::Ipv4Addr;
use std::num::NonZeroUsize;

use potemkin_net::FlowKey;
use potemkin_sim::arena::{Links, SlotList};
use potemkin_sim::{RecencySlab, SimTime};
use potemkin_snapshot::{snap_enum, Snap, SnapshotError};

/// Who sent the first packet of the flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowDirection {
    /// First packet arrived from outside (attacker → honeypot).
    InboundInitiated,
    /// First packet was emitted by a honeypot (worm → victim).
    OutboundInitiated,
}

snap_enum!(FlowDirection { InboundInitiated = 0, OutboundInitiated = 1 });

// A flow's slab entry is its key, its initiator and its expiry stamp.
const _: () = assert!(RecencySlab::<FlowKey, FlowDirection>::SLOT_BYTES <= 40);

/// The `(link, address)` pairs the flow `key` at `slot` is chained under: a
/// flow is on the chain of its source as link `2 * slot` and on the chain of
/// its destination as link `2 * slot + 1`; a flow from an address to itself
/// is chained once, as source.
fn ends(slot: usize, key: FlowKey) -> impl Iterator<Item = (usize, Ipv4Addr)> {
    let both = [(2 * slot, key.src), (2 * slot + 1, key.dst)];
    both.into_iter().take(1 + usize::from(key.src != key.dst))
}

/// The flow table: canonical flow key → initiator, with idle eviction.
///
/// # Examples
///
/// ```
/// use potemkin_gateway::flowtable::{FlowDirection, FlowTable};
/// use potemkin_net::FlowKey;
/// use potemkin_sim::SimTime;
/// use std::net::Ipv4Addr;
///
/// let mut ft = FlowTable::new(SimTime::from_secs(30), None);
/// let key = FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), 9999, Ipv4Addr::new(10, 0, 0, 1), 445);
/// ft.observe(SimTime::ZERO, key, FlowDirection::InboundInitiated);
/// assert_eq!(ft.len(), 1);
/// let evicted = ft.expire(SimTime::from_secs(31), |_| {});
/// assert_eq!(evicted, 1);
/// assert!(ft.is_empty());
/// ```
pub struct FlowTable {
    /// Least recently seen flow first.
    flows: RecencySlab<FlowKey, FlowDirection>,
    idle_timeout: SimTime,
    /// Optional hard capacity; exceeding it evicts the least recently seen
    /// flow (the software gateway's memory is finite under scan floods).
    max_flows: Option<NonZeroUsize>,
    /// Endpoint index: address → chain of the live flows touching it, so
    /// [`FlowTable::retire_addr`] and [`FlowTable::flows_for`] are O(flows
    /// at the address) instead of O(table).
    by_addr: HashMap<Ipv4Addr, SlotList>,
    chain_links: Vec<Links>,
}

impl FlowTable {
    /// Creates a flow table with the given idle timeout and optional
    /// capacity (past it, the least recently seen flow goes), never zero:
    ///
    /// ```compile_fail,E0308
    /// potemkin_gateway::FlowTable::new(potemkin_sim::SimTime::ZERO, Some(0));
    /// ```
    #[must_use]
    pub fn new(idle_timeout: SimTime, max_flows: Option<NonZeroUsize>) -> Self {
        FlowTable {
            flows: RecencySlab::default(),
            idle_timeout,
            max_flows,
            by_addr: HashMap::new(),
            chain_links: Vec::new(),
        }
    }

    /// Puts the flow at `slot` on both endpoints' chains.
    fn chain(&mut self, slot: usize) {
        for (link, addr) in ends(slot, self.flows.key(slot)) {
            let chain = self.by_addr.entry(addr).or_insert(SlotList::EMPTY);
            chain.push_last(&mut self.chain_links, link);
        }
    }

    /// Takes `link` off the chain of `addr`, dropping a chain that empties.
    fn unchain(&mut self, addr: Ipv4Addr, link: usize) {
        let Entry::Occupied(mut chain) = self.by_addr.entry(addr) else {
            unreachable!("a chained flow's address has a chain");
        };
        chain.get_mut().unlink(&mut self.chain_links, link);
        if chain.get().len == 0 {
            chain.remove();
        }
    }

    /// Removes the flow at `slot` from the table and both chains.
    fn evict(&mut self, slot: usize) -> FlowKey {
        let (key, _) = self.flows.remove(slot);
        for (link, addr) in ends(slot, key) {
            self.unchain(addr, link);
        }
        key
    }

    /// Records a packet on a flow, creating the entry on first sight.
    ///
    /// `dir` is only consulted when the flow is new — it records who
    /// initiated. Returns who initiated the flow: `dir` itself for a new
    /// flow, the recorded initiator for a known one.
    pub fn observe(&mut self, now: SimTime, key: FlowKey, dir: FlowDirection) -> FlowDirection {
        let deadline = now + self.idle_timeout;
        let (slot, new) = self.flows.refresh_or_insert(key.canonical(), deadline, || dir);
        if new {
            self.chain(slot);
        }
        // The new flow is the newest, so the victims are the oldest others.
        while self.max_flows.is_some_and(|max| self.flows.len() > max.get()) {
            let Some(oldest) = self.flows.slots().next() else { break };
            self.evict(oldest);
        }
        self.flows[slot]
    }

    /// Who initiated the flow containing `key` (either direction).
    #[must_use]
    pub fn get(&self, key: FlowKey) -> Option<FlowDirection> {
        self.flows.slot(&key.canonical()).map(|slot| self.flows[slot])
    }

    /// Evicts flows idle past the timeout, up to virtual time `now`, handing
    /// each evicted key to `each` in expiry order. Returns how many went.
    pub fn expire(&mut self, now: SimTime, mut each: impl FnMut(FlowKey)) -> usize {
        let Some(target) = self.flows.sweep(now) else { return 0 };
        let mut expired = 0;
        // observe() moves a flow to the newest end on every packet, so
        // whatever is due at the oldest end has been idle for the timeout.
        while let Some(slot) = self.flows.oldest_due(target) {
            each(self.evict(slot));
            expired += 1;
        }
        expired
    }

    /// Retires every flow touching `addr` as either endpoint. Returns how
    /// many were removed.
    ///
    /// Called when an address's VM binding ends (expiry, pressure eviction,
    /// host crash): a stale attacker-initiated flow must not survive the
    /// binding, or its "reply" allowance would let a *recycled* VM's packets
    /// out through a dialogue the new occupant never had.
    pub fn retire_addr(&mut self, addr: Ipv4Addr) -> usize {
        let mut retired = 0;
        while let Some(chain) = self.by_addr.get(&addr) {
            let Some(link) = chain.iter(&self.chain_links).next() else { break };
            self.evict(link / 2);
            retired += 1;
        }
        retired
    }

    /// Live flows touching `addr` as either endpoint (indexed lookup).
    #[must_use]
    pub fn flows_for(&self, addr: Ipv4Addr) -> usize {
        self.by_addr.get(&addr).map_or(0, |chain| chain.len as usize)
    }

    /// Number of live flows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Checkpoint support: serializes every mutable field. Configuration
    /// (idle timeout, capacity bound) is not included — restore goes into a
    /// table freshly built from the same policy config. The per-address
    /// chains are derivable from the flows, so only the flows — least
    /// recently seen first — go on the wire.
    #[must_use]
    pub fn encode_state(&self) -> Vec<u8> {
        self.flows.to_bytes()
    }

    /// Restores mutable state encoded by [`FlowTable::encode_state`] into
    /// this table (its configuration fields are kept). The per-address
    /// chains are rebuilt from the restored flows.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Decode`] on truncated or malformed input;
    /// the table is left untouched in that case.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.flows = RecencySlab::from_bytes(bytes, "gateway.flows")?;
        self.by_addr = HashMap::new();
        for slot in self.flows.slots().collect::<Vec<_>>() {
            self.chain(slot);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    const ATK: Ipv4Addr = Ipv4Addr::new(6, 6, 6, 6);
    const HP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);

    fn key() -> FlowKey {
        FlowKey::tcp(ATK, 9999, HP, 445)
    }

    /// The keys `expire` evicts at `now`, in order.
    fn expired(ft: &mut FlowTable, now: SimTime) -> Vec<FlowKey> {
        let mut keys = Vec::new();
        assert_eq!(ft.expire(now, |key| keys.push(key)), keys.len());
        keys
    }

    #[test]
    fn create_and_update() {
        let mut ft = FlowTable::new(SimTime::from_secs(10), None);
        ft.observe(SimTime::ZERO, key(), FlowDirection::InboundInitiated);
        ft.observe(SimTime::from_secs(1), key(), FlowDirection::OutboundInitiated);
        assert_eq!(ft.len(), 1, "the second packet created nothing");
        assert_eq!(ft.get(key()), Some(FlowDirection::InboundInitiated));
    }

    #[test]
    fn both_directions_share_state() {
        let mut ft = FlowTable::new(SimTime::from_secs(10), None);
        ft.observe(SimTime::ZERO, key(), FlowDirection::InboundInitiated);
        // The reply direction updates the same flow and keeps the original
        // initiator.
        let initiator =
            ft.observe(SimTime::from_secs(1), key().reversed(), FlowDirection::OutboundInitiated);
        assert_eq!(initiator, FlowDirection::InboundInitiated);
        assert_eq!(ft.len(), 1);
    }

    #[test]
    fn initiator_recorded_for_outbound() {
        let mut ft = FlowTable::new(SimTime::from_secs(10), None);
        let k = FlowKey::tcp(HP, 1025, Ipv4Addr::new(9, 9, 9, 9), 445);
        let initiator = ft.observe(SimTime::ZERO, k, FlowDirection::OutboundInitiated);
        assert_eq!(initiator, FlowDirection::OutboundInitiated);
        assert_eq!(ft.get(k.reversed()), Some(FlowDirection::OutboundInitiated));
    }

    #[test]
    fn idle_eviction() {
        let mut ft = FlowTable::new(SimTime::from_secs(5), None);
        ft.observe(SimTime::ZERO, key(), FlowDirection::InboundInitiated);
        assert!(expired(&mut ft, SimTime::from_secs(4)).is_empty());
        let evicted = expired(&mut ft, SimTime::from_secs(6));
        assert_eq!(evicted, vec![key().canonical()]);
        assert!(ft.get(key()).is_none());
        assert!(ft.is_empty());
    }

    #[test]
    fn activity_refreshes_timeout() {
        let mut ft = FlowTable::new(SimTime::from_secs(5), None);
        ft.observe(SimTime::ZERO, key(), FlowDirection::InboundInitiated);
        // Keep the flow alive with periodic packets.
        for s in 1..10 {
            ft.observe(SimTime::from_secs(s * 3), key(), FlowDirection::InboundInitiated);
            assert_eq!(ft.expire(SimTime::from_secs(s * 3), |_| {}), 0);
        }
        assert_eq!(ft.len(), 1);
        // Now go quiet.
        assert_eq!(ft.expire(SimTime::from_secs(27 + 6), |_| {}), 1);
    }

    #[test]
    fn lru_capacity_evicts_least_recent() {
        let mut ft = FlowTable::new(SimTime::from_secs(3_600), NonZeroUsize::new(3));
        let keys: Vec<FlowKey> = (0..5u16).map(|i| FlowKey::tcp(ATK, 1_000 + i, HP, 445)).collect();
        for (i, &k) in keys.iter().take(3).enumerate() {
            ft.observe(SimTime::from_secs(i as u64), k, FlowDirection::InboundInitiated);
        }
        assert_eq!(ft.len(), 3);
        // Refresh the oldest flow so it becomes the newest.
        ft.observe(SimTime::from_secs(10), keys[0], FlowDirection::InboundInitiated);
        // A fourth flow evicts keys[1] (now the least recent), not keys[0].
        ft.observe(SimTime::from_secs(11), keys[3], FlowDirection::InboundInitiated);
        assert_eq!(ft.len(), 3);
        assert!(ft.get(keys[0]).is_some(), "refreshed flow survives");
        assert!(ft.get(keys[1]).is_none(), "LRU flow evicted");
        assert!(ft.get(keys[2]).is_some());
        assert!(ft.get(keys[3]).is_some());
        // A fifth flow evicts keys[2].
        ft.observe(SimTime::from_secs(12), keys[4], FlowDirection::InboundInitiated);
        assert!(ft.get(keys[2]).is_none());
        assert_eq!(ft.len(), 3);
    }

    #[test]
    fn lru_evicted_flow_timer_does_not_fire_later() {
        let mut ft = FlowTable::new(SimTime::from_secs(5), Some(NonZeroUsize::MIN));
        let k1 = FlowKey::tcp(ATK, 1, HP, 445);
        let k2 = FlowKey::tcp(ATK, 2, HP, 445);
        ft.observe(SimTime::ZERO, k1, FlowDirection::InboundInitiated);
        ft.observe(SimTime::from_secs(1), k2, FlowDirection::InboundInitiated);
        assert_eq!(ft.len(), 1);
        // k1's idle deadline (gone with it at LRU eviction) must not evict
        // k2 or double-count.
        let early = expired(&mut ft, SimTime::from_secs(5) + SimTime::from_millis(500));
        assert!(early.is_empty(), "k2 idles out at t=6, not before");
        assert_eq!(expired(&mut ft, SimTime::from_secs(7)), vec![k2.canonical()]);
        assert!(ft.is_empty());
    }

    #[test]
    fn unbounded_table_never_lru_evicts() {
        let mut ft = FlowTable::new(SimTime::from_secs(3_600), None);
        for i in 0..500u16 {
            let k = FlowKey::tcp(ATK, i, HP, 445);
            ft.observe(SimTime::ZERO, k, FlowDirection::InboundInitiated);
        }
        assert_eq!(ft.len(), 500);
    }

    #[test]
    fn retire_addr_removes_flows_on_both_sides() {
        let mut ft = FlowTable::new(SimTime::from_secs(60), None);
        let other = Ipv4Addr::new(10, 0, 0, 2);
        ft.observe(SimTime::ZERO, FlowKey::tcp(ATK, 1, HP, 445), FlowDirection::InboundInitiated);
        ft.observe(
            SimTime::ZERO,
            FlowKey::tcp(HP, 1025, ATK, 80),
            FlowDirection::OutboundInitiated,
        );
        ft.observe(
            SimTime::ZERO,
            FlowKey::tcp(ATK, 2, other, 445),
            FlowDirection::InboundInitiated,
        );
        assert_eq!(ft.len(), 3);

        assert_eq!(ft.retire_addr(HP), 2, "flows with HP as src or dst retired");
        assert_eq!(ft.len(), 1);
        assert!(ft.get(FlowKey::tcp(ATK, 2, other, 445)).is_some(), "unrelated flow survives");
        assert!(ft.get(FlowKey::tcp(ATK, 1, HP, 445)).is_none());
        // Retired flows never expire a second time.
        assert!(expired(&mut ft, SimTime::from_secs(61))
            .iter()
            .all(|k| k.src != HP && k.dst != HP));
        // Idempotent.
        assert_eq!(ft.retire_addr(HP), 0);
    }

    #[test]
    fn addr_index_tracks_churn() {
        // Exercise create, refresh, idle eviction, LRU eviction, and
        // retirement; the index must agree with a brute-force scan
        // throughout.
        let mut ft = FlowTable::new(SimTime::from_secs(5), NonZeroUsize::new(6));
        let addrs: Vec<Ipv4Addr> = (1..=4u8).map(|i| Ipv4Addr::new(10, 0, 0, i)).collect();
        for step in 0..40u64 {
            let src = addrs[(step % 4) as usize];
            let dst = addrs[((step / 4 + 1) % 4) as usize];
            if src != dst {
                let k = FlowKey::tcp(src, 1000 + (step % 7) as u16, dst, 445);
                ft.observe(SimTime::from_secs(step), k, FlowDirection::InboundInitiated);
            }
            ft.expire(SimTime::from_secs(step), |_| {});
            for &a in &addrs {
                let brute = ft
                    .flows
                    .slots()
                    .map(|s| ft.flows.key(s))
                    .filter(|k| k.src == a || k.dst == a)
                    .count();
                assert_eq!(ft.flows_for(a), brute, "index diverged at step {step} for {a}");
            }
        }
        let before = ft.len();
        let retired = ft.retire_addr(addrs[0]);
        assert_eq!(ft.len(), before - retired);
        assert_eq!(ft.flows_for(addrs[0]), 0);
        for &a in &addrs {
            let brute = ft
                .flows
                .slots()
                .map(|s| ft.flows.key(s))
                .filter(|k| k.src == a || k.dst == a)
                .count();
            assert_eq!(ft.flows_for(a), brute);
        }
    }

    #[test]
    fn many_flows_independent_timers() {
        let mut ft = FlowTable::new(SimTime::from_secs(1), None);
        for i in 0..1000u32 {
            let k = FlowKey::tcp(Ipv4Addr::from(0x0101_0000 + i), 1000, HP, 445);
            ft.observe(SimTime::from_millis(u64::from(i)), k, FlowDirection::InboundInitiated);
        }
        assert_eq!(ft.len(), 1000);
        // Half the flows idle out by t = 1.5s.
        let evicted = ft.expire(SimTime::from_millis(1_500), |_| {});
        assert!((400..=600).contains(&evicted), "evicted {evicted}");
    }
}
