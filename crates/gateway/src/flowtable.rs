//! The gateway's flow table.
//!
//! Tracks every transport flow crossing the gateway: who initiated it (the
//! containment policy allows replies within attacker-initiated flows but not
//! honeypot-initiated ones), byte/packet counts, and last-activity times for
//! idle eviction. Eviction uses the hierarchical timer wheel so sustained
//! scan loads (tens of thousands of one-packet flows) stay O(1) per packet.

use std::collections::{BTreeMap, HashMap};

use potemkin_net::FlowKey;
use potemkin_sim::{SimTime, TimerHandle, TimerWheel};
use potemkin_snapshot::{snap_enum, snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

/// Who sent the first packet of the flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowDirection {
    /// First packet arrived from outside (attacker → honeypot).
    InboundInitiated,
    /// First packet was emitted by a honeypot (worm → victim).
    OutboundInitiated,
}

snap_enum!(FlowDirection { InboundInitiated = 0, OutboundInitiated = 1 });

/// Per-flow state.
#[derive(Clone, Debug)]
pub struct FlowState {
    /// Who initiated the flow.
    pub direction: FlowDirection,
    /// When the first packet was seen.
    pub first_seen: SimTime,
    /// When the most recent packet was seen.
    pub last_seen: SimTime,
    /// Packets seen in either direction.
    pub packets: u64,
    /// Bytes seen in either direction.
    pub bytes: u64,
    timer: TimerHandle,
    /// Recency stamp (time, tiebreak) for LRU eviction.
    stamp: (SimTime, u64),
    /// Interned flow id, assigned in first-seen order. Keys the per-address
    /// index so endpoint scans stay deterministic and O(flows at the
    /// address) instead of O(table).
    id: u64,
}

snap_struct!(FlowState { direction, first_seen, last_seen, packets, bytes, timer, stamp, id });

/// The flow table: canonical flow key → state, with idle eviction.
///
/// # Examples
///
/// ```
/// use potemkin_gateway::flowtable::{FlowDirection, FlowTable};
/// use potemkin_net::FlowKey;
/// use potemkin_sim::SimTime;
/// use std::net::Ipv4Addr;
///
/// let mut ft = FlowTable::new(SimTime::from_secs(30));
/// let key = FlowKey::tcp(Ipv4Addr::new(1, 1, 1, 1), 9999, Ipv4Addr::new(10, 0, 0, 1), 445);
/// ft.observe(SimTime::ZERO, key, 40, FlowDirection::InboundInitiated);
/// assert_eq!(ft.len(), 1);
/// let evicted = ft.expire(SimTime::from_secs(31));
/// assert_eq!(evicted.len(), 1);
/// assert!(ft.is_empty());
/// ```
pub struct FlowTable {
    flows: HashMap<FlowKey, FlowState>,
    timers: TimerWheel<FlowKey>,
    idle_timeout: SimTime,
    /// Optional hard capacity; exceeding it evicts the least-recently-seen
    /// flow (the software gateway's memory is finite under scan floods).
    max_flows: Option<usize>,
    /// Recency index for LRU eviction.
    lru: BTreeMap<(SimTime, u64), FlowKey>,
    next_stamp: u64,
    /// Hashed endpoint index: address → interned flow id → canonical key.
    /// Replaces the former O(table) linear scans in [`FlowTable::retire_addr`]
    /// and [`FlowTable::flows_for`]; the inner map is ordered by intern id so
    /// retirement walks flows in first-seen order, keeping eviction order
    /// stable across runs.
    by_addr: HashMap<std::net::Ipv4Addr, BTreeMap<u64, FlowKey>>,
    next_id: u64,
    /// Lifetime counters.
    created: u64,
    evicted: u64,
    lru_evicted: u64,
}

impl FlowTable {
    /// Creates a flow table with the given idle timeout.
    #[must_use]
    pub fn new(idle_timeout: SimTime) -> Self {
        FlowTable {
            flows: HashMap::new(),
            timers: TimerWheel::new(SimTime::from_millis(100)),
            idle_timeout,
            max_flows: None,
            lru: BTreeMap::new(),
            next_stamp: 0,
            by_addr: HashMap::new(),
            next_id: 0,
            created: 0,
            evicted: 0,
            lru_evicted: 0,
        }
    }

    /// Adds `key` (already canonical) under both endpoints in the address
    /// index.
    fn index_insert(&mut self, key: FlowKey, id: u64) {
        self.by_addr.entry(key.src).or_default().insert(id, key);
        self.by_addr.entry(key.dst).or_default().insert(id, key);
    }

    /// Removes `key` from both endpoints of the address index, dropping
    /// per-address maps that empty out.
    fn index_remove(&mut self, key: FlowKey, id: u64) {
        for addr in [key.src, key.dst] {
            if let Some(ids) = self.by_addr.get_mut(&addr) {
                ids.remove(&id);
                if ids.is_empty() {
                    self.by_addr.remove(&addr);
                }
            }
        }
    }

    /// Bounds the table at `max` flows; the least-recently-seen flow is
    /// evicted to make room.
    ///
    /// # Panics
    ///
    /// Panics if `max` is zero.
    #[must_use]
    pub fn with_max_flows(mut self, max: usize) -> Self {
        assert!(max > 0, "flow capacity must be positive");
        self.max_flows = Some(max);
        self
    }

    /// Records a packet on a flow, creating the entry on first sight.
    ///
    /// `direction` is only consulted when the flow is new — it records who
    /// initiated. Returns whether the flow was newly created.
    pub fn observe(
        &mut self,
        now: SimTime,
        key: FlowKey,
        bytes: usize,
        direction: FlowDirection,
    ) -> bool {
        let canonical = key.canonical();
        if let Some(state) = self.flows.get_mut(&canonical) {
            state.last_seen = now;
            state.packets += 1;
            state.bytes += bytes as u64;
            let deadline = now + self.idle_timeout;
            let stamp = (now, self.next_stamp);
            self.next_stamp += 1;
            self.timers.cancel(state.timer);
            state.timer = self.timers.schedule(deadline, canonical);
            self.lru.remove(&state.stamp);
            state.stamp = stamp;
            self.lru.insert(stamp, canonical);
            return false;
        }
        if let Some(max) = self.max_flows {
            while self.flows.len() >= max {
                let (&oldest, &victim) = self.lru.iter().next().expect("lru tracks every flow");
                self.lru.remove(&oldest);
                if let Some(old) = self.flows.remove(&victim) {
                    self.timers.cancel(old.timer);
                    self.index_remove(victim, old.id);
                    self.lru_evicted += 1;
                    self.evicted += 1;
                }
            }
        }
        let deadline = now + self.idle_timeout;
        let stamp = (now, self.next_stamp);
        self.next_stamp += 1;
        let timer = self.timers.schedule(deadline, canonical);
        let id = self.next_id;
        self.next_id += 1;
        self.flows.insert(
            canonical,
            FlowState {
                direction,
                first_seen: now,
                last_seen: now,
                packets: 1,
                bytes: bytes as u64,
                timer,
                stamp,
                id,
            },
        );
        self.index_insert(canonical, id);
        self.lru.insert(stamp, canonical);
        self.created += 1;
        true
    }

    /// Looks up the flow containing `key` (either direction).
    #[must_use]
    pub fn get(&self, key: FlowKey) -> Option<&FlowState> {
        self.flows.get(&key.canonical())
    }

    /// Whether an attacker-initiated flow exists for `key`.
    #[must_use]
    pub fn is_reply_to_inbound(&self, key: FlowKey) -> bool {
        self.get(key).is_some_and(|s| s.direction == FlowDirection::InboundInitiated)
    }

    /// Evicts flows idle past the timeout, up to virtual time `now`.
    /// Returns the evicted keys.
    pub fn expire(&mut self, now: SimTime) -> Vec<FlowKey> {
        let mut evicted = Vec::new();
        for key in self.timers.advance_to(now) {
            // A fired timer is authoritative: observe() cancels and
            // re-schedules on every packet, so any firing means idle.
            if let Some(state) = self.flows.remove(&key) {
                self.lru.remove(&state.stamp);
                self.index_remove(key, state.id);
                evicted.push(key);
                self.evicted += 1;
            }
        }
        evicted
    }

    /// Retires every flow touching `addr` as either endpoint. Returns how
    /// many were removed.
    ///
    /// Called when an address's VM binding ends (expiry, pressure eviction,
    /// host crash): a stale attacker-initiated flow must not survive the
    /// binding, or its "reply" allowance would let a *recycled* VM's packets
    /// out through a dialogue the new occupant never had.
    pub fn retire_addr(&mut self, addr: std::net::Ipv4Addr) -> usize {
        // The address index makes this O(flows at addr): walk the interned
        // ids in first-seen order (stable eviction order) instead of
        // scanning the whole table.
        let Some(victims) = self.by_addr.remove(&addr) else {
            return 0;
        };
        let retired = victims.len();
        for (id, key) in victims {
            if let Some(state) = self.flows.remove(&key) {
                self.lru.remove(&state.stamp);
                self.timers.cancel(state.timer);
                self.evicted += 1;
            }
            // Unlink the other endpoint's index entry.
            let other = if key.src == addr { key.dst } else { key.src };
            if other != addr {
                if let Some(ids) = self.by_addr.get_mut(&other) {
                    ids.remove(&id);
                    if ids.is_empty() {
                        self.by_addr.remove(&other);
                    }
                }
            }
        }
        retired
    }

    /// Live flows touching `addr` as either endpoint (indexed lookup).
    #[must_use]
    pub fn flows_for(&self, addr: std::net::Ipv4Addr) -> usize {
        self.by_addr.get(&addr).map_or(0, BTreeMap::len)
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

    /// Lifetime `(created, evicted)` counts.
    #[must_use]
    pub fn lifetime_counts(&self) -> (u64, u64) {
        (self.created, self.evicted)
    }

    /// Flows evicted specifically by the LRU capacity bound.
    #[must_use]
    pub fn lru_evictions(&self) -> u64 {
        self.lru_evicted
    }

    /// Checkpoint support: serializes every mutable field. Configuration
    /// (idle timeout, capacity bound) is not included — restore goes into a
    /// table freshly built from the same policy config. The LRU and
    /// per-address indexes are derivable from the flows, so only the flows
    /// and the timer wheel go on the wire.
    #[must_use]
    pub fn encode_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        // Flows sorted by interned id: unique and monotone (first-seen
        // order), so the byte stream is hash-map-order independent.
        let mut flows: Vec<(&FlowKey, &FlowState)> = self.flows.iter().collect();
        flows.sort_by_key(|(_, s)| s.id);
        w.pairs(flows);
        self.timers.snap(&mut w);
        w.u64(self.next_stamp);
        w.u64(self.next_id);
        w.u64(self.created);
        w.u64(self.evicted);
        w.u64(self.lru_evicted);
        w.into_bytes()
    }

    /// Restores mutable state encoded by [`FlowTable::encode_state`] into
    /// this table (its configuration fields are kept). The LRU and
    /// per-address indexes are rebuilt from the restored flows.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Decode`] on truncated or malformed input;
    /// the table is left untouched in that case.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapReader::new(bytes, "gateway.flows");
        let flows = Vec::<(FlowKey, FlowState)>::unsnap(&mut r)?;
        let timers = Snap::unsnap(&mut r)?;
        let next_stamp = r.u64()?;
        let next_id = r.u64()?;
        let created = r.u64()?;
        let evicted = r.u64()?;
        let lru_evicted = r.u64()?;
        r.finish()?;
        self.lru = flows.iter().map(|(key, s)| (s.stamp, *key)).collect();
        self.by_addr = HashMap::new();
        for (key, s) in &flows {
            self.index_insert(*key, s.id);
        }
        self.flows = flows.into_iter().collect();
        self.timers = timers;
        self.next_stamp = next_stamp;
        self.next_id = next_id;
        self.created = created;
        self.evicted = evicted;
        self.lru_evicted = lru_evicted;
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

    #[test]
    fn create_and_update() {
        let mut ft = FlowTable::new(SimTime::from_secs(10));
        assert!(ft.observe(SimTime::ZERO, key(), 40, FlowDirection::InboundInitiated));
        assert!(!ft.observe(SimTime::from_secs(1), key(), 60, FlowDirection::InboundInitiated));
        let s = ft.get(key()).unwrap();
        assert_eq!(s.packets, 2);
        assert_eq!(s.bytes, 100);
        assert_eq!(s.first_seen, SimTime::ZERO);
        assert_eq!(s.last_seen, SimTime::from_secs(1));
    }

    #[test]
    fn both_directions_share_state() {
        let mut ft = FlowTable::new(SimTime::from_secs(10));
        ft.observe(SimTime::ZERO, key(), 40, FlowDirection::InboundInitiated);
        // The reply direction updates the same flow and keeps the original
        // initiator.
        assert!(!ft.observe(
            SimTime::from_secs(1),
            key().reversed(),
            40,
            FlowDirection::OutboundInitiated
        ));
        assert!(ft.is_reply_to_inbound(key().reversed()));
        assert_eq!(ft.len(), 1);
    }

    #[test]
    fn initiator_recorded_for_outbound() {
        let mut ft = FlowTable::new(SimTime::from_secs(10));
        let k = FlowKey::tcp(HP, 1025, Ipv4Addr::new(9, 9, 9, 9), 445);
        ft.observe(SimTime::ZERO, k, 40, FlowDirection::OutboundInitiated);
        assert!(!ft.is_reply_to_inbound(k));
    }

    #[test]
    fn idle_eviction() {
        let mut ft = FlowTable::new(SimTime::from_secs(5));
        ft.observe(SimTime::ZERO, key(), 40, FlowDirection::InboundInitiated);
        assert!(ft.expire(SimTime::from_secs(4)).is_empty());
        let evicted = ft.expire(SimTime::from_secs(6));
        assert_eq!(evicted, vec![key().canonical()]);
        assert!(ft.get(key()).is_none());
        assert_eq!(ft.lifetime_counts(), (1, 1));
    }

    #[test]
    fn activity_refreshes_timeout() {
        let mut ft = FlowTable::new(SimTime::from_secs(5));
        ft.observe(SimTime::ZERO, key(), 40, FlowDirection::InboundInitiated);
        // Keep the flow alive with periodic packets.
        for s in 1..10 {
            ft.observe(SimTime::from_secs(s * 3), key(), 40, FlowDirection::InboundInitiated);
            assert!(ft.expire(SimTime::from_secs(s * 3)).is_empty());
        }
        assert_eq!(ft.len(), 1);
        // Now go quiet.
        let evicted = ft.expire(SimTime::from_secs(27 + 6));
        assert_eq!(evicted.len(), 1);
    }

    #[test]
    fn lru_capacity_evicts_least_recent() {
        let mut ft = FlowTable::new(SimTime::from_secs(3_600)).with_max_flows(3);
        let keys: Vec<FlowKey> = (0..5u16).map(|i| FlowKey::tcp(ATK, 1_000 + i, HP, 445)).collect();
        for (i, &k) in keys.iter().take(3).enumerate() {
            ft.observe(SimTime::from_secs(i as u64), k, 40, FlowDirection::InboundInitiated);
        }
        assert_eq!(ft.len(), 3);
        // Refresh the oldest flow so it becomes the newest.
        ft.observe(SimTime::from_secs(10), keys[0], 40, FlowDirection::InboundInitiated);
        // A fourth flow evicts keys[1] (now the least recent), not keys[0].
        ft.observe(SimTime::from_secs(11), keys[3], 40, FlowDirection::InboundInitiated);
        assert_eq!(ft.len(), 3);
        assert!(ft.get(keys[0]).is_some(), "refreshed flow survives");
        assert!(ft.get(keys[1]).is_none(), "LRU flow evicted");
        assert!(ft.get(keys[2]).is_some());
        assert!(ft.get(keys[3]).is_some());
        assert_eq!(ft.lru_evictions(), 1);
        // A fifth flow evicts keys[2].
        ft.observe(SimTime::from_secs(12), keys[4], 40, FlowDirection::InboundInitiated);
        assert!(ft.get(keys[2]).is_none());
        assert_eq!(ft.lru_evictions(), 2);
    }

    #[test]
    fn lru_evicted_flow_timer_does_not_fire_later() {
        let mut ft = FlowTable::new(SimTime::from_secs(5)).with_max_flows(1);
        let k1 = FlowKey::tcp(ATK, 1, HP, 445);
        let k2 = FlowKey::tcp(ATK, 2, HP, 445);
        ft.observe(SimTime::ZERO, k1, 40, FlowDirection::InboundInitiated);
        ft.observe(SimTime::from_secs(1), k2, 40, FlowDirection::InboundInitiated);
        assert_eq!(ft.len(), 1);
        // k1's idle timer (cancelled at LRU eviction) must not evict k2 or
        // double-count.
        let expired = ft.expire(SimTime::from_secs(5) + SimTime::from_millis(500));
        assert!(expired.is_empty(), "k2 idles out at t=6, not before");
        let expired2 = ft.expire(SimTime::from_secs(7));
        assert_eq!(expired2, vec![k2.canonical()]);
    }

    #[test]
    fn unbounded_table_never_lru_evicts() {
        let mut ft = FlowTable::new(SimTime::from_secs(3_600));
        for i in 0..500u16 {
            let k = FlowKey::tcp(ATK, i, HP, 445);
            ft.observe(SimTime::ZERO, k, 40, FlowDirection::InboundInitiated);
        }
        assert_eq!(ft.len(), 500);
        assert_eq!(ft.lru_evictions(), 0);
    }

    #[test]
    fn retire_addr_removes_flows_on_both_sides() {
        let mut ft = FlowTable::new(SimTime::from_secs(60));
        let other = Ipv4Addr::new(10, 0, 0, 2);
        ft.observe(
            SimTime::ZERO,
            FlowKey::tcp(ATK, 1, HP, 445),
            40,
            FlowDirection::InboundInitiated,
        );
        ft.observe(
            SimTime::ZERO,
            FlowKey::tcp(HP, 1025, ATK, 80),
            40,
            FlowDirection::OutboundInitiated,
        );
        ft.observe(
            SimTime::ZERO,
            FlowKey::tcp(ATK, 2, other, 445),
            40,
            FlowDirection::InboundInitiated,
        );
        assert_eq!(ft.len(), 3);

        assert_eq!(ft.retire_addr(HP), 2, "flows with HP as src or dst retired");
        assert_eq!(ft.len(), 1);
        assert!(ft.get(FlowKey::tcp(ATK, 2, other, 445)).is_some(), "unrelated flow survives");
        assert!(!ft.is_reply_to_inbound(FlowKey::tcp(ATK, 1, HP, 445)));
        // Cancelled timers never fire for retired flows.
        assert!(ft.expire(SimTime::from_secs(61)).iter().all(|k| k.src != HP && k.dst != HP));
        // Idempotent.
        assert_eq!(ft.retire_addr(HP), 0);
    }

    #[test]
    fn addr_index_tracks_churn() {
        // Exercise create, refresh, idle eviction, LRU eviction, and
        // retirement; the index must agree with a brute-force scan
        // throughout.
        let mut ft = FlowTable::new(SimTime::from_secs(5)).with_max_flows(6);
        let addrs: Vec<Ipv4Addr> = (1..=4u8).map(|i| Ipv4Addr::new(10, 0, 0, i)).collect();
        for step in 0..40u64 {
            let src = addrs[(step % 4) as usize];
            let dst = addrs[((step / 4 + 1) % 4) as usize];
            if src != dst {
                let k = FlowKey::tcp(src, 1000 + (step % 7) as u16, dst, 445);
                ft.observe(SimTime::from_secs(step), k, 40, FlowDirection::InboundInitiated);
            }
            ft.expire(SimTime::from_secs(step));
            for &a in &addrs {
                let brute = ft.flows.keys().filter(|k| k.src == a || k.dst == a).count();
                assert_eq!(ft.flows_for(a), brute, "index diverged at step {step} for {a}");
            }
        }
        let before = ft.len();
        let retired = ft.retire_addr(addrs[0]);
        assert_eq!(ft.len(), before - retired);
        assert_eq!(ft.flows_for(addrs[0]), 0);
        for &a in &addrs {
            let brute = ft.flows.keys().filter(|k| k.src == a || k.dst == a).count();
            assert_eq!(ft.flows_for(a), brute);
        }
    }

    #[test]
    fn many_flows_independent_timers() {
        let mut ft = FlowTable::new(SimTime::from_secs(1));
        for i in 0..1000u32 {
            let k = FlowKey::tcp(Ipv4Addr::from(0x0101_0000 + i), 1000, HP, 445);
            ft.observe(SimTime::from_millis(u64::from(i)), k, 40, FlowDirection::InboundInitiated);
        }
        assert_eq!(ft.len(), 1000);
        // Half the flows idle out by t = 1.5s.
        let evicted = ft.expire(SimTime::from_millis(1_500));
        assert!((400..=600).contains(&evicted.len()), "evicted {}", evicted.len());
    }
}
