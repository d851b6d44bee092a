//! Selectable reclamation policies for memory pressure.
//!
//! When the farm cannot place a new clone (a host is out of frames, over
//! its memory budget, or out of domain slots), it must recycle a live
//! binding to make room. The paper treats the choice of *victim* as a
//! policy question — recycle the oldest interaction, the least recently
//! active one, or sweep with a clock hand — and this module makes that
//! choice a config value so experiments can compare policies without
//! touching the gateway's bookkeeping.
//!
//! Determinism contract: [`AddressBinder::reclaim_candidates`] returns
//! candidates sorted by bind epoch (a unique, monotone counter), so a
//! policy that ranks on any candidate field and breaks ties by position
//! is byte-identical across shard worker counts and across runs.
//!
//! [`AddressBinder::reclaim_candidates`]: crate::binding::AddressBinder::reclaim_candidates

use std::collections::BTreeMap;

use potemkin_sim::SimTime;
use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};

use crate::binding::{BindKey, VmRef};

/// One live binding, with the activity facts policies rank on.
///
/// Produced by [`AddressBinder::reclaim_candidates`] in epoch order
/// (epochs are unique and monotone, so the order is deterministic).
///
/// [`AddressBinder::reclaim_candidates`]: crate::binding::AddressBinder::reclaim_candidates
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReclaimCandidate {
    /// The binding's key (address, optionally source).
    pub key: BindKey,
    /// The VM serving the binding.
    pub vm: VmRef,
    /// When the binding was created.
    pub bound_at: SimTime,
    /// Last time a packet touched it.
    pub last_active: SimTime,
    /// Packets it has served.
    pub packets: u64,
    /// Unique, monotone bind epoch (the deterministic tiebreak).
    pub epoch: u64,
}

/// Which reclaim policy the farm runs — the config-level, `Copy` handle
/// for a [`ReclaimPolicy`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReclaimPolicyKind {
    /// Evict the binding bound earliest; ties break on epoch (bind
    /// order) — the behaviour the farm had before policies were
    /// selectable.
    #[default]
    Oldest,
    /// Evict the binding whose last packet is furthest in the past — the
    /// interaction least likely to still be live.
    LruByLastPacket,
    /// Second-chance clock sweep over bind order.
    Clock,
}

impl ReclaimPolicyKind {
    /// Instantiates the policy (clock state starts at the hand's origin).
    #[must_use]
    pub fn instantiate(self) -> ReclaimPolicy {
        ReclaimPolicy { kind: self, hand_epoch: None, seen_packets: BTreeMap::new() }
    }

    /// Stable policy name for counters, traces, and bench artifacts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ReclaimPolicyKind::Oldest => "oldest",
            ReclaimPolicyKind::LruByLastPacket => "lru-by-last-packet",
            ReclaimPolicyKind::Clock => "clock",
        }
    }
}

impl core::fmt::Display for ReclaimPolicyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// A running reclaim policy: its kind, plus the clock's state (untouched
/// by the other two kinds).
///
/// The clock is a second-chance sweep over bind order. The hand sweeps
/// candidates by ascending epoch, resuming past where it last evicted. A
/// binding that served packets since the hand's previous visit is
/// "referenced": it gets its bit cleared (the packet count is recorded)
/// and is skipped once. The first unreferenced binding loses. If every
/// binding was referenced, the full sweep cleared every bit, so the
/// binding right after the hand is evicted — classic second chance.
///
/// Every pick is deterministic: the same candidate sequence always
/// produces the same picks.
#[derive(Debug)]
pub struct ReclaimPolicy {
    kind: ReclaimPolicyKind,
    /// Epoch the clock's hand last stopped at (`None` before the first
    /// eviction); the sweep resumes just past it.
    hand_epoch: Option<u64>,
    /// Packet counts recorded when each binding's clock bit was last
    /// cleared.
    seen_packets: BTreeMap<u64, u64>,
}

impl ReclaimPolicy {
    /// Returns the index of the candidate to evict.
    ///
    /// `candidates` is non-empty and sorted by ascending epoch. An
    /// out-of-range return is clamped by the caller.
    pub fn pick(&mut self, candidates: &[ReclaimCandidate]) -> usize {
        match self.kind {
            ReclaimPolicyKind::Oldest => min_index_by_key(candidates, |c| c.bound_at),
            ReclaimPolicyKind::LruByLastPacket => min_index_by_key(candidates, |c| c.last_active),
            ReclaimPolicyKind::Clock => self.sweep(candidates),
        }
    }

    fn referenced(&self, c: &ReclaimCandidate) -> bool {
        match self.seen_packets.get(&c.epoch) {
            None => c.packets > 0,
            Some(&seen) => c.packets > seen,
        }
    }

    /// The clock's pick.
    fn sweep(&mut self, candidates: &[ReclaimCandidate]) -> usize {
        // Bindings evicted or expired since the last pick would leak map
        // entries; keep only the live ones.
        let live: std::collections::BTreeSet<u64> = candidates.iter().map(|c| c.epoch).collect();
        self.seen_packets.retain(|epoch, _| live.contains(epoch));

        // Rotate the sweep to start just past the hand (candidates are in
        // ascending epoch order).
        let start = match self.hand_epoch {
            None => 0,
            Some(hand) => candidates.partition_point(|c| c.epoch <= hand),
        };
        let n = candidates.len();
        for offset in 0..n {
            let idx = (start + offset) % n;
            let c = &candidates[idx];
            if self.referenced(c) {
                self.seen_packets.insert(c.epoch, c.packets);
            } else {
                self.hand_epoch = Some(c.epoch);
                return idx;
            }
        }
        // Every binding was referenced; all bits are now clear, evict the
        // one the hand points at.
        let idx = start % n;
        self.hand_epoch = Some(candidates[idx].epoch);
        idx
    }

    /// Checkpoint support: the clock's state, serialized; empty for the
    /// stateless kinds.
    #[must_use]
    pub fn snapshot_state(&self) -> Vec<u8> {
        if self.kind != ReclaimPolicyKind::Clock {
            return Vec::new();
        }
        let mut w = SnapWriter::new();
        self.hand_epoch.snap(&mut w);
        self.seen_packets.snap(&mut w);
        w.into_bytes()
    }

    /// Checkpoint support: restores state captured by
    /// [`ReclaimPolicy::snapshot_state`] on a freshly instantiated policy
    /// of the same kind.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Decode`] when the bytes do not match the
    /// kind's layout (e.g. a snapshot taken under a different kind).
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        if self.kind != ReclaimPolicyKind::Clock {
            return if bytes.is_empty() {
                Ok(())
            } else {
                Err(SnapshotError::Decode { context: "gateway.reclaim" })
            };
        }
        let mut r = SnapReader::new(bytes, "gateway.reclaim.clock");
        let hand_epoch = Snap::unsnap(&mut r)?;
        let seen_packets = Snap::unsnap(&mut r)?;
        r.finish()?;
        self.hand_epoch = hand_epoch;
        self.seen_packets = seen_packets;
        Ok(())
    }
}

/// Index of the minimum by `key`, first occurrence on ties (candidates
/// arrive in epoch order, so ties resolve to the earliest bind).
fn min_index_by_key<K: Ord>(
    candidates: &[ReclaimCandidate],
    key: impl Fn(&ReclaimCandidate) -> K,
) -> usize {
    let mut best = 0;
    for (i, c) in candidates.iter().enumerate().skip(1) {
        if key(c) < key(&candidates[best]) {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn cand(epoch: u64, bound: u64, active: u64, packets: u64) -> ReclaimCandidate {
        ReclaimCandidate {
            key: BindKey { dst: Ipv4Addr::new(10, 0, 0, epoch as u8), src: None },
            vm: VmRef(epoch),
            bound_at: SimTime::from_secs(bound),
            last_active: SimTime::from_secs(active),
            packets,
            epoch,
        }
    }

    #[test]
    fn oldest_picks_earliest_bound() {
        let cs = [cand(0, 5, 9, 1), cand(1, 2, 8, 1), cand(2, 7, 1, 1)];
        assert_eq!(ReclaimPolicyKind::Oldest.instantiate().pick(&cs), 1);
    }

    #[test]
    fn oldest_breaks_ties_by_epoch_order() {
        let cs = [cand(3, 5, 9, 1), cand(4, 5, 1, 1)];
        assert_eq!(ReclaimPolicyKind::Oldest.instantiate().pick(&cs), 0);
    }

    #[test]
    fn lru_picks_longest_idle() {
        let cs = [cand(0, 5, 9, 1), cand(1, 2, 8, 1), cand(2, 7, 1, 1)];
        assert_eq!(ReclaimPolicyKind::LruByLastPacket.instantiate().pick(&cs), 2);
    }

    #[test]
    fn clock_gives_referenced_bindings_a_second_chance() {
        let mut clock = ReclaimPolicyKind::Clock.instantiate();
        // Epoch 0 has served packets (referenced), epoch 1 has not: the
        // sweep clears epoch 0's bit and evicts epoch 1.
        let cs = [cand(0, 0, 5, 3), cand(1, 1, 1, 0)];
        assert_eq!(clock.pick(&cs), 1, "unreferenced loses first");
        // Epoch 2 served packets since bind (referenced, bit cleared and
        // skipped); epoch 0's bit was already cleared and it has no new
        // packets, so it loses despite its earlier activity.
        let cs = [cand(0, 0, 5, 3), cand(2, 2, 9, 4)];
        assert_eq!(clock.pick(&cs), 0, "cleared bit, no new packets");
    }

    #[test]
    fn clock_evicts_at_hand_when_all_referenced() {
        let mut clock = ReclaimPolicyKind::Clock.instantiate();
        let cs = [cand(0, 0, 5, 3), cand(1, 1, 6, 4)];
        // Both referenced: full sweep clears both bits, hand-adjacent loses.
        assert_eq!(clock.pick(&cs), 0);
    }

    #[test]
    fn clock_is_deterministic_across_replays() {
        let script: Vec<Vec<ReclaimCandidate>> = vec![
            vec![cand(0, 0, 5, 3), cand(1, 1, 1, 0), cand(2, 2, 4, 2)],
            vec![cand(0, 0, 5, 3), cand(2, 2, 4, 2), cand(3, 3, 3, 0)],
            vec![cand(2, 2, 9, 7), cand(3, 3, 3, 0)],
        ];
        let run = || {
            let mut clock = ReclaimPolicyKind::Clock.instantiate();
            script.iter().map(|cs| clock.pick(cs)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn kinds_instantiate_with_matching_names() {
        for kind in [
            ReclaimPolicyKind::Oldest,
            ReclaimPolicyKind::LruByLastPacket,
            ReclaimPolicyKind::Clock,
        ] {
            assert_eq!(kind.instantiate().kind, kind);
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(ReclaimPolicyKind::default(), ReclaimPolicyKind::Oldest);
    }
}
