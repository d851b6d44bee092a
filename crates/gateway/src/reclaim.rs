//! Pluggable reclamation policies for memory pressure.
//!
//! When the farm cannot place a new clone (a host is out of frames, over
//! its memory budget, or out of domain slots), it must recycle a live
//! binding to make room. The paper treats the choice of *victim* as a
//! policy question — recycle the oldest interaction, the least recently
//! active one, or sweep with a clock hand — and this module makes that
//! choice a trait so experiments can compare policies without touching
//! the gateway's bookkeeping.
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

/// Picks which live binding to reclaim under memory pressure.
///
/// Implementations may keep state across calls (the clock policy keeps
/// its hand position), but must be deterministic: the same candidate
/// sequence must always produce the same picks. `Send` is required so a
/// farm holding a boxed policy can migrate between shard workers.
pub trait ReclaimPolicy: Send {
    /// Stable policy name for counters, traces, and bench artifacts.
    fn name(&self) -> &'static str;

    /// Returns the index of the candidate to evict.
    ///
    /// `candidates` is non-empty and sorted by ascending epoch. An
    /// out-of-range return is clamped by the caller.
    fn pick(&mut self, now: SimTime, candidates: &[ReclaimCandidate]) -> usize;

    /// Checkpoint support: the policy's internal state, serialized.
    /// Stateless policies return an empty buffer (the default).
    fn snapshot_state(&self) -> Vec<u8> {
        Vec::new()
    }

    /// Checkpoint support: restores state captured by
    /// [`ReclaimPolicy::snapshot_state`] on a freshly instantiated policy
    /// of the same kind.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Decode`] when the bytes do not match the
    /// policy's expected layout (e.g. a snapshot taken under a different
    /// policy kind).
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        if bytes.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Decode { context: "gateway.reclaim" })
        }
    }
}

/// Which reclaim policy the farm runs — the config-level, `Copy` handle
/// for [`ReclaimPolicy`] implementations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReclaimPolicyKind {
    /// Evict the binding bound earliest (`OldestFirst`) — the
    /// behaviour the farm had before policies were pluggable.
    #[default]
    Oldest,
    /// Evict the binding idle longest (`LruByLastPacket`).
    LruByLastPacket,
    /// Second-chance clock sweep over bind order (`ClockSecondChance`).
    Clock,
}

impl ReclaimPolicyKind {
    /// Instantiates the policy (clock state starts at the hand's origin).
    #[must_use]
    pub fn instantiate(self) -> Box<dyn ReclaimPolicy> {
        match self {
            ReclaimPolicyKind::Oldest => Box::new(OldestFirst),
            ReclaimPolicyKind::LruByLastPacket => Box::new(LruByLastPacket),
            ReclaimPolicyKind::Clock => Box::new(ClockSecondChance::new()),
        }
    }

    /// Stable name, identical to the instantiated policy's
    /// [`ReclaimPolicy::name`].
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

/// Evicts the binding with the earliest `bound_at`; ties break on epoch
/// (bind order), which subsumes the pre-policy `evict_oldest` behaviour.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct OldestFirst;

impl ReclaimPolicy for OldestFirst {
    fn name(&self) -> &'static str {
        "oldest"
    }

    fn pick(&mut self, _now: SimTime, candidates: &[ReclaimCandidate]) -> usize {
        min_index_by_key(candidates, |c| c.bound_at)
    }
}

/// Evicts the binding whose last packet is furthest in the past — the
/// interaction least likely to still be live.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct LruByLastPacket;

impl ReclaimPolicy for LruByLastPacket {
    fn name(&self) -> &'static str {
        "lru-by-last-packet"
    }

    fn pick(&mut self, _now: SimTime, candidates: &[ReclaimCandidate]) -> usize {
        min_index_by_key(candidates, |c| c.last_active)
    }
}

/// Second-chance clock over bind order.
///
/// The hand sweeps candidates by ascending epoch, resuming past where it
/// last evicted. A binding that served packets since the hand's previous
/// visit is "referenced": it gets its bit cleared (the packet count is
/// recorded) and is skipped once. The first unreferenced binding loses.
/// If every binding was referenced, the full sweep cleared every bit, so
/// the binding right after the hand is evicted — classic second chance.
#[derive(Clone, Debug, Default)]
pub(crate) struct ClockSecondChance {
    /// Epoch the hand last stopped at (`None` before the first eviction);
    /// the sweep resumes just past it.
    hand_epoch: Option<u64>,
    /// Packet counts recorded when each binding's bit was last cleared.
    seen_packets: BTreeMap<u64, u64>,
}

impl ClockSecondChance {
    /// A clock with the hand at the origin and every bit set.
    #[must_use]
    pub(crate) fn new() -> Self {
        ClockSecondChance::default()
    }

    fn referenced(&self, c: &ReclaimCandidate) -> bool {
        match self.seen_packets.get(&c.epoch) {
            None => c.packets > 0,
            Some(&seen) => c.packets > seen,
        }
    }
}

impl ReclaimPolicy for ClockSecondChance {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn pick(&mut self, _now: SimTime, candidates: &[ReclaimCandidate]) -> usize {
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

    fn snapshot_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.hand_epoch.snap(&mut w);
        self.seen_packets.snap(&mut w);
        w.into_bytes()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
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
        assert_eq!(OldestFirst.pick(SimTime::from_secs(10), &cs), 1);
    }

    #[test]
    fn oldest_breaks_ties_by_epoch_order() {
        let cs = [cand(3, 5, 9, 1), cand(4, 5, 1, 1)];
        assert_eq!(OldestFirst.pick(SimTime::from_secs(10), &cs), 0);
    }

    #[test]
    fn lru_picks_longest_idle() {
        let cs = [cand(0, 5, 9, 1), cand(1, 2, 8, 1), cand(2, 7, 1, 1)];
        assert_eq!(LruByLastPacket.pick(SimTime::from_secs(10), &cs), 2);
    }

    #[test]
    fn clock_gives_referenced_bindings_a_second_chance() {
        let mut clock = ClockSecondChance::new();
        // Epoch 0 has served packets (referenced), epoch 1 has not: the
        // sweep clears epoch 0's bit and evicts epoch 1.
        let cs = [cand(0, 0, 5, 3), cand(1, 1, 1, 0)];
        assert_eq!(clock.pick(SimTime::from_secs(10), &cs), 1, "unreferenced loses first");
        // Epoch 2 served packets since bind (referenced, bit cleared and
        // skipped); epoch 0's bit was already cleared and it has no new
        // packets, so it loses despite its earlier activity.
        let cs = [cand(0, 0, 5, 3), cand(2, 2, 9, 4)];
        assert_eq!(clock.pick(SimTime::from_secs(11), &cs), 0, "cleared bit, no new packets");
    }

    #[test]
    fn clock_evicts_at_hand_when_all_referenced() {
        let mut clock = ClockSecondChance::new();
        let cs = [cand(0, 0, 5, 3), cand(1, 1, 6, 4)];
        // Both referenced: full sweep clears both bits, hand-adjacent loses.
        assert_eq!(clock.pick(SimTime::from_secs(10), &cs), 0);
    }

    #[test]
    fn clock_is_deterministic_across_replays() {
        let script: Vec<Vec<ReclaimCandidate>> = vec![
            vec![cand(0, 0, 5, 3), cand(1, 1, 1, 0), cand(2, 2, 4, 2)],
            vec![cand(0, 0, 5, 3), cand(2, 2, 4, 2), cand(3, 3, 3, 0)],
            vec![cand(2, 2, 9, 7), cand(3, 3, 3, 0)],
        ];
        let run = || {
            let mut clock = ClockSecondChance::new();
            script
                .iter()
                .enumerate()
                .map(|(i, cs)| clock.pick(SimTime::from_secs(i as u64), cs))
                .collect::<Vec<_>>()
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
            assert_eq!(kind.instantiate().name(), kind.name());
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(ReclaimPolicyKind::default(), ReclaimPolicyKind::Oldest);
    }
}
