//! Hierarchical timer wheel for high-volume timeout management.
//!
//! The gateway tracks a timeout per flow and per bound IP address — tens of
//! thousands of concurrent timers whose common operations are *insert* and
//! *cancel* (most flows see more traffic before expiring). A binary heap
//! makes cancel O(log n) at best and usually requires tombstones; the classic
//! solution (Varghese & Lauck) is a hierarchical timing wheel with O(1)
//! insert and cancel.
//!
//! This implementation uses four levels of 256 slots at a configurable tick
//! granularity, covering `256^4` ticks (over 4 billion). Timers beyond the
//! horizon saturate to the last slot of the outer wheel and re-cascade.

use potemkin_snapshot::{snap_struct, Snap, SnapReader, SnapWriter, SnapshotError};

use crate::time::SimTime;

const SLOTS: usize = 256;
const LEVELS: usize = 4;

/// Opaque handle identifying a scheduled timer, used to cancel it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TimerHandle(u64);

// The raw timer id: stable across save/restore, and only meaningful against
// the wheel that issued (or restored) it.
snap_struct!(TimerHandle { 0 });

#[derive(Clone, Debug)]
struct TimerEntry<T> {
    id: u64,
    deadline_ticks: u64,
    payload: T,
}

/// A hierarchical timing wheel mapping deadlines to payloads.
///
/// Time is supplied explicitly via [`TimerWheel::advance_to`]; the wheel has
/// no clock of its own, which keeps it usable both inside the discrete-event
/// simulator and in real-time harnesses.
///
/// # Examples
///
/// ```
/// use potemkin_sim::{SimTime, TimerWheel};
///
/// let mut wheel = TimerWheel::new(SimTime::from_millis(1));
/// wheel.schedule(SimTime::from_millis(5), "flow-timeout");
/// let fired = wheel.advance_to(SimTime::from_millis(10));
/// assert_eq!(fired, vec!["flow-timeout"]);
/// ```
pub struct TimerWheel<T> {
    tick: SimTime,
    /// Current time in ticks (all timers strictly before this have fired).
    now_ticks: u64,
    wheels: Vec<Vec<Vec<TimerEntry<T>>>>,
    next_id: u64,
    /// Identifiers of live (scheduled, not yet fired or cancelled) timers.
    live: std::collections::HashSet<u64>,
    cancelled: std::collections::HashSet<u64>,
}

impl<T> TimerWheel<T> {
    /// Creates a wheel with the given tick granularity.
    ///
    /// Deadlines are rounded *up* to the next tick boundary, so a timer never
    /// fires early.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero.
    #[must_use]
    pub fn new(tick: SimTime) -> Self {
        assert!(!tick.is_zero(), "tick granularity must be non-zero");
        TimerWheel {
            tick,
            now_ticks: 0,
            wheels: (0..LEVELS).map(|_| (0..SLOTS).map(|_| Vec::new()).collect()).collect(),
            next_id: 0,
            live: std::collections::HashSet::new(),
            cancelled: std::collections::HashSet::new(),
        }
    }

    /// The number of live timers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no timers are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The current wheel time (start of the current tick).
    #[must_use]
    pub fn now(&self) -> SimTime {
        SimTime::from_nanos(self.now_ticks.saturating_mul(self.tick.as_nanos()))
    }

    fn ticks_for(&self, deadline: SimTime) -> u64 {
        // Round up so timers never fire early.
        let t = deadline.as_nanos();
        let g = self.tick.as_nanos();
        t / g + u64::from(!t.is_multiple_of(g))
    }

    /// Which (level, slot) a deadline belongs in, given the current time.
    fn place(&self, deadline_ticks: u64) -> (usize, usize) {
        let delta = deadline_ticks.saturating_sub(self.now_ticks);
        let mut level = 0;
        let mut span = SLOTS as u64;
        while level < LEVELS - 1 && delta >= span {
            level += 1;
            span = span.saturating_mul(SLOTS as u64);
        }
        // Slot index within the level is taken from the corresponding digit
        // of the absolute deadline in base-SLOTS.
        let shift = 8 * level as u32; // 256 == 2^8
        let slot = ((deadline_ticks >> shift) & (SLOTS as u64 - 1)) as usize;
        (level, slot)
    }

    /// Schedules a timer for absolute virtual time `deadline`.
    ///
    /// Deadlines at or before the current time fire on the next
    /// [`advance_to`](Self::advance_to) call.
    pub fn schedule(&mut self, deadline: SimTime, payload: T) -> TimerHandle {
        let id = self.next_id;
        self.next_id += 1;
        let deadline_ticks = self.ticks_for(deadline).max(self.now_ticks);
        let (level, slot) = self.place(deadline_ticks);
        self.wheels[level][slot].push(TimerEntry { id, deadline_ticks, payload });
        self.live.insert(id);
        TimerHandle(id)
    }

    /// Cancels a previously scheduled timer.
    ///
    /// Returns `true` if the timer was live (it will now never fire), `false`
    /// if it had already fired or been cancelled.
    pub fn cancel(&mut self, handle: TimerHandle) -> bool {
        if self.live.remove(&handle.0) {
            // The wheel entry is lazily dropped during cascade/fire.
            self.cancelled.insert(handle.0);
            true
        } else {
            false
        }
    }

    /// Advances the wheel to `now`, returning all payloads whose deadlines
    /// have passed, in deadline order (ties broken by scheduling order).
    pub fn advance_to(&mut self, now: SimTime) -> Vec<T> {
        let target_ticks = now.as_nanos() / self.tick.as_nanos();
        let mut fired: Vec<TimerEntry<T>> = Vec::new();
        while self.now_ticks <= target_ticks {
            let slot0 = (self.now_ticks & (SLOTS as u64 - 1)) as usize;
            // Collect expired level-0 entries for this tick.
            let bucket = std::mem::take(&mut self.wheels[0][slot0]);
            for entry in bucket {
                if self.cancelled.remove(&entry.id) {
                    continue;
                }
                debug_assert!(entry.deadline_ticks <= self.now_ticks);
                fired.push(entry);
            }
            // On wrap of a level, cascade the next level's slot down.
            self.now_ticks += 1;
            let mut level = 0;
            let mut t = self.now_ticks;
            while level + 1 < LEVELS && t & (SLOTS as u64 - 1) == 0 {
                t >>= 8;
                level += 1;
                let slot = (t & (SLOTS as u64 - 1)) as usize;
                let bucket = std::mem::take(&mut self.wheels[level][slot]);
                for entry in bucket {
                    if self.cancelled.remove(&entry.id) {
                        continue;
                    }
                    let (l, s) = self.place(entry.deadline_ticks);
                    self.wheels[l][s].push(entry);
                }
            }
            if self.now_ticks > target_ticks {
                break;
            }
        }
        for entry in &fired {
            self.live.remove(&entry.id);
        }
        fired.sort_by_key(|e| (e.deadline_ticks, e.id));
        fired.into_iter().map(|e| e.payload).collect()
    }
}

snap_struct!(TimerEntry<T> { id, deadline_ticks, payload });

/// The wheel's clock (`tick`, `now_ticks`, `next_id`) and every *live*
/// entry, sorted by id. Cancelled-but-not-yet-swept entries are omitted —
/// they can never fire, so dropping them at the snapshot boundary is
/// behaviour-preserving. Ids survive, so handles held by restored callers
/// stay valid, and firing order — which sorts by `(deadline_ticks, id)` —
/// is that of the uninterrupted run whatever the re-insertion order.
impl<T: Snap> Snap for TimerWheel<T> {
    fn snap(&self, w: &mut SnapWriter) {
        self.tick.snap(w);
        w.u64(self.now_ticks);
        w.u64(self.next_id);
        let mut entries: Vec<&TimerEntry<T>> =
            self.wheels.iter().flatten().flatten().filter(|e| self.live.contains(&e.id)).collect();
        entries.sort_by_key(|e| e.id);
        w.seq(entries, TimerEntry::snap);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let tick = SimTime::unsnap(r)?;
        if tick.is_zero() {
            return Err(r.bad());
        }
        let mut wheel = TimerWheel::new(tick);
        wheel.now_ticks = r.u64()?;
        wheel.next_id = r.u64()?;
        for entry in r.seq(TimerEntry::<T>::unsnap)? {
            let (level, slot) = wheel.place(entry.deadline_ticks);
            wheel.live.insert(entry.id);
            wheel.wheels[level][slot].push(entry);
        }
        Ok(wheel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn fires_at_or_after_deadline_never_before() {
        let mut w = TimerWheel::new(ms(1));
        w.schedule(ms(10), 'a');
        assert!(w.advance_to(ms(9)).is_empty());
        assert_eq!(w.advance_to(ms(10)), vec!['a']);
    }

    #[test]
    fn fires_in_deadline_order() {
        let mut w = TimerWheel::new(ms(1));
        w.schedule(ms(30), 3);
        w.schedule(ms(10), 1);
        w.schedule(ms(20), 2);
        assert_eq!(w.advance_to(ms(100)), vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_schedule_order() {
        let mut w = TimerWheel::new(ms(1));
        for i in 0..10 {
            w.schedule(ms(5), i);
        }
        assert_eq!(w.advance_to(ms(5)), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_prevents_firing() {
        let mut w = TimerWheel::new(ms(1));
        let h1 = w.schedule(ms(10), 'a');
        let _h2 = w.schedule(ms(10), 'b');
        assert!(w.cancel(h1));
        assert!(!w.cancel(h1), "double cancel is false");
        assert_eq!(w.advance_to(ms(20)), vec!['b']);
        assert!(!w.cancel(h1), "cancel after fire window is false");
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut w: TimerWheel<u8> = TimerWheel::new(ms(1));
        assert!(!w.cancel(TimerHandle(42)));
    }

    #[test]
    fn long_deadlines_cascade_correctly() {
        let mut w = TimerWheel::new(ms(1));
        // Deadlines spanning multiple wheel levels: 256, 256^2, 256^3 ticks.
        w.schedule(ms(300), 1);
        w.schedule(ms(70_000), 2);
        w.schedule(ms(17_000_000), 3);
        assert!(w.advance_to(ms(299)).is_empty());
        assert_eq!(w.advance_to(ms(300)), vec![1]);
        assert!(w.advance_to(ms(69_999)).is_empty());
        assert_eq!(w.advance_to(ms(70_000)), vec![2]);
        assert_eq!(w.advance_to(ms(17_000_000)), vec![3]);
        assert!(w.is_empty());
    }

    #[test]
    fn past_deadline_fires_on_next_advance() {
        let mut w = TimerWheel::new(ms(1));
        w.advance_to(ms(100));
        // A deadline in the past is clamped to the next unprocessed tick.
        w.schedule(ms(50), 'x');
        assert!(w.advance_to(ms(100)).is_empty(), "tick 100 already processed");
        assert_eq!(w.advance_to(ms(101)), vec!['x']);
    }

    #[test]
    fn deadline_rounds_up_to_tick() {
        let mut w = TimerWheel::new(ms(10));
        w.schedule(SimTime::from_millis(15), 'a');
        assert!(w.advance_to(SimTime::from_millis(15)).is_empty(), "not yet: rounds to 20ms");
        assert_eq!(w.advance_to(SimTime::from_millis(20)), vec!['a']);
    }

    #[test]
    fn live_count_tracks() {
        let mut w = TimerWheel::new(ms(1));
        assert!(w.is_empty());
        let h = w.schedule(ms(5), ());
        w.schedule(ms(6), ());
        assert_eq!(w.len(), 2);
        w.cancel(h);
        assert_eq!(w.len(), 1);
        w.advance_to(ms(10));
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn many_timers_stress() {
        let mut w = TimerWheel::new(SimTime::from_micros(100));
        let mut expected = Vec::new();
        for i in 0..5_000u64 {
            let deadline = SimTime::from_micros(100 * (i % 977 + 1));
            w.schedule(deadline, i);
            expected.push((deadline, i));
        }
        expected.sort_by_key(|&(d, i)| (d, i));
        let fired = w.advance_to(SimTime::from_secs(1));
        assert_eq!(fired.len(), 5_000);
        assert_eq!(fired, expected.into_iter().map(|(_, i)| i).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_of_fired_handle_does_not_corrupt_count() {
        let mut w = TimerWheel::new(ms(1));
        let h1 = w.schedule(ms(1), 'a');
        w.schedule(ms(100), 'b');
        assert_eq!(w.advance_to(ms(1)), vec!['a']);
        assert!(!w.cancel(h1), "h1 already fired");
        assert_eq!(w.len(), 1, "b still live");
        assert_eq!(w.advance_to(ms(100)), vec!['b'], "b still fires");
        assert!(w.is_empty());
    }

    #[test]
    fn advance_is_monotonic_and_idempotent() {
        let mut w = TimerWheel::new(ms(1));
        w.schedule(ms(10), 'a');
        assert_eq!(w.advance_to(ms(50)), vec!['a']);
        assert!(w.advance_to(ms(50)).is_empty());
        // Re-advancing to an earlier time is a no-op, not a rewind.
        assert!(w.advance_to(ms(10)).is_empty());
        assert_eq!(w.now(), ms(51));
    }
}
