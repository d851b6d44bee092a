//! The simulation main loop.
//!
//! A simulation is a [`World`] (the mutable state plus an event handler) and
//! an [`EventQueue`]. [`run_until`] drains the queue in timestamp order,
//! dispatching each event to the world, until the queue empties or the
//! horizon is reached.

use crate::event::EventQueue;
use crate::time::SimTime;

/// The mutable state of a simulation together with its event handler.
///
/// Implementors receive each event with the current virtual time and a
/// mutable reference to the queue so they can schedule follow-up events.
pub trait World {
    /// The event type dispatched by the simulation loop.
    type Event;

    /// Handles one event at virtual time `now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Summary of one simulation run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of events dispatched to the world.
    pub events_processed: u64,
}

potemkin_snapshot::snap_struct!(RunStats { events_processed });

/// Runs the simulation until the queue drains or an event at or beyond
/// `horizon` is next.
///
/// Events scheduled exactly at `horizon` are *not* processed, so that
/// consecutive windows `[0, h1)`, `[h1, h2)` compose without double
/// delivery.
pub(crate) fn run_until<W: World>(
    world: &mut W,
    queue: &mut EventQueue<W::Event>,
    horizon: SimTime,
) -> RunStats {
    let mut stats = RunStats::default();
    while queue.peek_time().is_some_and(|at| at < horizon) {
        let (now, event) = queue.pop().expect("peeked entry must pop");
        world.handle(now, event, queue);
        stats.events_processed += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(SimTime, u32)>,
    }

    impl World for Recorder {
        type Event = u32;

        fn handle(&mut self, now: SimTime, event: u32, queue: &mut EventQueue<u32>) {
            self.seen.push((now, event));
            // Event 1 spawns a follow-up 10ms later.
            if event == 1 {
                queue.schedule(now + SimTime::from_millis(10), 100);
            }
        }
    }

    #[test]
    fn drains_queue_when_no_horizon_hit() {
        let mut w = Recorder { seen: vec![] };
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(5), 1);
        q.schedule(SimTime::from_millis(7), 2);
        let stats = run_until(&mut w, &mut q, SimTime::from_secs(10));
        assert_eq!(stats.events_processed, 3, "follow-up event included");
        assert!(q.is_empty());
        assert_eq!(
            w.seen,
            vec![
                (SimTime::from_millis(5), 1),
                (SimTime::from_millis(7), 2),
                (SimTime::from_millis(15), 100),
            ]
        );
    }

    #[test]
    fn horizon_is_exclusive() {
        let mut w = Recorder { seen: vec![] };
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 2);
        q.schedule(SimTime::from_secs(2), 3);
        let stats = run_until(&mut w, &mut q, SimTime::from_secs(2));
        assert_eq!(stats.events_processed, 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(2)), "event at the horizon stays queued");
        // A second window picks it up.
        let stats2 = run_until(&mut w, &mut q, SimTime::from_secs(3));
        assert_eq!(stats2.events_processed, 1);
        assert_eq!(w.seen.last(), Some(&(SimTime::from_secs(2), 3)));
    }

    #[test]
    fn empty_queue_is_a_noop() {
        let mut w = Recorder { seen: vec![] };
        let mut q: EventQueue<u32> = EventQueue::new();
        let stats = run_until(&mut w, &mut q, SimTime::from_secs(1));
        assert_eq!(stats, RunStats::default());
    }
}
