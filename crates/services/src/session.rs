//! Per-attacker session state with deterministic eviction.
//!
//! The paper's farm keeps per-attacker context so a multi-connection
//! attack (credential stuffing, staged droppers) resumes where it left
//! off rather than restarting the state machine on every SYN. Sessions
//! are keyed by `(attacker, scenario)` in a `BTreeMap` and evicted —
//! when a configured budget is exceeded — by smallest
//! `(last_activity, key)`: least-recently-active first, key order as the
//! tie-break, so eviction is identical at any worker count.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use potemkin_sim::SimTime;

/// Identity of a session: one attacker conversing with one scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct SessionKey {
    /// The remote attacker address.
    pub(crate) attacker: Ipv4Addr,
    /// Index of the scenario in the pack.
    pub(crate) scenario: usize,
}

/// Direction of one transcript entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Direction {
    /// Attacker → honeypot.
    Request,
    /// Honeypot → attacker.
    Response,
}

impl Direction {
    /// The canonical short name used in JSONL records.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            Direction::Request => "req",
            Direction::Response => "resp",
        }
    }
}

/// One captured request or response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct TranscriptEntry {
    /// When it was observed.
    pub(crate) at: SimTime,
    /// Which way it flowed.
    pub(crate) dir: Direction,
    /// The bytes on the wire.
    pub(crate) data: Vec<u8>,
}

/// Live state of one attacker/scenario conversation.
#[derive(Clone, Debug)]
pub(crate) struct Session {
    /// Current state index within the scenario's `states`.
    pub(crate) state: usize,
    /// Request/response rounds sustained so far.
    pub(crate) rounds: u64,
    /// Payloads captured in this session.
    pub(crate) payloads: u64,
    /// Stalls (no-rule-match or timeout resets) hit so far.
    pub(crate) stalls: u64,
    /// When the session was opened.
    pub(crate) opened_at: SimTime,
    /// When the last request arrived.
    pub(crate) last_activity: SimTime,
    /// The local honeypot address the attacker spoke to.
    pub(crate) local: Ipv4Addr,
    /// The destination port of the conversation.
    pub(crate) port: u16,
    /// Captured wire transcript (bounded by the manager's transcript
    /// limit).
    pub(crate) transcript: Vec<TranscriptEntry>,
}

/// Maximum transcript entries retained per session.
const TRANSCRIPT_LIMIT: usize = 64;

/// The session table: bounded, ordered, deterministically evicted.
#[derive(Clone, Debug)]
pub(crate) struct SessionManager {
    sessions: BTreeMap<SessionKey, Session>,
    budget: usize,
    evictions: u64,
    transcript_drops: u64,
}

impl SessionManager {
    /// Creates a manager holding at most `budget` live sessions, each
    /// with at most `TRANSCRIPT_LIMIT` transcript entries.
    #[must_use]
    pub(crate) fn new(budget: usize) -> SessionManager {
        SessionManager {
            sessions: BTreeMap::new(),
            budget: budget.max(1),
            evictions: 0,
            transcript_drops: 0,
        }
    }

    /// Number of live sessions.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        self.sessions.len()
    }

    /// The live session for `key`, if any.
    #[must_use]
    pub(crate) fn get(&self, key: &SessionKey) -> Option<&Session> {
        self.sessions.get(key)
    }

    /// Mutable access to the live session for `key`.
    pub(crate) fn get_mut(&mut self, key: &SessionKey) -> Option<&mut Session> {
        self.sessions.get_mut(key)
    }

    /// Opens a session for `key`, evicting the least-recently-active
    /// session first if the table is at budget. Returns the evicted
    /// session (for store finalization), if any.
    pub(crate) fn open(
        &mut self,
        key: SessionKey,
        session: Session,
    ) -> Option<(SessionKey, Session)> {
        let evicted = if self.sessions.len() >= self.budget && !self.sessions.contains_key(&key) {
            self.evict_one()
        } else {
            None
        };
        self.sessions.insert(key, session);
        evicted
    }

    /// Removes and returns the session for `key`.
    pub(crate) fn close(&mut self, key: &SessionKey) -> Option<Session> {
        self.sessions.remove(key)
    }

    /// Appends to a session's transcript, honoring the per-session cap.
    pub(crate) fn record(&mut self, key: &SessionKey, entry: TranscriptEntry) {
        if let Some(session) = self.sessions.get_mut(key) {
            if session.transcript.len() < TRANSCRIPT_LIMIT {
                session.transcript.push(entry);
            } else {
                self.transcript_drops += 1;
            }
        }
    }

    /// Drains every live session in key order (end-of-run finalization).
    pub(crate) fn drain(&mut self) -> Vec<(SessionKey, Session)> {
        std::mem::take(&mut self.sessions).into_iter().collect()
    }

    /// Evicts the session with the smallest `(last_activity, key)`.
    fn evict_one(&mut self) -> Option<(SessionKey, Session)> {
        let victim = self
            .sessions
            .iter()
            .min_by_key(|(key, s)| (s.last_activity, **key))
            .map(|(key, _)| *key)?;
        self.evictions += 1;
        self.sessions.remove(&victim).map(|s| (victim, s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(host: u8, scenario: usize) -> SessionKey {
        SessionKey { attacker: Ipv4Addr::new(198, 51, 100, host), scenario }
    }

    fn session(at: u64) -> Session {
        Session {
            state: 0,
            rounds: 0,
            payloads: 0,
            stalls: 0,
            opened_at: SimTime::from_secs(at),
            last_activity: SimTime::from_secs(at),
            local: Ipv4Addr::new(10, 0, 0, 1),
            port: 25,
            transcript: Vec::new(),
        }
    }

    #[test]
    fn eviction_is_least_recently_active_then_key_order() {
        let mut mgr = SessionManager::new(2);
        assert!(mgr.open(key(1, 0), session(5)).is_none());
        assert!(mgr.open(key(2, 0), session(3)).is_none());
        // Third session: key(2,0) has the older last_activity → evicted.
        let (victim, _) = mgr.open(key(3, 0), session(7)).unwrap();
        assert_eq!(victim, key(2, 0));
        assert_eq!(mgr.evictions, 1);
        // Tie on last_activity → smaller key evicted.
        let (victim, _) = mgr.open(key(4, 0), session(5)).unwrap();
        assert_eq!(victim, key(1, 0));
        assert_eq!(mgr.len(), 2);
    }

    #[test]
    fn reopening_an_existing_key_does_not_evict() {
        let mut mgr = SessionManager::new(1);
        assert!(mgr.open(key(1, 0), session(1)).is_none());
        assert!(mgr.open(key(1, 0), session(2)).is_none());
        assert_eq!(mgr.len(), 1);
        assert_eq!(mgr.evictions, 0);
    }

    #[test]
    fn transcripts_are_capped() {
        let mut mgr = SessionManager::new(4);
        mgr.open(key(1, 0), session(0));
        for i in 0..TRANSCRIPT_LIMIT as u64 + 3 {
            mgr.record(
                &key(1, 0),
                TranscriptEntry {
                    at: SimTime::from_secs(i),
                    dir: Direction::Request,
                    data: vec![b'x'],
                },
            );
        }
        assert_eq!(mgr.get(&key(1, 0)).unwrap().transcript.len(), TRANSCRIPT_LIMIT);
        assert_eq!(mgr.transcript_drops, 3);
    }

    #[test]
    fn drain_yields_key_order() {
        let mut mgr = SessionManager::new(8);
        mgr.open(key(9, 1), session(1));
        mgr.open(key(1, 0), session(2));
        mgr.open(key(9, 0), session(3));
        let keys: Vec<SessionKey> = mgr.drain().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![key(1, 0), key(9, 0), key(9, 1)]);
        assert_eq!(mgr.len(), 0);
    }
}
