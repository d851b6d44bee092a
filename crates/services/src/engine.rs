//! The service engine: executes scenario state machines over live
//! sessions.
//!
//! One engine runs per farm (per cell in sharded runs). On each inbound
//! request it classifies the session ([`crate::detect`]), selects the
//! claiming scenario (pack order is the tie-break), finds or opens the
//! `(attacker, scenario)` session, applies the current state's match
//! rules, and returns the templated response plus any captured payload.
//! Everything is a pure function of the request stream — `BTreeMap`
//! tables, ordered rules, deterministic eviction — so per-cell engines
//! produce identical outcomes at any worker count.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use potemkin_sim::SimTime;

use crate::detect::classify;
use crate::scenario::{Action, ScenarioPack};
use crate::session::{Direction, Session, SessionKey, SessionManager, TranscriptEntry};
use crate::store::{MemoryStore, SessionRecord, SessionStore};

/// Response sent when a state has no matching rule and no fallback.
const UNRECOGNIZED: &[u8] = b"500 unrecognized\r\n";

/// Configuration for the interaction plane, cloned into each cell.
#[derive(Clone, Debug)]
pub struct ServicesConfig {
    /// The scenario pack to serve.
    pub pack: ScenarioPack,
    /// Maximum live sessions per engine (deterministic LRU eviction past
    /// it).
    pub(crate) session_budget: usize,
}

impl ServicesConfig {
    /// Config with the default budget (256 sessions).
    #[must_use]
    pub fn new(pack: ScenarioPack) -> ServicesConfig {
        ServicesConfig { pack, session_budget: 256 }
    }
}

/// What the engine decided for one request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SvcOutcome {
    /// Bytes to send back to the attacker.
    pub response: Vec<u8>,
    /// The request payload, when the matched rule carried `capture`.
    pub capture: Option<Vec<u8>>,
    /// Whether this request opened a new session.
    pub opened: bool,
    /// Whether the request stalled (no rule matched, or a timeout reset
    /// fired).
    pub stalled: bool,
    /// Index of the handling scenario in the pack.
    pub scenario: usize,
}

/// Per-scenario fidelity metrics, merged across cells in cell order.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct ScenarioMetrics {
    /// Scenario name.
    pub scenario: String,
    /// Sessions opened.
    pub sessions: u64,
    /// Request/response rounds sustained.
    pub rounds: u64,
    /// Payloads captured.
    pub payloads: u64,
    /// Stall events (unmatched requests plus timeout resets).
    pub stalls: u64,
    /// Sessions that captured at least one payload.
    pub completions: u64,
    /// Stall events by state name (where conversations die).
    pub(crate) stall_points: BTreeMap<String, u64>,
}

impl ScenarioMetrics {
    /// Folds another cell's metrics for the same scenario into this one.
    ///
    /// # Panics
    ///
    /// If the scenario names differ (cells must share one pack).
    pub(crate) fn absorb(&mut self, other: &ScenarioMetrics) {
        assert_eq!(self.scenario, other.scenario, "metrics merged across packs");
        self.sessions += other.sessions;
        self.rounds += other.rounds;
        self.payloads += other.payloads;
        self.stalls += other.stalls;
        self.completions += other.completions;
        for (state, n) in &other.stall_points {
            *self.stall_points.entry(state.clone()).or_insert(0) += n;
        }
    }

    /// The digest-stable summary line for this scenario.
    #[must_use]
    pub fn canonical_line(&self) -> String {
        format!(
            "{}:{}:{}:{}:{}:{}",
            self.scenario, self.sessions, self.rounds, self.payloads, self.stalls, self.completions
        )
    }
}

/// Merges per-cell metric vectors (same pack, cell order) into one.
#[must_use]
pub fn merge_metrics(cells: &[Vec<ScenarioMetrics>]) -> Vec<ScenarioMetrics> {
    let mut merged: Vec<ScenarioMetrics> = Vec::new();
    for cell in cells {
        if merged.is_empty() {
            merged = cell.clone();
        } else {
            for (into, from) in merged.iter_mut().zip(cell.iter()) {
                into.absorb(from);
            }
        }
    }
    merged
}

/// Expands `{host}`, `{attacker}`, and `{round}` in a response or drive
/// template.
#[must_use]
pub fn render(template: &str, host: Ipv4Addr, attacker: Ipv4Addr, round: u64) -> Vec<u8> {
    template
        .replace("{host}", &host.to_string())
        .replace("{attacker}", &attacker.to_string())
        .replace("{round}", &round.to_string())
        .into_bytes()
}

/// The per-farm scenario interpreter.
#[derive(Clone, Debug)]
pub struct ServiceEngine {
    pack: ScenarioPack,
    sessions: SessionManager,
    store: MemoryStore,
    metrics: Vec<ScenarioMetrics>,
    requests: u64,
    unclaimed: u64,
}

/// What one request did: `(response, capture, stalled, stall_state_name)`.
type Step = (Vec<u8>, Option<Vec<u8>>, bool, String);

impl ServiceEngine {
    /// Builds an engine from a cloned config.
    #[must_use]
    pub fn new(config: &ServicesConfig) -> ServiceEngine {
        let metrics = config
            .pack
            .scenarios()
            .iter()
            .map(|s| ScenarioMetrics { scenario: s.name.clone(), ..ScenarioMetrics::default() })
            .collect();
        ServiceEngine {
            pack: config.pack.clone(),
            sessions: SessionManager::new(config.session_budget),
            store: MemoryStore::new(),
            metrics,
            requests: 0,
            unclaimed: 0,
        }
    }

    /// Whether a live session already exists for this request — i.e.
    /// whether handling it would need a *new* session slot. Used by the
    /// farm to consult gateway admission before opening.
    #[must_use]
    pub fn has_session(&self, attacker: Ipv4Addr, port: u16, payload: &[u8]) -> bool {
        let protocol = classify(payload, port);
        match self.pack.select(protocol, port) {
            Some((scenario, _)) => self.sessions.get(&SessionKey { attacker, scenario }).is_some(),
            None => false,
        }
    }

    /// Handles one inbound request. Returns `None` when no scenario
    /// claims the classified `(protocol, port)` — the caller falls back
    /// to its fixed banner.
    pub fn on_request(
        &mut self,
        now: SimTime,
        attacker: Ipv4Addr,
        local: Ipv4Addr,
        port: u16,
        payload: &[u8],
    ) -> Option<SvcOutcome> {
        self.requests += 1;
        let protocol = classify(payload, port);
        let Some((scenario_idx, _)) = self.pack.select(protocol, port) else {
            self.unclaimed += 1;
            return None;
        };
        let key = SessionKey { attacker, scenario: scenario_idx };

        // Whole-session idle timeout: finalize the stale session (scored
        // as a stall) and fall through to a fresh open.
        let session_timeout = self.pack.scenarios()[scenario_idx].session_timeout;
        if let Some(session) = self.sessions.get(&key) {
            if now.saturating_sub(session.last_activity) > session_timeout {
                self.metrics[scenario_idx].stalls += 1;
                let state_name = self.state_name(scenario_idx, session.state).to_string();
                *self.metrics[scenario_idx].stall_points.entry(state_name).or_insert(0) += 1;
                if let Some(stale) = self.sessions.close(&key) {
                    self.finalize(&key, stale);
                }
            }
        }

        let opened = self.sessions.get(&key).is_none();
        if opened {
            let initial = self.initial_state(scenario_idx);
            let session = Session {
                state: initial,
                rounds: 0,
                payloads: 0,
                stalls: 0,
                opened_at: now,
                last_activity: now,
                local,
                port,
                transcript: Vec::new(),
            };
            if let Some((victim_key, victim)) = self.sessions.open(key, session) {
                self.finalize(&victim_key, victim);
            }
            self.metrics[scenario_idx].sessions += 1;
        }

        let (response, capture, stalled, stall_state) =
            self.step(scenario_idx, &key, now, attacker, payload)?;

        self.metrics[scenario_idx].rounds += 1;
        if stalled {
            self.metrics[scenario_idx].stalls += 1;
            *self.metrics[scenario_idx].stall_points.entry(stall_state).or_insert(0) += 1;
        }
        if capture.is_some() {
            self.metrics[scenario_idx].payloads += 1;
        }

        self.sessions.record(
            &key,
            TranscriptEntry { at: now, dir: Direction::Request, data: payload.to_vec() },
        );
        self.sessions.record(
            &key,
            TranscriptEntry { at: now, dir: Direction::Response, data: response.clone() },
        );

        Some(SvcOutcome { response, capture, opened, stalled, scenario: scenario_idx })
    }

    /// Applies the current state's rules to one request, or returns `None`
    /// if the session is not open.
    fn step(
        &mut self,
        scenario_idx: usize,
        key: &SessionKey,
        now: SimTime,
        attacker: Ipv4Addr,
        payload: &[u8],
    ) -> Option<Step> {
        let scenario = &self.pack.scenarios()[scenario_idx];
        let initial = scenario.states.iter().position(|s| s.name == scenario.initial).unwrap_or(0);
        let session = self.sessions.get_mut(key)?;

        // Per-state idle timeout: reset to initial before matching.
        let mut state_idx = session.state.min(scenario.states.len() - 1);
        let mut timeout_reset = false;
        if let Some(timeout) = scenario.states[state_idx].timeout {
            if session.rounds > 0 && now.saturating_sub(session.last_activity) > timeout {
                timeout_reset = true;
                state_idx = initial;
            }
        }
        let state = &scenario.states[state_idx];
        let stall_here = state.name.clone();

        let matched: Option<&Action> = state
            .rules
            .iter()
            .find(|r| r.matcher.matches(payload))
            .map(|r| &r.action)
            .or(state.fallback.as_ref());

        let round = session.rounds;
        session.rounds += 1;
        session.last_activity = now;
        if timeout_reset {
            session.stalls += 1;
        }

        match matched {
            Some(action) => {
                let response = render(&action.respond, session.local, attacker, round);
                // Validated at load: every action names a state.
                let next =
                    scenario.states.iter().position(|s| s.name == action.next).unwrap_or(state_idx);
                session.state = next;
                let capture = if action.capture {
                    session.payloads += 1;
                    Some(payload.to_vec())
                } else {
                    None
                };
                Some((response, capture, timeout_reset, stall_here))
            }
            None => {
                session.stalls += 1;
                Some((UNRECOGNIZED.to_vec(), None, true, stall_here))
            }
        }
    }

    /// Finalizes every live session (end of run) into the store.
    pub fn finish(&mut self) {
        for (key, session) in self.sessions.drain() {
            self.finalize(&key, session);
        }
    }

    /// Per-scenario fidelity metrics (call [`ServiceEngine::finish`]
    /// first so completions include still-open sessions).
    #[must_use]
    pub fn metrics(&self) -> &[ScenarioMetrics] {
        &self.metrics
    }

    /// Finalized session records, in finalization order.
    #[must_use]
    pub fn records(&self) -> &[SessionRecord] {
        self.store.records()
    }

    /// Live (not yet finalized) sessions.
    #[must_use]
    pub fn open_sessions(&self) -> usize {
        self.sessions.len()
    }

    /// Requests no scenario claimed (fell back to the fixed banner).
    #[must_use]
    pub fn unclaimed(&self) -> u64 {
        self.unclaimed
    }

    fn initial_state(&self, scenario_idx: usize) -> usize {
        let scenario = &self.pack.scenarios()[scenario_idx];
        scenario.states.iter().position(|s| s.name == scenario.initial).unwrap_or(0)
    }

    fn state_name(&self, scenario_idx: usize, state: usize) -> &str {
        let states = &self.pack.scenarios()[scenario_idx].states;
        &states[state.min(states.len() - 1)].name
    }

    fn finalize(&mut self, key: &SessionKey, session: Session) {
        let scenario = &self.pack.scenarios()[key.scenario];
        if session.payloads > 0 {
            self.metrics[key.scenario].completions += 1;
        }
        let record = SessionRecord::from_session(key, session, &scenario.name, scenario.protocol);
        self.store.record(&record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn engine() -> ServiceEngine {
        let doc = r#"
        {
          "scenario": "t-smtp",
          "protocol": "smtp",
          "ports": [25],
          "initial": "greet",
          "session_timeout_ms": 60000,
          "capture_marker": "X-MARK",
          "states": [
            { "name": "greet",
              "rules": [
                { "match": { "kind": "prefix", "bytes": "HELO" },
                  "respond": "250 {host} hello {attacker}", "next": "data" }
              ] },
            { "name": "data",
              "timeout_ms": 1000,
              "rules": [
                { "match": { "kind": "contains", "bytes": "X-MARK" },
                  "respond": "250 round {round} queued", "next": "greet",
                  "capture": true }
              ],
              "fallback": { "respond": "354 go on", "next": "data" } }
          ],
          "drive": []
        }
        "#;
        let pack = ScenarioPack::new(vec![Scenario::parse(doc).unwrap()]).unwrap();
        ServiceEngine::new(&ServicesConfig { session_budget: 4, ..ServicesConfig::new(pack) })
    }

    const ATTACKER: Ipv4Addr = Ipv4Addr::new(198, 51, 100, 9);
    const HOST: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 5);

    #[test]
    fn full_conversation_captures_payload() {
        let mut eng = engine();
        let t = SimTime::from_millis(100);
        let out = eng.on_request(t, ATTACKER, HOST, 25, b"HELO evil").unwrap();
        assert!(out.opened);
        assert_eq!(out.response, b"250 10.0.0.5 hello 198.51.100.9".to_vec());
        let out = eng
            .on_request(t + SimTime::from_millis(10), ATTACKER, HOST, 25, b"body X-MARK body")
            .unwrap();
        assert!(!out.opened);
        assert_eq!(out.capture.as_deref(), Some(b"body X-MARK body".as_ref()));
        assert_eq!(out.response, b"250 round 1 queued".to_vec());
        eng.finish();
        let m = &eng.metrics()[0];
        assert_eq!((m.sessions, m.rounds, m.payloads, m.completions), (1, 2, 1, 1));
        assert_eq!(eng.records().len(), 1);
        assert_eq!(eng.records()[0].transcript.len(), 4);
    }

    #[test]
    fn unmatched_request_stalls_with_fixed_reply() {
        let mut eng = engine();
        let out = eng.on_request(SimTime::from_millis(1), ATTACKER, HOST, 25, b"EHLO x").unwrap();
        // classify(b"EHLO x", 25) is Smtp; "EHLO" does not match the HELO
        // prefix rule and "greet" has no fallback.
        assert!(out.stalled);
        assert_eq!(out.response, UNRECOGNIZED.to_vec());
        assert_eq!(eng.metrics()[0].stalls, 1);
        assert_eq!(eng.metrics()[0].stall_points.get("greet"), Some(&1));
    }

    #[test]
    fn unclaimed_protocol_falls_through() {
        let mut eng = engine();
        assert!(eng.on_request(SimTime::ZERO, ATTACKER, HOST, 80, b"GET / HTTP/1.0").is_none());
        assert_eq!(eng.unclaimed(), 1);
    }

    #[test]
    fn state_timeout_resets_to_initial() {
        let mut eng = engine();
        let t0 = SimTime::from_millis(100);
        eng.on_request(t0, ATTACKER, HOST, 25, b"HELO evil").unwrap();
        // In "data" (timeout 1000ms); arrive 5s later → reset to greet.
        let late = t0 + SimTime::from_secs(5);
        let out = eng.on_request(late, ATTACKER, HOST, 25, b"HELO again").unwrap();
        assert!(out.stalled);
        assert_eq!(out.response, b"250 10.0.0.5 hello 198.51.100.9".to_vec());
    }

    #[test]
    fn session_timeout_reopens() {
        let mut eng = engine();
        eng.on_request(SimTime::from_secs(1), ATTACKER, HOST, 25, b"HELO a").unwrap();
        let out = eng.on_request(SimTime::from_secs(120), ATTACKER, HOST, 25, b"HELO b").unwrap();
        assert!(out.opened, "stale session finalized, fresh one opened");
        assert_eq!(eng.metrics()[0].sessions, 2);
        assert_eq!(eng.records().len(), 1, "stale session reached the store");
    }

    #[test]
    fn budget_evicts_deterministically() {
        let mut eng = engine();
        for i in 0..6u8 {
            let attacker = Ipv4Addr::new(198, 51, 100, i);
            eng.on_request(SimTime::from_secs(u64::from(i)), attacker, HOST, 25, b"HELO x")
                .unwrap();
        }
        assert_eq!(eng.open_sessions(), 4);
        // Oldest two attackers were evicted and finalized.
        assert_eq!(eng.records().len(), 2);
        assert_eq!(eng.records()[0].attacker, Ipv4Addr::new(198, 51, 100, 0));
        assert_eq!(eng.records()[1].attacker, Ipv4Addr::new(198, 51, 100, 1));
    }
}
