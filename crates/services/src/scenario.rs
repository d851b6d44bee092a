//! The declarative scenario DSL: interaction state machines as data.
//!
//! A scenario file is a JSON document (full-line `//` comments allowed)
//! describing one service personality as a state machine: named states,
//! ordered match rules over the attacker's request bytes, templated
//! responses, capture markers, and per-state timeouts. A `drive` section
//! describes the canonical attacker side — the request sequence a worm or
//! tool sends and what it expects back — which both the closed-loop
//! interaction driver and the scripted-baseline comparison replay.
//!
//! Everything is validated at load time with typed [`ScenarioError`]s so
//! a broken scenario file fails the run immediately and nameably, never
//! mid-replay. Serialization is canonical: `parse(s.to_json()) == s` (the
//! round-trip property in `tests/prop_services.rs`).

use std::fmt;

use potemkin_json::{strip_line_comments, JsonError, JsonValue};
use potemkin_sim::SimTime;

use crate::detect::Protocol;

/// Why a scenario document was rejected at load time.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioError {
    /// The document is not valid JSON (truncated files land here).
    Json(JsonError),
    /// A required field is absent.
    MissingField {
        /// The scenario (or `"?"` before its name parsed).
        scenario: String,
        /// The absent field.
        field: &'static str,
    },
    /// A field is present but has the wrong shape or value.
    BadField {
        /// The owning scenario.
        scenario: String,
        /// The offending field.
        field: &'static str,
        /// What was wrong.
        what: &'static str,
    },
    /// The `protocol` value names no known protocol.
    UnknownProtocol {
        /// The owning scenario.
        scenario: String,
        /// The unrecognized name.
        protocol: String,
    },
    /// The scenario declares no states.
    NoStates {
        /// The owning scenario.
        scenario: String,
    },
    /// Two scenarios in one pack share a name.
    DuplicateScenarioName {
        /// The repeated name.
        name: String,
    },
    /// Two states in one scenario share a name.
    DuplicateStateName {
        /// The owning scenario.
        scenario: String,
        /// The repeated state name.
        state: String,
    },
    /// A transition (or `initial`) references a state that does not exist.
    UnknownStateRef {
        /// The owning scenario.
        scenario: String,
        /// Where the reference appears (state name, or `"initial"`).
        state: String,
        /// The dangling state name.
        referenced: String,
    },
    /// A `prefix`/`contains` match rule has empty bytes (it would match
    /// everything, silently shadowing later rules).
    EmptyMatchRule {
        /// The owning scenario.
        scenario: String,
        /// The state (or `"drive"`) holding the empty rule.
        state: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Json(e) => write!(f, "scenario document: {e}"),
            ScenarioError::MissingField { scenario, field } => {
                write!(f, "scenario '{scenario}': missing field '{field}'")
            }
            ScenarioError::BadField { scenario, field, what } => {
                write!(f, "scenario '{scenario}': field '{field}': {what}")
            }
            ScenarioError::UnknownProtocol { scenario, protocol } => {
                write!(f, "scenario '{scenario}': unknown protocol '{protocol}'")
            }
            ScenarioError::NoStates { scenario } => {
                write!(f, "scenario '{scenario}': declares no states")
            }
            ScenarioError::DuplicateScenarioName { name } => {
                write!(f, "duplicate scenario name '{name}' in pack")
            }
            ScenarioError::DuplicateStateName { scenario, state } => {
                write!(f, "scenario '{scenario}': duplicate state name '{state}'")
            }
            ScenarioError::UnknownStateRef { scenario, state, referenced } => {
                write!(
                    f,
                    "scenario '{scenario}': '{state}' references unknown state '{referenced}'"
                )
            }
            ScenarioError::EmptyMatchRule { scenario, state } => {
                write!(f, "scenario '{scenario}': empty match rule in '{state}'")
            }
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Json(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JsonError> for ScenarioError {
    fn from(e: JsonError) -> Self {
        ScenarioError::Json(e)
    }
}

/// How a rule matches the attacker's request bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Matcher {
    /// The request starts with these bytes.
    Prefix(String),
    /// The request contains these bytes anywhere.
    Contains(String),
    /// Matches any request (catch-all rules).
    Any,
}

impl Matcher {
    /// Whether `request` satisfies this matcher.
    #[must_use]
    pub fn matches(&self, request: &[u8]) -> bool {
        match self {
            Matcher::Prefix(bytes) => request.starts_with(bytes.as_bytes()),
            Matcher::Contains(bytes) => {
                let needle = bytes.as_bytes();
                !needle.is_empty() && request.windows(needle.len()).any(|w| w == needle)
            }
            Matcher::Any => true,
        }
    }
}

/// What a matched rule does: respond, transition, optionally capture.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Action {
    /// Response template. `{host}`, `{attacker}`, and `{round}` expand at
    /// send time; everything else is literal bytes.
    pub respond: String,
    /// The state to transition to (may be the current state).
    pub next: String,
    /// Record the full request as a captured payload.
    pub capture: bool,
}

/// One ordered match rule within a state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Rule {
    /// The request pattern.
    pub matcher: Matcher,
    /// What to do when it matches.
    pub action: Action,
}

/// One state of the interaction machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct State {
    /// Unique name within the scenario.
    pub name: String,
    /// Idle timeout: a request arriving later than this after the previous
    /// one resets the session to `initial` (counted as a stall here).
    pub timeout: Option<SimTime>,
    /// Rules, tried in order; the first match wins.
    pub rules: Vec<Rule>,
    /// Applied when no rule matches (counted as a stall when absent).
    pub fallback: Option<Action>,
}

/// One step of the canonical attacker-side drive.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DriveStep {
    /// Request bytes to send (same template placeholders as responses).
    pub send: String,
    /// What the response must satisfy for the attacker to continue; `None`
    /// accepts anything.
    pub expect: Option<Matcher>,
}

/// A parsed, validated interaction scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Unique name within a pack.
    pub name: String,
    /// The protocol whose detector verdict selects this scenario.
    pub protocol: Protocol,
    /// Ports this scenario claims (empty = any port of the protocol).
    pub ports: Vec<u16>,
    /// Name of the initial state.
    pub initial: String,
    /// Whole-session idle timeout (reconnect semantics past it).
    pub session_timeout: SimTime,
    /// The payload marker the drive's final request carries.
    pub capture_marker: String,
    /// The state machine.
    pub states: Vec<State>,
    /// The canonical attacker side.
    pub drive: Vec<DriveStep>,
}

impl Scenario {
    /// Parses one scenario document (JSON; full-line `//` comments are
    /// stripped first) and validates it.
    ///
    /// # Errors
    ///
    /// Returns the typed [`ScenarioError`] for the first problem found.
    pub fn parse(text: &str) -> Result<Scenario, ScenarioError> {
        let value = JsonValue::parse(&strip_line_comments(text))?;
        Scenario::from_value(&value)
    }

    /// Builds a scenario from a parsed JSON value and validates it.
    ///
    /// # Errors
    ///
    /// As [`Scenario::parse`].
    pub(crate) fn from_value(value: &JsonValue) -> Result<Scenario, ScenarioError> {
        let name = req_str(value, "?", "scenario")?;
        let protocol_name = req_str(value, &name, "protocol")?;
        let protocol = Protocol::from_name(&protocol_name).ok_or_else(|| {
            ScenarioError::UnknownProtocol { scenario: name.clone(), protocol: protocol_name }
        })?;
        let ports = match value.get("ports") {
            None => Vec::new(),
            Some(v) => {
                let items = v.as_array().ok_or_else(|| bad(&name, "ports", "must be an array"))?;
                items
                    .iter()
                    .map(|p| {
                        as_uint(p)
                            .and_then(|n| u16::try_from(n).ok())
                            .ok_or_else(|| bad(&name, "ports", "entries must be u16"))
                    })
                    .collect::<Result<Vec<u16>, _>>()?
            }
        };
        let initial = req_str(value, &name, "initial")?;
        let timeout_ms = value
            .get("session_timeout_ms")
            .ok_or_else(|| missing(&name, "session_timeout_ms"))
            .and_then(|v| {
                as_uint(v).ok_or_else(|| {
                    bad(&name, "session_timeout_ms", "must be a non-negative integer")
                })
            })?;
        let capture_marker = req_str(value, &name, "capture_marker")?;
        if capture_marker.is_empty() {
            return Err(bad(&name, "capture_marker", "must not be empty"));
        }
        let states = value
            .get("states")
            .ok_or_else(|| missing(&name, "states"))?
            .as_array()
            .ok_or_else(|| bad(&name, "states", "must be an array"))?
            .iter()
            .map(|s| parse_state(&name, s))
            .collect::<Result<Vec<State>, _>>()?;
        let drive = match value.get("drive") {
            None => Vec::new(),
            Some(v) => v
                .as_array()
                .ok_or_else(|| bad(&name, "drive", "must be an array"))?
                .iter()
                .map(|s| parse_drive_step(&name, s))
                .collect::<Result<Vec<DriveStep>, _>>()?,
        };
        let scenario = Scenario {
            name,
            protocol,
            ports,
            initial,
            session_timeout: SimTime::from_millis(timeout_ms),
            capture_marker,
            states,
            drive,
        };
        scenario.validate()?;
        Ok(scenario)
    }

    /// Structural validation: state names unique, every reference resolves,
    /// no empty match rules.
    ///
    /// # Errors
    ///
    /// The typed [`ScenarioError`] for the first violation.
    pub(crate) fn validate(&self) -> Result<(), ScenarioError> {
        if self.name.is_empty() {
            return Err(bad("?", "scenario", "name must not be empty"));
        }
        if self.states.is_empty() {
            return Err(ScenarioError::NoStates { scenario: self.name.clone() });
        }
        let mut seen: Vec<&str> = Vec::with_capacity(self.states.len());
        for state in &self.states {
            if seen.contains(&state.name.as_str()) {
                return Err(ScenarioError::DuplicateStateName {
                    scenario: self.name.clone(),
                    state: state.name.clone(),
                });
            }
            seen.push(&state.name);
        }
        let resolves = |target: &str| self.states.iter().any(|s| s.name == target);
        if !resolves(&self.initial) {
            return Err(ScenarioError::UnknownStateRef {
                scenario: self.name.clone(),
                state: "initial".to_string(),
                referenced: self.initial.clone(),
            });
        }
        for state in &self.states {
            let actions = state.rules.iter().map(|r| &r.action).chain(state.fallback.as_ref());
            for action in actions {
                if !resolves(&action.next) {
                    return Err(ScenarioError::UnknownStateRef {
                        scenario: self.name.clone(),
                        state: state.name.clone(),
                        referenced: action.next.clone(),
                    });
                }
            }
            for rule in &state.rules {
                if matcher_is_empty(&rule.matcher) {
                    return Err(ScenarioError::EmptyMatchRule {
                        scenario: self.name.clone(),
                        state: state.name.clone(),
                    });
                }
            }
        }
        for step in &self.drive {
            if step.expect.as_ref().is_some_and(matcher_is_empty) {
                return Err(ScenarioError::EmptyMatchRule {
                    scenario: self.name.clone(),
                    state: "drive".to_string(),
                });
            }
        }
        Ok(())
    }

    /// Whether this scenario claims sessions classified as `protocol` on
    /// `port`.
    #[must_use]
    pub(crate) fn claims(&self, protocol: Protocol, port: u16) -> bool {
        self.protocol == protocol && (self.ports.is_empty() || self.ports.contains(&port))
    }

    /// Canonical serialization; `Scenario::parse` of the output yields an
    /// equal scenario (the round-trip property).
    #[must_use]
    pub fn to_json(&self) -> String {
        use potemkin_json::escape;
        let mut out = String::with_capacity(512);
        out.push_str(&format!("{{\n  \"scenario\": \"{}\",\n", escape(&self.name)));
        out.push_str(&format!("  \"protocol\": \"{}\",\n", self.protocol.name()));
        let ports: Vec<String> = self.ports.iter().map(ToString::to_string).collect();
        out.push_str(&format!("  \"ports\": [{}],\n", ports.join(", ")));
        out.push_str(&format!("  \"initial\": \"{}\",\n", escape(&self.initial)));
        out.push_str(&format!("  \"session_timeout_ms\": {},\n", self.session_timeout.as_millis()));
        out.push_str(&format!("  \"capture_marker\": \"{}\",\n", escape(&self.capture_marker)));
        out.push_str("  \"states\": [\n");
        for (i, state) in self.states.iter().enumerate() {
            out.push_str(&state_json(state));
            out.push_str(if i + 1 == self.states.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ],\n  \"drive\": [\n");
        for (i, step) in self.drive.iter().enumerate() {
            out.push_str("    { \"send\": \"");
            out.push_str(&escape(&step.send));
            out.push('"');
            if let Some(expect) = &step.expect {
                out.push_str(", \"expect\": ");
                out.push_str(&matcher_json(expect));
            }
            out.push_str(" }");
            out.push_str(if i + 1 == self.drive.len() { "\n" } else { ",\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn matcher_is_empty(m: &Matcher) -> bool {
    matches!(m, Matcher::Prefix(b) | Matcher::Contains(b) if b.is_empty())
}

fn missing(scenario: &str, field: &'static str) -> ScenarioError {
    ScenarioError::MissingField { scenario: scenario.to_string(), field }
}

fn bad(scenario: &str, field: &'static str, what: &'static str) -> ScenarioError {
    ScenarioError::BadField { scenario: scenario.to_string(), field, what }
}

fn req_str(
    value: &JsonValue,
    scenario: &str,
    field: &'static str,
) -> Result<String, ScenarioError> {
    value
        .get(field)
        .ok_or_else(|| missing(scenario, field))?
        .as_str()
        .map(ToString::to_string)
        .ok_or_else(|| bad(scenario, field, "must be a string"))
}

/// A JSON number as a non-negative integer (rejects fractions/negatives).
fn as_uint(value: &JsonValue) -> Option<u64> {
    let n = value.as_f64()?;
    if n < 0.0 || n.fract() != 0.0 || n > 2f64.powi(53) {
        return None;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    Some(n as u64)
}

fn parse_matcher(scenario: &str, value: &JsonValue) -> Result<Matcher, ScenarioError> {
    let kind = req_str(value, scenario, "kind")?;
    match kind.as_str() {
        "any" => Ok(Matcher::Any),
        "prefix" => Ok(Matcher::Prefix(req_str(value, scenario, "bytes")?)),
        "contains" => Ok(Matcher::Contains(req_str(value, scenario, "bytes")?)),
        _ => Err(bad(scenario, "kind", "must be 'prefix', 'contains', or 'any'")),
    }
}

fn parse_action(scenario: &str, value: &JsonValue) -> Result<Action, ScenarioError> {
    let respond = req_str(value, scenario, "respond")?;
    let next = req_str(value, scenario, "next")?;
    let capture = match value.get("capture") {
        None => false,
        Some(JsonValue::Bool(b)) => *b,
        Some(_) => return Err(bad(scenario, "capture", "must be a boolean")),
    };
    Ok(Action { respond, next, capture })
}

fn parse_state(scenario: &str, value: &JsonValue) -> Result<State, ScenarioError> {
    let name = req_str(value, scenario, "name")?;
    let timeout = match value.get("timeout_ms") {
        None => None,
        Some(v) => Some(SimTime::from_millis(
            as_uint(v)
                .ok_or_else(|| bad(scenario, "timeout_ms", "must be a non-negative integer"))?,
        )),
    };
    let rules = value
        .get("rules")
        .ok_or_else(|| missing(scenario, "rules"))?
        .as_array()
        .ok_or_else(|| bad(scenario, "rules", "must be an array"))?
        .iter()
        .map(|r| {
            let matcher =
                parse_matcher(scenario, r.get("match").ok_or_else(|| missing(scenario, "match"))?)?;
            Ok(Rule { matcher, action: parse_action(scenario, r)? })
        })
        .collect::<Result<Vec<Rule>, ScenarioError>>()?;
    let fallback = match value.get("fallback") {
        None => None,
        Some(v) => Some(parse_action(scenario, v)?),
    };
    Ok(State { name, timeout, rules, fallback })
}

fn parse_drive_step(scenario: &str, value: &JsonValue) -> Result<DriveStep, ScenarioError> {
    let send = req_str(value, scenario, "send")?;
    let expect = match value.get("expect") {
        None => None,
        Some(v) => Some(parse_matcher(scenario, v)?),
    };
    Ok(DriveStep { send, expect })
}

fn matcher_json(m: &Matcher) -> String {
    use potemkin_json::escape;
    match m {
        Matcher::Any => "{ \"kind\": \"any\" }".to_string(),
        Matcher::Prefix(b) => format!("{{ \"kind\": \"prefix\", \"bytes\": \"{}\" }}", escape(b)),
        Matcher::Contains(b) => {
            format!("{{ \"kind\": \"contains\", \"bytes\": \"{}\" }}", escape(b))
        }
    }
}

fn action_json(action: &Action) -> String {
    use potemkin_json::escape;
    let mut out = format!(
        "\"respond\": \"{}\", \"next\": \"{}\"",
        escape(&action.respond),
        escape(&action.next)
    );
    if action.capture {
        out.push_str(", \"capture\": true");
    }
    out
}

fn state_json(state: &State) -> String {
    use potemkin_json::escape;
    let mut out = format!("    {{ \"name\": \"{}\",\n", escape(&state.name));
    if let Some(timeout) = state.timeout {
        out.push_str(&format!("      \"timeout_ms\": {},\n", timeout.as_millis()));
    }
    out.push_str("      \"rules\": [\n");
    for (i, rule) in state.rules.iter().enumerate() {
        out.push_str(&format!(
            "        {{ \"match\": {}, {} }}",
            matcher_json(&rule.matcher),
            action_json(&rule.action)
        ));
        out.push_str(if i + 1 == state.rules.len() { "\n" } else { ",\n" });
    }
    out.push_str("      ]");
    if let Some(fallback) = &state.fallback {
        out.push_str(&format!(",\n      \"fallback\": {{ {} }}", action_json(fallback)));
    }
    out.push_str(" }");
    out
}

/// A validated collection of scenarios with unique names.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioPack {
    scenarios: Vec<Scenario>,
}

impl ScenarioPack {
    /// Wraps validated scenarios, rejecting duplicate names.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::DuplicateScenarioName`] or any per-scenario
    /// validation failure.
    pub fn new(scenarios: Vec<Scenario>) -> Result<ScenarioPack, ScenarioError> {
        let mut seen: Vec<&str> = Vec::with_capacity(scenarios.len());
        for s in &scenarios {
            s.validate()?;
            if seen.contains(&s.name.as_str()) {
                return Err(ScenarioError::DuplicateScenarioName { name: s.name.clone() });
            }
            seen.push(&s.name);
        }
        Ok(ScenarioPack { scenarios })
    }

    /// Parses one document per entry and packs them.
    ///
    /// # Errors
    ///
    /// As [`ScenarioPack::new`] plus per-document parse errors.
    pub fn parse_many<S: AsRef<str>>(docs: &[S]) -> Result<ScenarioPack, ScenarioError> {
        let scenarios = docs
            .iter()
            .map(|d| Scenario::parse(d.as_ref()))
            .collect::<Result<Vec<Scenario>, _>>()?;
        ScenarioPack::new(scenarios)
    }

    /// The scenarios, in pack order.
    #[must_use]
    pub fn scenarios(&self) -> &[Scenario] {
        &self.scenarios
    }

    /// The first scenario (in pack order) claiming `(protocol, port)` —
    /// pack order is the deterministic tie-break between overlapping
    /// claims.
    #[must_use]
    pub(crate) fn select(&self, protocol: Protocol, port: u16) -> Option<(usize, &Scenario)> {
        self.scenarios.iter().enumerate().find(|(_, s)| s.claims(protocol, port))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> &'static str {
        r#"
        // a tiny two-state SMTP echo
        {
          "scenario": "mini-smtp",
          "protocol": "smtp",
          "ports": [25],
          "initial": "greet",
          "session_timeout_ms": 60000,
          "capture_marker": "X-MARKER",
          "states": [
            { "name": "greet",
              "timeout_ms": 5000,
              "rules": [
                { "match": { "kind": "prefix", "bytes": "HELO" },
                  "respond": "250 {host} ok", "next": "data" }
              ],
              "fallback": { "respond": "500 ?", "next": "greet" } },
            { "name": "data",
              "rules": [
                { "match": { "kind": "contains", "bytes": "X-MARKER" },
                  "respond": "250 queued", "next": "greet", "capture": true }
              ] }
          ],
          "drive": [
            { "send": "HELO evil", "expect": { "kind": "prefix", "bytes": "250" } },
            { "send": "X-MARKER payload" }
          ]
        }
        "#
    }

    #[test]
    fn parses_and_round_trips() {
        let s = Scenario::parse(doc()).unwrap();
        assert_eq!(s.name, "mini-smtp");
        assert_eq!(s.protocol, Protocol::Smtp);
        assert_eq!(s.ports, vec![25]);
        assert_eq!(s.session_timeout, SimTime::from_millis(60_000));
        assert_eq!(s.states.len(), 2);
        assert_eq!(s.states[0].timeout, Some(SimTime::from_millis(5_000)));
        assert!(s.states[1].rules[0].action.capture);
        assert_eq!(s.drive.len(), 2);
        let round_tripped = Scenario::parse(&s.to_json()).unwrap();
        assert_eq!(round_tripped, s);
    }

    #[test]
    fn unknown_state_reference_is_typed() {
        let broken = doc().replace("\"next\": \"data\"", "\"next\": \"nowhere\"");
        match Scenario::parse(&broken) {
            Err(ScenarioError::UnknownStateRef { state, referenced, .. }) => {
                assert_eq!(state, "greet");
                assert_eq!(referenced, "nowhere");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_match_rule_is_typed() {
        let broken = doc().replace("\"bytes\": \"HELO\"", "\"bytes\": \"\"");
        assert!(matches!(
            Scenario::parse(&broken),
            Err(ScenarioError::EmptyMatchRule { ref state, .. }) if state == "greet"
        ));
    }

    #[test]
    fn truncated_document_is_a_json_error() {
        let text = doc();
        let cut = &text[..text.len() / 2];
        assert!(matches!(Scenario::parse(cut), Err(ScenarioError::Json(_))));
    }

    #[test]
    fn duplicate_names_rejected_at_pack_level() {
        let err = ScenarioPack::parse_many(&[doc(), doc()]).unwrap_err();
        assert!(
            matches!(err, ScenarioError::DuplicateScenarioName { ref name } if name == "mini-smtp")
        );
    }

    #[test]
    fn selection_prefers_pack_order() {
        let second = doc().replace("mini-smtp", "mini-smtp-2");
        let pack = ScenarioPack::parse_many(&[doc().to_string(), second]).unwrap();
        let (idx, s) = pack.select(Protocol::Smtp, 25).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(s.name, "mini-smtp");
        assert!(pack.select(Protocol::Http, 80).is_none());
        assert!(pack.select(Protocol::Smtp, 26).is_none(), "port list is exclusive");
    }

    #[test]
    fn missing_fields_are_named() {
        let broken = doc().replace("\"initial\": \"greet\",", "");
        assert!(matches!(
            Scenario::parse(&broken),
            Err(ScenarioError::MissingField { field: "initial", .. })
        ));
    }

    #[test]
    fn unknown_protocol_is_typed() {
        let broken = doc().replace("\"protocol\": \"smtp\"", "\"protocol\": \"gopher\"");
        assert!(matches!(
            Scenario::parse(&broken),
            Err(ScenarioError::UnknownProtocol { ref protocol, .. }) if protocol == "gopher"
        ));
    }
}
