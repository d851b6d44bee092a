//! Multi-stage exploit dialogues.
//!
//! The fidelity argument in the paper is that low-interaction honeypots
//! (scripted responders à la honeyd) cannot carry an exploit past the depth
//! their scripts anticipate, while a real OS image converses indefinitely —
//! so only a high-interaction farm observes the actual payload.
//! [`ExploitScript`] models the attacker's side of an exploit as a fixed
//! sequence of request/response rounds ending in payload delivery; the
//! responder's side is scored by how many rounds it sustains.

/// The attacker's exploit dialogue: `depth` request/response rounds, then
/// the payload.
///
/// Fields are owned so dialogues can be built from parsed scenario data
/// (the `potemkin-services` DSL) as easily as from the static worm presets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploitScript {
    name: String,
    port: u16,
    depth: u8,
    payload_marker: Vec<u8>,
}

/// One attacker request within a dialogue.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DialogueRequest {
    /// Round number (0-based).
    pub round: u8,
    /// The request bytes.
    pub(crate) data: Vec<u8>,
    /// Whether this request carries the exploit payload (final round).
    pub(crate) is_payload: bool,
}

/// Result of driving a dialogue against a responder.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DialogueOutcome {
    /// Every round was answered; the payload executed. The honeypot
    /// captured `payload`.
    PayloadDelivered {
        /// The captured payload bytes.
        payload: Vec<u8>,
        /// Rounds completed (== depth).
        rounds: u8,
    },
    /// The responder stopped answering after `rounds` rounds; no payload
    /// was observed.
    StalledAt {
        /// Rounds that were answered.
        rounds: u8,
    },
}

impl DialogueOutcome {
    /// Whether the exploit payload was captured.
    #[must_use]
    pub fn captured(&self) -> bool {
        matches!(self, DialogueOutcome::PayloadDelivered { .. })
    }
}

impl ExploitScript {
    /// Creates a script. Accepts both `&'static` literals (the worm
    /// presets) and owned data from parsed scenarios.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        port: u16,
        depth: u8,
        payload_marker: impl Into<Vec<u8>>,
    ) -> Self {
        ExploitScript {
            name: name.into(),
            port,
            depth: depth.max(1),
            payload_marker: payload_marker.into(),
        }
    }

    /// The exploit's name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The exploited port.
    #[must_use]
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Rounds required (≥ 1).
    #[must_use]
    pub fn depth(&self) -> u8 {
        self.depth
    }

    /// The request for round `round` (`None` past the end).
    #[must_use]
    pub(crate) fn request(&self, round: u8) -> Option<DialogueRequest> {
        if round >= self.depth {
            return None;
        }
        let is_payload = round + 1 == self.depth;
        let mut data = format!("{}:round{}:", self.name, round).into_bytes();
        if is_payload {
            data.extend_from_slice(&self.payload_marker);
        }
        Some(DialogueRequest { round, data, is_payload })
    }

    /// Drives the dialogue against a responder closure.
    ///
    /// The responder receives each request's bytes and returns `Some`
    /// response bytes while it can keep up, or `None` when its script runs
    /// out. The exploit succeeds only if every round up to the payload is
    /// answered. (The payload round itself must also be *accepted* — a
    /// responder returning `None` on it means a reset connection.)
    pub fn drive<F>(&self, mut responder: F) -> DialogueOutcome
    where
        F: FnMut(&DialogueRequest) -> Option<Vec<u8>>,
    {
        let mut answered = 0;
        for round in 0..self.depth {
            let req = self.request(round).expect("round < depth");
            match responder(&req) {
                Some(_) => answered += 1,
                None => return DialogueOutcome::StalledAt { rounds: answered },
            }
        }
        DialogueOutcome::PayloadDelivered { payload: self.payload_marker.clone(), rounds: answered }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script(depth: u8) -> ExploitScript {
        ExploitScript::new("test-sploit", 445, depth, b"MARKER")
    }

    #[test]
    fn requests_sequence_and_payload_flag() {
        let s = script(3);
        for r in 0..3u8 {
            let req = s.request(r).unwrap();
            assert_eq!(req.round, r);
            assert_eq!(req.is_payload, r == 2);
            if req.is_payload {
                assert!(req.data.ends_with(b"MARKER"));
            }
        }
        assert!(s.request(3).is_none());
    }

    #[test]
    fn full_responder_captures_payload() {
        let s = script(3);
        let outcome = s.drive(|req| Some(format!("ack{}", req.round).into_bytes()));
        assert!(outcome.captured());
        match outcome {
            DialogueOutcome::PayloadDelivered { payload, rounds } => {
                assert_eq!(payload, b"MARKER");
                assert_eq!(rounds, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn shallow_responder_stalls() {
        let s = script(4);
        // Scripted responder that only knows 2 rounds.
        let outcome = s.drive(|req| (req.round < 2).then(|| b"ok".to_vec()));
        assert_eq!(outcome, DialogueOutcome::StalledAt { rounds: 2 });
        assert!(!outcome.captured());
    }

    #[test]
    fn depth_one_is_single_packet_exploit() {
        let s = script(1);
        let req = s.request(0).unwrap();
        assert!(req.is_payload);
        let outcome = s.drive(|_| Some(vec![]));
        assert!(outcome.captured());
    }

    #[test]
    fn zero_depth_clamped_to_one() {
        let s = ExploitScript::new("x", 1, 0, b"m");
        assert_eq!(s.depth(), 1);
    }

    #[test]
    fn mute_responder_captures_nothing() {
        let s = script(2);
        let outcome = s.drive(|_| None);
        assert_eq!(outcome, DialogueOutcome::StalledAt { rounds: 0 });
    }
}
