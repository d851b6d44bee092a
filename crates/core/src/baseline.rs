//! The low-interaction baseline responder.
//!
//! The paper motivates high-interaction honeyfarms by contrast with
//! honeyd-style scripted responders: cheap enough to cover millions of
//! addresses, but only able to follow an exploit as far as their scripts
//! anticipate. [`LowInteractionResponder`] models exactly that — a scripted
//! service emulation with a fixed dialogue depth — so the fidelity
//! experiment can race it against a Potemkin VM on the same exploit.

use potemkin_workload::dialogue::{DialogueOutcome, DialogueRequest, ExploitScript};

/// A honeyd-style scripted responder.
#[derive(Clone, Debug)]
pub struct LowInteractionResponder {
    scripted_depth: u8,
    /// Ports the emulation pretends to serve.
    open_ports: Vec<u16>,
    answered: u64,
    stalled: u64,
}

impl LowInteractionResponder {
    /// Creates a responder whose scripts cover `scripted_depth` rounds on
    /// the given ports.
    #[must_use]
    pub fn new(scripted_depth: u8, open_ports: Vec<u16>) -> Self {
        LowInteractionResponder { scripted_depth, open_ports, answered: 0, stalled: 0 }
    }

    /// Whether the emulation serves `port`.
    #[must_use]
    pub(crate) fn serves(&self, port: u16) -> bool {
        self.open_ports.contains(&port)
    }

    /// Responds to one dialogue request, or `None` once past the scripted
    /// depth (the connection hangs/resets — the emulation has no idea what
    /// to say).
    pub(crate) fn respond(&mut self, request: &DialogueRequest) -> Option<Vec<u8>> {
        if request.round < self.scripted_depth {
            self.answered += 1;
            Some(format!("scripted-response-{}", request.round).into_bytes())
        } else {
            self.stalled += 1;
            None
        }
    }

    /// Drives a whole exploit against this responder.
    ///
    /// Returns the outcome (the payload is only captured when the script
    /// depth covers the exploit depth — and real exploits are built against
    /// real services, so in practice it never does).
    pub fn race(&mut self, exploit: &ExploitScript) -> DialogueOutcome {
        if !self.serves(exploit.port()) {
            return DialogueOutcome::StalledAt { rounds: 0 };
        }
        exploit.drive(|req| self.respond(req))
    }
}

/// Races an exploit against a high-interaction responder (a real guest):
/// every round is answered, so the payload is always captured.
#[must_use]
pub fn race_high_interaction(exploit: &ExploitScript) -> DialogueOutcome {
    exploit.drive(|req| Some(format!("real-service-response-{}", req.round).into_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exploit(depth: u8) -> ExploitScript {
        ExploitScript::new("test", 445, depth, b"PAYLOAD")
    }

    #[test]
    fn deep_exploit_defeats_shallow_script() {
        let mut low = LowInteractionResponder::new(2, vec![445]);
        let outcome = low.race(&exploit(3));
        assert_eq!(outcome, DialogueOutcome::StalledAt { rounds: 2 });
        assert!(!outcome.captured());
        assert_eq!((low.answered, low.stalled), (2, 1));
    }

    #[test]
    fn shallow_exploit_fools_the_script_too() {
        // When the exploit needs fewer rounds than the script knows, even
        // the low-interaction responder "captures" it — the paper's point is
        // that real exploits are deeper than scripts.
        let mut low = LowInteractionResponder::new(3, vec![445]);
        assert!(low.race(&exploit(2)).captured());
    }

    #[test]
    fn unserved_port_stalls_immediately() {
        let mut low = LowInteractionResponder::new(5, vec![80]);
        assert_eq!(low.race(&exploit(1)), DialogueOutcome::StalledAt { rounds: 0 });
        assert!(!low.serves(445));
    }

    #[test]
    fn high_interaction_always_captures() {
        for depth in 1..=8 {
            let outcome = race_high_interaction(&exploit(depth));
            match outcome {
                DialogueOutcome::PayloadDelivered { payload, rounds } => {
                    assert_eq!(payload, b"PAYLOAD");
                    assert_eq!(rounds, depth);
                }
                other => panic!("depth {depth}: unexpected {other:?}"),
            }
        }
    }
}
