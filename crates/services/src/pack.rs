//! The built-in scenario pack shipped with the repository.
//!
//! Four personalities spanning the attack classes the paper's farm was
//! built to observe, each defined declaratively under
//! `examples/scenarios/` and compiled in via `include_str!` so the pack
//! is always available — to the `potemkin services` CLI, the E17
//! experiment, and the property tests — without filesystem access.

use crate::scenario::{ScenarioError, ScenarioPack};

/// The SMTP worm-dropper scenario source.
pub(crate) const WORM_DROPPER: &str = include_str!("../../../examples/scenarios/worm_dropper.json");
/// The Telnet botnet C2 check-in scenario source.
pub(crate) const BOTNET_C2: &str = include_str!("../../../examples/scenarios/botnet_c2.json");
/// The SSH credential-stuffing scenario source.
pub(crate) const CREDENTIAL_STUFFING: &str =
    include_str!("../../../examples/scenarios/credential_stuffing.json");
/// The multi-stage HTTP dropper scenario source.
pub(crate) const MULTI_STAGE_DROPPER: &str =
    include_str!("../../../examples/scenarios/multi_stage_dropper.json");

/// Sources of the four built-in scenarios, in pack order.
pub(crate) const BUILTIN_SOURCES: [&str; 4] =
    [WORM_DROPPER, BOTNET_C2, CREDENTIAL_STUFFING, MULTI_STAGE_DROPPER];

/// Parses and validates the built-in four-scenario pack.
///
/// # Errors
///
/// Never in a correct build: the sources are compiled in and covered by
/// tests; an error means the checked-in files are broken.
pub fn builtin() -> Result<ScenarioPack, ScenarioError> {
    ScenarioPack::parse_many(&BUILTIN_SOURCES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::Protocol;
    use crate::scenario::Scenario;

    #[test]
    fn builtin_pack_loads_and_covers_four_protocols() {
        let pack = builtin().unwrap();
        assert_eq!(pack.scenarios().len(), 4);
        let names: Vec<&str> = pack.scenarios().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["worm-dropper", "botnet-c2", "credential-stuffing", "multi-stage-dropper"]
        );
        assert!(pack.select(Protocol::Smtp, 25).is_some());
        assert!(pack.select(Protocol::Telnet, 23).is_some());
        assert!(pack.select(Protocol::Ssh, 22).is_some());
        assert!(pack.select(Protocol::Http, 80).is_some());
    }

    #[test]
    fn builtin_scenarios_round_trip() {
        for scenario in builtin().unwrap().scenarios() {
            let again = Scenario::parse(&scenario.to_json()).unwrap();
            assert_eq!(&again, scenario);
        }
    }

    #[test]
    fn every_builtin_drive_completes_against_its_own_machine() {
        // The drive must walk the state machine to a capture: replay each
        // step through the states by hand and check expects.
        use crate::engine::{ServiceEngine, ServicesConfig};
        use potemkin_sim::SimTime;
        use std::net::Ipv4Addr;

        let attacker = Ipv4Addr::new(198, 51, 100, 1);
        let host = Ipv4Addr::new(10, 0, 0, 1);
        for scenario in builtin().unwrap().scenarios() {
            let pack = ScenarioPack::new(vec![scenario.clone()]).unwrap();
            let mut engine = ServiceEngine::new(&ServicesConfig::new(pack));
            let port = scenario.ports[0];
            let mut captured = false;
            for (i, step) in scenario.drive.iter().enumerate() {
                let now = SimTime::from_millis(100 * (i as u64 + 1));
                let send = crate::engine::render(&step.send, host, attacker, i as u64);
                let out = engine
                    .on_request(now, attacker, host, port, &send)
                    .unwrap_or_else(|| panic!("{}: step {i} unclaimed", scenario.name));
                assert!(!out.stalled, "{}: step {i} stalled", scenario.name);
                if let Some(expect) = &step.expect {
                    assert!(
                        expect.matches(&out.response),
                        "{}: step {i} response {:?} fails expect",
                        scenario.name,
                        String::from_utf8_lossy(&out.response)
                    );
                }
                captured |= out.capture.is_some();
            }
            assert!(captured, "{}: drive never triggered capture", scenario.name);
            let payload_step =
                scenario.drive.iter().any(|s| s.send.contains(&scenario.capture_marker));
            assert!(payload_step, "{}: drive carries no capture marker", scenario.name);
        }
    }

    #[test]
    fn annotated_example_parses() {
        let source = include_str!("../../../examples/scenario_annotated.json");
        let scenario = Scenario::parse(source).unwrap();
        assert_eq!(scenario.name, "annotated-echo");
        assert_eq!(scenario.protocol, Protocol::Smtp);
    }
}
