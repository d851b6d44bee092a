//! Protocol detection from the first payload bytes of a session.
//!
//! Real services announce themselves: SSH clients lead with a version
//! string, HTTP with a request line, SMTP with a `HELO`/`EHLO`, Telnet
//! with IAC negotiation or a bare login attempt. The detector classifies
//! an inbound session from those first bytes alone so a listener bound to
//! an unexpected port still gets the right personality; the destination
//! port is only a fallback hint. Classification is a pure function of
//! `(first_bytes, port_hint)` — no state, no randomness — so a sharded
//! replay classifies identically at any worker count.

use std::fmt;

/// An application protocol the interaction plane can impersonate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Protocol {
    /// Secure shell (banner `SSH-`).
    Ssh,
    /// HTTP (request-line verbs).
    Http,
    /// SMTP (`HELO`/`EHLO`/`MAIL`/`RCPT`).
    Smtp,
    /// Telnet (IAC negotiation or bare login chatter).
    Telnet,
    /// Nothing recognizable; scenarios may still claim it by port.
    Unknown,
}

impl Protocol {
    /// The canonical lowercase name used by the scenario DSL.
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            Protocol::Ssh => "ssh",
            Protocol::Http => "http",
            Protocol::Smtp => "smtp",
            Protocol::Telnet => "telnet",
            Protocol::Unknown => "unknown",
        }
    }

    /// Parses a DSL protocol name.
    #[must_use]
    pub(crate) fn from_name(name: &str) -> Option<Protocol> {
        match name {
            "ssh" => Some(Protocol::Ssh),
            "http" => Some(Protocol::Http),
            "smtp" => Some(Protocol::Smtp),
            "telnet" => Some(Protocol::Telnet),
            "unknown" => Some(Protocol::Unknown),
            _ => None,
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The well-known-port fallback used when no banner heuristic fires.
#[must_use]
pub(crate) fn port_hint(port: u16) -> Protocol {
    match port {
        22 => Protocol::Ssh,
        80 | 8000 | 8080 => Protocol::Http,
        25 | 587 => Protocol::Smtp,
        23 => Protocol::Telnet,
        _ => Protocol::Unknown,
    }
}

/// Classifies a session from its first payload bytes, falling back to the
/// destination port.
///
/// Banner heuristics are checked in a fixed priority order — SSH, HTTP,
/// SMTP, Telnet — so inputs matching several heuristics (e.g. a Telnet
/// session whose first line happens to start with `GET `) classify the
/// same way everywhere: the tie-break is part of the deterministic
/// contract, not an implementation accident.
#[must_use]
pub fn classify(first_bytes: &[u8], port: u16) -> Protocol {
    if first_bytes.starts_with(b"SSH-") {
        return Protocol::Ssh;
    }
    const HTTP_VERBS: [&[u8]; 6] = [b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELETE ", b"OPTIONS "];
    if HTTP_VERBS.iter().any(|v| first_bytes.starts_with(v)) {
        return Protocol::Http;
    }
    const SMTP_VERBS: [&[u8]; 4] = [b"HELO", b"EHLO", b"MAIL FROM", b"RCPT TO"];
    if SMTP_VERBS.iter().any(|v| first_bytes.starts_with(v)) {
        return Protocol::Smtp;
    }
    // Telnet: IAC (0xFF) option negotiation, or bare login chatter.
    if first_bytes.first() == Some(&0xFF)
        || first_bytes.starts_with(b"USER ")
        || first_bytes.starts_with(b"login:")
    {
        return Protocol::Telnet;
    }
    port_hint(port)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banners_beat_ports() {
        assert_eq!(classify(b"SSH-2.0-OpenSSH_4.2", 80), Protocol::Ssh);
        assert_eq!(classify(b"GET / HTTP/1.0\r\n", 22), Protocol::Http);
        assert_eq!(classify(b"EHLO mx.example", 23), Protocol::Smtp);
        assert_eq!(classify(b"\xFF\xFB\x01", 80), Protocol::Telnet);
        assert_eq!(classify(b"USER root", 2323), Protocol::Telnet);
    }

    #[test]
    fn port_fallback_covers_the_well_known_set() {
        assert_eq!(classify(b"\x01\x02\x03", 22), Protocol::Ssh);
        assert_eq!(classify(b"garbage", 8080), Protocol::Http);
        assert_eq!(classify(b"garbage", 587), Protocol::Smtp);
        assert_eq!(classify(b"garbage", 23), Protocol::Telnet);
        assert_eq!(classify(b"garbage", 31337), Protocol::Unknown);
    }

    #[test]
    fn priority_order_is_fixed() {
        // "GET " also prefix-matches nothing else, but an SSH banner that
        // *contains* an HTTP verb still classifies SSH: prefix rules only.
        assert_eq!(classify(b"SSH-GET /", 80), Protocol::Ssh);
    }

    #[test]
    fn names_round_trip() {
        for p in
            [Protocol::Ssh, Protocol::Http, Protocol::Smtp, Protocol::Telnet, Protocol::Unknown]
        {
            assert_eq!(Protocol::from_name(p.name()), Some(p));
            assert_eq!(p.to_string(), p.name());
        }
        assert_eq!(Protocol::from_name("gopher"), None);
    }
}
