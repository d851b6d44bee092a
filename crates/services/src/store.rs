//! The session capture pipeline: finalized session records and where
//! they go.
//!
//! Every session that closes — completed, evicted, or drained at end of
//! run — is finalized into a [`SessionRecord`] and handed to a
//! [`SessionStore`]. The in-memory store backs the report and metrics
//! path; the JSONL store streams records to disk for offline forensics
//! (one self-contained JSON object per line, binary bytes escaped).

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::net::Ipv4Addr;
use std::path::Path;

use potemkin_json::escape;
use potemkin_sim::SimTime;

use crate::detect::Protocol;
use crate::session::{Session, SessionKey, TranscriptEntry};

/// A finalized session: the durable record of one conversation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionRecord {
    /// The remote attacker.
    pub(crate) attacker: Ipv4Addr,
    /// The honeypot address spoken to.
    pub(crate) local: Ipv4Addr,
    /// Destination port of the conversation.
    pub(crate) port: u16,
    /// Scenario name that handled the session.
    pub(crate) scenario: String,
    /// Protocol the session classified as.
    pub(crate) protocol: Protocol,
    /// When the session opened.
    pub(crate) opened_at: SimTime,
    /// Last request seen.
    pub(crate) last_activity: SimTime,
    /// Rounds sustained.
    pub(crate) rounds: u64,
    /// Payloads captured.
    pub(crate) payloads: u64,
    /// Stall events (unmatched requests, timeout resets).
    pub(crate) stalls: u64,
    /// The wire transcript (possibly truncated to the transcript limit).
    pub(crate) transcript: Vec<TranscriptEntry>,
}

impl SessionRecord {
    /// Builds a record from a closing session.
    #[must_use]
    pub(crate) fn from_session(
        key: &SessionKey,
        session: Session,
        scenario: &str,
        protocol: Protocol,
    ) -> SessionRecord {
        SessionRecord {
            attacker: key.attacker,
            local: session.local,
            port: session.port,
            scenario: scenario.to_string(),
            protocol,
            opened_at: session.opened_at,
            last_activity: session.last_activity,
            rounds: session.rounds,
            payloads: session.payloads,
            stalls: session.stalls,
            transcript: session.transcript,
        }
    }

    /// One self-contained JSON object (no trailing newline). Bytes that
    /// are not printable ASCII are escaped by [`potemkin_json::escape`]'s
    /// `\u` rules after a lossy UTF-8 pass.
    #[must_use]
    pub(crate) fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(256);
        let _ = write!(
            out,
            "{{\"attacker\": \"{}\", \"local\": \"{}\", \"port\": {}, \"scenario\": \"{}\", \
             \"protocol\": \"{}\", \"opened_at_us\": {}, \"last_activity_us\": {}, \
             \"rounds\": {}, \"payloads\": {}, \"stalls\": {}, \"transcript\": [",
            self.attacker,
            self.local,
            self.port,
            escape(&self.scenario),
            self.protocol.name(),
            self.opened_at.as_micros(),
            self.last_activity.as_micros(),
            self.rounds,
            self.payloads,
            self.stalls,
        );
        for (i, entry) in self.transcript.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let text = String::from_utf8_lossy(&entry.data);
            let _ = write!(
                out,
                "{{\"at_us\": {}, \"dir\": \"{}\", \"data\": \"{}\"}}",
                entry.at.as_micros(),
                entry.dir.name(),
                escape(&text)
            );
        }
        out.push_str("]}");
        out
    }
}

/// Where finalized sessions go.
pub trait SessionStore {
    /// Accepts one finalized session.
    fn record(&mut self, record: &SessionRecord);
}

/// Keeps every record in memory (the default; feeds the report).
#[derive(Clone, Debug, Default)]
pub(crate) struct MemoryStore {
    records: Vec<SessionRecord>,
}

impl MemoryStore {
    /// An empty store.
    #[must_use]
    pub(crate) fn new() -> MemoryStore {
        MemoryStore::default()
    }

    /// The records accepted so far, in arrival order.
    #[must_use]
    pub(crate) fn records(&self) -> &[SessionRecord] {
        &self.records
    }
}

impl SessionStore for MemoryStore {
    fn record(&mut self, record: &SessionRecord) {
        self.records.push(record.clone());
    }
}

/// Streams records to a JSONL file, one object per line.
///
/// Write failures are counted, not panicked on: a full disk mid-run
/// degrades the capture pipeline, it must not kill the farm.
#[derive(Debug)]
pub struct JsonlStore {
    writer: BufWriter<File>,
    written: u64,
    errors: u64,
}

impl JsonlStore {
    /// Creates (truncating) the file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error if the file cannot be created.
    pub fn create(path: &Path) -> std::io::Result<JsonlStore> {
        Ok(JsonlStore { writer: BufWriter::new(File::create(path)?), written: 0, errors: 0 })
    }

    /// Records successfully written.
    #[must_use]
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Flushes buffered records to disk.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }
}

impl SessionStore for JsonlStore {
    fn record(&mut self, record: &SessionRecord) {
        let line = record.to_json_line();
        if writeln!(self.writer, "{line}").is_ok() {
            self.written += 1;
        } else {
            self.errors += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Direction;
    use potemkin_json::JsonValue;

    fn record() -> SessionRecord {
        SessionRecord {
            attacker: Ipv4Addr::new(198, 51, 100, 7),
            local: Ipv4Addr::new(10, 1, 2, 3),
            port: 25,
            scenario: "worm-dropper".to_string(),
            protocol: Protocol::Smtp,
            opened_at: SimTime::from_millis(1500),
            last_activity: SimTime::from_millis(2500),
            rounds: 4,
            payloads: 1,
            stalls: 0,
            transcript: vec![
                TranscriptEntry {
                    at: SimTime::from_millis(1500),
                    dir: Direction::Request,
                    data: b"HELO \"quoted\"".to_vec(),
                },
                TranscriptEntry {
                    at: SimTime::from_millis(1600),
                    dir: Direction::Response,
                    data: b"250 ok".to_vec(),
                },
            ],
        }
    }

    #[test]
    fn json_line_is_valid_json_with_escapes() {
        let line = record().to_json_line();
        let value = JsonValue::parse(&line).unwrap();
        assert_eq!(value.get("attacker").and_then(JsonValue::as_str), Some("198.51.100.7"));
        assert_eq!(value.get("rounds").and_then(JsonValue::as_f64), Some(4.0));
        let transcript = value.get("transcript").and_then(JsonValue::as_array).unwrap();
        assert_eq!(transcript.len(), 2);
        assert_eq!(transcript[0].get("data").and_then(JsonValue::as_str), Some("HELO \"quoted\""));
        assert_eq!(transcript[1].get("dir").and_then(JsonValue::as_str), Some("resp"));
    }

    #[test]
    fn memory_store_keeps_arrival_order() {
        let mut store = MemoryStore::new();
        let mut second = record();
        second.port = 80;
        store.record(&record());
        store.record(&second);
        assert_eq!(store.records().len(), 2);
        assert_eq!(store.records()[1].port, 80);
    }

    #[test]
    fn jsonl_store_writes_one_line_per_record() {
        let dir = std::env::temp_dir().join("potemkin-services-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sessions.jsonl");
        let mut store = JsonlStore::create(&path).unwrap();
        store.record(&record());
        store.record(&record());
        store.flush().unwrap();
        assert_eq!(store.written(), 2);
        assert_eq!(store.errors, 0);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            JsonValue::parse(line).unwrap();
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
