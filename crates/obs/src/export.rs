//! Trace export: Chrome `trace_event` JSON.
//!
//! The format targets `chrome://tracing` / Perfetto: one lane per tracer
//! (farm, gateway, each shard worker) rendered as a named thread, spans as
//! `"X"` complete events with microsecond timestamps in sim-time.

use std::fmt::Write as _;

use potemkin_json::escape;

use crate::event::{TraceEvent, TraceEventKind};

/// One paired span interval, recovered from begin/end events.
#[derive(Clone, Debug)]
struct Complete {
    lane: u32,
    begin_seq: u64,
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
}

/// Pairs begin/end events per lane. Orphans (a begin with no end, or an
/// end whose begin was overwritten in flight mode) are skipped rather
/// than rendered as broken intervals.
fn pair_spans(events: &[TraceEvent]) -> Vec<Complete> {
    let mut refs: Vec<&TraceEvent> = events.iter().collect();
    refs.sort_by_key(|e| (e.lane, e.seq));
    let mut complete = Vec::new();
    // Open spans on the current lane: (id, begin_seq, name, start_ns).
    let mut open: Vec<(u64, u64, &'static str, u64)> = Vec::new();
    let mut current_lane: Option<u32> = None;
    for event in refs {
        if current_lane != Some(event.lane) {
            open.clear();
            current_lane = Some(event.lane);
        }
        match event.kind {
            TraceEventKind::SpanBegin { id, name, .. } => {
                open.push((id.0, event.seq, name, event.at.as_nanos()));
            }
            TraceEventKind::SpanEnd { id, .. } => {
                if let Some(pos) = open.iter().rposition(|&(open_id, ..)| open_id == id.0) {
                    let (_, begin_seq, name, start_ns) = open.remove(pos);
                    complete.push(Complete {
                        lane: event.lane,
                        begin_seq,
                        name,
                        start_ns,
                        dur_ns: event.at.as_nanos().saturating_sub(start_ns),
                    });
                }
            }
            TraceEventKind::Instant { .. } | TraceEventKind::Counter { .. } => {}
        }
    }
    complete.sort_by_key(|c| (c.lane, c.begin_seq));
    complete
}

fn push_us(out: &mut String, ns: u64) {
    // Microseconds with nanosecond fraction; Chrome's ts/dur unit is us.
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

/// Renders events as a Chrome `trace_event` JSON document.
///
/// `lane_names` labels lanes in the viewer (unknown lanes render by
/// number). Each tracer enforces stack discipline at record time, so
/// begin/end events pair LIFO per lane; intervals nest whenever child
/// spans close no later than their parents (a provisioning span tree
/// replayed inside a zero-duration dispatch instant is the one deliberate
/// exception — it renders as an overlapping slice).
#[must_use]
pub fn chrome_trace_json(events: &[TraceEvent], lane_names: &[(u32, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push_str(",\n");
        }
    };
    for (lane, name) in lane_names {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{},\
             \"args\":{{\"name\":\"{}\"}}}}",
            lane,
            escape(name)
        );
    }
    for span in pair_spans(events) {
        sep(&mut out);
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"potemkin\",\"ph\":\"X\",\"ts\":",
            escape(span.name)
        );
        push_us(&mut out, span.start_ns);
        out.push_str(",\"dur\":");
        push_us(&mut out, span.dur_ns);
        let _ = write!(out, ",\"pid\":0,\"tid\":{}}}", span.lane);
    }
    let mut sorted: Vec<&TraceEvent> = events.iter().collect();
    sorted.sort_by_key(|e| (e.lane, e.seq));
    for event in sorted {
        match event.kind {
            TraceEventKind::Instant { name, value } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"potemkin\",\"ph\":\"i\",\"ts\":",
                    escape(name)
                );
                push_us(&mut out, event.at.as_nanos());
                let _ = write!(
                    out,
                    ",\"pid\":0,\"tid\":{},\"s\":\"t\",\"args\":{{\"value\":{}}}}}",
                    event.lane, value
                );
            }
            TraceEventKind::Counter { name, value } => {
                sep(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"cat\":\"potemkin\",\"ph\":\"C\",\"ts\":",
                    escape(name)
                );
                push_us(&mut out, event.at.as_nanos());
                let _ = write!(
                    out,
                    ",\"pid\":0,\"tid\":{},\"args\":{{\"value\":{}}}}}",
                    event.lane, value
                );
            }
            TraceEventKind::SpanBegin { .. } | TraceEventKind::SpanEnd { .. } => {}
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{TraceConfig, Tracer};
    use potemkin_json::JsonValue;
    use potemkin_sim::SimTime;

    fn sample_events() -> Vec<TraceEvent> {
        let mut t = Tracer::new(3, TraceConfig::unbounded());
        let outer = t.begin(SimTime::from_micros(10), "outer");
        let inner = t.begin(SimTime::from_micros(20), "inner");
        t.instant(SimTime::from_micros(25), "ping", 7);
        t.end(SimTime::from_micros(30), inner);
        t.counter(SimTime::from_micros(35), "live", 2);
        t.end(SimTime::from_micros(40), outer);
        t.drain()
    }

    #[test]
    fn chrome_export_is_valid_json_with_nested_spans() {
        let doc = chrome_trace_json(&sample_events(), &[(3, "farm".to_string())]);
        let v = JsonValue::parse(&doc).expect("valid JSON");
        let events = v.get("traceEvents").and_then(JsonValue::as_array).expect("traceEvents");
        let xs: Vec<&JsonValue> = events
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        // Output order is begin order: outer first, inner nested within it.
        let ts = |e: &JsonValue| e.get("ts").and_then(JsonValue::as_f64).unwrap();
        let dur = |e: &JsonValue| e.get("dur").and_then(JsonValue::as_f64).unwrap();
        assert!(ts(xs[1]) >= ts(xs[0]));
        assert!(ts(xs[1]) + dur(xs[1]) <= ts(xs[0]) + dur(xs[0]));
        assert!(events.iter().any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("M")));
        assert!(events.iter().any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("i")));
        assert!(events.iter().any(|e| e.get("ph").and_then(JsonValue::as_str) == Some("C")));
    }

    #[test]
    fn orphaned_spans_are_skipped() {
        let mut t = Tracer::new(0, TraceConfig::unbounded());
        let _never_ended = t.begin(SimTime::ZERO, "open");
        let done = t.begin(SimTime::from_micros(1), "done");
        t.end(SimTime::from_micros(2), done);
        let doc = chrome_trace_json(&t.drain(), &[]);
        let v = JsonValue::parse(&doc).unwrap();
        let xs = v
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .filter(|e| e.get("ph").and_then(JsonValue::as_str) == Some("X"))
            .count();
        assert_eq!(xs, 1, "only the completed span exports");
    }
}
