//! Span aggregation: per-name latency statistics.
//!
//! [`SpanAggregator`] replays a drained event stream, pairs span
//! begin/end events per lane, and folds the durations into per-name
//! statistics — the observed counterpart of the cost model's predicted
//! stage table (the paper's Table 1 shape, rebuilt from what actually
//! happened during a run).

use std::collections::BTreeMap;

use potemkin_sim::SimTime;

use crate::event::{TraceEvent, TraceEventKind};
use crate::histogram::LogHistogram;

/// Aggregated statistics for one span name.
#[derive(Clone, Debug)]
pub struct SpanStats {
    /// Completed instances.
    pub count: u64,
    /// Sum of durations (sim-time).
    pub(crate) total: SimTime,
    /// Duration distribution in microseconds.
    pub(crate) hist_us: LogHistogram,
}

impl SpanStats {
    fn new() -> Self {
        SpanStats { count: 0, total: SimTime::ZERO, hist_us: LogHistogram::new() }
    }

    /// Mean duration over completed instances.
    #[must_use]
    pub fn mean(&self) -> SimTime {
        self.total.as_nanos().checked_div(self.count).map_or(SimTime::ZERO, SimTime::from_nanos)
    }
}

/// Folds drained trace events into per-span-name statistics.
#[derive(Debug, Default)]
pub struct SpanAggregator {
    spans: BTreeMap<&'static str, SpanStats>,
    /// Span ends whose begin was lost (flight-recorder overwrite).
    unmatched_ends: u64,
    /// Span begins never closed within the ingested stream.
    unclosed_begins: u64,
}

impl SpanAggregator {
    /// An empty aggregator.
    #[must_use]
    pub fn new() -> Self {
        SpanAggregator::default()
    }

    /// Ingests a batch of events (any order; they are re-sorted into
    /// per-lane sequence order internally). Begin/end pairs orphaned by
    /// ring overwrite are counted, not mis-paired.
    pub fn ingest(&mut self, events: &[TraceEvent]) {
        let mut refs: Vec<&TraceEvent> = events.iter().collect();
        refs.sort_by_key(|e| (e.lane, e.seq));
        // lane -> open spans as (span id, begin sim-time), innermost last.
        let mut open: BTreeMap<u32, Vec<(u64, SimTime)>> = BTreeMap::new();
        for event in refs {
            match event.kind {
                TraceEventKind::SpanBegin { id, .. } => {
                    open.entry(event.lane).or_default().push((id.0, event.at));
                }
                TraceEventKind::SpanEnd { id, name } => {
                    let stack = open.entry(event.lane).or_default();
                    if let Some(pos) = stack.iter().rposition(|&(open_id, _)| open_id == id.0) {
                        let (_, began) = stack.remove(pos);
                        let duration = event.at.saturating_sub(began);
                        let stats = self.spans.entry(name).or_insert_with(SpanStats::new);
                        stats.count += 1;
                        stats.total = stats.total.saturating_add(duration);
                        stats.hist_us.record(duration.as_micros());
                    } else {
                        self.unmatched_ends += 1;
                    }
                }
                TraceEventKind::Instant { .. } | TraceEventKind::Counter { .. } => {}
            }
        }
        self.unclosed_begins += open.values().map(|s| s.len() as u64).sum::<u64>();
    }

    /// Statistics for one span name.
    #[must_use]
    pub fn stats(&self, name: &str) -> Option<&SpanStats> {
        self.spans.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracer::{TraceConfig, Tracer};

    #[test]
    fn pairs_spans_and_computes_means() {
        let mut t = Tracer::new(0, TraceConfig::unbounded());
        for i in 0..4u64 {
            let sp = t.begin(SimTime::from_millis(10 * i), "stage");
            t.end(SimTime::from_millis(10 * i + 2), sp);
        }
        let mut agg = SpanAggregator::new();
        agg.ingest(&t.drain());
        let s = agg.stats("stage").expect("stage observed");
        assert_eq!(s.count, 4);
        assert_eq!(s.mean(), SimTime::from_millis(2));
        assert_eq!(s.total, SimTime::from_millis(8));
        assert_eq!(agg.unmatched_ends, 0);
        assert_eq!(agg.unclosed_begins, 0);
    }

    #[test]
    fn orphaned_ends_are_counted_not_mispaired() {
        let mut t = Tracer::new(0, TraceConfig::flight(1));
        let sp = t.begin(SimTime::ZERO, "lost");
        t.end(SimTime::from_secs(1), sp);
        // Capacity 1: the begin was overwritten by the end.
        let mut agg = SpanAggregator::new();
        agg.ingest(&t.drain());
        assert!(agg.stats("lost").is_none());
        assert_eq!(agg.unmatched_ends, 1);
    }
}
