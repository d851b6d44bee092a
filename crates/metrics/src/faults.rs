//! Fault-injection telemetry: per-fault-class counters and latency
//! histograms.
//!
//! [`FaultLedger`] is the observability surface of the fault-injection
//! harness: every injected fault is recorded under its [`FaultClass`], and
//! the two recovery latencies the degradation experiments report — time to
//! re-bind an address after its host crashed, and added tunnel delay — are
//! accumulated in log-bucketed histograms.

use core::fmt;

use potemkin_snapshot::{Snap, SnapReader, SnapWriter, SnapshotError};

use crate::histogram::LogHistogram;

/// The classes of injected faults the harness distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// A physical server crashed.
    HostCrash,
    /// A crashed server came back online.
    HostRecovery,
    /// A flash-clone attempt failed with an injected fault.
    CloneFault,
    /// An inbound packet was dropped by a degraded tunnel.
    TunnelDrop,
    /// The gateway entered a stall window.
    GatewayStall,
}

impl FaultClass {
    /// All classes, in the canonical reporting order.
    pub const ALL: [FaultClass; 5] = [
        FaultClass::HostCrash,
        FaultClass::HostRecovery,
        FaultClass::CloneFault,
        FaultClass::TunnelDrop,
        FaultClass::GatewayStall,
    ];

    /// Stable kebab-case name (canonical-report and display key).
    #[must_use]
    pub(crate) fn name(self) -> &'static str {
        match self {
            FaultClass::HostCrash => "host-crash",
            FaultClass::HostRecovery => "host-recovery",
            FaultClass::CloneFault => "clone-fault",
            FaultClass::TunnelDrop => "tunnel-drop",
            FaultClass::GatewayStall => "gateway-stall",
        }
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Per-fault-class counters plus recovery-latency histograms.
///
/// Cloneable and mergeable so per-shard ledgers can be folded into one
/// farm-wide report after a sharded run.
#[derive(Clone)]
pub struct FaultLedger {
    counts: [u64; FaultClass::ALL.len()],
    /// Time from a host crash to an affected address being re-bound on a
    /// surviving host (microseconds) — the farm's MTTR distribution.
    rebind_latency_us: LogHistogram,
    /// Extra one-way delay injected on tunnel-degraded packets
    /// (microseconds).
    tunnel_delay_us: LogHistogram,
}

impl Default for FaultLedger {
    fn default() -> Self {
        FaultLedger::new()
    }
}

impl FaultLedger {
    /// Creates an empty ledger.
    #[must_use]
    pub fn new() -> Self {
        FaultLedger {
            counts: [0; FaultClass::ALL.len()],
            rebind_latency_us: LogHistogram::new(32),
            tunnel_delay_us: LogHistogram::new(32),
        }
    }

    fn idx(class: FaultClass) -> usize {
        FaultClass::ALL.iter().position(|&c| c == class).expect("class listed in ALL")
    }

    /// Records one occurrence of `class`.
    pub fn record(&mut self, class: FaultClass) {
        self.counts[Self::idx(class)] += 1;
    }

    /// Occurrences of `class` so far.
    #[must_use]
    pub fn count(&self, class: FaultClass) -> u64 {
        self.counts[Self::idx(class)]
    }

    /// Records one address re-bind latency (crash → re-placement), in
    /// microseconds.
    pub fn record_rebind_us(&mut self, us: u64) {
        self.rebind_latency_us.record(us);
    }

    /// Records the extra tunnel delay applied to one packet, in
    /// microseconds.
    pub fn record_tunnel_delay_us(&mut self, us: u64) {
        self.tunnel_delay_us.record(us);
    }

    /// The re-bind (MTTR) latency histogram, in microseconds.
    #[must_use]
    pub fn rebind_latency(&self) -> &LogHistogram {
        &self.rebind_latency_us
    }

    /// Folds another ledger into this one (sweep aggregation).
    pub fn merge(&mut self, other: &FaultLedger) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.rebind_latency_us.merge(&other.rebind_latency_us);
        self.tunnel_delay_us.merge(&other.tunnel_delay_us);
    }
}

/// The per-class counts as a sequence in [`FaultClass::ALL`] order, then
/// the two histograms; any other number of classes is a decode error.
impl Snap for FaultLedger {
    fn snap(&self, w: &mut SnapWriter) {
        w.seq(&self.counts, u64::snap);
        self.rebind_latency_us.snap(w);
        self.tunnel_delay_us.snap(w);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let counts = Vec::<u64>::unsnap(r)?.try_into().map_err(|_| r.bad())?;
        Ok(FaultLedger {
            counts,
            rebind_latency_us: Snap::unsnap(r)?,
            tunnel_delay_us: Snap::unsnap(r)?,
        })
    }
}

impl fmt::Display for FaultLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for class in FaultClass::ALL {
            writeln!(f, "  {:<14} {:>8}", class.name(), self.count(class))?;
        }
        if self.rebind_latency_us.count() > 0 {
            writeln!(
                f,
                "  rebind MTTR    p50={}us p99={}us (n={})",
                self.rebind_latency_us.quantile(0.5),
                self.rebind_latency_us.quantile(0.99),
                self.rebind_latency_us.count()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_per_class() {
        let mut l = FaultLedger::new();
        l.record(FaultClass::HostCrash);
        l.record(FaultClass::HostCrash);
        l.record(FaultClass::CloneFault);
        assert_eq!(l.count(FaultClass::HostCrash), 2);
        assert_eq!(l.count(FaultClass::CloneFault), 1);
        assert_eq!(l.count(FaultClass::TunnelDrop), 0);
        assert_eq!(l.counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn rebind_histogram_quantiles() {
        let mut l = FaultLedger::new();
        for us in [100u64, 200, 400, 100_000] {
            l.record_rebind_us(us);
        }
        assert_eq!(l.rebind_latency().count(), 4);
        assert!(l.rebind_latency().quantile(0.5) <= 400);
        assert!(l.rebind_latency().quantile(1.0) >= 50_000);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = FaultLedger::new();
        let mut b = FaultLedger::new();
        a.record(FaultClass::GatewayStall);
        b.record(FaultClass::GatewayStall);
        b.record(FaultClass::TunnelDrop);
        b.record_tunnel_delay_us(1_000);
        a.merge(&b);
        assert_eq!(a.count(FaultClass::GatewayStall), 2);
        assert_eq!(a.count(FaultClass::TunnelDrop), 1);
        assert_eq!(a.tunnel_delay_us.count(), 1);
    }

    #[test]
    fn display_lists_classes() {
        let mut l = FaultLedger::new();
        l.record(FaultClass::HostCrash);
        l.record_rebind_us(500);
        let s = l.to_string();
        assert!(s.contains("host-crash"));
        assert!(s.contains("rebind MTTR"));
        assert_eq!(FaultClass::HostCrash.to_string(), "host-crash");
    }
}
