//! Aggregated farm statistics.

use potemkin_obs::{CounterSet, FaultLedger, LogHistogram};
use potemkin_sim::SimTime;
use potemkin_vmm::{MemoryReport, SharingReport};

use crate::farm::Honeyfarm;

/// A point-in-time snapshot of the whole farm.
#[derive(Clone, Debug)]
pub struct FarmStats {
    /// Live VMs across all servers.
    pub live_vms: usize,
    /// Currently infected live VMs.
    pub(crate) infected_vms: usize,
    /// Per-server memory reports.
    pub(crate) memory: Vec<MemoryReport>,
    /// Merged farm + gateway counters.
    pub counters: CounterSet,
    /// VMs cloned over the farm's lifetime.
    pub vms_cloned: u64,
    /// VMs recycled over the farm's lifetime.
    pub vms_recycled: u64,
    /// Median flash-clone latency (virtual time).
    pub clone_latency_p50: SimTime,
    /// 99th-percentile flash-clone latency (virtual time).
    pub clone_latency_p99: SimTime,
    /// Total virtual time spent in VMM operations.
    pub vmm_time: SimTime,
    /// Farm-wide logical-vs-resident memory occupancy (content sharing).
    pub sharing: SharingReport,
}

impl FarmStats {
    /// Collects a snapshot from a farm.
    #[must_use]
    pub(crate) fn collect(farm: &Honeyfarm) -> FarmStats {
        let mut counters = farm.counters().clone();
        counters.merge(&farm.gateway().counters_snapshot());
        let h = farm.clone_latency_us();
        FarmStats {
            live_vms: farm.live_vms(),
            infected_vms: farm.infected_vms(),
            memory: farm.hosts().iter().map(|h| h.memory_report()).collect(),
            vms_cloned: counters.get("vms_cloned"),
            vms_recycled: counters.get("vms_recycled"),
            clone_latency_p50: SimTime::from_micros(h.quantile(0.5)),
            clone_latency_p99: SimTime::from_micros(h.quantile(0.99)),
            vmm_time: farm.vmm_time(),
            sharing: farm.sharing_report(),
            counters,
        }
    }

    /// Collects one merged snapshot across the per-cell farms of a sharded
    /// run. Counters and latency histograms are folded, memory reports are
    /// concatenated in cell order, so the result depends only on the cell
    /// states — never on how many worker threads executed them.
    #[must_use]
    pub(crate) fn collect_sharded<'a>(farms: impl IntoIterator<Item = &'a Honeyfarm>) -> FarmStats {
        let mut live_vms = 0;
        let mut infected_vms = 0;
        let mut memory = Vec::new();
        let mut counters = CounterSet::new();
        let mut clone_latency = LogHistogram::new(32);
        let mut vmm_time = SimTime::ZERO;
        let mut sharing = SharingReport::default();
        for farm in farms {
            live_vms += farm.live_vms();
            infected_vms += farm.infected_vms();
            memory.extend(farm.hosts().iter().map(|h| h.memory_report()));
            counters.merge(farm.counters());
            counters.merge(&farm.gateway().counters_snapshot());
            clone_latency.merge(farm.clone_latency_us());
            vmm_time += farm.vmm_time();
            sharing.absorb(farm.sharing_report());
        }
        FarmStats {
            live_vms,
            infected_vms,
            memory,
            vms_cloned: counters.get("vms_cloned"),
            vms_recycled: counters.get("vms_recycled"),
            clone_latency_p50: SimTime::from_micros(clone_latency.quantile(0.5)),
            clone_latency_p99: SimTime::from_micros(clone_latency.quantile(0.99)),
            vmm_time,
            sharing,
            counters,
        }
    }

    /// Total frames in use across servers.
    #[must_use]
    pub fn total_used_frames(&self) -> u64 {
        self.memory.iter().map(|m| m.used_frames).sum()
    }

    /// Total frames private to domains across servers.
    #[must_use]
    pub(crate) fn total_private_frames(&self) -> u64 {
        self.memory.iter().map(|m| m.private_frames).sum()
    }

    /// Farm-wide marginal frames per live VM.
    #[must_use]
    pub fn marginal_frames_per_vm(&self) -> f64 {
        if self.live_vms == 0 {
            0.0
        } else {
            self.total_private_frames() as f64 / self.live_vms as f64
        }
    }
}

impl core::fmt::Display for FarmStats {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(f, "live VMs:        {}", self.live_vms)?;
        writeln!(f, "infected VMs:    {}", self.infected_vms)?;
        writeln!(f, "VMs cloned:      {}", self.vms_cloned)?;
        writeln!(f, "VMs recycled:    {}", self.vms_recycled)?;
        writeln!(f, "clone p50/p99:   {} / {}", self.clone_latency_p50, self.clone_latency_p99)?;
        writeln!(f, "used frames:     {}", self.total_used_frames())?;
        writeln!(f, "marginal MiB/VM: {:.2}", self.marginal_frames_per_vm() * 4.0 / 1024.0)?;
        writeln!(f, "vmm time:        {}", self.vmm_time)
    }
}

/// Fault-injection outcome summary: what faults fired, what they cost in
/// availability and fidelity, and how fast the farm re-bound orphaned
/// addresses.
///
/// Collected from the farm's [`potemkin_obs::FaultLedger`] and merged
/// counters. [`DegradationReport::canonical_string`] renders a stable,
/// byte-comparable form used by the determinism property tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegradationReport {
    /// Host crashes fired.
    pub host_crashes: u64,
    /// Host recoveries fired.
    pub(crate) host_recoveries: u64,
    /// Injected clone faults consumed.
    pub clone_faults: u64,
    /// Inbound packets lost to tunnel degradation.
    pub(crate) tunnel_drops: u64,
    /// Gateway stall windows entered.
    pub(crate) gateway_stalls: u64,
    /// VMs torn down by host crashes.
    pub vms_lost_to_crash: u64,
    /// Orphaned addresses successfully re-bound on a surviving host.
    pub rebinds_after_crash: u64,
    /// Orphaned addresses still waiting for a re-bind at collection time.
    pub(crate) pending_rebinds: u64,
    /// Mean crash-to-rebind latency, microseconds (0 when none).
    pub(crate) mean_rebind_us: u64,
    /// 99th-percentile crash-to-rebind latency, microseconds.
    pub(crate) p99_rebind_us: u64,
    /// Full VMs placed (top rung of the ladder).
    pub(crate) vms_cloned: u64,
    /// First contacts served by the stateless SYN/ACK responder.
    pub degraded_synacks: u64,
    /// First contacts count-dropped at the bottom rung.
    pub dropped_degraded: u64,
    /// First contacts dropped with no ladder configured.
    pub dropped_no_capacity: u64,
    /// Inbound packets dropped during gateway stalls.
    pub dropped_gateway_stalled: u64,
    /// Inbound packets refused by the admission cap.
    pub(crate) dropped_admission: u64,
    /// Clone attempts that were retried.
    pub(crate) clone_retries: u64,
    /// Third-party packets that escaped containment (must stay 0).
    pub escaped: u64,
}

impl DegradationReport {
    /// Collects the report from a farm.
    #[must_use]
    pub fn collect(farm: &Honeyfarm) -> DegradationReport {
        let mut c = farm.counters().clone();
        c.merge(&farm.gateway().counters_snapshot());
        Self::from_parts(&c, farm.fault_ledger(), farm.pending_rebinds() as u64)
    }

    /// Collects one merged report across the per-cell farms of a sharded
    /// run. Ledgers and counters are folded in cell order; like
    /// [`FarmStats::collect_sharded`], the result is a pure function of the
    /// cell states and is byte-identical for any worker count.
    #[must_use]
    pub(crate) fn collect_sharded<'a>(
        farms: impl IntoIterator<Item = &'a Honeyfarm>,
    ) -> DegradationReport {
        let mut c = CounterSet::new();
        let mut ledger = FaultLedger::new();
        let mut pending = 0u64;
        for farm in farms {
            c.merge(farm.counters());
            c.merge(&farm.gateway().counters_snapshot());
            ledger.merge(farm.fault_ledger());
            pending += farm.pending_rebinds() as u64;
        }
        Self::from_parts(&c, &ledger, pending)
    }

    fn from_parts(c: &CounterSet, ledger: &FaultLedger, pending_rebinds: u64) -> Self {
        use potemkin_obs::FaultClass;
        let rebind = ledger.rebind_latency();
        DegradationReport {
            host_crashes: ledger.count(FaultClass::HostCrash),
            host_recoveries: ledger.count(FaultClass::HostRecovery),
            clone_faults: ledger.count(FaultClass::CloneFault),
            tunnel_drops: ledger.count(FaultClass::TunnelDrop),
            gateway_stalls: ledger.count(FaultClass::GatewayStall),
            vms_lost_to_crash: c.get("vms_lost_to_crash"),
            rebinds_after_crash: c.get("rebinds_after_crash"),
            pending_rebinds,
            mean_rebind_us: rebind.mean().round() as u64,
            p99_rebind_us: rebind.quantile(0.99),
            vms_cloned: c.get("vms_cloned"),
            degraded_synacks: c.get("degraded_synacks"),
            dropped_degraded: c.get("dropped_degraded"),
            dropped_no_capacity: c.get("dropped_no_capacity"),
            dropped_gateway_stalled: c.get("dropped_gateway_stalled"),
            dropped_admission: c.get("dropped_admission"),
            clone_retries: c.get("clone_retries"),
            escaped: c.get("escaped"),
        }
    }

    /// First-contact demand: every new address that asked for a VM,
    /// however the ladder answered it.
    #[must_use]
    pub(crate) fn demand(&self) -> u64 {
        self.vms_cloned
            + self.degraded_synacks
            + self.dropped_degraded
            + self.dropped_no_capacity
            + self.dropped_admission
    }

    /// Fraction of first-contact demand served by a full VM (1.0 when
    /// there was no demand).
    #[must_use]
    pub fn availability(&self) -> f64 {
        let demand = self.demand();
        if demand == 0 {
            1.0
        } else {
            self.vms_cloned as f64 / demand as f64
        }
    }

    /// Fraction of demand answered below full fidelity: SYN/ACK-only plus
    /// outright drops.
    #[must_use]
    pub fn fidelity_loss(&self) -> f64 {
        let demand = self.demand();
        if demand == 0 {
            0.0
        } else {
            (demand - self.vms_cloned) as f64 / demand as f64
        }
    }

    /// Mean time to re-bind an address after its host crashed.
    #[must_use]
    pub fn mttr(&self) -> SimTime {
        SimTime::from_micros(self.mean_rebind_us)
    }

    /// A stable `field=value` rendering, one line per field. Two runs of
    /// the same seeded scenario must produce byte-identical strings.
    #[must_use]
    pub fn canonical_string(&self) -> String {
        format!(
            "host_crashes={}\nhost_recoveries={}\nclone_faults={}\ntunnel_drops={}\n\
             gateway_stalls={}\nvms_lost_to_crash={}\nrebinds_after_crash={}\n\
             pending_rebinds={}\nmean_rebind_us={}\np99_rebind_us={}\nvms_cloned={}\n\
             degraded_synacks={}\ndropped_degraded={}\ndropped_no_capacity={}\n\
             dropped_gateway_stalled={}\ndropped_admission={}\nclone_retries={}\n\
             escaped={}\navailability={:.6}\nfidelity_loss={:.6}\n",
            self.host_crashes,
            self.host_recoveries,
            self.clone_faults,
            self.tunnel_drops,
            self.gateway_stalls,
            self.vms_lost_to_crash,
            self.rebinds_after_crash,
            self.pending_rebinds,
            self.mean_rebind_us,
            self.p99_rebind_us,
            self.vms_cloned,
            self.degraded_synacks,
            self.dropped_degraded,
            self.dropped_no_capacity,
            self.dropped_gateway_stalled,
            self.dropped_admission,
            self.clone_retries,
            self.escaped,
            self.availability(),
            self.fidelity_loss(),
        )
    }
}

impl core::fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "faults: {} crash / {} recover / {} clone / {} tunnel / {} stall",
            self.host_crashes,
            self.host_recoveries,
            self.clone_faults,
            self.tunnel_drops,
            self.gateway_stalls
        )?;
        writeln!(
            f,
            "crash impact: {} VMs lost, {} re-bound ({} pending), MTTR {}",
            self.vms_lost_to_crash,
            self.rebinds_after_crash,
            self.pending_rebinds,
            self.mttr()
        )?;
        writeln!(
            f,
            "availability: {:.4} ({} full VMs / {} demand), fidelity loss {:.4}",
            self.availability(),
            self.vms_cloned,
            self.demand(),
            self.fidelity_loss()
        )?;
        writeln!(f, "escapes: {}", self.escaped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::farm::FarmConfig;
    use potemkin_net::PacketBuilder;
    use std::net::Ipv4Addr;

    #[test]
    fn stats_reflect_activity() {
        let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
        for i in 1..=4u8 {
            let p = PacketBuilder::new(Ipv4Addr::new(6, 6, 6, 6), Ipv4Addr::new(10, 1, 0, i))
                .tcp_syn(1000, 445);
            farm.inject_external(SimTime::ZERO, p);
        }
        let stats = farm.stats();
        assert_eq!(stats.live_vms, 4);
        assert_eq!(stats.vms_cloned, 4);
        assert_eq!(stats.infected_vms, 0);
        assert!(stats.clone_latency_p50 > SimTime::from_millis(100));
        assert!(stats.total_used_frames() > 0);
        assert!(stats.marginal_frames_per_vm() > 0.0);
        assert_eq!(stats.counters.get("packets_in"), 8, "4 first + 4 re-offered");
        let rendered = stats.to_string();
        assert!(rendered.contains("live VMs"));
        assert!(rendered.contains("clone p50"));
    }

    #[test]
    fn degradation_report_on_a_faultless_farm_is_clean() {
        let mut farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
        for i in 1..=3u8 {
            let p = PacketBuilder::new(Ipv4Addr::new(6, 6, 6, 6), Ipv4Addr::new(10, 1, 0, i))
                .tcp_syn(1000, 445);
            farm.inject_external(SimTime::ZERO, p);
        }
        let report = DegradationReport::collect(&farm);
        assert_eq!(report.host_crashes, 0);
        assert_eq!(report.vms_cloned, 3);
        assert_eq!(report.demand(), 3);
        assert!((report.availability() - 1.0).abs() < 1e-12);
        assert_eq!(report.fidelity_loss(), 0.0);
        assert_eq!(report.mttr(), SimTime::ZERO);
        assert_eq!(report.escaped, 0);
        let canon = report.canonical_string();
        assert!(canon.contains("vms_cloned=3"));
        assert!(canon.contains("availability=1.000000"));
        assert_eq!(canon, DegradationReport::collect(&farm).canonical_string());
        assert!(report.to_string().contains("availability"));
    }

    #[test]
    fn empty_farm_report_has_unit_availability() {
        let farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
        let report = DegradationReport::collect(&farm);
        assert_eq!(report.demand(), 0);
        assert_eq!(report.availability(), 1.0);
        assert_eq!(report.fidelity_loss(), 0.0);
    }

    #[test]
    fn empty_farm_stats() {
        let farm = Honeyfarm::new(FarmConfig::small_test()).unwrap();
        let stats = farm.stats();
        assert_eq!(stats.live_vms, 0);
        assert_eq!(stats.marginal_frames_per_vm(), 0.0);
        assert_eq!(stats.clone_latency_p50, SimTime::ZERO);
    }
}
