//! Containment policy configuration.
//!
//! The paper frames containment as a policy question with an unavoidable
//! fidelity trade-off: block everything and malware that phones home or
//! scans never reveals its behaviour; allow everything and the honeyfarm
//! attacks third parties. Potemkin's default is *reflection* — outbound
//! attack traffic is turned around and delivered to a fresh honeypot inside
//! the farm. These types capture the modes and knobs; the decision procedure
//! lives in [`crate::gateway`].

use potemkin_sim::SimTime;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

/// The headline containment mode for new outbound connections.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ContainmentMode {
    /// Forward outbound traffic to the Internet (the unsafe baseline; used
    /// only to demonstrate escapes in experiments).
    AllowAll,
    /// Silently drop new outbound connections (safe, but second-order
    /// fidelity collapses: worms appear inert).
    DropAll,
    /// Reflect outbound connection attempts back into the farm as inbound
    /// traffic for the targeted address (the paper's default).
    Reflect,
}

/// Why the gateway dropped a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The containment mode forbids new outbound connections.
    Containment,
    /// A per-VM outbound rate limit was exceeded.
    RateLimited,
    /// The source exceeded its per-source VM quota (resource policy).
    SourceQuota,
    /// The inbound packet's destination port is filtered out (not worth a
    /// VM).
    PortFiltered,
    /// The inbound packet is backscatter (a TCP non-SYN with no flow and no
    /// binding): it cannot start an interaction, so it never earns a VM.
    Backscatter,
    /// The packet could not be parsed or is otherwise malformed.
    Malformed,
    /// The emitting VM is not bound to the address it claims.
    SpoofedSource,
    /// Gateway admission control: the farm is degraded and the binding cap
    /// rejects new VM admissions to protect existing interactions.
    AdmissionControl,
    /// The gateway is stalled (fault injection): no new bindings are
    /// admitted until the stall clears.
    GatewayStalled,
    /// The GRE tunnel from the telescope dropped the packet (fault
    /// injection: degraded tunnel window).
    TunnelLoss,
    /// The degradation ladder bottomed out: no VM, no standby, and the
    /// packet could not be served by the stateless responder.
    Degraded,
}

potemkin_snapshot::snap_enum!(DropReason {
    Containment = 0,
    RateLimited = 1,
    SourceQuota = 2,
    PortFiltered = 3,
    Backscatter = 4,
    Malformed = 5,
    SpoofedSource = 6,
    AdmissionControl = 7,
    GatewayStalled = 8,
    TunnelLoss = 9,
    Degraded = 10,
});

impl core::fmt::Display for DropReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            DropReason::Containment => "containment",
            DropReason::RateLimited => "rate-limited",
            DropReason::SourceQuota => "source-quota",
            DropReason::PortFiltered => "port-filtered",
            DropReason::Backscatter => "backscatter",
            DropReason::Malformed => "malformed",
            DropReason::SpoofedSource => "spoofed-source",
            DropReason::AdmissionControl => "admission-control",
            DropReason::GatewayStalled => "gateway-stalled",
            DropReason::TunnelLoss => "tunnel-loss",
            DropReason::Degraded => "degraded",
        };
        write!(f, "{s}")
    }
}

/// Full containment policy configuration.
///
/// Construct via the presets or [`Default`] (the struct is
/// `#[non_exhaustive]`, so literal construction only works inside this
/// crate); existing instances may still be mutated field-by-field.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct PolicyConfig {
    /// Mode for new outbound connections.
    pub mode: ContainmentMode,
    /// Whether outbound DNS queries are answered by the gateway's
    /// controlled resolver (fidelity: most malware resolves names before
    /// acting).
    pub(crate) proxy_dns: bool,
    /// Whether replies within an attacker-initiated flow are allowed out
    /// (required for any interaction fidelity at all; disable only to model
    /// a fully mute farm).
    pub(crate) allow_replies: bool,
    /// Optional per-VM outbound packet rate limit (packets/second).
    pub outbound_pps_limit: Option<f64>,
    /// Burst size for the per-VM limiter.
    pub outbound_burst: f64,
    /// Inbound destination ports that never get a VM (scanner noise not
    /// worth resources). Empty = everything gets a VM.
    pub(crate) filtered_ports: BTreeSet<u16>,
    /// Whether the gateway itself answers ICMP echo for *unbound* addresses
    /// (cheap liveness fidelity without spending a VM).
    pub(crate) gateway_answers_ping: bool,
    /// Whether TCP non-SYN packets for *unbound* addresses are dropped as
    /// backscatter instead of earning a VM (a DoS victim's SYN-ACKs and
    /// RSTs are a large share of telescope traffic and can never start an
    /// interaction).
    pub filter_backscatter: bool,
    /// Optional cap on simultaneously bound VMs per remote source address
    /// (defends the farm against a single scanner consuming every VM).
    pub per_source_vm_limit: Option<u32>,
    /// How long an address stays bound to its VM with no traffic before the
    /// VM is recycled.
    pub binding_idle_timeout: SimTime,
    /// Hard cap on a binding's lifetime regardless of activity (bounds
    /// state-holding attacks). `SimTime::MAX` disables it.
    pub binding_max_lifetime: SimTime,
    /// Idle timeout for flow-table entries.
    pub(crate) flow_idle_timeout: SimTime,
    /// Optional hard bound on flow-table entries (LRU eviction beyond it);
    /// `None` = timeout-only eviction.
    pub max_flows: Option<usize>,
    /// Admission control: hard cap on simultaneously bound VMs. When the
    /// farm is degraded (hosts down), capping admissions preserves service
    /// for existing interactions instead of thrashing. `None` disables it.
    pub(crate) max_bindings: Option<usize>,
    /// Service proxying: new outbound connections to these destination
    /// ports are redirected to a designated internal emulation address
    /// (e.g. an SMTP tarpit at 25, an HTTP emulator at 80), regardless of
    /// the containment mode — the paper's "proxy selected protocols to
    /// controlled servers" refinement.
    pub(crate) proxied_ports: BTreeMap<u16, Ipv4Addr>,
}

impl Default for PolicyConfig {
    /// The paper's default posture: reflection, proxied DNS, replies
    /// allowed, 1-minute VM recycling.
    fn default() -> Self {
        PolicyConfig {
            mode: ContainmentMode::Reflect,
            proxy_dns: true,
            allow_replies: true,
            outbound_pps_limit: None,
            outbound_burst: 10.0,
            filtered_ports: BTreeSet::new(),
            gateway_answers_ping: true,
            filter_backscatter: true,
            per_source_vm_limit: None,
            binding_idle_timeout: SimTime::from_secs(60),
            binding_max_lifetime: SimTime::MAX,
            flow_idle_timeout: SimTime::from_secs(120),
            max_flows: None,
            max_bindings: None,
            proxied_ports: BTreeMap::new(),
        }
    }
}

impl PolicyConfig {
    /// The unsafe allow-all baseline.
    #[must_use]
    pub fn allow_all() -> Self {
        PolicyConfig { mode: ContainmentMode::AllowAll, ..Default::default() }
    }

    /// The drop-all baseline.
    #[must_use]
    pub fn drop_all() -> Self {
        PolicyConfig { mode: ContainmentMode::DropAll, ..Default::default() }
    }

    /// The paper-default reflection policy.
    #[must_use]
    pub fn reflect() -> Self {
        PolicyConfig::default()
    }

    /// Sets the binding idle timeout (VM recycle time) — the main
    /// scalability knob.
    #[must_use]
    pub fn with_idle_timeout(mut self, t: SimTime) -> Self {
        self.binding_idle_timeout = t;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_posture() {
        let p = PolicyConfig::default();
        assert_eq!(p.mode, ContainmentMode::Reflect);
        assert!(p.proxy_dns);
        assert!(p.allow_replies);
        assert!(p.gateway_answers_ping);
        assert_eq!(p.binding_idle_timeout, SimTime::from_secs(60));
    }

    #[test]
    fn presets() {
        assert_eq!(PolicyConfig::allow_all().mode, ContainmentMode::AllowAll);
        assert_eq!(PolicyConfig::drop_all().mode, ContainmentMode::DropAll);
        assert_eq!(PolicyConfig::reflect().mode, ContainmentMode::Reflect);
        let p = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(5));
        assert_eq!(p.binding_idle_timeout, SimTime::from_secs(5));
    }

    #[test]
    fn drop_reason_display() {
        assert_eq!(DropReason::Containment.to_string(), "containment");
        assert_eq!(DropReason::SourceQuota.to_string(), "source-quota");
        assert_eq!(DropReason::SpoofedSource.to_string(), "spoofed-source");
        assert_eq!(DropReason::AdmissionControl.to_string(), "admission-control");
        assert_eq!(DropReason::GatewayStalled.to_string(), "gateway-stalled");
        assert_eq!(DropReason::TunnelLoss.to_string(), "tunnel-loss");
        assert_eq!(DropReason::Degraded.to_string(), "degraded");
    }

    #[test]
    fn admission_cap_defaults_off() {
        assert_eq!(PolicyConfig::default().max_bindings, None);
    }
}
