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

use crate::config::ConfigError;

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
/// Construct via the presets, [`Default`], or [`PolicyConfig::builder`]
/// (the struct is `#[non_exhaustive]`, so literal construction only works
/// inside this crate); existing instances may still be mutated
/// field-by-field.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct PolicyConfig {
    /// Mode for new outbound connections.
    pub mode: ContainmentMode,
    /// Whether outbound DNS queries are answered by the gateway's
    /// controlled resolver (fidelity: most malware resolves names before
    /// acting).
    pub proxy_dns: bool,
    /// Whether replies within an attacker-initiated flow are allowed out
    /// (required for any interaction fidelity at all; disable only to model
    /// a fully mute farm).
    pub allow_replies: bool,
    /// Optional per-VM outbound packet rate limit (packets/second).
    pub outbound_pps_limit: Option<f64>,
    /// Burst size for the per-VM limiter.
    pub outbound_burst: f64,
    /// Inbound destination ports that never get a VM (scanner noise not
    /// worth resources). Empty = everything gets a VM.
    pub filtered_ports: BTreeSet<u16>,
    /// Whether the gateway itself answers ICMP echo for *unbound* addresses
    /// (cheap liveness fidelity without spending a VM).
    pub gateway_answers_ping: bool,
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
    pub flow_idle_timeout: SimTime,
    /// Optional hard bound on flow-table entries (LRU eviction beyond it);
    /// `None` = timeout-only eviction.
    pub max_flows: Option<usize>,
    /// Admission control: hard cap on simultaneously bound VMs. When the
    /// farm is degraded (hosts down), capping admissions preserves service
    /// for existing interactions instead of thrashing. `None` disables it.
    pub max_bindings: Option<usize>,
    /// Service proxying: new outbound connections to these destination
    /// ports are redirected to a designated internal emulation address
    /// (e.g. an SMTP tarpit at 25, an HTTP emulator at 80), regardless of
    /// the containment mode — the paper's "proxy selected protocols to
    /// controlled servers" refinement.
    pub proxied_ports: BTreeMap<u16, Ipv4Addr>,
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

    /// A builder starting from the paper-default posture.
    #[must_use]
    pub fn builder() -> PolicyConfigBuilder {
        PolicyConfigBuilder { inner: PolicyConfig::default() }
    }
}

/// Typed builder for [`PolicyConfig`].
///
/// # Examples
///
/// ```
/// use potemkin_gateway::policy::{ContainmentMode, PolicyConfig};
/// use potemkin_sim::SimTime;
///
/// let policy = PolicyConfig::builder()
///     .mode(ContainmentMode::DropAll)
///     .binding_idle_timeout(SimTime::from_secs(5))
///     .build()
///     .unwrap();
/// assert_eq!(policy.mode, ContainmentMode::DropAll);
/// ```
#[derive(Clone, Debug)]
pub struct PolicyConfigBuilder {
    inner: PolicyConfig,
}

impl PolicyConfigBuilder {
    /// Sets the containment mode for new outbound connections.
    #[must_use]
    pub fn mode(mut self, mode: ContainmentMode) -> Self {
        self.inner.mode = mode;
        self
    }

    /// Sets whether the gateway's resolver answers outbound DNS.
    #[must_use]
    pub fn proxy_dns(mut self, on: bool) -> Self {
        self.inner.proxy_dns = on;
        self
    }

    /// Sets whether replies within attacker-initiated flows are allowed.
    #[must_use]
    pub fn allow_replies(mut self, on: bool) -> Self {
        self.inner.allow_replies = on;
        self
    }

    /// Sets the per-VM outbound rate limit (packets/second).
    #[must_use]
    pub fn outbound_pps_limit(mut self, limit: Option<f64>) -> Self {
        self.inner.outbound_pps_limit = limit;
        self
    }

    /// Sets the burst size for the per-VM limiter.
    #[must_use]
    pub fn outbound_burst(mut self, burst: f64) -> Self {
        self.inner.outbound_burst = burst;
        self
    }

    /// Sets the inbound destination ports that never get a VM.
    #[must_use]
    pub fn filtered_ports(mut self, ports: BTreeSet<u16>) -> Self {
        self.inner.filtered_ports = ports;
        self
    }

    /// Sets whether the gateway answers ICMP echo for unbound addresses.
    #[must_use]
    pub fn gateway_answers_ping(mut self, on: bool) -> Self {
        self.inner.gateway_answers_ping = on;
        self
    }

    /// Sets whether backscatter for unbound addresses is dropped.
    #[must_use]
    pub fn filter_backscatter(mut self, on: bool) -> Self {
        self.inner.filter_backscatter = on;
        self
    }

    /// Sets the per-source VM quota.
    #[must_use]
    pub fn per_source_vm_limit(mut self, limit: Option<u32>) -> Self {
        self.inner.per_source_vm_limit = limit;
        self
    }

    /// Sets the binding idle timeout (VM recycle time).
    #[must_use]
    pub fn binding_idle_timeout(mut self, t: SimTime) -> Self {
        self.inner.binding_idle_timeout = t;
        self
    }

    /// Sets the hard cap on a binding's lifetime.
    #[must_use]
    pub fn binding_max_lifetime(mut self, t: SimTime) -> Self {
        self.inner.binding_max_lifetime = t;
        self
    }

    /// Sets the flow-table idle timeout.
    #[must_use]
    pub fn flow_idle_timeout(mut self, t: SimTime) -> Self {
        self.inner.flow_idle_timeout = t;
        self
    }

    /// Sets the hard bound on flow-table entries.
    #[must_use]
    pub fn max_flows(mut self, max: Option<usize>) -> Self {
        self.inner.max_flows = max;
        self
    }

    /// Sets the admission-control cap on simultaneously bound VMs.
    #[must_use]
    pub fn max_bindings(mut self, max: Option<usize>) -> Self {
        self.inner.max_bindings = max;
        self
    }

    /// Sets the proxied-port redirection table.
    #[must_use]
    pub fn proxied_ports(mut self, ports: BTreeMap<u16, Ipv4Addr>) -> Self {
        self.inner.proxied_ports = ports;
        self
    }

    /// Validates and returns the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a rate limit or burst is non-positive, a
    /// quota or cap is zero, or a timeout is zero.
    pub fn build(self) -> Result<PolicyConfig, ConfigError> {
        let p = &self.inner;
        let err = |field, reason| Err(ConfigError::new("PolicyConfig", field, reason));
        if let Some(pps) = p.outbound_pps_limit {
            if pps.is_nan() || pps <= 0.0 {
                return err("outbound_pps_limit", "must be positive when set");
            }
        }
        if p.outbound_burst.is_nan() || p.outbound_burst <= 0.0 {
            return err("outbound_burst", "must be positive");
        }
        if p.per_source_vm_limit == Some(0) {
            return err("per_source_vm_limit", "a zero quota binds nothing; use None");
        }
        if p.binding_idle_timeout.is_zero() {
            return err("binding_idle_timeout", "must be non-zero");
        }
        if p.binding_max_lifetime.is_zero() {
            return err("binding_max_lifetime", "must be non-zero (SimTime::MAX disables)");
        }
        if p.flow_idle_timeout.is_zero() {
            return err("flow_idle_timeout", "must be non-zero");
        }
        if p.max_flows == Some(0) {
            return err("max_flows", "a zero cap tracks nothing; use None");
        }
        if p.max_bindings == Some(0) {
            return err("max_bindings", "a zero cap admits nothing; use None");
        }
        Ok(self.inner)
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

    #[test]
    fn builder_round_trips_every_knob() {
        let policy = PolicyConfig::builder()
            .mode(ContainmentMode::DropAll)
            .proxy_dns(false)
            .allow_replies(false)
            .outbound_pps_limit(Some(5.0))
            .outbound_burst(2.0)
            .filtered_ports(BTreeSet::from([135]))
            .gateway_answers_ping(false)
            .filter_backscatter(false)
            .per_source_vm_limit(Some(4))
            .binding_idle_timeout(SimTime::from_secs(30))
            .binding_max_lifetime(SimTime::from_secs(600))
            .flow_idle_timeout(SimTime::from_secs(90))
            .max_flows(Some(1_000))
            .max_bindings(Some(100))
            .proxied_ports(BTreeMap::from([(25, Ipv4Addr::new(172, 20, 0, 25))]))
            .build()
            .unwrap();
        assert_eq!(policy.mode, ContainmentMode::DropAll);
        assert!(!policy.proxy_dns);
        assert_eq!(policy.outbound_pps_limit, Some(5.0));
        assert_eq!(policy.per_source_vm_limit, Some(4));
        assert_eq!(policy.binding_idle_timeout, SimTime::from_secs(30));
        assert_eq!(policy.max_bindings, Some(100));
        assert_eq!(policy.proxied_ports.len(), 1);
    }

    #[test]
    fn builder_rejects_bad_values() {
        let cases: &[(&str, Result<PolicyConfig, crate::config::ConfigError>)] = &[
            ("outbound_pps_limit", PolicyConfig::builder().outbound_pps_limit(Some(0.0)).build()),
            ("outbound_burst", PolicyConfig::builder().outbound_burst(-1.0).build()),
            ("per_source_vm_limit", PolicyConfig::builder().per_source_vm_limit(Some(0)).build()),
            (
                "binding_idle_timeout",
                PolicyConfig::builder().binding_idle_timeout(SimTime::ZERO).build(),
            ),
            ("flow_idle_timeout", PolicyConfig::builder().flow_idle_timeout(SimTime::ZERO).build()),
            ("max_flows", PolicyConfig::builder().max_flows(Some(0)).build()),
            ("max_bindings", PolicyConfig::builder().max_bindings(Some(0)).build()),
        ];
        for (field, result) in cases {
            let err = result.clone().expect_err(field);
            assert_eq!(err.config(), "PolicyConfig");
            assert_eq!(err.field(), *field);
        }
    }
}
