//! The gateway packet pipeline.
//!
//! [`Gateway`] is a pure decision engine: it consumes packets (inbound from
//! telescopes, outbound from honeypot VMs) and produces [`GatewayAction`]s
//! for the controller to execute. It owns the flow table, the address
//! binder, the DNS proxy, and the per-VM rate limiters — all the state the
//! paper's gateway router kept — but never touches a VM itself.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use potemkin_net::addr::Ipv4Prefix;
use potemkin_net::{Packet, PacketBuilder, PacketPayload};
use potemkin_obs::CounterSet;
use potemkin_obs::{names as obs, TraceEvent, Tracer};
use potemkin_sim::{SimTime, TokenBucket};
use potemkin_snapshot::{Snap, SnapReader, SnapWriter};

use crate::binding::{AddressBinder, BindGranularity, ExpiredBinding, VmRef};
use crate::dnsgw::DnsProxy;
use crate::flowtable::{FlowDirection, FlowTable};
use crate::policy::{ContainmentMode, DropReason, PolicyConfig};
use crate::reclaim::ReclaimPolicy;

/// Gateway configuration.
///
/// Start from [`GatewayConfig::default`] and edit the fields a run varies
/// (the struct is `#[non_exhaustive]`, so literal construction only works
/// inside this crate). DNS answers always come from the reserved
/// 172.20.0.0/16 sinkhole.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct GatewayConfig {
    /// The containment policy.
    pub policy: PolicyConfig,
    /// Address-binding granularity.
    pub granularity: BindGranularity,
    /// Cap on concurrently open interaction-service sessions admitted per
    /// farm (`None` = unlimited). Checked by
    /// [`Gateway::admit_service_session`] before the farm opens a new
    /// scenario session.
    pub service_sessions: Option<usize>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            policy: PolicyConfig::default(),
            granularity: BindGranularity::PerDestination,
            service_sessions: None,
        }
    }
}

/// The reserved prefix DNS answers come from.
const SINKHOLE: Ipv4Prefix = Ipv4Prefix::constant(Ipv4Addr::new(172, 20, 0, 0), 16);

/// Idle timeout for flow-table entries.
const FLOW_IDLE_TIMEOUT: SimTime = SimTime::from_secs(120);

/// What the controller must do with a packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GatewayAction {
    /// Deliver the packet to an already-bound VM.
    Deliver {
        /// The bound VM.
        vm: VmRef,
        /// The packet.
        packet: Packet,
    },
    /// No VM is bound for this address: flash-clone one, call
    /// [`Gateway::bind`], then re-offer the packet via
    /// [`Gateway::on_inbound`].
    CloneAndDeliver {
        /// The address needing a VM.
        addr: Ipv4Addr,
        /// The packet to re-offer after binding.
        packet: Packet,
    },
    /// The gateway synthesized a response (ping reply, DNS answer); route
    /// it to its destination (a VM or the external world).
    GatewayReply(Packet),
    /// Permitted outbound traffic: send to the Internet (via the telescope
    /// tunnel when the destination is monitored elsewhere).
    ForwardExternal(Packet),
    /// Containment turned an outbound packet around: treat it as inbound
    /// traffic for `addr` (clone if needed, then re-offer).
    Reflect {
        /// The internal address that will impersonate the victim.
        addr: Ipv4Addr,
        /// The packet, already rewritten to target `addr`.
        packet: Packet,
    },
    /// The packet was dropped.
    Drop {
        /// Why.
        reason: DropReason,
    },
}

/// The instant-event name recorded for each action the gateway returns.
fn action_trace_name(action: &GatewayAction) -> &'static str {
    match action {
        GatewayAction::Deliver { .. } => "gw.action.deliver",
        GatewayAction::CloneAndDeliver { .. } => "gw.action.clone",
        GatewayAction::GatewayReply(_) => "gw.action.reply",
        GatewayAction::ForwardExternal(_) => obs::GW_TUNNEL,
        GatewayAction::Reflect { .. } => "gw.action.reflect",
        GatewayAction::Drop { .. } => "gw.action.drop",
    }
}

/// Per-packet counters kept as plain integers on the hot path and folded
/// into the [`CounterSet`] at flush points (expire, window barriers,
/// snapshots). Saves the per-packet ordered-map walks for the counters every
/// packet touches; outcome counters (drops, reflections, …) stay inline —
/// each packet hits at most one of those.
#[derive(Clone, Copy, Debug, Default)]
struct HotStats {
    packets_in: u64,
    bytes_in: u64,
    delivered: u64,
    packets_out: u64,
    bytes_out: u64,
}

impl HotStats {
    fn fold_into(self, counters: &mut CounterSet) {
        // Only touch names with activity: a never-seen counter must stay
        // absent, exactly as with inline increments.
        for (name, value) in [
            ("packets_in", self.packets_in),
            ("bytes_in", self.bytes_in),
            ("delivered", self.delivered),
            ("packets_out", self.packets_out),
            ("bytes_out", self.bytes_out),
        ] {
            if value > 0 {
                counters.add(name, value);
            }
        }
    }
}

/// The gateway router.
///
/// # Examples
///
/// ```
/// use potemkin_gateway::binding::VmRef;
/// use potemkin_gateway::gateway::{Gateway, GatewayAction, GatewayConfig};
/// use potemkin_net::PacketBuilder;
/// use potemkin_sim::SimTime;
/// use std::net::Ipv4Addr;
///
/// let mut gw = Gateway::new(GatewayConfig::default());
/// let scanner = Ipv4Addr::new(198, 51, 100, 9);
/// let addr = Ipv4Addr::new(10, 1, 0, 5);
///
/// // First contact: the gateway asks the controller for a VM.
/// let probe = PacketBuilder::new(scanner, addr).tcp_syn(4444, 445);
/// let action = gw.on_inbound(SimTime::ZERO, probe.clone());
/// assert!(matches!(action, GatewayAction::CloneAndDeliver { .. }));
///
/// // The controller clones, binds, and re-offers: now it delivers.
/// gw.bind(SimTime::ZERO, scanner, addr, VmRef(1));
/// let action = gw.on_inbound(SimTime::ZERO, probe);
/// assert!(matches!(action, GatewayAction::Deliver { vm: VmRef(1), .. }));
/// ```
pub struct Gateway {
    config: GatewayConfig,
    flows: FlowTable,
    binder: AddressBinder,
    dns: DnsProxy,
    rate: HashMap<VmRef, TokenBucket>,
    counters: CounterSet,
    hot: HotStats,
    /// Fault injection: until this instant, no new bindings are admitted
    /// (existing bindings keep forwarding).
    stalled_until: SimTime,
    /// Observability lane (disabled by default: one branch per packet).
    tracer: Tracer,
}

impl Gateway {
    /// Creates a gateway from a configuration.
    #[must_use]
    pub fn new(config: GatewayConfig) -> Self {
        let policy = &config.policy;
        let binder = AddressBinder::new(
            config.granularity,
            policy.binding_idle_timeout,
            policy.binding_max_lifetime,
            policy.per_source_vm_limit,
        );
        let flows = FlowTable::new(FLOW_IDLE_TIMEOUT, policy.max_flows);
        let dns = DnsProxy::new(SINKHOLE);
        Gateway {
            config,
            flows,
            binder,
            dns,
            rate: HashMap::new(),
            counters: CounterSet::new(),
            hot: HotStats::default(),
            stalled_until: SimTime::ZERO,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs an observability tracer (pass [`Tracer::disabled`] to turn
    /// tracing back off). Tracing is passive: it never alters any action
    /// the gateway returns.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Drains recorded trace events. Empty while tracing is disabled.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.drain()
    }

    /// Admission control for interaction-service sessions: whether a new
    /// scenario session may open given `open` are already live on this
    /// farm. Deterministic — a pure comparison against the configured cap
    /// — and counted either way (`svc_sessions_admitted` /
    /// `svc_sessions_rejected`). The caller owns the live count (session
    /// eviction and timeouts happen in the service engine), so no release
    /// bookkeeping is needed here.
    pub fn admit_service_session(&mut self, open: usize) -> bool {
        let admitted = match self.config.service_sessions {
            Some(cap) => open < cap,
            None => true,
        };
        if admitted {
            self.counters.incr("svc_sessions_admitted");
        } else {
            self.counters.incr("svc_sessions_rejected");
        }
        admitted
    }

    /// Stalls the gateway until `now + duration` (fault injection): packets
    /// for already-bound addresses keep flowing, but no new VM binding is
    /// admitted while stalled.
    pub fn stall_for(&mut self, now: SimTime, duration: SimTime) {
        self.stalled_until = self.stalled_until.max(now.saturating_add(duration));
        self.counters.incr("gateway_stalls");
    }

    /// Whether the gateway is currently stalled.
    #[must_use]
    pub(crate) fn is_stalled(&self, now: SimTime) -> bool {
        now < self.stalled_until
    }

    /// Processes a packet arriving from outside (or re-offered after a
    /// clone/reflection).
    pub fn on_inbound(&mut self, now: SimTime, packet: Packet) -> GatewayAction {
        if !self.tracer.is_enabled() {
            return self.classify_inbound(now, packet);
        }
        // Gateway processing is instantaneous in virtual time, so these
        // spans carry attribution (classification → action), not duration.
        // One span + one instant per packet: the recorder-overhead budget
        // (E12's 5% gate) rules out a redundant wrapper span here.
        let classify = self.tracer.begin(now, obs::GW_CLASSIFY);
        let action = self.classify_inbound(now, packet);
        self.tracer.end(now, classify);
        self.tracer.instant(now, action_trace_name(&action), 1);
        action
    }

    /// The inbound classify → policy pipeline (tracing-free inner body).
    fn classify_inbound(&mut self, now: SimTime, packet: Packet) -> GatewayAction {
        self.hot.packets_in += 1;
        self.hot.bytes_in += packet.len() as u64;
        self.flows.observe(now, packet.flow_key(), FlowDirection::InboundInitiated);

        let (src, dst) = (packet.src(), packet.dst());
        if let Some(vm) = self.binder.lookup_active(now, src, dst) {
            self.hot.delivered += 1;
            return GatewayAction::Deliver { vm, packet };
        }

        // No VM bound. Is this packet worth one?
        if self.config.policy.filter_backscatter {
            if let PacketPayload::Tcp { header, .. } = packet.payload() {
                let starts_connection = header.flags.syn && !header.flags.ack;
                if !starts_connection {
                    self.counters.incr("dropped_backscatter");
                    return GatewayAction::Drop { reason: DropReason::Backscatter };
                }
            }
        }
        if let PacketPayload::Icmp(msg) = packet.payload() {
            if let Some(reply) = msg.reply_to() {
                self.counters.incr("gateway_pings_answered");
                let reply_packet = PacketBuilder::new(dst, src).icmp(reply);
                return GatewayAction::GatewayReply(reply_packet);
            }
        }
        if !self.binder.source_within_quota(src) {
            self.counters.incr("dropped_source_quota");
            return GatewayAction::Drop { reason: DropReason::SourceQuota };
        }
        // Degradation: a stalled gateway cannot mint new bindings, and the
        // admission cap keeps a degraded farm from thrashing what's left.
        if self.is_stalled(now) {
            self.counters.incr("dropped_gateway_stalled");
            return GatewayAction::Drop { reason: DropReason::GatewayStalled };
        }
        if let Some(cap) = self.config.policy.max_bindings {
            if self.binder.len() >= cap {
                self.counters.incr("dropped_admission");
                return GatewayAction::Drop { reason: DropReason::AdmissionControl };
            }
        }
        self.counters.incr("clone_requests");
        GatewayAction::CloneAndDeliver { addr: dst, packet }
    }

    /// Binds `vm` to serve traffic from `src` to `dst` (the controller calls
    /// this after satisfying a [`GatewayAction::CloneAndDeliver`]).
    pub fn bind(&mut self, now: SimTime, src: Ipv4Addr, dst: Ipv4Addr, vm: VmRef) {
        self.binder.bind(now, src, dst, vm);
        if let Some(pps) = self.config.policy.outbound_pps_limit {
            self.rate.insert(vm, TokenBucket::new(pps, self.config.policy.outbound_burst));
        }
        self.counters.incr("bindings_created");
    }

    /// Processes a packet emitted by honeypot VM `vm`.
    pub fn on_outbound(&mut self, now: SimTime, vm: VmRef, packet: Packet) -> GatewayAction {
        if !self.tracer.is_enabled() {
            return self.contain_outbound(now, vm, packet);
        }
        let policy = self.tracer.begin(now, obs::GW_POLICY);
        let action = self.contain_outbound(now, vm, packet);
        self.tracer.end(now, policy);
        self.tracer.instant(now, action_trace_name(&action), 1);
        action
    }

    /// The outbound containment pipeline (tracing-free inner body).
    fn contain_outbound(&mut self, now: SimTime, vm: VmRef, packet: Packet) -> GatewayAction {
        self.hot.packets_out += 1;
        self.hot.bytes_out += packet.len() as u64;
        let (src, dst) = (packet.src(), packet.dst());

        // Anti-spoofing: the packet's source must be an address bound to
        // this VM (checkable under per-destination granularity).
        if self.config.granularity == BindGranularity::PerDestination {
            let key = self.binder.key_for(dst, src);
            let bound = self.binder.lookup_active(now, dst, src);
            debug_assert_eq!(key, self.binder.key_for(Ipv4Addr::UNSPECIFIED, src));
            if bound != Some(vm) {
                self.counters.incr("dropped_spoofed");
                return GatewayAction::Drop { reason: DropReason::SpoofedSource };
            }
        }

        // A packet on a flow the attacker opened is a reply; any other flow,
        // this packet's own new one included, is the honeypot's initiative.
        let key = packet.flow_key();
        let initiator = self.flows.observe(now, key, FlowDirection::OutboundInitiated);
        let is_reply = initiator == FlowDirection::InboundInitiated;

        // Intra-farm traffic: the destination is already impersonated by a
        // VM (reflection dialogue); keep it inside.
        if let Some(dst_vm) = self.binder.lookup_active(now, src, dst) {
            if dst_vm != vm {
                self.counters.incr("intra_farm_delivered");
                return GatewayAction::Deliver { vm: dst_vm, packet };
            }
        }

        // DNS to anywhere is answered by the controlled resolver.
        if DnsProxy::is_dns_query(&packet) {
            if let Some(reply) = self.dns.answer(&packet) {
                self.counters.incr("dns_answered");
                return GatewayAction::GatewayReply(reply);
            }
        }

        // ICMP *error* messages (port unreachable, TTL exceeded) are
        // response traffic by construction — their flow key never matches
        // the flow that elicited them, so classify them explicitly.
        let is_icmp_error = matches!(
            packet.payload(),
            PacketPayload::Icmp(
                potemkin_net::icmp::IcmpMessage::DestUnreachable { .. }
                    | potemkin_net::icmp::IcmpMessage::TimeExceeded { .. }
            )
        );

        // Replies within attacker-initiated flows preserve fidelity.
        if is_reply || is_icmp_error {
            self.counters.incr("replies_forwarded");
            return GatewayAction::ForwardExternal(packet);
        }

        // New outbound connection: rate limit, then containment mode.
        if let Some(bucket) = self.rate.get_mut(&vm) {
            if !bucket.try_take(now, 1.0) {
                self.counters.incr("dropped_rate_limited");
                return GatewayAction::Drop { reason: DropReason::RateLimited };
            }
        }

        // Connections to the DNS sinkhole always stay internal: the
        // sinkhole address only exists inside the farm.
        if self.dns.is_sinkhole_addr(dst) {
            self.counters.incr("reflected_sinkhole");
            return GatewayAction::Reflect { addr: dst, packet };
        }

        match self.config.policy.mode {
            ContainmentMode::AllowAll => {
                self.counters.incr("escaped");
                GatewayAction::ForwardExternal(packet)
            }
            ContainmentMode::DropAll => {
                self.counters.incr("dropped_containment");
                GatewayAction::Drop { reason: DropReason::Containment }
            }
            ContainmentMode::Reflect => {
                self.counters.incr("reflected");
                GatewayAction::Reflect { addr: dst, packet }
            }
        }
    }

    /// Forcibly expires one binding to make room (resource pressure),
    /// letting `policy` choose the victim from a deterministically ordered
    /// candidate list. The controller must destroy/recycle the returned VM.
    pub fn evict_for_pressure(
        &mut self,
        now: SimTime,
        policy: &mut ReclaimPolicy,
    ) -> Option<ExpiredBinding> {
        let candidates = self.binder.reclaim_candidates();
        if candidates.is_empty() {
            return None;
        }
        let chosen = candidates[policy.pick(&candidates).min(candidates.len() - 1)];
        let evicted = self.binder.evict_key(chosen.key, now)?;
        self.rate.remove(&evicted.vm);
        self.retire_binding_flows(evicted.key.dst);
        self.counters.incr("bindings_evicted_pressure");
        self.tracer.instant(now, obs::MEM_RECLAIM, 1);
        Some(evicted)
    }

    /// Unbinds every address served by `vm` (its host crashed). Returns the
    /// addresses that lost their binding, for re-materialization elsewhere.
    pub fn unbind_vm(&mut self, vm: VmRef) -> Vec<Ipv4Addr> {
        let keys = self.binder.unbind_vm(vm);
        if keys.is_empty() {
            return Vec::new();
        }
        self.rate.remove(&vm);
        let mut addrs: Vec<Ipv4Addr> = keys.iter().map(|k| k.dst).collect();
        // Ascending order (the controller re-places the addresses in it)
        // and deduped: per-source keys share a destination.
        addrs.sort_unstable();
        addrs.dedup();
        for &addr in &addrs {
            self.retire_binding_flows(addr);
        }
        self.counters.add("bindings_unbound", keys.len() as u64);
        addrs
    }

    /// Retires the flow-table entries of an address whose binding ended. A
    /// stale attacker-initiated flow must not outlive the binding: its
    /// "reply" allowance would let the address's *next* occupant send into a
    /// dialogue it never had.
    fn retire_binding_flows(&mut self, addr: Ipv4Addr) {
        let retired = self.flows.retire_addr(addr);
        self.counters.add("flows_retired", retired as u64);
    }

    /// Advances time: expires idle flows and bindings. The controller must
    /// destroy the VMs of returned bindings.
    pub fn expire(&mut self, now: SimTime) -> Vec<ExpiredBinding> {
        self.end_window();
        let evicted_flows = self.flows.expire(now, |_| {});
        self.counters.add("flows_expired", evicted_flows as u64);
        let expired = self.binder.expire(now);
        for e in &expired {
            self.rate.remove(&e.vm);
            self.retire_binding_flows(e.key.dst);
        }
        self.counters.add("bindings_expired", expired.len() as u64);
        expired
    }

    /// Window-barrier hook: folds hot-path counters into the counter set.
    /// The sharded engine calls this when a cell's window closes, and
    /// [`Gateway::expire`] on each tick. Cheap when nothing is pending.
    pub fn end_window(&mut self) {
        std::mem::take(&mut self.hot).fold_into(&mut self.counters);
    }

    /// The gateway's telemetry counters as of the last flush point
    /// (expire/window barrier). Hot-path tallies accumulated since then are
    /// not yet folded in — use [`Gateway::counters_snapshot`] for an
    /// up-to-the-packet view.
    #[must_use]
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// An up-to-the-packet copy of the counters: the flushed set plus any
    /// hot-path tallies still in flight. Report collection uses this so
    /// mid-window reads never observe stale totals.
    #[must_use]
    pub fn counters_snapshot(&self) -> CounterSet {
        let mut merged = self.counters.clone();
        self.hot.fold_into(&mut merged);
        merged
    }

    /// Live flow count.
    #[must_use]
    pub fn live_flows(&self) -> usize {
        self.flows.len()
    }

    /// The DNS proxy (attribution queries).
    #[must_use]
    pub fn dns(&self) -> &DnsProxy {
        &self.dns
    }

    /// Checkpoint support: serializes the gateway's complete mutable state
    /// (flow table, binder, DNS proxy, per-VM rate limiters, counters,
    /// stall deadline). The configuration and the
    /// tracer are excluded — restore goes into a gateway freshly built from
    /// the same [`GatewayConfig`], and tracing is digest-invisible.
    #[must_use]
    pub fn encode_state(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.bytes(&self.flows.encode_state());
        w.bytes(&self.binder.encode_state());
        w.bytes(&self.dns.encode_state());
        self.rate.snap(&mut w);
        // Serialize with in-flight hot tallies folded in: the wire image is
        // the flushed view, so snapshots need no flush-before-encode
        // discipline and round-trip exactly.
        self.counters_snapshot().snap(&mut w);
        self.stalled_until.snap(&mut w);
        w.into_bytes()
    }

    /// Restores state encoded by [`Gateway::encode_state`] into this
    /// gateway (configuration and tracer are kept).
    ///
    /// # Errors
    ///
    /// Returns [`potemkin_snapshot::SnapshotError::Decode`] on truncated or
    /// malformed input. Sub-components are restored in order, so a failure
    /// part-way can leave earlier sections applied — callers restore into a
    /// scratch gateway and discard it on error.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), potemkin_snapshot::SnapshotError> {
        let mut r = SnapReader::new(bytes, "gateway");
        self.flows.restore_state(r.bytes()?)?;
        self.binder.restore_state(r.bytes()?)?;
        self.dns.restore_state(r.bytes()?)?;
        let rate = Snap::unsnap(&mut r)?;
        let counters = Snap::unsnap(&mut r)?;
        let stalled_until = Snap::unsnap(&mut r)?;
        r.finish()?;
        self.rate = rate;
        self.counters = counters;
        // The wire image carried hot tallies already folded in.
        self.hot = HotStats::default();
        self.stalled_until = stalled_until;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use potemkin_net::dns::DnsMessage;
    use potemkin_net::icmp::IcmpMessage;
    use potemkin_net::tcp::TcpFlags;

    const ATTACKER: Ipv4Addr = Ipv4Addr::new(6, 6, 6, 6);
    const HP1: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 5);
    const HP2: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 9);
    const EXTERNAL: Ipv4Addr = Ipv4Addr::new(99, 1, 2, 3);

    fn syn(src: Ipv4Addr, dst: Ipv4Addr) -> Packet {
        PacketBuilder::new(src, dst).tcp_syn(4444, 445)
    }

    fn gw(policy: PolicyConfig) -> Gateway {
        Gateway::new(GatewayConfig { policy, ..Default::default() })
    }

    #[test]
    fn tracing_records_classify_spans_without_changing_actions() {
        use potemkin_obs::{TraceConfig, TraceEventKind};
        let mut plain = gw(PolicyConfig::reflect());
        let mut traced = gw(PolicyConfig::reflect());
        traced.set_tracer(Tracer::new(1, TraceConfig::unbounded()));
        let t = SimTime::ZERO;
        let a = plain.on_inbound(t, syn(ATTACKER, HP1));
        let b = traced.on_inbound(t, syn(ATTACKER, HP1));
        assert!(matches!(
            (&a, &b),
            (GatewayAction::CloneAndDeliver { .. }, GatewayAction::CloneAndDeliver { .. })
        ));
        assert!(plain.take_trace().is_empty(), "disabled by default");
        let events = traced.take_trace();
        let begins: Vec<&str> = events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::SpanBegin { name, .. } => Some(name),
                _ => None,
            })
            .collect();
        assert_eq!(begins, vec![obs::GW_CLASSIFY]);
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, TraceEventKind::Instant { name: "gw.action.clone", .. })));
    }

    #[test]
    fn first_packet_requests_clone_then_delivers() {
        let mut g = gw(PolicyConfig::reflect());
        let t = SimTime::ZERO;
        let p = syn(ATTACKER, HP1);
        match g.on_inbound(t, p.clone()) {
            GatewayAction::CloneAndDeliver { addr, packet } => {
                assert_eq!(addr, HP1);
                assert_eq!(packet, p);
            }
            other => panic!("unexpected {other:?}"),
        }
        g.bind(t, ATTACKER, HP1, VmRef(1));
        match g.on_inbound(t, p) {
            GatewayAction::Deliver { vm, .. } => assert_eq!(vm, VmRef(1)),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(g.binder.len(), 1);
    }

    #[test]
    fn ping_answered_without_vm() {
        let mut g = gw(PolicyConfig::reflect());
        let ping = PacketBuilder::new(ATTACKER, HP1).icmp_echo(9, 1, b"hello");
        match g.on_inbound(SimTime::ZERO, ping) {
            GatewayAction::GatewayReply(reply) => {
                assert_eq!(reply.src(), HP1);
                assert_eq!(reply.dst(), ATTACKER);
                match reply.payload() {
                    PacketPayload::Icmp(IcmpMessage::EchoReply { ident, payload, .. }) => {
                        assert_eq!(ident, 9);
                        assert_eq!(payload, b"hello");
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(g.binder.len(), 0, "no VM spent on a ping");
        // But a ping to a *bound* address goes to its VM.
        g.bind(SimTime::ZERO, ATTACKER, HP1, VmRef(1));
        let ping2 = PacketBuilder::new(ATTACKER, HP1).icmp_echo(9, 2, b"x");
        assert!(matches!(
            g.on_inbound(SimTime::ZERO, ping2),
            GatewayAction::Deliver { vm: VmRef(1), .. }
        ));
    }

    #[test]
    fn backscatter_never_gets_a_vm() {
        let mut g = gw(PolicyConfig::reflect());
        let t = SimTime::ZERO;
        // SYN-ACK and RST backscatter to unbound addresses: dropped.
        for flags in [TcpFlags::SYN_ACK, TcpFlags::RST, TcpFlags::ACK] {
            let p = PacketBuilder::new(ATTACKER, HP1).tcp_segment(80, 4444, flags, 1, 2, &[]);
            match g.on_inbound(t, p) {
                GatewayAction::Drop { reason } => assert_eq!(reason, DropReason::Backscatter),
                other => panic!("{flags}: unexpected {other:?}"),
            }
        }
        assert_eq!(g.counters().get("dropped_backscatter"), 3);
        assert_eq!(g.counters().get("clone_requests"), 0);
        // But an ACK to a *bound* address is delivered (established flow).
        g.bind(t, ATTACKER, HP1, VmRef(1));
        let ack = PacketBuilder::new(ATTACKER, HP1).tcp_segment(80, 4444, TcpFlags::ACK, 1, 2, &[]);
        assert!(matches!(g.on_inbound(t, ack), GatewayAction::Deliver { .. }));
        // With the filter disabled, backscatter earns a VM (the ablation).
        let mut policy = PolicyConfig::reflect();
        policy.filter_backscatter = false;
        let mut g2 = gw(policy);
        let p = PacketBuilder::new(ATTACKER, HP1).tcp_segment(80, 4444, TcpFlags::RST, 1, 2, &[]);
        assert!(matches!(g2.on_inbound(t, p), GatewayAction::CloneAndDeliver { .. }));
    }

    #[test]
    fn per_source_quota_enforced() {
        let mut policy = PolicyConfig::reflect();
        policy.per_source_vm_limit = Some(1);
        let mut g = gw(policy);
        let t = SimTime::ZERO;
        assert!(matches!(
            g.on_inbound(t, syn(ATTACKER, HP1)),
            GatewayAction::CloneAndDeliver { .. }
        ));
        g.bind(t, ATTACKER, HP1, VmRef(1));
        match g.on_inbound(t, syn(ATTACKER, HP2)) {
            GatewayAction::Drop { reason } => assert_eq!(reason, DropReason::SourceQuota),
            other => panic!("unexpected {other:?}"),
        }
        // A different source still gets a VM.
        let other_src = Ipv4Addr::new(7, 7, 7, 7);
        assert!(matches!(
            g.on_inbound(t, syn(other_src, HP2)),
            GatewayAction::CloneAndDeliver { .. }
        ));
    }

    #[test]
    fn reply_to_attacker_forwarded() {
        let mut g = gw(PolicyConfig::reflect());
        let t = SimTime::ZERO;
        g.on_inbound(t, syn(ATTACKER, HP1));
        g.bind(t, ATTACKER, HP1, VmRef(1));
        g.on_inbound(t, syn(ATTACKER, HP1));
        // The VM answers with a SYN-ACK.
        let synack = PacketBuilder::new(HP1, ATTACKER).tcp_segment(
            445,
            4444,
            potemkin_net::tcp::TcpFlags::SYN_ACK,
            0,
            1,
            &[],
        );
        match g.on_outbound(t, VmRef(1), synack) {
            GatewayAction::ForwardExternal(p) => assert_eq!(p.dst(), ATTACKER),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn new_outbound_reflected_dropped_or_allowed_by_mode() {
        for (policy, expect_escape, expect_reflect) in [
            (PolicyConfig::allow_all(), true, false),
            (PolicyConfig::drop_all(), false, false),
            (PolicyConfig::reflect(), false, true),
        ] {
            let mut g = gw(policy);
            let t = SimTime::ZERO;
            g.on_inbound(t, syn(ATTACKER, HP1));
            g.bind(t, ATTACKER, HP1, VmRef(1));
            // The (infected) VM probes an external victim.
            let probe = PacketBuilder::new(HP1, EXTERNAL).tcp_syn(1025, 445);
            match g.on_outbound(t, VmRef(1), probe) {
                GatewayAction::ForwardExternal(_) => assert!(expect_escape, "unexpected escape"),
                GatewayAction::Reflect { addr, packet } => {
                    assert!(expect_reflect, "unexpected reflect");
                    assert_eq!(addr, EXTERNAL);
                    assert_eq!(packet.dst(), EXTERNAL);
                }
                GatewayAction::Drop { reason } => {
                    assert!(!expect_escape && !expect_reflect, "unexpected drop");
                    assert_eq!(reason, DropReason::Containment);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn reflection_dialogue_stays_internal() {
        let mut g = gw(PolicyConfig::reflect());
        let t = SimTime::ZERO;
        g.on_inbound(t, syn(ATTACKER, HP1));
        g.bind(t, ATTACKER, HP1, VmRef(1));
        // VM1 probes HP2's address; gateway reflects; controller clones VM2.
        let probe = PacketBuilder::new(HP1, HP2).tcp_syn(1025, 445);
        let GatewayAction::Reflect { addr, packet } = g.on_outbound(t, VmRef(1), probe) else {
            panic!("expected reflect");
        };
        let GatewayAction::CloneAndDeliver { .. } = g.on_inbound(t, packet.clone()) else {
            panic!("expected clone request");
        };
        g.bind(t, addr /* == HP2 */, addr, VmRef(2));
        g.bind(t, HP1, HP2, VmRef(2));
        assert!(matches!(g.on_inbound(t, packet), GatewayAction::Deliver { vm: VmRef(2), .. }));
        // VM2's reply to VM1 is delivered internally, not forwarded.
        let synack = PacketBuilder::new(HP2, HP1).tcp_segment(
            445,
            1025,
            potemkin_net::tcp::TcpFlags::SYN_ACK,
            0,
            1,
            &[],
        );
        match g.on_outbound(t, VmRef(2), synack) {
            GatewayAction::Deliver { vm, .. } => assert_eq!(vm, VmRef(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dns_answered_by_proxy_and_sinkhole_reflects() {
        let mut g = gw(PolicyConfig::reflect());
        let t = SimTime::ZERO;
        g.on_inbound(t, syn(ATTACKER, HP1));
        g.bind(t, ATTACKER, HP1, VmRef(1));
        let query = DnsMessage::query_a(3, "c2.example").build().unwrap();
        let qpkt = PacketBuilder::new(HP1, Ipv4Addr::new(4, 2, 2, 2)).udp(5353, 53, &query);
        let GatewayAction::GatewayReply(reply) = g.on_outbound(t, VmRef(1), qpkt) else {
            panic!("expected dns reply");
        };
        assert_eq!(reply.dst(), HP1);
        let PacketPayload::Udp { payload, .. } = reply.payload() else { panic!() };
        let msg = DnsMessage::parse(payload).unwrap();
        let c2_addr = msg.answers[0].addr().unwrap();
        assert!(g.dns().is_sinkhole_addr(c2_addr));
        // Connecting to the sinkhole address reflects even though the mode
        // check would also reflect — and even under AllowAll it must reflect.
        let connect = PacketBuilder::new(HP1, c2_addr).tcp_syn(1026, 6667);
        assert!(matches!(g.on_outbound(t, VmRef(1), connect), GatewayAction::Reflect { .. }));
    }

    #[test]
    fn sinkhole_reflects_even_under_allow_all() {
        let mut g = gw(PolicyConfig::allow_all());
        let t = SimTime::ZERO;
        g.on_inbound(t, syn(ATTACKER, HP1));
        g.bind(t, ATTACKER, HP1, VmRef(1));
        let query = DnsMessage::query_a(3, "c2.example").build().unwrap();
        let qpkt = PacketBuilder::new(HP1, Ipv4Addr::new(4, 2, 2, 2)).udp(5353, 53, &query);
        let GatewayAction::GatewayReply(reply) = g.on_outbound(t, VmRef(1), qpkt) else {
            panic!("expected dns reply");
        };
        let PacketPayload::Udp { payload, .. } = reply.payload() else { panic!() };
        let c2_addr = DnsMessage::parse(payload).unwrap().answers[0].addr().unwrap();
        let connect = PacketBuilder::new(HP1, c2_addr).tcp_syn(1026, 6667);
        assert!(matches!(g.on_outbound(t, VmRef(1), connect), GatewayAction::Reflect { .. }));
    }

    #[test]
    fn spoofed_source_dropped() {
        let mut g = gw(PolicyConfig::reflect());
        let t = SimTime::ZERO;
        g.on_inbound(t, syn(ATTACKER, HP1));
        g.bind(t, ATTACKER, HP1, VmRef(1));
        // VM 1 claims to be HP2 (not bound to it).
        let spoofed = PacketBuilder::new(HP2, EXTERNAL).tcp_syn(1, 2);
        match g.on_outbound(t, VmRef(1), spoofed) {
            GatewayAction::Drop { reason } => assert_eq!(reason, DropReason::SpoofedSource),
            other => panic!("unexpected {other:?}"),
        }
        // VM 2 claims HP1's address (bound to VM 1).
        let stolen = PacketBuilder::new(HP1, EXTERNAL).tcp_syn(1, 2);
        assert!(matches!(
            g.on_outbound(t, VmRef(2), stolen),
            GatewayAction::Drop { reason: DropReason::SpoofedSource }
        ));
    }

    #[test]
    fn rate_limit_applies_to_new_outbound_only() {
        let mut policy = PolicyConfig::reflect();
        policy.outbound_pps_limit = Some(1.0);
        policy.outbound_burst = 2.0;
        let mut g = gw(policy);
        let t = SimTime::ZERO;
        g.on_inbound(t, syn(ATTACKER, HP1));
        g.bind(t, ATTACKER, HP1, VmRef(1));
        // Two probes pass (burst), the third is rate-limited.
        for i in 0..2 {
            let probe = PacketBuilder::new(HP1, Ipv4Addr::new(99, 0, 0, i + 1)).tcp_syn(1025, 445);
            assert!(
                matches!(g.on_outbound(t, VmRef(1), probe), GatewayAction::Reflect { .. }),
                "probe {i} should reflect"
            );
        }
        let probe = PacketBuilder::new(HP1, Ipv4Addr::new(99, 0, 0, 3)).tcp_syn(1025, 445);
        assert!(matches!(
            g.on_outbound(t, VmRef(1), probe),
            GatewayAction::Drop { reason: DropReason::RateLimited }
        ));
        // Replies are never rate-limited.
        let synack = PacketBuilder::new(HP1, ATTACKER).tcp_segment(
            445,
            4444,
            potemkin_net::tcp::TcpFlags::SYN_ACK,
            0,
            1,
            &[],
        );
        assert!(matches!(g.on_outbound(t, VmRef(1), synack), GatewayAction::ForwardExternal(_)));
    }

    #[test]
    fn expiry_reports_vms_for_recycling() {
        let mut g = gw(PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10)));
        let t = SimTime::ZERO;
        g.on_inbound(t, syn(ATTACKER, HP1));
        g.bind(t, ATTACKER, HP1, VmRef(1));
        assert!(g.expire(SimTime::from_secs(9)).is_empty());
        let expired = g.expire(SimTime::from_secs(11));
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].vm, VmRef(1));
        assert_eq!(g.binder.len(), 0);
        // Next packet for HP1 requests a fresh clone.
        assert!(matches!(
            g.on_inbound(SimTime::from_secs(12), syn(ATTACKER, HP1)),
            GatewayAction::CloneAndDeliver { .. }
        ));
    }

    #[test]
    fn expired_binding_cannot_leak_replies_from_a_recycled_vm() {
        // Regression: the default flow idle timeout (120 s) outlives the
        // binding idle timeout (60 s). Before the fix, the attacker's
        // inbound-initiated flow survived the binding's expiry, so when the
        // address was re-bound to a recycled VM, that VM's packets matched
        // the stale flow, counted as "replies", and were forwarded outside —
        // a containment hole. Expiring a binding must retire its flows.
        let mut g = gw(PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10)));
        let t = SimTime::ZERO;
        g.on_inbound(t, syn(ATTACKER, HP1));
        g.bind(t, ATTACKER, HP1, VmRef(1));
        g.on_inbound(t, syn(ATTACKER, HP1));
        assert!(g.flows.flows_for(HP1) > 0);

        // The binding idles out; the flow idle timeout alone (120 s) would
        // have kept the flow for another ~110 s.
        let expired = g.expire(SimTime::from_secs(11));
        assert_eq!(expired.len(), 1);
        assert_eq!(g.flows.flows_for(HP1), 0, "binding expiry retires its flows");

        // The address is re-bound to a different (recycled) VM, which emits
        // a "SYN-ACK reply" into the old dialogue it never had.
        let t2 = SimTime::from_secs(12);
        g.bind(t2, ATTACKER, HP1, VmRef(2));
        let synack =
            PacketBuilder::new(HP1, ATTACKER).tcp_segment(445, 4444, TcpFlags::SYN_ACK, 0, 1, &[]);
        match g.on_outbound(t2, VmRef(2), synack) {
            GatewayAction::ForwardExternal(_) => {
                panic!("stale flow let a recycled VM's packet escape")
            }
            GatewayAction::Reflect { .. } => {} // contained, as required
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pressure_eviction_also_retires_flows() {
        let mut g = gw(PolicyConfig::reflect());
        let t = SimTime::ZERO;
        g.on_inbound(t, syn(ATTACKER, HP1));
        g.bind(t, ATTACKER, HP1, VmRef(1));
        g.on_inbound(t, syn(ATTACKER, HP1));
        assert!(g.flows.flows_for(HP1) > 0);
        let mut policy = crate::reclaim::ReclaimPolicyKind::Oldest.instantiate();
        let evicted = g.evict_for_pressure(SimTime::from_secs(1), &mut policy).unwrap();
        assert_eq!(evicted.vm, VmRef(1));
        assert_eq!(g.flows.flows_for(HP1), 0);
        assert_eq!(g.counters().get("bindings_evicted_pressure"), 1);
    }

    #[test]
    fn pressure_eviction_respects_the_policy_choice() {
        let mut g = gw(PolicyConfig::reflect());
        g.on_inbound(SimTime::ZERO, syn(ATTACKER, HP1));
        g.bind(SimTime::ZERO, ATTACKER, HP1, VmRef(1));
        g.on_inbound(SimTime::from_secs(1), syn(ATTACKER, HP2));
        g.bind(SimTime::from_secs(1), ATTACKER, HP2, VmRef(2));
        // HP1 stays active; HP2 never hears another packet, so LRU evicts it
        // even though HP1's binding is older.
        g.on_inbound(SimTime::from_secs(5), syn(ATTACKER, HP1));
        let mut policy = crate::reclaim::ReclaimPolicyKind::LruByLastPacket.instantiate();
        let evicted = g.evict_for_pressure(SimTime::from_secs(6), &mut policy).unwrap();
        assert_eq!(evicted.vm, VmRef(2), "least recently active loses");
        assert!(g.evict_for_pressure(SimTime::from_secs(7), &mut policy).is_some());
        assert!(g.evict_for_pressure(SimTime::from_secs(8), &mut policy).is_none(), "empty");
    }

    #[test]
    fn stalled_gateway_rejects_new_bindings_but_serves_existing() {
        let mut g = gw(PolicyConfig::reflect());
        let t = SimTime::ZERO;
        g.on_inbound(t, syn(ATTACKER, HP1));
        g.bind(t, ATTACKER, HP1, VmRef(1));

        g.stall_for(t, SimTime::from_secs(5));
        assert!(g.is_stalled(SimTime::from_secs(4)));
        // Existing binding still delivers.
        assert!(matches!(
            g.on_inbound(SimTime::from_secs(1), syn(ATTACKER, HP1)),
            GatewayAction::Deliver { vm: VmRef(1), .. }
        ));
        // A new address is refused while stalled.
        match g.on_inbound(SimTime::from_secs(1), syn(ATTACKER, HP2)) {
            GatewayAction::Drop { reason } => assert_eq!(reason, DropReason::GatewayStalled),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(g.counters().get("dropped_gateway_stalled"), 1);
        // After the stall clears, admission resumes.
        assert!(!g.is_stalled(SimTime::from_secs(6)));
        assert!(matches!(
            g.on_inbound(SimTime::from_secs(6), syn(ATTACKER, HP2)),
            GatewayAction::CloneAndDeliver { .. }
        ));
    }

    #[test]
    fn admission_cap_bounds_bindings() {
        let mut policy = PolicyConfig::reflect().with_idle_timeout(SimTime::from_secs(10));
        policy.max_bindings = Some(1);
        let mut g = gw(policy);
        let t = SimTime::ZERO;
        assert!(matches!(
            g.on_inbound(t, syn(ATTACKER, HP1)),
            GatewayAction::CloneAndDeliver { .. }
        ));
        g.bind(t, ATTACKER, HP1, VmRef(1));
        match g.on_inbound(t, syn(ATTACKER, HP2)) {
            GatewayAction::Drop { reason } => assert_eq!(reason, DropReason::AdmissionControl),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(g.counters().get("dropped_admission"), 1);
        // Expiry frees a slot and admission resumes.
        g.expire(SimTime::from_secs(11));
        assert!(matches!(
            g.on_inbound(SimTime::from_secs(12), syn(ATTACKER, HP2)),
            GatewayAction::CloneAndDeliver { .. }
        ));
    }

    #[test]
    fn unbind_vm_reports_addresses_and_retires_flows() {
        let mut g = gw(PolicyConfig::reflect());
        let t = SimTime::ZERO;
        g.on_inbound(t, syn(ATTACKER, HP1));
        g.bind(t, ATTACKER, HP1, VmRef(1));
        g.on_inbound(t, syn(ATTACKER, HP2));
        g.bind(t, ATTACKER, HP2, VmRef(2));
        g.on_inbound(t, syn(ATTACKER, HP1));

        let addrs = g.unbind_vm(VmRef(1));
        assert_eq!(addrs, vec![HP1]);
        assert_eq!(g.binder.len(), 1);
        assert_eq!(g.flows.flows_for(HP1), 0);
        // The survivor is untouched.
        assert!(matches!(
            g.on_inbound(SimTime::from_secs(1), syn(ATTACKER, HP2)),
            GatewayAction::Deliver { vm: VmRef(2), .. }
        ));
        assert!(g.unbind_vm(VmRef(99)).is_empty());
    }

    #[test]
    fn counters_track_the_pipeline() {
        let mut g = gw(PolicyConfig::reflect());
        let t = SimTime::ZERO;
        g.on_inbound(t, syn(ATTACKER, HP1));
        g.bind(t, ATTACKER, HP1, VmRef(1));
        g.on_inbound(t, syn(ATTACKER, HP1));
        let probe = PacketBuilder::new(HP1, EXTERNAL).tcp_syn(1025, 445);
        g.on_outbound(t, VmRef(1), probe);
        // Hot-path tallies fold in at the window barrier.
        g.end_window();
        let c = g.counters();
        assert_eq!(c.get("packets_in"), 2);
        assert_eq!(c.get("clone_requests"), 1);
        assert_eq!(c.get("delivered"), 1);
        assert_eq!(c.get("packets_out"), 1);
        assert_eq!(c.get("reflected"), 1);
        assert_eq!(c.get("escaped"), 0);
    }

    /// Drives a gateway through every state-bearing path: bindings, flows,
    /// DNS resolution, outbound rate limiting, a stall window.
    fn busy_gateway() -> Gateway {
        let mut g = gw(PolicyConfig::reflect());
        let t0 = SimTime::ZERO;
        g.on_inbound(t0, syn(ATTACKER, HP1));
        g.bind(t0, ATTACKER, HP1, VmRef(1));
        g.on_inbound(t0, syn(ATTACKER, HP1));
        g.on_inbound(SimTime::from_secs(1), syn(Ipv4Addr::new(7, 7, 7, 7), HP2));
        g.bind(SimTime::from_secs(1), Ipv4Addr::new(7, 7, 7, 7), HP2, VmRef(2));
        g.on_inbound(SimTime::from_secs(2), syn(Ipv4Addr::new(7, 7, 7, 7), HP2));
        let probe = PacketBuilder::new(HP1, EXTERNAL).tcp_syn(1025, 445);
        g.on_outbound(SimTime::from_secs(2), VmRef(1), probe);
        let q = potemkin_net::dns::DnsMessage::query_a(3, "c2.evil.example").build().unwrap();
        let dns = PacketBuilder::new(HP1, Ipv4Addr::new(8, 8, 8, 8)).udp(3333, 53, &q);
        g.on_outbound(SimTime::from_secs(3), VmRef(1), dns);
        g.stall_for(SimTime::from_secs(3), SimTime::from_secs(9));
        g
    }

    /// `(len, fnv1a64)` of [`busy_gateway`]'s `encode_state`, re-pinned for
    /// snapshot versions 4, 8 (the rate estimator's 33 bytes went) and 9 (a
    /// flow record is its key, initiator and stamp: 32 bytes less a flow)
    /// and 10 (no flow-table, binder or DNS tallies and no DNS TTL: 68
    /// bytes less).
    const BUSY_GATEWAY_PIN: (usize, u64) = (677, 0x91179f6ba4f99667);

    #[test]
    fn encode_restore_round_trips_bit_exactly() {
        let original = busy_gateway();
        let bytes = original.encode_state();
        assert_eq!((bytes.len(), potemkin_snapshot::fnv1a64(&bytes)), BUSY_GATEWAY_PIN);
        let mut restored = gw(PolicyConfig::reflect());
        restored.restore_state(&bytes).unwrap();
        assert_eq!(restored.encode_state(), bytes, "re-encode must be bit-identical");
        assert_eq!(restored.binder.len(), original.binder.len());
        assert_eq!(restored.live_flows(), original.live_flows());
        assert_eq!(restored.dns().names_resolved(), 1);
        assert!(restored.is_stalled(SimTime::from_secs(11)));
        assert!(!restored.is_stalled(SimTime::from_secs(13)));
    }

    #[test]
    fn restored_gateway_expires_bindings_like_the_original() {
        let mut original = busy_gateway();
        let mut restored = gw(PolicyConfig::reflect());
        restored.restore_state(&original.encode_state()).unwrap();
        // Idle expiry must fire at the same virtual instant with the same
        // victims on both gateways (due ticks survived restore).
        let far = SimTime::from_hours(2);
        let a = original.expire(far);
        let b = restored.expire(far);
        assert!(!a.is_empty(), "bindings idle out by then");
        assert_eq!(a, b);
        assert_eq!(original.encode_state(), restored.encode_state());
    }

    #[test]
    fn restore_rejects_truncated_and_garbage_payloads() {
        let bytes = busy_gateway().encode_state();
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            let mut g = gw(PolicyConfig::reflect());
            assert!(g.restore_state(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        let mut with_garbage = bytes.clone();
        with_garbage.extend_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
        let mut g = gw(PolicyConfig::reflect());
        assert!(g.restore_state(&with_garbage).is_err(), "trailing garbage must fail");
    }

    #[test]
    fn clock_reclaim_policy_state_round_trips() {
        use crate::binding::BindKey;
        use crate::reclaim::{ReclaimCandidate, ReclaimPolicyKind};
        let cand = |epoch: u64, packets: u64| ReclaimCandidate {
            key: BindKey { dst: Ipv4Addr::new(10, 0, 0, epoch as u8), src: None },
            vm: VmRef(epoch),
            bound_at: SimTime::from_secs(epoch),
            last_active: SimTime::from_secs(epoch + 1),
            packets,
            epoch,
        };
        let mut clock = ReclaimPolicyKind::Clock.instantiate();
        clock.pick(&[cand(0, 3), cand(1, 0), cand(2, 2)]);
        let state = clock.snapshot_state();
        let mut restored = ReclaimPolicyKind::Clock.instantiate();
        restored.restore_state(&state).unwrap();
        // Identical picks from here on: the hand position survived.
        let script = [cand(0, 5), cand(2, 2), cand(3, 0)];
        assert_eq!(clock.pick(&script), restored.pick(&script));
        assert_eq!(clock.snapshot_state(), restored.snapshot_state());
        // Stateless policies reject clock-shaped state.
        let mut oldest = ReclaimPolicyKind::Oldest.instantiate();
        assert!(oldest.restore_state(&state).is_err());
        assert!(oldest.restore_state(&[]).is_ok());
    }
}
