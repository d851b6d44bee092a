//! Canonical transport flow identification.
//!
//! The gateway keeps per-flow state (which honeypot VM owns the flow, when it
//! was last seen, what the containment verdict was). [`FlowKey`] is the
//! 5-tuple in directional form; [`FlowKey::canonical`] folds the two
//! directions of a connection onto one key so both halves share state.

use core::fmt;
use std::net::Ipv4Addr;

use potemkin_snapshot::{snap_enum, snap_struct};

/// Transport identification for a flow: protocol plus ports where they
/// exist.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Transport {
    /// TCP with (src, dst) ports.
    Tcp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
    },
    /// UDP with (src, dst) ports.
    Udp {
        /// Source port.
        src_port: u16,
        /// Destination port.
        dst_port: u16,
    },
    /// ICMP keyed by the echo identifier (0 for non-echo).
    Icmp {
        /// Echo identifier.
        ident: u16,
    },
    /// Any other protocol, keyed by protocol number only.
    Other {
        /// IP protocol number.
        protocol: u8,
    },
}

snap_enum!(Transport {
    Tcp { src_port, dst_port } = 0,
    Udp { src_port, dst_port } = 1,
    Icmp { ident } = 2,
    Other { protocol } = 3,
});

impl Transport {
    /// The destination port, if the transport has ports.
    #[must_use]
    pub fn dst_port(&self) -> Option<u16> {
        match self {
            Transport::Tcp { dst_port, .. } | Transport::Udp { dst_port, .. } => Some(*dst_port),
            _ => None,
        }
    }

    /// The source port, if the transport has ports.
    #[must_use]
    pub fn src_port(&self) -> Option<u16> {
        match self {
            Transport::Tcp { src_port, .. } | Transport::Udp { src_port, .. } => Some(*src_port),
            _ => None,
        }
    }

    /// The same transport with source and destination swapped.
    #[must_use]
    pub(crate) fn reversed(&self) -> Transport {
        match *self {
            Transport::Tcp { src_port, dst_port } => {
                Transport::Tcp { src_port: dst_port, dst_port: src_port }
            }
            Transport::Udp { src_port, dst_port } => {
                Transport::Udp { src_port: dst_port, dst_port: src_port }
            }
            t => t,
        }
    }
}

/// A directional flow key: source, destination, transport.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey {
    /// Source IPv4 address.
    pub src: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst: Ipv4Addr,
    /// Transport identification.
    pub transport: Transport,
}

snap_struct!(FlowKey { src, dst, transport });

impl FlowKey {
    /// Creates a TCP flow key.
    #[must_use]
    pub fn tcp(src: Ipv4Addr, src_port: u16, dst: Ipv4Addr, dst_port: u16) -> Self {
        FlowKey { src, dst, transport: Transport::Tcp { src_port, dst_port } }
    }

    /// The reverse-direction key.
    #[must_use]
    pub fn reversed(&self) -> FlowKey {
        FlowKey { src: self.dst, dst: self.src, transport: self.transport.reversed() }
    }

    /// The canonical (direction-independent) form: the lexicographically
    /// smaller of `self` and `self.reversed()`, so both directions of a
    /// connection map to the same key.
    #[must_use]
    pub fn canonical(&self) -> FlowKey {
        let rev = self.reversed();
        if *self <= rev {
            *self
        } else {
            rev
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.transport {
            Transport::Tcp { src_port, dst_port } => {
                write!(f, "tcp {}:{} -> {}:{}", self.src, src_port, self.dst, dst_port)
            }
            Transport::Udp { src_port, dst_port } => {
                write!(f, "udp {}:{} -> {}:{}", self.src, src_port, self.dst, dst_port)
            }
            Transport::Icmp { ident } => {
                write!(f, "icmp {} -> {} (id {})", self.src, self.dst, ident)
            }
            Transport::Other { protocol } => {
                write!(f, "proto-{} {} -> {}", protocol, self.src, self.dst)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(1, 1, 1, 1);
    const B: Ipv4Addr = Ipv4Addr::new(2, 2, 2, 2);

    fn udp(src: Ipv4Addr, src_port: u16, dst: Ipv4Addr, dst_port: u16) -> FlowKey {
        FlowKey { src, dst, transport: Transport::Udp { src_port, dst_port } }
    }

    fn icmp(src: Ipv4Addr, dst: Ipv4Addr, ident: u16) -> FlowKey {
        FlowKey { src, dst, transport: Transport::Icmp { ident } }
    }

    #[test]
    fn reversed_swaps_everything() {
        let k = FlowKey::tcp(A, 1000, B, 80);
        let r = k.reversed();
        assert_eq!(r.src, B);
        assert_eq!(r.dst, A);
        assert_eq!(r.transport, Transport::Tcp { src_port: 80, dst_port: 1000 });
        assert_eq!(r.reversed(), k);
    }

    #[test]
    fn canonical_is_direction_independent() {
        let k = FlowKey::tcp(A, 1000, B, 80);
        assert_eq!(k.canonical(), k.reversed().canonical());
        let u = udp(B, 53, A, 3000);
        assert_eq!(u.canonical(), u.reversed().canonical());
        let i = icmp(A, B, 7);
        assert_eq!(i.canonical(), i.reversed().canonical());
    }

    #[test]
    fn canonical_is_idempotent() {
        let k = FlowKey::tcp(B, 80, A, 1000);
        assert_eq!(k.canonical().canonical(), k.canonical());
    }

    #[test]
    fn distinct_flows_have_distinct_canonical_keys() {
        let k1 = FlowKey::tcp(A, 1000, B, 80).canonical();
        let k2 = FlowKey::tcp(A, 1001, B, 80).canonical();
        let k3 = udp(A, 1000, B, 80).canonical();
        assert_ne!(k1, k2);
        assert_ne!(k1, k3);
    }

    #[test]
    fn transport_accessors() {
        let t = Transport::Tcp { src_port: 5, dst_port: 6 };
        assert_eq!(t.src_port(), Some(5));
        assert_eq!(t.dst_port(), Some(6));
        let i = Transport::Icmp { ident: 1 };
        assert_eq!(i.src_port(), None);
        assert_eq!(i.dst_port(), None);
        let o = Transport::Other { protocol: 89 };
        assert_eq!(o.reversed(), o);
    }

    #[test]
    fn display_formats() {
        assert_eq!(FlowKey::tcp(A, 4444, B, 445).to_string(), "tcp 1.1.1.1:4444 -> 2.2.2.2:445");
        assert_eq!(icmp(A, B, 3).to_string(), "icmp 1.1.1.1 -> 2.2.2.2 (id 3)");
    }
}
