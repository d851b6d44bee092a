//! A deterministic BGP-style route table over IPv4 prefixes.
//!
//! The federation's top tier decides which member farm owns a packet by
//! longest-prefix match, exactly like a BGP RIB reduced to its
//! best-path-per-prefix view: each farm *advertises* the prefixes it
//! monitors, a default route may catch everything else, and a packet no
//! route covers is counted and dropped — never a panic, because remote
//! traffic is untrusted input.
//!
//! Determinism: the table is a pure value. Lookups depend only on the
//! inserted routes, iteration order is canonical (`BTreeMap`), and the
//! only mutable state is the lookup/miss counters — which are themselves
//! deterministic functions of the traffic.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use potemkin_net::addr::Ipv4Prefix;

/// One advertised route: a prefix and the farm that owns it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Route {
    /// The advertised prefix.
    pub(crate) prefix: Ipv4Prefix,
    /// The owning farm (tunnel key of its uplink).
    pub(crate) next_hop: u32,
}

/// A longest-prefix-match route table.
#[derive(Clone, Debug, Default)]
pub(crate) struct RouteTable {
    /// `(prefix length, network base)` → next hop. Keying by length first
    /// lets the lookup probe each present length exactly once.
    routes: BTreeMap<(u8, u32), u32>,
    /// Distinct prefix lengths present, longest first.
    lengths: Vec<u8>,
    lookups: u64,
    misses: u64,
}

impl RouteTable {
    /// Advertises `prefix` as owned by `next_hop`. Re-advertising the
    /// exact same prefix replaces the route and returns the previous next
    /// hop — the tie-break for equal-length, equal-prefix announcements is
    /// last-writer-wins, which is deterministic because insertion order is
    /// program order. Distinct prefixes of equal length never tie: at most
    /// one of them can contain a given address.
    pub(crate) fn insert(&mut self, prefix: Ipv4Prefix, next_hop: u32) -> Option<u32> {
        let bits = prefix.bits();
        if !self.lengths.contains(&bits) {
            self.lengths.push(bits);
            self.lengths.sort_unstable_by(|a, b| b.cmp(a));
        }
        self.routes.insert((bits, u32::from(prefix.network())), next_hop)
    }

    /// Longest-prefix match for `addr`. `None` — a counted miss — when no
    /// route (not even a default) covers it.
    pub(crate) fn lookup(&mut self, addr: Ipv4Addr) -> Option<u32> {
        self.lookups += 1;
        let raw = u32::from(addr);
        for &bits in &self.lengths {
            let mask = if bits == 0 { 0 } else { u32::MAX << (32 - bits) };
            if let Some(&hop) = self.routes.get(&(bits, raw & mask)) {
                return Some(hop);
            }
        }
        self.misses += 1;
        None
    }

    /// All routes in canonical `(length, network)` order.
    pub(crate) fn routes(&self) -> impl Iterator<Item = Route> + '_ {
        self.routes.iter().map(|(&(bits, base), &next_hop)| Route {
            prefix: Ipv4Prefix::new(Ipv4Addr::from(base), bits).expect("stored bits are valid"),
            next_hop,
        })
    }

    /// The `(lookups, misses)` counters: the table's only mutable state,
    /// and so all of it that a checkpoint carries — routes are
    /// configuration, rebuilt by the owner.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.lookups, self.misses)
    }

    /// Reinstates counters captured by [`RouteTable::counters`].
    pub(crate) fn set_counters(&mut self, (lookups, misses): (u64, u64)) {
        self.lookups = lookups;
        self.misses = misses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RouteTable {
        let mut t = RouteTable::default();
        t.insert("10.0.0.0/14".parse().unwrap(), 0);
        t.insert("10.4.0.0/14".parse().unwrap(), 1);
        t
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = table();
        // A /16 carved out of farm 0's /14 and delegated to farm 7.
        t.insert("10.1.0.0/16".parse().unwrap(), 7);
        // And a /24 inside that /16 delegated further.
        t.insert("10.1.5.0/24".parse().unwrap(), 9);
        assert_eq!(t.lookup(Ipv4Addr::new(10, 0, 1, 1)), Some(0), "/14 only");
        assert_eq!(t.lookup(Ipv4Addr::new(10, 1, 200, 1)), Some(7), "/16 beats /14");
        assert_eq!(t.lookup(Ipv4Addr::new(10, 1, 5, 77)), Some(9), "/24 beats /16 and /14");
        assert_eq!(t.lookup(Ipv4Addr::new(10, 4, 0, 1)), Some(1));
    }

    #[test]
    fn equal_length_readvertisement_tie_breaks_last_writer() {
        let mut t = table();
        // The same prefix re-advertised moves ownership deterministically.
        assert_eq!(t.insert("10.4.0.0/14".parse().unwrap(), 5), Some(1));
        assert_eq!(t.lookup(Ipv4Addr::new(10, 4, 0, 1)), Some(5));
        // Distinct equal-length prefixes never collide on one address.
        assert_eq!(t.lookup(Ipv4Addr::new(10, 0, 0, 1)), Some(0));
        assert_eq!(t.routes.len(), 2);
    }

    #[test]
    fn default_route_fallback() {
        let mut t = table();
        assert_eq!(t.lookup(Ipv4Addr::new(192, 168, 1, 1)), None, "no default yet");
        t.insert("0.0.0.0/0".parse().unwrap(), 42);
        assert_eq!(t.lookup(Ipv4Addr::new(192, 168, 1, 1)), Some(42));
        // Specific routes still beat the default.
        assert_eq!(t.lookup(Ipv4Addr::new(10, 0, 0, 1)), Some(0));
        assert_eq!(t.misses, 1, "the defaulted lookup is not a miss");
    }

    #[test]
    fn unadvertised_prefix_counts_as_miss_without_panicking() {
        let mut t = table();
        for i in 0..5u8 {
            assert_eq!(t.lookup(Ipv4Addr::new(172, 16, 0, i)), None);
        }
        assert_eq!(t.lookups, 5);
        assert_eq!(t.misses, 5);
        // The empty table is the degenerate everything-misses case.
        let mut empty = RouteTable::default();
        assert!(empty.routes.is_empty());
        assert_eq!(empty.lookup(Ipv4Addr::new(1, 2, 3, 4)), None);
        assert_eq!(empty.misses, 1);
    }
}
