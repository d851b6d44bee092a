//! Network-layer addressing.
//!
//! IPv4 addresses use [`std::net::Ipv4Addr`]; this module adds the CIDR
//! prefix arithmetic the gateway and telescope generators need (membership
//! tests, index↔address mapping over a prefix, iteration).

use core::fmt;
use core::str::FromStr;
use std::net::Ipv4Addr;

use crate::error::NetError;

/// An IPv4 CIDR prefix, e.g. `10.1.0.0/16`.
///
/// The Potemkin gateway is delegated entire telescope prefixes (the paper's
/// deployment used a /16); this type provides the membership and indexing
/// operations used to map telescope addresses to honeypot VMs.
///
/// # Examples
///
/// ```
/// use potemkin_net::Ipv4Prefix;
/// use std::net::Ipv4Addr;
///
/// let p: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
/// assert_eq!(p.len(), 65_536);
/// assert!(p.contains(Ipv4Addr::new(10, 1, 200, 3)));
/// assert!(!p.contains(Ipv4Addr::new(10, 2, 0, 0)));
/// assert_eq!(p.addr_at(257), Some(Ipv4Addr::new(10, 1, 1, 1)));
/// assert_eq!(p.index_of(Ipv4Addr::new(10, 1, 1, 1)), Some(257));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Ipv4Prefix {
    base: u32,
    bits: u8,
}

impl Ipv4Prefix {
    /// Creates a prefix, normalizing the base address (host bits cleared).
    ///
    /// Returns an error if `bits > 32`.
    pub fn new(base: Ipv4Addr, bits: u8) -> Result<Self, NetError> {
        if bits > 32 {
            return Err(NetError::InvalidField { layer: "prefix", what: "bits > 32" });
        }
        let mask = Self::mask_for(bits);
        Ok(Ipv4Prefix { base: u32::from(base) & mask, bits })
    }

    fn mask_for(bits: u8) -> u32 {
        if bits == 0 {
            0
        } else {
            u32::MAX << (32 - bits)
        }
    }

    /// The network mask as a `u32`.
    #[must_use]
    pub(crate) fn mask(self) -> u32 {
        Self::mask_for(self.bits)
    }

    /// The (normalized) network base address.
    #[must_use]
    pub fn network(self) -> Ipv4Addr {
        Ipv4Addr::from(self.base)
    }

    /// The prefix length in bits.
    #[must_use]
    pub fn bits(self) -> u8 {
        self.bits
    }

    /// The number of addresses covered by the prefix.
    #[must_use]
    pub fn len(self) -> u64 {
        1u64 << (32 - self.bits)
    }

    /// Whether the prefix is empty (never: every prefix covers ≥1 address).
    #[must_use]
    pub fn is_empty(self) -> bool {
        false
    }

    /// Whether `addr` falls inside the prefix.
    #[must_use]
    pub fn contains(self, addr: Ipv4Addr) -> bool {
        u32::from(addr) & self.mask() == self.base
    }

    /// The `index`-th address of the prefix, or `None` if out of range.
    #[must_use]
    pub fn addr_at(self, index: u64) -> Option<Ipv4Addr> {
        (index < self.len()).then(|| Ipv4Addr::from(self.base + index as u32))
    }

    /// The index of `addr` within the prefix, or `None` if outside it.
    #[must_use]
    pub fn index_of(self, addr: Ipv4Addr) -> Option<u64> {
        self.contains(addr).then(|| u64::from(u32::from(addr) - self.base))
    }

    /// Iterates over every address in the prefix.
    pub fn iter(self) -> impl Iterator<Item = Ipv4Addr> {
        (0..self.len()).map(move |i| Ipv4Addr::from(self.base + i as u32))
    }

    /// Whether `other` is fully contained in `self`.
    #[must_use]
    pub fn covers(self, other: Ipv4Prefix) -> bool {
        self.bits <= other.bits && (other.base & self.mask()) == self.base
    }

    /// Whether the two prefixes share any address: one covers the other.
    #[must_use]
    pub fn overlaps(self, other: Ipv4Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// The `index`-th of `parts` equal contiguous sub-prefixes, e.g.
    /// `10.0.0.0/16` split four ways yields `/18`s. Federated telescopes
    /// use this to carve one monitored range into per-farm advertisements
    /// that aggregate back exactly.
    ///
    /// # Errors
    ///
    /// Returns an error unless `parts` is a power of two no larger than the
    /// prefix (a CIDR prefix only splits evenly at powers of two), or when
    /// `index >= parts`.
    pub fn subprefix(self, index: u64, parts: u64) -> Result<Ipv4Prefix, NetError> {
        if parts == 0 || !parts.is_power_of_two() || parts > self.len() {
            return Err(NetError::InvalidField {
                layer: "prefix",
                what: "parts must be a power of two <= prefix size",
            });
        }
        if index >= parts {
            return Err(NetError::InvalidField { layer: "prefix", what: "index >= parts" });
        }
        let extra = parts.trailing_zeros() as u8;
        let slice_len = self.len() / parts;
        Ok(Ipv4Prefix { base: self.base + (index * slice_len) as u32, bits: self.bits + extra })
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.bits)
    }
}

impl fmt::Debug for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ipv4Prefix({self})")
    }
}

impl FromStr for Ipv4Prefix {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, bits) = s
            .split_once('/')
            .ok_or(NetError::InvalidField { layer: "prefix", what: "missing '/'" })?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|_| NetError::InvalidField { layer: "prefix", what: "bad address" })?;
        let bits: u8 = bits
            .parse()
            .map_err(|_| NetError::InvalidField { layer: "prefix", what: "bad prefix length" })?;
        Ipv4Prefix::new(addr, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_normalizes_host_bits() {
        let p = Ipv4Prefix::new(Ipv4Addr::new(10, 1, 2, 3), 16).unwrap();
        assert_eq!(p.network(), Ipv4Addr::new(10, 1, 0, 0));
        assert_eq!(p.to_string(), "10.1.0.0/16");
    }

    #[test]
    fn prefix_len_and_bounds() {
        let p: Ipv4Prefix = "192.168.1.0/24".parse().unwrap();
        assert_eq!(p.len(), 256);
        assert_eq!(p.addr_at(0), Some(Ipv4Addr::new(192, 168, 1, 0)));
        assert_eq!(p.addr_at(255), Some(Ipv4Addr::new(192, 168, 1, 255)));
        assert_eq!(p.addr_at(256), None);
    }

    #[test]
    fn prefix_contains_and_index_roundtrip() {
        let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let a = Ipv4Addr::new(10, 200, 3, 4);
        assert!(p.contains(a));
        let idx = p.index_of(a).unwrap();
        assert_eq!(p.addr_at(idx), Some(a));
        assert_eq!(p.index_of(Ipv4Addr::new(11, 0, 0, 0)), None);
    }

    #[test]
    fn prefix_extremes() {
        let all: Ipv4Prefix = "0.0.0.0/0".parse().unwrap();
        assert_eq!(all.len(), 1u64 << 32);
        assert!(all.contains(Ipv4Addr::new(255, 255, 255, 255)));

        let host: Ipv4Prefix = "1.2.3.4/32".parse().unwrap();
        assert_eq!(host.len(), 1);
        assert!(host.contains(Ipv4Addr::new(1, 2, 3, 4)));
        assert!(!host.contains(Ipv4Addr::new(1, 2, 3, 5)));

        assert!(Ipv4Prefix::new(Ipv4Addr::new(0, 0, 0, 0), 33).is_err());
    }

    #[test]
    fn prefix_iter_covers_all() {
        let p: Ipv4Prefix = "10.0.0.0/30".parse().unwrap();
        let addrs: Vec<Ipv4Addr> = p.iter().collect();
        assert_eq!(
            addrs,
            vec![
                Ipv4Addr::new(10, 0, 0, 0),
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                Ipv4Addr::new(10, 0, 0, 3),
            ]
        );
    }

    #[test]
    fn prefix_covers() {
        let p16: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
        let p24: Ipv4Prefix = "10.1.5.0/24".parse().unwrap();
        let other: Ipv4Prefix = "10.2.0.0/24".parse().unwrap();
        assert!(p16.covers(p24));
        assert!(!p24.covers(p16));
        assert!(!p16.covers(other));
        assert!(p16.covers(p16));
    }

    #[test]
    fn prefix_overlaps() {
        let p16: Ipv4Prefix = "10.1.0.0/16".parse().unwrap();
        let p24: Ipv4Prefix = "10.1.5.0/24".parse().unwrap();
        let other: Ipv4Prefix = "10.2.0.0/16".parse().unwrap();
        assert!(p16.overlaps(p24));
        assert!(p24.overlaps(p16));
        assert!(!p16.overlaps(other));
    }

    #[test]
    fn subprefix_splits_evenly_and_aggregates_back() {
        let p: Ipv4Prefix = "10.0.0.0/16".parse().unwrap();
        let quarters: Vec<Ipv4Prefix> = (0..4).map(|i| p.subprefix(i, 4).unwrap()).collect();
        assert_eq!(quarters[0].to_string(), "10.0.0.0/18");
        assert_eq!(quarters[1].to_string(), "10.0.64.0/18");
        assert_eq!(quarters[3].to_string(), "10.0.192.0/18");
        // Slices tile the parent: every address belongs to exactly one.
        assert_eq!(quarters.iter().map(|q| q.len()).sum::<u64>(), p.len());
        for (i, q) in quarters.iter().enumerate() {
            assert!(p.covers(*q));
            for (j, other) in quarters.iter().enumerate() {
                assert_eq!(i == j, q.overlaps(*other));
            }
        }
        // parts == 1 is the identity split.
        assert_eq!(p.subprefix(0, 1).unwrap(), p);
    }

    #[test]
    fn subprefix_rejects_bad_splits() {
        let p: Ipv4Prefix = "10.0.0.0/30".parse().unwrap();
        assert!(p.subprefix(0, 3).is_err(), "non-power-of-two");
        assert!(p.subprefix(0, 0).is_err());
        assert!(p.subprefix(4, 4).is_err(), "index out of range");
        assert!(p.subprefix(0, 8).is_err(), "more parts than addresses");
        // A /32 only splits into itself.
        let host: Ipv4Prefix = "1.2.3.4/32".parse().unwrap();
        assert_eq!(host.subprefix(0, 1).unwrap(), host);
        assert!(host.subprefix(0, 2).is_err());
    }

    #[test]
    fn prefix_parse_errors() {
        assert!("10.0.0.0".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/abc".parse::<Ipv4Prefix>().is_err());
        assert!("999.0.0.0/8".parse::<Ipv4Prefix>().is_err());
        assert!("10.0.0.0/64".parse::<Ipv4Prefix>().is_err());
    }
}
