//! The one value-level codec trait: a type states its byte layout once.
//!
//! [`Snap`] pairs the two directions of a payload codec on the type that
//! owns the layout, so an encoder and its mirror-image decoder cannot drift
//! apart. This module implements it for the primitives and the standard
//! containers; every other crate implements it beside its own types —
//! usually through [`snap_struct!`](crate::snap_struct) (fields in wire
//! order) or [`snap_enum!`](crate::snap_enum) (a `u8` tag per variant) —
//! so private fields never cross a crate boundary.
//!
//! Every sequence goes through [`SnapWriter::seq`] / [`SnapReader::seq`],
//! and the reader refuses a declared length larger than the bytes that
//! remain before anything is reserved: an element occupies at least one
//! byte (no implementation here or elsewhere encodes to nothing), so such
//! a length can only come from a corrupt or forged payload.

use std::collections::{BTreeMap, HashMap};
use std::hash::Hash;
use std::net::Ipv4Addr;

use crate::codec::{SnapReader, SnapWriter};
use crate::error::SnapshotError;

/// A value with one canonical byte encoding.
///
/// `unsnap(snap(v))` must re-encode to the same bytes and consume exactly
/// what `snap` wrote; on truncated or out-of-domain input `unsnap` returns
/// [`SnapshotError::Decode`] and never panics.
pub trait Snap: Sized {
    /// Appends this value's encoding to `w`.
    fn snap(&self, w: &mut SnapWriter);

    /// Reads one value back.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Decode`] on truncation or an out-of-domain value.
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError>;

    /// This value's encoding on its own — a whole section payload.
    #[must_use]
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.snap(&mut w);
        w.into_bytes()
    }

    /// Reads a value that is all of `bytes`; `context` names it in errors.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Decode`] as for [`Snap::unsnap`], and when bytes
    /// are left over.
    fn from_bytes(bytes: &[u8], context: &'static str) -> Result<Self, SnapshotError> {
        let mut r = SnapReader::new(bytes, context);
        let value = Self::unsnap(&mut r)?;
        r.finish()?;
        Ok(value)
    }
}

macro_rules! snap_primitive {
    ($($ty:ident),*) => {$(
        impl Snap for $ty {
            fn snap(&self, w: &mut SnapWriter) {
                w.$ty(*self);
            }
            fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                r.$ty()
            }
        }
    )*};
}

snap_primitive!(u8, u16, u32, u64, u128, i64, f64, bool, usize);

impl Snap for String {
    fn snap(&self, w: &mut SnapWriter) {
        w.str(self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.str().map(str::to_owned)
    }
}

/// As its big-endian `u32` value.
impl Snap for Ipv4Addr {
    fn snap(&self, w: &mut SnapWriter) {
        w.u32(u32::from(*self));
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.u32().map(Ipv4Addr::from)
    }
}

/// A presence byte, then the value.
impl<T: Snap> Snap for Option<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.snap(w);
        }
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        Ok(if r.bool()? { Some(T::unsnap(r)?) } else { None })
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn snap(&self, w: &mut SnapWriter) {
        w.seq(self, T::snap);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        r.seq(T::unsnap)
    }
}

macro_rules! snap_tuple {
    ($($name:ident),*) => {
        /// The elements in order, nothing between them.
        impl<$($name: Snap),*> Snap for ($($name,)*) {
            fn snap(&self, w: &mut SnapWriter) {
                #[allow(non_snake_case)]
                let ($($name,)*) = self;
                $($name.snap(w);)*
            }
            fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
                Ok(($($name::unsnap(r)?,)*))
            }
        }
    };
}

snap_tuple!(A, B);
snap_tuple!(A, B, C);

/// A sequence of `(key, value)` pairs in ascending key order.
impl<K: Snap + Ord, V: Snap> Snap for BTreeMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        w.pairs(self);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.seq_len()?;
        (0..n).map(|_| Ok((K::unsnap(r)?, V::unsnap(r)?))).collect()
    }
}

/// Same bytes as the [`BTreeMap`] with the same entries: the pairs are
/// sorted by key first, so the encoding never shows the hasher's order. A
/// map whose canonical order is not its key order sorts its own entries
/// and writes them with `SnapWriter::pairs`.
impl<K: Snap + Ord + Hash, V: Snap> Snap for HashMap<K, V> {
    fn snap(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        w.pairs(entries);
    }
    fn unsnap(r: &mut SnapReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.seq_len()?;
        let mut map = HashMap::with_capacity(n);
        for _ in 0..n {
            map.insert(K::unsnap(r)?, V::unsnap(r)?);
        }
        Ok(map)
    }
}

/// Implements [`Snap`] for a struct from its field list: the fields are
/// written in the order given — the wire order, which need not be the
/// declaration order — and read back into a struct literal, so every field
/// must be listed. A tuple struct lists its positions, `snap_struct!(Id { 0 })`;
/// a generic one names its parameters, `snap_struct!(Entry<T> { id, payload })`,
/// each of which must itself be [`Snap`].
///
/// ```
/// use potemkin_snapshot::{snap_struct, Snap, SnapReader, SnapWriter};
///
/// struct Link { packets: u64, up: bool }
/// snap_struct!(Link { packets, up });
///
/// let mut w = SnapWriter::new();
/// Link { packets: 7, up: true }.snap(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes.len(), 9);
/// let back = Link::unsnap(&mut SnapReader::new(&bytes, "link")).unwrap();
/// assert!(back.up && back.packets == 7);
/// ```
#[macro_export]
macro_rules! snap_struct {
    ($ty:ident $(<$($param:ident),+>)? { $($field:tt),* $(,)? }) => {
        impl $(<$($param: $crate::Snap),+>)? $crate::Snap for $ty $(<$($param),+>)? {
            fn snap(&self, w: &mut $crate::SnapWriter) {
                $($crate::Snap::snap(&self.$field, w);)*
            }
            fn unsnap(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapshotError> {
                Ok($ty { $($field: $crate::Snap::unsnap(r)?),* })
            }
        }
    };
}

/// Implements [`Snap`] for an enum as a `u8` tag followed by the variant's
/// named fields in the order given; an unknown tag is a decode error.
///
/// ```
/// use potemkin_snapshot::{snap_enum, Snap, SnapReader, SnapWriter};
///
/// #[derive(Debug, PartialEq)]
/// enum Fault { Crash { host: u64 }, Stall }
/// snap_enum!(Fault { Crash { host } = 0, Stall = 1 });
///
/// let mut w = SnapWriter::new();
/// Fault::Crash { host: 3 }.snap(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(Fault::unsnap(&mut SnapReader::new(&bytes, "fault")), Ok(Fault::Crash { host: 3 }));
/// assert!(Fault::unsnap(&mut SnapReader::new(&[2], "fault")).is_err());
/// ```
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident { $($variant:ident $({ $($field:ident),* })? = $tag:literal),* $(,)? }) => {
        impl $crate::Snap for $ty {
            fn snap(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $($ty::$variant $({ $($field),* })? => {
                        w.u8($tag);
                        $($($crate::Snap::snap($field, w);)*)?
                    })*
                }
            }
            fn unsnap(r: &mut $crate::SnapReader<'_>) -> Result<Self, $crate::SnapshotError> {
                match r.u8()? {
                    $($tag => Ok($ty::$variant $({ $($field: $crate::Snap::unsnap(r)?),* })?),)*
                    _ => Err(r.bad()),
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn containers_keep_the_hand_written_layouts() {
        // Option = presence byte + value; Vec = u64 length + elements;
        // tuples and maps add nothing of their own.
        assert_eq!(Some(9u64).to_bytes(), [&[1u8][..], &9u64.to_le_bytes()].concat());
        assert_eq!(None::<u64>.to_bytes(), [0]);
        assert_eq!(vec![1u8, 2].to_bytes(), [&2u64.to_le_bytes()[..], &[1, 2]].concat());
        assert_eq!((7u8, true).to_bytes(), [7, 1]);
        assert_eq!(Ipv4Addr::new(10, 0, 0, 1).to_bytes(), 0x0a00_0001u32.to_le_bytes());
        assert_eq!(
            "hé".to_string().to_bytes(),
            [&3u64.to_le_bytes()[..], "hé".as_bytes()].concat()
        );
    }

    #[test]
    fn hash_map_encodes_in_key_order() {
        let pairs = [(9u32, 1u8), (2, 2), (5, 3)];
        let hashed: HashMap<u32, u8> = pairs.into_iter().collect();
        let ordered: BTreeMap<u32, u8> = pairs.into_iter().collect();
        assert_eq!(hashed.to_bytes(), ordered.to_bytes());
        assert_eq!(HashMap::from_bytes(&hashed.to_bytes(), "map"), Ok(hashed));
    }

    #[test]
    fn a_length_longer_than_the_payload_is_refused_before_reserving() {
        let hostile = (u64::MAX >> 4).to_bytes();
        let decode = Some(SnapshotError::Decode { context: "hostile" });
        assert_eq!(Vec::<u64>::from_bytes(&hostile, "hostile").err(), decode);
        assert_eq!(HashMap::<u64, u64>::from_bytes(&hostile, "hostile").err(), decode);
        assert_eq!(BTreeMap::<u64, u64>::from_bytes(&hostile, "hostile").err(), decode);
    }

    #[test]
    fn from_bytes_refuses_a_tail() {
        assert_eq!(u8::from_bytes(&[1], "tail"), Ok(1));
        assert!(u8::from_bytes(&[1, 2], "tail").is_err());
    }
}
