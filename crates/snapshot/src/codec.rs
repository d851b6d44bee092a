//! A minimal little-endian byte codec with typed truncation errors.
//!
//! Every section payload in a snapshot is produced by a [`SnapWriter`] and
//! consumed by a [`SnapReader`]. The codec is deliberately dumb: fixed-width
//! little-endian integers, `f64` via its IEEE-754 bit pattern (so NaN
//! payloads and signed zeros round-trip exactly — a requirement for
//! byte-identical resume), and length-prefixed byte strings. There is no
//! varint cleverness because snapshot size is dominated by frame tables and
//! event queues, not integer headers.

use crate::error::SnapshotError;
use crate::snap::Snap;

/// Accumulates an encoded byte stream.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Starts an empty stream.
    #[must_use]
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Consumes the writer, yielding the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a little-endian u16.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u128.
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian i64.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an f64 via its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a usize as u64.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Appends a sequence: its length, then every item through `each` —
    /// [`Snap::snap`](crate::Snap::snap) for a plain element, a closure
    /// where the element needs context the trait cannot carry.
    pub fn seq<I>(&mut self, items: I, mut each: impl FnMut(I::Item, &mut Self))
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
    {
        let items = items.into_iter();
        self.usize(items.len());
        for item in items {
            each(item, self);
        }
    }

    /// Appends a sequence of `(key, value)` pairs held by reference: the
    /// bytes a `Vec<(K, V)>` of the same entries would write, which is how
    /// a map that sorts its entries into its own canonical order reads them
    /// back.
    pub fn pairs<'a, K: Snap + 'a, V: Snap + 'a, I>(&mut self, entries: I)
    where
        I: IntoIterator<Item = (&'a K, &'a V)>,
        I::IntoIter: ExactSizeIterator,
    {
        self.seq(entries, |(key, value), w| {
            key.snap(w);
            value.snap(w);
        });
    }
}

/// Decodes a byte stream produced by [`SnapWriter`].
///
/// Every accessor returns [`SnapshotError::Decode`] on truncation or
/// out-of-domain values — corrupt input degrades into a typed error, never a
/// panic.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
    context: &'static str,
}

impl<'a> SnapReader<'a> {
    /// Wraps `buf`; `context` names what is being decoded in errors.
    #[must_use]
    pub fn new(buf: &'a [u8], context: &'static str) -> Self {
        SnapReader { buf, pos: 0, context }
    }

    /// The decode error for this stream: what a codec returns when the
    /// bytes parse but the value is out of its domain.
    #[must_use]
    pub fn bad(&self) -> SnapshotError {
        SnapshotError::Decode { context: self.context }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.bad())?;
        let slice = self.buf.get(self.pos..end).ok_or_else(|| self.bad())?;
        self.pos = end;
        Ok(slice)
    }

    /// Reads exactly `N` bytes.
    pub(crate) fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the stream was consumed exactly.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(self.bad())
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        self.array().map(|[b]| b)
    }

    /// Reads a bool; any byte other than 0/1 is a decode error.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(self.bad()),
        }
    }

    /// Reads a little-endian u16.
    pub fn u16(&mut self) -> Result<u16, SnapshotError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Reads a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Reads a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Reads a little-endian u128.
    pub fn u128(&mut self) -> Result<u128, SnapshotError> {
        self.array().map(u128::from_le_bytes)
    }

    /// Reads a little-endian i64.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        self.array().map(i64::from_le_bytes)
    }

    /// Reads an f64 from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a u64 and converts to usize, failing on overflow.
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| self.bad())
    }

    /// Reads a length-prefixed byte slice.
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.usize()?;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, SnapshotError> {
        core::str::from_utf8(self.bytes()?).map_err(|_| self.bad())
    }

    /// Reads a sequence length written by [`SnapWriter::seq`] and refuses
    /// one the stream cannot hold: every element occupies at least one
    /// byte, so `n` elements need `n` more bytes. This is the bound on
    /// every decoded length — checked before the caller reserves anything.
    pub fn seq_len(&mut self) -> Result<usize, SnapshotError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(self.bad());
        }
        Ok(n)
    }

    /// Reads a sequence written by [`SnapWriter::seq`], each element
    /// through `each`.
    pub fn seq<T>(
        &mut self,
        mut each: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let n = self.seq_len()?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(each(self)?);
        }
        Ok(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_all_types() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.bool(true);
        w.u16(0xBEEF);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.u128(u128::MAX / 3);
        w.i64(-42);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.usize(12345);
        w.bytes(b"payload");
        w.str("héllo");
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes, "test");
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.usize().unwrap(), 12345);
        assert_eq!(r.bytes().unwrap(), b"payload");
        assert_eq!(r.str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_typed_not_panic() {
        let mut w = SnapWriter::new();
        w.u64(1);
        w.bytes(b"abcdef");
        let bytes = w.into_bytes();
        // Chop the stream at every prefix length: all errors, no panics.
        for cut in 0..bytes.len() {
            let mut r = SnapReader::new(&bytes[..cut], "trunc");
            let ok = r.u64().and_then(|_| r.bytes().map(<[u8]>::len));
            assert!(ok.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn bogus_bool_rejected() {
        let mut r = SnapReader::new(&[2], "bool");
        assert!(r.bool().is_err());
    }

    #[test]
    fn unconsumed_tail_rejected() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes, "tail");
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }
}
