//! Deterministic byte codec: [`Writer`], [`Reader`], and the [`Persist`]
//! trait.
//!
//! Everything is little-endian and length-prefixed. There is deliberately
//! no self-description (no field names, no tags beyond what a type writes
//! itself): the layout is part of the store's format version, and any
//! change to an encoded type must bump the caller's format version so old
//! entries miss instead of misparse.

use std::collections::BTreeMap;
use std::fmt;

/// Why a [`Reader`] rejected its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// Bytes the failing read needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// A length prefix or enum tag was out of its valid range.
    Invalid(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(f, "truncated: needed {needed} bytes, {remaining} remain")
            }
            CodecError::Invalid(what) => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Append-only encoder producing a deterministic byte string.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// The encoded bytes, by reference.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` as a `u64` (platform-independent width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an `f64` by its IEEE-754 bit pattern (deterministic, NaN-safe).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Cursor over an encoded byte string, mirroring [`Writer`].
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Read from `buf`, starting at its first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Succeeds only if every byte was consumed — trailing garbage is
    /// corruption, not padding.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Invalid("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated {
                needed: n,
                remaining: self.buf.len(),
            });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a `usize` (stored as `u64`).
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Invalid("usize overflow"))
    }

    /// Read an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a bool; any byte other than 0 or 1 is corruption.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid("bool out of range")),
        }
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid("string not UTF-8"))
    }
}

/// A value with a deterministic byte encoding.
///
/// `restore(persist(v)) == v` for every value the simulator produces, and
/// the encoding of equal values is byte-identical — the property that makes
/// both content addressing and the cache-verify comparison sound.
pub trait Persist: Sized {
    /// Append this value's encoding to `w`.
    fn persist(&self, w: &mut Writer);
    /// Decode one value from `r`, consuming exactly what `persist` wrote.
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

impl Persist for u64 {
    fn persist(&self, w: &mut Writer) {
        w.u64(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u64()
    }
}

impl Persist for u32 {
    fn persist(&self, w: &mut Writer) {
        w.u32(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.u32()
    }
}

impl Persist for usize {
    fn persist(&self, w: &mut Writer) {
        w.usize(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.usize()
    }
}

impl Persist for f64 {
    fn persist(&self, w: &mut Writer) {
        w.f64(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.f64()
    }
}

impl Persist for bool {
    fn persist(&self, w: &mut Writer) {
        w.bool(*self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.bool()
    }
}

impl Persist for String {
    fn persist(&self, w: &mut Writer) {
        w.str(self);
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.str()
    }
}

impl<T: Persist> Persist for Vec<T> {
    fn persist(&self, w: &mut Writer) {
        w.usize(self.len());
        for item in self {
            item.persist(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.usize()?;
        // Guard the pre-allocation: a corrupt length prefix must not be
        // able to request gigabytes before the decode fails naturally.
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::restore(r)?);
        }
        Ok(out)
    }
}

impl<const N: usize, T: Persist + Copy + Default> Persist for [T; N] {
    fn persist(&self, w: &mut Writer) {
        for item in self {
            item.persist(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let mut out = [T::default(); N];
        for slot in &mut out {
            *slot = T::restore(r)?;
        }
        Ok(out)
    }
}

impl<K: Persist + Ord, V: Persist> Persist for BTreeMap<K, V> {
    fn persist(&self, w: &mut Writer) {
        w.usize(self.len());
        for (k, v) in self {
            k.persist(w);
            v.persist(w);
        }
    }
    fn restore(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.usize()?;
        let mut out = BTreeMap::new();
        for _ in 0..n {
            let k = K::restore(r)?;
            let v = V::restore(r)?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Persist + PartialEq + std::fmt::Debug>(v: T) {
        let mut w = Writer::new();
        v.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = T::restore(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u64);
        round_trip(u64::MAX);
        round_trip(42u32);
        round_trip(7usize);
        round_trip(true);
        round_trip(false);
        round_trip(1.5f64);
        round_trip(f64::NEG_INFINITY);
        round_trip(String::from("héllo \"world\""));
        round_trip(String::new());
    }

    #[test]
    fn nan_round_trips_bit_exactly() {
        let mut w = Writer::new();
        f64::NAN.persist(&mut w);
        let bytes = w.into_bytes();
        let back = f64::restore(&mut Reader::new(&bytes)).expect("decode");
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn containers_round_trip() {
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u64>::new());
        round_trip([1.0f64, -2.5, 3.25]);
        let mut m = BTreeMap::new();
        m.insert("b".to_string(), 2u64);
        m.insert("a".to_string(), 1u64);
        round_trip(m);
    }

    #[test]
    fn equal_values_encode_identically() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = a.clone();
        let enc = |v: &Vec<String>| {
            let mut w = Writer::new();
            v.persist(&mut w);
            w.into_bytes()
        };
        assert_eq!(enc(&a), enc(&b));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].persist(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let err = Vec::<u64>::restore(&mut Reader::new(&bytes[..cut]));
            assert!(err.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = Writer::new();
        7u64.persist(&mut w);
        w.u8(0xFF);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        u64::restore(&mut r).expect("decode");
        assert!(r.finish().is_err());
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_invalid() {
        let mut r = Reader::new(&[2]);
        assert_eq!(r.bool(), Err(CodecError::Invalid("bool out of range")));
        let mut w = Writer::new();
        w.usize(2);
        w.u8(0xC3);
        w.u8(0x28); // invalid UTF-8 sequence
        let bytes = w.into_bytes();
        assert!(String::restore(&mut Reader::new(&bytes)).is_err());
    }
}
