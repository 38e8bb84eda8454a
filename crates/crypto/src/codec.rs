//! Canonical binary encoding.
//!
//! Everything that is hashed, signed or stored on-chain in this workspace is
//! first serialised through this codec. The encoding is *canonical*: a value
//! has exactly one encoding, so `hash(encode(v))` is well-defined. This is a
//! property generic serialisation frameworks do not promise, which is why
//! the workspace does not hash serde output.
//!
//! Format summary (all integers big-endian; lengths as LEB128 varints):
//!
//! * `u8/u16/u32/u64` — fixed-width big-endian
//! * `varint` — unsigned LEB128
//! * `bytes` — varint length prefix + raw bytes
//! * `str` — UTF-8 `bytes`
//! * `seq` — varint count followed by each element

use crate::CryptoError;

/// Canonical encoder.
///
/// # Example
///
/// ```
/// use drams_crypto::codec::{Writer, Reader};
///
/// # fn main() -> Result<(), drams_crypto::CryptoError> {
/// let mut w = Writer::new();
/// w.put_u32(7);
/// w.put_str("pep-1");
/// let bytes = w.into_bytes();
///
/// let mut r = Reader::new(&bytes);
/// assert_eq!(r.get_u32()?, 7);
/// assert_eq!(r.get_str()?, "pep-1");
/// r.finish()?;
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer with pre-allocated capacity.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an `i64` using zig-zag-free two's-complement big-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern.
    ///
    /// Canonicality caveat: NaN payloads are preserved verbatim; the
    /// workspace never hashes NaNs.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a boolean as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends an unsigned LEB128 varint.
    pub fn put_varint(&mut self, v: u64) {
        let (bytes, len) = varint(v);
        self.buf.extend_from_slice(&bytes[..len]);
    }

    /// Appends length-prefixed raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes with **no** length prefix (fixed-width fields).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// The bytes written so far.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forgets the bytes written so far and keeps the buffer, so a writer
    /// held across calls encodes each value without allocating again.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Forgets the bytes written past the first `len`, keeping the
    /// buffer (no-op when fewer were written).
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer and returns the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Longest unsigned LEB128 varint: ten bytes for a `u64`.
pub const MAX_VARINT_LEN: usize = 10;

/// `v` as an unsigned LEB128 varint, the bytes [`Writer::put_varint`]
/// appends, in a stack buffer: the buffer and how many of its bytes the
/// encoding uses.
#[must_use]
pub fn varint(mut v: u64) -> ([u8; MAX_VARINT_LEN], usize) {
    let mut bytes = [0u8; MAX_VARINT_LEN];
    let mut len = 0;
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            bytes[len] = byte;
            return (bytes, len + 1);
        }
        bytes[len] = byte | 0x80;
        len += 1;
    }
}

/// Canonical decoder over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a byte slice.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn need(&self, n: usize) -> Result<(), CryptoError> {
        if self.buf.len() < n {
            Err(CryptoError::Malformed(format!(
                "need {n} bytes, have {}",
                self.buf.len()
            )))
        } else {
            Ok(())
        }
    }

    fn advance(&mut self, n: usize) {
        self.buf = &self.buf[n..];
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] on truncation (likewise for all
    /// other `get_*` methods).
    pub fn get_u8(&mut self) -> Result<u8, CryptoError> {
        self.need(1)?;
        let v = self.buf[0];
        self.advance(1);
        Ok(v)
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CryptoError> {
        Ok(u32::from_be_bytes(self.get_array::<4>()?))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CryptoError> {
        Ok(u64::from_be_bytes(self.get_array::<8>()?))
    }

    /// Reads an `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CryptoError> {
        Ok(i64::from_be_bytes(self.get_array::<8>()?))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CryptoError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a boolean; any byte other than 0/1 is rejected (canonicality).
    pub fn get_bool(&mut self) -> Result<bool, CryptoError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CryptoError::Malformed(format!("bool byte {other}"))),
        }
    }

    /// Reads an unsigned LEB128 varint.
    ///
    /// Rejects non-minimal encodings and values wider than 64 bits.
    pub fn get_varint(&mut self) -> Result<u64, CryptoError> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            if shift == 63 && byte > 1 {
                return Err(CryptoError::Malformed("varint overflow".into()));
            }
            result |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift != 0 {
                    return Err(CryptoError::Malformed("non-minimal varint".into()));
                }
                return Ok(result);
            }
            shift += 7;
            if shift > 63 {
                return Err(CryptoError::Malformed("varint too long".into()));
            }
        }
    }

    /// Reads length-prefixed bytes.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, CryptoError> {
        self.get_bytes_ref().map(<[u8]>::to_vec)
    }

    /// Reads length-prefixed bytes where they lie in the input, copying
    /// nothing.
    pub fn get_bytes_ref(&mut self) -> Result<&'a [u8], CryptoError> {
        let len = self.get_varint()? as usize;
        self.get_slice(len)
    }

    /// Reads `n` raw bytes where they lie in the input, copying nothing.
    pub fn get_slice(&mut self, n: usize) -> Result<&'a [u8], CryptoError> {
        self.need(n)?;
        let (out, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(out)
    }

    /// Reads a fixed-size array.
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], CryptoError> {
        self.need(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(&self.buf[..N]);
        self.advance(N);
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CryptoError> {
        String::from_utf8(self.get_bytes()?)
            .map_err(|e| CryptoError::Malformed(format!("invalid utf-8: {e}")))
    }

    /// Reads a `seq`'s element count, refusing a count larger than the
    /// bytes that remain (each element needs at least one).
    pub fn get_seq_len(&mut self) -> Result<usize, CryptoError> {
        let n = self.get_varint()? as usize;
        if n > self.remaining() {
            return Err(CryptoError::Malformed(format!(
                "sequence claims {n} elements but only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Remaining unread byte count.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The unread input.
    #[must_use]
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// Asserts that the input was fully consumed (canonicality: no
    /// trailing garbage).
    pub fn finish(self) -> Result<(), CryptoError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CryptoError::Malformed(format!(
                "{} trailing bytes",
                self.buf.len()
            )))
        }
    }
}

/// Types with a canonical binary encoding.
pub trait Encode {
    /// Appends this value's canonical encoding to `w`.
    fn encode(&self, w: &mut Writer);

    /// Convenience: encodes into a fresh buffer, sized so the common
    /// record (a log entry, a transaction, an event) never regrows it.
    fn to_canonical_bytes(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(256);
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Convenience: SHA-256 of the canonical encoding.
    fn canonical_digest(&self) -> crate::sha256::Digest {
        crate::sha256::Digest::of(&self.to_canonical_bytes())
    }
}

/// Types decodable from the canonical encoding.
pub trait Decode: Sized {
    /// Decodes one value, consuming exactly its encoding from `r`.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] on truncated or invalid input.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError>;

    /// Decodes a value that must occupy the whole input.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::Malformed`] on trailing bytes or bad input.
    fn from_canonical_bytes(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

impl Encode for crate::sha256::Digest {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(self.as_bytes());
    }
}

impl Decode for crate::sha256::Digest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(crate::sha256::Digest(r.get_array::<32>()?))
    }
}

impl Encode for Vec<u8> {
    fn encode(&self, w: &mut Writer) {
        w.put_bytes(self);
    }
}

impl Decode for Vec<u8> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        r.get_bytes()
    }
}

impl Encode for String {
    fn encode(&self, w: &mut Writer) {
        w.put_str(self);
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        r.get_str()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        r.get_u64()
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut Writer) {
        w.put_varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        self.as_slice().encode(w);
    }
}

/// Decodes a length-prefixed sequence of `T`.
///
/// # Errors
///
/// Propagates element decode errors and rejects absurd lengths.
pub fn decode_seq<T: Decode>(r: &mut Reader<'_>) -> Result<Vec<T>, CryptoError> {
    let n = r.get_seq_len()?;
    let mut out = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::Digest;

    #[test]
    fn primitive_round_trips() {
        let mut w = Writer::new();
        w.put_u8(0xab);
        w.put_u32(0xdead_beef);
        w.put_u64(0x0123_4567_89ab_cdef);
        w.put_i64(-42);
        w.put_bool(true);
        w.put_bool(false);
        w.put_f64(2.5);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 0xab);
        assert_eq!(r.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert!(r.get_bool().unwrap());
        assert!(!r.get_bool().unwrap());
        assert_eq!(r.get_f64().unwrap(), 2.5);
        r.finish().unwrap();
    }

    #[test]
    fn varint_round_trips() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut w = Writer::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v);
            r.finish().unwrap();
        }
    }

    #[test]
    fn stack_varint_is_the_appended_varint() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut w = Writer::new();
            w.put_varint(v);
            let (bytes, len) = varint(v);
            assert_eq!(&bytes[..len], w.as_bytes(), "{v}");
        }
        assert_eq!(varint(u64::MAX).1, MAX_VARINT_LEN);
    }

    #[test]
    fn borrowed_reads_point_into_the_input() {
        let mut w = Writer::new();
        w.put_bytes(b"ciphertext");
        w.put_raw(b"tag");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let ct = r.get_bytes_ref().unwrap();
        assert_eq!(ct, b"ciphertext");
        assert_eq!(ct.as_ptr(), bytes[1..].as_ptr());
        assert_eq!(r.get_slice(3).unwrap(), b"tag");
        assert!(r.get_slice(1).is_err());
        r.finish().unwrap();
    }

    #[test]
    fn varint_rejects_non_minimal() {
        // 0x80 0x00 is a non-minimal encoding of 0.
        let mut r = Reader::new(&[0x80, 0x00]);
        assert!(r.get_varint().is_err());
    }

    #[test]
    fn varint_rejects_overflow() {
        let bytes = [0xffu8; 10];
        let mut r = Reader::new(&bytes);
        assert!(r.get_varint().is_err());
    }

    #[test]
    fn bytes_and_str_round_trip() {
        let mut w = Writer::new();
        w.put_bytes(b"hello");
        w.put_str("wörld");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_bytes().unwrap(), b"hello");
        assert_eq!(r.get_str().unwrap(), "wörld");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_detected_everywhere() {
        let mut w = Writer::new();
        w.put_str("hello world");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.get_str().is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected_by_finish() {
        let mut r = Reader::new(&[1, 2, 3]);
        let _ = r.get_u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn bool_rejects_non_canonical() {
        let mut r = Reader::new(&[2]);
        assert!(r.get_bool().is_err());
    }

    #[test]
    fn digest_round_trip_via_traits() {
        let d = Digest::of(b"x");
        let bytes = d.to_canonical_bytes();
        assert_eq!(bytes.len(), 32);
        assert_eq!(Digest::from_canonical_bytes(&bytes).unwrap(), d);
    }

    #[test]
    fn seq_round_trip() {
        let v: Vec<String> = vec!["a".into(), "bb".into(), "".into()];
        let mut w = Writer::new();
        v.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back: Vec<String> = decode_seq(&mut r).unwrap();
        assert_eq!(back, v);
        r.finish().unwrap();
    }

    #[test]
    fn seq_rejects_absurd_length_claim() {
        let mut w = Writer::new();
        w.put_varint(1_000_000);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(decode_seq::<String>(&mut r).is_err());
    }

    #[test]
    fn canonical_digest_is_stable() {
        let v: Vec<u8> = b"payload".to_vec();
        assert_eq!(v.canonical_digest(), v.canonical_digest());
    }
}
