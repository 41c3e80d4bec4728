//! XDR-style binary encoding.
//!
//! The format is deliberately simple and 1995-flavoured: big-endian
//! fixed-width integers, length-prefixed byte strings, and explicit
//! presence tags for options. Every field written by [`Encoder`] is read
//! back by the mirror-image [`Decoder`] method; there is no schema
//! negotiation.

use std::fmt;

use bytes::Bytes;

/// Errors produced while decoding a marshalled buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the expected field.
    Truncated {
        /// Bytes needed by the failed read.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A tag byte had an unknown value.
    BadTag(u8),
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// A length prefix exceeded the sanity limit.
    TooLarge(usize),
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
    /// An embedded checksum did not match the covered bytes.
    ChecksumMismatch {
        /// Checksum carried by the frame.
        stored: u32,
        /// Checksum recomputed over the covered bytes.
        computed: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated buffer: needed {needed} bytes, {remaining} remain"
                )
            }
            WireError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::TooLarge(n) => write!(f, "length prefix {n} exceeds limit"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            WireError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Upper bound on any single length-prefixed field (16 MiB): a decoded
/// length above this indicates corruption, not a real Rover payload.
pub const MAX_FIELD_LEN: usize = 16 << 20;

/// Appends fields to a growable buffer in wire order.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
    /// `Some(n)` on a measuring pass: nothing is stored, `n` bytes have
    /// been counted.
    counted: Option<usize>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with pre-reserved capacity.
    pub fn with_capacity(n: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(n),
            counted: None,
        }
    }

    /// Counts the bytes `fill` writes, storing none of them.
    pub fn measure(fill: impl FnOnce(&mut Encoder)) -> usize {
        let mut enc = Encoder {
            buf: Vec::new(),
            counted: Some(0),
        };
        fill(&mut enc);
        enc.len()
    }

    /// Runs `fill` twice: a measuring pass, then into a buffer allocated
    /// once at the measured size. The size is exact by construction —
    /// the same code measures and writes.
    pub fn exact(fill: impl Fn(&mut Encoder)) -> Self {
        let mut enc = Encoder::with_capacity(Encoder::measure(&fill));
        fill(&mut enc);
        enc
    }

    /// Returns the number of bytes written so far.
    pub fn len(&self) -> usize {
        self.counted.unwrap_or(self.buf.len())
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn put(&mut self, bytes: &[u8]) {
        match &mut self.counted {
            Some(n) => *n += bytes.len(),
            None => self.buf.extend_from_slice(bytes),
        }
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.put(&[v]);
    }

    /// Writes a big-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.put(&v.to_be_bytes());
    }

    /// Writes a big-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.put(&v.to_be_bytes());
    }

    /// Writes a big-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.put(&v.to_be_bytes());
    }

    /// Writes a big-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.put(&v.to_be_bytes());
    }

    /// Writes an IEEE-754 `f64`.
    pub fn put_f64(&mut self, v: f64) {
        self.put(&v.to_be_bytes());
    }

    /// Writes a boolean as one tag byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Writes a `u32` length prefix followed by the raw bytes.
    ///
    /// # Panics
    ///
    /// Panics if `v` exceeds [`MAX_FIELD_LEN`]; producing such a field is
    /// a caller bug, not a recoverable condition.
    pub fn put_bytes(&mut self, v: &[u8]) {
        assert!(v.len() <= MAX_FIELD_LEN, "field too large: {}", v.len());
        self.put_u32(v.len() as u32);
        self.put(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes an optional field: a presence tag, then the value.
    pub fn put_opt<T, F>(&mut self, v: Option<&T>, put: F)
    where
        F: FnOnce(&mut Encoder, &T),
    {
        match v {
            Some(x) => {
                self.put_u8(1);
                put(self, x);
            }
            None => self.put_u8(0),
        }
    }

    /// Writes a `u32` count followed by each element.
    pub fn put_seq<I, F>(&mut self, items: I, mut put: F)
    where
        I: IntoIterator,
        I::IntoIter: ExactSizeIterator,
        F: FnMut(&mut Encoder, I::Item),
    {
        let items = items.into_iter();
        assert!(items.len() <= MAX_FIELD_LEN, "sequence too long");
        self.put_u32(items.len() as u32);
        for it in items {
            put(self, it);
        }
    }

    /// Consumes the encoder and returns the marshalled buffer.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Consumes the encoder and returns the raw vector.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Reads fields from a marshalled buffer in wire order.
///
/// A decoder created with [`Decoder::from_shared`] remembers the
/// refcounted source buffer, so [`Decoder::get_bytes_shared`] can hand
/// out zero-copy views into it instead of allocating.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
    src: Option<&'a Bytes>,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder {
            buf,
            pos: 0,
            src: None,
        }
    }

    /// Creates a decoder over a refcounted buffer; byte-string fields
    /// read via [`Decoder::get_bytes_shared`] become cheap slices of
    /// `src` rather than fresh allocations.
    pub fn from_shared(src: &'a Bytes) -> Self {
        Decoder {
            buf: src,
            pos: 0,
            src: Some(src),
        }
    }

    /// Returns the number of unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns `Ok(())` if the buffer is fully consumed.
    pub fn expect_end(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Like [`take`](Self::take) but returns a fixed-size array, so
    /// fixed-width reads need no fallible slice-to-array conversion.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(self.take_array()?))
    }

    /// Reads a big-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_be_bytes(self.take_array()?))
    }

    /// Reads an IEEE-754 `f64`.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_be_bytes(self.take_array()?))
    }

    /// Reads a boolean tag byte.
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Reads a length-prefixed byte string without allocating: the
    /// returned slice borrows from the decoder's input buffer.
    pub fn bytes_ref(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.get_u32()? as usize;
        if n > MAX_FIELD_LEN {
            return Err(WireError::TooLarge(n));
        }
        self.take(n)
    }

    /// Reads a length-prefixed byte string into an owned vector.
    ///
    /// Prefer [`Decoder::bytes_ref`] (borrowed) or
    /// [`Decoder::get_bytes_shared`] (refcounted) on hot paths; this
    /// always copies.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        Ok(self.bytes_ref()?.to_vec())
    }

    /// Reads a length-prefixed byte string as [`Bytes`].
    ///
    /// Zero-copy when the decoder was built with
    /// [`Decoder::from_shared`] (the result is a view of the source
    /// buffer); otherwise falls back to one copy.
    pub fn get_bytes_shared(&mut self) -> Result<Bytes, WireError> {
        let raw = self.bytes_ref()?;
        Ok(match self.src {
            Some(src) => src.slice_ref(raw),
            None => Bytes::copy_from_slice(raw),
        })
    }

    /// Reads a length-prefixed UTF-8 string without allocating: the
    /// returned text borrows from the decoder's input buffer, so a
    /// caller that keeps it in a form of its own copies it once.
    pub fn str_ref(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.bytes_ref()?).map_err(|_| WireError::BadUtf8)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        self.str_ref().map(str::to_owned)
    }

    /// Reads an optional field written by [`Encoder::put_opt`].
    pub fn get_opt<T, F>(&mut self, get: F) -> Result<Option<T>, WireError>
    where
        F: FnOnce(&mut Decoder<'a>) -> Result<T, WireError>,
    {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(get(self)?)),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Reads a sequence written by [`Encoder::put_seq`] into any
    /// collection; nothing is reserved from the declared count.
    pub fn get_seq<T, C, F>(&mut self, mut get: F) -> Result<C, WireError>
    where
        C: FromIterator<T>,
        F: FnMut(&mut Decoder<'a>) -> Result<T, WireError>,
    {
        let n = self.get_u32()? as usize;
        if n > MAX_FIELD_LEN {
            return Err(WireError::TooLarge(n));
        }
        (0..n).map(|_| get(self)).collect()
    }
}

/// A type with a fixed wire representation.
pub trait Wire: Sized {
    /// Appends this value's wire form to `enc`.
    fn encode(&self, enc: &mut Encoder);

    /// Reads one value from `dec`.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError>;

    /// Exact length of this value's wire form. The default measures
    /// with the same [`Wire::encode`] that writes, so it cannot drift
    /// from the format; override only where the length is already known.
    fn encoded_len(&self) -> usize {
        Encoder::measure(|enc| self.encode(enc))
    }

    /// Convenience: marshals this value into a fresh buffer, allocated
    /// once at [`Wire::encoded_len`].
    fn to_bytes(&self) -> Bytes {
        let mut enc = Encoder::with_capacity(self.encoded_len());
        self.encode(&mut enc);
        enc.finish()
    }

    /// Convenience: unmarshals a value, requiring full consumption.
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut dec = Decoder::new(buf);
        let v = Self::decode(&mut dec)?;
        dec.expect_end()?;
        Ok(v)
    }

    /// Convenience: unmarshals from a refcounted buffer, requiring full
    /// consumption. Byte-string fields decoded with
    /// [`Decoder::get_bytes_shared`] become zero-copy views of `buf`.
    fn from_shared(buf: &Bytes) -> Result<Self, WireError> {
        let mut dec = Decoder::from_shared(buf);
        let v = Self::decode(&mut dec)?;
        dec.expect_end()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(0xAB);
        e.put_u16(0xBEEF);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX);
        e.put_i64(-42);
        e.put_f64(3.5);
        e.put_bool(true);
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.get_u8().unwrap(), 0xAB);
        assert_eq!(d.get_u16().unwrap(), 0xBEEF);
        assert_eq!(d.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_i64().unwrap(), -42);
        assert_eq!(d.get_f64().unwrap(), 3.5);
        assert!(d.get_bool().unwrap());
        d.expect_end().unwrap();
    }

    #[test]
    fn strings_and_bytes_roundtrip() {
        let mut e = Encoder::new();
        e.put_str("héllo rover");
        e.put_bytes(&[0, 1, 2, 255]);
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.get_str().unwrap(), "héllo rover");
        assert_eq!(d.get_bytes().unwrap(), vec![0, 1, 2, 255]);
    }

    #[test]
    fn bytes_ref_borrows_without_allocating() {
        let mut e = Encoder::new();
        e.put_bytes(b"abc");
        e.put_bytes(b"defg");
        let b = e.finish();
        let mut d = Decoder::new(&b);
        let first = d.bytes_ref().unwrap();
        assert_eq!(first, b"abc");
        // The slice borrows the input buffer directly.
        assert!(std::ptr::eq(first.as_ptr(), b[4..].as_ptr()));
        assert_eq!(d.bytes_ref().unwrap(), b"defg");
        d.expect_end().unwrap();
    }

    #[test]
    fn str_ref_borrows_and_validates() {
        let mut e = Encoder::new();
        e.put_str("héllo");
        e.put_bytes(&[0xFF, 0xFE]);
        let b = e.finish();
        let mut d = Decoder::new(&b);
        let text = d.str_ref().unwrap();
        assert_eq!(text, "héllo");
        assert!(std::ptr::eq(text.as_ptr(), b[4..].as_ptr()));
        assert_eq!(d.str_ref(), Err(WireError::BadUtf8));
    }

    #[test]
    fn get_bytes_shared_is_a_view_of_the_source() {
        let mut e = Encoder::new();
        e.put_u32(7);
        e.put_bytes(&[9u8; 100]);
        let b = e.finish();
        let mut d = Decoder::from_shared(&b);
        assert_eq!(d.get_u32().unwrap(), 7);
        let payload = d.get_bytes_shared().unwrap();
        assert_eq!(&payload[..], &[9u8; 100][..]);
        // Zero-copy: the view aliases the source allocation.
        assert!(std::ptr::eq(payload.as_ptr(), b[8..].as_ptr()));
    }

    #[test]
    fn get_bytes_shared_copies_without_a_shared_source() {
        let mut e = Encoder::new();
        e.put_bytes(b"xy");
        let v = e.into_vec();
        let mut d = Decoder::new(&v);
        assert_eq!(d.get_bytes_shared().unwrap(), Bytes::from_static(b"xy"));
    }

    #[test]
    fn options_roundtrip() {
        let mut e = Encoder::new();
        e.put_opt(Some(&7u64), |e, v| e.put_u64(*v));
        e.put_opt::<u64, _>(None, |e, v| e.put_u64(*v));
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.get_opt(|d| d.get_u64()).unwrap(), Some(7));
        assert_eq!(d.get_opt(|d| d.get_u64()).unwrap(), None);
    }

    #[test]
    fn sequences_roundtrip() {
        let items = vec!["a".to_owned(), "bb".to_owned(), "".to_owned()];
        let mut e = Encoder::new();
        e.put_seq(&items, |e, s| e.put_str(s));
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.get_seq::<_, Vec<_>, _>(|d| d.get_str()).unwrap(), items);
    }

    #[test]
    fn truncation_is_detected() {
        let mut e = Encoder::new();
        e.put_u64(1);
        let b = e.finish();
        let mut d = Decoder::new(&b[..4]);
        assert!(matches!(
            d.get_u64(),
            Err(WireError::Truncated {
                needed: 8,
                remaining: 4
            })
        ));
    }

    #[test]
    fn bad_bool_tag_is_detected() {
        let mut d = Decoder::new(&[9]);
        assert_eq!(d.get_bool(), Err(WireError::BadTag(9)));
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut e = Encoder::new();
        e.put_u32(u32::MAX);
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert!(matches!(d.get_bytes(), Err(WireError::TooLarge(_))));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut e = Encoder::new();
        e.put_bytes(&[0xFF, 0xFE]);
        let b = e.finish();
        let mut d = Decoder::new(&b);
        assert_eq!(d.get_str(), Err(WireError::BadUtf8));
    }

    #[test]
    fn trailing_bytes_detected() {
        let d = Decoder::new(&[1, 2, 3]);
        assert_eq!(d.expect_end(), Err(WireError::TrailingBytes(3)));
    }

    #[test]
    fn wire_trait_roundtrip_helpers() {
        #[derive(Debug, PartialEq)]
        struct P(u32, String);
        impl Wire for P {
            fn encode(&self, enc: &mut Encoder) {
                enc.put_u32(self.0);
                enc.put_str(&self.1);
            }
            fn decode(dec: &mut Decoder<'_>) -> Result<Self, WireError> {
                Ok(P(dec.get_u32()?, dec.get_str()?))
            }
        }
        let p = P(9, "x".into());
        let b = p.to_bytes();
        assert_eq!(P::from_bytes(&b).unwrap(), p);
        // Trailing garbage fails from_bytes.
        let mut v = b.to_vec();
        v.push(0);
        assert!(P::from_bytes(&v).is_err());
    }
}
