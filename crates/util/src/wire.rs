//! Hand-rolled binary wire codec.
//!
//! Every protocol message in `nowmp` (DSM requests, fork/join payloads,
//! adaptation directives, checkpoint records) is encoded with [`Enc`] and
//! decoded with [`Dec`]. All integers are little-endian. Variable-length
//! fields are length-prefixed with a `u32`.
//!
//! The codec is intentionally boring: explicit, allocation-conscious, and
//! with full error reporting on decode (a truncated or corrupt message
//! never panics — it returns [`WireError`]). This mirrors the original
//! TreadMarks, which defined its UDP message layouts by hand.

use bytes::Bytes;
use std::fmt;

/// Error produced when decoding malformed or truncated wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the requested field could be read.
    Truncated {
        /// Bytes needed by the read.
        needed: usize,
        /// Bytes remaining in the buffer.
        remaining: usize,
    },
    /// A tag/discriminant byte had no known meaning.
    BadTag {
        /// Context string (message family).
        what: &'static str,
        /// The offending tag value.
        tag: u32,
    },
    /// A length or count field exceeded a sanity bound.
    BadLength {
        /// Context string.
        what: &'static str,
        /// The offending length.
        len: usize,
    },
    /// UTF-8 decoding of a string field failed.
    BadUtf8,
    /// Trailing bytes remained after a complete decode when none were expected.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated wire data: needed {needed} bytes, {remaining} remain"
                )
            }
            WireError::BadTag { what, tag } => write!(f, "bad {what} tag {tag}"),
            WireError::BadLength { what, len } => write!(f, "bad {what} length {len}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in wire string"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
        }
    }
}

impl std::error::Error for WireError {}

/// Which wire form an encoder emits for types that support both a
/// compact and a pre-compaction encoding (e.g. interval-run page sets
/// fall back to flat page lists). Decoders accept either form
/// unconditionally; the choice only pins what a producer emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Encoding {
    /// The pre-compaction 1999 forms (flat page lists) — used by
    /// faithful-reproduction modes whose calibrated cost pins depend
    /// on the original payload sizes.
    Flat,
    /// The compact forms (interval runs where smaller). The default.
    #[default]
    Runs,
}

/// Encoder: append-only byte buffer with typed `put_*` methods.
#[derive(Default, Debug)]
pub struct Enc {
    buf: Vec<u8>,
    encoding: Encoding,
}

impl Enc {
    /// New empty encoder.
    pub fn new() -> Self {
        Enc::default()
    }

    /// New encoder with a capacity hint (avoids reallocation on hot paths).
    pub fn with_capacity(cap: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(cap),
            encoding: Encoding::default(),
        }
    }

    /// New encoder with a capacity hint and an explicit [`Encoding`].
    pub fn with_encoding(cap: usize, encoding: Encoding) -> Self {
        Enc {
            buf: Vec::with_capacity(cap),
            encoding,
        }
    }

    /// The selected [`Encoding`].
    pub fn encoding(&self) -> Encoding {
        self.encoding
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u16`, little-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian two's complement.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append raw bytes *without* a length prefix.
    #[inline]
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append bytes with a `u32` length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a UTF-8 string with a `u32` length prefix.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Append a `u32` as an LEB128 varint (1 byte below 128, up to 5).
    pub fn put_varu32(&mut self, mut v: u32) {
        while v >= 0x80 {
            self.buf.push((v as u8 & 0x7f) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Append a slice of `u32` with a count prefix.
    pub fn put_u32_slice(&mut self, v: &[u32]) {
        self.put_u32(v.len() as u32);
        for &x in v {
            self.put_u32(x);
        }
    }

    /// Append a slice of `u64` with a count prefix.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put_u32(v.len() as u32);
        self.put_u64_words(v);
    }

    /// Append a slice of `u64` *without* a count prefix — the bulk
    /// payload path (diff runs, zrle literals). One reservation for the
    /// whole slice; the per-word append then compiles to a straight
    /// store stream instead of `extend` growth checks.
    pub fn put_u64_words(&mut self, v: &[u64]) {
        if let [x] = v {
            // Single-word payloads (scattered diff runs) skip the
            // resize bookkeeping.
            self.buf.extend_from_slice(&x.to_le_bytes());
            return;
        }
        let old = self.buf.len();
        self.buf.resize(old + v.len() * 8, 0);
        for (dst, &x) in self.buf[old..].chunks_exact_mut(8).zip(v) {
            dst.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// Encode a nested `Wire` value (no framing; fields are self-describing).
    pub fn put<W: Wire>(&mut self, v: &W) {
        v.enc(self);
    }

    /// Encode a length-prefixed sequence of `Wire` values.
    pub fn put_seq<W: Wire>(&mut self, vs: &[W]) {
        self.put_u32(vs.len() as u32);
        for v in vs {
            v.enc(self);
        }
    }

    /// Drop everything encoded after the first `len` bytes — how an
    /// encoder that tried one form takes it back to emit a smaller one.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Finish, returning the owned buffer.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Finish, returning a cheaply-cloneable [`Bytes`].
    pub fn finish_bytes(self) -> Bytes {
        Bytes::from(self.buf)
    }
}

/// Decoder: a cursor over a byte slice with typed `get_*` methods.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Wrap a byte slice for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the whole buffer has been consumed.
    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Error unless the whole buffer was consumed.
    pub fn expect_done(&self) -> Result<(), WireError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    #[inline]
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

    /// Read one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool encoded as one byte.
    #[inline]
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        Ok(self.get_u8()? != 0)
    }

    /// Read a little-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let s = self.take(2)?;
        Ok(u16::from_le_bytes([s[0], s[1]]))
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes([
            s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7],
        ]))
    }

    /// Read a little-endian `i64`.
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(self.get_u64()? as i64)
    }

    /// Read an IEEE-754 `f64`.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read an LEB128 varint `u32` (see [`Enc::put_varu32`]).
    pub fn get_varu32(&mut self) -> Result<u32, WireError> {
        let mut v: u32 = 0;
        for shift in (0..35).step_by(7) {
            let b = self.get_u8()?;
            let bits = (b & 0x7f) as u32;
            if shift == 28 && b > 0x0f {
                return Err(WireError::BadLength {
                    what: "varu32",
                    len: b as usize,
                });
            }
            v |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        unreachable!("varu32 loop covers all 5 bytes")
    }

    /// Read `n` raw bytes (no prefix).
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Read a `u32`-length-prefixed byte field.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.get_u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::BadLength {
                what: "bytes",
                len: n,
            });
        }
        self.take(n)
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes()?).map_err(|_| WireError::BadUtf8)
    }

    /// Read a count-prefixed `u32` slice.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, WireError> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(4) > self.remaining() {
            return Err(WireError::BadLength {
                what: "u32 vec",
                len: n,
            });
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.get_u32()?);
        }
        Ok(v)
    }

    /// Read a count-prefixed `u64` slice.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let n = self.get_u32()? as usize;
        if n.saturating_mul(8) > self.remaining() {
            return Err(WireError::BadLength {
                what: "u64 vec",
                len: n,
            });
        }
        let mut v = Vec::with_capacity(n);
        self.get_u64_words_into(&mut v, n)?;
        Ok(v)
    }

    /// Read `n` raw little-endian `u64` words (no prefix) into `out` —
    /// the bulk payload path (diff runs, zrle literals). One bounds
    /// check for the whole span, then a word-at-a-time decode over
    /// `chunks_exact` that the compiler turns into straight 8-byte
    /// loads (no per-word `Result` plumbing).
    pub fn get_u64_words_into(&mut self, out: &mut Vec<u64>, n: usize) -> Result<(), WireError> {
        let raw = self.take(n.saturating_mul(8))?;
        out.reserve(n);
        out.extend(
            raw.chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
        );
        Ok(())
    }

    /// Decode a nested `Wire` value.
    pub fn get<W: Wire>(&mut self) -> Result<W, WireError> {
        W::dec(self)
    }

    /// Decode a count-prefixed sequence of `Wire` values.
    pub fn get_seq<W: Wire>(&mut self) -> Result<Vec<W>, WireError> {
        let n = self.get_u32()? as usize;
        self.get_seq_of(n)
    }

    /// Decode `n` `Wire` values — [`Dec::get_seq`] after its count
    /// word, for callers that read (and inspect) the count themselves.
    pub fn get_seq_of<W: Wire>(&mut self, n: usize) -> Result<Vec<W>, WireError> {
        // Each element takes at least one byte; reject absurd counts early.
        if n > self.remaining().saturating_add(1).saturating_mul(8) {
            return Err(WireError::BadLength {
                what: "seq",
                len: n,
            });
        }
        let mut v = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            v.push(W::dec(self)?);
        }
        Ok(v)
    }
}

/// Types that can be encoded to / decoded from the wire.
pub trait Wire: Sized {
    /// Append this value's encoding to `e`.
    fn enc(&self, e: &mut Enc);
    /// Decode a value from `d`.
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError>;

    /// Convenience: encode into a fresh byte vector.
    fn to_wire(&self) -> Vec<u8> {
        let mut e = Enc::new();
        self.enc(&mut e);
        e.finish()
    }

    /// Convenience: decode from a complete byte slice, requiring full consumption.
    fn from_wire(buf: &[u8]) -> Result<Self, WireError> {
        let mut d = Dec::new(buf);
        let v = Self::dec(&mut d)?;
        d.expect_done()?;
        Ok(v)
    }
}

impl Wire for u32 {
    fn enc(&self, e: &mut Enc) {
        e.put_u32(*self);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        d.get_u32()
    }
}

impl Wire for u64 {
    fn enc(&self, e: &mut Enc) {
        e.put_u64(*self);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        d.get_u64()
    }
}

impl Wire for f64 {
    fn enc(&self, e: &mut Enc) {
        e.put_f64(*self);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        d.get_f64()
    }
}

impl Wire for String {
    fn enc(&self, e: &mut Enc) {
        e.put_str(self);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok(d.get_str()?.to_owned())
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn enc(&self, e: &mut Enc) {
        self.0.enc(e);
        self.1.enc(e);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        Ok((A::dec(d)?, B::dec(d)?))
    }
}

impl<W: Wire> Wire for Vec<W> {
    fn enc(&self, e: &mut Enc) {
        e.put_seq(self);
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        d.get_seq()
    }
}

impl<W: Wire> Wire for Option<W> {
    fn enc(&self, e: &mut Enc) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.enc(e);
            }
        }
    }
    fn dec(d: &mut Dec<'_>) -> Result<Self, WireError> {
        match d.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(W::dec(d)?)),
            t => Err(WireError::BadTag {
                what: "Option",
                tag: t as u32,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Enc::new();
        e.put_u8(0xAB);
        e.put_u16(0xCDEF);
        e.put_u32(0xDEADBEEF);
        e.put_u64(0x0123456789ABCDEF);
        e.put_i64(-42);
        e.put_f64(std::f64::consts::PI);
        e.put_bool(true);
        e.put_str("hello nowmp");
        e.put_bytes(&[1, 2, 3]);
        let buf = e.finish();

        let mut d = Dec::new(&buf);
        assert_eq!(d.get_u8().unwrap(), 0xAB);
        assert_eq!(d.get_u16().unwrap(), 0xCDEF);
        assert_eq!(d.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(d.get_u64().unwrap(), 0x0123456789ABCDEF);
        assert_eq!(d.get_i64().unwrap(), -42);
        assert_eq!(d.get_f64().unwrap(), std::f64::consts::PI);
        assert!(d.get_bool().unwrap());
        assert_eq!(d.get_str().unwrap(), "hello nowmp");
        assert_eq!(d.get_bytes().unwrap(), &[1, 2, 3]);
        assert!(d.is_done());
        d.expect_done().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Enc::new();
        e.put_u64(7);
        let buf = e.finish();
        let mut d = Dec::new(&buf[..5]);
        let err = d.get_u64().unwrap_err();
        assert!(matches!(
            err,
            WireError::Truncated {
                needed: 8,
                remaining: 5
            }
        ));
    }

    #[test]
    fn bytes_length_exceeding_buffer_rejected() {
        let mut e = Enc::new();
        e.put_u32(1_000_000); // claims a million bytes follow
        e.put_raw(&[0u8; 4]);
        let buf = e.finish();
        let mut d = Dec::new(&buf);
        assert!(matches!(d.get_bytes(), Err(WireError::BadLength { .. })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Enc::new();
        e.put_u32(1);
        e.put_u32(2);
        let buf = e.finish();
        let got = <u32 as Wire>::from_wire(&buf);
        assert!(matches!(got, Err(WireError::TrailingBytes(4))));
    }

    #[test]
    fn option_and_vec_roundtrip() {
        let v: Vec<Option<u64>> = vec![Some(1), None, Some(u64::MAX)];
        let buf = v.to_wire();
        let back = Vec::<Option<u64>>::from_wire(&buf).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn bad_option_tag() {
        let buf = vec![7u8];
        assert!(matches!(
            Option::<u32>::from_wire(&buf),
            Err(WireError::BadTag { what: "Option", .. })
        ));
    }

    #[test]
    fn varu32_width_and_edges() {
        // One byte below 128, then one extra byte per 7 bits.
        for (v, width) in [
            (0u32, 1usize),
            (0x7f, 1),
            (0x80, 2),
            (0x3fff, 2),
            (0x4000, 3),
            (u32::MAX, 5),
        ] {
            let mut e = Enc::new();
            e.put_varu32(v);
            let buf = e.finish();
            assert_eq!(buf.len(), width, "width of {v:#x}");
            let mut d = Dec::new(&buf);
            assert_eq!(d.get_varu32().unwrap(), v);
            assert!(d.is_done());
        }
        // Overlong / overflowing fifth byte is rejected.
        let mut d = Dec::new(&[0xff, 0xff, 0xff, 0xff, 0x10]);
        assert!(d.get_varu32().is_err());
        // Truncated varint is an error, not a panic.
        let mut d = Dec::new(&[0x80]);
        assert!(d.get_varu32().is_err());
    }

    proptest! {
        #[test]
        fn prop_varu32_roundtrip(v in any::<u32>()) {
            let mut e = Enc::new();
            e.put_varu32(v);
            let buf = e.finish();
            let mut d = Dec::new(&buf);
            prop_assert_eq!(d.get_varu32().unwrap(), v);
            prop_assert!(d.is_done());
        }

        #[test]
        fn prop_u64_slice_roundtrip(v in proptest::collection::vec(any::<u64>(), 0..200)) {
            let mut e = Enc::new();
            e.put_u64_slice(&v);
            let buf = e.finish();
            let mut d = Dec::new(&buf);
            let back = d.get_u64_vec().unwrap();
            prop_assert_eq!(v, back);
            prop_assert!(d.is_done());
        }

        #[test]
        fn prop_string_roundtrip(s in ".*") {
            let buf = s.clone().to_wire();
            let back = String::from_wire(&buf).unwrap();
            prop_assert_eq!(s, back);
        }

        #[test]
        fn prop_f64_bit_exact(x in any::<f64>()) {
            let buf = x.to_wire();
            let back = f64::from_wire(&buf).unwrap();
            prop_assert_eq!(x.to_bits(), back.to_bits());
        }

        #[test]
        fn prop_decoder_never_panics_on_garbage(buf in proptest::collection::vec(any::<u8>(), 0..64)) {
            // Decoding arbitrary garbage must never panic.
            let _ = Vec::<Option<u64>>::from_wire(&buf);
            let _ = String::from_wire(&buf);
            let mut d = Dec::new(&buf);
            let _ = d.get_u32_vec();
        }
    }
}
