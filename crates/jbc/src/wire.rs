//! Wire primitives shared by every binary format: TDRL event logs, TDRB
//! batches, TDRC control frames, and TDRP program containers.
//!
//! The encoders (`put_*`) append to a `Vec<u8>`. The decoder is
//! [`Cursor`], a reader over a byte slice that owns the checks every
//! decoder of peer-supplied bytes needs, so no format has to remember
//! them call by call:
//!
//! * a read past the end is [`WireError::Truncated`];
//! * a declared count is bounded by the bytes remaining divided by the
//!   smallest encoding of one element *before* anything is allocated
//!   ([`Cursor::count`], [`WireError::LengthOverflow`]);
//! * the input must be consumed exactly ([`Cursor::finish`],
//!   [`WireError::TrailingBytes`]).
//!
//! Each format keeps its own error type, with one `From<WireError>` that
//! places these failures in it. The encodings match `docs/FORMATS.md` §1
//! bit for bit; the CRC-32 lives next door in [`crate::crc`].

/// A structural failure while decoding with a [`Cursor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended inside a value.
    Truncated,
    /// A varint ran past its maximum width, or its last group carries
    /// bits the integer cannot hold.
    VarintOverflow,
    /// A declared count or length exceeds what the remaining input can
    /// hold.
    LengthOverflow {
        /// The declared element count or byte length.
        declared: u64,
        /// The most elements the remaining bytes could hold.
        available: u64,
    },
    /// Bytes remained after the structure ended.
    TrailingBytes(usize),
}

// ---------------------------------------------------------------------------
// Encoders
// ---------------------------------------------------------------------------

/// Append `v` as an unsigned LEB128 varint (§1.1), minimal length.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Append a 128-bit varint: the groups above bit 64, then the rest as an
/// ordinary [`put_varint`].
pub fn put_varint128(out: &mut Vec<u8>, mut v: u128) {
    while v > u128::from(u64::MAX) {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    put_varint(out, v as u64);
}

/// Map a signed value to an unsigned one so small magnitudes of either
/// sign stay small (§1.2).
#[inline]
fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

/// Append `cur` as the zigzag varint of its wrapping difference from
/// `prev` (§1.3): exact for any pair.
#[inline]
pub fn put_delta(out: &mut Vec<u8>, prev: u64, cur: u64) {
    put_varint(out, zigzag(cur.wrapping_sub(prev) as i64));
}

/// Apply a decoded zigzag delta `z` to `prev` (the inverse of
/// [`put_delta`]).
#[inline]
pub fn apply_delta(prev: u64, z: u64) -> u64 {
    prev.wrapping_add(unzigzag(z) as u64)
}

/// Append an `f64` as the 8 little-endian bytes of its IEEE-754 bit
/// pattern, so round trips are bit-exact (NaN payloads and signed zeros
/// included).
#[inline]
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Append `bytes` with a varint length prefix. A string is its UTF-8
/// bytes.
#[inline]
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_varint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Decode one `u64` varint from bytes supplied by `next`, the one rule
/// both the slice [`Cursor`] and the streaming readers apply: at most
/// ten bytes, and a tenth byte whose group exceeds `1` would overflow 64
/// bits, so it is a [`WireError::VarintOverflow`].
#[inline]
pub fn read_varint<E: From<WireError>>(mut next: impl FnMut() -> Result<u8, E>) -> Result<u64, E> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let b = next()?;
        let part = u64::from(b & 0x7f);
        if shift == 63 && part > 1 {
            return Err(WireError::VarintOverflow.into());
        }
        v |= part << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(WireError::VarintOverflow.into())
}

/// A fixed-width little-endian value a [`Cursor`] can read.
pub trait FixedLe: Sized {
    /// Read one value from the front of the cursor.
    fn read_le(r: &mut Cursor<'_>) -> Result<Self, WireError>;
}

macro_rules! fixed_le {
    ($($t:ty),*) => {$(
        impl FixedLe for $t {
            #[inline]
            fn read_le(r: &mut Cursor<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.array()?))
            }
        }
    )*};
}
fixed_le!(u16, i16, u32, i32, u64, i64);

impl FixedLe for f64 {
    #[inline]
    fn read_le(r: &mut Cursor<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::read_le(r)?))
    }
}

/// A bounds-checked reader over one encoded structure.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Read `buf` from its first byte.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    /// Bytes not yet read.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes; [`WireError::Truncated`] if fewer remain.
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if n > self.remaining() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// One byte.
    #[inline]
    pub fn byte(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// One fixed-width little-endian value (`u16` … `i64`, or an `f64`
    /// as its IEEE-754 bits).
    #[inline]
    pub fn le<T: FixedLe>(&mut self) -> Result<T, WireError> {
        T::read_le(self)
    }

    /// One `u64` varint under [`read_varint`]'s overflow rule.
    #[inline]
    pub fn varint(&mut self) -> Result<u64, WireError> {
        read_varint(|| self.byte())
    }

    /// One 128-bit varint: at most 19 bytes, and the 19th may carry only
    /// the two bits left above bit 126.
    pub fn varint128(&mut self) -> Result<u128, WireError> {
        let mut v = 0u128;
        for shift in (0..128).step_by(7) {
            let b = self.byte()?;
            let part = u128::from(b & 0x7f);
            if shift == 126 && part > 3 {
                return Err(WireError::VarintOverflow);
            }
            v |= part << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(WireError::VarintOverflow)
    }

    /// One zigzag delta against `prev` (the inverse of [`put_delta`]).
    #[inline]
    pub fn delta(&mut self, prev: u64) -> Result<u64, WireError> {
        Ok(apply_delta(prev, self.varint()?))
    }

    /// A declared element count, bounded before any allocation toward it:
    /// each element occupies at least `min_elem` bytes, so a count above
    /// the remaining bytes divided by `min_elem` is a
    /// [`WireError::LengthOverflow`].
    #[inline]
    pub fn count(&mut self, min_elem: usize) -> Result<usize, WireError> {
        // A zero minimum would admit any count; every caller knows its
        // element's true wire minimum.
        debug_assert!(min_elem > 0, "count needs the per-element minimum");
        let declared = self.varint()?;
        let available = (self.remaining() / min_elem.max(1)) as u64;
        if declared > available {
            return Err(WireError::LengthOverflow {
                declared,
                available,
            });
        }
        Ok(declared as usize)
    }

    /// A varint length, then that many bytes (the inverse of
    /// [`put_bytes`]); the length is a [`count`](Self::count) of bytes.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.count(1)?;
        self.take(len)
    }

    /// End of the structure: every byte must have been read.
    #[inline]
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip_at_every_width() {
        let mut values = vec![0u64, 1, 127, 128, 500, u64::MAX];
        values.extend((0..64).map(|k| 1u64 << k));
        for v in values {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(
                buf.len(),
                (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
            );
            let mut r = Cursor::new(&buf);
            assert_eq!(r.varint(), Ok(v));
            r.finish().expect("exactly consumed");
        }
        for v in [
            0u128,
            127,
            128,
            u128::from(u64::MAX),
            u128::from(u64::MAX) + 1,
            u128::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint128(&mut buf, v);
            let mut r = Cursor::new(&buf);
            assert_eq!(r.varint128(), Ok(v));
            r.finish().expect("exactly consumed");
        }
        // §1.1's examples.
        for (v, bytes) in [
            (0u64, &[0x00][..]),
            (127, &[0x7f]),
            (128, &[0x80, 0x01]),
            (500, &[0xf4, 0x03]),
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf, bytes);
        }
    }

    #[test]
    fn varint_overflow_and_truncation_are_rejected() {
        // A tenth byte above 1 would overflow 64 bits.
        let over = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        assert_eq!(Cursor::new(&over).varint(), Err(WireError::VarintOverflow));
        // An eleventh byte is never read.
        let long = [
            0xffu8, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00,
        ];
        assert_eq!(Cursor::new(&long).varint(), Err(WireError::VarintOverflow));
        assert_eq!(
            Cursor::new(&[0x80, 0x80]).varint(),
            Err(WireError::Truncated)
        );
        let over128 = [&[0x80u8; 18][..], &[0x04]].concat();
        assert_eq!(
            Cursor::new(&over128).varint128(),
            Err(WireError::VarintOverflow)
        );
    }

    #[test]
    fn zigzag_deltas_are_exact_for_any_pair() {
        for (d, z) in [(0i64, 0u64), (-1, 1), (1, 2), (-2, 3), (2, 4)] {
            assert_eq!((zigzag(d), unzigzag(z)), (z, d));
        }
        for (prev, cur) in [(0u64, u64::MAX), (u64::MAX, 0), (5, 3), (3, 5)] {
            let mut buf = Vec::new();
            put_delta(&mut buf, prev, cur);
            assert_eq!(Cursor::new(&buf).delta(prev), Ok(cur));
        }
    }

    #[test]
    fn fixed_width_reads_and_trailing_bytes() {
        let mut buf = vec![0x34, 0x12];
        put_f64(&mut buf, -0.0);
        buf.push(0xaa);
        let mut r = Cursor::new(&buf);
        assert_eq!(r.le::<u16>(), Ok(0x1234));
        assert_eq!(r.le::<f64>().map(f64::to_bits), Ok((-0.0f64).to_bits()));
        assert_eq!(r.le::<u16>(), Err(WireError::Truncated));
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn length_prefixed_bytes_are_bounded_by_the_input() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hi");
        assert_eq!(Cursor::new(&buf).bytes(), Ok(&b"hi"[..]));
        assert_eq!(
            Cursor::new(&buf[..2]).bytes(),
            Err(WireError::LengthOverflow {
                declared: 2,
                available: 1
            })
        );
    }

    /// The boundary case: a declared count of exactly `remaining /
    /// min_elem` is the largest claim the input could satisfy and is
    /// admitted; one more is not.
    #[test]
    fn bounded_count_accepts_exactly_full_body() {
        for (remaining, min_elem) in [(24usize, 2usize), (24, 8), (20, 2), (20, 9), (1, 2)] {
            let fit = (remaining / min_elem) as u64;
            for (declared, want) in [
                (fit, Ok(fit as usize)),
                (
                    fit + 1,
                    Err(WireError::LengthOverflow {
                        declared: fit + 1,
                        available: fit,
                    }),
                ),
            ] {
                let mut buf = Vec::new();
                put_varint(&mut buf, declared);
                buf.resize(buf.len() + remaining, 0);
                assert_eq!(
                    Cursor::new(&buf).count(min_elem),
                    want,
                    "{remaining} bytes, min {min_elem}"
                );
            }
        }
    }

    /// With fewer than `min_elem` bytes left — none at all included — no
    /// nonzero count fits, and a zero count always does.
    #[test]
    fn bounded_count_rejects_any_claim_against_a_short_body() {
        for remaining in [0usize, 1, 7] {
            for (declared, want) in [
                (
                    1u64,
                    Err(WireError::LengthOverflow {
                        declared: 1,
                        available: 0,
                    }),
                ),
                (0, Ok(0)),
            ] {
                let mut buf = Vec::new();
                put_varint(&mut buf, declared);
                buf.resize(buf.len() + remaining, 0);
                assert_eq!(Cursor::new(&buf).count(8), want, "{remaining} bytes");
            }
        }
    }
}
