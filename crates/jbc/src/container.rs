//! TDRP — the sealed, hash-addressed program container.
//!
//! A reference registry (the audit daemon's catalog of known-good
//! programs) needs programs to travel as *bytes*: named, shipped,
//! verified, and cached as first-class objects. This module defines that
//! wire form. A **TDRP container** wraps the canonical serialization of a
//! [`Program`] in the same envelope discipline as the TDRL/TDRB/TDRC
//! formats (`docs/FORMATS.md` §7 is the normative spec):
//!
//! ```text
//! container := u32 length | payload of exactly `length` bytes
//! payload   := magic "TDRP" | u16 version | u16 flags
//!              | 32-byte SHA-256 digest of the program bytes
//!              | varint program_len | canonical program bytes
//!              | u32 CRC-32 of everything after the magic, up to the trailer
//! ```
//!
//! The container is **hash-addressed**: the [`ReferenceId`] of a program
//! *is* the SHA-256 digest of its canonical byte encoding. Ids are
//! therefore self-certifying — [`open`] recomputes the digest over the
//! bytes it decoded and rejects a mismatch — and content-addressed: two
//! structurally equal programs seal to the same id, byte-for-byte.
//!
//! Canonicality is enforced, not assumed: [`open`] re-encodes the decoded
//! program and rejects the container if the bytes differ
//! ([`ContainerError::NotCanonical`]), so there is exactly one accepted
//! encoding per program value and the id function is injective over
//! accepted containers.
//!
//! The program body is described once: its encoder, its decoder and the
//! bound on every declared count come from one row of fields per struct
//! (`program_body!` below), and each opcode's byte and operands from its
//! row of the instruction table in [`crate::op`].
//!
//! This crate is dependency-free by design, so SHA-256 is implemented
//! here; varints and the bounds-checked [`Cursor`] come from
//! [`crate::wire`] and the CRC-32 from [`crate::crc`], the one
//! implementation of each that every format shares (`docs/FORMATS.md`
//! §1).

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use crate::crc::crc32;
use crate::op::{ElemTy, Op};
use crate::program::{
    Class, ClassId, Field, FieldId, Handler, Method, MethodId, NativeDecl, NativeId, Program, Ty,
};
use crate::wire::{put_bytes, put_varint, Cursor, WireError};

/// The four magic bytes opening every TDRP payload.
pub const MAGIC: [u8; 4] = *b"TDRP";

/// The container format version this module reads and writes.
pub const VERSION: u16 = 1;

/// Largest container payload [`open`] will accept (256 MiB): a corrupt
/// length prefix must not balloon memory.
pub const MAX_CONTAINER_LEN: u64 = 256 << 20;

// ---------------------------------------------------------------------------
// ReferenceId
// ---------------------------------------------------------------------------

/// The identity of a reference program: the SHA-256 digest of its
/// canonical byte encoding.
///
/// Ids are self-certifying — whoever holds the container can recompute
/// the id from its bytes, so a registry keyed by `ReferenceId` cannot be
/// poisoned by a mislabeled upload — and content-addressed: equal
/// programs have equal ids.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReferenceId(pub [u8; 32]);

impl ReferenceId {
    /// The id as lowercase hex (64 characters).
    pub fn to_hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in &self.0 {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parse a 64-character hex string back into an id.
    pub fn from_hex(s: &str) -> Option<ReferenceId> {
        let s = s.trim();
        if s.len() != 64 {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, chunk) in s.as_bytes().chunks(2).enumerate() {
            let hi = (chunk[0] as char).to_digit(16)?;
            let lo = (chunk[1] as char).to_digit(16)?;
            out[i] = ((hi << 4) | lo) as u8;
        }
        Some(ReferenceId(out))
    }
}

impl fmt::Display for ReferenceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The 12-hex-digit prefix is unambiguous in any realistic registry
        // and keeps log lines readable; `to_hex` prints the full id.
        for b in &self.0[..6] {
            write!(f, "{b:02x}")?;
        }
        write!(f, "…")
    }
}

impl fmt::Debug for ReferenceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ReferenceId({})", self.to_hex())
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed reason a TDRP container was rejected.
///
/// The classification follows the §2.1/§5.2 discipline of the sibling
/// formats: checks run in the order length, magic, checksum, version,
/// flags, body, trailing bytes, and every declared count is bounded
/// against the remaining input before anything is allocated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// Input ended before the container (or a declared length) completed.
    Truncated,
    /// The declared payload length exceeds [`MAX_CONTAINER_LEN`].
    FrameTooLarge {
        /// The declared payload length.
        len: u64,
        /// The bound it exceeded.
        max: u64,
    },
    /// The payload does not open with `"TDRP"`.
    BadMagic,
    /// The CRC-32 trailer does not match the payload.
    BadChecksum {
        /// The checksum stored in the trailer.
        stored: u32,
        /// The checksum computed over the received payload.
        computed: u32,
    },
    /// The container's version is not [`VERSION`].
    UnsupportedVersion(u16),
    /// A reserved flag bit is set.
    UnsupportedFlags(u16),
    /// A varint ran past its maximum width or would overflow 64 bits.
    VarintOverflow,
    /// A declared count or length exceeds what the input can hold.
    LengthOverflow {
        /// The declared element count or byte length.
        declared: u64,
        /// The bytes (or minimum element sizes) actually remaining.
        available: u64,
    },
    /// The stored digest does not match the SHA-256 of the program bytes
    /// — the id would not certify the content.
    DigestMismatch {
        /// The digest stored in the container header.
        stored: ReferenceId,
        /// The digest computed over the received program bytes.
        computed: ReferenceId,
    },
    /// The program bytes decode, but are not the canonical encoding of
    /// the decoded program — two different byte strings would otherwise
    /// name the same program under different ids.
    NotCanonical,
    /// A string's bytes are not valid UTF-8.
    BadUtf8,
    /// A tag byte (an `Option` or `bool` on the wire) holds a value
    /// outside its domain.
    BadTag {
        /// Which field was being decoded.
        what: &'static str,
        /// The offending byte.
        value: u8,
    },
    /// An opcode byte outside the instruction set.
    BadOpcode(u8),
    /// Input continues past the end of the container.
    TrailingBytes,
}

impl fmt::Display for ContainerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContainerError::Truncated => write!(f, "container truncated"),
            ContainerError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "container payload of {len} bytes exceeds the {max}-byte bound"
                )
            }
            ContainerError::BadMagic => write!(f, "bad magic (expected \"TDRP\")"),
            ContainerError::BadChecksum { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            ContainerError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            ContainerError::UnsupportedFlags(bits) => {
                write!(f, "unsupported flags {bits:#06x}")
            }
            ContainerError::VarintOverflow => write!(f, "varint overflow"),
            ContainerError::LengthOverflow {
                declared,
                available,
            } => write!(
                f,
                "declared length {declared} exceeds the {available} available"
            ),
            ContainerError::DigestMismatch { stored, computed } => write!(
                f,
                "digest mismatch (stored {}, computed {})",
                stored.to_hex(),
                computed.to_hex()
            ),
            ContainerError::NotCanonical => {
                write!(f, "program bytes are not the canonical encoding")
            }
            ContainerError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            ContainerError::BadTag { what, value } => {
                write!(f, "bad tag byte {value:#04x} for {what}")
            }
            ContainerError::BadOpcode(b) => write!(f, "unknown opcode byte {b:#04x}"),
            ContainerError::TrailingBytes => write!(f, "trailing bytes after the container"),
        }
    }
}

impl std::error::Error for ContainerError {}

impl From<WireError> for ContainerError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => ContainerError::Truncated,
            WireError::VarintOverflow => ContainerError::VarintOverflow,
            WireError::LengthOverflow {
                declared,
                available,
            } => ContainerError::LengthOverflow {
                declared,
                available,
            },
            WireError::TrailingBytes(_) => ContainerError::TrailingBytes,
        }
    }
}

// ---------------------------------------------------------------------------
// SHA-256
// ---------------------------------------------------------------------------

/// SHA-256 (FIPS 180-4) of `data`. Plain portable implementation; the
/// unit tests pin it against the published test vectors.
fn sha256(data: &[u8]) -> [u8; 32] {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    // Pad: 0x80, zeros to 56 mod 64, then the bit length as big-endian u64.
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (t, chunk) in block.chunks_exact(4).enumerate() {
            w[t] = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
        }
        for t in 16..64 {
            let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
            let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
            w[t] = w[t - 16]
                .wrapping_add(s0)
                .wrapping_add(w[t - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for t in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[t])
                .wrapping_add(w[t]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        h[5] = h[5].wrapping_add(f);
        h[6] = h[6].wrapping_add(g);
        h[7] = h[7].wrapping_add(hh);
    }

    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

// ---------------------------------------------------------------------------
// Canonical program encoding
// ---------------------------------------------------------------------------

/// A value with one canonical TDRP encoding. `MIN` is the fewest bytes one
/// value occupies: the divisor a declared count of them is bounded by.
/// `what` names the `Struct.field` being decoded, for a tag error.
pub(crate) trait Wire: Sized {
    const MIN: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Cursor<'_>, what: &'static str) -> Result<Self, ContainerError>;
}

/// Fixed-width little-endian; an `f64` as its IEEE-754 bits.
macro_rules! fixed_le {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            const MIN: usize = std::mem::size_of::<$t>();
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Cursor<'_>, _: &'static str) -> Result<Self, ContainerError> {
                Ok(r.le()?)
            }
        }
    )+};
}
fixed_le!(u16, i16, u32, i32, i64, f64);

/// An id: its `u16` index.
macro_rules! ids {
    ($($t:ident),+) => {$(
        impl Wire for $t {
            const MIN: usize = 2;
            fn put(&self, out: &mut Vec<u8>) {
                self.0.put(out);
            }
            fn get(r: &mut Cursor<'_>, _: &'static str) -> Result<Self, ContainerError> {
                Ok($t(r.le()?))
            }
        }
    )+};
}
ids!(ClassId, FieldId, MethodId, NativeId);

/// Enums sent as one tag byte, each variant's byte in its row; any other
/// byte is a `BadTag` naming the enum.
macro_rules! tags {
    ($($t:ident { $($v:ident = $byte:literal),+ })+) => {$(
        impl Wire for $t {
            const MIN: usize = 1;
            fn put(&self, out: &mut Vec<u8>) {
                out.push(match self {
                    $($t::$v => $byte,)+
                });
            }
            fn get(r: &mut Cursor<'_>, _: &'static str) -> Result<Self, ContainerError> {
                Ok(match r.byte()? {
                    $($byte => $t::$v,)+
                    value => return Err(ContainerError::BadTag { what: stringify!($t), value }),
                })
            }
        }
    )+};
}
tags! {
    Ty { I32 = 0, I64 = 1, F64 = 2, Ref = 3 }
    ElemTy { I8 = 0, U16 = 1, I32 = 2, I64 = 3, F64 = 4, Ref = 5 }
}

impl Wire for u8 {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn get(r: &mut Cursor<'_>, _: &'static str) -> Result<Self, ContainerError> {
        Ok(r.byte()?)
    }
}

/// One byte, `00` or `01`; anything else names the field it broke.
impl Wire for bool {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(r: &mut Cursor<'_>, what: &'static str) -> Result<Self, ContainerError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            value => Err(ContainerError::BadTag { what, value }),
        }
    }
}

/// Varint length, then UTF-8 bytes.
impl Wire for String {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
    fn get(r: &mut Cursor<'_>, _: &'static str) -> Result<Self, ContainerError> {
        String::from_utf8(r.bytes()?.to_vec()).map_err(|_| ContainerError::BadUtf8)
    }
}

/// A `bool` tag, then the value if it is set.
impl<T: Wire> Wire for Option<T> {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(r: &mut Cursor<'_>, what: &'static str) -> Result<Self, ContainerError> {
        Ok(if bool::get(r, what)? {
            Some(T::get(r, what)?)
        } else {
            None
        })
    }
}

/// A varint count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for item in self {
            item.put(out);
        }
    }
    fn get(r: &mut Cursor<'_>, what: &'static str) -> Result<Self, ContainerError> {
        let n = r.count(T::MIN)?;
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(T::get(r, what)?);
        }
        Ok(items)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN: usize = A::MIN + B::MIN;
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Cursor<'_>, what: &'static str) -> Result<Self, ContainerError> {
        Ok((A::get(r, what)?, B::get(r, what)?))
    }
}

/// A varint count, then the entries in key order, so the encoding is a
/// function of the map's contents, not of hash iteration order.
impl<K: Wire + Ord + Hash, V: Wire> Wire for HashMap<K, V> {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        put_varint(out, entries.len() as u64);
        for (k, v) in entries {
            k.put(out);
            v.put(out);
        }
    }
    fn get(r: &mut Cursor<'_>, what: &'static str) -> Result<Self, ContainerError> {
        let n = r.count(K::MIN + V::MIN)?;
        let mut map = HashMap::with_capacity(n);
        for _ in 0..n {
            let k = K::get(r, what)?;
            map.insert(k, V::get(r, what)?);
        }
        Ok(map)
    }
}

// A program-body field's wire rule: its type's `Wire` encoding, or
// `[varint]` for a count-like `u32`/`u64` sent as a varint. A varint that
// does not fit its field decodes truncated, and `open`'s canonical check
// then refuses the body.
macro_rules! body_field {
    (min $t:ty) => {
        <$t as Wire>::MIN
    };
    (min $t:ty, varint) => {
        1
    };
    (put $v:ident, $out:ident) => {
        $v.put($out)
    };
    (put $v:ident, $out:ident, varint) => {
        put_varint($out, *$v as u64)
    };
    (get $r:ident, $t:ty, $what:expr) => {
        <$t as Wire>::get($r, $what)?
    };
    (get $r:ident, $t:ty, $what:expr, varint) => {
        $r.varint()? as $t
    };
}

/// The program body, one row per struct with its fields in wire order
/// (`docs/FORMATS.md` §7): each struct's encoder, decoder and minimum
/// size come from its row, and the decoder names `Struct.field` in a
/// tag error. The destructuring makes a field missing from a row a
/// compile error.
macro_rules! program_body {
    ($($name:ident { $($f:ident: $t:ty $([$rule:ident])?),+ })+) => {$(
        impl Wire for $name {
            const MIN: usize = 0 $(+ body_field!(min $t $(, $rule)?))+;
            fn put(&self, out: &mut Vec<u8>) {
                let $name { $($f),+ } = self;
                $(body_field!(put $f, out $(, $rule)?);)+
            }
            fn get(r: &mut Cursor<'_>, _: &'static str) -> Result<Self, ContainerError> {
                $(let $f = body_field!(
                    get r, $t, concat!(stringify!($name), ".", stringify!($f)) $(, $rule)?
                );)+
                Ok($name { $($f),+ })
            }
        }
    )+};
}

// Opcode byte assignments are the instruction table's (`crate::op`): the
// opcode byte, then each operand in row order, fixed-width little-endian,
// a switch table with a varint count.
program_body! {
    Class {
        name: String, super_class: Option<ClassId>, layout: Vec<FieldId>, vtable: Vec<MethodId>,
        declared: HashMap<String, MethodId>
    }
    Method {
        name: String, owner: ClassId, params: Vec<Ty>, ret: Option<Ty>, is_static: bool,
        max_locals: u16, code: Vec<Op>, handlers: Vec<Handler>, vslot: Option<u16>,
        code_base: u64 [varint]
    }
    Handler { start: u32, end: u32, target: u32, class: Option<ClassId> }
    Field { name: String, owner: ClassId, ty: Ty, is_static: bool, slot: u32 [varint] }
    NativeDecl { name: String, args: u8, ret: bool }
    Program {
        classes: Vec<Class>, methods: Vec<Method>, fields: Vec<Field>, strings: Vec<String>,
        natives: Vec<NativeDecl>, static_slots: u32 [varint], entry: MethodId
    }
}

/// The canonical byte encoding of `program` — the domain of
/// [`reference_id`]. Deterministic: unordered collections (each class's
/// `declared` map) are serialized in ascending key order, so two
/// structurally equal programs encode byte-identically. Opcodes are
/// encoded from the instruction table in [`crate::op`].
pub fn canonical_program_bytes(program: &Program) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + program.total_code_len() * 3);
    program.put(&mut out);
    out
}

fn decode_program(bytes: &[u8]) -> Result<Program, ContainerError> {
    let mut r = Cursor::new(bytes);
    let program = Program::get(&mut r, "Program")?;
    r.finish()?;
    Ok(program)
}

// ---------------------------------------------------------------------------
// Seal / open
// ---------------------------------------------------------------------------

/// The [`ReferenceId`] of `program`: the SHA-256 digest of its canonical
/// byte encoding ([`canonical_program_bytes`]).
pub fn reference_id(program: &Program) -> ReferenceId {
    ReferenceId(sha256(&canonical_program_bytes(program)))
}

/// Seal `program` into a TDRP container (length prefix included).
///
/// The returned bytes are deterministic — equal programs seal
/// byte-identically — and [`open`] accepts exactly them.
pub fn seal(program: &Program) -> Vec<u8> {
    let body = canonical_program_bytes(program);
    let digest = sha256(&body);

    let mut payload = Vec::with_capacity(48 + body.len() + 10);
    payload.extend_from_slice(&MAGIC);
    payload.extend_from_slice(&VERSION.to_le_bytes());
    payload.extend_from_slice(&0u16.to_le_bytes()); // flags
    payload.extend_from_slice(&digest);
    put_varint(&mut payload, body.len() as u64);
    payload.extend_from_slice(&body);
    let crc = crc32(&payload[4..]);
    payload.extend_from_slice(&crc.to_le_bytes());

    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Open a TDRP container: validate the envelope (length, magic,
/// checksum, version, flags), recompute and check the digest, decode the
/// program, and verify the bytes were canonical.
///
/// The returned [`ReferenceId`] is recomputed from the program bytes —
/// never trusted from the header — so a successful `open` certifies that
/// the id names exactly the returned program. Structural verification
/// (`crate::verify`) is the *caller's* next step: `open` checks the
/// encoding, not the bytecode's type discipline.
pub fn open(bytes: &[u8]) -> Result<(ReferenceId, Program), ContainerError> {
    if bytes.len() < 4 {
        return Err(ContainerError::Truncated);
    }
    let declared = u32::from_le_bytes(bytes[..4].try_into().expect("4")) as u64;
    if declared > MAX_CONTAINER_LEN {
        return Err(ContainerError::FrameTooLarge {
            len: declared,
            max: MAX_CONTAINER_LEN,
        });
    }
    let rest = &bytes[4..];
    if (rest.len() as u64) < declared {
        return Err(ContainerError::Truncated);
    }
    if rest.len() as u64 > declared {
        return Err(ContainerError::TrailingBytes);
    }
    let payload = rest;
    // magic(4) + version(2) + flags(2) + digest(32) + varint(≥1) + crc(4)
    if payload.len() < 45 {
        return Err(ContainerError::Truncated);
    }
    if payload[..4] != MAGIC {
        return Err(ContainerError::BadMagic);
    }
    let crc_at = payload.len() - 4;
    let stored_crc = u32::from_le_bytes(payload[crc_at..].try_into().expect("4"));
    let computed_crc = crc32(&payload[4..crc_at]);
    if stored_crc != computed_crc {
        return Err(ContainerError::BadChecksum {
            stored: stored_crc,
            computed: computed_crc,
        });
    }
    let version = u16::from_le_bytes(payload[4..6].try_into().expect("2"));
    if version != VERSION {
        return Err(ContainerError::UnsupportedVersion(version));
    }
    let flags = u16::from_le_bytes(payload[6..8].try_into().expect("2"));
    if flags != 0 {
        return Err(ContainerError::UnsupportedFlags(flags));
    }
    let stored_digest: [u8; 32] = payload[8..40].try_into().expect("32");

    let mut r = Cursor::new(&payload[40..crc_at]);
    let body = r.bytes()?;
    r.finish()?;

    let computed_digest = sha256(body);
    if stored_digest != computed_digest {
        return Err(ContainerError::DigestMismatch {
            stored: ReferenceId(stored_digest),
            computed: ReferenceId(computed_digest),
        });
    }

    let program = decode_program(body)?;
    // One accepted encoding per program value: the id function must be
    // injective over accepted containers.
    if canonical_program_bytes(&program) != body {
        return Err(ContainerError::NotCanonical);
    }
    Ok((ReferenceId(computed_digest), program))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::verify;

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = {
            let mut m = b.static_method("M", "main", &[], None);
            m.op(Op::Return);
            m.finish()
        };
        b.set_entry(main);
        b.link().expect("link")
    }

    /// A program exercising every immediate shape the codec handles.
    fn busy_program() -> Program {
        let mut b = ProgramBuilder::new();
        let main = {
            let mut m = b.static_method("M", "main", &[], None);
            m.op(Op::IConst(-7));
            m.op(Op::LConst(1 << 40));
            m.op(Op::DConst(-0.0));
            m.op(Op::IStore(0));
            m.op(Op::LStore(1));
            m.op(Op::DStore(2));
            m.op(Op::IInc(0, -3));
            m.op(Op::ILoad(0));
            m.op(Op::TableSwitch {
                low: -1,
                targets: vec![10, 10],
                default: 10,
            });
            m.op(Op::Return);
            m.op(Op::Return);
            m.finish()
        };
        b.set_entry(main);
        b.link().expect("link")
    }

    /// A container holding one method with `every_op(true)`, as hex.
    const EVERY_OP_HEX: &str = concat!(
        "710100005444525001000000d46ff636828fe54b51deb125364b3265bdfe1f1f89a4302b",
        "ffd90fc3c5c6115fc30201014d00000001046d61696e000001046d61696e000000000100",
        "007100010000008002ffffffffffffff7f0300000000000000800405ffff06ffff07ffff",
        "08ffff09ffff0affff0bffff0cffff0dffff0effff00800f101112131415161718191a1b",
        "1c1d1e1f202122232425262728292a2b2c2d2e2f303132333435363738393a3b3c3dffff",
        "ffff3effffffff3fffffffff40ffffffff41ffffffff42ffffffff43ffffffff44ffffff",
        "ff45ffffffff46ffffffff47ffffffff48ffffffff49ffffffff4affffffff4bffffffff",
        "4cffffffff4dffffffff4e000000800200000000ffffffffffffffff4f02000000800000",
        "0000ffffff7fffffffffffffffff50ffff51ffff52ffff53ffff54ffff55ffff56ffff57",
        "0558595a5b5c5d5e5f606162636465ffff66ffff67ffff68ffff696a6b6c6d6e6f700000",
        "80800400000000000044be1152",
    );

    /// Pins the encoding of every opcode: a method holding one of each
    /// `Op` variant, with extreme operands, seals to [`EVERY_OP_HEX`] and
    /// opens back to the same program. A change to any opcode byte or
    /// immediate layout must show up here, never land silently.
    #[test]
    fn every_opcode_seals_to_pinned_bytes_and_round_trips() {
        let ops = crate::op::every_op(true);
        let kinds: std::collections::HashSet<_> = ops.iter().map(std::mem::discriminant).collect();
        assert_eq!(
            (ops.len(), kinds.len()),
            (0x71, 0x71),
            "one op per opcode byte"
        );
        let mut program = tiny_program();
        program.methods[0].code = ops;
        let sealed = seal(&program);
        let hex: String = sealed.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, EVERY_OP_HEX, "opcode encoding drifted");
        let (id, back) = open(&sealed).expect("every opcode opens");
        assert_eq!(back, program);
        assert_eq!(id, reference_id(&program));
        assert_eq!(seal(&back), sealed);
    }

    /// Pins the FORMATS.md §7.2 worked example byte-for-byte: sealing
    /// the smallest compilable module produces exactly the documented 90
    /// bytes. Any canonical-encoding or envelope change must show up
    /// here (and bump the TDRP version / update the spec), never land
    /// silently.
    #[test]
    fn formats_md_tdrp_bytes_are_pinned() {
        use crate::hll::{dsl::*, Module};
        let mut m = Module::new("A");
        m.func(fn_void("main", vec![], vec![ret_void()]));
        let program = m.compile().expect("compile");
        let expected: Vec<u8> = vec![
            0x56, 0x00, 0x00, 0x00, // length prefix = 86
            0x54, 0x44, 0x52, 0x50, // magic "TDRP"
            0x01, 0x00, // version = 1
            0x00, 0x00, // flags = 0
            // SHA-256 digest of the 41 program bytes = the reference id
            0x2f, 0x92, 0xb8, 0x12, 0xfd, 0xbf, 0xb3, 0x6a, //
            0x0a, 0x33, 0x4d, 0x7d, 0x58, 0x5e, 0xb7, 0x09, //
            0xd0, 0xbc, 0xd0, 0x8f, 0x03, 0xbe, 0x99, 0x4f, //
            0x4b, 0x62, 0x60, 0x75, 0x67, 0x7b, 0xe5, 0x7c, //
            0x29, // program_len = 41
            // canonical program bytes: class "A", method "main" (empty
            // body), string pool ["main"], entry = method 0
            0x01, 0x01, 0x41, 0x00, 0x00, 0x00, 0x01, 0x04, //
            0x6d, 0x61, 0x69, 0x6e, 0x00, 0x00, 0x01, 0x04, //
            0x6d, 0x61, 0x69, 0x6e, 0x00, 0x00, 0x00, 0x00, //
            0x01, 0x00, 0x00, 0x02, 0x69, 0x69, 0x00, 0x00, //
            0x80, 0x80, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, //
            0x00, //
            0x42, 0x44, 0xb2, 0xef, // CRC-32 of container bytes [8, 86)
        ];
        let sealed = seal(&program);
        assert_eq!(sealed, expected, "§7.2 worked example drifted");
        assert_eq!(
            ReferenceId(sha256(&canonical_program_bytes(&program))).to_hex(),
            "2f92b812fdbfb36a0a334d7d585eb709d0bcd08f03be994f4b626075677be57c"
        );
        let (id, opened) = open(&sealed).expect("the worked example opens");
        assert_eq!(id, reference_id(&program));
        assert_eq!(seal(&opened), sealed);
    }

    #[test]
    fn sha256_matches_published_vectors() {
        let empty = sha256(b"");
        assert_eq!(
            ReferenceId(empty).to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        let abc = sha256(b"abc");
        assert_eq!(
            ReferenceId(abc).to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // One block boundary case: 56 bytes forces a second padding block.
        let long = sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
        assert_eq!(
            ReferenceId(long).to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn crc32_matches_the_formats_md_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn varint_roundtrips_and_overflow_is_rejected() {
        for v in [0u64, 1, 127, 128, 500, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Cursor::new(&buf);
            assert_eq!(r.varint(), Ok(v));
            assert_eq!(r.remaining(), 0);
        }
        // An 11-byte varint (or a tenth byte > 1) must be rejected.
        let over = [0x80u8, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02];
        assert_eq!(
            Cursor::new(&over).varint().map_err(ContainerError::from),
            Err(ContainerError::VarintOverflow)
        );
    }

    #[test]
    fn seal_open_roundtrips_and_verifies() {
        for program in [tiny_program(), busy_program()] {
            let sealed = seal(&program);
            let (id, back) = open(&sealed).expect("opens");
            assert_eq!(back, program);
            assert_eq!(id, reference_id(&program));
            verify(&back).expect("reopened program verifies");
        }
    }

    #[test]
    fn ids_are_content_addressed() {
        // Equal programs → equal ids, byte-identical containers.
        assert_eq!(seal(&tiny_program()), seal(&tiny_program()));
        assert_eq!(reference_id(&tiny_program()), reference_id(&tiny_program()));
        // Different programs → different ids.
        assert_ne!(reference_id(&tiny_program()), reference_id(&busy_program()));
    }

    #[test]
    fn bit_flips_are_rejected_with_typed_errors() {
        let sealed = seal(&busy_program());
        // Flip one bit at every byte offset: each must produce a typed
        // error (never a panic, never an accepted different program).
        for at in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[at] ^= 0x10;
            match open(&bad) {
                Err(_typed) => {}
                Ok((id, program)) => {
                    // A flip in the length prefix's high bytes can only
                    // make the container unreadable; an accepted decode
                    // must mean the flip was semantically invisible —
                    // impossible here since every byte is load-bearing.
                    panic!("flip at {at} accepted: id {id}, program {program:?}");
                }
            }
        }
    }

    #[test]
    fn tampered_program_bytes_fail_the_digest_even_with_a_resealed_crc() {
        let program = busy_program();
        let mut sealed = seal(&program);
        // Tamper inside the program body, then re-seal the CRC so the
        // envelope is consistent: only the digest can catch it.
        let body_start = 4 + 40 + 1; // prefix + header/digest + 1-byte varint
        sealed[body_start + 4] ^= 0xff;
        let n = sealed.len();
        let crc = crc32(&sealed[8..n - 4]);
        sealed[n - 4..].copy_from_slice(&crc.to_le_bytes());
        match open(&sealed) {
            Err(ContainerError::DigestMismatch { .. }) => {}
            other => panic!("expected DigestMismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_rejected_at_every_cut() {
        let sealed = seal(&tiny_program());
        for cut in 0..sealed.len() {
            let err = open(&sealed[..cut]).expect_err("truncated container rejected");
            assert!(
                matches!(
                    err,
                    ContainerError::Truncated | ContainerError::BadChecksum { .. }
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn trailing_bytes_version_flags_and_magic_are_rejected() {
        let sealed = seal(&tiny_program());

        let mut trailing = sealed.clone();
        trailing.push(0);
        assert_eq!(open(&trailing), Err(ContainerError::TrailingBytes));

        // Patch version, re-seal the CRC.
        let mut versioned = sealed.clone();
        versioned[8] = 9;
        let n = versioned.len();
        let crc = crc32(&versioned[8..n - 4]);
        versioned[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(open(&versioned), Err(ContainerError::UnsupportedVersion(9)));

        let mut flagged = sealed.clone();
        flagged[10] = 1;
        let n = flagged.len();
        let crc = crc32(&flagged[8..n - 4]);
        flagged[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(open(&flagged), Err(ContainerError::UnsupportedFlags(1)));

        let mut magicless = sealed.clone();
        magicless[4] = b'X';
        assert_eq!(open(&magicless), Err(ContainerError::BadMagic));

        let mut huge = sealed;
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            open(&huge),
            Err(ContainerError::FrameTooLarge {
                len: u32::MAX as u64,
                max: MAX_CONTAINER_LEN
            })
        );
    }

    #[test]
    fn non_canonical_bytes_are_rejected() {
        // Re-sort a declared map the "wrong" way by hand: encode the
        // program, then swap two entries in the natives table... simpler:
        // append a non-minimal change that still decodes. The cheapest
        // non-canonical stream: a program whose `slot` varint is padded.
        let program = tiny_program();
        let body = canonical_program_bytes(&program);
        // Rebuild a container around a padded body: append a 0x80 0x00
        // continuation onto the final entry varint... instead, pad the
        // leading class-count varint (0x01 → 0x81 0x00).
        assert_eq!(body[0], 0x01, "tiny program has one class");
        let mut padded = Vec::with_capacity(body.len() + 1);
        padded.push(0x81);
        padded.push(0x00);
        padded.extend_from_slice(&body[1..]);
        assert!(decode_program(&padded).is_ok(), "padded body still decodes");

        let digest = sha256(&padded);
        let mut payload = Vec::new();
        payload.extend_from_slice(&MAGIC);
        payload.extend_from_slice(&VERSION.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.extend_from_slice(&digest);
        put_varint(&mut payload, padded.len() as u64);
        payload.extend_from_slice(&padded);
        let crc = crc32(&payload[4..]);
        payload.extend_from_slice(&crc.to_le_bytes());
        let mut container = Vec::new();
        container.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        container.extend_from_slice(&payload);

        assert_eq!(open(&container), Err(ContainerError::NotCanonical));
    }

    #[test]
    fn forged_counts_are_bounded() {
        // A container whose program body declares 2^40 classes must be
        // rejected as length overflow without allocating toward it.
        let mut body = Vec::new();
        put_varint(&mut body, 1u64 << 40);
        let digest = sha256(&body);
        let mut payload = Vec::new();
        payload.extend_from_slice(&MAGIC);
        payload.extend_from_slice(&VERSION.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.extend_from_slice(&digest);
        put_varint(&mut payload, body.len() as u64);
        payload.extend_from_slice(&body);
        let crc = crc32(&payload[4..]);
        payload.extend_from_slice(&crc.to_le_bytes());
        let mut container = Vec::new();
        container.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        container.extend_from_slice(&payload);

        assert!(matches!(
            open(&container),
            Err(ContainerError::LengthOverflow { .. })
        ));

        // Each count is bounded by its element's smallest encoding, summed
        // from its row: one class, method or field more than the bytes
        // left could hold is refused at the count, before any allocation.
        assert_eq!(
            (
                Class::MIN,
                Method::MIN,
                Field::MIN,
                Handler::MIN,
                NativeDecl::MIN
            ),
            (5, 12, 6, 13, 3)
        );
        let left = 60;
        // Classes lead the body; methods follow zero classes, fields zero
        // methods.
        for (empty_lists, min) in [(0, Class::MIN), (1, Method::MIN), (2, Field::MIN)] {
            let mut body = vec![0; empty_lists];
            put_varint(&mut body, (left / min + 1) as u64);
            body.resize(body.len() + left, 0);
            assert_eq!(
                decode_program(&body),
                Err(ContainerError::LengthOverflow {
                    declared: (left / min + 1) as u64,
                    available: (left / min) as u64,
                })
            );
        }
    }

    #[test]
    fn hex_roundtrip() {
        let id = reference_id(&tiny_program());
        assert_eq!(ReferenceId::from_hex(&id.to_hex()), Some(id));
        assert_eq!(ReferenceId::from_hex("zz"), None);
    }
}
