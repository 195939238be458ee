//! Binary event-log codec: the ingest format of the audit pipeline.
//!
//! JSON is fine for one log; it is not fine for a service ingesting fleets
//! of them (§6.5 puts NFS logs at ~10 MB/min of mostly-packet data, and the
//! JSON encoding of a byte is up to four characters plus a comma). This
//! module defines a compact, versioned, self-delimiting binary encoding:
//!
//! * **header** — magic `TDRL`, a `u16` version, and a `u16` flags word
//!   (flags must be zero in version 1);
//! * **run metadata** — `final_icount`, `final_cycles` (LEB128 varints) and
//!   `final_wall_ps` (a 128-bit varint);
//! * **event values** — count, then zigzag varint deltas between
//!   consecutive values (wall-clock reads are near-monotonic, so deltas
//!   stay small);
//! * **packets** — count, then per packet the zigzag varint deltas of
//!   `icount` / `wire_at` / `avail_at` against the previous packet, and the
//!   length-prefixed payload bytes;
//! * **trailer** — a CRC-32 (IEEE) of everything after the magic, so a
//!   truncated or corrupted upload is rejected at ingest instead of
//!   producing a nonsense audit.
//!
//! [`EventLog::encode`] / [`EventLog::decode`] are the entry points. Logs
//! travel many to a batch inside TDRB sessions, each as one length-prefixed
//! frame that [`crate::stream::read_log_frame`] reads from any `io::Read`
//! source in bounded memory.
//!
//! The encoding is exact: every `u64`/`u128` round-trips bit-for-bit
//! (deltas use wrapping arithmetic, so non-monotonic inputs are legal,
//! merely larger). The primitives — varints, zigzag deltas, and the
//! bounds-checked [`jbc::wire::Cursor`] the decoder reads through — live
//! in [`jbc::wire`], shared with the TDRB, TDRC and TDRP formats, and the
//! checksum in [`jbc::crc`].
//!
//! The normative, implementation-independent specification of this format
//! (TDRL) and of the batch container built on it (TDRB) lives in
//! `docs/FORMATS.md` at the repository root; the encoder and decoder here
//! are one conforming implementation, and the worked example in that
//! document is pinned byte-for-byte by this module's test suite.

use std::fmt;

use jbc::crc::crc32;
use jbc::wire::{put_bytes, put_delta, put_varint, put_varint128, Cursor, WireError};

use crate::log::{EventLog, PacketRecord};

/// Magic bytes opening every encoded log.
pub const MAGIC: [u8; 4] = *b"TDRL";

/// Current codec version.
pub const VERSION: u16 = 1;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the structure was complete.
    Truncated,
    /// The magic bytes are wrong — not an encoded event log.
    BadMagic,
    /// Encoded with a newer (or unknown) codec version.
    UnsupportedVersion(u16),
    /// Nonzero flags in a version-1 log.
    UnsupportedFlags(u16),
    /// A varint ran past its maximum width.
    VarintOverflow,
    /// The CRC-32 trailer does not match the payload.
    BadChecksum {
        /// Checksum stored in the trailer.
        stored: u32,
        /// Checksum computed over the received payload.
        computed: u32,
    },
    /// Bytes remained after the trailer.
    TrailingBytes(usize),
    /// A declared length exceeds the remaining input (corrupt count).
    LengthOverflow,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated"),
            CodecError::BadMagic => write!(f, "bad magic (not a TDRL event log)"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported codec version {v}"),
            CodecError::UnsupportedFlags(x) => write!(f, "unsupported flags {x:#06x}"),
            CodecError::VarintOverflow => write!(f, "varint overflow"),
            CodecError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "checksum mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after log"),
            CodecError::LengthOverflow => write!(f, "declared length exceeds input"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<WireError> for CodecError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => CodecError::Truncated,
            WireError::VarintOverflow => CodecError::VarintOverflow,
            WireError::LengthOverflow { .. } => CodecError::LengthOverflow,
            WireError::TrailingBytes(n) => CodecError::TrailingBytes(n),
        }
    }
}

/// Incremental CRC-32 (IEEE 802.3) hasher: [`jbc::crc::Crc32`], the one
/// table-driven implementation every wire format shares.
///
/// The streaming readers validate checksums as bytes arrive — feed chunks
/// with [`update`](Crc32::update) in any split and [`value`](Crc32::value)
/// equals [`jbc::crc::crc32`] of the concatenation.
pub use jbc::crc::Crc32;

// ---------------------------------------------------------------------------
// Log encode / decode
// ---------------------------------------------------------------------------

pub(crate) fn encode_log(log: &EventLog) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + log.stats().total_bytes as usize);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags

    put_varint(&mut out, log.final_icount);
    put_varint(&mut out, log.final_cycles);
    put_varint128(&mut out, log.final_wall_ps);

    put_varint(&mut out, log.values.len() as u64);
    let mut prev = 0u64;
    for &v in &log.values {
        put_delta(&mut out, prev, v);
        prev = v;
    }

    put_varint(&mut out, log.packets.len() as u64);
    let (mut icount, mut wire, mut avail) = (0u64, 0u64, 0u64);
    for p in &log.packets {
        put_delta(&mut out, icount, p.icount);
        put_delta(&mut out, wire, p.wire_at);
        put_delta(&mut out, avail, p.avail_at);
        icount = p.icount;
        wire = p.wire_at;
        avail = p.avail_at;
        put_bytes(&mut out, &p.data);
    }

    let crc = crc32(&out[MAGIC.len()..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

pub(crate) fn decode_log(bytes: &[u8]) -> Result<EventLog, CodecError> {
    if bytes.len() < MAGIC.len() + 4 + 4 {
        return Err(CodecError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let (payload, trailer) = bytes.split_at(bytes.len() - 4);
    let stored = u32::from_le_bytes(trailer.try_into().expect("4-byte trailer"));
    let computed = crc32(&payload[MAGIC.len()..]);
    if stored != computed {
        return Err(CodecError::BadChecksum { stored, computed });
    }
    decode_payload(payload)
}

/// Decode the header and body of an encoded log. `payload` is everything up
/// to (but not including) the CRC-32 trailer; the caller has already
/// verified the magic bytes and the trailer checksum (the streaming reader
/// does both incrementally, so this path never re-scans the buffer).
pub(crate) fn decode_payload(payload: &[u8]) -> Result<EventLog, CodecError> {
    let mut r = Cursor::new(&payload[MAGIC.len()..]);
    let version = r.le()?;
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let flags = r.le()?;
    if flags != 0 {
        return Err(CodecError::UnsupportedFlags(flags));
    }

    let final_icount = r.varint()?;
    let final_cycles = r.varint()?;
    let final_wall_ps = r.varint128()?;

    // A count cannot exceed one delta byte per value.
    let n_values = r.count(1)?;
    let mut values = Vec::with_capacity(n_values);
    let mut prev = 0u64;
    for _ in 0..n_values {
        prev = r.delta(prev)?;
        values.push(prev);
    }

    // The smallest packet is three one-byte deltas and a one-byte length.
    let n_packets = r.count(4)?;
    let mut packets = Vec::with_capacity(n_packets);
    let (mut icount, mut wire, mut avail) = (0u64, 0u64, 0u64);
    for _ in 0..n_packets {
        icount = r.delta(icount)?;
        wire = r.delta(wire)?;
        avail = r.delta(avail)?;
        packets.push(PacketRecord {
            icount,
            avail_at: avail,
            wire_at: wire,
            data: r.bytes()?.to_vec(),
        });
    }

    r.finish()?;
    Ok(EventLog {
        packets,
        values,
        final_icount,
        final_cycles,
        final_wall_ps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> EventLog {
        EventLog {
            packets: vec![
                PacketRecord {
                    icount: 1_000,
                    avail_at: 52_000,
                    wire_at: 50_000,
                    data: vec![7; 128],
                },
                PacketRecord {
                    icount: 9_500,
                    avail_at: 410_000,
                    wire_at: 400_000,
                    data: (0..255).collect(),
                },
                PacketRecord {
                    icount: 9_500,
                    avail_at: 410_500,
                    wire_at: 400_200,
                    data: Vec::new(),
                },
            ],
            values: vec![1_000_000, 1_000_450, 1_002_000, 999_999],
            final_icount: 123_456_789,
            final_cycles: 987_654_321,
            final_wall_ps: u128::from(u64::MAX) * 37,
        }
    }

    #[test]
    fn roundtrip_exact() {
        let log = sample_log();
        let bytes = log.encode();
        assert_eq!(EventLog::decode(&bytes).expect("decodes"), log);
    }

    #[test]
    fn roundtrip_matches_serde_representation() {
        // The binary codec and the serde/JSON path must describe the same
        // log: decode(encode(x)) serializes to exactly x's JSON.
        let log = sample_log();
        let back = EventLog::decode(&log.encode()).expect("decodes");
        assert_eq!(back.to_json(), log.to_json());
    }

    #[test]
    fn empty_log_roundtrips() {
        let log = EventLog::default();
        assert_eq!(EventLog::decode(&log.encode()).expect("decodes"), log);
    }

    #[test]
    fn non_monotonic_and_extreme_values_roundtrip() {
        let log = EventLog {
            packets: vec![
                PacketRecord {
                    icount: u64::MAX,
                    avail_at: 0,
                    wire_at: u64::MAX,
                    data: vec![0xff],
                },
                PacketRecord {
                    icount: 0,
                    avail_at: u64::MAX,
                    wire_at: 1,
                    data: vec![],
                },
            ],
            values: vec![u64::MAX, 0, 1, u64::MAX - 1],
            final_icount: u64::MAX,
            final_cycles: u64::MAX,
            final_wall_ps: u128::MAX,
        };
        assert_eq!(EventLog::decode(&log.encode()).expect("decodes"), log);
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let log = sample_log();
        let bin = log.encode().len();
        let json = log.to_json().len();
        assert!(
            bin * 2 < json,
            "binary {bin} bytes should be well under half of JSON {json} bytes"
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_log().encode();
        bytes[0] = b'X';
        assert_eq!(EventLog::decode(&bytes), Err(CodecError::BadMagic));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = sample_log().encode();
        bytes[4] = 99; // version LE low byte
                       // Fix up the CRC so the version check (not the checksum) fires.
        let n = bytes.len();
        let crc = crc32(&bytes[4..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            EventLog::decode(&bytes),
            Err(CodecError::UnsupportedVersion(99))
        );
    }

    #[test]
    fn corruption_rejected_by_checksum() {
        let mut bytes = sample_log().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(
            EventLog::decode(&bytes),
            Err(CodecError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample_log().encode();
        for cut in [0, 3, 7, 10, bytes.len() - 5, bytes.len() - 1] {
            assert!(
                EventLog::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    /// A declared packet count is bounded by the smallest packet, 4 bytes
    /// (three one-byte deltas and a one-byte length): `n` empty packets in
    /// `4n` bytes decode, and a claim of `n + 1` is a length overflow at
    /// the count, before anything is reserved or read for it.
    #[test]
    fn packet_count_is_bounded_by_the_smallest_packet() {
        let n = 3u64;
        for declared in [n, n + 1] {
            let mut payload = MAGIC.to_vec();
            payload.extend_from_slice(&VERSION.to_le_bytes());
            payload.extend_from_slice(&0u16.to_le_bytes());
            // Zero icount, cycles and wall time; no values.
            payload.extend_from_slice(&[0, 0, 0, 0]);
            put_varint(&mut payload, declared);
            payload.resize(payload.len() + 4 * n as usize, 0);
            match decode_payload(&payload) {
                Ok(log) if declared == n => assert_eq!(log.packets.len() as u64, n),
                Err(CodecError::LengthOverflow) if declared > n => {}
                other => panic!("{declared} packets in {} bytes: {other:?}", 4 * n),
            }
        }
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789".
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn formats_md_worked_example_bytes_are_pinned() {
        // The two-event log walked through byte-by-byte in docs/FORMATS.md
        // (§ "Worked example"). If this assertion fails, the codec and the
        // spec have drifted — fix the spec or bump the format version,
        // never let them disagree silently.
        let log = EventLog {
            packets: vec![PacketRecord {
                icount: 40,
                avail_at: 120,
                wire_at: 100,
                data: b"hi".to_vec(),
            }],
            values: vec![1_000, 998],
            final_icount: 500,
            final_cycles: 1_200,
            final_wall_ps: 12_000_000,
        };
        let expected: [u8; 33] = [
            0x54, 0x44, 0x52, 0x4c, // magic "TDRL"
            0x01, 0x00, // version 1, little-endian
            0x00, 0x00, // flags
            0xf4, 0x03, // final_icount = 500
            0xb0, 0x09, // final_cycles = 1200
            0x80, 0xb6, 0xdc, 0x05, // final_wall_ps = 12_000_000
            0x02, // value count = 2
            0xd0, 0x0f, // zigzag(+1000)
            0x03, // zigzag(-2)
            0x01, // packet count = 1
            0x50, // icount delta: zigzag(+40)
            0xc8, 0x01, // wire_at delta: zigzag(+100)
            0xf0, 0x01, // avail_at delta: zigzag(+120)
            0x02, // payload length = 2
            0x68, 0x69, // "hi"
            0x85, 0x95, 0x94, 0xa1, // CRC-32 0xa1949585, little-endian
        ];
        assert_eq!(log.encode(), expected);
        assert_eq!(EventLog::decode(&expected).expect("decodes"), log);
    }
}
