//! Batch ingest: the wire format sessions arrive in.
//!
//! A batch is a magic/version header followed by one record per session:
//!
//! ```text
//! "TDRB" | u16 version | u16 flags | varint n_sessions
//! per session:
//!   varint session_id
//!   varint n_ipds, then zigzag varint deltas of the observed IPDs
//!   u32 LE CRC-32 of the session header (id + IPD bytes)
//!   u32 LE frame length, then the `replay::codec` binary event log
//! ```
//!
//! Observed IPDs ride along with the log because the auditor needs both:
//! the log is the suspect's claim about its *inputs*, the observed IPDs
//! are the network's ground truth about its *outputs*. Each session is
//! individually checksummed — the header (id + IPDs) carries its own
//! CRC-32 and the event log its codec trailer — so one corrupted session
//! is reported by index instead of poisoning the whole batch, and the
//! IPDs the verdict is computed from cannot be silently corrupted.
//!
//! Ingest is *streaming*: [`BatchStream`] pulls sessions one at a time
//! from any [`std::io::Read`] source (a file, a socket, an in-memory
//! slice), holding at most one session resident, with every checksum
//! validated incrementally as bytes arrive. [`decode_batch`] is the
//! materialized convenience built on the same decoder, so the two paths
//! cannot drift. The format itself is specified normatively in
//! `docs/FORMATS.md` (§ "TDRB batch container").

use std::fmt;
use std::io::{self, Read};

use jbc::crc::crc32;
use jbc::wire;
use replay::codec::CodecError;
use replay::stream::{read_full, read_log_frame, read_varint_from, StreamError};

use crate::AuditJob;

/// Magic bytes opening a batch.
pub const BATCH_MAGIC: [u8; 4] = *b"TDRB";

/// Current batch-format version.
pub const BATCH_VERSION: u16 = 1;

/// Batch decode failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// Not a batch file.
    BadMagic,
    /// Newer or unknown batch version.
    UnsupportedVersion(u16),
    /// Input ended early.
    Truncated,
    /// The batch header (version/flags/count) failed to decode.
    BadHeader(CodecError),
    /// Nonzero flags in a version-1 batch.
    UnsupportedFlags(u16),
    /// Session `index` failed to decode (header checksum or event log).
    BadSession {
        /// Zero-based index within the batch.
        index: usize,
        /// The underlying codec failure.
        cause: CodecError,
    },
    /// Bytes remained after the last declared session.
    TrailingBytes(usize),
    /// The transport failed mid-stream (not a data-corruption error; a
    /// clean end-of-stream inside a session reports as truncation instead).
    Io(io::ErrorKind, String),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::BadMagic => write!(f, "bad magic (not a TDRB batch)"),
            IngestError::UnsupportedVersion(v) => write!(f, "unsupported batch version {v}"),
            IngestError::Truncated => write!(f, "batch truncated"),
            IngestError::BadHeader(cause) => write!(f, "batch header failed to decode: {cause}"),
            IngestError::UnsupportedFlags(x) => write!(f, "unsupported batch flags {x:#06x}"),
            IngestError::BadSession { index, cause } => {
                write!(f, "session {index} failed to decode: {cause}")
            }
            IngestError::TrailingBytes(n) => write!(f, "{n} trailing bytes after batch"),
            IngestError::Io(kind, msg) => write!(f, "read failed ({kind:?}): {msg}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Append a batch header declaring `n_sessions` sessions.
fn put_header(out: &mut Vec<u8>, n_sessions: usize) {
    out.extend_from_slice(&BATCH_MAGIC);
    out.extend_from_slice(&BATCH_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes()); // flags
    wire::put_varint(out, n_sessions as u64);
}

/// Encode a batch of audit jobs.
pub fn encode_batch(jobs: &[AuditJob]) -> Vec<u8> {
    let mut out = Vec::new();
    put_header(&mut out, jobs.len());
    for job in jobs {
        let header_start = out.len();
        wire::put_varint(&mut out, job.session_id);
        wire::put_varint(&mut out, job.observed_ipds.len() as u64);
        let mut prev = 0u64;
        for &d in &job.observed_ipds {
            wire::put_delta(&mut out, prev, d);
            prev = d;
        }
        let crc = crc32(&out[header_start..]);
        out.extend_from_slice(&crc.to_le_bytes());
        let encoded = job.log.encode();
        out.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
        out.extend_from_slice(&encoded);
    }
    out
}

/// One valid session of a batch held in memory: its id and its whole
/// record — header, header CRC and log frame — borrowed from the batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionRecord<'a> {
    /// The session id the record declares.
    pub session_id: u64,
    /// The record's bytes, exactly as the batch carries them.
    pub bytes: &'a [u8],
}

/// Validate an in-memory batch with [`BatchStream`], the decoder a daemon
/// runs, keeping each valid session's record instead of its decoded job.
///
/// Returns the sessions before the first error, in submission order, and
/// that error (`None` for a valid batch): the valid prefix a daemon
/// audits before it answers a malformed batch with the same error.
pub fn session_records(tdrb: &[u8]) -> (Vec<SessionRecord<'_>>, Option<IngestError>) {
    let mut stream = match BatchStream::new(tdrb) {
        Ok(stream) => stream,
        Err(e) => return (Vec::new(), Some(e)),
    };
    let mut records = Vec::new();
    let mut start = tdrb.len() - stream.src.len();
    loop {
        match stream.next() {
            None => return (records, None),
            Some(Err(e)) => return (records, Some(e)),
            Some(Ok(job)) => {
                let end = tdrb.len() - stream.src.len();
                records.push(SessionRecord {
                    session_id: job.session_id,
                    bytes: &tdrb[start..end],
                });
                start = end;
            }
        }
    }
}

/// Build a batch from session records taken verbatim from other batches
/// (a coordinator's per-backend shard). Each record is self-contained, so
/// the result equals [`encode_batch`] of the records' decoded jobs.
pub fn shard_batch(sessions: &[SessionRecord<'_>]) -> Vec<u8> {
    let body: usize = sessions.iter().map(|s| s.bytes.len()).sum();
    let mut out = Vec::with_capacity(16 + body);
    put_header(&mut out, sessions.len());
    for session in sessions {
        out.extend_from_slice(session.bytes);
    }
    out
}

/// Decode a batch of audit jobs, materializing every session.
///
/// This is [`BatchStream`] run to completion — kept for small batches and
/// for tests that want the whole fleet in hand. Anything fleet-sized
/// should consume the stream directly (see [`crate::audit_stream`]), which
/// holds at most a bounded number of sessions resident.
pub fn decode_batch(bytes: &[u8]) -> Result<Vec<AuditJob>, IngestError> {
    BatchStream::new(bytes)?.collect()
}

/// Cap on the IPD count one session may declare (bounded memory: a corrupt
/// or adversarial count must not balloon the resident set). One million
/// IPDs is ~8 MiB and two orders of magnitude above any recorded session.
pub const DEFAULT_MAX_IPDS: usize = 1 << 20;

fn session_err(index: usize, e: StreamError) -> IngestError {
    match e {
        StreamError::Io(kind, msg) => IngestError::Io(kind, msg),
        StreamError::Codec(cause) => IngestError::BadSession { index, cause },
    }
}

/// Pull-based session iterator over a TDRB byte stream from any
/// [`io::Read`] source.
///
/// Construction reads and validates the batch header; each call to
/// [`next`](Iterator::next) then decodes exactly one session — its header
/// CRC checked against the bytes as they arrived, its event-log frame
/// decoded via the incremental [`replay::stream`] reader — so memory stays
/// bounded by one session regardless of batch size. After the last
/// declared session the source must be exhausted; leftover bytes are
/// reported as [`IngestError::TrailingBytes`].
///
/// Yields `Err` once, then stops: like the materialized decoder, a
/// malformed session poisons the batch, but it is reported with its index
/// so the submitter knows which upload to retry.
#[derive(Debug)]
pub struct BatchStream<R> {
    src: R,
    declared: u64,
    yielded: u64,
    hdr_buf: Vec<u8>,
    frame_buf: Vec<u8>,
    done: bool,
}

impl<R: Read> BatchStream<R> {
    /// Read and validate the batch header, returning the session iterator.
    ///
    /// Session *headers* (ids and IPD deltas) decode varint-by-varint, so
    /// for unbuffered sources (a raw `File` or socket) wrap `src` in a
    /// [`std::io::BufReader`] first — [`crate::audit_stream`]'s callers
    /// get this via `Sanity::audit_stream`, which buffers internally.
    pub fn new(mut src: R) -> Result<Self, IngestError> {
        let mut header = [0u8; 8];
        let got = match read_full(&mut src, &mut header) {
            Ok(n) => n,
            Err(StreamError::Io(kind, msg)) => return Err(IngestError::Io(kind, msg)),
            Err(StreamError::Codec(cause)) => return Err(IngestError::BadHeader(cause)),
        };
        if got < header.len() {
            return Err(IngestError::Truncated);
        }
        if header[..4] != BATCH_MAGIC {
            return Err(IngestError::BadMagic);
        }
        let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
        if version != BATCH_VERSION {
            return Err(IngestError::UnsupportedVersion(version));
        }
        let flags = u16::from_le_bytes(header[6..8].try_into().expect("2 bytes"));
        if flags != 0 {
            return Err(IngestError::UnsupportedFlags(flags));
        }
        let mut scratch = Vec::with_capacity(10);
        let declared = read_varint_from(&mut src, &mut scratch).map_err(|e| match e {
            StreamError::Io(kind, msg) => IngestError::Io(kind, msg),
            StreamError::Codec(cause) => IngestError::BadHeader(cause),
        })?;
        Ok(BatchStream {
            src,
            declared,
            yielded: 0,
            hdr_buf: Vec::new(),
            frame_buf: Vec::new(),
            done: false,
        })
    }

    /// Sessions the batch header declared.
    pub fn sessions_declared(&self) -> u64 {
        self.declared
    }

    /// Sessions successfully yielded so far.
    pub fn sessions_yielded(&self) -> u64 {
        self.yielded
    }

    fn next_session(&mut self) -> Result<AuditJob, IngestError> {
        let index = self.yielded as usize;
        let bad = |cause| IngestError::BadSession { index, cause };

        // Session header: id + IPD deltas, with the raw bytes captured so
        // the header CRC can be recomputed exactly as the encoder wrote it.
        self.hdr_buf.clear();
        let session_id = read_varint_from(&mut self.src, &mut self.hdr_buf)
            .map_err(|e| session_err(index, e))?;
        let n_ipds = read_varint_from(&mut self.src, &mut self.hdr_buf)
            .map_err(|e| session_err(index, e))? as usize;
        if n_ipds > DEFAULT_MAX_IPDS {
            return Err(bad(CodecError::LengthOverflow));
        }
        let mut observed_ipds = Vec::with_capacity(n_ipds.min(4096));
        let mut prev = 0u64;
        for _ in 0..n_ipds {
            let z = read_varint_from(&mut self.src, &mut self.hdr_buf)
                .map_err(|e| session_err(index, e))?;
            prev = wire::apply_delta(prev, z);
            observed_ipds.push(prev);
        }
        let mut trailer = [0u8; 4];
        match read_full(&mut self.src, &mut trailer) {
            Ok(4) => {}
            Ok(_) => return Err(bad(CodecError::Truncated)),
            Err(e) => return Err(session_err(index, e)),
        }
        let stored = u32::from_le_bytes(trailer);
        let computed = crc32(&self.hdr_buf);
        if stored != computed {
            return Err(bad(CodecError::BadChecksum { stored, computed }));
        }

        // The event-log frame, decoded with incremental CRC validation.
        let mut len_bytes = [0u8; 4];
        match read_full(&mut self.src, &mut len_bytes) {
            Ok(4) => {}
            Ok(_) => return Err(bad(CodecError::Truncated)),
            Err(e) => return Err(session_err(index, e)),
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        let log = read_log_frame(&mut self.src, len, &mut self.frame_buf)
            .map_err(|e| session_err(index, e))?;

        self.yielded += 1;
        Ok(AuditJob {
            session_id,
            log,
            observed_ipds,
        })
    }

    /// After the declared sessions, the source must be exhausted (the
    /// format is one-shot: §4 of `docs/FORMATS.md` — a daemon accepting
    /// many batches per connection needs its own outer framing). One
    /// bounded probe read distinguishes clean EOF from trailing garbage;
    /// a peer streaming junk is rejected after at most one buffer, never
    /// drained to EOF.
    fn check_trailing(&mut self) -> Result<(), IngestError> {
        let mut chunk = [0u8; 4096];
        match read_full(&mut self.src, &mut chunk) {
            Ok(0) => Ok(()),
            // Exact count for sources that ended inside the probe; a lower
            // bound (the error is diagnostic either way) for longer tails.
            Ok(n) => Err(IngestError::TrailingBytes(n)),
            Err(StreamError::Io(kind, msg)) => Err(IngestError::Io(kind, msg)),
            Err(_) => Ok(()),
        }
    }
}

impl<R: Read> Iterator for BatchStream<R> {
    type Item = Result<AuditJob, IngestError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        if self.yielded == self.declared {
            self.done = true;
            return match self.check_trailing() {
                Ok(()) => None,
                Err(e) => Some(Err(e)),
            };
        }
        match self.next_session() {
            Ok(job) => Some(Ok(job)),
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use replay::{EventLog, PacketRecord};

    use super::*;

    fn job(id: u64) -> AuditJob {
        AuditJob {
            session_id: id,
            log: EventLog {
                packets: vec![PacketRecord {
                    icount: 10 * id,
                    avail_at: 100,
                    wire_at: 90,
                    data: vec![id as u8; 16],
                }],
                values: vec![id, id + 1],
                final_icount: 1_000 + id,
                final_cycles: 2_000 + id,
                final_wall_ps: 3_000 + id as u128,
            },
            observed_ipds: vec![700_000, 710_000, 690_000 + id],
        }
    }

    #[test]
    fn batch_roundtrips() {
        let jobs = vec![job(1), job(2), job(40)];
        let bytes = encode_batch(&jobs);
        assert_eq!(decode_batch(&bytes).expect("decodes"), jobs);
    }

    #[test]
    fn empty_batch_roundtrips() {
        let bytes = encode_batch(&[]);
        assert_eq!(decode_batch(&bytes).expect("decodes"), Vec::new());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = encode_batch(&[job(1)]);
        bytes[1] = b'X';
        assert_eq!(decode_batch(&bytes), Err(IngestError::BadMagic));
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = encode_batch(&[job(1)]);
        bytes[4] = 9;
        assert_eq!(
            decode_batch(&bytes),
            Err(IngestError::UnsupportedVersion(9))
        );
    }

    #[test]
    fn corrupt_session_reported_by_index() {
        let jobs = vec![job(1), job(2)];
        let mut bytes = encode_batch(&jobs);
        let tail = bytes.len() - 10; // inside the second session's log frame
        bytes[tail] ^= 0xff;
        match decode_batch(&bytes) {
            Err(IngestError::BadSession { index: 1, .. }) => {}
            other => panic!("expected BadSession at 1, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_observed_ipds_rejected_by_header_checksum() {
        let jobs = vec![job(1)];
        let mut bytes = encode_batch(&jobs);
        // Byte 9 sits in the first session's IPD deltas (after the 8-byte
        // batch header and the 1-byte session id).
        bytes[9] ^= 0x01;
        match decode_batch(&bytes) {
            Err(IngestError::BadSession {
                index: 0,
                cause: CodecError::BadChecksum { .. },
            }) => {}
            other => panic!("expected header-checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn nonzero_flags_rejected() {
        let mut bytes = encode_batch(&[job(1)]);
        bytes[6] = 0x01;
        assert_eq!(decode_batch(&bytes), Err(IngestError::UnsupportedFlags(1)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_batch(&[job(1)]);
        bytes.extend_from_slice(b"junk");
        assert_eq!(decode_batch(&bytes), Err(IngestError::TrailingBytes(4)));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = encode_batch(&[job(1), job(2)]);
        for cut in [0, 5, 9, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_batch(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn stream_agrees_with_materialized_at_every_chunk_size() {
        let jobs = vec![job(1), job(2), job(40), job(200)];
        let bytes = encode_batch(&jobs);
        let materialized = decode_batch(&bytes).expect("decodes");
        // chunk == 1 puts a read boundary at every byte: mid-varint,
        // mid-frame, mid-CRC.
        for chunk in [1usize, 3, 7, 64, 4096] {
            let src = replay::stream::ChunkReader::new(&bytes[..], chunk);
            let streamed: Vec<AuditJob> = BatchStream::new(src)
                .expect("header")
                .collect::<Result<_, _>>()
                .unwrap_or_else(|e| panic!("chunk {chunk}: {e}"));
            assert_eq!(streamed, materialized, "chunk size {chunk}");
        }
    }

    #[test]
    fn stream_holds_one_session_at_a_time() {
        let jobs = vec![job(1), job(2), job(3)];
        let bytes = encode_batch(&jobs);
        let mut stream = BatchStream::new(&bytes[..]).expect("header");
        assert_eq!(stream.sessions_declared(), 3);
        let mut n = 0;
        while let Some(item) = stream.next() {
            item.expect("session decodes");
            n += 1;
            assert_eq!(stream.sessions_yielded(), n);
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn zero_session_batch_streams_empty() {
        let bytes = encode_batch(&[]);
        let mut stream = BatchStream::new(&bytes[..]).expect("header");
        assert_eq!(stream.sessions_declared(), 0);
        assert!(stream.next().is_none());
        // A zero-session batch with junk after the header is still corrupt.
        let mut dirty = encode_batch(&[]);
        dirty.extend_from_slice(b"xy");
        let got: Vec<_> = BatchStream::new(&dirty[..]).expect("header").collect();
        assert_eq!(got, vec![Err(IngestError::TrailingBytes(2))]);
    }

    #[test]
    fn stream_truncation_reported_with_session_index() {
        let bytes = encode_batch(&[job(1), job(2)]);
        // Cut inside the second session (the first decodes cleanly).
        let cut = bytes.len() - 3;
        let results: Vec<_> = BatchStream::new(&bytes[..cut]).expect("header").collect();
        assert_eq!(results.len(), 2, "one good session, then the error");
        assert!(results[0].is_ok());
        assert_eq!(
            results[1],
            Err(IngestError::BadSession {
                index: 1,
                cause: CodecError::Truncated
            })
        );
    }

    #[test]
    fn stream_corrupt_crc_reported_with_session_index() {
        let jobs = vec![job(1), job(2)];
        let mut bytes = encode_batch(&jobs);
        let tail = bytes.len() - 10; // inside the second session's log frame
        bytes[tail] ^= 0xff;
        let results: Vec<_> = BatchStream::new(&bytes[..]).expect("header").collect();
        assert!(results[0].is_ok());
        assert!(
            matches!(
                &results[1],
                Err(IngestError::BadSession {
                    index: 1,
                    cause: CodecError::BadChecksum { .. }
                })
            ),
            "{:?}",
            results[1]
        );
        assert_eq!(results.len(), 2, "iteration stops at the first error");
    }

    #[test]
    fn stream_unknown_version_rejected_at_header() {
        let mut bytes = encode_batch(&[job(1)]);
        bytes[4] = 9;
        match BatchStream::new(&bytes[..]) {
            Err(IngestError::UnsupportedVersion(9)) => {}
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    #[test]
    fn shards_of_verbatim_records_equal_the_reencoded_jobs() {
        let jobs = vec![job(1), job(2), job(40), job(200), job(7)];
        let bytes = encode_batch(&jobs);
        let (records, error) = session_records(&bytes);
        assert_eq!(error, None);
        let ids: Vec<u64> = records.iter().map(|r| r.session_id).collect();
        assert_eq!(ids, vec![1, 2, 40, 200, 7]);
        // The records tile the batch after its header, and the whole set
        // rebuilds the batch byte for byte.
        assert_eq!(shard_batch(&records), bytes);
        for odd in [false, true] {
            let pick = |id: u64| (id % 2 == 1) == odd;
            let shard: Vec<SessionRecord> = records
                .iter()
                .copied()
                .filter(|r| pick(r.session_id))
                .collect();
            let picked: Vec<AuditJob> = jobs
                .iter()
                .filter(|j| pick(j.session_id))
                .cloned()
                .collect();
            assert_eq!(shard_batch(&shard), encode_batch(&picked), "odd {odd}");
        }
        assert_eq!(shard_batch(&[]), encode_batch(&[]));
    }

    #[test]
    fn session_records_stop_where_the_stream_does() {
        let jobs = vec![job(1), job(2), job(3)];
        let clean = encode_batch(&jobs);
        let prefix = |bytes: &[u8]| -> (Vec<u64>, Option<IngestError>) {
            let (records, error) = session_records(bytes);
            (records.iter().map(|r| r.session_id).collect(), error)
        };
        // Corrupt session 1's log: session 0 survives, the error is the
        // one the daemon's stream reports.
        let last = session_records(&clean).0[2].bytes.len();
        let mut corrupt = clean.clone();
        corrupt[clean.len() - last - 10] ^= 0xff; // inside session 1's log
        let streamed = BatchStream::new(&corrupt[..])
            .expect("header")
            .find_map(Result::err);
        assert_eq!(prefix(&corrupt), (vec![1], streamed));
        // Trailing bytes: every session is valid, then the batch errors.
        let mut trailing = clean.clone();
        trailing.extend_from_slice(b"junk");
        assert_eq!(
            prefix(&trailing),
            (vec![1, 2, 3], Some(IngestError::TrailingBytes(4)))
        );
        // A bad header yields no session at all.
        let mut magic = clean;
        magic[0] = b'X';
        assert_eq!(prefix(&magic), (vec![], Some(IngestError::BadMagic)));
    }

    #[test]
    fn stream_oversized_declarations_bounded() {
        // A session declaring an absurd IPD count must fail fast instead of
        // allocating: encode a valid one-session batch, then rewrite the
        // count. Easier: build the header by hand.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&BATCH_MAGIC);
        bytes.extend_from_slice(&BATCH_VERSION.to_le_bytes());
        bytes.extend_from_slice(&0u16.to_le_bytes());
        wire::put_varint(&mut bytes, 1); // one session
        wire::put_varint(&mut bytes, 7); // session id
        wire::put_varint(&mut bytes, u64::MAX >> 1); // preposterous IPD count
        let results: Vec<_> = BatchStream::new(&bytes[..]).expect("header").collect();
        assert_eq!(
            results,
            vec![Err(IngestError::BadSession {
                index: 0,
                cause: CodecError::LengthOverflow
            })]
        );
    }
}
