//! Streaming, bounded-memory reads of length-prefixed frames.
//!
//! Three formats share one framing rule (`u32 length | payload`,
//! `docs/FORMATS.md` §3): the TDRL log inside each TDRB session, TDRC
//! control frames, and TDRP containers carried by them. Their bytes
//! arrive from disk or a socket, so this module reads them from any
//! [`std::io::Read`] source: [`read_length_prefix`] classifies the prefix
//! (clean end-of-stream versus truncation), [`read_log_frame`] reads one
//! embedded log under the frame-length bound and validates its CRC-32
//! *incrementally* as chunks arrive (via [`crate::codec::Crc32`]), and
//! [`read_varint_from`] keeps the raw bytes of a varint for checksums
//! computed over serialized headers.
//!
//! How bytes arrive never changes what they mean: the streamed and the
//! in-memory decoders turn identical bytes into identical logs, which the
//! test suite pins across adversarial read-boundary splits (mid-varint,
//! mid-frame, mid-CRC).

use std::fmt;
use std::io::{self, Read};

use jbc::wire::{self, WireError};

use crate::codec::{self, CodecError, Crc32, MAGIC};
use crate::log::EventLog;

/// Cap on one embedded log frame's length (the bounded lookahead): 64 MiB,
/// comfortably above any real event log and far below fleet batch sizes.
pub const DEFAULT_MAX_FRAME_LEN: usize = 64 << 20;

/// Chunk size for filling the frame buffer from the source.
const READ_CHUNK: usize = 8 * 1024;

/// Failure while reading a frame from an `io::Read` source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// The underlying reader failed. Clean end-of-stream at a frame
    /// boundary is *not* an error (iteration just ends); end-of-stream
    /// inside a frame maps to [`CodecError::Truncated`] instead.
    Io(io::ErrorKind, String),
    /// The frame contents failed to decode.
    Codec(CodecError),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(kind, msg) => write!(f, "read failed ({kind:?}): {msg}"),
            StreamError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<CodecError> for StreamError {
    fn from(e: CodecError) -> Self {
        StreamError::Codec(e)
    }
}

impl From<WireError> for StreamError {
    fn from(e: WireError) -> Self {
        StreamError::Codec(e.into())
    }
}

fn io_err(e: io::Error) -> StreamError {
    StreamError::Io(e.kind(), e.to_string())
}

/// Fill as much of `buf` as the source can provide, retrying on
/// `Interrupted`. Returns the number of bytes read (short only at EOF).
pub fn read_full<R: Read>(src: &mut R, buf: &mut [u8]) -> Result<usize, StreamError> {
    let mut filled = 0;
    while filled < buf.len() {
        match src.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err(e)),
        }
    }
    Ok(filled)
}

/// Read one `u32` little-endian length prefix from `src`.
///
/// `Ok(None)` means clean end-of-stream exactly at the frame boundary;
/// a partial prefix is [`CodecError::Truncated`]. This is the shared
/// entry point of the audit pipeline's TDRC control frames, so every
/// connection classifies boundary conditions identically.
pub fn read_length_prefix<R: Read>(src: &mut R) -> Result<Option<usize>, StreamError> {
    let mut len_bytes = [0u8; 4];
    match read_full(src, &mut len_bytes)? {
        0 => Ok(None),
        4 => Ok(Some(u32::from_le_bytes(len_bytes) as usize)),
        _ => Err(CodecError::Truncated.into()),
    }
}

/// Read one LEB128 varint from `src`, appending the raw consumed bytes to
/// `raw`.
///
/// The TDRB batch container checksums the *serialized* session header, so
/// its streaming decoder needs the exact bytes back, not just the value.
/// The overflow rule is the slice cursor's, [`jbc::wire::read_varint`]:
/// at most ten bytes, and a tenth byte above `1` is a
/// [`CodecError::VarintOverflow`]; end-of-input mid-varint is
/// [`CodecError::Truncated`].
pub fn read_varint_from<R: Read>(src: &mut R, raw: &mut Vec<u8>) -> Result<u64, StreamError> {
    wire::read_varint(|| {
        let mut byte = [0u8; 1];
        if read_full(src, &mut byte)? == 0 {
            return Err(CodecError::Truncated.into());
        }
        raw.push(byte[0]);
        Ok(byte[0])
    })
}

/// Read one encoded log of exactly `len` bytes from `src` into `buf`
/// (cleared and reused across calls), validating the CRC-32 trailer
/// incrementally as chunks arrive, then decode it.
///
/// This is the frame-body reader under the audit pipeline's TDRB session
/// stream, which carries each event log as a length-prefixed frame and
/// must reject corruption before structural decode regardless of how the
/// transport splits the bytes. A `len` above [`DEFAULT_MAX_FRAME_LEN`] is
/// [`CodecError::LengthOverflow`], before anything is read or allocated.
pub fn read_log_frame<R: Read>(
    src: &mut R,
    len: usize,
    buf: &mut Vec<u8>,
) -> Result<EventLog, StreamError> {
    if len > DEFAULT_MAX_FRAME_LEN {
        return Err(CodecError::LengthOverflow.into());
    }
    // Smallest legal frame: magic + version + flags + CRC trailer.
    if len < MAGIC.len() + 4 + 4 {
        // Drain what is there so the caller's offset stays meaningful.
        let mut sink = [0u8; 16];
        let _ = read_full(src, &mut sink[..len.min(16)])?;
        return Err(CodecError::Truncated.into());
    }
    buf.clear();
    buf.reserve(len);
    let mut crc = Crc32::new();
    let mut chunk = [0u8; READ_CHUNK];
    while buf.len() < len {
        let want = (len - buf.len()).min(READ_CHUNK);
        let got = read_full(src, &mut chunk[..want])?;
        if got == 0 {
            return Err(CodecError::Truncated.into());
        }
        // The checksum covers frame bytes [4, len-4): everything after the
        // magic and before the trailer. Intersect this chunk with that
        // window — chunk boundaries are wherever the transport put them.
        let start = buf.len();
        let lo = start.max(MAGIC.len());
        let hi = (start + got).min(len - 4);
        if lo < hi {
            crc.update(&chunk[lo - start..hi - start]);
        }
        buf.extend_from_slice(&chunk[..got]);
    }
    if buf[..MAGIC.len()] != MAGIC {
        return Err(CodecError::BadMagic.into());
    }
    let stored = u32::from_le_bytes(buf[len - 4..len].try_into().expect("4-byte trailer"));
    let computed = crc.value();
    if stored != computed {
        return Err(CodecError::BadChecksum { stored, computed }.into());
    }
    codec::decode_payload(&buf[..len - 4]).map_err(Into::into)
}

/// Wraps a reader so each `read` call returns at most `chunk` bytes.
///
/// Real transports hand decoders arbitrary split points — a TCP segment can
/// end mid-varint, mid-frame, or mid-CRC. `ChunkReader` makes those splits
/// reproducible: with `chunk == 1` every possible boundary is exercised.
/// The streaming tests use it to pin that decode results are independent of
/// read-buffer size.
#[derive(Debug)]
pub struct ChunkReader<R> {
    inner: R,
    chunk: usize,
}

impl<R: Read> ChunkReader<R> {
    /// Wrap `inner`, limiting each read to `chunk` bytes (minimum 1).
    pub fn new(inner: R, chunk: usize) -> Self {
        ChunkReader {
            inner,
            chunk: chunk.max(1),
        }
    }
}

impl<R: Read> Read for ChunkReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk);
        self.inner.read(&mut buf[..n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::PacketRecord;
    use jbc::crc::crc32;

    fn sample_log(salt: u64) -> EventLog {
        EventLog {
            packets: vec![
                PacketRecord {
                    icount: 1_000 + salt,
                    avail_at: 52_000,
                    wire_at: 50_000,
                    data: vec![salt as u8; 64],
                },
                PacketRecord {
                    icount: 9_500 + salt,
                    avail_at: 410_000,
                    wire_at: 400_000,
                    data: (0..100).collect(),
                },
            ],
            values: vec![1_000_000, 1_000_450 + salt, 999_999],
            final_icount: 123_456 + salt,
            final_cycles: 987_654 + salt,
            final_wall_ps: 7_777_777 + salt as u128,
        }
    }

    /// `n` logs, each as one `u32 length | log` frame, concatenated.
    fn framed(n: u64) -> (Vec<EventLog>, Vec<u8>) {
        let logs: Vec<EventLog> = (0..n).map(sample_log).collect();
        let mut buf = Vec::new();
        for log in &logs {
            let encoded = log.encode();
            buf.extend_from_slice(&(encoded.len() as u32).to_le_bytes());
            buf.extend_from_slice(&encoded);
        }
        (logs, buf)
    }

    /// Read frames from `src` until clean end-of-stream or the first
    /// error: the §3 framing loop TDRB's session reader runs per session.
    fn read_frames<R: Read>(mut src: R) -> Vec<Result<EventLog, StreamError>> {
        let mut buf = Vec::new();
        let mut out = Vec::new();
        loop {
            let item = match read_length_prefix(&mut src) {
                Ok(None) => return out,
                Ok(Some(len)) => read_log_frame(&mut src, len, &mut buf),
                Err(e) => Err(e),
            };
            let failed = item.is_err();
            out.push(item);
            if failed {
                return out;
            }
        }
    }

    #[test]
    fn stream_matches_in_memory_reader() {
        let (logs, buf) = framed(5);
        let streamed: Vec<EventLog> = read_frames(&buf[..])
            .into_iter()
            .collect::<Result<_, _>>()
            .expect("streamed decode");
        let in_memory: Vec<EventLog> = logs
            .iter()
            .map(|log| EventLog::decode(&log.encode()).expect("in-memory decode"))
            .collect();
        assert_eq!(in_memory, logs);
        assert_eq!(streamed, logs);
    }

    #[test]
    fn stream_is_independent_of_read_chunk_size() {
        let (logs, buf) = framed(4);
        // chunk == 1 exercises every split point: mid-length-prefix,
        // mid-varint, mid-payload, mid-CRC.
        for chunk in [1usize, 3, 7, 64, 4096] {
            let streamed: Vec<EventLog> = read_frames(ChunkReader::new(&buf[..], chunk))
                .into_iter()
                .collect::<Result<_, _>>()
                .unwrap_or_else(|e| panic!("chunk {chunk}: {e}"));
            assert_eq!(streamed, logs, "chunk size {chunk}");
        }
    }

    #[test]
    fn incremental_crc_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1_000).collect();
        for split in [0, 1, 13, 500, 999, 1000] {
            let mut h = Crc32::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.value(), crc32(&data), "split at {split}");
        }
    }

    #[test]
    fn empty_source_yields_nothing() {
        assert_eq!(read_length_prefix(&mut &[][..]), Ok(None));
        assert!(read_frames(&[][..]).is_empty());
    }

    #[test]
    fn truncation_mid_prefix_mid_frame_and_mid_crc_rejected() {
        let (_, buf) = framed(2);
        let first_frame_len = u32::from_le_bytes(buf[..4].try_into().expect("4 bytes")) as usize;
        // Mid length prefix (of each frame), mid frame body, and inside the
        // final CRC trailer.
        for cut in [
            2,
            first_frame_len / 2,
            4 + first_frame_len + 2,
            buf.len() - 2,
        ] {
            let items = read_frames(ChunkReader::new(&buf[..cut], 3));
            let err = items
                .last()
                .and_then(|item| item.clone().err())
                .unwrap_or_else(|| panic!("cut at {cut} must error"));
            assert_eq!(err, StreamError::Codec(CodecError::Truncated), "cut {cut}");
            assert!(
                items[..items.len() - 1].iter().all(Result::is_ok),
                "cut {cut}: only the last frame fails"
            );
        }
    }

    #[test]
    fn corruption_rejected_by_incremental_crc() {
        let (_, mut buf) = framed(2);
        let mid = buf.len() / 2;
        buf[mid] ^= 0x10;
        let results = read_frames(&buf[..]);
        assert!(
            results
                .iter()
                .any(|r| matches!(r, Err(StreamError::Codec(CodecError::BadChecksum { .. })))),
            "{results:?}"
        );
    }

    #[test]
    fn unknown_version_rejected() {
        let log = sample_log(1);
        let mut encoded = log.encode();
        encoded[4] = 42; // version low byte
        let n = encoded.len();
        let crc = crc32(&encoded[4..n - 4]);
        encoded[n - 4..].copy_from_slice(&crc.to_le_bytes());
        let got = read_log_frame(&mut &encoded[..], n, &mut Vec::new());
        assert_eq!(
            got,
            Err(StreamError::Codec(CodecError::UnsupportedVersion(42)))
        );
    }

    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let src = [0u8; 32];
        let mut buf = Vec::new();
        let mut reader = &src[..];
        let got = read_log_frame(&mut reader, DEFAULT_MAX_FRAME_LEN + 1, &mut buf);
        assert_eq!(got, Err(StreamError::Codec(CodecError::LengthOverflow)));
        assert_eq!(buf.capacity(), 0, "nothing buffered toward the declaration");
        assert_eq!(reader.len(), src.len(), "nothing read past the prefix");
    }
}
