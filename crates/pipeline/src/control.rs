//! The TDRC control plane: wire-serializable request/response frames for
//! the audit daemon.
//!
//! [`ControlFrame`] is the message set a client and an
//! [`crate::AuditService`] daemon exchange: submit a TDRB batch, stream
//! back per-session verdicts, finish with a fleet summary (or an in-band
//! error), shut down. Frames use the same conventions as the TDRL/TDRB
//! formats — little-endian fixed-width integers, LEB128 varints, a `u32`
//! length prefix, and a CRC-32 trailer over everything after the magic —
//! so one set of helpers serves every format: `replay::stream` for
//! framing, [`jbc::wire`] for the primitives and the bounds-checked
//! cursor bodies are decoded through. Each frame body is described once,
//! as a row of the frame table below (`control_frames!`); the kind byte,
//! kind name, encoder and decoder all come from that row. The format is
//! specified normatively in `docs/FORMATS.md` (§ "TDRC control frames"),
//! with worked examples pinned byte-for-byte below and every kind pinned
//! against `tests/goldens/wire.hex`.
//!
//! Scores travel as the 8 raw bytes of their IEEE-754 bit pattern, so a
//! decoded verdict is **bit-identical** to the one the service produced —
//! the control plane can never perturb a fleet report.

use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};

use jbc::crc::crc32;
use jbc::wire::{put_bytes, put_f64, put_varint, Cursor, WireError};
use jbc::ReferenceId;
use replay::codec::CodecError;
use replay::stream::{read_length_prefix, StreamError};

use crate::obs::{HistogramSnapshot, MetricsSnapshot};
use crate::verdict::{AuditVerdict, DetectorStats, FleetSummary, ScoreHistogram, EDGES};

/// Magic bytes opening every control frame's payload.
pub const CONTROL_MAGIC: [u8; 4] = *b"TDRC";

/// Current control-plane version.
pub const CONTROL_VERSION: u16 = 1;

/// Cap on a single control frame's declared length (bounded lookahead,
/// like the TDRL frame bound): generous, because a `SubmitBatch` frame
/// embeds a whole TDRB batch.
pub const DEFAULT_MAX_CONTROL_FRAME: usize = 256 << 20;

/// Control-plane protocol failure (transport- or frame-level; batch
/// *content* failures travel in-band as [`ControlFrame::Error`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlError {
    /// Input ended inside a frame (or its length prefix).
    Truncated,
    /// The payload does not open with `"TDRC"`.
    BadMagic,
    /// Newer or unknown control-plane version.
    UnsupportedVersion(u16),
    /// Nonzero flags in a version-1 frame.
    UnsupportedFlags(u16),
    /// The CRC-32 trailer does not match the payload.
    BadChecksum {
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the received payload.
        computed: u32,
    },
    /// The kind byte names no known frame.
    UnknownKind(u8),
    /// A frame declared a length above the configured bound.
    FrameTooLarge {
        /// The declared frame length.
        len: usize,
        /// The configured maximum.
        max: usize,
    },
    /// A varint or length inside the body failed to decode.
    Body(CodecError),
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A boolean byte is neither `00` nor `01`.
    BadBool(u8),
    /// Bytes remained in the payload after the body.
    TrailingBytes(usize),
    /// A syntactically valid frame arrived where the protocol does not
    /// allow it (e.g. a response frame sent as a request).
    UnexpectedFrame(&'static str),
    /// The peer hung up cleanly at a frame boundary but *inside* an
    /// exchange — e.g. a daemon closing after verdicts were requested but
    /// before the terminating `Summary`/`Error` arrived. (EOF between
    /// exchanges is not an error; EOF inside a frame is
    /// [`Truncated`](Self::Truncated).)
    Disconnected,
    /// The peer idled past a configured read deadline. Produced only by
    /// endpoints running with a read timeout on the transport (see
    /// `net::DaemonOptions::idle_timeout`); never by decoding.
    IdleTimeout,
    /// The daemon refused the *connection* itself: it answered the accept
    /// with a [`ControlFrame::Busy`] frame scoped to
    /// [`BusyScope::Connections`] and closed (see
    /// `net::DaemonOptions::max_conns`). Raised by [`Client`] when a
    /// connection-scoped `Busy` arrives in place of any response.
    Busy {
        /// Connections active when the daemon shed this one.
        active: u64,
        /// The daemon's configured connection cap.
        limit: u64,
    },
    /// The daemon refused a *submission* in-band with a
    /// [`ControlFrame::Busy`] frame: this connection exceeded a tenant
    /// quota (see `service::TenantQuota`). The connection itself
    /// survives — the client may submit again within quota.
    QuotaExceeded {
        /// Which budget the submission exceeded.
        scope: BusyScope,
        /// The offending measured value (declared sessions, or batches
        /// already admitted on this connection).
        active: u64,
        /// The configured quota.
        limit: u64,
    },
    /// A `Busy` frame carried a scope byte naming no known
    /// [`BusyScope`].
    BadScope(u8),
    /// A `ReferenceAck` frame carried a status byte naming no known
    /// [`AckStatus`].
    BadAckStatus(u8),
    /// A `SubmitBatch` named a reference id the daemon's registry does
    /// not hold. Raised by [`Client::submit_batch_for`] when the daemon
    /// answers with an [`AckStatus::Unknown`] ack; the connection
    /// survives — register the reference with
    /// [`Client::put_reference`] and resubmit.
    UnknownReference(ReferenceId),
    /// The daemon answered `Unknown` for the same reference *again* after
    /// a successful re-put: another tenant's puts are evicting it between
    /// our `PutReference` and our resubmission (registry thrash under a
    /// tight `--reference-budget`). Raised by
    /// [`Client::submit_batch_reput`] after its bounded retry is
    /// exhausted; retrying further would livelock, so the caller must
    /// back off or the operator must raise the budget.
    ReferenceThrash(ReferenceId),
    /// The transport failed.
    Io(io::ErrorKind, String),
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlError::Truncated => write!(f, "control frame truncated"),
            ControlError::BadMagic => write!(f, "bad magic (not a TDRC frame)"),
            ControlError::UnsupportedVersion(v) => {
                write!(f, "unsupported control-plane version {v}")
            }
            ControlError::UnsupportedFlags(x) => {
                write!(f, "unsupported control-frame flags {x:#06x}")
            }
            ControlError::BadChecksum { stored, computed } => write!(
                f,
                "control frame checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            ControlError::UnknownKind(k) => write!(f, "unknown control-frame kind {k:#04x}"),
            ControlError::FrameTooLarge { len, max } => {
                write!(
                    f,
                    "control frame of {len} bytes exceeds the {max}-byte bound"
                )
            }
            ControlError::Body(e) => write!(f, "control-frame body failed to decode: {e}"),
            ControlError::BadUtf8 => write!(f, "control-frame string is not valid UTF-8"),
            ControlError::BadBool(b) => {
                write!(f, "control-frame boolean must be 00 or 01, got {b:#04x}")
            }
            ControlError::TrailingBytes(n) => {
                write!(f, "{n} trailing bytes inside control frame")
            }
            ControlError::UnexpectedFrame(kind) => {
                write!(f, "unexpected {kind} frame for this endpoint")
            }
            ControlError::Disconnected => {
                write!(f, "peer disconnected mid-exchange")
            }
            ControlError::IdleTimeout => {
                write!(f, "peer idled past the configured read deadline")
            }
            ControlError::Busy { active, limit } => write!(
                f,
                "daemon is at its connection cap ({active} active, limit {limit})"
            ),
            ControlError::QuotaExceeded {
                scope,
                active,
                limit,
            } => write!(
                f,
                "tenant quota exceeded ({}: {active} against a limit of {limit})",
                scope.name()
            ),
            ControlError::BadScope(b) => {
                write!(f, "busy-frame scope byte {b:#04x} names no known scope")
            }
            ControlError::BadAckStatus(b) => {
                write!(
                    f,
                    "reference-ack status byte {b:#04x} names no known status"
                )
            }
            ControlError::UnknownReference(id) => {
                write!(f, "reference {id} is not registered with the daemon")
            }
            ControlError::ReferenceThrash(id) => {
                write!(
                    f,
                    "reference {id} was evicted again immediately after a \
                     successful re-put (registry budget thrash)"
                )
            }
            ControlError::Io(kind, msg) => write!(f, "transport failed ({kind:?}): {msg}"),
        }
    }
}

impl std::error::Error for ControlError {}

impl From<CodecError> for ControlError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Truncated => ControlError::Truncated,
            other => ControlError::Body(other),
        }
    }
}

impl From<WireError> for ControlError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => ControlError::Truncated,
            WireError::TrailingBytes(n) => ControlError::TrailingBytes(n),
            other => ControlError::Body(other.into()),
        }
    }
}

impl ControlError {
    pub(crate) fn from_io(e: io::Error) -> Self {
        ControlError::Io(e.kind(), e.to_string())
    }

    fn from_stream(e: StreamError) -> Self {
        match e {
            StreamError::Io(kind, msg) => ControlError::Io(kind, msg),
            StreamError::Codec(CodecError::Truncated) => ControlError::Truncated,
            StreamError::Codec(other) => ControlError::Body(other),
        }
    }

    /// The per-variant tally counter name this error increments in a
    /// service's metrics (`control_err_*`; see `docs/ARCHITECTURE.md`,
    /// "Observability").
    pub fn metric_name(&self) -> &'static str {
        match self {
            ControlError::Truncated => "control_err_truncated",
            ControlError::BadMagic => "control_err_bad_magic",
            ControlError::UnsupportedVersion(_) => "control_err_unsupported_version",
            ControlError::UnsupportedFlags(_) => "control_err_unsupported_flags",
            ControlError::BadChecksum { .. } => "control_err_bad_checksum",
            ControlError::UnknownKind(_) => "control_err_unknown_kind",
            ControlError::FrameTooLarge { .. } => "control_err_frame_too_large",
            ControlError::Body(_) => "control_err_body",
            ControlError::BadUtf8 => "control_err_bad_utf8",
            ControlError::BadBool(_) => "control_err_bad_bool",
            ControlError::TrailingBytes(_) => "control_err_trailing_bytes",
            ControlError::UnexpectedFrame(_) => "control_err_unexpected_frame",
            ControlError::Disconnected => "control_err_disconnected",
            ControlError::IdleTimeout => "control_err_idle_timeout",
            ControlError::Busy { .. } => "control_err_busy",
            ControlError::QuotaExceeded { .. } => "control_err_quota_exceeded",
            ControlError::BadScope(_) => "control_err_bad_scope",
            ControlError::BadAckStatus(_) => "control_err_bad_ack_status",
            ControlError::UnknownReference(_) => "control_err_unknown_reference",
            ControlError::ReferenceThrash(_) => "control_err_reference_thrash",
            ControlError::Io(..) => "control_err_io",
        }
    }
}

/// What a [`ControlFrame::Busy`] refusal is scoped to: which budget the
/// peer ran into. Encoded as one byte on the wire; an unknown byte is
/// rejected as [`ControlError::BadScope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BusyScope {
    /// The daemon's connection cap (`net::DaemonOptions::max_conns`):
    /// the connection itself was refused at accept time and will be
    /// closed after this frame.
    Connections,
    /// The per-connection batch budget
    /// (`service::TenantQuota::max_batches`): this submission was
    /// refused, the connection survives.
    QueuedBatches,
    /// The per-batch session budget
    /// (`service::TenantQuota::max_sessions`): the submitted batch
    /// declared more sessions than one submission may carry; the
    /// connection survives.
    InFlightSessions,
}

impl BusyScope {
    /// The scope's wire byte.
    pub fn wire_byte(self) -> u8 {
        match self {
            BusyScope::Connections => 0x00,
            BusyScope::QueuedBatches => 0x01,
            BusyScope::InFlightSessions => 0x02,
        }
    }

    /// Decode a wire byte; unknown bytes are [`ControlError::BadScope`].
    pub fn from_wire_byte(b: u8) -> Result<Self, ControlError> {
        match b {
            0x00 => Ok(BusyScope::Connections),
            0x01 => Ok(BusyScope::QueuedBatches),
            0x02 => Ok(BusyScope::InFlightSessions),
            other => Err(ControlError::BadScope(other)),
        }
    }

    /// Human-readable scope name (for error messages and logs).
    pub fn name(self) -> &'static str {
        match self {
            BusyScope::Connections => "connections",
            BusyScope::QueuedBatches => "queued batches",
            BusyScope::InFlightSessions => "in-flight sessions",
        }
    }
}

/// What a [`ControlFrame::ReferenceAck`] reports about a registry
/// operation. Encoded as one byte on the wire (an unknown byte is
/// rejected as [`ControlError::BadAckStatus`]); a `Rejected` status
/// additionally carries the registry's typed error rendered as a string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AckStatus {
    /// The container decoded, the program verified, and the reference was
    /// admitted to the registry.
    Loaded,
    /// The reference was already resident; its recency was refreshed and
    /// the container bytes were not re-verified (the id is
    /// content-derived, so an equal id *is* an equal program).
    AlreadyResident,
    /// The container or the program it carries was refused (CRC mismatch,
    /// digest mismatch, malformed body, or `jbc::verify` failure). The
    /// string is the typed error's display form; the registry is
    /// unchanged and the connection survives.
    Rejected(String),
    /// A `SubmitBatch` named a reference the registry does not hold
    /// (only daemons emit this, answering a submission — never a
    /// `PutReference`).
    Unknown,
}

impl AckStatus {
    /// The status's wire byte.
    pub fn wire_byte(&self) -> u8 {
        match self {
            AckStatus::Loaded => 0x00,
            AckStatus::AlreadyResident => 0x01,
            AckStatus::Rejected(_) => 0x02,
            AckStatus::Unknown => 0x03,
        }
    }

    /// Human-readable status name (for logs and error messages).
    pub fn name(&self) -> &'static str {
        match self {
            AckStatus::Loaded => "loaded",
            AckStatus::AlreadyResident => "already resident",
            AckStatus::Rejected(_) => "rejected",
            AckStatus::Unknown => "unknown reference",
        }
    }
}

/// One control-plane message.
///
/// `SubmitBatch` and `Shutdown` flow client → daemon; the rest flow
/// daemon → client. Every variant encodes to one length-prefixed,
/// CRC-guarded frame ([`encode`](Self::encode)) and round-trips
/// bit-identically ([`decode_payload`](Self::decode_payload)).
#[derive(Debug, Clone, PartialEq)]
pub enum ControlFrame {
    /// Client request: audit this TDRB batch. `batch_id` is an opaque
    /// client-chosen correlation id echoed in every response frame.
    SubmitBatch {
        /// Client-chosen correlation id.
        batch_id: u64,
        /// A complete TDRB batch, verbatim.
        tdrb: Vec<u8>,
        /// Which registered reference program to audit the batch
        /// against. `None` — the only form version-1 frames could
        /// express, encoded identically — means the daemon's default
        /// reference, so every pinned v1 byte stream still decodes to
        /// the same meaning. `Some(id)` appends the 32-byte id after the
        /// TDRB (§5 of `docs/FORMATS.md`, "SubmitBatch v2"); an id the
        /// registry does not hold is answered in-band with an
        /// [`AckStatus::Unknown`] ack.
        reference: Option<ReferenceId>,
    },
    /// Daemon response: one session's verdict. Emitted in submission
    /// order (`index` is the zero-based position within the batch).
    Verdict {
        /// Correlation id of the originating request.
        batch_id: u64,
        /// Zero-based submission index within the batch.
        index: u64,
        /// The session's audit outcome, bit-exact.
        verdict: AuditVerdict,
    },
    /// Daemon response terminating a successful batch.
    Summary {
        /// Correlation id of the originating request.
        batch_id: u64,
        /// Workers that served the batch.
        workers: u64,
        /// Peak resident sessions during streamed ingest.
        peak_resident: u64,
        /// The deterministic fleet-wide aggregation.
        summary: FleetSummary,
    },
    /// Daemon response terminating a failed batch (the embedded TDRB was
    /// malformed); the daemon itself stays up.
    Error {
        /// Correlation id of the originating request.
        batch_id: u64,
        /// Human-readable failure description.
        message: String,
    },
    /// Client request: stop serving after acknowledging.
    Shutdown,
    /// Daemon response to [`Shutdown`](Self::Shutdown).
    ShutdownAck,
    /// Client request: report the service's current metrics.
    StatsRequest,
    /// Daemon response to [`StatsRequest`](Self::StatsRequest): a
    /// point-in-time [`MetricsSnapshot`]. The body encoding is ordered by
    /// metric name (the snapshot's `BTreeMap`s), so equal snapshots
    /// serialize bit-identically; float values travel as IEEE-754 bits.
    Stats {
        /// The service's metrics at the moment the request was served.
        snapshot: MetricsSnapshot,
    },
    /// Daemon refusal (admission control, `docs/FORMATS.md` §5.6). Two
    /// uses: connection-scoped (`scope = Connections`, `batch_id = 0`) —
    /// sent in place of any service at accept time, after which the
    /// daemon closes; and submission-scoped (the other scopes, `batch_id`
    /// echoing the refused `SubmitBatch`) — sent in-band, after which the
    /// connection keeps serving. Rejected submissions consume no quota.
    Busy {
        /// Correlation id of the refused request (0 for connection-scoped
        /// refusals, which precede any request).
        batch_id: u64,
        /// Which budget the peer ran into.
        scope: BusyScope,
        /// The measured value that hit the budget (active connections,
        /// admitted batches, or declared sessions).
        active: u64,
        /// The configured budget.
        limit: u64,
    },
    /// Client request: register a reference program. The body carries a
    /// complete TDRP container (`docs/FORMATS.md` §7), verbatim; the
    /// daemon decodes, verifies, and admits it to the registry, then
    /// answers with a [`ReferenceAck`](Self::ReferenceAck). A tampered
    /// or malformed container is refused *in-band*
    /// ([`AckStatus::Rejected`]) — the connection and the daemon keep
    /// serving.
    PutReference {
        /// Client-chosen correlation id (echoed in the ack).
        put_id: u64,
        /// A complete TDRP container, verbatim.
        tdrp: Vec<u8>,
    },
    /// Daemon response to a [`PutReference`](Self::PutReference) — or to
    /// a [`SubmitBatch`](Self::SubmitBatch) naming an unregistered
    /// reference (then `put_id` echoes the *batch* id and `status` is
    /// [`AckStatus::Unknown`]).
    ReferenceAck {
        /// Correlation id of the originating request.
        put_id: u64,
        /// The reference the ack concerns. For a successful load this is
        /// the content-derived id the daemon computed — the client can
        /// compare it against its own digest (self-certifying); for a
        /// rejection it is all zeroes.
        reference: ReferenceId,
        /// What the registry did.
        status: AckStatus,
        /// Canonical program bytes resident in the registry after the
        /// operation (the LRU budget's measured quantity).
        resident_bytes: u64,
    },
    /// Client request: install a trained detector battery, replacing the
    /// daemon's current one in a single atomic swap. The body carries the
    /// battery's canonical JSON form (`DetectorBattery::to_json`); the
    /// daemon parses it, requires it to be trained, installs it, and
    /// answers with a [`BatteryAck`](Self::BatteryAck). This is how a
    /// coordinator keeps battery generations consistent fleet-wide:
    /// retrain once, publish the same JSON to every backend
    /// (`docs/FORMATS.md` §8.4).
    PutBattery {
        /// Client-chosen correlation id (echoed in the ack).
        put_id: u64,
        /// The battery in its canonical JSON form, UTF-8.
        json: String,
    },
    /// Daemon response to a [`PutBattery`](Self::PutBattery).
    BatteryAck {
        /// Correlation id of the originating request.
        put_id: u64,
        /// The daemon's battery generation counter after the operation
        /// (0 on a rejection). Monotonic per daemon; a fleet is
        /// consistent when every backend reports its own counter moved.
        generation: u64,
        /// [`AckStatus::Loaded`] on success, [`AckStatus::Rejected`]
        /// (with the reason) when the JSON fails to parse, the battery is
        /// untrained, or the daemon scores TDR-only. The other statuses
        /// are never produced for batteries.
        status: AckStatus,
    },
}

impl ControlFrame {
    /// Encode to one complete frame: `u32` length prefix, then the
    /// payload (magic, version, flags, kind, body, CRC-32 trailer).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0; 4]; // length prefix, patched below
        out.extend_from_slice(&CONTROL_MAGIC);
        out.extend_from_slice(&CONTROL_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags
        out.push(self.kind_byte());
        self.put_body(&mut out);
        let crc = crc32(&out[4 + CONTROL_MAGIC.len()..]);
        out.extend_from_slice(&crc.to_le_bytes());
        let len = (out.len() - 4) as u32;
        out[..4].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// Decode one frame payload (everything after the length prefix).
    ///
    /// Checks run in the normative order: magic, checksum, version,
    /// flags, kind, body — and the body must consume the payload exactly.
    pub fn decode_payload(payload: &[u8]) -> Result<Self, ControlError> {
        // Smallest legal frame: magic + version + flags + kind + trailer.
        if payload.len() < CONTROL_MAGIC.len() + 2 + 2 + 1 + 4 {
            return Err(ControlError::Truncated);
        }
        if payload[..CONTROL_MAGIC.len()] != CONTROL_MAGIC {
            return Err(ControlError::BadMagic);
        }
        let trailer_at = payload.len() - 4;
        let stored = u32::from_le_bytes(payload[trailer_at..].try_into().expect("4 bytes"));
        let computed = crc32(&payload[CONTROL_MAGIC.len()..trailer_at]);
        if stored != computed {
            return Err(ControlError::BadChecksum { stored, computed });
        }
        let version = u16::from_le_bytes(payload[4..6].try_into().expect("2 bytes"));
        if version != CONTROL_VERSION {
            return Err(ControlError::UnsupportedVersion(version));
        }
        let flags = u16::from_le_bytes(payload[6..8].try_into().expect("2 bytes"));
        if flags != 0 {
            return Err(ControlError::UnsupportedFlags(flags));
        }
        let mut body = Cursor::new(&payload[9..trailer_at]);
        let frame = Self::get_body(payload[8], &mut body)?;
        body.finish()?;
        Ok(frame)
    }

    /// Write one encoded frame to `writer`.
    pub fn write_to<W: Write>(&self, writer: &mut W) -> Result<(), ControlError> {
        writer
            .write_all(&self.encode())
            .map_err(ControlError::from_io)
    }

    /// Read one frame from `reader` with the default length bound.
    ///
    /// `Ok(None)` is clean end-of-stream at a frame boundary; EOF inside
    /// a frame is [`ControlError::Truncated`].
    pub fn read_from<R: Read>(reader: &mut R) -> Result<Option<Self>, ControlError> {
        Self::read_from_bounded(reader, DEFAULT_MAX_CONTROL_FRAME)
    }

    /// [`read_from`](Self::read_from) with an explicit frame-length bound.
    ///
    /// Memory grows with bytes actually *received*, never with the
    /// declared length alone: a peer that announces a near-bound frame
    /// and then stalls (or disconnects) pins a buffer of at most 64 KiB or
    /// twice what it sent, not the whole declared allocation — on
    /// a network-facing daemon the declared length is attacker-controlled,
    /// so the up-front `vec![0; len]` a naive reader would do is an
    /// asymmetric memory-exhaustion primitive. Bytes are read straight
    /// into the payload, which grows as they arrive.
    pub fn read_from_bounded<R: Read>(
        reader: &mut R,
        max_len: usize,
    ) -> Result<Option<Self>, ControlError> {
        let len = match read_length_prefix(reader).map_err(ControlError::from_stream)? {
            None => return Ok(None),
            Some(len) => len,
        };
        if len > max_len {
            return Err(ControlError::FrameTooLarge { len, max: max_len });
        }
        let mut payload = Vec::with_capacity(len.min(64 * 1024));
        let got = reader
            .take(len as u64)
            .read_to_end(&mut payload)
            .map_err(ControlError::from_io)?;
        if got < len {
            return Err(ControlError::Truncated);
        }
        Self::decode_payload(&payload).map(Some)
    }
}

// ---------------------------------------------------------------------------
// Frame bodies, each described once
// ---------------------------------------------------------------------------

/// A value with one TDRC body encoding. `MIN` is the fewest bytes one
/// value occupies: the divisor a declared count of them is bounded by.
trait Field: Sized {
    const MIN: usize;
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Cursor<'_>) -> Result<Self, ControlError>;
}

impl Field for u64 {
    const MIN: usize = 1;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
    #[inline]
    fn get(r: &mut Cursor<'_>) -> Result<Self, ControlError> {
        Ok(r.varint()?)
    }
}

impl Field for usize {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
    fn get(r: &mut Cursor<'_>) -> Result<Self, ControlError> {
        Ok(r.varint()? as usize)
    }
}

/// The 8 little-endian bytes of the IEEE-754 bit pattern.
impl Field for f64 {
    const MIN: usize = 8;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        put_f64(out, *self);
    }
    #[inline]
    fn get(r: &mut Cursor<'_>) -> Result<Self, ControlError> {
        Ok(r.le()?)
    }
}

/// One byte, `00` or `01`.
impl Field for bool {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(r: &mut Cursor<'_>) -> Result<Self, ControlError> {
        match r.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ControlError::BadBool(other)),
        }
    }
}

/// Varint length, then UTF-8 bytes.
impl Field for String {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self.as_bytes());
    }
    fn get(r: &mut Cursor<'_>) -> Result<Self, ControlError> {
        String::from_utf8(r.bytes()?.to_vec()).map_err(|_| ControlError::BadUtf8)
    }
}

/// Varint length, then the bytes verbatim (an embedded TDRB or TDRP).
impl Field for Vec<u8> {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_bytes(out, self);
    }
    fn get(r: &mut Cursor<'_>) -> Result<Self, ControlError> {
        Ok(r.bytes()?.to_vec())
    }
}

/// The 32 digest bytes.
impl Field for ReferenceId {
    const MIN: usize = 32;
    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
    fn get(r: &mut Cursor<'_>) -> Result<Self, ControlError> {
        Ok(ReferenceId(r.array()?))
    }
}

impl Field for BusyScope {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.wire_byte());
    }
    fn get(r: &mut Cursor<'_>) -> Result<Self, ControlError> {
        BusyScope::from_wire_byte(r.byte()?)
    }
}

/// A `bool`, then the value if it is set.
impl<T: Field> Field for Option<T> {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    fn get(r: &mut Cursor<'_>) -> Result<Self, ControlError> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

/// A varint count, then the elements.
impl<T: Field> Field for Vec<T> {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        put_each(self, out);
    }
    fn get(r: &mut Cursor<'_>) -> Result<Self, ControlError> {
        let n = r.count(T::MIN)?;
        get_exactly(r, n)
    }
}

/// A varint count, then the entries in key order.
impl<K: Field + Ord, V: Field> Field for BTreeMap<K, V> {
    const MIN: usize = 1;
    fn put(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
    fn get(r: &mut Cursor<'_>) -> Result<Self, ControlError> {
        let n = r.count(K::MIN + V::MIN)?;
        let mut map = BTreeMap::new();
        for _ in 0..n {
            let k = K::get(r)?;
            map.insert(k, V::get(r)?);
        }
        Ok(map)
    }
}

/// Exactly `N` elements, no count.
impl<T: Field + Copy + Default, const N: usize> Field for [T; N] {
    const MIN: usize = N * T::MIN;
    fn put(&self, out: &mut Vec<u8>) {
        put_each(self, out);
    }
    fn get(r: &mut Cursor<'_>) -> Result<Self, ControlError> {
        let mut items = [T::default(); N];
        for item in &mut items {
            *item = T::get(r)?;
        }
        Ok(items)
    }
}

fn put_each<T: Field>(items: &[T], out: &mut Vec<u8>) {
    for item in items {
        item.put(out);
    }
}

/// `n` elements, no count; `n` is already bounded by the caller.
fn get_exactly<T: Field>(r: &mut Cursor<'_>, n: usize) -> Result<Vec<T>, ControlError> {
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        items.push(T::get(r)?);
    }
    Ok(items)
}

/// A counted sequence whose count an earlier field bounds too: checked
/// against both `max` and the body before any element is read.
fn get_at_most<T: Field>(r: &mut Cursor<'_>, max: u64) -> Result<Vec<T>, ControlError> {
    let n = r.count(T::MIN)?;
    if n as u64 > max {
        return Err(ControlError::Body(CodecError::LengthOverflow));
    }
    get_exactly(r, n)
}

/// A frame field written in two parts: a head where the frame table
/// lists it, and a tail after every other field of the body.
trait Split: Sized {
    type Head;
    fn put_head(&self, out: &mut Vec<u8>);
    fn put_tail(&self, out: &mut Vec<u8>);
    fn get_head(r: &mut Cursor<'_>) -> Result<Self::Head, ControlError>;
    fn get_tail(head: Self::Head, r: &mut Cursor<'_>) -> Result<Self, ControlError>;
}

/// An ack's status: its byte where listed; the check that the byte names
/// a status, and a `Rejected` message, at the end of the body.
impl Split for AckStatus {
    type Head = u8;
    fn put_head(&self, out: &mut Vec<u8>) {
        out.push(self.wire_byte());
    }
    fn put_tail(&self, out: &mut Vec<u8>) {
        if let AckStatus::Rejected(message) = self {
            message.put(out);
        }
    }
    fn get_head(r: &mut Cursor<'_>) -> Result<u8, ControlError> {
        Ok(r.byte()?)
    }
    fn get_tail(byte: u8, r: &mut Cursor<'_>) -> Result<Self, ControlError> {
        Ok(match byte {
            0x00 => AckStatus::Loaded,
            0x01 => AckStatus::AlreadyResident,
            0x02 => AckStatus::Rejected(String::get(r)?),
            0x03 => AckStatus::Unknown,
            other => return Err(ControlError::BadAckStatus(other)),
        })
    }
}

/// SubmitBatch's v2 reference: nothing where listed; at the end of the
/// body either nothing (a version-1 frame, the default reference) or
/// exactly 32 id bytes (fewer is truncation, more is trailing bytes).
impl Split for Option<ReferenceId> {
    type Head = ();
    fn put_head(&self, _: &mut Vec<u8>) {}
    fn put_tail(&self, out: &mut Vec<u8>) {
        if let Some(id) = self {
            id.put(out);
        }
    }
    fn get_head(_: &mut Cursor<'_>) -> Result<(), ControlError> {
        Ok(())
    }
    fn get_tail((): (), r: &mut Cursor<'_>) -> Result<Self, ControlError> {
        if r.remaining() == 0 {
            Ok(None)
        } else {
            ReferenceId::get(r).map(Some)
        }
    }
}

// A field's wire rule. Plain fields are a `Field`; `[split]` is a
// `Split`; `[..= n]` bounds a sequence's count by an earlier field `n`
// as well as by the body; `[= len]` sends no count, exactly `len`
// elements.
macro_rules! put_head {
    ($v:ident, $out:ident, split) => {
        Split::put_head($v, $out)
    };
    ($v:ident, $out:ident, = $len:expr) => {
        put_each($v, $out)
    };
    ($v:ident, $out:ident $($rule:tt)*) => {
        Field::put($v, $out)
    };
}
macro_rules! put_tail {
    ($v:ident, $out:ident, split) => {
        Split::put_tail($v, $out)
    };
    ($v:ident, $out:ident $($rule:tt)*) => {};
}
macro_rules! get_head {
    ($r:ident, $t:ty) => {
        <$t as Field>::get($r)?
    };
    ($r:ident, $t:ty, split) => {
        <$t as Split>::get_head($r)?
    };
    ($r:ident, $t:ty, ..= $max:ident) => {
        get_at_most($r, $max)?
    };
    ($r:ident, $t:ty, = $len:expr) => {
        get_exactly($r, $len)?
    };
}
macro_rules! get_tail {
    ($r:ident, $t:ty, $v:ident, split) => {
        let $v = <$t as Split>::get_tail($v, $r)?;
    };
    ($r:ident, $t:ty, $v:ident $($rule:tt)*) => {};
}

/// One `Field` impl per struct, from its fields in wire order.
macro_rules! struct_fields {
    ($($name:ident { $($f:ident: $t:ty $([$($rule:tt)+])?),+ })+) => {$(
        impl Field for $name {
            const MIN: usize = 0 $(+ <$t as Field>::MIN)+;
            fn put(&self, out: &mut Vec<u8>) {
                let $name { $($f),+ } = self;
                $(put_head!($f, out $(, $($rule)+)?);)+
            }
            fn get(r: &mut Cursor<'_>) -> Result<Self, ControlError> {
                $(let $f = get_head!(r, $t $(, $($rule)+)?);)+
                Ok($name { $($f),+ })
            }
        }
    )+};
}

struct_fields! {
    AuditVerdict {
        session_id: u64, score: f64, flagged: bool, tx_packets: usize, replayed_cycles: u64,
        detector_scores: BTreeMap<String, f64>, error: Option<String>
    }
    DetectorStats { mean: f64, max: f64 }
    ScoreHistogram { counts: [u64; EDGES.len()] }
    FleetSummary {
        sessions: u64, flagged: Vec<u64> [..= sessions], errors: u64, histogram: ScoreHistogram,
        max_score: f64, mean_score: f64, replayed_cycles: u64,
        detector_stats: BTreeMap<String, DetectorStats>
    }
    HistogramSnapshot { edges: Vec<f64>, counts: Vec<u64> [= edges.len() + 1], total: u64, sum: f64 }
    MetricsSnapshot {
        counters: BTreeMap<String, u64>, gauges: BTreeMap<String, u64>,
        float_gauges: BTreeMap<String, f64>, histograms: BTreeMap<String, HistogramSnapshot>
    }
}

/// The frame table: kind byte, variant, and body fields in wire order
/// (`docs/FORMATS.md` §5). Kind byte, kind name, encoder and decoder all
/// come from it.
macro_rules! control_frames {
    ($($kind:literal $name:ident { $($f:ident: $t:ty $([$($rule:tt)+])?),* })+) => {
        impl ControlFrame {
            fn kind_byte(&self) -> u8 {
                match self {
                    $(ControlFrame::$name { .. } => $kind,)+
                }
            }

            /// The variant's display name (for protocol-violation errors).
            pub fn kind_name(&self) -> &'static str {
                match self {
                    $(ControlFrame::$name { .. } => stringify!($name),)+
                }
            }

            fn put_body(&self, out: &mut Vec<u8>) {
                match self {
                    $(ControlFrame::$name { $($f),* } => {
                        $(put_head!($f, out $(, $($rule)+)?);)*
                        $(put_tail!($f, out $(, $($rule)+)?);)*
                    })+
                }
            }

            fn get_body(kind: u8, r: &mut Cursor<'_>) -> Result<Self, ControlError> {
                Ok(match kind {
                    $($kind => {
                        $(let $f = get_head!(r, $t $(, $($rule)+)?);)*
                        $(get_tail!(r, $t, $f $(, $($rule)+)?);)*
                        ControlFrame::$name { $($f),* }
                    })+
                    other => return Err(ControlError::UnknownKind(other)),
                })
            }
        }
    };
}

control_frames! {
    0x01 SubmitBatch { batch_id: u64, tdrb: Vec<u8>, reference: Option<ReferenceId> [split] }
    0x02 Verdict { batch_id: u64, index: u64, verdict: AuditVerdict }
    0x03 Summary { batch_id: u64, workers: u64, peak_resident: u64, summary: FleetSummary }
    0x04 Error { batch_id: u64, message: String }
    0x05 Shutdown {}
    0x06 ShutdownAck {}
    0x07 StatsRequest {}
    0x08 Stats { snapshot: MetricsSnapshot }
    0x09 Busy { batch_id: u64, scope: BusyScope, active: u64, limit: u64 }
    0x0a PutReference { put_id: u64, tdrp: Vec<u8> }
    0x0b ReferenceAck { put_id: u64, reference: ReferenceId, status: AckStatus [split], resident_bytes: u64 }
    0x0c PutBattery { put_id: u64, json: String }
    0x0d BatteryAck { put_id: u64, generation: u64, status: AckStatus [split] }
}

// ---------------------------------------------------------------------------
// Typed client
// ---------------------------------------------------------------------------

/// The terminating `Summary` frame of a successful batch, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSummary {
    /// Workers that served the batch (echoed from the daemon's report).
    pub workers: u64,
    /// Peak resident sessions during the daemon's streamed ingest.
    pub peak_resident: u64,
    /// The deterministic fleet-wide aggregation.
    pub summary: FleetSummary,
}

/// What one [`Client::put_reference`] exchange produced: the daemon's
/// `ReferenceAck`, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PutOutcome {
    /// The content-derived reference id the daemon computed (all zeroes
    /// on a rejection). Compare against a locally computed
    /// [`jbc::container::reference_id`] to confirm the daemon holds the
    /// program you meant.
    pub reference: ReferenceId,
    /// What the registry did (loaded / already resident / rejected).
    pub status: AckStatus,
    /// Canonical program bytes resident in the registry afterwards.
    pub resident_bytes: u64,
}

/// What one [`Client::put_battery`] exchange produced: the daemon's
/// `BatteryAck`, as data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatteryOutcome {
    /// The daemon's battery generation counter after the install (0 on a
    /// rejection). Monotonic per daemon.
    pub generation: u64,
    /// [`AckStatus::Loaded`] on success, [`AckStatus::Rejected`] with the
    /// reason otherwise.
    pub status: AckStatus,
}

/// Everything one `SubmitBatch` exchange produced.
///
/// `verdicts` holds the per-session verdicts in submission order (the
/// daemon emits them in-order; [`Client`] verifies the indexes are
/// contiguous). `result` is the terminating frame: a [`BatchSummary`] on
/// success, or the daemon's in-band `Error` message when the embedded
/// TDRB was malformed — in which case verdicts already streamed for
/// earlier sessions are still present and valid.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchOutcome {
    /// The correlation id this exchange used.
    pub batch_id: u64,
    /// Per-session verdicts, in submission order.
    pub verdicts: Vec<AuditVerdict>,
    /// Terminating frame: summary, or the in-band error message.
    pub result: Result<BatchSummary, String>,
}

/// A typed TDRC client over any `Read + Write` transport.
///
/// Wraps the request/response choreography of §5 of `docs/FORMATS.md`:
/// [`submit_batch`](Self::submit_batch) writes one `SubmitBatch` frame
/// and reads `Verdict*` then `Summary`/`Error`, verifying the batch-id
/// echo and the contiguous submission-index order as it goes;
/// [`shutdown`](Self::shutdown) performs the `Shutdown`/`ShutdownAck`
/// handshake. The same client drives a `TcpStream` (the `tdrd` binary and
/// the TCP tests), an in-memory [`duplex`](crate::service::duplex) end,
/// or anything else that moves bytes.
///
/// Decoded verdicts are **bit-identical** to the ones the service
/// produced — the wire encoding round-trips IEEE-754 bits, pinned by the
/// integration suite against in-process submission.
#[derive(Debug)]
pub struct Client<T: Read + Write> {
    transport: T,
}

impl<T: Read + Write> Client<T> {
    /// Wrap a connected transport.
    pub fn new(transport: T) -> Self {
        Client { transport }
    }

    /// Submit one TDRB batch and block until its terminating frame.
    ///
    /// Protocol-level failures (corrupt frames, a wrong batch id, frames
    /// out of order, the daemon hanging up mid-exchange) are `Err`;
    /// batch-content failures are in-band and land in
    /// [`BatchOutcome::result`].
    pub fn submit_batch(
        &mut self,
        batch_id: u64,
        tdrb: Vec<u8>,
    ) -> Result<BatchOutcome, ControlError> {
        self.submit_batch_with(batch_id, tdrb, |_, _| {})
    }

    /// [`submit_batch`](Self::submit_batch) against a *registered*
    /// reference program instead of the daemon's default: the frame goes
    /// out as SubmitBatch v2, carrying `reference`. If the registry does
    /// not hold that id the daemon answers in-band and this returns
    /// [`ControlError::UnknownReference`] — register it with
    /// [`put_reference`](Self::put_reference) and resubmit; the
    /// connection survives.
    pub fn submit_batch_for(
        &mut self,
        batch_id: u64,
        tdrb: Vec<u8>,
        reference: ReferenceId,
    ) -> Result<BatchOutcome, ControlError> {
        self.submit_batch_inner(batch_id, tdrb, Some(reference), |_, _| {})
    }

    /// [`submit_batch_for`](Self::submit_batch_for) with the bounded
    /// Unknown-reference recovery built in: on an
    /// [`AckStatus::Unknown`] answer the client re-puts `tdrp` (the
    /// container whose content-derived id is `reference`) and resubmits
    /// **once**. Content addressing makes the re-put always safe; the cap
    /// exists because under a tight `--reference-budget` a competing
    /// tenant's puts can evict the reference *between* our re-put and our
    /// resubmission, and an unbounded put→resubmit loop then livelocks.
    /// A second `Unknown` is surfaced as
    /// [`ControlError::ReferenceThrash`] — the caller backs off, or the
    /// operator raises the budget.
    pub fn submit_batch_reput(
        &mut self,
        batch_id: u64,
        tdrb: Vec<u8>,
        reference: ReferenceId,
        tdrp: &[u8],
    ) -> Result<BatchOutcome, ControlError> {
        // Encoded once: the rare resubmission writes the same bytes again.
        let frame = ControlFrame::SubmitBatch {
            batch_id,
            tdrb,
            reference: Some(reference),
        }
        .encode();
        match self.exchange(batch_id, &frame, |_, _| {}) {
            Err(ControlError::UnknownReference(id)) if id == reference => {
                let put = self.put_reference(batch_id, tdrp.to_vec())?;
                match put.status {
                    AckStatus::Loaded | AckStatus::AlreadyResident
                        if put.reference == reference => {}
                    // The daemon refused (or renamed) a container this
                    // very connection previously loaded under this id —
                    // content addressing forbids that.
                    _ => {
                        return Err(ControlError::UnexpectedFrame(
                            "ReferenceAck (re-put refused)",
                        ))
                    }
                }
                match self.exchange(batch_id, &frame, |_, _| {}) {
                    Err(ControlError::UnknownReference(id)) if id == reference => {
                        Err(ControlError::ReferenceThrash(reference))
                    }
                    other => other,
                }
            }
            other => other,
        }
    }

    /// [`submit_batch`](Self::submit_batch), invoking `on_verdict` for
    /// each verdict frame as it arrives (before it is collected) — the
    /// pull-streaming hook daemon clients use for live progress.
    pub fn submit_batch_with(
        &mut self,
        batch_id: u64,
        tdrb: Vec<u8>,
        on_verdict: impl FnMut(u64, &AuditVerdict),
    ) -> Result<BatchOutcome, ControlError> {
        self.submit_batch_inner(batch_id, tdrb, None, on_verdict)
    }

    fn submit_batch_inner(
        &mut self,
        batch_id: u64,
        tdrb: Vec<u8>,
        reference: Option<ReferenceId>,
        on_verdict: impl FnMut(u64, &AuditVerdict),
    ) -> Result<BatchOutcome, ControlError> {
        let frame = ControlFrame::SubmitBatch {
            batch_id,
            tdrb,
            reference,
        }
        .encode();
        self.exchange(batch_id, &frame, on_verdict)
    }

    /// One batch exchange: write the encoded `SubmitBatch` `frame` and
    /// read `Verdict*` then the terminating frame.
    fn exchange(
        &mut self,
        batch_id: u64,
        frame: &[u8],
        mut on_verdict: impl FnMut(u64, &AuditVerdict),
    ) -> Result<BatchOutcome, ControlError> {
        self.transport
            .write_all(frame)
            .map_err(ControlError::from_io)?;
        self.transport.flush().map_err(ControlError::from_io)?;
        let mut verdicts: Vec<AuditVerdict> = Vec::new();
        loop {
            let frame =
                ControlFrame::read_from(&mut self.transport)?.ok_or(ControlError::Disconnected)?;
            match frame {
                ControlFrame::Verdict {
                    batch_id: got,
                    index,
                    verdict,
                } => {
                    if got != batch_id {
                        return Err(ControlError::UnexpectedFrame("Verdict (foreign batch id)"));
                    }
                    if index != verdicts.len() as u64 {
                        return Err(ControlError::UnexpectedFrame("Verdict (out of order)"));
                    }
                    on_verdict(index, &verdict);
                    verdicts.push(verdict);
                }
                ControlFrame::Summary {
                    batch_id: got,
                    workers,
                    peak_resident,
                    summary,
                } => {
                    if got != batch_id {
                        return Err(ControlError::UnexpectedFrame("Summary (foreign batch id)"));
                    }
                    return Ok(BatchOutcome {
                        batch_id,
                        verdicts,
                        result: Ok(BatchSummary {
                            workers,
                            peak_resident,
                            summary,
                        }),
                    });
                }
                ControlFrame::Error {
                    batch_id: got,
                    message,
                } => {
                    if got != batch_id {
                        return Err(ControlError::UnexpectedFrame("Error (foreign batch id)"));
                    }
                    return Ok(BatchOutcome {
                        batch_id,
                        verdicts,
                        result: Err(message),
                    });
                }
                ControlFrame::Busy {
                    batch_id: got,
                    scope,
                    active,
                    limit,
                } => {
                    // A connection-scoped refusal can race our submission:
                    // the daemon shed the connection at accept time and we
                    // only now read its parting frame.
                    if scope == BusyScope::Connections {
                        return Err(ControlError::Busy { active, limit });
                    }
                    if got != batch_id {
                        return Err(ControlError::UnexpectedFrame("Busy (foreign batch id)"));
                    }
                    return Err(ControlError::QuotaExceeded {
                        scope,
                        active,
                        limit,
                    });
                }
                ControlFrame::ReferenceAck {
                    put_id: got,
                    reference,
                    status: AckStatus::Unknown,
                    ..
                } => {
                    // The daemon refused the submission in-band: the
                    // named reference is not registered. `put_id` echoes
                    // the batch id here (§5, "ReferenceAck").
                    if got != batch_id {
                        return Err(ControlError::UnexpectedFrame(
                            "ReferenceAck (foreign batch id)",
                        ));
                    }
                    return Err(ControlError::UnknownReference(reference));
                }
                other => return Err(ControlError::UnexpectedFrame(other.kind_name())),
            }
        }
    }

    /// Register a reference program: one `PutReference` frame carrying a
    /// complete TDRP container out, exactly one `ReferenceAck` back.
    ///
    /// A refused container ([`AckStatus::Rejected`] — CRC/digest
    /// mismatch, malformed body, verify failure) is *not* a protocol
    /// error: it lands in [`PutOutcome::status`] and the connection keeps
    /// serving, mirroring how batch-content failures travel in-band.
    pub fn put_reference(
        &mut self,
        put_id: u64,
        tdrp: Vec<u8>,
    ) -> Result<PutOutcome, ControlError> {
        self.request(
            ControlFrame::PutReference { put_id, tdrp },
            |reply| match reply {
                ControlFrame::ReferenceAck {
                    put_id: got,
                    reference,
                    status,
                    resident_bytes,
                } if got == put_id => Ok(PutOutcome {
                    reference,
                    status,
                    resident_bytes,
                }),
                ControlFrame::ReferenceAck { .. } => Err(ControlError::UnexpectedFrame(
                    "ReferenceAck (foreign put id)",
                )),
                other => Err(unexpected(other)),
            },
        )
    }

    /// Install a trained detector battery: one `PutBattery` frame
    /// carrying the battery's canonical JSON out, exactly one
    /// `BatteryAck` back.
    ///
    /// A refused battery ([`AckStatus::Rejected`] — unparseable JSON,
    /// untrained, or a TDR-only daemon) is *not* a protocol error: it
    /// lands in [`BatteryOutcome::status`] and the connection keeps
    /// serving. Against a coordinator the install fans out to every
    /// backend, so one call publishes one new generation fleet-wide.
    pub fn put_battery(
        &mut self,
        put_id: u64,
        json: String,
    ) -> Result<BatteryOutcome, ControlError> {
        self.request(
            ControlFrame::PutBattery { put_id, json },
            |reply| match reply {
                ControlFrame::BatteryAck {
                    put_id: got,
                    generation,
                    status,
                } if got == put_id => Ok(BatteryOutcome { generation, status }),
                ControlFrame::BatteryAck { .. } => {
                    Err(ControlError::UnexpectedFrame("BatteryAck (foreign put id)"))
                }
                other => Err(unexpected(other)),
            },
        )
    }

    /// Fetch the daemon's current metrics: one `StatsRequest` frame out,
    /// exactly one `Stats` frame back. Callable between batch exchanges
    /// on the same connection; the snapshot covers the whole *service*
    /// (every connection's traffic), not just this client's.
    pub fn stats(&mut self) -> Result<MetricsSnapshot, ControlError> {
        self.request(ControlFrame::StatsRequest, |reply| match reply {
            ControlFrame::Stats { snapshot } => Ok(snapshot),
            other => Err(unexpected(other)),
        })
    }

    /// Perform the `Shutdown`/`ShutdownAck` handshake and consume the
    /// client (over TCP this ends the *connection*; the daemon keeps
    /// serving other connections — `docs/FORMATS.md` §5.4).
    pub fn shutdown(mut self) -> Result<T, ControlError> {
        self.request(ControlFrame::Shutdown, |reply| match reply {
            ControlFrame::ShutdownAck => Ok(()),
            other => Err(unexpected(other)),
        })?;
        Ok(self.transport)
    }

    /// One request, one reply: write and flush `request`, read one frame,
    /// and hand it to `accept`. EOF before any reply is `Disconnected`.
    fn request<R>(
        &mut self,
        request: ControlFrame,
        accept: impl FnOnce(ControlFrame) -> Result<R, ControlError>,
    ) -> Result<R, ControlError> {
        request.write_to(&mut self.transport)?;
        self.transport.flush().map_err(ControlError::from_io)?;
        accept(ControlFrame::read_from(&mut self.transport)?.ok_or(ControlError::Disconnected)?)
    }

    /// Unwrap the transport without the shutdown handshake.
    pub fn into_inner(self) -> T {
        self.transport
    }
}

/// The error for a reply a request did not expect: a connection-scoped
/// `Busy` means the daemon shed this connection; anything else is a
/// protocol violation.
fn unexpected(reply: ControlFrame) -> ControlError {
    match reply {
        ControlFrame::Busy {
            scope: BusyScope::Connections,
            active,
            limit,
            ..
        } => ControlError::Busy { active, limit },
        other => ControlError::UnexpectedFrame(other.kind_name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_verdict() -> AuditVerdict {
        AuditVerdict {
            session_id: 7,
            score: 0.5,
            flagged: true,
            tx_packets: 3,
            replayed_cycles: 1000,
            detector_scores: BTreeMap::new(),
            error: None,
        }
    }

    fn sample_summary() -> FleetSummary {
        let verdicts = vec![
            sample_verdict(),
            AuditVerdict {
                session_id: 9,
                score: 0.001,
                flagged: false,
                tx_packets: 5,
                replayed_cycles: 2_500,
                detector_scores: [
                    ("Sanity".to_string(), 0.001),
                    ("Shape test".to_string(), -1.25),
                ]
                .into_iter()
                .collect(),
                error: None,
            },
            AuditVerdict {
                session_id: 10,
                score: 1.0,
                flagged: true,
                tx_packets: 0,
                replayed_cycles: 0,
                detector_scores: BTreeMap::new(),
                error: Some("replay failed".to_string()),
            },
        ];
        FleetSummary::from_verdicts(&verdicts)
    }

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: [
                ("sessions_audited".to_string(), 12u64),
                ("conn_accepted".to_string(), 3),
                ("bytes_in".to_string(), u64::MAX),
            ]
            .into_iter()
            .collect(),
            gauges: [("conn_active".to_string(), 1u64)].into_iter().collect(),
            float_gauges: [
                ("uptime_seconds".to_string(), 12.5f64),
                ("retrain_drift_mean".to_string(), -0.0),
            ]
            .into_iter()
            .collect(),
            histograms: [(
                "verdict_latency_us".to_string(),
                HistogramSnapshot {
                    edges: vec![50.0, 100.0, 250.0],
                    counts: vec![1, 2, 3, 4],
                    total: 10,
                    sum: 1234.5,
                },
            )]
            .into_iter()
            .collect(),
        }
    }

    fn every_frame() -> Vec<ControlFrame> {
        vec![
            ControlFrame::SubmitBatch {
                batch_id: 42,
                tdrb: vec![0x54, 0x44, 0x52, 0x42, 1, 0, 0, 0, 0],
                reference: None,
            },
            ControlFrame::SubmitBatch {
                batch_id: 43,
                tdrb: vec![0x54, 0x44, 0x52, 0x42, 1, 0, 0, 0, 0],
                reference: Some(sample_reference_id()),
            },
            ControlFrame::Verdict {
                batch_id: 1,
                index: 0,
                verdict: sample_verdict(),
            },
            ControlFrame::Verdict {
                batch_id: 1,
                index: 2,
                verdict: AuditVerdict {
                    detector_scores: [
                        ("Sanity".to_string(), f64::MIN_POSITIVE),
                        ("CCE test".to_string(), -0.0),
                    ]
                    .into_iter()
                    .collect(),
                    error: Some("the replay diverged".to_string()),
                    ..sample_verdict()
                },
            },
            ControlFrame::Summary {
                batch_id: 1,
                workers: 4,
                peak_resident: 8,
                summary: sample_summary(),
            },
            ControlFrame::Error {
                batch_id: 9,
                message: "session 3 failed to decode: checksum mismatch".to_string(),
            },
            ControlFrame::Shutdown,
            ControlFrame::ShutdownAck,
            ControlFrame::StatsRequest,
            ControlFrame::Stats {
                snapshot: sample_snapshot(),
            },
            ControlFrame::Stats {
                snapshot: MetricsSnapshot::default(),
            },
            ControlFrame::Busy {
                batch_id: 0,
                scope: BusyScope::Connections,
                active: 4,
                limit: 4,
            },
            ControlFrame::Busy {
                batch_id: 300,
                scope: BusyScope::QueuedBatches,
                active: 8,
                limit: 8,
            },
            ControlFrame::Busy {
                batch_id: u64::MAX,
                scope: BusyScope::InFlightSessions,
                active: u64::MAX,
                limit: 1,
            },
            ControlFrame::PutReference {
                put_id: 17,
                tdrp: vec![0x54, 0x44, 0x52, 0x50, 0x01, 0x00, 0x00, 0x00],
            },
            ControlFrame::ReferenceAck {
                put_id: 17,
                reference: sample_reference_id(),
                status: AckStatus::Loaded,
                resident_bytes: 4096,
            },
            ControlFrame::ReferenceAck {
                put_id: 18,
                reference: sample_reference_id(),
                status: AckStatus::AlreadyResident,
                resident_bytes: u64::MAX,
            },
            ControlFrame::ReferenceAck {
                put_id: 19,
                reference: ReferenceId([0; 32]),
                status: AckStatus::Rejected("container checksum mismatch".to_string()),
                resident_bytes: 0,
            },
            ControlFrame::ReferenceAck {
                put_id: 20,
                reference: sample_reference_id(),
                status: AckStatus::Unknown,
                resident_bytes: 128,
            },
            ControlFrame::PutBattery {
                put_id: 21,
                json: "{\"version\":1,\"detectors\":[]}".to_string(),
            },
            ControlFrame::BatteryAck {
                put_id: 21,
                generation: 3,
                status: AckStatus::Loaded,
            },
            ControlFrame::BatteryAck {
                put_id: 22,
                generation: 0,
                status: AckStatus::Rejected("battery is untrained".to_string()),
            },
        ]
    }

    fn sample_reference_id() -> ReferenceId {
        let mut id = [0u8; 32];
        for (k, b) in id.iter_mut().enumerate() {
            *b = (k as u8).wrapping_mul(7).wrapping_add(3);
        }
        ReferenceId(id)
    }

    /// A CRC-valid payload (everything after the length prefix) of
    /// `kind` around a hand-built `body`.
    fn sealed(kind: u8, body: &[u8]) -> Vec<u8> {
        let mut payload = CONTROL_MAGIC.to_vec();
        payload.extend_from_slice(&CONTROL_VERSION.to_le_bytes());
        payload.extend_from_slice(&0u16.to_le_bytes());
        payload.push(kind);
        payload.extend_from_slice(body);
        let crc = crc32(&payload[4..]);
        payload.extend_from_slice(&crc.to_le_bytes());
        payload
    }

    #[test]
    fn every_frame_roundtrips_bit_identically() {
        for frame in every_frame() {
            let bytes = frame.encode();
            let back = ControlFrame::read_from(&mut &bytes[..])
                .expect("decodes")
                .expect("one frame");
            assert_eq!(back, frame);
            // Scores must survive bit-for-bit, not just PartialEq (which
            // would conflate 0.0 and -0.0).
            if let (
                ControlFrame::Verdict { verdict: a, .. },
                ControlFrame::Verdict { verdict: b, .. },
            ) = (&frame, &back)
            {
                assert_eq!(a.score.to_bits(), b.score.to_bits());
                for (name, score) in &a.detector_scores {
                    assert_eq!(score.to_bits(), b.detector_scores[name].to_bits());
                }
            }
            // Re-encoding the decoded frame is byte-identical.
            assert_eq!(back.encode(), bytes);
        }
    }

    /// Every `every_frame()` encoding and one two-session TDRB batch,
    /// byte for byte, against committed hex (`tests/goldens/wire.hex`).
    /// A round trip cannot catch an encoder and decoder that drift
    /// together; this can. Nothing in the suite rewrites the file.
    #[test]
    fn every_encoding_matches_the_committed_hex() {
        use replay::{EventLog, PacketRecord};
        let jobs: Vec<crate::AuditJob> = (1..=2u64)
            .map(|id| crate::AuditJob {
                session_id: id,
                log: EventLog {
                    packets: vec![PacketRecord {
                        icount: 10 * id,
                        avail_at: 100,
                        wire_at: 90,
                        data: vec![id as u8; 4],
                    }],
                    values: vec![id, id + 1],
                    final_icount: 1_000 + id,
                    final_cycles: 2_000 + id,
                    final_wall_ps: 3_000 + id as u128,
                },
                observed_ipds: vec![700_000, 690_000 + id],
            })
            .collect();
        let mut actual: Vec<(String, Vec<u8>)> = every_frame()
            .iter()
            .map(|f| (f.kind_name().to_string(), f.encode()))
            .collect();
        actual.push(("TDRB".to_string(), crate::ingest::encode_batch(&jobs)));

        let golden = include_str!("../../../tests/goldens/wire.hex");
        let expected: Vec<(&str, &str)> = golden
            .lines()
            .filter(|line| !line.is_empty() && !line.starts_with('#'))
            .map(|line| line.split_once(' ').expect("`label hex` per line"))
            .collect();
        assert_eq!(expected.len(), actual.len(), "one golden line per encoding");
        for (k, ((label, hex), (name, bytes))) in expected.iter().zip(&actual).enumerate() {
            let got: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            assert_eq!(
                (*label, *hex),
                (name.as_str(), got.as_str()),
                "encoding {k}"
            );
        }
    }

    #[test]
    fn frame_stream_concatenates() {
        let frames = every_frame();
        let mut bytes = Vec::new();
        for frame in &frames {
            bytes.extend_from_slice(&frame.encode());
        }
        let mut src = &bytes[..];
        let mut decoded = Vec::new();
        while let Some(frame) = ControlFrame::read_from(&mut src).expect("decodes") {
            decoded.push(frame);
        }
        assert_eq!(decoded, frames);
    }

    /// A frame cut anywhere after its first byte is `Truncated`, for
    /// every kind.
    #[test]
    fn truncation_rejected_at_every_cut() {
        for frame in every_frame() {
            let bytes = frame.encode();
            for cut in 1..bytes.len() {
                let got = ControlFrame::read_from(&mut &bytes[..cut]);
                assert_eq!(
                    got,
                    Err(ControlError::Truncated),
                    "{} cut at {cut}",
                    frame.kind_name()
                );
            }
        }
    }
    /// Every single-bit flip after the length prefix — magic, header,
    /// body or trailer — surfaces as a typed error, for every kind; none
    /// decodes silently.
    #[test]
    fn corruption_rejected_by_crc() {
        for frame in every_frame() {
            let clean = frame.encode();
            for bit in 32..clean.len() * 8 {
                let mut corrupt = clean.clone();
                corrupt[bit / 8] ^= 1 << (bit % 8);
                let got = ControlFrame::read_from(&mut &corrupt[..]);
                assert!(
                    got.is_err(),
                    "{} bit {bit} flipped decoded: {got:?}",
                    frame.kind_name()
                );
            }
        }
    }
    #[test]
    fn unknown_version_and_flags_rejected() {
        let clean = ControlFrame::Shutdown.encode();
        // Version and flags live at payload offsets 4/6 = frame offsets
        // 8/10. The CRC covers them, so re-seal the trailer after
        // patching to prove the *version* check fires, not the checksum.
        for (at, expect) in [
            (8usize, ControlError::UnsupportedVersion(9)),
            (10, ControlError::UnsupportedFlags(9)),
        ] {
            let mut patched = clean.clone();
            patched[at] = 9;
            let n = patched.len();
            let crc = crc32(&patched[8..n - 4]);
            patched[n - 4..].copy_from_slice(&crc.to_le_bytes());
            let got = ControlFrame::read_from(&mut &patched[..]);
            assert_eq!(got, Err(expect), "patch at {at}");
        }
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut bytes = ControlFrame::Shutdown.encode();
        bytes[12] = 0x7f; // kind byte (4-byte prefix + magic + ver + flags)
        let n = bytes.len();
        let crc = crc32(&bytes[8..n - 4]);
        bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ControlFrame::read_from(&mut &bytes[..]),
            Err(ControlError::UnknownKind(0x7f))
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = ControlFrame::Shutdown.encode();
        bytes[5] = b'X';
        assert_eq!(
            ControlFrame::read_from(&mut &bytes[..]),
            Err(ControlError::BadMagic)
        );
    }

    /// One byte smuggled after every kind's body, re-sealed so the CRC
    /// passes, is `TrailingBytes(1)` — except in a v1 SubmitBatch, which
    /// reads it as the start of a reference id: `Truncated`.
    #[test]
    fn trailing_bytes_inside_payload_rejected() {
        for frame in every_frame() {
            let mut bytes = frame.encode();
            bytes.insert(bytes.len() - 4, 0xaa);
            let n = bytes.len();
            bytes[..4].copy_from_slice(&((n - 4) as u32).to_le_bytes());
            let crc = crc32(&bytes[8..n - 4]);
            bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
            let want = match frame {
                ControlFrame::SubmitBatch {
                    reference: None, ..
                } => ControlError::Truncated,
                _ => ControlError::TrailingBytes(1),
            };
            let got = ControlFrame::read_from(&mut &bytes[..]);
            assert_eq!(got, Err(want), "{}", frame.kind_name());
        }
    }
    #[test]
    fn oversized_frame_rejected_without_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(
            ControlFrame::read_from_bounded(&mut &bytes[..], 1 << 16),
            Err(ControlError::FrameTooLarge {
                len: u32::MAX as usize,
                max: 1 << 16
            })
        );
    }

    #[test]
    fn declared_but_unsent_length_is_truncated() {
        // A peer may declare a near-bound frame and never send it; the
        // reader must classify that as truncation once the stream ends,
        // holding only the bytes that actually arrived (the incremental
        // fill in `read_from_bounded` — never `vec![0; declared]`).
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(200u32 << 20).to_le_bytes()); // within the 256 MiB bound
        bytes.extend_from_slice(&[0u8; 32]); // but almost nothing follows
        assert_eq!(
            ControlFrame::read_from(&mut &bytes[..]),
            Err(ControlError::Truncated)
        );
    }

    #[test]
    fn summary_flagged_count_is_bounded() {
        // A summary claiming more flagged sessions than the sessions
        // count — or than the body could possibly hold — must be rejected
        // as length overflow, not trusted with an allocation. The second
        // case matters on its own: `sessions` is attacker-controlled too,
        // so the body length is the only trustworthy bound.
        for sessions in [2u64, u64::MAX >> 2] {
            let mut body = Vec::new();
            put_varint(&mut body, 1); // batch_id
            put_varint(&mut body, 1); // workers
            put_varint(&mut body, 1); // peak
            put_varint(&mut body, sessions);
            put_varint(&mut body, u64::MAX >> 2); // preposterous flagged count
            assert_eq!(
                ControlFrame::decode_payload(&sealed(0x03, &body)),
                Err(ControlError::Body(CodecError::LengthOverflow)),
                "sessions = {sessions}"
            );
        }
    }

    /// Pins the worked example in `docs/FORMATS.md` (§ "TDRC control
    /// frames") byte for byte. If this fails, the spec and the code have
    /// diverged — fix whichever is wrong, never both silently.
    #[test]
    fn formats_md_control_frame_bytes_are_pinned() {
        let frame = ControlFrame::Verdict {
            batch_id: 1,
            index: 0,
            verdict: AuditVerdict {
                session_id: 7,
                score: 0.5,
                flagged: true,
                tx_packets: 3,
                replayed_cycles: 1000,
                detector_scores: BTreeMap::new(),
                error: None,
            },
        };
        let expected: Vec<u8> = vec![
            0x1e, 0x00, 0x00, 0x00, // length prefix = 30
            0x54, 0x44, 0x52, 0x43, // magic "TDRC"
            0x01, 0x00, // version = 1
            0x00, 0x00, // flags = 0
            0x02, // kind = Verdict
            0x01, // batch_id = 1
            0x00, // index = 0
            0x07, // session_id = 7
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, // score = 0.5
            0x01, // flagged = true
            0x03, // tx_packets = 3
            0xe8, 0x07, // replayed_cycles = 1000
            0x00, // detector-score count = 0
            0x00, // no error
            0x07, 0x5c, 0xf1, 0xe1, // CRC-32 of payload[4..26]
        ];
        assert_eq!(frame.encode(), expected);
        assert_eq!(
            ControlFrame::decode_payload(&expected[4..]).expect("decodes"),
            frame
        );
    }

    /// Pins the §5.5 worked example (`docs/FORMATS.md`) byte for byte:
    /// a `StatsRequest` and a one-counter/one-gauge `Stats` frame. As
    /// with the Verdict pin above, a failure means code and spec
    /// diverged.
    #[test]
    fn formats_md_stats_frame_bytes_are_pinned() {
        let request = ControlFrame::StatsRequest;
        let expected_request: Vec<u8> = vec![
            0x0d, 0x00, 0x00, 0x00, // length prefix = 13
            0x54, 0x44, 0x52, 0x43, // magic "TDRC"
            0x01, 0x00, // version = 1
            0x00, 0x00, // flags = 0
            0x07, // kind = StatsRequest (empty body)
            0x0e, 0x4b, 0x26, 0x65, // CRC-32 of payload[4..9]
        ];
        assert_eq!(request.encode(), expected_request);

        let stats = ControlFrame::Stats {
            snapshot: MetricsSnapshot {
                counters: [("sessions_audited".to_string(), 12u64)]
                    .into_iter()
                    .collect(),
                gauges: [("conn_active".to_string(), 1u64)].into_iter().collect(),
                float_gauges: BTreeMap::new(),
                histograms: BTreeMap::new(),
            },
        };
        let mut expected_stats: Vec<u8> = vec![
            0x30, 0x00, 0x00, 0x00, // length prefix = 48
            0x54, 0x44, 0x52, 0x43, // magic "TDRC"
            0x01, 0x00, // version = 1
            0x00, 0x00, // flags = 0
            0x08, // kind = Stats
            0x01, // counter count = 1
            0x10, // name length = 16
        ];
        expected_stats.extend_from_slice(b"sessions_audited");
        expected_stats.extend_from_slice(&[
            0x0c, // value = 12
            0x01, // gauge count = 1
            0x0b, // name length = 11
        ]);
        expected_stats.extend_from_slice(b"conn_active");
        expected_stats.extend_from_slice(&[
            0x01, // value = 1
            0x00, // float-gauge count = 0
            0x00, // histogram count = 0
        ]);
        let crc = crc32(&expected_stats[8..]);
        expected_stats.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(stats.encode(), expected_stats);
        assert_eq!(
            ControlFrame::decode_payload(&expected_stats[4..]).expect("decodes"),
            stats
        );
    }

    /// Pins the §5.6 worked example (`docs/FORMATS.md`) byte for byte: a
    /// connection-scoped `Busy` frame as the daemon sheds an accept at a
    /// cap of 4. As with the pins above, a failure means code and spec
    /// diverged — fix whichever is wrong, never both silently.
    #[test]
    fn formats_md_busy_frame_bytes_are_pinned() {
        let frame = ControlFrame::Busy {
            batch_id: 0,
            scope: BusyScope::Connections,
            active: 4,
            limit: 4,
        };
        let mut expected: Vec<u8> = vec![
            0x11, 0x00, 0x00, 0x00, // length prefix = 17
            0x54, 0x44, 0x52, 0x43, // magic "TDRC"
            0x01, 0x00, // version = 1
            0x00, 0x00, // flags = 0
            0x09, // kind = Busy
            0x00, // batch_id = 0 (connection-scoped)
            0x00, // scope = Connections
            0x04, // active = 4
            0x04, // limit = 4
        ];
        let crc = crc32(&expected[8..]);
        expected.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(frame.encode(), expected);
        assert_eq!(
            ControlFrame::decode_payload(&expected[4..]).expect("decodes"),
            frame
        );
    }

    #[test]
    fn busy_unknown_scope_rejected_as_bad_scope() {
        // A CRC-valid Busy frame with a scope byte from the future must
        // fail on the *scope*, not on the checksum or as trailing bytes.
        let mut body = Vec::new();
        put_varint(&mut body, 5); // batch_id
        body.push(0x7f); // unknown scope
        put_varint(&mut body, 1); // active
        put_varint(&mut body, 1); // limit
        assert_eq!(
            ControlFrame::decode_payload(&sealed(0x09, &body)),
            Err(ControlError::BadScope(0x7f))
        );
    }

    #[test]
    fn client_maps_busy_frames_to_typed_errors() {
        // Submission-scoped: QuotaExceeded, echoing the batch id.
        let mut client = Client::new(Scripted::new(&[ControlFrame::Busy {
            batch_id: 6,
            scope: BusyScope::QueuedBatches,
            active: 8,
            limit: 8,
        }]));
        assert_eq!(
            client.submit_batch(6, Vec::new()),
            Err(ControlError::QuotaExceeded {
                scope: BusyScope::QueuedBatches,
                active: 8,
                limit: 8,
            })
        );
        // Submission-scoped with a foreign batch id: protocol violation.
        let mut client = Client::new(Scripted::new(&[ControlFrame::Busy {
            batch_id: 99,
            scope: BusyScope::InFlightSessions,
            active: 9,
            limit: 8,
        }]));
        assert_eq!(
            client.submit_batch(6, Vec::new()),
            Err(ControlError::UnexpectedFrame("Busy (foreign batch id)"))
        );
        // Connection-scoped: the accept-shed race surfaces as Busy from
        // every request path, regardless of the batch id (always 0).
        let shed = ControlFrame::Busy {
            batch_id: 0,
            scope: BusyScope::Connections,
            active: 4,
            limit: 4,
        };
        let expected = ControlError::Busy {
            active: 4,
            limit: 4,
        };
        let mut client = Client::new(Scripted::new(std::slice::from_ref(&shed)));
        assert_eq!(client.submit_batch(1, Vec::new()), Err(expected.clone()));
        let mut client = Client::new(Scripted::new(std::slice::from_ref(&shed)));
        assert_eq!(client.stats(), Err(expected.clone()));
        let client = Client::new(Scripted::new(std::slice::from_ref(&shed)));
        assert_eq!(client.shutdown().err(), Some(expected));
    }

    #[test]
    fn equal_snapshots_encode_bit_identically() {
        // The snapshot wire form is a function of the values alone:
        // build the same snapshot twice with different insertion orders
        // and through different construction paths — identical bytes.
        let a = ControlFrame::Stats {
            snapshot: sample_snapshot(),
        }
        .encode();
        let mut reordered = MetricsSnapshot::default();
        let sample = sample_snapshot();
        for (k, v) in sample.counters.iter().rev() {
            reordered.counters.insert(k.clone(), *v);
        }
        reordered.gauges = sample.gauges.clone();
        reordered.float_gauges = sample.float_gauges.clone();
        reordered.histograms = sample.histograms.clone();
        let b = ControlFrame::Stats {
            snapshot: reordered,
        }
        .encode();
        assert_eq!(a, b);
    }

    /// Declared element counts in a `Stats` body are bounded by what the
    /// body could possibly hold — a crafted frame must never drive an
    /// allocation. One case per family, plus the per-histogram edges.
    #[test]
    fn stats_declared_counts_are_bounded() {
        // (families already emitted before the huge count, huge count's
        // position label)
        type Prefix<'a> = &'a dyn Fn(&mut Vec<u8>);
        let cases: [(Prefix, &str); 4] = [
            (&|_body| {}, "counters"),
            (&|body| put_varint(body, 0), "gauges"),
            (
                &|body| {
                    put_varint(body, 0);
                    put_varint(body, 0);
                },
                "float gauges",
            ),
            (
                &|body| {
                    put_varint(body, 0);
                    put_varint(body, 0);
                    put_varint(body, 0);
                },
                "histograms",
            ),
        ];
        for (prefix, label) in cases {
            let mut body = Vec::new();
            prefix(&mut body);
            put_varint(&mut body, u64::MAX >> 2); // preposterous count
            assert_eq!(
                ControlFrame::decode_payload(&sealed(0x08, &body)),
                Err(ControlError::Body(CodecError::LengthOverflow)),
                "family: {label}"
            );
        }
        // A histogram declaring more edges than the body holds.
        let mut body = Vec::new();
        put_varint(&mut body, 0); // counters
        put_varint(&mut body, 0); // gauges
        put_varint(&mut body, 0); // float gauges
        put_varint(&mut body, 1); // one histogram
        put_bytes(&mut body, b"h");
        put_varint(&mut body, 1 << 30); // preposterous edge count
        assert_eq!(
            ControlFrame::decode_payload(&sealed(0x08, &body)),
            Err(ControlError::Body(CodecError::LengthOverflow)),
            "histogram edges"
        );
    }

    /// A canned transport: reads from a scripted response stream, records
    /// everything the client writes.
    struct Scripted {
        responses: io::Cursor<Vec<u8>>,
        sent: Vec<u8>,
    }

    impl Scripted {
        fn new(frames: &[ControlFrame]) -> Self {
            let mut responses = Vec::new();
            for frame in frames {
                responses.extend_from_slice(&frame.encode());
            }
            Scripted {
                responses: io::Cursor::new(responses),
                sent: Vec::new(),
            }
        }
    }

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.responses.read(buf)
        }
    }

    impl Write for Scripted {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.sent.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn client_collects_in_order_verdicts_and_summary() {
        let verdict = sample_verdict();
        let summary = sample_summary();
        let mut client = Client::new(Scripted::new(&[
            ControlFrame::Verdict {
                batch_id: 5,
                index: 0,
                verdict: verdict.clone(),
            },
            ControlFrame::Verdict {
                batch_id: 5,
                index: 1,
                verdict: verdict.clone(),
            },
            ControlFrame::Summary {
                batch_id: 5,
                workers: 2,
                peak_resident: 3,
                summary: summary.clone(),
            },
        ]));
        let mut seen = Vec::new();
        let outcome = client
            .submit_batch_with(5, vec![1, 2, 3], |i, _| seen.push(i))
            .expect("protocol clean");
        assert_eq!(seen, vec![0, 1]);
        assert_eq!(outcome.verdicts, vec![verdict.clone(), verdict]);
        assert_eq!(
            outcome.result,
            Ok(BatchSummary {
                workers: 2,
                peak_resident: 3,
                summary
            })
        );
        // The request actually went out as one SubmitBatch frame.
        let sent = client.into_inner().sent;
        assert_eq!(
            ControlFrame::read_from(&mut &sent[..])
                .expect("decodes")
                .expect("one frame"),
            ControlFrame::SubmitBatch {
                batch_id: 5,
                tdrb: vec![1, 2, 3],
                reference: None,
            }
        );
    }

    #[test]
    fn client_surfaces_in_band_errors_with_partial_verdicts() {
        let verdict = sample_verdict();
        let mut client = Client::new(Scripted::new(&[
            ControlFrame::Verdict {
                batch_id: 9,
                index: 0,
                verdict: verdict.clone(),
            },
            ControlFrame::Error {
                batch_id: 9,
                message: "session 1 failed to decode".to_string(),
            },
        ]));
        let outcome = client.submit_batch(9, Vec::new()).expect("protocol clean");
        assert_eq!(outcome.verdicts, vec![verdict]);
        assert_eq!(
            outcome.result,
            Err("session 1 failed to decode".to_string())
        );
    }

    #[test]
    fn client_rejects_foreign_ids_out_of_order_and_disconnects() {
        // Wrong batch id.
        let mut client = Client::new(Scripted::new(&[ControlFrame::Summary {
            batch_id: 8,
            workers: 1,
            peak_resident: 1,
            summary: sample_summary(),
        }]));
        assert_eq!(
            client.submit_batch(7, Vec::new()),
            Err(ControlError::UnexpectedFrame("Summary (foreign batch id)"))
        );
        // Out-of-order verdict index.
        let mut client = Client::new(Scripted::new(&[ControlFrame::Verdict {
            batch_id: 7,
            index: 1,
            verdict: sample_verdict(),
        }]));
        assert_eq!(
            client.submit_batch(7, Vec::new()),
            Err(ControlError::UnexpectedFrame("Verdict (out of order)"))
        );
        // Daemon hangs up cleanly before the terminating frame.
        let mut client = Client::new(Scripted::new(&[]));
        assert_eq!(
            client.submit_batch(7, Vec::new()),
            Err(ControlError::Disconnected)
        );
        // A request-only frame arriving as a response.
        let mut client = Client::new(Scripted::new(&[ControlFrame::Shutdown]));
        assert_eq!(
            client.submit_batch(7, Vec::new()),
            Err(ControlError::UnexpectedFrame("Shutdown"))
        );
    }

    #[test]
    fn client_stats_roundtrip_and_error_cases() {
        // Happy path: one StatsRequest out, one Stats back.
        let snapshot = sample_snapshot();
        let mut client = Client::new(Scripted::new(&[ControlFrame::Stats {
            snapshot: snapshot.clone(),
        }]));
        assert_eq!(client.stats(), Ok(snapshot));
        let sent = client.into_inner().sent;
        assert_eq!(
            ControlFrame::read_from(&mut &sent[..])
                .expect("decodes")
                .expect("one frame"),
            ControlFrame::StatsRequest
        );
        // Daemon hangs up before answering.
        let mut client = Client::new(Scripted::new(&[]));
        assert_eq!(client.stats(), Err(ControlError::Disconnected));
        // Any other frame in place of Stats is a protocol violation.
        let mut client = Client::new(Scripted::new(&[ControlFrame::ShutdownAck]));
        assert_eq!(
            client.stats(),
            Err(ControlError::UnexpectedFrame("ShutdownAck"))
        );
    }

    #[test]
    fn submit_batch_v2_reference_id_must_be_exactly_32_bytes() {
        // A v2 remainder shorter than an id is truncation; longer is
        // trailing garbage. Both re-sealed so the CRC is not the check
        // that fires.
        let clean = ControlFrame::SubmitBatch {
            batch_id: 7,
            tdrb: vec![1, 2, 3],
            reference: Some(sample_reference_id()),
        }
        .encode();
        for drop in [1usize, 31] {
            let mut patched = clean.clone();
            patched.truncate(clean.len() - 4 - drop); // strip CRC + id tail
            let crc = crc32(&patched[8..]);
            patched.extend_from_slice(&crc.to_le_bytes());
            let len = (patched.len() - 4) as u32;
            patched[..4].copy_from_slice(&len.to_le_bytes());
            assert_eq!(
                ControlFrame::read_from(&mut &patched[..]),
                Err(ControlError::Truncated),
                "dropped {drop} id bytes"
            );
        }
        let mut longer = clean.clone();
        longer.insert(clean.len() - 4, 0xaa); // a 33rd id byte
        let len = (longer.len() - 4) as u32;
        longer[..4].copy_from_slice(&len.to_le_bytes());
        let n = longer.len();
        let crc = crc32(&longer[8..n - 4]);
        longer[n - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ControlFrame::read_from(&mut &longer[..]),
            Err(ControlError::TrailingBytes(1))
        );
    }

    #[test]
    fn reference_ack_unknown_status_byte_rejected() {
        // A CRC-valid ack with a status byte from the future must fail on
        // the *status*, not the checksum.
        let mut body = Vec::new();
        put_varint(&mut body, 1); // put_id
        body.extend_from_slice(&[0u8; 32]); // reference id
        body.push(0x7f); // unknown status
        put_varint(&mut body, 0); // resident_bytes
        assert_eq!(
            ControlFrame::decode_payload(&sealed(0x0b, &body)),
            Err(ControlError::BadAckStatus(0x7f))
        );
    }

    #[test]
    fn client_put_reference_roundtrip_and_in_band_rejection() {
        // Happy path: one PutReference out, a Loaded ack back.
        let id = sample_reference_id();
        let mut client = Client::new(Scripted::new(&[ControlFrame::ReferenceAck {
            put_id: 4,
            reference: id,
            status: AckStatus::Loaded,
            resident_bytes: 999,
        }]));
        assert_eq!(
            client.put_reference(4, vec![1, 2, 3]),
            Ok(PutOutcome {
                reference: id,
                status: AckStatus::Loaded,
                resident_bytes: 999,
            })
        );
        let sent = client.into_inner().sent;
        assert_eq!(
            ControlFrame::read_from(&mut &sent[..])
                .expect("decodes")
                .expect("one frame"),
            ControlFrame::PutReference {
                put_id: 4,
                tdrp: vec![1, 2, 3]
            }
        );
        // A rejected container is in-band data, not a protocol error.
        let mut client = Client::new(Scripted::new(&[ControlFrame::ReferenceAck {
            put_id: 5,
            reference: ReferenceId([0; 32]),
            status: AckStatus::Rejected("container checksum mismatch".to_string()),
            resident_bytes: 0,
        }]));
        let outcome = client.put_reference(5, vec![0xff]).expect("in-band");
        assert_eq!(
            outcome.status,
            AckStatus::Rejected("container checksum mismatch".to_string())
        );
        // A foreign put id is a protocol violation.
        let mut client = Client::new(Scripted::new(&[ControlFrame::ReferenceAck {
            put_id: 99,
            reference: id,
            status: AckStatus::Loaded,
            resident_bytes: 0,
        }]));
        assert_eq!(
            client.put_reference(5, Vec::new()),
            Err(ControlError::UnexpectedFrame(
                "ReferenceAck (foreign put id)"
            ))
        );
        // Hangup before the ack.
        let mut client = Client::new(Scripted::new(&[]));
        assert_eq!(
            client.put_reference(5, Vec::new()),
            Err(ControlError::Disconnected)
        );
    }

    #[test]
    fn client_submit_batch_for_sends_v2_and_maps_unknown_reference() {
        let id = sample_reference_id();
        // An Unknown ack echoing the batch id becomes the typed error.
        let mut client = Client::new(Scripted::new(&[ControlFrame::ReferenceAck {
            put_id: 11,
            reference: id,
            status: AckStatus::Unknown,
            resident_bytes: 0,
        }]));
        assert_eq!(
            client.submit_batch_for(11, vec![1, 2], id),
            Err(ControlError::UnknownReference(id))
        );
        let sent = client.into_inner().sent;
        assert_eq!(
            ControlFrame::read_from(&mut &sent[..])
                .expect("decodes")
                .expect("one frame"),
            ControlFrame::SubmitBatch {
                batch_id: 11,
                tdrb: vec![1, 2],
                reference: Some(id),
            }
        );
        // An Unknown ack with a foreign id is a protocol violation.
        let mut client = Client::new(Scripted::new(&[ControlFrame::ReferenceAck {
            put_id: 99,
            reference: id,
            status: AckStatus::Unknown,
            resident_bytes: 0,
        }]));
        assert_eq!(
            client.submit_batch_for(11, Vec::new(), id),
            Err(ControlError::UnexpectedFrame(
                "ReferenceAck (foreign batch id)"
            ))
        );
    }

    #[test]
    fn client_shutdown_handshake() {
        let client = Client::new(Scripted::new(&[ControlFrame::ShutdownAck]));
        let transport = client.shutdown().expect("acked");
        assert_eq!(
            ControlFrame::read_from(&mut &transport.sent[..])
                .expect("decodes")
                .expect("one frame"),
            ControlFrame::Shutdown
        );
        let client = Client::new(Scripted::new(&[]));
        assert_eq!(client.shutdown().err(), Some(ControlError::Disconnected));
    }
}
