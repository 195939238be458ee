//! Protocol torture suite: seeded random corruption of every wire format.
//!
//! Takes pinned-good TDRC control frames, TDRL logs, and TDRB batches,
//! applies ~1k seeded random mutations — bit flips, truncations,
//! length-prefix inflation, duplicated and interleaved frames, byte-span
//! rewrites — and requires that **every** mutation either decodes to
//! something self-consistent (re-encode → re-decode identical) or fails
//! with a *typed* error. No mutation may panic, hang, or (for the daemon)
//! end the serve loop: a daemon handed a corrupted embedded batch answers
//! with an in-band `Error` frame and keeps serving.
//!
//! The vendored `rand` is deterministic per seed, so every failure here
//! reproduces exactly; the panic message names the corpus and seed.

use std::collections::BTreeSet;
use std::io::{self, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::{rngs::StdRng, SeedableRng};
use sanity_tdr::audit_pipeline::control::DEFAULT_MAX_CONTROL_FRAME;
use sanity_tdr::audit_pipeline::service::duplex;
use sanity_tdr::audit_pipeline::{ingest, AuditVerdict, BatchStream, FleetSummary};
use sanity_tdr::jbc::{container, crc::crc32};
use sanity_tdr::replay::{EventLog, PacketRecord};
use sanity_tdr::{
    AckStatus, AuditConfig, AuditJob, BusyScope, Client, ControlError, ControlFrame,
    DetectorBattery, MetricsSnapshot, ReferenceId,
};

#[path = "torture_common.rs"]
mod torture_common;
use torture_common::{echo_jobs, echo_sanity, mutate};

// ---------------------------------------------------------------------------
// Good corpora
// ---------------------------------------------------------------------------

/// A small synthetic event log (structurally valid; never replayed by the
/// decode-level torture, so contents only need to round-trip).
fn sample_log(salt: u64) -> EventLog {
    EventLog {
        packets: vec![
            PacketRecord {
                icount: 1_000 + salt,
                avail_at: 52_000,
                wire_at: 50_000,
                data: vec![salt as u8; 48],
            },
            PacketRecord {
                icount: 9_500 + salt,
                avail_at: 410_000,
                wire_at: 400_000,
                data: (0..64).collect(),
            },
        ],
        values: vec![1_000_000, 1_000_450 + salt, 999_999],
        final_icount: 123_456 + salt,
        final_cycles: 987_654 + salt,
        final_wall_ps: 7_777_777 + salt as u128,
    }
}

/// One TDRB batch of synthetic sessions.
fn tdrb_corpus() -> Vec<u8> {
    let jobs: Vec<AuditJob> = (0..3u64)
        .map(|id| AuditJob {
            session_id: id,
            observed_ipds: vec![350_000 + id, 360_000, 355_500],
            log: sample_log(id),
        })
        .collect();
    ingest::encode_batch(&jobs)
}

/// The main sweep's TDRC frames: the batch exchange and shutdown.
fn tdrc_frames() -> Vec<ControlFrame> {
    let verdict = AuditVerdict {
        session_id: 7,
        score: 0.015,
        flagged: false,
        tx_packets: 3,
        replayed_cycles: 1_000,
        detector_scores: [("Sanity".to_string(), 0.015), ("KS test".to_string(), -0.5)]
            .into_iter()
            .collect(),
        error: None,
    };
    let summary = FleetSummary::from_verdicts(std::slice::from_ref(&verdict));
    vec![
        ControlFrame::SubmitBatch {
            batch_id: 1,
            tdrb: tdrb_corpus(),
            reference: None,
        },
        ControlFrame::Verdict {
            batch_id: 1,
            index: 0,
            verdict,
        },
        ControlFrame::Summary {
            batch_id: 1,
            workers: 2,
            peak_resident: 4,
            summary,
        },
        ControlFrame::Error {
            batch_id: 2,
            message: "session 1 failed to decode".to_string(),
        },
        ControlFrame::Shutdown,
        ControlFrame::ShutdownAck,
    ]
}

/// `frames`, encoded back to back.
fn concat(frames: &[ControlFrame]) -> Vec<u8> {
    frames.iter().flat_map(ControlFrame::encode).collect()
}

/// Stats-plane frames: a `StatsRequest` plus `Stats` frames carrying a
/// populated snapshot (counters, gauges, float gauges with
/// non-finite-adjacent values, a histogram) and an empty one.
fn stats_frames() -> Vec<ControlFrame> {
    let mut populated = MetricsSnapshot::default();
    populated
        .counters
        .insert("sessions_audited".to_string(), 48);
    populated.counters.insert("bytes_in".to_string(), u64::MAX);
    populated.gauges.insert("conn_active".to_string(), 4);
    populated
        .float_gauges
        .insert("uptime_seconds".to_string(), 12.5);
    populated
        .float_gauges
        .insert("retrain_drift_mean".to_string(), -0.0);
    populated.histograms.insert(
        "verdict_latency_us".to_string(),
        sanity_tdr::audit_pipeline::obs::HistogramSnapshot {
            edges: vec![50.0, 100.0, 250.0],
            counts: vec![1, 2, 3, 4],
            total: 10,
            sum: 1_234.5,
        },
    );
    vec![
        ControlFrame::StatsRequest,
        ControlFrame::Stats {
            snapshot: populated,
        },
        ControlFrame::Stats {
            snapshot: MetricsSnapshot::default(),
        },
    ]
}

/// Governance-plane frames: a `Busy` refusal of every scope, with
/// boundary batch ids and limits.
fn busy_frames() -> Vec<ControlFrame> {
    vec![
        // The FORMATS.md §5.6 worked example: a connection-level refusal.
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
    ]
}

/// Registry-plane frames: `PutReference` carrying a real sealed
/// container, `ReferenceAck` with every status (a `Rejected` message and
/// boundary ids included), and a v2 `SubmitBatch` so the sweep also
/// crosses the optional-trailer boundary.
fn reference_frames() -> Vec<ControlFrame> {
    let sanity = echo_sanity();
    let program = sanity.program();
    let id = container::reference_id(program);
    vec![
        ControlFrame::PutReference {
            put_id: 1,
            tdrp: container::seal(program),
        },
        ControlFrame::ReferenceAck {
            put_id: 1,
            reference: id,
            status: AckStatus::Loaded,
            resident_bytes: 989,
        },
        ControlFrame::ReferenceAck {
            put_id: u64::MAX,
            reference: ReferenceId([0xab; 32]),
            status: AckStatus::AlreadyResident,
            resident_bytes: u64::MAX,
        },
        ControlFrame::ReferenceAck {
            put_id: 2,
            reference: ReferenceId([0; 32]),
            status: AckStatus::Rejected("container CRC mismatch".to_string()),
            resident_bytes: 0,
        },
        ControlFrame::ReferenceAck {
            put_id: 3,
            reference: id,
            status: AckStatus::Unknown,
            resident_bytes: 2_716,
        },
        ControlFrame::SubmitBatch {
            batch_id: 9,
            tdrb: tdrb_corpus(),
            reference: Some(id),
        },
    ]
}

/// Battery-plane frames: `PutBattery` carrying a real trained battery's
/// canonical JSON, and `BatteryAck` loaded and rejected.
fn battery_frames() -> Vec<ControlFrame> {
    let clean: Vec<Vec<u64>> = (0..4u64)
        .map(|k| {
            (0..6u64)
                .map(|i| 350_000 + 1_000 * ((i * 7 + k * 3) % 5))
                .collect()
        })
        .collect();
    vec![
        ControlFrame::PutBattery {
            put_id: 4,
            json: DetectorBattery::trained(&clean).to_json(),
        },
        ControlFrame::BatteryAck {
            put_id: 4,
            generation: 2,
            status: AckStatus::Loaded,
        },
        ControlFrame::BatteryAck {
            put_id: 5,
            generation: 0,
            status: AckStatus::Rejected("battery is untrained".to_string()),
        },
    ]
}

// ---------------------------------------------------------------------------
// The mutation sweep (the mutator itself lives in `torture_common`)
// ---------------------------------------------------------------------------

/// Run `decode` over a seeded mutation sweep; any panic is reported with
/// the corpus name and seed so it reproduces deterministically.
fn sweep(corpus_name: &str, base: &[u8], mutations: usize, decode: impl Fn(&[u8])) {
    for seed in 0..mutations as u64 {
        let mut rng = StdRng::seed_from_u64(0x7d5e_0000 + seed);
        let mutated = mutate(&mut rng, base);
        let outcome = catch_unwind(AssertUnwindSafe(|| decode(&mutated)));
        assert!(
            outcome.is_ok(),
            "{corpus_name} seed {seed}: decoder panicked on a {}-byte mutation",
            mutated.len()
        );
    }
}

// ---------------------------------------------------------------------------
// Transports for the frame reader: how the bytes arrive must never change
// what they decode to
// ---------------------------------------------------------------------------

/// Hands out at most one byte per `read()`: every length prefix, payload
/// and frame boundary arrives split as finely as a transport can split it.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match (buf.first_mut(), self.0.split_first()) {
            (Some(slot), Some((&b, rest))) => {
                *slot = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// Hands out its bytes, then times out (a peer that stalls instead of
/// closing), as a socket with a read timeout does.
struct Stalls<'a>(&'a [u8]);

impl Read for Stalls<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.0.is_empty() && !buf.is_empty() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "peer stalled"));
        }
        self.0.read(buf)
    }
}

/// Every frame `reader` yields (re-encoded, so scores compare by bits),
/// then how the stream ended: `None` at a clean boundary, or the error.
fn read_all(mut reader: impl Read) -> (Vec<Vec<u8>>, Option<ControlError>) {
    let mut frames = Vec::new();
    loop {
        match ControlFrame::read_from(&mut reader) {
            Ok(None) => return (frames, None),
            Ok(Some(frame)) => frames.push(frame.encode()),
            Err(e) => return (frames, Some(e)),
        }
    }
}

/// The TDRC contract for one input: read at once and one byte per read,
/// it yields the same frames and the same error; and every frame that
/// survives corruption is self-consistent, re-encoding to the bytes it
/// was decoded from.
fn check_tdrc(bytes: &[u8]) {
    let (frames, end) = read_all(bytes);
    assert_eq!(
        read_all(OneByte(bytes)),
        (frames.clone(), end),
        "one byte per read"
    );
    for frame in frames {
        let back = ControlFrame::read_from(&mut &frame[..])
            .expect("re-encoded frame decodes")
            .expect("one frame");
        assert_eq!(back.encode(), frame);
    }
}

// ---------------------------------------------------------------------------
// Decode-level torture: typed errors or self-consistent decodes, never a
// panic
// ---------------------------------------------------------------------------

/// Besides the pinned-good stream, the sweep mutates two short ones — the
/// stream cut off inside a frame's payload, and a declared length at the
/// bound followed by one frame's worth of payload and EOF — and reads
/// every input both at once and through a one-byte-per-read transport,
/// which must see the same frames and errors.
#[test]
fn tdrc_survives_a_thousand_seeded_mutations() {
    use ControlError::{FrameTooLarge, Io, Truncated};
    let base = concat(&tdrc_frames());
    let (frames, end) = read_all(&base[..]);
    assert_eq!((frames.concat(), end), (base.clone(), None));

    // Unmutated, each short input has one classification. A frame cut
    // anywhere in its payload is `Truncated` after every complete frame
    // before it (a peer that stalls there instead surfaces its timeout); a
    // declared length at the bound with too few bytes behind it is
    // `Truncated`, one past the bound is `FrameTooLarge`.
    let timed_out = Some(Io(io::ErrorKind::TimedOut, "peer stalled".to_string()));
    let mut at = 0;
    for (k, frame) in frames.iter().enumerate() {
        for cut in [at + 5, at + frame.len() / 2, at + frame.len() - 1] {
            let stream = &base[..cut];
            let before = frames[..k].to_vec();
            assert_eq!(
                read_all(stream),
                (before.clone(), Some(Truncated)),
                "frame {k} cut at {cut}"
            );
            assert_eq!(
                read_all(Stalls(stream)),
                (before, timed_out.clone()),
                "frame {k} stalls at {cut}"
            );
        }
        at += frame.len();
    }
    let cut = &base[..frames[0].len() + frames[1].len() / 2];
    let declared = |len: usize| {
        let mut out = (len as u32).to_le_bytes().to_vec();
        out.extend_from_slice(&frames[1][4..]);
        out
    };
    let near = declared(DEFAULT_MAX_CONTROL_FRAME);
    assert_eq!(read_all(&near[..]), (vec![], Some(Truncated)));
    assert_eq!(read_all(Stalls(&near)), (vec![], timed_out));
    let past = DEFAULT_MAX_CONTROL_FRAME + 1;
    let too_large = Some(FrameTooLarge {
        len: past,
        max: DEFAULT_MAX_CONTROL_FRAME,
    });
    assert_eq!(read_all(&declared(past)[..]), (vec![], too_large));

    for (name, input, mutations) in [
        ("TDRC", &base[..], 350),
        ("TDRC cut mid-payload", cut, 60),
        ("TDRC near-bound length", &near[..], 60),
    ] {
        sweep(name, input, mutations, check_tdrc);
    }
}

/// The per-kind rows of the TDRC torture table: pinned-good frames, and
/// how many seeded mutations of their concatenation to try. Every row is
/// held to the main sweep's contract ([`check_tdrc`]).
fn torture_rows() -> [(&'static str, Vec<ControlFrame>, usize); 4] {
    [
        ("TDRC-stats", stats_frames(), 100),
        ("TDRC-busy", busy_frames(), 100),
        ("TDRC-reference", reference_frames(), 100),
        ("TDRC-battery", battery_frames(), 100),
    ]
}

/// The row whose frames cover each kind ("TDRC" is the main sweep). No
/// wildcard arm: a new frame kind does not compile until it has a row.
fn row_of(frame: &ControlFrame) -> &'static str {
    match frame {
        ControlFrame::SubmitBatch { .. }
        | ControlFrame::Verdict { .. }
        | ControlFrame::Summary { .. }
        | ControlFrame::Error { .. }
        | ControlFrame::Shutdown
        | ControlFrame::ShutdownAck => "TDRC",
        ControlFrame::StatsRequest | ControlFrame::Stats { .. } => "TDRC-stats",
        ControlFrame::Busy { .. } => "TDRC-busy",
        ControlFrame::PutReference { .. } | ControlFrame::ReferenceAck { .. } => "TDRC-reference",
        ControlFrame::PutBattery { .. } | ControlFrame::BatteryAck { .. } => "TDRC-battery",
    }
}

fn sweep_row(name: &str) {
    let (_, frames, mutations) = torture_rows()
        .into_iter()
        .find(|(row, ..)| *row == name)
        .expect("a row of the torture table");
    sweep(name, &concat(&frames), mutations, check_tdrc);
}

/// Every kind the decoder knows has a row, and that row carries a frame
/// of the kind. The decoder's kinds are counted by asking it: a kind byte
/// it does not know is `UnknownKind`, whatever the body.
#[test]
fn every_frame_kind_has_a_torture_row() {
    let known = (0..=u8::MAX)
        .filter(|&kind| {
            let mut payload = b"TDRC\x01\x00\x00\x00".to_vec();
            payload.push(kind);
            let crc = crc32(&payload[4..]);
            payload.extend_from_slice(&crc.to_le_bytes());
            ControlFrame::decode_payload(&payload) != Err(ControlError::UnknownKind(kind))
        })
        .count();
    let mut rows = vec![("TDRC", tdrc_frames())];
    rows.extend(torture_rows().map(|(name, frames, _)| (name, frames)));
    let mut covered = BTreeSet::new();
    for (_, frames) in &rows {
        for frame in frames {
            let (_, home) = rows
                .iter()
                .find(|(name, _)| *name == row_of(frame))
                .expect("row_of names a row");
            assert!(
                home.iter().any(|f| f.kind_name() == frame.kind_name()),
                "{} has no frame in its row {}",
                frame.kind_name(),
                row_of(frame)
            );
            covered.insert(frame.kind_name());
        }
    }
    assert_eq!(covered.len(), known, "kinds covered: {covered:?}");
}

/// The stats plane: a forged count must never drive an unbounded
/// allocation.
#[test]
fn stats_frames_survive_a_hundred_seeded_mutations() {
    sweep_row("TDRC-stats");
}

/// The governance plane: corruption, unknown scope bytes (`BadScope`) and
/// truncation are typed; a forged refusal never panics or hangs a client.
#[test]
fn busy_frames_survive_a_hundred_seeded_mutations() {
    sweep_row("TDRC-busy");
}

/// The registry plane, across the v2 `SubmitBatch` trailer boundary.
#[test]
fn reference_frames_survive_a_hundred_seeded_mutations() {
    sweep_row("TDRC-reference");
}

/// The battery plane: a real battery's JSON and both ack outcomes.
#[test]
fn battery_frames_survive_a_hundred_seeded_mutations() {
    sweep_row("TDRC-battery");
}

/// The TDRP reference container under the same contract: ~100 seeded
/// mutations of a pinned-good sealed container each fail with a typed
/// [`ContainerError`](sanity_tdr::jbc::ContainerError) (CRC, digest,
/// magic, truncation, forged lengths) or open to the *same* program —
/// the container is digest-addressed and canonical-encoding-checked, so
/// a mutation that survives `open` by construction changed nothing that
/// matters. Never a panic, never an unbounded allocation.
#[test]
fn tdrp_containers_survive_a_hundred_seeded_mutations() {
    let sanity = echo_sanity();
    let program = sanity.program();
    let base = container::seal(program);
    let want_id = container::reference_id(program);
    sweep("TDRP", &base, 100, |bytes| {
        match container::open(bytes) {
            Err(_typed) => {} // a typed ContainerError, by type
            Ok((id, opened)) => {
                // Digest addressing means a surviving open IS the sealed
                // program: same id, and re-sealing round-trips.
                assert_eq!(id, want_id, "surviving open changed the reference id");
                assert_eq!(container::seal(&opened), base);
            }
        }
    });
}

#[test]
fn tdrl_survives_a_thousand_seeded_mutations() {
    for salt in 0..3 {
        let base = sample_log(salt).encode();
        sweep(&format!("TDRL log {salt}"), &base, 350, |bytes| {
            // A typed CodecError, or a log that re-encodes and re-decodes
            // identically.
            if let Ok(log) = EventLog::decode(bytes) {
                let re = log.encode();
                assert_eq!(EventLog::decode(&re).expect("re-decodes"), log);
            }
        });
    }
}

#[test]
fn tdrb_survives_a_thousand_seeded_mutations() {
    let base = tdrb_corpus();
    sweep("TDRB", &base, 350, |bytes| {
        let stream = match BatchStream::new(bytes) {
            Ok(stream) => stream,
            Err(_typed) => return, // a typed IngestError
        };
        for item in stream {
            match item {
                Ok(_job) => {}
                Err(_typed) => break, // a typed IngestError
            }
        }
    });
}

// ---------------------------------------------------------------------------
// Daemon-level torture: corrupted embedded batches are answered in-band
// ---------------------------------------------------------------------------

/// Mutated TDRB payloads inside *valid* `SubmitBatch` frames: every
/// submission is answered in-band (`Error`, or verdicts + `Summary` for
/// the rare mutation that leaves the batch decodable) and the daemon
/// keeps serving — the final good batch comes back bit-identical to the
/// in-process audit.
#[test]
fn daemon_answers_corrupted_batches_in_band_and_keeps_serving() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..3);
    let good = ingest::encode_batch(&jobs);
    let cfg = AuditConfig {
        workers: 2,
        ..AuditConfig::default()
    };
    let expected = sanity.audit_batch(&jobs, &cfg);

    let service = sanity
        .audit_service()
        .workers(2)
        .build()
        .expect("valid service configuration");
    let (client_end, server_end) = duplex();
    let daemon = std::thread::spawn(move || {
        let outcome = service.serve(&server_end, &server_end);
        service.shutdown();
        outcome
    });

    let mut client = Client::new(&client_end);
    let mut in_band_errors = 0usize;
    let mut clean_decodes = 0usize;
    let mut rng = StdRng::seed_from_u64(0x7d5e_da11);
    const MUTATIONS: usize = 40;
    for m in 0..MUTATIONS as u64 {
        let bad = mutate(&mut rng, &good);
        // The *control* frame is valid; only the embedded TDRB is
        // corrupt. The exchange itself must therefore stay protocol-clean.
        let outcome = client
            .submit_batch(m, bad)
            .expect("corrupted batch content must never become a protocol error");
        match outcome.result {
            Err(_message) => in_band_errors += 1,
            Ok(summary) => {
                // The mutation left a decodable batch (e.g. a zero-length
                // duplication). Whatever decoded was audited for real.
                assert_eq!(summary.summary.sessions, outcome.verdicts.len() as u64);
                clean_decodes += 1;
            }
        }
    }
    assert!(
        in_band_errors > MUTATIONS / 2,
        "mutations should mostly corrupt the batch (got {in_band_errors} errors, \
         {clean_decodes} clean)"
    );

    // The daemon survived all of it: the next good batch is bit-identical
    // to the in-process audit.
    let outcome = client
        .submit_batch(999, good)
        .expect("daemon still speaks clean protocol");
    let summary = outcome.result.expect("good batch audits");
    assert_eq!(summary.summary, expected.summary);
    assert_eq!(outcome.verdicts.len(), expected.verdicts.len());
    for (wire, local) in outcome.verdicts.iter().zip(&expected.verdicts) {
        assert_eq!(wire, local);
        assert_eq!(wire.score.to_bits(), local.score.to_bits());
    }

    client.shutdown().expect("ack");
    drop(client_end);
    daemon
        .join()
        .expect("daemon thread")
        .expect("serve loop exits cleanly");
}
