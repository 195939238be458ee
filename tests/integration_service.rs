//! Integration suite for the persistent `AuditService`: warm-service
//! reuse is byte-identical to fresh one-shot calls across worker counts
//! and battery modes, tickets cancel cleanly, shutdown drains in-flight
//! work, the daemon loop over an in-memory duplex audits a TDRB batch
//! end to end through the TDRC control plane, and a battery writer
//! (`verdict::retrain` plus `PutBattery`) reproduces the generations
//! in-service retraining recorded. One worker that audits a mixed
//! sequence, every session after the first on the cache and BTB storage
//! the previous replay left on its thread, gives each session the verdict
//! a newly spawned thread gives it, and a replay that panics costs its
//! session an error verdict, not the worker.

use std::io::{self, Cursor, Read};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use sanity_tdr::audit_pipeline::service::duplex;
use sanity_tdr::audit_pipeline::verdict::retrain;
use sanity_tdr::audit_pipeline::{ingest, AuditVerdict, FleetSummary, Reference, ReferenceCache};
use sanity_tdr::detectors::DetectorBattery;
use sanity_tdr::jbc::{container, Program};
use sanity_tdr::{
    AuditConfig, AuditJob, AuditService, BatchTicket, BatteryMode, Client, ConfigError,
    ControlFrame, ReferenceId, Sanity, Source,
};
use workloads::artifacts::registry_artifacts;
use workloads::nfs::{encode_request, OP_LOOKUP};
use workloads::scimark::fft_program;

#[path = "torture_common.rs"]
mod torture_common;
use torture_common::{
    fleet, fnv1a, nfs_sanity, picky_job, picky_program, trained_on_clean, verdict_bytes,
    writer_fixture, writer_round, WRITER_ROUNDS,
};

/// Submit owned copies of `jobs` against the service's built-in reference.
fn submit_jobs(service: &AuditService, jobs: &[AuditJob]) -> BatchTicket {
    service
        .submit(jobs.to_vec(), None)
        .expect("the built-in reference is always resident")
}

/// Submit a TDRB byte stream against the service's built-in reference.
fn submit_tdrb(service: &AuditService, tdrb: Vec<u8>) -> BatchTicket {
    let source = Source::tdrb(Cursor::new(tdrb)).expect("header decodes");
    service
        .submit(source, None)
        .expect("the built-in reference is always resident")
}

#[test]
fn warm_service_reuse_is_byte_identical_to_one_shot() {
    let sanity = nfs_sanity(14);
    let batch_a = fleet(&sanity, 0..4, 2);
    let batch_b = fleet(&sanity, 4..8, 6);
    let battery = trained_on_clean(&batch_a, 2);
    let with_battery = sanity.clone().with_battery(battery);

    for workers in [1usize, 4] {
        for mode in [BatteryMode::TdrOnly, BatteryMode::Full] {
            let system = match mode {
                BatteryMode::TdrOnly => &sanity,
                BatteryMode::Full => &with_battery,
            };
            let cfg = AuditConfig {
                workers,
                battery: mode,
                ..AuditConfig::default()
            };

            // Two batches through one warm service...
            let service = system
                .audit_service()
                .workers(workers)
                .battery(mode)
                .build()
                .expect("valid service configuration");
            let warm_a = submit_jobs(&service, &batch_a).wait().expect("audits");
            let warm_b = submit_jobs(&service, &batch_b).wait().expect("audits");
            service.shutdown();

            // ...must equal two fresh one-shot calls, byte for byte.
            let cold_a = system.audit_batch(&batch_a, &cfg);
            let cold_b = system.audit_batch(&batch_b, &cfg);
            assert_eq!(
                warm_a, cold_a,
                "{workers} workers, {mode:?}: first batch diverged"
            );
            assert_eq!(
                warm_b, cold_b,
                "{workers} workers, {mode:?}: second batch diverged"
            );
            for (w, c) in warm_a.verdicts.iter().zip(&cold_a.verdicts) {
                assert_eq!(w.score.to_bits(), c.score.to_bits());
                for (name, score) in &w.detector_scores {
                    assert_eq!(score.to_bits(), c.detector_scores[name].to_bits());
                }
            }
        }
    }
}

#[test]
fn warm_stream_submission_matches_one_shot_audit_stream() {
    let sanity = nfs_sanity(14);
    let jobs = fleet(&sanity, 0..4, 2);
    let bytes = ingest::encode_batch(&jobs);
    let cfg = AuditConfig {
        workers: 2,
        high_water: 2,
        ..AuditConfig::default()
    };
    let one_shot = sanity.audit_stream(&bytes[..], &cfg).expect("audits");

    let service = sanity
        .audit_service()
        .workers(2)
        .high_water(2)
        .build()
        .expect("valid service configuration");
    let warm_1 = submit_tdrb(&service, bytes.clone()).wait().expect("audits");
    let warm_2 = submit_tdrb(&service, bytes).wait().expect("audits");
    service.shutdown();

    assert_eq!(warm_1, one_shot, "warm streamed == one-shot streamed");
    assert_eq!(warm_2, one_shot, "resubmission is reproducible");
    assert!(warm_1.peak_resident <= 2);
}

#[test]
fn ticket_drop_cancels_and_shutdown_drains_inflight() {
    let sanity = nfs_sanity(14);
    let jobs = fleet(&sanity, 0..6, 2);
    let service = sanity
        .audit_service()
        .workers(1)
        .build()
        .expect("valid service configuration");

    // Cancel: drop the ticket with everything still queued on one worker.
    drop(submit_jobs(&service, &jobs));

    // The service survives and audits the next submission in full.
    let ticket = submit_jobs(&service, &jobs[..2]);

    // Shutdown with that ticket in flight: the queue drains first.
    let baseline = sanity.audit_batch(
        &jobs[..2],
        &AuditConfig {
            workers: 1,
            ..AuditConfig::default()
        },
    );
    service.shutdown();
    let report = ticket.wait().expect("inflight ticket drains");
    assert_eq!(report.verdicts.len(), 2);
    assert_eq!(report.summary, baseline.summary);
}

/// A TDRB reader that trickles its bytes out 64 at a time, sleeping
/// before each read, and raises `dropped` when it is dropped.
struct SlowReader {
    bytes: Cursor<Vec<u8>>,
    dropped: Arc<AtomicBool>,
}

impl Read for SlowReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        std::thread::sleep(Duration::from_millis(1));
        let n = buf.len().min(64);
        self.bytes.read(&mut buf[..n])
    }
}

impl Drop for SlowReader {
    fn drop(&mut self) {
        self.dropped.store(true, Ordering::SeqCst);
    }
}

/// Dropping a streamed submission's ticket cancels it and waits for the
/// feeder thread: once `drop` returns, the feeder has let go of the
/// reader (and of its reference pin) instead of reading on, detached.
#[test]
fn ticket_drop_waits_for_the_feeder_to_release_its_reader() {
    let sanity = torture_common::echo_sanity();
    // About 13 KiB: over 200 sleeping reads, so the stream is still being
    // read long after the first verdict.
    let jobs = torture_common::echo_jobs(&sanity, 0..64);
    let dropped = Arc::new(AtomicBool::new(false));
    let reader = SlowReader {
        bytes: Cursor::new(ingest::encode_batch(&jobs)),
        dropped: Arc::clone(&dropped),
    };
    let service = sanity
        .audit_service()
        .workers(1)
        .build()
        .expect("valid service configuration");
    let source = Source::tdrb(reader).expect("header decodes");
    let mut ticket = service
        .submit(source, None)
        .expect("the built-in reference is always resident");
    ticket.recv().expect("a first verdict");
    assert!(
        !dropped.load(Ordering::SeqCst),
        "the batch is still streaming"
    );
    drop(ticket);
    assert!(
        dropped.load(Ordering::SeqCst),
        "the dropped ticket's feeder still holds the reader"
    );
    service.shutdown();
}

#[test]
fn service_builder_rejects_invalid_configs_with_typed_errors() {
    let sanity = nfs_sanity(14);
    assert_eq!(
        sanity.audit_service().workers(0).build().err(),
        Some(ConfigError::ZeroWorkers)
    );
    assert_eq!(
        sanity.audit_service().high_water(0).build().err(),
        Some(ConfigError::ZeroHighWater)
    );
    assert_eq!(
        sanity
            .audit_service()
            .battery(BatteryMode::Full)
            .build()
            .err(),
        Some(ConfigError::MissingBattery)
    );
}

/// The end-to-end daemon path: a TDRB batch submitted as a
/// `ControlFrame::SubmitBatch` over an in-memory duplex comes back as
/// in-order verdict frames plus a summary byte-identical to the
/// in-process audit of the same bytes.
#[test]
fn daemon_over_duplex_audits_a_tdrb_batch_end_to_end() {
    let sanity = nfs_sanity(14);
    let jobs = fleet(&sanity, 0..4, 2);
    let bytes = ingest::encode_batch(&jobs);
    let expected = sanity.audit_batch(
        &jobs,
        &AuditConfig {
            workers: 2,
            ..AuditConfig::default()
        },
    );

    let service = sanity
        .audit_service()
        .workers(2)
        .build()
        .expect("valid service configuration");
    let (mut client, server) = duplex();
    let daemon = std::thread::spawn(move || {
        let outcome = service.serve(&server, &server);
        service.shutdown();
        outcome
    });

    ControlFrame::SubmitBatch {
        batch_id: 77,
        tdrb: bytes,
        reference: None,
    }
    .write_to(&mut client)
    .expect("submit");

    let mut verdicts = Vec::new();
    let summary: FleetSummary = loop {
        match ControlFrame::read_from(&mut client)
            .expect("response decodes")
            .expect("daemon is up")
        {
            ControlFrame::Verdict {
                batch_id,
                index,
                verdict,
            } => {
                assert_eq!(batch_id, 77);
                assert_eq!(index as usize, verdicts.len(), "verdicts in order");
                verdicts.push(verdict);
            }
            ControlFrame::Summary {
                batch_id, summary, ..
            } => {
                assert_eq!(batch_id, 77);
                break summary;
            }
            other => panic!("unexpected daemon frame: {other:?}"),
        }
    };

    // The control plane carries verdicts bit-exactly.
    assert_eq!(verdicts.len(), expected.verdicts.len());
    for (wire, local) in verdicts.iter().zip(&expected.verdicts) {
        assert_eq!(wire, local);
        assert_eq!(wire.score.to_bits(), local.score.to_bits());
    }
    assert_eq!(summary, expected.summary);

    ControlFrame::Shutdown.write_to(&mut client).expect("bye");
    assert_eq!(
        ControlFrame::read_from(&mut client)
            .expect("ack decodes")
            .expect("daemon acks"),
        ControlFrame::ShutdownAck
    );
    daemon
        .join()
        .expect("daemon thread")
        .expect("daemon loop exits cleanly");
}

/// No capture cap: a streamed batch of 257 clean sessions — one past the
/// 256-session prefix in-service retraining used to capture from a
/// stream — contributes all 257 to the writer's next generation, since
/// the writer already holds the jobs it submitted. Streamed ingest still
/// keeps its residency bound, and the installed generation is
/// bit-identical (JSON form) to an explicit `absorb_all` of every
/// session.
#[test]
fn retrain_capture_cap_boundary_256_vs_257() {
    use sanity_tdr::detectors::{CceTest, RegularityTest};
    use sanity_tdr::Detector as _;

    // The shared cheap echo reference (10 request/response rounds → 9
    // IPDs per session) so streaming 257 sessions stays fast; the
    // windowed detectors get short-trace windows like the examples use.
    let sanity = torture_common::echo_sanity_with(10);

    // One recorded session, cloned into a large all-clean fleet: distinct
    // ids and sub-noise observed perturbations (a few cycles against
    // ~10^5-cycle IPDs) keep every trace distinct without flagging
    // anything.
    let rec = sanity
        .record(42, |vm| {
            for k in 0..10u64 {
                vm.machine_mut()
                    .deliver_packet(100_000 + k * 400_000, vec![7 + k as u8; 48]);
            }
        })
        .expect("record echo session");
    let base_ipds = rec.tx_ipds_cycles();
    let jobs: Vec<AuditJob> = (0..257u64)
        .map(|id| {
            let mut observed = base_ipds.clone();
            for (k, ipd) in observed.iter_mut().enumerate() {
                *ipd += (id + k as u64) % 3;
            }
            AuditJob {
                session_id: id,
                observed_ipds: observed,
                log: rec.log.clone(),
            }
        })
        .collect();

    let mut base_battery = DetectorBattery::new();
    base_battery.rt = RegularityTest::new(3);
    base_battery.cce = CceTest::new(5, 3);
    base_battery.train(&[base_ipds.clone(), base_ipds.clone()]);

    // The fleet reuses one recorded log across per-session replay seeds,
    // so cross-seed noise on this short fixture can top the 2% default
    // threshold; the test is about what the writer absorbs, so set the
    // flagging bar where the whole fleet counts as clean.
    let service = sanity
        .clone()
        .with_battery(base_battery.clone())
        .audit_service()
        .workers(4)
        .high_water(8)
        .threshold(0.5)
        .battery(BatteryMode::Full)
        .build()
        .expect("valid service configuration");
    let report = submit_tdrb(&service, ingest::encode_batch(&jobs))
        .wait()
        .expect("stream audits");
    assert_eq!(report.summary.sessions, 257);
    assert!(
        report.summary.flagged.is_empty(),
        "fixture fleet is clean: {:?}",
        report.summary.flagged
    );
    assert!(report.peak_resident <= 8, "bounded ingest held");

    let next = retrain(&base_battery, &jobs, &report.verdicts).expect("clean sessions");
    assert_eq!(next.absorbed, 257, "every clean session is absorbed");
    assert_eq!(service.install_battery(&next.battery.to_json()), Ok(1));
    let published = service.battery().expect("battery attached");
    assert_eq!(
        published.training_traces(),
        base_battery.training_traces() + 257
    );
    let mut explicit = base_battery.clone();
    let all: Vec<Vec<u64>> = jobs.iter().map(|j| j.observed_ipds.clone()).collect();
    explicit.absorb_all(&all);
    assert_eq!(
        published.to_json(),
        explicit.to_json(),
        "published generation == explicit absorb_all of the whole batch"
    );
    service.shutdown();
}

/// Cross-batch retraining by the battery's writer: it absorbs batch A's
/// clean traces and installs the result, and batch B is scored by the
/// retrained generation (observable as a changed statistical baseline).
#[test]
fn writer_retraining_feeds_the_next_batch() {
    let sanity = nfs_sanity(14);
    let batch_a = fleet(&sanity, 0..4, 2);
    let batch_b = fleet(&sanity, 4..8, 6);
    let battery = trained_on_clean(&batch_a, 2);
    let system = sanity.clone().with_battery(battery.clone());

    let service = system
        .audit_service()
        .workers(2)
        .battery(BatteryMode::Full)
        .build()
        .expect("valid service configuration");
    let report_a = submit_jobs(&service, &batch_a).wait().expect("audits");
    let clean_a = report_a.verdicts.iter().filter(|v| !v.flagged).count();
    assert!(clean_a > 0);
    let next = retrain(&battery, &batch_a, &report_a.verdicts).expect("clean sessions");
    assert_eq!(next.absorbed, clean_a);
    assert_eq!(service.install_battery(&next.battery.to_json()), Ok(1));
    let retrained = service.battery().expect("battery attached");
    assert_eq!(
        retrained.training_traces(),
        battery.training_traces() + clean_a,
        "clean traces of batch A were absorbed"
    );
    let report_b = submit_jobs(&service, &batch_b).wait().expect("audits");
    service.shutdown();

    // TDR scores never depend on the battery generation...
    let plain_b = sanity.audit_batch(
        &batch_b,
        &AuditConfig {
            workers: 2,
            ..AuditConfig::default()
        },
    );
    for (full, tdr) in report_b.verdicts.iter().zip(&plain_b.verdicts) {
        assert_eq!(full.score.to_bits(), tdr.score.to_bits());
    }
    // ...and batch B's statistical scores come from the retrained
    // generation, pinned by scoring against it directly.
    let first = &report_b.verdicts[0];
    let expected_scores =
        retrained.score_all(&sanity_tdr::TraceView::observed(&batch_b[0].observed_ipds));
    for name in ["Shape test", "KS test", "RT test", "CCE test"] {
        assert_eq!(
            first.detector_scores[name].to_bits(),
            expected_scores[name].to_bits(),
            "{name}: batch B must be scored by the retrained battery"
        );
    }
}

/// The equivalence pin for a battery's one writer: a client that submits
/// each batch, retrains on its clean sessions with `verdict::retrain`
/// and installs the result with `PutBattery` reproduces what in-service
/// retraining produced before the service stopped retraining itself, bit
/// for bit — the same Verdict frame bytes, the same next-generation
/// JSON, generations 1, 2, 3 (`WRITER_ROUNDS`).
#[test]
fn battery_writer_reproduces_in_service_retraining() {
    let (sanity, batches, base) = writer_fixture();
    let service = sanity
        .with_battery(base.clone())
        .audit_service()
        .workers(2)
        .battery(BatteryMode::Full)
        .build()
        .expect("valid service configuration");
    let (client_end, server_end) = duplex();
    let writer: Vec<(u64, u64, u64)> = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| service.serve(&server_end, &server_end));
        let mut client = Client::new(client_end);
        let mut battery = base;
        let mut rounds = Vec::new();
        for (b, jobs) in batches.iter().enumerate() {
            let (verdicts, next, generation) = writer_round(&mut client, b as u64, &battery, jobs);
            let json = service.battery().expect("battery attached").to_json();
            assert_eq!(json, next.to_json(), "batch {b}: installed == sent");
            battery = next;
            rounds.push((
                fnv1a(&verdict_bytes(&verdicts)),
                fnv1a(json.as_bytes()),
                generation,
            ));
        }
        client.shutdown().expect("shutdown acked");
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon loop exits cleanly");
        rounds
    });
    service.shutdown();
    assert_eq!(
        writer, WRITER_ROUNDS,
        "(verdict bytes, battery JSON, generation) per batch"
    );
}

#[test]
fn a_panicking_replay_costs_its_session_not_the_worker() {
    let sanity = Sanity::new(picky_program());
    let cfg = AuditConfig {
        workers: 1,
        ..AuditConfig::default()
    };
    let first = vec![picky_job(&sanity, 0, true), picky_job(&sanity, 1, false)];
    let second = vec![picky_job(&sanity, 2, false), picky_job(&sanity, 3, false)];
    let service = sanity
        .audit_service()
        .workers(1)
        .build()
        .expect("valid service configuration");

    let report = submit_jobs(&service, &first)
        .wait()
        .expect("the batch completes");
    let bad = &report.verdicts[0];
    let error = bad.error.as_deref().expect("an error verdict");
    assert!(
        error.starts_with("replay panicked: array kind mismatch"),
        "the panic's message, and no thread name: {error}"
    );
    assert_eq!((bad.score, bad.flagged, bad.tx_packets), (1.0, true, 0));
    assert_eq!(report.verdicts[1].error, None);
    assert_eq!(report, sanity.audit_batch(&first, &cfg), "== one-shot");

    let warm = submit_jobs(&service, &second)
        .wait()
        .expect("the worker lives");
    assert_eq!(warm, sanity.audit_batch(&second, &cfg), "== one-shot");
    assert_eq!(service.sessions_audited(), 4);
    service.shutdown();
}

/// One registered or built-in reference and the sessions audited on it.
struct Mixed {
    reference: Reference,
    /// `None` for the service's built-in reference.
    id: Option<ReferenceId>,
    jobs: Vec<AuditJob>,
}

#[test]
fn recycled_core_storage_audits_like_a_new_thread() {
    // The built-in reference: NFS with files, scored by the full battery.
    let nfs = nfs_sanity(14);
    let nfs_jobs = fleet(&nfs, 0..6, 3);
    let nfs = nfs.with_battery(trained_on_clean(&nfs_jobs, 3));
    let service = nfs
        .audit_service()
        .workers(1)
        .battery(BatteryMode::Full)
        .build()
        .expect("valid service configuration");
    let registered = |program: Program, jobs: Vec<AuditJob>| {
        let id = service
            .put_reference(&container::seal(&program))
            .expect("admitted")
            .id;
        Mixed {
            reference: Reference::new(Arc::new(program)),
            id: Some(id),
            jobs,
        }
    };

    // The `nfs_server` artifact, on LOOKUP-only sessions.
    let (_, server) = registry_artifacts()
        .into_iter()
        .find(|(name, _)| *name == "nfs_server")
        .expect("the artifact set names nfs_server");
    let lookup = Sanity::new(server.clone());
    let lookup_jobs: Vec<AuditJob> = (0..3u64)
        .map(|id| {
            let rec = lookup
                .record(60 + id, move |vm| {
                    for k in 0..4u64 {
                        let req = encode_request(OP_LOOKUP, (id + k) as u8 % 5, 0, 0);
                        let at = 150_000 + k * 400_000 + id * 5_000;
                        vm.machine_mut().deliver_packet(at, req);
                    }
                })
                .expect("record LOOKUP session");
            AuditJob {
                session_id: 100 + id,
                observed_ipds: rec.tx_ipds_cycles(),
                log: rec.log,
            }
        })
        .collect();
    // SciMark FFT: compute only.
    let fft = Sanity::new(fft_program(64));
    let fft_jobs: Vec<AuditJob> = (0..2u64)
        .map(|id| {
            let rec = fft.record(80 + id, |_| {}).expect("record FFT session");
            AuditJob {
                session_id: 200 + id,
                observed_ipds: rec.tx_ipds_cycles(),
                log: rec.log,
            }
        })
        .collect();
    // One session whose replay fails part way, after its machine has run.
    let picky = Sanity::new(picky_program());
    let picky_jobs = vec![picky_job(&picky, 300, true), picky_job(&picky, 301, false)];

    let sets = [
        Mixed {
            reference: nfs.as_reference(),
            id: None,
            jobs: nfs_jobs,
        },
        registered(server, lookup_jobs),
        registered(fft_program(64), fft_jobs),
        registered(picky_program(), picky_jobs),
    ];
    let battery = service.battery();
    let expected: Vec<Vec<AuditVerdict>> = sets
        .iter()
        .map(|set| {
            let battery = match set.id {
                None => battery.clone(),
                Some(_) => None,
            };
            let fresh: Vec<AuditVerdict> = set
                .jobs
                .iter()
                .map(|job| {
                    let (reference, job) = (set.reference.clone(), job.clone());
                    let (cfg, battery) = (*service.config(), battery.clone());
                    std::thread::spawn(move || {
                        ReferenceCache::new(&reference).audit(&job, &cfg, battery.as_deref())
                    })
                    .join()
                    .expect("a new thread audits")
                })
                .collect();
            fresh
        })
        .collect();
    assert!(expected[3][0].error.is_some(), "the failing session fails");

    // Two orders, one session per submission, so each replay runs on the
    // storage the one before it left.
    let forward: Vec<(usize, usize)> = (0..6)
        .flat_map(|k| (0..sets.len()).map(move |s| (s, k)))
        .filter(|&(s, k)| k < sets[s].jobs.len())
        .collect();
    let backward: Vec<(usize, usize)> = forward.iter().rev().copied().collect();
    for (name, order) in [("forward", forward), ("backward", backward)] {
        for (s, k) in order {
            let set = &sets[s];
            let report = service
                .submit(vec![set.jobs[k].clone()], set.id)
                .expect("resident")
                .wait()
                .expect("audits");
            assert_eq!(
                verdict_bytes(&report.verdicts),
                verdict_bytes(&expected[s][k..=k]),
                "{name}: set {s} session {k}"
            );
        }
    }
    service.shutdown();
}
