//! Integration: the coordinator (`audit_pipeline::coord`) end to end.
//!
//! A coordinator over N backend daemons must be *invisible* to clients:
//! the unchanged TDRC protocol in, per-session verdicts and a
//! [`FleetSummary`] byte-identical to a single-daemon audit out —
//! including when a backend dies mid-batch and its shard is retried on a
//! survivor, and including the registry (`PutReference` fan-out) and
//! battery (`PutBattery` fan-out) control planes. Sharding must also cut
//! the fleet's deterministic makespan near-linearly in its size.

use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use sanity_tdr::audit_pipeline::{ingest, FleetSummary};
use sanity_tdr::{
    serve_coordinator, serve_tcp, serve_tcp_with, AckStatus, AuditConfig, AuditJob, Client,
    ControlError, ControlFrame, DaemonOptions, DetectorBattery, Sanity, TcpDaemon, TenantQuota,
};

#[path = "torture_common.rs"]
mod torture_common;
use torture_common::{
    echo_jobs, echo_sanity, echo_sanity_with, fnv1a, verdict_bytes, writer_fixture, writer_round,
    WRITER_ROUNDS,
};

fn backend(sanity: &Sanity, workers: usize) -> TcpDaemon {
    let service = sanity
        .audit_service()
        .workers(workers)
        .build()
        .expect("valid service configuration");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    serve_tcp(service, listener).expect("backend starts")
}

fn cfg() -> AuditConfig {
    AuditConfig {
        workers: 2,
        ..AuditConfig::default()
    }
}

/// Byte-identity for the merged summary: encode both through the same
/// pinned wire path with the topology-dependent `Summary`-frame fields
/// (workers, peak residency) held constant, and compare raw frames.
fn summary_bytes(summary: &FleetSummary) -> Vec<u8> {
    ControlFrame::Summary {
        batch_id: 0,
        workers: 0,
        peak_resident: 0,
        summary: summary.clone(),
    }
    .encode()
}

/// A scripted backend that dies mid-batch: it accepts the coordinator's
/// dial, then drops the connection the moment the first frame arrives —
/// the coordinator observes a typed mid-exchange disconnect, exactly as
/// if the daemon process was killed after the shard was submitted.
/// Returns the address to route to.
fn dying_backend() -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { return };
            std::thread::spawn(move || {
                // Read exactly one frame, answer nothing, hang up.
                let _ = ControlFrame::read_from(&mut stream);
            });
        }
    });
    addr
}

// ---------------------------------------------------------------------------
// The tentpole pin: coordinator == single daemon, bit for bit
// ---------------------------------------------------------------------------

/// Two backends behind a coordinator serve a client that cannot tell the
/// difference: every verdict and the merged fleet summary are
/// bit-identical to the in-process single-audit baseline, and the
/// routing counters account for every session.
#[test]
fn coordinator_merge_is_byte_identical_to_a_single_daemon_audit() {
    const BATCHES: u64 = 2;
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..10);
    let expected = sanity.audit_batch(&jobs, &cfg());
    let tdrb = ingest::encode_batch(&jobs);

    let backends: Vec<TcpDaemon> = (0..2).map(|_| backend(&sanity, 2)).collect();
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, addrs).expect("coordinator starts");

    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    let mut client = Client::new(stream);
    for b in 0..BATCHES {
        let outcome = client
            .submit_batch(b, tdrb.clone())
            .expect("batch completes");
        let summary = outcome.result.expect("audits");
        assert_eq!(outcome.verdicts.len(), expected.verdicts.len());
        for (wire, local) in outcome.verdicts.iter().zip(&expected.verdicts) {
            assert_eq!(
                wire, local,
                "batch {b}: verdict diverged through the coordinator"
            );
            assert_eq!(
                wire.score.to_bits(),
                local.score.to_bits(),
                "batch {b}: score bits diverged"
            );
        }
        assert_eq!(
            summary_bytes(&summary.summary),
            summary_bytes(&expected.summary),
            "batch {b}: merged FleetSummary is not byte-identical"
        );
    }

    // The Stats plane serves the coordinator's own routing counters.
    let snap = client.stats().expect("stats over the coordinator");
    assert_eq!(snap.counter("coord_batches_routed"), BATCHES);
    assert_eq!(snap.counter("coord_sessions_routed"), 10 * BATCHES);
    assert_eq!(snap.counter("coord_retries"), 0);
    assert_eq!(snap.counter("coord_backend_failures"), 0);
    // session_id mod 2 puts the five even ids on backend 0, five odd on 1.
    for i in 0..2 {
        assert_eq!(
            snap.counter(&format!("coord_backend_{i}_sessions")),
            5 * BATCHES,
            "uneven shard routing"
        );
        assert_eq!(snap.counter(&format!("coord_backend_{i}_batches")), BATCHES);
    }
    assert_eq!(snap.gauge("conn_active"), 1);

    client.shutdown().expect("shutdown ack");
    let report = coordinator.shutdown();
    assert_eq!(report.connections_accepted, 1);
    assert_eq!(report.connection_errors, 0);
    assert_eq!(
        report.snapshot.counter("conn_reaped"),
        1,
        "coordinator thread ledger unbalanced"
    );

    // Each backend audited exactly its shards, and drained clean — no
    // residency slots leak through the routing layer.
    for b in backends {
        let report = b.shutdown();
        assert_eq!(report.snapshot.counter("sessions_audited"), 5 * BATCHES);
        assert_eq!(report.snapshot.gauge("queue_depth"), 0);
        assert_eq!(report.snapshot.gauge("in_flight_jobs"), 0);
        report.service.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Partial-failure torture: a backend dies mid-batch
// ---------------------------------------------------------------------------

/// Kill one backend mid-batch (it drops the connection after reading the
/// shard submission): the coordinator marks it dead, retries the whole
/// shard on the survivor, and the client still receives every verdict
/// and a fleet summary bit-identical to the single-daemon audit. The
/// connection keeps serving afterwards, and no worker-residency slot
/// leaks on the survivor.
#[test]
fn backend_death_mid_batch_is_retried_on_a_survivor_bit_identically() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..8);
    let expected = sanity.audit_batch(&jobs, &cfg());
    let tdrb = ingest::encode_batch(&jobs);

    let survivor = backend(&sanity, 2);
    // Backend 0 dies on first contact; even session ids shard to it.
    let dying = dying_backend();
    let addrs = vec![dying.to_string(), survivor.local_addr().to_string()];
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, addrs).expect("coordinator starts");

    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    let mut client = Client::new(stream);
    for b in 0..2u64 {
        let outcome = client
            .submit_batch(b, tdrb.clone())
            .expect("batch completes despite the dead backend");
        let summary = outcome.result.expect("audits");
        assert_eq!(outcome.verdicts.len(), expected.verdicts.len());
        for (wire, local) in outcome.verdicts.iter().zip(&expected.verdicts) {
            assert_eq!(wire, local, "batch {b}: verdict diverged after shard retry");
        }
        assert_eq!(
            summary_bytes(&summary.summary),
            summary_bytes(&expected.summary),
            "batch {b}: merged summary diverged after shard retry"
        );
    }

    // The death and the retry are visible — and typed — in the counters:
    // backend 0 failed, its shard was retried, the survivor served all.
    let snap = client.stats().expect("stats over the coordinator");
    assert!(snap.counter("coord_backend_failures") >= 1);
    assert!(snap.counter("coord_backend_0_failures") >= 1);
    assert!(
        snap.counter("coord_retries") >= 2,
        "each batch's orphaned shard is one retry, got {}",
        snap.counter("coord_retries")
    );
    assert_eq!(
        snap.counter("coord_backend_1_batches"),
        4,
        "2 shards + 2 retried shards"
    );
    assert_eq!(snap.counter("coord_backend_1_sessions"), 16);

    client.shutdown().expect("shutdown ack");
    assert_eq!(
        coordinator.shutdown().connection_errors,
        0,
        "a dead backend is a routing event, not a client connection error"
    );

    // The survivor audited every session of both batches and drained
    // clean: no queue or residency slot leaked from the retried shards.
    let report = survivor.shutdown();
    assert_eq!(report.snapshot.counter("sessions_audited"), 16);
    assert_eq!(report.snapshot.gauge("queue_depth"), 0);
    assert_eq!(report.snapshot.gauge("in_flight_jobs"), 0);
    report.service.shutdown();
}

// ---------------------------------------------------------------------------
// Fleet size: the deterministic makespan
// ---------------------------------------------------------------------------

/// The same batches through coordinators over 1, 2 and 4 backends. At
/// every fleet size the merged summaries are byte-identical to the
/// single-daemon audit and every session is audited exactly once. A fleet
/// of independent hosts finishes when its busiest backend does, so its
/// makespan is the largest per-backend `replayed_cycles`; the session-id
/// shard function must cut that near-linearly (0.7·N leaves room for
/// uneven shards). Only simulated cycles are compared, so this holds on a
/// one-core host.
#[test]
fn deterministic_makespan_shrinks_near_linearly_with_fleet_size() {
    const BATCHES: u64 = 2;
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..8);
    let expected = summary_bytes(&sanity.audit_batch(&jobs, &cfg()).summary);
    let tdrb = ingest::encode_batch(&jobs);

    let makespan = |fleet: usize| -> u64 {
        let backends: Vec<TcpDaemon> = (0..fleet).map(|_| backend(&sanity, 1)).collect();
        let addrs = backends
            .iter()
            .map(|b| b.local_addr().to_string())
            .collect();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let coordinator = serve_coordinator(listener, addrs).expect("coordinator starts");
        let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
        let mut client = Client::new(stream);
        for b in 0..BATCHES {
            let outcome = client
                .submit_batch(b, tdrb.clone())
                .expect("batch completes");
            assert_eq!(
                summary_bytes(&outcome.result.expect("audits").summary),
                expected,
                "fleet of {fleet}, batch {b}: merged summary is not byte-identical"
            );
        }
        client.shutdown().expect("shutdown ack");
        coordinator.shutdown();

        let (mut audited, mut busiest) = (0, 0);
        for b in backends {
            let report = b.shutdown();
            audited += report.snapshot.counter("sessions_audited");
            busiest = busiest.max(report.snapshot.counter("replayed_cycles"));
            report.service.shutdown();
        }
        assert_eq!(
            audited,
            jobs.len() as u64 * BATCHES,
            "fleet of {fleet}: every session is audited exactly once"
        );
        busiest
    };

    let single = makespan(1);
    assert!(single > 0, "replay cost recorded");
    for fleet in [2, 4] {
        let busiest = makespan(fleet);
        assert!(
            busiest as f64 <= single as f64 / (0.7 * fleet as f64),
            "fleet of {fleet}: makespan {busiest} cycles against {single} on one backend \
             is not near-linear"
        );
    }
}

/// With every backend dead the coordinator answers the batch with an
/// in-band `Error` frame naming the dead backend — the connection (and
/// the Stats plane) keep serving, exactly like a daemon refusing one
/// batch.
#[test]
fn all_backends_dead_surfaces_an_in_band_error_and_keeps_serving() {
    // An address nothing listens on: bind, capture, drop.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, vec![dead_addr.clone()]).expect("starts");

    let sanity = echo_sanity();
    let tdrb = ingest::encode_batch(&echo_jobs(&sanity, 0..2));
    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    let mut client = Client::new(stream);

    let outcome = client.submit_batch(1, tdrb).expect("answered in-band");
    let message = outcome.result.expect_err("no backend can audit");
    assert!(
        message.contains(&dead_addr) && message.contains("no survivor"),
        "error must name the dead backend: {message}"
    );
    assert!(outcome.verdicts.is_empty());

    // Reference puts are refused typed, not dropped.
    let put = client
        .put_reference(3, sanity_tdr::jbc::container::seal(sanity.program()))
        .expect("answered in-band");
    assert!(
        matches!(&put.status, AckStatus::Rejected(msg) if msg.contains("no live backends")),
        "got {:?}",
        put.status
    );

    // Still serving: the Stats plane answers and the shutdown handshake
    // completes on the same connection.
    let snap = client.stats().expect("stats still served");
    assert_eq!(snap.counter("coord_batch_errors"), 1);
    client.shutdown().expect("shutdown ack");
    coordinator.shutdown();
}

// ---------------------------------------------------------------------------
// Malformed batches: a coordinator answers what a daemon answers
// ---------------------------------------------------------------------------

/// Write `request` on `stream` and read its answer up to the first frame
/// that is not a `Verdict`.
fn answer(stream: &mut TcpStream, request: &ControlFrame) -> Vec<ControlFrame> {
    request.write_to(&mut *stream).expect("send request");
    let mut frames = Vec::new();
    loop {
        let frame = ControlFrame::read_from(&mut *stream)
            .expect("response decodes")
            .expect("answered before closing");
        let last = !matches!(frame, ControlFrame::Verdict { .. });
        frames.push(frame);
        if last {
            return frames;
        }
    }
}

/// A malformed batch through a two-backend coordinator is answered byte
/// for byte as a single daemon of the same configuration answers it: the
/// verdicts of its valid prefix, then the daemon's own decode `Error` —
/// for v1 batches and for v2 batches on a resident reference.
#[test]
fn malformed_batches_get_a_single_daemons_answer_through_a_coordinator() {
    let sanity = echo_sanity();
    let tdrb = ingest::encode_batch(&echo_jobs(&sanity, 0..6));
    let (records, _) = ingest::session_records(&tdrb);
    let end_of = |k: usize| -> usize {
        tdrb.len()
            - records[k + 1..]
                .iter()
                .map(|r| r.bytes.len())
                .sum::<usize>()
    };
    let corrupt_log = |k: usize| -> Vec<u8> {
        let mut bytes = tdrb.clone();
        bytes[end_of(k) - 10] ^= 0xff; // inside session k's log frame
        bytes
    };
    let mut bad_magic = tdrb.clone();
    bad_magic[1] = b'X';
    // (batch, verdicts before the Error, the Error's text)
    let malformed: [(Vec<u8>, usize, &str); 5] = [
        (corrupt_log(3), 3, "session 3 failed to decode"),
        (corrupt_log(0), 0, "session 0 failed to decode"),
        (
            tdrb[..end_of(4) - 7].to_vec(),
            4,
            "session 4 failed to decode",
        ),
        (
            [&tdrb[..], b"junk"].concat(),
            6,
            "4 trailing bytes after batch",
        ),
        (bad_magic, 0, "bad magic"),
    ];
    let tdrp = sanity_tdr::jbc::container::seal(sanity.program());
    let id = sanity_tdr::jbc::container::reference_id(sanity.program());

    // Every answer, each frame as encoded on the wire.
    let answers = |addr: std::net::SocketAddr| -> Vec<Vec<Vec<u8>>> {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let put = ControlFrame::PutReference {
            put_id: 100,
            tdrp: tdrp.clone(),
        };
        match &answer(&mut stream, &put)[..] {
            [ControlFrame::ReferenceAck { status, .. }] => assert_eq!(*status, AckStatus::Loaded),
            other => panic!("expected one ReferenceAck, got {other:?}"),
        }
        let mut all = Vec::new();
        for (batch_id, (bytes, ..)) in malformed.iter().enumerate() {
            for reference in [None, Some(id)] {
                let submit = ControlFrame::SubmitBatch {
                    batch_id: batch_id as u64,
                    tdrb: bytes.clone(),
                    reference,
                };
                let frames = answer(&mut stream, &submit);
                all.push(frames.iter().map(ControlFrame::encode).collect());
            }
        }
        Client::new(stream).shutdown().expect("shutdown ack");
        all
    };

    let daemon = backend(&sanity, 2);
    let from_daemon = answers(daemon.local_addr());
    let backends: Vec<TcpDaemon> = (0..2).map(|_| backend(&sanity, 2)).collect();
    let addrs = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, addrs).expect("coordinator starts");
    let from_coordinator = answers(coordinator.local_addr());

    for (n, (frames, through)) in from_daemon.iter().zip(&from_coordinator).enumerate() {
        let (_, prefix, text) = &malformed[n / 2];
        let what = format!("batch {} as v{}", n / 2, 1 + n % 2);
        assert_eq!(
            frames.len(),
            prefix + 1,
            "{what}: the valid prefix, then Error"
        );
        let last = ControlFrame::read_from(&mut &frames[*prefix][..]).expect("decodes");
        match last.expect("one frame") {
            ControlFrame::Error { message, .. } => {
                assert!(message.contains(text), "{what}: {message}")
            }
            other => panic!("{what}: expected an Error, got {other:?}"),
        }
        assert_eq!(through, frames, "{what}: the coordinator's answer differs");
    }

    let report = coordinator.shutdown();
    assert_eq!(report.connection_errors, 0);
    assert_eq!(report.snapshot.counter("coord_batch_errors"), 10);
    // The sessions of each valid prefix, v1 and v2.
    assert_eq!(report.snapshot.counter("coord_sessions_routed"), 2 * 13);
    for b in backends.into_iter().chain([daemon]) {
        b.shutdown().service.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Control-plane fan-out: references and batteries
// ---------------------------------------------------------------------------

/// `PutReference` through the coordinator lands the container on every
/// backend (resident bytes sum across the fleet), v2 submits against the
/// returned id shard and merge bit-identically, a re-put reports
/// `AlreadyResident` only because *all* backends already hold it, and an
/// unregistered id surfaces as the same typed `UnknownReference` a
/// single daemon raises.
#[test]
fn put_reference_fans_out_to_every_backend_and_v2_submits_merge() {
    let host = echo_sanity();
    let registered = echo_sanity_with(5);
    let tdrp = sanity_tdr::jbc::container::seal(registered.program());
    let id = sanity_tdr::jbc::container::reference_id(registered.program());
    // Five-round sessions for the five-round program (the shared helper
    // delivers only three packets).
    let record = |ids: std::ops::Range<u64>| -> Vec<AuditJob> {
        ids.map(|sid| {
            let rec = registered
                .record(700 + sid, move |vm| {
                    for k in 0..5u64 {
                        let data = vec![(9 + k) as u8 ^ sid as u8; 48];
                        vm.machine_mut().deliver_packet(100_000 + k * 400_000, data);
                    }
                })
                .expect("record echo session");
            AuditJob {
                session_id: sid,
                observed_ipds: rec.tx_ipds_cycles(),
                log: rec.log,
            }
        })
        .collect()
    };
    let jobs: Vec<AuditJob> = record(0..6);
    let expected = registered.audit_batch(&jobs, &cfg());
    let tdrb = ingest::encode_batch(&jobs);

    let per_backend_bytes = {
        let probe = sanity_tdr::ReferenceRegistry::new(u64::MAX);
        probe.load(&tdrp).expect("probe admits").resident_bytes
    };

    let backends: Vec<TcpDaemon> = (0..2).map(|_| backend(&host, 2)).collect();
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, addrs).expect("coordinator starts");

    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    let mut client = Client::new(stream);

    let put = client.put_reference(1, tdrp.clone()).expect("put fans out");
    assert_eq!(put.reference, id);
    assert_eq!(put.status, AckStatus::Loaded);
    assert_eq!(
        put.resident_bytes,
        2 * per_backend_bytes,
        "resident bytes must sum across the fleet"
    );

    let again = client.put_reference(2, tdrp.clone()).expect("re-put");
    assert_eq!(
        again.status,
        AckStatus::AlreadyResident,
        "every backend already holds it"
    );

    let outcome = client.submit_batch_for(7, tdrb, id).expect("v2 batch");
    let summary = outcome.result.expect("audits");
    for (wire, local) in outcome.verdicts.iter().zip(&expected.verdicts) {
        assert_eq!(wire, local, "registered-reference verdict diverged");
    }
    assert_eq!(
        summary_bytes(&summary.summary),
        summary_bytes(&expected.summary)
    );

    // An id nobody registered: the same typed error a daemon raises.
    let bogus = sanity_tdr::jbc::container::reference_id(host.program());
    let tdrb2 = ingest::encode_batch(&record(0..2));
    match client.submit_batch_for(8, tdrb2, bogus) {
        Err(ControlError::UnknownReference(got)) => assert_eq!(got, bogus),
        other => panic!("expected a typed UnknownReference, got {other:?}"),
    }

    client.shutdown().expect("shutdown ack");
    coordinator.shutdown();
    for b in backends {
        let report = b.shutdown();
        assert_eq!(report.snapshot.counter("registry_loads"), 1);
        assert_eq!(report.snapshot.gauge("registry_references"), 1);
        report.service.shutdown();
    }
}

/// `PutBattery` through the coordinator: one retrain publishes one
/// generation fleet-wide (the ack reports the *minimum* generation — the
/// floor every backend reached), and rejections are uniform: an
/// untrained battery, or a TDR-only fleet, refuse everywhere.
#[test]
fn put_battery_fans_out_with_a_fleet_generation_floor() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..4);
    let clean: Vec<Vec<u64>> = jobs.iter().map(|j| j.observed_ipds.clone()).collect();
    let battery = DetectorBattery::trained(&clean);
    let json = battery.to_json();

    // Battery-armed fleet: install lands everywhere, generation floor 1,
    // then 2 on the second publish.
    let armed: Vec<TcpDaemon> = (0..2)
        .map(|_| {
            let service = sanity
                .clone()
                .with_battery(battery.clone())
                .audit_service()
                .workers(2)
                .battery(sanity_tdr::BatteryMode::Full)
                .build()
                .expect("valid configuration");
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            serve_tcp(service, listener).expect("backend starts")
        })
        .collect();
    let addrs: Vec<String> = armed.iter().map(|b| b.local_addr().to_string()).collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, addrs).expect("coordinator starts");

    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    let mut client = Client::new(stream);
    let first = client.put_battery(1, json.clone()).expect("fans out");
    assert_eq!(first.status, AckStatus::Loaded);
    assert_eq!(first.generation, 1, "fresh fleet: both backends at gen 1");
    let second = client.put_battery(2, json.clone()).expect("fans out");
    assert_eq!(second.generation, 2, "fleet floor advances together");

    // An untrained battery is refused fleet-wide, typed.
    let untrained = DetectorBattery::new().to_json();
    let refused = client.put_battery(3, untrained).expect("answered in-band");
    assert!(
        matches!(&refused.status, AckStatus::Rejected(msg) if msg.contains("untrained")),
        "got {:?}",
        refused.status
    );

    client.shutdown().expect("shutdown ack");
    coordinator.shutdown();
    for b in armed {
        b.shutdown().service.shutdown();
    }

    // A TDR-only fleet refuses installs: scoring it could never apply
    // would otherwise hide a fleet misconfiguration.
    let tdr_only = backend(&sanity, 2);
    let addr = tdr_only.local_addr().to_string();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, vec![addr]).expect("starts");
    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    let mut client = Client::new(stream);
    let refused = client.put_battery(4, json).expect("answered in-band");
    assert!(
        matches!(&refused.status, AckStatus::Rejected(msg) if msg.contains("battery")),
        "got {:?}",
        refused.status
    );
    client.shutdown().expect("shutdown ack");
    coordinator.shutdown();
    tdr_only.shutdown().service.shutdown();
}

/// A battery's one writer behind a coordinator: two Full-battery
/// backends, and the writer loop (submit, `verdict::retrain`,
/// `PutBattery`) running through the coordinator. Every batch's merged
/// verdict bytes, every next generation and every merged `BatteryAck`
/// generation equal the single-daemon writer run (`WRITER_ROUNDS`), and
/// at shutdown every backend holds the writer's last generation — the
/// shards cannot drift apart, because the client is the fleet's only
/// writer.
#[test]
fn battery_writer_through_a_coordinator_matches_a_single_daemon() {
    let (sanity, batches, base) = writer_fixture();
    let system = sanity.with_battery(base.clone());
    let backends: Vec<TcpDaemon> = (0..2)
        .map(|_| {
            let service = system
                .audit_service()
                .workers(2)
                .battery(sanity_tdr::BatteryMode::Full)
                .build()
                .expect("valid configuration");
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            serve_tcp(service, listener).expect("backend starts")
        })
        .collect();
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, addrs).expect("coordinator starts");

    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    let mut client = Client::new(stream);
    let mut battery = base;
    for (b, (jobs, &(verdicts, json, generation))) in batches.iter().zip(&WRITER_ROUNDS).enumerate()
    {
        let (merged, next, acked) = writer_round(&mut client, b as u64, &battery, jobs);
        assert_eq!(
            fnv1a(&verdict_bytes(&merged)),
            verdicts,
            "batch {b}: merged verdict bytes"
        );
        assert_eq!(
            fnv1a(next.to_json().as_bytes()),
            json,
            "batch {b}: next generation"
        );
        assert_eq!(acked, generation, "batch {b}: merged BatteryAck generation");
        battery = next;
    }
    client.shutdown().expect("shutdown ack");
    coordinator.shutdown();

    let last = battery.to_json();
    for b in backends {
        let report = b.shutdown();
        let held = report
            .service
            .battery()
            .expect("battery attached")
            .to_json();
        assert!(
            held == last,
            "a backend's battery drifted from the writer's"
        );
        report.service.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Verdicts released as they arrive
// ---------------------------------------------------------------------------

/// What a [`relay`] does with one frame from its backend.
enum Relayed {
    Forward,
    HangUp,
}

/// A relay in front of the backend at `to`, for one connection: the
/// coordinator's bytes pass through as they come, and each frame the
/// backend answers goes through `on_frame` first, which may block or end
/// the connection. Returns the address to route to.
fn relay(
    to: SocketAddr,
    mut on_frame: impl FnMut(&ControlFrame) -> Relayed + Send + 'static,
) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let Ok((coordinator, _)) = listener.accept() else {
            return;
        };
        let backend = TcpStream::connect(to).expect("dial the backend");
        let (mut from, mut into) = (
            coordinator.try_clone().expect("clone"),
            backend.try_clone().expect("clone"),
        );
        std::thread::spawn(move || {
            let _ = io::copy(&mut from, &mut into);
            let _ = into.shutdown(Shutdown::Write);
        });
        let (mut answers, mut out) = (backend, coordinator);
        while let Ok(Some(frame)) = ControlFrame::read_from(&mut answers) {
            match on_frame(&frame) {
                Relayed::Forward if frame.write_to(&mut out).is_ok() => {}
                _ => break,
            }
        }
        let _ = out.shutdown(Shutdown::Both);
        let _ = answers.shutdown(Shutdown::Both);
    });
    addr
}

/// A coordinator over `addrs`, and a client connected through it. Bound
/// in this order, a failing test drops the client first, so the
/// coordinator's shutdown does not wait on a connection still open.
fn through(addrs: Vec<String>) -> (sanity_tdr::Coordinator, Client<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, addrs).expect("coordinator starts");
    let stream = TcpStream::connect(coordinator.local_addr()).expect("connect");
    (coordinator, Client::new(stream))
}

/// A relay holds back the last `Verdict` of backend 1's shard, and with
/// it the shard's `Summary`. Every verdict whose lower indexes are all
/// answered still reaches the client before the relay lets go: the
/// coordinator releases verdicts as they arrive instead of holding them
/// until its slowest shard ends. The merged bytes then equal a single
/// daemon's.
#[test]
fn verdicts_are_released_as_soon_as_every_lower_index_is_answered() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..10);
    let expected = sanity.audit_batch(&jobs, &cfg());
    // Backend 1 audits the odd ids; its last is session 9, at index 9.
    let held_index = 9u64;

    let daemons: Vec<TcpDaemon> = (0..2).map(|_| backend(&sanity, 2)).collect();
    let (let_go, held) = mpsc::channel::<()>();
    let released = Arc::new(AtomicBool::new(false));
    let relay_released = Arc::clone(&released);
    let slow = relay(daemons[1].local_addr(), move |frame| {
        // The shard's fifth and last verdict waits until the client has
        // seen every verdict below it, or for a grace period (which a
        // coordinator holding the whole batch needs).
        if let ControlFrame::Verdict { index: 4, .. } = frame {
            let _ = held.recv_timeout(Duration::from_secs(10));
            relay_released.store(true, Ordering::SeqCst);
        }
        Relayed::Forward
    });
    let addrs = vec![daemons[0].local_addr().to_string(), slow.to_string()];
    let (coordinator, mut client) = through(addrs);

    let mut before_release = 0u64;
    let tdrb = ingest::encode_batch(&jobs);
    let outcome = client
        .submit_batch_with(1, tdrb, |index, _| {
            if !released.load(Ordering::SeqCst) {
                assert!(index < held_index, "verdict {index} overtook the held one");
                before_release += 1;
                if before_release == held_index {
                    let _ = let_go.send(());
                }
            }
        })
        .expect("batch completes");
    assert_eq!(
        before_release, held_index,
        "every verdict below the held index goes out before the relay lets go"
    );
    let summary = outcome.result.expect("audits");
    assert_eq!(
        verdict_bytes(&outcome.verdicts),
        verdict_bytes(&expected.verdicts)
    );
    assert_eq!(
        summary_bytes(&summary.summary),
        summary_bytes(&expected.summary)
    );

    client.shutdown().expect("shutdown ack");
    assert_eq!(coordinator.shutdown().connection_errors, 0);
    for d in daemons {
        d.shutdown().service.shutdown();
    }
}

/// A relay forwards three of backend 1's verdicts, then hangs up. Those
/// three stand; the survivor is asked for exactly the shard's other
/// sessions, as its routing counter and its own `sessions_audited` show,
/// and the merged bytes equal a single daemon's.
#[test]
fn a_dead_backends_unanswered_sessions_alone_move_to_a_survivor() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..10);
    let expected = sanity.audit_batch(&jobs, &cfg());

    let survivor = backend(&sanity, 2);
    let behind = backend(&sanity, 2);
    let mut forwarded = 0;
    let dying = relay(behind.local_addr(), move |frame| {
        if !matches!(frame, ControlFrame::Verdict { .. }) {
            return Relayed::Forward;
        }
        forwarded += 1;
        if forwarded <= 3 {
            Relayed::Forward
        } else {
            Relayed::HangUp
        }
    });
    let addrs = vec![survivor.local_addr().to_string(), dying.to_string()];
    let (coordinator, mut client) = through(addrs);

    let outcome = client
        .submit_batch(1, ingest::encode_batch(&jobs))
        .expect("batch completes despite the dead backend");
    let summary = outcome.result.expect("audits");
    assert_eq!(
        verdict_bytes(&outcome.verdicts),
        verdict_bytes(&expected.verdicts)
    );
    assert_eq!(
        summary_bytes(&summary.summary),
        summary_bytes(&expected.summary)
    );

    // Five even ids, then the two odd ids backend 1 never answered.
    let snap = client.stats().expect("stats over the coordinator");
    assert_eq!(snap.counter("coord_backend_0_sessions"), 5 + 2);
    assert_eq!(snap.counter("coord_backend_0_batches"), 2);
    assert_eq!(snap.counter("coord_backend_1_failures"), 1);
    assert_eq!(snap.counter("coord_retries"), 1);
    client.shutdown().expect("shutdown ack");
    assert_eq!(coordinator.shutdown().connection_errors, 0);

    let report = survivor.shutdown();
    assert_eq!(report.snapshot.counter("sessions_audited"), 5 + 2);
    report.service.shutdown();
    behind.shutdown().service.shutdown();
}

/// One backend refuses its shard (its tenant quota is smaller than the
/// shard) while the other streams verdicts: the refusal is always a
/// backend's first frame, so the client reads it with no verdict before
/// it, and the connection keeps serving.
#[test]
fn a_refused_shard_is_answered_before_any_verdict() {
    let sanity = echo_sanity();
    let jobs = echo_jobs(&sanity, 0..10);
    let streaming = backend(&sanity, 2);
    let refusing = {
        let service = sanity
            .audit_service()
            .workers(2)
            .build()
            .expect("valid service configuration");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
        let options = DaemonOptions {
            tenant_quota: Some(TenantQuota {
                max_sessions: 4,
                max_batches: 100,
            }),
            ..DaemonOptions::default()
        };
        serve_tcp_with(service, listener, options).expect("backend starts")
    };
    let addrs = vec![
        streaming.local_addr().to_string(),
        refusing.local_addr().to_string(),
    ];
    let (coordinator, mut client) = through(addrs);

    let mut seen = 0;
    let outcome = client
        .submit_batch_with(1, ingest::encode_batch(&jobs), |_, _| seen += 1)
        .expect("answered in-band");
    let message = outcome.result.expect_err("backend 1 refuses its shard");
    assert!(message.contains("quota"), "{message}");
    assert_eq!((seen, outcome.verdicts.len()), (0, 0));

    let snap = client.stats().expect("the connection keeps serving");
    assert_eq!(snap.counter("coord_batch_errors"), 1);
    client.shutdown().expect("shutdown ack");
    coordinator.shutdown();
    streaming.shutdown().service.shutdown();
    refusing.shutdown().service.shutdown();
}
