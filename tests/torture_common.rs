//! Helpers shared by the integration suites: the seeded byte-stream
//! mutator of the protocol torture suites (`protocol_torture.rs`,
//! `integration_daemon_tcp.rs`), the cheap echo fixture, and the NFS
//! fleet and battery-writer round the retraining pins share
//! (`integration_service.rs`, `integration_coordinator.rs`), and the
//! program whose replay panics (`integration_service.rs`,
//! `quiet_replay_panics.rs`). Each test
//! binary pulls this in with `#[path = "torture_common.rs"] mod
//! torture_common;`, so the suites can never drift apart on what "a
//! mutation" or "a writer round" means.

#![allow(dead_code)] // each test binary uses a subset

use std::io::{Read, Write};

use rand::{rngs::StdRng, Rng};
use sanity_tdr::audit_pipeline::verdict::retrain;
use sanity_tdr::audit_pipeline::{ingest, AuditVerdict};
use sanity_tdr::jbc::{ElemTy, Op, Program, ProgramBuilder};
use sanity_tdr::{AckStatus, AuditJob, Client, ControlFrame, DetectorBattery, Sanity};
use workloads::nfs;

/// One seeded mutation of `base`: bit flips, truncation, length-prefix /
/// length-field inflation, duplicated frames, interleaved chunks, or a
/// random byte-span rewrite. Deterministic per RNG state, so every
/// failure reproduces from its seed.
pub fn mutate(rng: &mut StdRng, base: &[u8]) -> Vec<u8> {
    let mut out = base.to_vec();
    match rng.gen_range(0u32..6) {
        // Flip 1–4 random bits anywhere (length prefix, header, body, CRC).
        0 => {
            for _ in 0..rng.gen_range(1usize..=4) {
                let at = rng.gen_range(0..out.len());
                out[at] ^= 1 << rng.gen_range(0u32..8);
            }
        }
        // Truncate strictly inside the stream.
        1 => {
            let at = rng.gen_range(0..out.len());
            out.truncate(at);
        }
        // Inflate 4 bytes at a random offset with a huge little-endian
        // u32 — when it lands on a length prefix this declares far more
        // bytes than exist (or than any bound allows).
        2 => {
            if out.len() >= 4 {
                let at = rng.gen_range(0..=out.len() - 4);
                let huge: u32 = rng.gen_range(1u32 << 20..=u32::MAX);
                out[at..at + 4].copy_from_slice(&huge.to_le_bytes());
            }
        }
        // Duplicate a prefix onto the end (repeated / trailing frames).
        3 => {
            let upto = rng.gen_range(0..=out.len());
            let dup = out[..upto].to_vec();
            out.extend_from_slice(&dup);
        }
        // Interleave: splice a chunk of the stream into a random position.
        4 => {
            let lo = rng.gen_range(0..out.len());
            let hi = rng.gen_range(lo..=out.len());
            let chunk = out[lo..hi].to_vec();
            let at = rng.gen_range(0..=out.len());
            let tail = out.split_off(at);
            out.extend_from_slice(&chunk);
            out.extend_from_slice(&tail);
        }
        // Rewrite a random span with random bytes.
        _ => {
            let lo = rng.gen_range(0..out.len());
            let hi = rng.gen_range(lo..=out.len().min(lo + 64));
            for slot in &mut out[lo..hi] {
                *slot = rng.gen_range(0u32..256) as u8;
            }
        }
    }
    out
}

/// A cheap echo reference (three request/response rounds): real
/// replayable sessions without NFS-scale recording cost.
pub fn echo_sanity() -> Sanity {
    echo_sanity_with(3)
}

/// [`echo_sanity`] with a configurable round count (IPDs per session =
/// rounds − 1): the one definition every suite shares, so fixtures
/// cannot drift.
pub fn echo_sanity_with(rounds: i32) -> Sanity {
    use sanity_tdr::jbc::hll::{dsl::*, HTy, Module};
    use sanity_tdr::jbc::ElemTy;
    let mut m = Module::new("Echo");
    m.native("wait_packet", &[], None);
    m.native("net_recv", &[HTy::Arr(ElemTy::I8)], Some(HTy::I32));
    m.native("net_send", &[HTy::Arr(ElemTy::I8), HTy::I32], None);
    m.func(fn_void(
        "main",
        vec![],
        vec![
            let_("buf", newarr(ElemTy::I8, i(256))),
            let_("done", i(0)),
            while_(
                lt(var("done"), i(rounds)),
                vec![
                    expr(native("wait_packet", vec![])),
                    let_("len", native("net_recv", vec![var("buf")])),
                    if_(
                        gt(var("len"), i(0)),
                        vec![
                            expr(native("net_send", vec![var("buf"), var("len")])),
                            set("done", add(var("done"), i(1))),
                        ],
                        vec![],
                    ),
                ],
            ),
        ],
    ));
    Sanity::new(m.compile().expect("compile echo program"))
}

/// Record one clean echo session per id.
pub fn echo_jobs(sanity: &Sanity, ids: std::ops::Range<u64>) -> Vec<AuditJob> {
    ids.map(|id| {
        let rec = sanity
            .record(700 + id, move |vm| {
                for k in 0..3u64 {
                    let data = vec![(9 + k) as u8 ^ id as u8; 48];
                    vm.machine_mut().deliver_packet(100_000 + k * 400_000, data);
                }
            })
            .expect("record echo session");
        AuditJob {
            session_id: id,
            observed_ipds: rec.tx_ipds_cycles(),
            log: rec.log,
        }
    })
    .collect()
}

/// The NFS reference the service suites audit against.
pub fn nfs_sanity(seed: u64) -> Sanity {
    Sanity::new(nfs::server_program(4)).with_files(nfs::make_files(4, 1500, 4000, seed))
}

/// A small mixed NFS fleet: clean sessions, plus a covert delay on
/// session `covert`.
pub fn fleet(sanity: &Sanity, ids: std::ops::Range<u64>, covert: u64) -> Vec<AuditJob> {
    ids.map(|id| {
        let rec = sanity
            .record(100 + id, |vm| {
                let files = nfs::make_files(4, 1500, 4000, 14);
                let sched = nfs::client_schedule(&files, 200_000, 700_000, 14 ^ 1);
                for (at, pkt) in sched.packets.into_iter().take(4) {
                    vm.machine_mut().deliver_packet(at, pkt);
                }
                if id == covert {
                    vm.set_delay_model(Box::new(sanity_tdr::vm::ScheduledDelays::new(vec![
                        0, 150_000, 0, 150_000,
                    ])));
                }
            })
            .expect("record");
        AuditJob {
            session_id: id,
            observed_ipds: rec.tx_ipds_cycles(),
            log: rec.log,
        }
    })
    .collect()
}

/// A battery trained on every session of `jobs` except `covert`.
pub fn trained_on_clean(jobs: &[AuditJob], covert: u64) -> DetectorBattery {
    let clean: Vec<Vec<u64>> = jobs
        .iter()
        .filter(|j| j.session_id != covert)
        .map(|j| j.observed_ipds.clone())
        .collect();
    DetectorBattery::trained(&clean)
}

/// The retraining pins' fixture: three 4-session NFS batches (ids 0..4,
/// 4..8 and 8..12, with sessions 2, 6 and 9 covert) and the base
/// battery, trained on the first batch's clean sessions.
pub fn writer_fixture() -> (Sanity, Vec<Vec<AuditJob>>, DetectorBattery) {
    let sanity = nfs_sanity(14);
    let batches: Vec<Vec<AuditJob>> = [(0..4, 2), (4..8, 6), (8..12, 9)]
        .into_iter()
        .map(|(ids, covert)| fleet(&sanity, ids, covert))
        .collect();
    let base = trained_on_clean(&batches[0], 2);
    (sanity, batches, base)
}

/// Per batch of [`writer_fixture`] on a two-worker Full-battery daemon,
/// what in-service retraining produced before a battery's writer moved
/// out of the service: FNV-1a 64 of the batch's [`verdict_bytes`], FNV-1a
/// 64 of the next generation's JSON, and that generation's number. A
/// writer running [`writer_round`] must reproduce each row.
pub const WRITER_ROUNDS: [(u64, u64, u64); 3] = [
    (0x8ca5_7139_2e4f_523d, 0xaf8f_454b_1efb_3af3, 1),
    (0xdfec_df88_0e28_0f17, 0x2543_4eee_c572_0994, 2),
    (0xabf3_711b_98a2_f81d, 0x37b0_a3a1_76e7_b44d, 3),
];

/// FNV-1a 64. Each sealed TDRC frame ends in its own CRC-32, so a CRC-32
/// over concatenated frames comes out the same for every batch; this
/// hash does not.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `verdicts` encoded as `Verdict` frames (batch id 0, submission
/// indexes), concatenated.
pub fn verdict_bytes(verdicts: &[AuditVerdict]) -> Vec<u8> {
    let mut bytes = Vec::new();
    for (index, verdict) in verdicts.iter().enumerate() {
        ControlFrame::Verdict {
            batch_id: 0,
            index: index as u64,
            verdict: verdict.clone(),
        }
        .write_to(&mut bytes)
        .expect("encode");
    }
    bytes
}

/// One round of a battery's one writer: submit `jobs`, retrain `battery`
/// on the batch's clean sessions, and install the result with
/// `PutBattery`. Returns the wire verdicts, the installed battery and
/// the acked generation.
pub fn writer_round<T: Read + Write>(
    client: &mut Client<T>,
    batch_id: u64,
    battery: &DetectorBattery,
    jobs: &[AuditJob],
) -> (Vec<AuditVerdict>, DetectorBattery, u64) {
    let outcome = client
        .submit_batch(batch_id, ingest::encode_batch(jobs))
        .expect("batch completes");
    outcome.result.expect("batch audits");
    let next = retrain(battery, jobs, &outcome.verdicts).expect("the batch has clean sessions");
    let ack = client
        .put_battery(batch_id, next.battery.to_json())
        .expect("PutBattery answered");
    assert_eq!(ack.status, AckStatus::Loaded);
    (outcome.verdicts, next.battery, ack.generation)
}

/// Waits for one packet and answers it, unless its first byte is nonzero:
/// then it loads from a byte array with `iaload`. The verifier counts
/// stack depth, not operand types, so the program verifies, and that
/// load panics the interpreter.
pub fn picky_program() -> Program {
    let mut b = ProgramBuilder::new();
    let main = {
        let mut m = b.static_method("Picky", "main", &[], None);
        m.locals(1);
        m.op(Op::IConst(64))
            .op(Op::NewArray(ElemTy::I8))
            .op(Op::AStore(0));
        m.invoke_native("wait_packet", 0, false);
        m.op(Op::ALoad(0))
            .invoke_native("net_recv", 1, true)
            .op(Op::Pop);
        m.op(Op::ALoad(0)).op(Op::IConst(0)).op(Op::BALoad);
        let answer = m.label();
        m.br(Op::IfEq, answer);
        m.op(Op::IConst(4)).op(Op::NewArray(ElemTy::I8));
        m.op(Op::IConst(0))
            .op(Op::IALoad)
            .op(Op::Pop)
            .op(Op::Return);
        m.bind(answer);
        m.op(Op::ALoad(0)).op(Op::IConst(16));
        m.invoke_native("net_send", 2, false).op(Op::Return);
        m.finish()
    };
    b.set_entry(main);
    b.link().expect("link")
}

/// A recorded session of [`picky_program`]; a `bad` one carries the same
/// log with the packet's first byte set, whose replay panics.
pub fn picky_job(sanity: &Sanity, id: u64, bad: bool) -> AuditJob {
    let rec = sanity
        .record(300 + id, move |vm| {
            vm.machine_mut()
                .deliver_packet(120_000 + id * 9_000, vec![0; 32]);
        })
        .expect("record");
    let observed_ipds = rec.tx_ipds_cycles();
    let mut log = rec.log;
    log.packets[0].data[0] = u8::from(bad);
    AuditJob {
        session_id: id,
        observed_ipds,
        log,
    }
}
