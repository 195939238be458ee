//! Criterion bench for the persistent audit service: warm-service
//! repeated submission vs the one-shot `audit_batch` path, which spins a
//! worker pool up and down per call.
//!
//! Sessions are deliberately tiny (one echoed request each) so the fixed
//! per-call cost — thread spawn, per-worker `ReferenceCache` build,
//! channel teardown — is visible next to the audit replays themselves. On
//! fleet-sized sessions the *relative* gap shrinks but the absolute
//! saving per batch is the same, and a daemon pays it on every batch.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use jbc::hll::{dsl::*, HTy, Module};
use jbc::ElemTy;
use sanity_tdr::audit_pipeline::{AuditService, Reference};
use sanity_tdr::{AuditConfig, AuditJob};

/// One-request echo server: the smallest program that still produces a
/// packet-timing trace to audit.
fn echo_program() -> Arc<jbc::Program> {
    let mut m = Module::new("Echo");
    m.native("wait_packet", &[], None);
    m.native("net_recv", &[HTy::Arr(ElemTy::I8)], Some(HTy::I32));
    m.native("net_send", &[HTy::Arr(ElemTy::I8), HTy::I32], None);
    m.func(fn_void(
        "main",
        vec![],
        vec![
            let_("buf", newarr(ElemTy::I8, i(64))),
            expr(native("wait_packet", vec![])),
            let_("len", native("net_recv", vec![var("buf")])),
            expr(native("net_send", vec![var("buf"), var("len")])),
        ],
    ));
    Arc::new(m.compile().expect("compile"))
}

fn build_jobs(program: &Arc<jbc::Program>, sessions: u64) -> Vec<AuditJob> {
    (0..sessions)
        .map(|id| {
            let rec = replay::record(
                Arc::clone(program),
                machine::MachineConfig::sanity(),
                vm::VmConfig::default(),
                1000 + id,
                |vm| {
                    vm.machine_mut()
                        .deliver_packet(100_000, vec![7 + id as u8; 32]);
                },
            )
            .expect("record");
            AuditJob {
                session_id: id,
                observed_ipds: rec.tx_ipds_cycles(),
                log: rec.log,
            }
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let program = echo_program();
    let jobs = build_jobs(&program, 4);
    let reference = Reference::new(Arc::clone(&program));

    let mut group = c.benchmark_group("service");
    group.sample_size(30);
    for workers in [1usize, 4] {
        // Cold: every call spawns `workers` threads, builds their caches,
        // audits, and tears it all down — the pre-service API cost.
        group.bench_function(format!("cold_audit_batch/4_sessions/{workers}w"), |b| {
            let cfg = AuditConfig {
                workers,
                ..AuditConfig::default()
            };
            b.iter(|| {
                sanity_tdr::audit_pipeline::audit_batch(&reference, &jobs, &cfg)
                    .summary
                    .sessions
            })
        });
        // Warm: the service spawns once outside the measurement loop;
        // each iteration is submission + audit + aggregation only.
        group.bench_function(format!("warm_submit_batch/4_sessions/{workers}w"), |b| {
            let service = AuditService::builder(reference.clone())
                .workers(workers)
                .build()
                .expect("valid service configuration");
            b.iter(|| {
                service
                    .submit(jobs.clone(), None)
                    .expect("built-in reference")
                    .wait()
                    .expect("batch audits")
                    .summary
                    .sessions
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
