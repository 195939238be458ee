//! The one-shot audit entry points: one temporary-service helper behind
//! two signatures.
//!
//! * [`audit_batch`] — a materialized `&[AuditJob]` fanned out across
//!   workers;
//! * [`audit_stream`] — a pull-based session iterator (normally a
//!   [`crate::ingest::BatchStream`] over a file or socket) consumed under
//!   backpressure: decode of the next session waits until the number of
//!   sessions resident (decoded but not yet audited) drops below
//!   [`AuditConfig::high_water`], so a terabyte batch audits in bounded
//!   memory.
//!
//! Both spin up a **temporary** [`AuditService`] (spawn workers, audit one
//! submission on its built-in reference, shut down), feeding it on the
//! calling thread, so the session source may borrow caller state.
//! Anything auditing continuously should hold a service and
//! [`AuditService::submit`] to it instead, keeping its worker pool and
//! reference caches warm across submissions. The same goes for
//! observability: the temporary service's metrics registry and trace ring
//! (see [`crate::obs`]) die with it, so callers who want live counters or
//! a `Stats` frame must hold a service and read
//! [`AuditService::metrics_snapshot`]. Output is pinned byte-identical to
//! a held service: a verdict depends only on the job, the configuration,
//! and the session seed, so pool lifetime is unobservable in the output.
//! The legacy `0` fallbacks ([`AuditConfig::resolved_workers`] /
//! `resolved_high_water`) are resolved *here*, at the entry point — the
//! service itself rejects zero values with a typed
//! [`crate::ConfigError`].

use crate::ingest::IngestError;
use crate::service::AuditService;
use crate::verdict::{AuditVerdict, FleetSummary};
use crate::{AuditConfig, AuditJob, Reference};

/// Everything an audit produces.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// One verdict per submitted session, in submission order.
    pub verdicts: Vec<AuditVerdict>,
    /// Deterministic fleet-wide aggregation — byte-identical for owned
    /// jobs and for a stream of the same sessions.
    pub summary: FleetSummary,
    /// Workers that actually ran.
    pub workers: usize,
    /// The most sessions ever resident at once (decoded, not yet audited)
    /// while a stream was fed; never exceeds [`AuditConfig::high_water`].
    /// Zero for owned jobs, which are resident already and fed ungated.
    pub peak_resident: usize,
}

/// Audit a batch of sessions against `reference`.
///
/// # Panics
///
/// Panics with [`crate::ConfigError::MissingBattery`]'s message if `cfg`
/// asks for [`crate::BatteryMode::Full`] but `reference` carries no
/// trained battery.
pub fn audit_batch(reference: &Reference, jobs: &[AuditJob], cfg: &AuditConfig) -> BatchReport {
    let sessions = jobs.iter().cloned().map(Ok);
    one_shot(reference, sessions, Some(jobs.len()), cfg).expect("owned jobs never fail ingest")
}

/// Audit a stream of sessions against `reference` in bounded memory.
///
/// `sessions` is any pull-based source of decoded sessions — normally a
/// [`crate::ingest::BatchStream`] over a file or socket, but any iterator
/// of `Result<AuditJob, IngestError>` works. Sessions are decoded lazily:
/// the next item is pulled only when the resident set is below
/// [`AuditConfig::high_water`], which is the backpressure that keeps a
/// batch far larger than RAM auditable.
///
/// Verdicts are byte-identical to [`audit_batch`] over the same sessions —
/// each session's replay seed depends only on the batch seed and its
/// session id, never on chunking, scheduling, or the high-water mark.
///
/// The first stream error aborts the audit and is returned after in-flight
/// sessions drain; like the materialized path, a malformed session poisons
/// the batch (reported by index), but bytes before it are never replayed
/// twice and bytes after it are never pulled. Panics like [`audit_batch`].
pub fn audit_stream<I>(
    reference: &Reference,
    sessions: I,
    cfg: &AuditConfig,
) -> Result<BatchReport, IngestError>
where
    I: IntoIterator<Item = Result<AuditJob, IngestError>>,
{
    one_shot(reference, sessions, None, cfg)
}

/// The temporary-service helper under both entry points. `len` is the
/// session count of owned jobs (fed ungated), or `None` for a stream (fed
/// under the high-water gate).
fn one_shot<I>(
    reference: &Reference,
    sessions: I,
    len: Option<usize>,
    cfg: &AuditConfig,
) -> Result<BatchReport, IngestError>
where
    I: IntoIterator<Item = Result<AuditJob, IngestError>>,
{
    let high_water = cfg.resolved_high_water();
    // More workers than sessions, or than residency slots, could never
    // all be busy.
    let workers = cfg.resolved_workers().min(len.unwrap_or(high_water)).max(1);
    let service = AuditService::builder(reference.clone())
        .config(AuditConfig {
            workers,
            high_water,
            ..*cfg
        })
        .build()
        // Fail fast — on the calling thread, not inside a worker.
        .unwrap_or_else(|e| panic!("{e}"));
    let report = service.audit_blocking(sessions, len);
    service.shutdown();
    report
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    use jbc::hll::{dsl::*, HTy, Module};
    use jbc::ElemTy;
    use replay::record;

    use super::*;

    /// The echo server from the replay test suite: `n` requests, each
    /// echoed after compute proportional to the payload's first byte.
    fn echo_program(n: i32) -> Arc<jbc::Program> {
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
                    lt(var("done"), i(n)),
                    vec![
                        expr(native("wait_packet", vec![])),
                        let_("len", native("net_recv", vec![var("buf")])),
                        if_(
                            gt(var("len"), i(0)),
                            vec![
                                let_("work", idx(var("buf"), i(0))),
                                let_("acc", i(0)),
                                for_(
                                    "k",
                                    i(0),
                                    mul(var("work"), i(10)),
                                    vec![set("acc", add(var("acc"), var("k")))],
                                ),
                                expr(native("net_send", vec![var("buf"), var("len")])),
                                set("done", add(var("done"), i(1))),
                            ],
                            vec![],
                        ),
                    ],
                ),
            ],
        ));
        Arc::new(m.compile().expect("compile"))
    }

    /// Record one session; returns its job with observed IPDs equal to the
    /// recorded wire timing, optionally stretched at `tamper` positions to
    /// model a covert sender delaying packets on the wire.
    fn session(program: &Arc<jbc::Program>, session_id: u64, tamper: &[usize]) -> AuditJob {
        let rec = record(
            Arc::clone(program),
            machine::MachineConfig::sanity(),
            vm::VmConfig::default(),
            1000 + session_id,
            |vm| {
                for k in 0..5u64 {
                    let data = vec![(10 + k * 3) as u8; 64];
                    vm.machine_mut().deliver_packet(100_000 + k * 400_000, data);
                }
            },
        )
        .expect("record");
        let mut observed = rec.tx_ipds_cycles();
        for &t in tamper {
            observed[t] += observed[t] / 5; // +20%: far above the noise floor
        }
        AuditJob {
            session_id,
            log: rec.log,
            observed_ipds: observed,
        }
    }

    fn mixed_batch(program: &Arc<jbc::Program>) -> (Vec<AuditJob>, Vec<u64>) {
        let mut jobs = Vec::new();
        let mut covert = Vec::new();
        for id in 0..8u64 {
            if id % 3 == 2 {
                jobs.push(session(program, id, &[1]));
                covert.push(id);
            } else {
                jobs.push(session(program, id, &[]));
            }
        }
        (jobs, covert)
    }

    #[test]
    fn batch_flags_exactly_the_tampered_sessions() {
        let program = echo_program(5);
        let (jobs, covert) = mixed_batch(&program);
        let report = audit_batch(&Reference::new(program), &jobs, &AuditConfig::default());
        assert_eq!(report.summary.flagged, covert);
        assert_eq!(report.summary.errors, 0);
        assert_eq!(report.summary.sessions, jobs.len() as u64);
    }

    #[test]
    fn verdicts_independent_of_worker_count() {
        let program = echo_program(5);
        let (jobs, _) = mixed_batch(&program);
        let reference = Reference::new(program);
        let base = AuditConfig::default();
        let one = audit_batch(&reference, &jobs, &AuditConfig { workers: 1, ..base });
        let four = audit_batch(&reference, &jobs, &AuditConfig { workers: 4, ..base });
        assert_eq!(one.verdicts, four.verdicts);
        assert_eq!(one.summary, four.summary);
        assert_eq!(one.workers, 1);
    }

    #[test]
    fn verdicts_independent_of_submission_order() {
        let program = echo_program(5);
        let (mut jobs, _) = mixed_batch(&program);
        let reference = Reference::new(program);
        let cfg = AuditConfig {
            workers: 2,
            ..AuditConfig::default()
        };
        let forward = audit_batch(&reference, &jobs, &cfg);
        jobs.reverse();
        let backward = audit_batch(&reference, &jobs, &cfg);
        let mut f = forward.verdicts.clone();
        let mut b = backward.verdicts.clone();
        f.sort_by_key(|v| v.session_id);
        b.sort_by_key(|v| v.session_id);
        assert_eq!(f, b);
        assert_eq!(forward.summary, backward.summary);
    }

    #[test]
    fn streaming_sees_every_verdict_once() {
        let program = echo_program(5);
        let (jobs, _) = mixed_batch(&program);
        let mut seen = vec![0u32; jobs.len()];
        let service = AuditService::builder(Reference::new(program))
            .workers(3)
            .build()
            .expect("valid configuration");
        let mut ticket = service
            .submit(jobs.clone(), None)
            .expect("built-in reference");
        while let Some((i, v)) = ticket.recv() {
            seen[i] += 1;
            assert_eq!(v.session_id, jobs[i].session_id);
        }
        let report = ticket.wait().expect("owned jobs never fail ingest");
        assert!(seen.iter().all(|&c| c == 1), "{seen:?}");
        assert_eq!(report.verdicts.len(), jobs.len());
        service.shutdown();
    }

    #[test]
    fn suppressed_output_scores_maximal() {
        let program = echo_program(5);
        let mut job = session(&program, 0, &[]);
        // The suspect machine sent one packet fewer than it should have
        // (e.g. a channel encoding in packet *presence*): the IPD count no
        // longer matches the reference, which is maximal evidence.
        job.observed_ipds.pop();
        let report = audit_batch(&Reference::new(program), &[job], &AuditConfig::default());
        let v = &report.verdicts[0];
        assert_eq!(v.score, 1.0);
        assert!(v.flagged);
        assert!(v.error.is_none());
    }

    #[test]
    fn empty_batch_is_empty_report() {
        let program = echo_program(5);
        let report = audit_batch(&Reference::new(program), &[], &AuditConfig::default());
        assert!(report.verdicts.is_empty());
        assert_eq!(report.summary.sessions, 0);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn stream_and_batch_verdicts_are_identical() {
        let program = echo_program(5);
        let (jobs, _) = mixed_batch(&program);
        let reference = Reference::new(program);
        let cfg = AuditConfig {
            workers: 3,
            high_water: 4,
            ..AuditConfig::default()
        };
        let batch = audit_batch(&reference, &jobs, &cfg);
        let stream =
            audit_stream(&reference, jobs.iter().cloned().map(Ok), &cfg).expect("clean stream");
        assert_eq!(stream.verdicts, batch.verdicts);
        assert_eq!(stream.summary, batch.summary);
        assert!(
            stream.peak_resident <= 4,
            "peak {} exceeds high-water mark",
            stream.peak_resident
        );
    }

    #[test]
    fn battery_mode_scores_all_detectors_and_keeps_tdr_bit_identical() {
        let program = echo_program(5);
        let (jobs, covert) = mixed_batch(&program);
        let clean_traces: Vec<Vec<u64>> = jobs
            .iter()
            .filter(|j| !covert.contains(&j.session_id))
            .map(|j| j.observed_ipds.clone())
            .collect();

        let plain = Reference::new(Arc::clone(&program));
        let with_battery = Reference::new(Arc::clone(&program))
            .with_battery(detectors::DetectorBattery::trained(&clean_traces));

        let base = AuditConfig {
            workers: 3,
            ..AuditConfig::default()
        };
        let tdr_only = audit_batch(&plain, &jobs, &base);
        let full = audit_batch(
            &with_battery,
            &jobs,
            &AuditConfig {
                battery: crate::BatteryMode::Full,
                ..base
            },
        );

        assert_eq!(full.summary.flagged, covert);
        for (a, b) in tdr_only.verdicts.iter().zip(&full.verdicts) {
            assert_eq!(
                a.score.to_bits(),
                b.score.to_bits(),
                "battery must not perturb the TDR score"
            );
            assert_eq!(a.flagged, b.flagged);
            assert!(a.detector_scores.is_empty());
            assert_eq!(b.detector_scores.len(), 5);
            assert_eq!(b.detector_scores["Sanity"].to_bits(), b.score.to_bits());
        }
        assert_eq!(full.summary.detector_stats.len(), 5);

        // The streamed path agrees byte-for-byte.
        let stream = audit_stream(
            &with_battery,
            jobs.iter().cloned().map(Ok),
            &AuditConfig {
                battery: crate::BatteryMode::Full,
                ..base
            },
        )
        .expect("clean stream");
        assert_eq!(stream.verdicts, full.verdicts);
        assert_eq!(stream.summary, full.summary);
    }

    #[test]
    #[should_panic(expected = "BatteryMode::Full needs a trained battery")]
    fn battery_mode_without_battery_panics() {
        let program = echo_program(5);
        let jobs = vec![session(&program, 0, &[])];
        let cfg = AuditConfig {
            workers: 1,
            battery: crate::BatteryMode::Full,
            ..AuditConfig::default()
        };
        audit_batch(&Reference::new(program), &jobs, &cfg);
    }

    #[test]
    fn stream_respects_tiny_high_water_mark() {
        let program = echo_program(5);
        let (jobs, _) = mixed_batch(&program);
        let reference = Reference::new(program);
        let cfg = AuditConfig {
            workers: 8,
            high_water: 1,
            ..AuditConfig::default()
        };
        let report =
            audit_stream(&reference, jobs.iter().cloned().map(Ok), &cfg).expect("clean stream");
        assert_eq!(report.peak_resident, 1, "one session resident at a time");
        assert_eq!(report.workers, 1, "workers capped by residency slots");
        assert_eq!(report.verdicts.len(), jobs.len());
    }

    #[test]
    fn stream_error_aborts_and_stops_pulling() {
        let program = echo_program(5);
        let (jobs, _) = mixed_batch(&program);
        let reference = Reference::new(program);
        let pulled = std::sync::atomic::AtomicUsize::new(0);
        let err = crate::ingest::IngestError::Truncated;
        let items: Vec<Result<AuditJob, _>> = jobs
            .iter()
            .take(3)
            .cloned()
            .map(Ok)
            .chain([Err(err.clone())])
            .chain(jobs.iter().skip(3).cloned().map(Ok))
            .collect();
        let counted = items.into_iter().inspect(|_| {
            pulled.fetch_add(1, Ordering::SeqCst);
        });
        let got = audit_stream(&reference, counted, &AuditConfig::default());
        assert_eq!(got, Err(err));
        assert_eq!(
            pulled.load(Ordering::SeqCst),
            4,
            "nothing pulled past the malformed session"
        );
    }

    #[test]
    fn empty_stream_is_empty_report() {
        let program = echo_program(5);
        let report = audit_stream(
            &Reference::new(program),
            std::iter::empty::<Result<AuditJob, crate::ingest::IngestError>>(),
            &AuditConfig::default(),
        )
        .expect("empty stream");
        assert!(report.verdicts.is_empty());
        assert_eq!(report.summary.sessions, 0);
        assert_eq!(report.peak_resident, 0);
    }
}
