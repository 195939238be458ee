//! The staged pass: the same batches, audited in-process by calling each
//! layer's public function in turn.
//!
//! Its verdicts are the reference every deployed batch is compared
//! against, bit for bit, and its exact counters are compared with the
//! deployment's Stats plane. With tracing on, every call gets a span.
//!
//! Every workload takes the same route, the richest one (`lookup_fleet`'s):
//! split the batch across two shards as the coordinator does, check the
//! reference out of a registry once per shard, then decode, replay, score
//! and frame each session. On `nfs_daemon` the routing and registry spans
//! therefore time layers that its deployment does not use; the report
//! marks them as off the deployed path.

use std::sync::Arc;

use audit_pipeline::{
    ingest, AuditConfig, AuditJob, AuditVerdict, BatchStream, BatteryMode, ControlFrame,
    DetectorBattery, FleetSummary, Reference, ReferenceCache, ReferenceId, ReferenceRegistry,
    DEFAULT_REFERENCE_BUDGET,
};
use detectors::{Detector, TdrDetector, TraceView};
use replay::Recorded;

use crate::corpus::{Batch, Corpus};
use crate::deploy::{summary_digest, VerdictDigest, BACKENDS, WORKERS};
use crate::trace::{Span, Stage, Tracer};
use crate::Workload;

/// Cold registry loads timed per run (their median is `registry.load_us`).
const REGISTRY_LOADS: usize = 9;

/// Host-independent per-session work counts, from the replay's
/// `Recorded` and the session itself.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    pub instructions: u64,
    pub gc_runs: u64,
    pub cycles: u64,
    pub tx_packets: u64,
    pub l1d_misses: u64,
    pub l2_misses: u64,
    pub tlb_misses: u64,
    pub branch_mispredicts: u64,
    pub bus_stall_cycles: u64,
    pub ipds: u64,
}

impl Work {
    fn of(rec: &Recorded, job: &AuditJob) -> Work {
        Work {
            instructions: rec.outcome.icount,
            gc_runs: rec.gc_runs,
            cycles: rec.outcome.cycles,
            tx_packets: rec.tx.len() as u64,
            l1d_misses: rec.core.l1d.1,
            l2_misses: rec.core.l2.1,
            tlb_misses: rec.core.tlb.1,
            branch_mispredicts: rec.core.branch.1,
            bus_stall_cycles: rec.core.bus.2,
            ipds: job.observed_ipds.len() as u64,
        }
    }

    pub fn add(&mut self, o: &Work) {
        self.instructions += o.instructions;
        self.gc_runs += o.gc_runs;
        self.cycles += o.cycles;
        self.tx_packets += o.tx_packets;
        self.l1d_misses += o.l1d_misses;
        self.l2_misses += o.l2_misses;
        self.tlb_misses += o.tlb_misses;
        self.branch_mispredicts += o.branch_mispredicts;
        self.bus_stall_cycles += o.bus_stall_cycles;
        self.ipds += o.ipds;
    }
}

/// The reference result of one batch.
pub struct Expected {
    pub verdicts: u64,
    pub summary: u64,
    pub flagged: usize,
    /// Bytes the deployment's daemons read and write for this batch.
    pub wire_in: u64,
    pub wire_out: u64,
    pub checkouts: u64,
    pub tdrb_bytes: u64,
    /// Sessions per shard, in shard order.
    pub shard_sessions: [u64; BACKENDS],
    pub work: Vec<Work>,
}

/// What the staged pass needs besides the batches.
pub struct Plan {
    workload: Workload,
    cfg: AuditConfig,
    reference: Reference,
    registry: ReferenceRegistry,
    reference_id: ReferenceId,
}

impl Plan {
    /// The in-process twin of the deployment's reference, plus a registry
    /// holding the sealed program. The cold loads are timed here.
    pub fn new(workload: Workload, corpus: &Corpus, tracer: &mut Tracer) -> Result<Plan, String> {
        let program = Arc::clone(&corpus.program);
        let (reference, battery) = match workload {
            Workload::NfsDaemon => (
                Reference::new(program)
                    .with_files(corpus.files.clone())
                    .with_battery(DetectorBattery::trained(&corpus.train_ipds)),
                BatteryMode::Full,
            ),
            _ => (Reference::new(program), BatteryMode::TdrOnly),
        };
        let mut registry = None;
        for k in 0..REGISTRY_LOADS as u64 {
            let fresh = ReferenceRegistry::new(DEFAULT_REFERENCE_BUDGET);
            tracer
                .time(Stage::RegistryLoad, k, 0, || fresh.load(&corpus.tdrp))
                .map_err(|e| format!("registry load: {e}"))?;
            registry = Some(fresh);
        }
        let registry = registry.expect("at least one load");
        Ok(Plan {
            workload,
            cfg: AuditConfig {
                battery,
                ..AuditConfig::default()
            },
            reference,
            registry,
            reference_id: corpus.reference_id,
        })
    }
}

/// Score one replayed session exactly as the service's workers do.
fn verdict(
    cfg: &AuditConfig,
    battery: Option<&DetectorBattery>,
    job: &AuditJob,
    rec: &Recorded,
) -> AuditVerdict {
    let replayed = rec.tx_ipds_cycles();
    let trace = TraceView::with_replay(&job.observed_ipds, &replayed);
    let detector_scores = match (cfg.battery, battery) {
        (BatteryMode::Full, Some(b)) => b.score_all(&trace),
        _ => Default::default(),
    };
    let tdr = TdrDetector::new();
    let score = match detector_scores.get(tdr.name()) {
        Some(&s) => s,
        None => tdr.score(&trace),
    };
    AuditVerdict {
        session_id: job.session_id,
        score,
        flagged: score > cfg.threshold,
        tx_packets: rec.tx.len(),
        replayed_cycles: rec.outcome.cycles,
        detector_scores,
        error: None,
    }
}

fn frame_len(frame: ControlFrame) -> u64 {
    frame.encode().len() as u64
}

/// Audit one batch layer by layer.
fn stage_batch(
    plan: &Plan,
    cache: &mut ReferenceCache,
    t: &mut Tracer,
    batch: &Batch,
    tdrb: Vec<u8>,
) -> Result<Expected, String> {
    let bid = batch.id;
    let fleet = plan.workload == Workload::LookupFleet;
    let battery = plan.reference.battery.as_deref();
    let batch_start = t.now_ns();

    // coord.route: decode the whole batch, split by `session_id mod N`,
    // re-encode each shard.
    let jobs = t
        .time(Stage::CoordRoute, bid, bid, || ingest::decode_batch(&tdrb))
        .map_err(|e| format!("batch {bid} failed to decode: {e}"))?;
    let mut shards: [Vec<(usize, AuditJob)>; BACKENDS] = Default::default();
    for (index, job) in jobs.into_iter().enumerate() {
        shards[(job.session_id % BACKENDS as u64) as usize].push((index, job));
    }
    let mut shard_tdrb = Vec::with_capacity(BACKENDS);
    let mut shard_index = Vec::with_capacity(BACKENDS);
    let mut shard_sessions = [0; BACKENDS];
    for (s, shard) in shards.into_iter().enumerate() {
        shard_sessions[s] = shard.len() as u64;
        let (index, jobs): (Vec<usize>, Vec<AuditJob>) = shard.into_iter().unzip();
        shard_tdrb.push(t.time(Stage::CoordRoute, bid, bid, || ingest::encode_batch(&jobs)));
        shard_index.push(index);
    }

    let mut verdicts: Vec<Option<AuditVerdict>> = vec![None; batch.sessions as usize];
    let mut work = Vec::with_capacity(batch.sessions as usize);
    let (mut wire_in, mut wire_out, mut checkouts) = (0, 0, 0);
    let reference = fleet.then_some(plan.reference_id);
    for (s, tdrb) in shard_tdrb.iter().enumerate() {
        if shard_index[s].is_empty() {
            continue;
        }
        let _pin = t
            .time(Stage::RegistryCheckout, s as u64, bid, || {
                plan.registry.checkout(&plan.reference_id)
            })
            .ok_or("registry checkout missed")?;
        checkouts += 1;
        let mut stream = BatchStream::new(&tdrb[..]).map_err(|e| format!("shard header: {e}"))?;
        let mut shard_verdicts = Vec::new();
        for (k, &index) in shard_index[s].iter().enumerate() {
            let start = t.now_ns();
            let job = stream
                .next()
                .ok_or("shard ended early")?
                .map_err(|e| format!("session failed to decode: {e}"))?;
            let sid = job.session_id;
            t.close(Stage::IngestDecode, sid, bid, start);
            let rec = t
                .time(Stage::Replay, sid, bid, || {
                    cache.replay(&job.log, plan.cfg.session_seed(sid))
                })
                .map_err(|e| format!("session {sid} failed to replay: {e}"))?;
            let v = t.time(Stage::DetectorsScore, sid, bid, || {
                verdict(&plan.cfg, battery, &job, &rec)
            });
            work.push(Work::of(&rec, &job));
            // The Verdict frame as the auditing daemon writes it: indexed
            // within its shard behind a coordinator, within the batch
            // otherwise.
            let frame = ControlFrame::Verdict {
                batch_id: bid,
                index: if fleet { k } else { index } as u64,
                verdict: v,
            };
            let bytes = t.time(Stage::ControlEncode, sid, bid, || frame.encode());
            let decoded = t.time(Stage::ControlDecode, sid, bid, || {
                ControlFrame::read_from(&mut &bytes[..])
            });
            let v = match decoded {
                Ok(Some(ControlFrame::Verdict { verdict, .. })) => verdict,
                other => return Err(format!("Verdict frame failed to round-trip: {other:?}")),
            };
            wire_out += bytes.len() as u64;
            if fleet {
                shard_verdicts.push(v.clone());
            }
            verdicts[index] = Some(v);
        }
        if fleet {
            // Each backend answers its shard with its own summary.
            let summary = t.time(Stage::VerdictAggregate, bid, bid, || {
                FleetSummary::from_verdicts(&shard_verdicts)
            });
            wire_in += frame_len(ControlFrame::SubmitBatch {
                batch_id: bid,
                tdrb: tdrb.clone(),
                reference,
            });
            wire_out += frame_len(ControlFrame::Summary {
                batch_id: bid,
                workers: WORKERS / BACKENDS as u64,
                peak_resident: 0,
                summary,
            });
        }
    }
    let verdicts: Vec<AuditVerdict> = verdicts
        .into_iter()
        .map(|v| v.ok_or("a session produced no verdict"))
        .collect::<Result<_, _>>()?;
    let summary = t.time(Stage::VerdictAggregate, bid, bid, || {
        FleetSummary::from_verdicts(&verdicts)
    });
    let tdrb_bytes = tdrb.len() as u64;
    if !fleet {
        wire_in += frame_len(ControlFrame::SubmitBatch {
            batch_id: bid,
            tdrb,
            reference: None,
        });
        wire_out += frame_len(ControlFrame::Summary {
            batch_id: bid,
            workers: WORKERS,
            peak_resident: 0,
            summary: summary.clone(),
        });
    }
    t.close(Stage::Batch, bid, 0, batch_start);
    let mut digest = VerdictDigest::default();
    verdicts.iter().for_each(|v| digest.push(v));
    Ok(Expected {
        verdicts: digest.finish(),
        summary: summary_digest(&summary),
        flagged: summary.flagged.len(),
        wire_in,
        wire_out,
        checkouts,
        tdrb_bytes,
        shard_sessions,
        work,
    })
}

/// Run the staged pass over `batches` on two threads (each with its own
/// warm cache, like two workers). Results come back in batch order.
pub fn run(
    plan: &Plan,
    corpus: &Corpus,
    batches: &[&Batch],
    epoch: std::time::Instant,
    traced: bool,
) -> Result<(Vec<Expected>, Vec<Span>), String> {
    let threads = WORKERS as usize;
    // Thread `k` stages batches k, k + threads, k + 2 * threads, ...
    let per_thread = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|k| {
                scope.spawn(move || -> Result<(Vec<Expected>, Vec<Span>), String> {
                    let mut cache = ReferenceCache::new(&plan.reference);
                    let mut tracer = Tracer::new(epoch, traced);
                    let mut out = Vec::new();
                    for &batch in batches.iter().skip(k).step_by(threads) {
                        let tdrb = corpus.tdrb(batch)?;
                        out.push(stage_batch(plan, &mut cache, &mut tracer, batch, tdrb)?);
                    }
                    Ok((out, tracer.spans))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "staged thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let mut spans = Vec::new();
    let mut results = Vec::new();
    for (expected, s) in per_thread {
        results.push(expected.into_iter());
        spans.extend(s);
    }
    let expected = (0..batches.len())
        .map(|i| results[i % threads].next().expect("every batch staged"))
        .collect();
    Ok((expected, spans))
}
