//! The two deployment shapes, driven the way a client drives them: one
//! connection, one batch in flight, the next batch sent when the previous
//! summary arrives.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use audit_pipeline::{
    serve_coordinator, serve_tcp, AckStatus, AuditService, AuditVerdict, BatchOutcome, BatteryMode,
    Client, ControlFrame, Coordinator, DetectorBattery, FleetSummary, MetricsSnapshot, Reference,
    ReferenceId, TcpDaemon,
};

use crate::corpus::{Batch, Corpus};
use crate::Workload;

/// Audit workers in each deployment, in total (the host has two cores).
pub const WORKERS: u64 = 2;
/// Backends behind the coordinator (one worker each).
pub const BACKENDS: usize = 2;

/// What one batch exchange produced, reduced to what the checks need.
pub struct Outcome {
    /// Submit to summary.
    pub latency: Duration,
    /// Submit to the first verdict.
    pub first_verdict: Duration,
    /// Bitwise digest of the verdicts in submission order.
    pub verdicts: u64,
    /// Bitwise digest of the summary.
    pub summary: u64,
    pub flagged: usize,
}

/// Bitwise digest of a batch's verdicts, folded in submission order.
#[derive(Default)]
pub struct VerdictDigest(DefaultHasher);

impl VerdictDigest {
    pub fn push(&mut self, v: &AuditVerdict) {
        let h = &mut self.0;
        v.session_id.hash(h);
        v.score.to_bits().hash(h);
        v.flagged.hash(h);
        v.tx_packets.hash(h);
        v.replayed_cycles.hash(h);
        for (name, score) in &v.detector_scores {
            name.hash(h);
            score.to_bits().hash(h);
        }
        v.error.hash(h);
    }

    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Bitwise digest of a summary: its TDRC encoding with the
/// topology-dependent `workers`/`peak_resident` fields zeroed.
pub fn summary_digest(summary: &FleetSummary) -> u64 {
    crate::corpus::digest(
        &ControlFrame::Summary {
            batch_id: 0,
            workers: 0,
            peak_resident: 0,
            summary: summary.clone(),
        }
        .encode(),
    )
}

/// The Stats-plane counters the benchmark reads, summed over every
/// process of the deployment.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    pub sessions_audited: u64,
    pub replayed_cycles: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
    pub worker_busy_nanos: u64,
    pub registry_hits: u64,
    pub registry_misses: u64,
    pub conn_errors: u64,
    pub routed: u64,
    pub retries: u64,
    pub backend_sessions: Vec<u64>,
    /// Bytes the Stats exchange itself added: the request is counted
    /// before the snapshot it asks for, the response after.
    pub request_bytes: u64,
    pub response_bytes: u64,
}

impl Stats {
    fn add_daemon(&mut self, s: &MetricsSnapshot) {
        self.sessions_audited += s.counter("sessions_audited");
        self.replayed_cycles += s.counter("replayed_cycles");
        self.bytes_in += s.counter("bytes_in");
        self.bytes_out += s.counter("bytes_out");
        self.worker_busy_nanos += s.counter("worker_busy_nanos");
        self.registry_hits += s.counter("registry_hits");
        self.registry_misses += s.counter("registry_misses");
        self.conn_errors += s.counter("conn_errors");
    }

    /// Counter growth from `self` to `after`, net of the Stats exchanges.
    pub fn delta(&self, after: &Stats) -> Stats {
        Stats {
            sessions_audited: after.sessions_audited - self.sessions_audited,
            replayed_cycles: after.replayed_cycles - self.replayed_cycles,
            bytes_in: after.bytes_in - self.bytes_in - after.request_bytes,
            bytes_out: after.bytes_out - self.bytes_out - self.response_bytes,
            worker_busy_nanos: after.worker_busy_nanos - self.worker_busy_nanos,
            registry_hits: after.registry_hits - self.registry_hits,
            registry_misses: after.registry_misses - self.registry_misses,
            conn_errors: after.conn_errors - self.conn_errors,
            routed: after.routed - self.routed,
            retries: after.retries - self.retries,
            backend_sessions: after
                .backend_sessions
                .iter()
                .zip(&self.backend_sessions)
                .map(|(a, b)| a - b)
                .collect(),
            request_bytes: 0,
            response_bytes: 0,
        }
    }
}

/// A running deployment plus the client's connection to it.
///
/// Fields drop in declaration order, so the client connections close
/// before their servers drain: a server's shutdown waits for its
/// connections to end.
pub enum Deployment {
    /// `nfs_daemon`: one TCP daemon.
    Daemon { conn: TcpStream, daemon: TcpDaemon },
    /// `lookup_fleet`: a coordinator in front of two daemons.
    Fleet {
        conn: TcpStream,
        /// The benchmark's own Stats connections to each backend, opened
        /// after set-up.
        observers: Vec<TcpStream>,
        reference: ReferenceId,
        coord: Coordinator,
        backends: Vec<TcpDaemon>,
    },
}

fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn connect(addr: std::net::SocketAddr) -> Result<TcpStream, String> {
    let conn = TcpStream::connect(addr).map_err(io_err("connect"))?;
    conn.set_nodelay(true).map_err(io_err("set_nodelay"))?;
    Ok(conn)
}

fn listener() -> Result<TcpListener, String> {
    TcpListener::bind("127.0.0.1:0").map_err(io_err("bind"))
}

fn build(reference: Reference, workers: u64, mode: BatteryMode) -> Result<AuditService, String> {
    AuditService::builder(reference)
        .workers(workers as usize)
        .battery(mode)
        .build()
        .map_err(|e| format!("service build: {e}"))
}

impl Deployment {
    /// Cold start, from the first constructor call until the deployment
    /// can take the first batch. This is what `setup_s` times.
    pub fn start(workload: Workload, corpus: &Corpus) -> Result<Deployment, String> {
        let program = Arc::clone(&corpus.program);
        match workload {
            Workload::NfsDaemon => {
                let battery = DetectorBattery::trained(&corpus.train_ipds);
                let reference = Reference::new(program)
                    .with_files(corpus.files.clone())
                    .with_battery(battery);
                let service = build(reference, WORKERS, BatteryMode::Full)?;
                let daemon = serve_tcp(service, listener()?).map_err(io_err("serve_tcp"))?;
                let conn = connect(daemon.local_addr())?;
                Ok(Deployment::Daemon { conn, daemon })
            }
            Workload::LookupFleet => {
                let backends = (0..BACKENDS)
                    .map(|_| {
                        let service = build(
                            Reference::new(Arc::clone(&program)),
                            WORKERS / BACKENDS as u64,
                            BatteryMode::TdrOnly,
                        )?;
                        serve_tcp(service, listener()?).map_err(io_err("serve_tcp"))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                let addrs = backends
                    .iter()
                    .map(|d| d.local_addr().to_string())
                    .collect();
                let coord =
                    serve_coordinator(listener()?, addrs).map_err(io_err("serve_coordinator"))?;
                let conn = connect(coord.local_addr())?;
                let put = Client::new(&conn)
                    .put_reference(1, corpus.tdrp.clone())
                    .map_err(|e| format!("PutReference: {e}"))?;
                if put.status != AckStatus::Loaded || put.reference != corpus.reference_id {
                    return Err(format!(
                        "PutReference answered {} for {}",
                        put.status.name(),
                        put.reference
                    ));
                }
                Ok(Deployment::Fleet {
                    conn,
                    observers: Vec::new(),
                    reference: put.reference,
                    coord,
                    backends,
                })
            }
        }
    }

    /// Open the benchmark's own Stats connections (outside set-up time).
    pub fn observe(&mut self) -> Result<(), String> {
        if let Deployment::Fleet {
            backends,
            observers,
            ..
        } = self
        {
            for d in backends {
                observers.push(connect(d.local_addr())?);
            }
        }
        Ok(())
    }

    /// Audit one batch: submit its TDRB bytes and wait for its summary.
    pub fn submit(&mut self, batch: &Batch, tdrb: Vec<u8>) -> Result<Outcome, String> {
        let start = Instant::now();
        match self {
            Deployment::Daemon { conn, .. } => {
                let mut first = None;
                let outcome = Client::new(&*conn)
                    .submit_batch_with(batch.id, tdrb, |_, _| {
                        first.get_or_insert_with(|| start.elapsed());
                    })
                    .map_err(|e| format!("SubmitBatch: {e}"))?;
                let latency = start.elapsed();
                reduce(batch, outcome, latency, first)
            }
            Deployment::Fleet {
                conn, reference, ..
            } => {
                let outcome = Client::new(&*conn)
                    .submit_batch_for(batch.id, tdrb, *reference)
                    .map_err(|e| format!("SubmitBatch v2: {e}"))?;
                let latency = start.elapsed();
                // The coordinator forwards no verdict before every shard
                // has answered, so the first one arrives at batch time.
                reduce(batch, outcome, latency, Some(latency))
            }
        }
    }

    /// Read the Stats plane of every process in the deployment.
    pub fn stats(&mut self) -> Result<Stats, String> {
        let mut stats = Stats::default();
        let request_len = ControlFrame::StatsRequest.encode().len() as u64;
        let poll = |conn: &TcpStream, stats: &mut Stats| -> Result<MetricsSnapshot, String> {
            let snapshot = Client::new(conn)
                .stats()
                .map_err(|e| format!("Stats: {e}"))?;
            stats.request_bytes += request_len;
            stats.response_bytes += ControlFrame::Stats {
                snapshot: snapshot.clone(),
            }
            .encode()
            .len() as u64;
            Ok(snapshot)
        };
        match self {
            Deployment::Daemon { conn, .. } => {
                let snapshot = poll(conn, &mut stats)?;
                stats.add_daemon(&snapshot);
            }
            Deployment::Fleet {
                conn, observers, ..
            } => {
                // The coordinator counts no bytes, so its own Stats
                // exchange adds nothing to the backends' byte counters.
                let coord = Client::new(&*conn)
                    .stats()
                    .map_err(|e| format!("coordinator Stats: {e}"))?;
                stats.routed = coord.counter("coord_sessions_routed");
                stats.retries =
                    coord.counter("coord_retries") + coord.counter("coord_backend_failures");
                stats.conn_errors = coord.counter("conn_errors");
                stats.backend_sessions = (0..BACKENDS)
                    .map(|i| coord.counter(&format!("coord_backend_{i}_sessions")))
                    .collect();
                for o in observers.iter() {
                    let snapshot = poll(o, &mut stats)?;
                    stats.add_daemon(&snapshot);
                }
            }
        }
        Ok(stats)
    }

    /// Orderly teardown: every client connection says goodbye (or at least
    /// closes), then the servers drain.
    pub fn stop(self) -> Result<(), String> {
        let bye = |conn: TcpStream| {
            Client::new(conn)
                .shutdown()
                .map(drop)
                .map_err(|e| format!("Shutdown: {e}"))
        };
        match self {
            Deployment::Daemon { conn, daemon } => {
                let result = bye(conn);
                daemon.shutdown();
                result
            }
            Deployment::Fleet {
                conn,
                observers,
                coord,
                backends,
                ..
            } => {
                let mut result = bye(conn);
                for o in observers {
                    result = result.and(bye(o));
                }
                coord.shutdown();
                for d in backends {
                    d.shutdown();
                }
                result
            }
        }
    }
}

/// Reduce a batch exchange to what the checks need. An in-band `Error`
/// or a missing verdict fails the batch.
fn reduce(
    batch: &Batch,
    outcome: BatchOutcome,
    latency: Duration,
    first_verdict: Option<Duration>,
) -> Result<Outcome, String> {
    let done = outcome
        .result
        .map_err(|e| format!("the deployment answered Error: {e}"))?;
    if outcome.verdicts.len() as u64 != batch.sessions {
        return Err(format!(
            "{} of {} verdicts arrived",
            outcome.verdicts.len(),
            batch.sessions
        ));
    }
    let mut verdicts = VerdictDigest::default();
    outcome.verdicts.iter().for_each(|v| verdicts.push(v));
    Ok(Outcome {
        latency,
        first_verdict: first_verdict.ok_or("batch produced no verdict")?,
        verdicts: verdicts.finish(),
        summary: summary_digest(&done.summary),
        flagged: done.summary.flagged.len(),
    })
}
