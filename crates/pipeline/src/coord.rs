//! TDRC coordinator: shard the audit fleet across daemons.
//!
//! A single `tdrd` scales to the cores of one machine; the audit itself
//! is embarrassingly parallel across sessions, so the next step is
//! horizontal — many daemons, one front door. [`serve_coordinator`] is
//! that front door: a thin TDRC-speaking router that accepts the
//! **unchanged** client protocol, shards each `SubmitBatch`'s sessions
//! across N backend daemons by session id, and merges the per-backend
//! verdict streams back into one response stream whose
//! [`FleetSummary`] is byte-identical to a single-daemon audit of the
//! same batch.
//!
//! The coordinator reuses the daemon where the two do the same job. Its
//! accept loop, connection threads and shutdown are the daemon's TCP
//! front end ([`crate::net`]), with the routing below as the
//! per-connection handler. It validates each client TDRB with the
//! daemon's own decoder ([`crate::ingest::session_records`], a
//! [`crate::BatchStream`] walk) and keeps only each valid session's id
//! and bytes: TDRB sessions are self-contained, so each backend's shard
//! is a fresh TDRB header plus the client's session bytes, verbatim, built
//! once per batch ([`crate::ingest::shard_batch`]). A malformed batch is
//! answered as a daemon answers it: the verdicts of its valid prefix,
//! routed like any batch, then the decode `Error` the daemon would send.
//!
//! ## Why the merge can promise byte-identity
//!
//! Two properties, both already pinned by the test suite, make the
//! coordinator deterministic *by construction* rather than by care:
//!
//! * a session's verdict depends only on its log, its observed timing,
//!   and the batch seed — [`crate::AuditConfig::session_seed`] mixes the
//!   session *id*, not its batch position, so resharding cannot perturb
//!   any verdict bit;
//! * [`FleetSummary::from_verdicts`] re-sorts by session id before
//!   accumulating, so the summary is a pure, order-insensitive function
//!   of the verdict *set* — it cannot observe which daemon produced
//!   which verdict, or in what order shards completed.
//!
//! The normative routing/merge rules live in `docs/FORMATS.md` §8; the
//! determinism boundary (what is bit-pinned vs. what is topology-
//! dependent, like the `Summary` frame's `workers` field) is drawn in
//! `docs/ARCHITECTURE.md` ("Fleet topology").
//!
//! ## Failure handling
//!
//! A backend that dies mid-batch (dial failure, disconnect, truncated
//! frame) surfaces as a typed [`ControlError`] inside the coordinator;
//! the dead backend's shard — and only that shard — is resubmitted to a
//! survivor (bounded: each surviving backend is tried at most once).
//! Partial verdicts from the dead backend are discarded wholesale, so
//! the retried shard cannot double-report a session. With no survivors
//! left the client receives an in-band [`ControlFrame::Error`] naming
//! the dead backend; the coordinator — like a daemon refusing one batch
//! — keeps serving.
//!
//! ## Fleet-consistent batteries
//!
//! [`ControlFrame::PutBattery`] fans out to every backend, so one
//! retrain publishes one new generation everywhere, and no backend
//! retrains by itself, so shard baselines cannot drift apart. The client
//! behind the coordinator is the fleet's one battery writer: it derives
//! each generation from the merged verdicts with
//! [`crate::verdict::retrain`] and installs it with one `PutBattery`.

use std::collections::VecDeque;
use std::io::{self, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;

use jbc::ReferenceId;

use crate::control::{
    AckStatus, BatchOutcome, BatteryOutcome, Client, ControlError, ControlFrame, PutOutcome,
};
use crate::ingest::{self, SessionRecord};
use crate::net::{ConnMetrics, FrontEnd, Handler};
use crate::obs::{Counter, MetricsRegistry, MetricsSnapshot};
use crate::registry::DEFAULT_REFERENCE_BUDGET;
use crate::verdict::{AuditVerdict, FleetSummary};

/// Per-backend routing tallies, all exported through the Stats plane as
/// `coord_backend_{i}_*`.
#[derive(Debug)]
struct BackendCounters {
    batches: Arc<Counter>,
    sessions: Arc<Counter>,
    failures: Arc<Counter>,
}

/// The coordinator's own metric set. Connection-lifecycle names match
/// the daemon's (`conn_*`) so fleet tooling reads both alike; routing
/// and retry tallies are `coord_*`.
#[derive(Debug)]
struct CoordMetrics {
    conn: ConnMetrics,
    frames_in: Arc<Counter>,
    frames_out: Arc<Counter>,
    batches_routed: Arc<Counter>,
    sessions_routed: Arc<Counter>,
    batch_errors: Arc<Counter>,
    retries: Arc<Counter>,
    backend_failures: Arc<Counter>,
    reference_puts: Arc<Counter>,
    battery_puts: Arc<Counter>,
    per_backend: Vec<BackendCounters>,
}

impl CoordMetrics {
    fn new(registry: &MetricsRegistry, n_backends: usize) -> Self {
        CoordMetrics {
            conn: ConnMetrics::register(registry),
            frames_in: registry.counter("frames_in"),
            frames_out: registry.counter("frames_out"),
            batches_routed: registry.counter("coord_batches_routed"),
            sessions_routed: registry.counter("coord_sessions_routed"),
            batch_errors: registry.counter("coord_batch_errors"),
            retries: registry.counter("coord_retries"),
            backend_failures: registry.counter("coord_backend_failures"),
            reference_puts: registry.counter("coord_reference_puts"),
            battery_puts: registry.counter("coord_battery_puts"),
            per_backend: (0..n_backends)
                .map(|i| BackendCounters {
                    batches: registry.counter(&format!("coord_backend_{i}_batches")),
                    sessions: registry.counter(&format!("coord_backend_{i}_sessions")),
                    failures: registry.counter(&format!("coord_backend_{i}_failures")),
                })
                .collect(),
        }
    }
}

/// Everything a connection thread needs, and the coordinator's
/// per-connection handler: the backend address list and the metric set.
#[derive(Debug)]
struct CoordShared {
    backends: Vec<String>,
    registry: MetricsRegistry,
    metrics: CoordMetrics,
}

impl Handler for CoordShared {
    fn serve(&self, stream: &TcpStream, _conn_id: u64) -> Result<(), ControlError> {
        route_connection(self, stream)
    }
}

/// A running TDRC coordinator: the daemon's TCP front end, with one
/// router thread per client connection, each holding its own connection
/// to every backend.
///
/// Built by [`serve_coordinator`]. Dropping the coordinator performs the
/// same graceful shutdown as [`shutdown`](Self::shutdown) (minus
/// returning the report).
#[derive(Debug)]
pub struct Coordinator {
    front: FrontEnd,
    shared: Arc<CoordShared>,
}

/// What a coordinator hands back at [`Coordinator::shutdown`]: final
/// tallies, captured after every connection thread joined.
#[derive(Debug)]
pub struct CoordReport {
    /// Client connections accepted over the coordinator's lifetime.
    pub connections_accepted: u64,
    /// Client connections that ended with a protocol or transport error.
    pub connection_errors: u64,
    /// Every coordinator metric at shutdown, name-ordered (what a
    /// [`ControlFrame::Stats`] response would have carried).
    pub snapshot: MetricsSnapshot,
}

/// Serve the TDRC control plane as a coordinator: accept client
/// connections on `listener` and route each one's traffic across the
/// `backends` (TDRC daemon addresses, dialed per client connection).
///
/// Clients speak the unchanged single-daemon protocol; see the module
/// docs for the routing, merge, and failure rules. At least one backend
/// address is required.
pub fn serve_coordinator(listener: TcpListener, backends: Vec<String>) -> io::Result<Coordinator> {
    if backends.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "a coordinator needs at least one backend address",
        ));
    }
    let registry = MetricsRegistry::new();
    let metrics = CoordMetrics::new(&registry, backends.len());
    let conn = metrics.conn.clone();
    let shared = Arc::new(CoordShared {
        backends,
        registry,
        metrics,
    });
    let front = FrontEnd::start(listener, "tdrd-coord", conn, Arc::clone(&shared))?;
    Ok(Coordinator { front, shared })
}

impl Coordinator {
    /// The address the coordinator is accepting on (resolves `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The backend addresses this coordinator routes across, in shard
    /// order (`session_id mod N` indexes this slice).
    pub fn backends(&self) -> &[String] {
        &self.shared.backends
    }

    /// Capture every coordinator metric as a deterministic, name-ordered
    /// snapshot — the payload of its [`ControlFrame::Stats`] responses.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.registry.snapshot()
    }

    /// Graceful shutdown: stop accepting, wait for every in-flight
    /// client connection to end, and return the final tallies. Backend
    /// connections close with their client connections.
    pub fn shutdown(self) -> CoordReport {
        let Coordinator { front, shared } = self;
        drop(front);
        let snapshot = shared.registry.snapshot();
        CoordReport {
            connections_accepted: snapshot.counter("conn_accepted"),
            connection_errors: snapshot.counter("conn_errors"),
            snapshot,
        }
    }
}

/// One shard's routing state: the original submission indexes of the
/// sessions destined for one backend, and their TDRB.
struct Shard {
    indexes: Vec<usize>,
    tdrb: Vec<u8>,
}

/// How a shard submission failed, classified for the routing policy.
enum ShardFail {
    /// The backend is gone (dial/transport failure): mark it dead and
    /// retry the shard on a survivor.
    Dead(ControlError),
    /// The backend does not hold the named reference — answered to the
    /// client in-band as an `Unknown` ack, exactly like a single daemon.
    Unknown(ReferenceId),
    /// A refusal that travels to the client as an in-band `Error` frame
    /// (reference thrash, a backend quota, a backend-side batch error);
    /// the connection keeps serving.
    InBand(String),
    /// A protocol violation on the backend link — fatal to this client
    /// connection, like protocol garbage on a daemon connection.
    Fatal(ControlError),
}

fn classify(e: ControlError) -> ShardFail {
    match e {
        ControlError::Io(..) | ControlError::Disconnected | ControlError::Truncated => {
            ShardFail::Dead(e)
        }
        ControlError::UnknownReference(id) => ShardFail::Unknown(id),
        ControlError::ReferenceThrash(_)
        | ControlError::Busy { .. }
        | ControlError::QuotaExceeded { .. }
        | ControlError::IdleTimeout => ShardFail::InBand(e.to_string()),
        other => ShardFail::Fatal(other),
    }
}

/// Dial every backend. A backend that refuses the dial starts the
/// connection dead (counted); submissions route around it.
fn dial_backends(shared: &CoordShared) -> Vec<Option<Client<TcpStream>>> {
    shared
        .backends
        .iter()
        .enumerate()
        .map(|(i, addr)| match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                Some(Client::new(stream))
            }
            Err(_) => {
                shared.metrics.backend_failures.inc();
                shared.metrics.per_backend[i].failures.inc();
                None
            }
        })
        .collect()
}

/// The containers one client connection registered, oldest first, kept
/// for the bounded re-put (`docs/FORMATS.md` §8.3) within `budget` bytes:
/// the oldest go first, and the newest always stays.
struct Containers {
    held: VecDeque<(ReferenceId, Vec<u8>)>,
    budget: usize,
}

impl Containers {
    fn new(budget: u64) -> Self {
        Containers {
            held: VecDeque::new(),
            budget: usize::try_from(budget).unwrap_or(usize::MAX),
        }
    }

    /// Keep `tdrp` as the newest container, the one `id` names.
    fn keep(&mut self, id: ReferenceId, tdrp: Vec<u8>) {
        self.held.retain(|(held, _)| *held != id);
        self.held.push_back((id, tdrp));
        let mut bytes: usize = self.held.iter().map(|(_, tdrp)| tdrp.len()).sum();
        while bytes > self.budget && self.held.len() > 1 {
            let (_, oldest) = self.held.pop_front().expect("more than one held");
            bytes -= oldest.len();
        }
    }

    fn get(&self, id: ReferenceId) -> Option<&[u8]> {
        self.held
            .iter()
            .find(|(held, _)| *held == id)
            .map(|(_, tdrp)| tdrp.as_slice())
    }
}

/// Submit one shard to one backend. When the batch names a registered
/// reference and this connection still holds its container, the bounded
/// re-put helper covers an eviction race on the backend; otherwise a
/// backend's `Unknown` goes back to the client, which re-puts (§5.7).
fn submit_shard(
    client: &mut Client<TcpStream>,
    batch_id: u64,
    tdrb: &[u8],
    reference: Option<ReferenceId>,
    containers: &Containers,
) -> Result<BatchOutcome, ControlError> {
    let tdrb = tdrb.to_vec();
    match reference {
        None => client.submit_batch(batch_id, tdrb),
        Some(id) => match containers.get(id) {
            Some(tdrp) => client.submit_batch_reput(batch_id, tdrb, id, tdrp),
            None => client.submit_batch_for(batch_id, tdrb, id),
        },
    }
}

/// The per-connection router loop: read client frames, fan out to the
/// backends, merge responses. Returns `Err` only for failures that end
/// this client connection (client-side transport loss, protocol
/// garbage); batch-scoped failures are answered in-band.
fn route_connection(shared: &CoordShared, stream: &TcpStream) -> Result<(), ControlError> {
    let metrics = &shared.metrics;
    let mut reader = stream;
    let mut writer = BufWriter::new(stream);
    let mut backends = dial_backends(shared);
    let mut containers = Containers::new(DEFAULT_REFERENCE_BUDGET);
    loop {
        let frame = match ControlFrame::read_from(&mut reader) {
            Ok(None) => return Ok(()), // client hung up cleanly
            Ok(Some(frame)) => frame,
            Err(e) => return Err(e),
        };
        metrics.frames_in.inc();
        match frame {
            ControlFrame::SubmitBatch {
                batch_id,
                tdrb,
                reference,
            } => {
                route_batch(
                    shared,
                    &mut backends,
                    &containers,
                    &mut writer,
                    batch_id,
                    &tdrb,
                    reference,
                )?;
            }
            ControlFrame::PutReference { put_id, tdrp } => {
                metrics.reference_puts.inc();
                let ack = fan_out_reference(shared, &mut backends, put_id, &tdrp);
                if let ControlFrame::ReferenceAck {
                    reference,
                    status: AckStatus::Loaded | AckStatus::AlreadyResident,
                    ..
                } = &ack
                {
                    containers.keep(*reference, tdrp);
                }
                write_frame(metrics, &mut writer, &ack)?;
            }
            ControlFrame::PutBattery { put_id, json } => {
                metrics.battery_puts.inc();
                let ack = fan_out_battery(shared, &mut backends, put_id, &json);
                write_frame(metrics, &mut writer, &ack)?;
            }
            ControlFrame::StatsRequest => {
                write_frame(
                    metrics,
                    &mut writer,
                    &ControlFrame::Stats {
                        snapshot: shared.registry.snapshot(),
                    },
                )?;
            }
            ControlFrame::Shutdown => {
                let write = write_frame(metrics, &mut writer, &ControlFrame::ShutdownAck);
                // Close the backend links gracefully, best-effort — a
                // dead backend is already None.
                for client in backends.iter_mut().filter_map(Option::take) {
                    let _ = client.shutdown();
                }
                return write;
            }
            other => return Err(ControlError::UnexpectedFrame(other.kind_name())),
        }
    }
}

fn write_frame<W: Write>(
    metrics: &CoordMetrics,
    writer: &mut W,
    frame: &ControlFrame,
) -> Result<(), ControlError> {
    frame.write_to(writer)?;
    writer.flush().map_err(ControlError::from_io)?;
    metrics.frames_out.inc();
    Ok(())
}

/// Route one `SubmitBatch` and answer it as a daemon would: validate it
/// with the daemon's decoder, shard its valid sessions by
/// `session_id mod N`, submit shards in parallel, retry dead backends'
/// shards on survivors, merge, and end with the `Summary` — or, for a
/// malformed batch, the decode `Error` after its valid prefix's verdicts.
fn route_batch<W: Write>(
    shared: &CoordShared,
    backends: &mut [Option<Client<TcpStream>>],
    containers: &Containers,
    writer: &mut W,
    batch_id: u64,
    tdrb: &[u8],
    reference: Option<ReferenceId>,
) -> Result<(), ControlError> {
    let metrics = &shared.metrics;
    metrics.batches_routed.inc();
    let (records, malformed) = ingest::session_records(tdrb);
    metrics.sessions_routed.add(records.len() as u64);
    let n = backends.len();
    let mut picks: Vec<(Vec<usize>, Vec<SessionRecord>)> = vec![(Vec::new(), Vec::new()); n];
    for (index, record) in records.into_iter().enumerate() {
        let (indexes, sessions) = &mut picks[(record.session_id % n as u64) as usize];
        indexes.push(index);
        sessions.push(record);
    }
    let shards: Vec<Shard> = picks
        .into_iter()
        .map(|(indexes, sessions)| Shard {
            indexes,
            tdrb: ingest::shard_batch(&sessions),
        })
        .collect();

    // Parallel fan-out: every live backend serves its shard at once, so
    // coordinator latency is the slowest shard, not the sum.
    let mut results: Vec<Option<Result<BatchOutcome, ControlError>>> = Vec::with_capacity(n);
    results.resize_with(n, || None);
    std::thread::scope(|scope| {
        for ((backend, shard), slot) in backends.iter_mut().zip(&shards).zip(results.iter_mut()) {
            if shard.indexes.is_empty() {
                continue;
            }
            let Some(client) = backend.as_mut() else {
                continue; // already dead: handled by the retry pass
            };
            scope.spawn(move || {
                *slot = Some(submit_shard(
                    client,
                    batch_id,
                    &shard.tdrb,
                    reference,
                    containers,
                ));
            });
        }
    });

    // Collect, marking dead backends and queueing their shards.
    let mut outcomes: Vec<Option<BatchOutcome>> = (0..n).map(|_| None).collect();
    let mut needs_retry: Vec<usize> = Vec::new();
    for i in 0..n {
        if shards[i].indexes.is_empty() {
            continue;
        }
        match results[i].take() {
            Some(Ok(outcome)) => {
                metrics.per_backend[i].batches.inc();
                metrics.per_backend[i]
                    .sessions
                    .add(shards[i].indexes.len() as u64);
                outcomes[i] = Some(outcome);
            }
            Some(Err(e)) => match classify(e) {
                ShardFail::Dead(_) => {
                    backends[i] = None;
                    metrics.backend_failures.inc();
                    metrics.per_backend[i].failures.inc();
                    needs_retry.push(i);
                }
                fail => return answer_shard_fail(shared, writer, batch_id, fail),
            },
            None => needs_retry.push(i), // backend was dead before the batch
        }
    }

    // Bounded retry: each dead backend's shard moves, whole, to the
    // first survivor that takes it. Partial verdicts from the dead
    // backend were discarded above, so no session can double-report.
    for i in needs_retry {
        let mut served = false;
        for (j, backend) in backends.iter_mut().enumerate() {
            let Some(client) = backend.as_mut() else {
                continue;
            };
            metrics.retries.inc();
            match submit_shard(client, batch_id, &shards[i].tdrb, reference, containers) {
                Ok(outcome) => {
                    metrics.per_backend[j].batches.inc();
                    metrics.per_backend[j]
                        .sessions
                        .add(shards[i].indexes.len() as u64);
                    outcomes[i] = Some(outcome);
                    served = true;
                    break;
                }
                Err(e) => match classify(e) {
                    ShardFail::Dead(_) => {
                        *backend = None;
                        metrics.backend_failures.inc();
                        metrics.per_backend[j].failures.inc();
                    }
                    fail => return answer_shard_fail(shared, writer, batch_id, fail),
                },
            }
        }
        if !served {
            metrics.batch_errors.inc();
            return write_frame(
                metrics,
                writer,
                &ControlFrame::Error {
                    batch_id,
                    message: format!(
                        "backend {} died mid-batch and no survivor could take its shard",
                        shared.backends[i]
                    ),
                },
            );
        }
    }

    // Merge: reunite the shard outcomes under the original submission
    // indexes and re-derive the summary from the union — the pure
    // order-insensitive aggregation the module docs lean on.
    let mut indexed: Vec<(usize, AuditVerdict)> = Vec::new();
    let mut workers = 0u64;
    let mut peak_resident = 0u64;
    for (i, slot) in outcomes.into_iter().enumerate() {
        let Some(outcome) = slot else { continue };
        match outcome.result {
            Ok(summary) => {
                workers += summary.workers;
                peak_resident = peak_resident.max(summary.peak_resident);
            }
            Err(message) => {
                // The backend audited the shard and reported an in-band
                // batch error; relay it (every shard session passed the
                // daemon's own decoder here, so this is a backend-side
                // failure, not input).
                metrics.batch_errors.inc();
                return write_frame(metrics, writer, &ControlFrame::Error { batch_id, message });
            }
        }
        if outcome.verdicts.len() != shards[i].indexes.len() {
            metrics.batch_errors.inc();
            return write_frame(
                metrics,
                writer,
                &ControlFrame::Error {
                    batch_id,
                    message: format!(
                        "backend returned {} verdicts for a {}-session shard",
                        outcome.verdicts.len(),
                        shards[i].indexes.len()
                    ),
                },
            );
        }
        indexed.extend(shards[i].indexes.iter().copied().zip(outcome.verdicts));
    }
    indexed.sort_by_key(|&(index, _)| index);
    // Each verdict moves into its frame and, once written, into the list
    // the summary is computed from: one copy per verdict.
    let mut verdicts = Vec::with_capacity(indexed.len());
    for (index, verdict) in indexed {
        let frame = ControlFrame::Verdict {
            batch_id,
            index: index as u64,
            verdict,
        };
        frame.write_to(writer)?;
        metrics.frames_out.inc();
        let ControlFrame::Verdict { verdict, .. } = frame else {
            unreachable!("built as a Verdict frame above");
        };
        verdicts.push(verdict);
    }
    let last = match malformed {
        Some(e) => {
            metrics.batch_errors.inc();
            ControlFrame::Error {
                batch_id,
                message: e.to_string(),
            }
        }
        None => ControlFrame::Summary {
            batch_id,
            workers,
            peak_resident,
            summary: FleetSummary::from_verdicts(&verdicts),
        },
    };
    write_frame(metrics, writer, &last)
}

/// Answer a non-retryable shard failure in-band, exactly as a single
/// daemon would: an `Unknown` reference gets a `ReferenceAck`, refusals
/// get an `Error` frame, protocol violations end the connection.
fn answer_shard_fail<W: Write>(
    shared: &CoordShared,
    writer: &mut W,
    batch_id: u64,
    fail: ShardFail,
) -> Result<(), ControlError> {
    let metrics = &shared.metrics;
    match fail {
        ShardFail::Unknown(reference) => write_frame(
            metrics,
            writer,
            &ControlFrame::ReferenceAck {
                put_id: batch_id,
                reference,
                status: AckStatus::Unknown,
                // Residency is backend-local; a coordinator reports 0
                // here (§8.3).
                resident_bytes: 0,
            },
        ),
        ShardFail::InBand(message) => {
            metrics.batch_errors.inc();
            write_frame(metrics, writer, &ControlFrame::Error { batch_id, message })
        }
        ShardFail::Fatal(e) => Err(e),
        ShardFail::Dead(e) => Err(e), // unreachable by construction
    }
}

/// Fan a `PutReference` out to every live backend and merge the acks:
/// any rejection wins; otherwise the content-derived ids must agree,
/// the status is `AlreadyResident` only if every backend already held
/// it, and `resident_bytes` sums across the fleet.
fn fan_out_reference(
    shared: &CoordShared,
    backends: &mut [Option<Client<TcpStream>>],
    put_id: u64,
    tdrp: &[u8],
) -> ControlFrame {
    let mut acks: Vec<PutOutcome> = Vec::new();
    for (i, backend) in backends.iter_mut().enumerate() {
        let Some(client) = backend.as_mut() else {
            continue;
        };
        match client.put_reference(put_id, tdrp.to_vec()) {
            Ok(outcome) => acks.push(outcome),
            Err(_) => {
                *backend = None;
                shared.metrics.backend_failures.inc();
                shared.metrics.per_backend[i].failures.inc();
            }
        }
    }
    if acks.is_empty() {
        return ControlFrame::ReferenceAck {
            put_id,
            reference: ReferenceId([0u8; 32]),
            status: AckStatus::Rejected("no live backends".to_string()),
            resident_bytes: 0,
        };
    }
    if let Some(rejected) = acks
        .iter()
        .find(|a| matches!(a.status, AckStatus::Rejected(_)))
    {
        return ControlFrame::ReferenceAck {
            put_id,
            reference: ReferenceId([0u8; 32]),
            status: rejected.status.clone(),
            resident_bytes: 0,
        };
    }
    let reference = acks[0].reference;
    if acks.iter().any(|a| a.reference != reference) {
        // Content addressing makes this impossible for honest backends.
        return ControlFrame::ReferenceAck {
            put_id,
            reference: ReferenceId([0u8; 32]),
            status: AckStatus::Rejected("backends disagree on the content-derived id".to_string()),
            resident_bytes: 0,
        };
    }
    let status = if acks.iter().all(|a| a.status == AckStatus::AlreadyResident) {
        AckStatus::AlreadyResident
    } else {
        AckStatus::Loaded
    };
    ControlFrame::ReferenceAck {
        put_id,
        reference,
        status,
        resident_bytes: acks.iter().map(|a| a.resident_bytes).sum(),
    }
}

/// Fan a `PutBattery` out to every live backend: any rejection wins;
/// otherwise the reported generation is the **minimum** across backends
/// — the floor every backend is guaranteed to have reached.
fn fan_out_battery(
    shared: &CoordShared,
    backends: &mut [Option<Client<TcpStream>>],
    put_id: u64,
    json: &str,
) -> ControlFrame {
    let mut acks: Vec<BatteryOutcome> = Vec::new();
    for (i, backend) in backends.iter_mut().enumerate() {
        let Some(client) = backend.as_mut() else {
            continue;
        };
        match client.put_battery(put_id, json.to_string()) {
            Ok(outcome) => acks.push(outcome),
            Err(_) => {
                *backend = None;
                shared.metrics.backend_failures.inc();
                shared.metrics.per_backend[i].failures.inc();
            }
        }
    }
    if acks.is_empty() {
        return ControlFrame::BatteryAck {
            put_id,
            generation: 0,
            status: AckStatus::Rejected("no live backends".to_string()),
        };
    }
    if let Some(rejected) = acks
        .iter()
        .find(|a| matches!(a.status, AckStatus::Rejected(_)))
    {
        return ControlFrame::BatteryAck {
            put_id,
            generation: 0,
            status: rejected.status.clone(),
        };
    }
    ControlFrame::BatteryAck {
        put_id,
        generation: acks.iter().map(|a| a.generation).min().unwrap_or(0),
        status: AckStatus::Loaded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(n: u8) -> ReferenceId {
        ReferenceId([n; 32])
    }

    fn held(containers: &Containers) -> Vec<u8> {
        containers.held.iter().map(|(id, _)| id.0[0]).collect()
    }

    #[test]
    fn containers_drop_the_oldest_first_within_the_budget() {
        let mut containers = Containers::new(10);
        containers.keep(id(1), vec![1; 4]);
        containers.keep(id(2), vec![2; 4]);
        assert_eq!(held(&containers), [1, 2]);
        // 12 bytes > 10: the oldest goes, the rest fit.
        containers.keep(id(3), vec![3; 4]);
        assert_eq!(held(&containers), [2, 3]);
        assert_eq!(containers.get(id(1)), None, "a dropped container");
        assert_eq!(containers.get(id(3)), Some(&[3u8; 4][..]));
        // A re-put refreshes its container to the newest.
        containers.keep(id(2), vec![2; 4]);
        containers.keep(id(4), vec![4; 4]);
        assert_eq!(held(&containers), [2, 4]);
    }

    #[test]
    fn containers_always_keep_the_newest() {
        let mut containers = Containers::new(10);
        containers.keep(id(1), vec![1; 4]);
        // Over the budget on its own: everything older goes, it stays.
        containers.keep(id(2), vec![2; 16]);
        assert_eq!(held(&containers), [2]);
        containers.keep(id(3), vec![3; 2]);
        assert_eq!(held(&containers), [3]);
    }

    #[test]
    fn a_connection_holds_at_most_the_reference_budget() {
        // Distinct puts of 1 MiB each: the held set never exceeds the
        // default budget, however many a client sends. (Zeroed buffers
        // the test never touches stay out of its resident set.)
        let mut containers = Containers::new(DEFAULT_REFERENCE_BUDGET);
        for n in 0..=255u8 {
            containers.keep(id(n), vec![0u8; 1 << 20]);
            let bytes: usize = containers.held.iter().map(|(_, t)| t.len()).sum();
            assert!(
                bytes as u64 <= DEFAULT_REFERENCE_BUDGET,
                "after {n}: {bytes}"
            );
        }
        assert_eq!(containers.held.len() as u64, DEFAULT_REFERENCE_BUDGET >> 20);
        assert!(containers.get(id(255)).is_some(), "the newest stays");
        assert!(containers.get(id(0)).is_none(), "the oldest went first");
    }
}
