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
//! is a fresh TDRB header plus the client's session records, verbatim,
//! streamed from the one copy of the batch the coordinator holds — the
//! payload of the frame it read. A malformed batch is answered as a
//! daemon answers it: the verdicts of its valid prefix, routed like any
//! batch, then the decode `Error` the daemon would send.
//!
//! Verdicts are forwarded, not buffered: one reader thread per backend
//! passes each verdict on as it is decoded, and the connection thread
//! writes verdict `index` as soon as every lower index is out, in the
//! daemon's 1 ms bursts. Nothing is released before every backend asked
//! has answered once, so a refusal — always a backend's first frame —
//! still reaches the client before any verdict.
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
//! frame) surfaces as a typed [`ControlError`] inside the coordinator.
//! The verdicts it already delivered stand — verdicts are
//! deterministic, so a survivor could only repeat their bytes — and
//! only its unanswered sessions are resubmitted, to the first idle
//! survivor (bounded: each death removes a backend). No session is
//! answered twice. With no survivors left the client receives an
//! in-band [`ControlFrame::Error`] naming the dead backend, after any
//! verdicts already released; the coordinator — like a daemon refusing
//! one batch — keeps serving.
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
use std::iter;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use jbc::ReferenceId;

use crate::control::{
    AckStatus, BatchSummary, BatteryOutcome, Client, ControlError, ControlFrame, PutOutcome,
};
use crate::ingest::{self, SessionRecord};
use crate::net::{ConnMetrics, FrontEnd, Handler};
use crate::obs::{Counter, MetricsRegistry, MetricsSnapshot};
use crate::registry::DEFAULT_REFERENCE_BUDGET;
use crate::service::hold;
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

/// How a shard submission failed, classified for the routing policy.
enum ShardFail {
    /// The backend is gone (dial/transport failure): mark it dead and
    /// send its unanswered sessions to a survivor.
    Dead(ControlError),
    /// The backend does not hold the named reference — answered to the
    /// client in-band as an `Unknown` ack, exactly like a single daemon.
    Unknown(ReferenceId),
    /// A refusal that travels to the client as an in-band `Error` frame
    /// (reference thrash, a backend quota, a backend-side batch error, no
    /// survivor); the connection keeps serving.
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
                let batch = Batch {
                    id: batch_id,
                    reference,
                    reput: reference.and_then(|id| containers.get(id)),
                };
                route_batch(shared, &mut backends, &mut writer, &batch, &tdrb)?;
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

/// What every shard of one client batch is submitted with: the client's
/// batch id and reference, and the container for the bounded re-put
/// when this connection still holds it (otherwise a backend's `Unknown`
/// goes back to the client, which re-puts, §5.7).
#[derive(Clone, Copy)]
struct Batch<'a> {
    id: u64,
    reference: Option<ReferenceId>,
    reput: Option<&'a [u8]>,
}

/// A backend reader's report to the connection thread.
enum Event {
    /// The next verdict of backend `i`'s submission, in shard order.
    Verdict(usize, AuditVerdict),
    /// Backend `i`'s submission ended, with its terminating frame or how
    /// the exchange failed; the backend's client comes back with it.
    Done(usize, Box<(Client<TcpStream>, ExchangeEnd)>),
}

/// How one shard exchange ended: the backend's summary or in-band error
/// message, or the failure that cut it short.
type ExchangeEnd = Result<Result<BatchSummary, String>, ControlError>;

/// The sessions one backend was asked to audit: their submission indexes,
/// in shard order, and how many verdicts it has sent back.
struct Asked<'s> {
    indexes: &'s [usize],
    answered: usize,
}

/// Start one submission on a reader thread of its own: stream the shard
/// of `indexes` to backend `i` straight from the client's `records`, pass
/// each verdict on as it is decoded, then hand the client back with how
/// the exchange ended, waking the connection thread.
fn submit<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    tx: &mpsc::Sender<Event>,
    i: usize,
    mut client: Client<TcpStream>,
    batch: &Batch<'env>,
    records: &'env [SessionRecord<'env>],
    indexes: &'env [usize],
) {
    let (tx, connection, batch) = (tx.clone(), thread::current(), *batch);
    scope.spawn(move || {
        let header = ingest::batch_header(indexes.len());
        let sessions = indexes.iter().map(|&k| records[k].bytes);
        let shard = iter::once(&header[..]).chain(sessions);
        let end = client.submit_parts(batch.id, shard, batch.reference, batch.reput, |_, v| {
            let _ = tx.send(Event::Verdict(i, v));
        });
        let _ = tx.send(Event::Done(i, Box::new((client, end))));
        connection.unpark();
    });
}

/// One routed batch in flight: what each backend was asked and has
/// answered, the sessions waiting for a survivor, and the verdicts on
/// their way to the client.
struct Routing<'a, W: Write> {
    shared: &'a CoordShared,
    writer: &'a mut W,
    batch_id: u64,
    /// Each verdict, held once, in its submission-index slot: it goes out
    /// once every lower index has, and stays for the summary.
    verdicts: Vec<Option<AuditVerdict>>,
    /// Verdicts written so far: the slots below this index.
    released: usize,
    /// By backend: the submission it is serving, if any.
    asked: Vec<Option<Asked<'a>>>,
    /// Sessions whose backend died before answering them, with that
    /// backend's position, waiting for an idle survivor. Each is the
    /// tail of a submission, so of a shard.
    orphans: VecDeque<(usize, &'a [usize])>,
    /// What ends the batch short of its summary, first come.
    failure: Option<ShardFail>,
    /// Nothing is released before every submission has answered once: a
    /// refusal is always a backend's first frame, so it still reaches the
    /// client with no verdict before it.
    gate: bool,
    workers: u64,
    peak_resident: u64,
}

impl<W: Write> Routing<'_, W> {
    /// Take one reader's report.
    fn handle(&mut self, event: Event, backends: &mut [Option<Client<TcpStream>>]) {
        let metrics = &self.shared.metrics;
        match event {
            Event::Verdict(i, verdict) => {
                let asked = self.asked[i]
                    .as_mut()
                    .expect("a verdict answers a submission");
                if let (Some(&index), None) = (asked.indexes.get(asked.answered), &self.failure) {
                    self.verdicts[index] = Some(verdict);
                }
                asked.answered += 1;
            }
            Event::Done(i, done) => {
                let (client, end) = *done;
                let Asked { indexes, answered } =
                    self.asked[i].take().expect("an end answers a submission");
                let miscounted = || {
                    ShardFail::InBand(format!(
                        "backend returned {answered} verdicts for a {}-session shard",
                        indexes.len()
                    ))
                };
                match end {
                    _ if answered > indexes.len() => {
                        self.failure.get_or_insert_with(miscounted);
                    }
                    Ok(Ok(summary)) if answered == indexes.len() => {
                        metrics.per_backend[i].batches.inc();
                        metrics.per_backend[i].sessions.add(indexes.len() as u64);
                        self.workers += summary.workers;
                        self.peak_resident = self.peak_resident.max(summary.peak_resident);
                        backends[i] = Some(client);
                    }
                    Ok(Ok(_)) => {
                        self.failure.get_or_insert_with(miscounted);
                        backends[i] = Some(client);
                    }
                    // A backend-side batch error: every shard session
                    // passed the daemon's own decoder here, so it is not
                    // input; relay it.
                    Ok(Err(message)) => {
                        self.failure.get_or_insert(ShardFail::InBand(message));
                        backends[i] = Some(client);
                    }
                    Err(e) => match classify(e) {
                        // Its verdicts so far stand: verdicts are
                        // deterministic, so a survivor could only repeat
                        // them. Only the rest moves.
                        ShardFail::Dead(_) => {
                            metrics.backend_failures.inc();
                            metrics.per_backend[i].failures.inc();
                            if answered < indexes.len() {
                                self.orphans.push_back((i, &indexes[answered..]));
                            }
                        }
                        fail => {
                            self.failure.get_or_insert(fail);
                            backends[i] = Some(client);
                        }
                    },
                }
            }
        }
    }

    /// Whether a burst must end at once: the batch is complete, or a dead
    /// backend's sessions wait for a survivor.
    fn urgent(&self) -> bool {
        !self.orphans.is_empty() || self.asked.iter().all(Option::is_none)
    }

    /// End a burst: once the gate is open, write every verdict whose
    /// lower indexes are all out, and flush them together.
    fn end_burst(&mut self) -> Result<(), ControlError> {
        self.gate = self.gate
            || (self.orphans.is_empty() && self.asked.iter().flatten().all(|a| a.answered > 0));
        if !self.gate || self.failure.is_some() {
            return Ok(());
        }
        let from = self.released;
        while let Some(slot) = self.verdicts.get_mut(self.released) {
            let Some(verdict) = slot.take() else { break };
            let frame = ControlFrame::Verdict {
                batch_id: self.batch_id,
                index: self.released as u64,
                verdict,
            };
            frame.write_to(self.writer)?;
            self.shared.metrics.frames_out.inc();
            let ControlFrame::Verdict { verdict, .. } = frame else {
                unreachable!("built as a Verdict frame above");
            };
            *slot = Some(verdict);
            self.released += 1;
        }
        if self.released > from {
            self.writer.flush().map_err(ControlError::from_io)?;
        }
        Ok(())
    }
}

/// Route one `SubmitBatch` and answer it as a daemon would: validate it
/// with the daemon's decoder, shard its valid sessions by
/// `session_id mod N`, stream each shard to its backend straight from the
/// client's bytes, release each verdict as soon as every lower index is
/// out, send a dead backend's unanswered sessions to a survivor, and end
/// with the `Summary` — or, for a malformed batch, the decode `Error`
/// after its valid prefix's verdicts.
fn route_batch<W: Write>(
    shared: &CoordShared,
    backends: &mut [Option<Client<TcpStream>>],
    writer: &mut W,
    batch: &Batch<'_>,
    tdrb: &[u8],
) -> Result<(), ControlError> {
    let metrics = &shared.metrics;
    metrics.batches_routed.inc();
    let (records, malformed) = ingest::session_records(tdrb);
    metrics.sessions_routed.add(records.len() as u64);
    let n = backends.len();
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (index, record) in records.iter().enumerate() {
        shards[(record.session_id % n as u64) as usize].push(index);
    }
    let mut routing = Routing {
        shared,
        writer,
        batch_id: batch.id,
        verdicts: (0..records.len()).map(|_| None).collect(),
        released: 0,
        asked: (0..n).map(|_| None).collect(),
        orphans: VecDeque::new(),
        failure: None,
        gate: false,
        workers: 0,
        peak_resident: 0,
    };
    let (tx, rx) = mpsc::channel();

    thread::scope(|scope| -> Result<(), ControlError> {
        let submit = |i, indexes, client| submit(scope, &tx, i, client, batch, &records, indexes);
        for (i, indexes) in shards.iter().enumerate() {
            if indexes.is_empty() {
                continue;
            }
            match backends[i].take() {
                Some(client) => {
                    submit(i, indexes, client);
                    routing.asked[i] = Some(Asked {
                        indexes,
                        answered: 0,
                    });
                }
                None => routing.orphans.push_back((i, indexes)), // dead before the batch
            }
        }
        loop {
            // Orphaned sessions go to the first idle survivor; each death
            // takes a backend out, so this ends within N submissions.
            while routing.failure.is_none() && !routing.orphans.is_empty() {
                let Some(j) = backends.iter().position(Option::is_some) else {
                    break;
                };
                let (_, indexes) = routing.orphans.pop_front().expect("an orphan");
                metrics.retries.inc();
                submit(j, indexes, backends[j].take().expect("idle"));
                routing.asked[j] = Some(Asked {
                    indexes,
                    answered: 0,
                });
            }
            if routing.asked.iter().all(Option::is_none) {
                if let Some(&(dead, _)) = routing.orphans.front() {
                    routing.failure.get_or_insert_with(|| {
                        ShardFail::InBand(format!(
                            "backend {} died mid-batch and no survivor could take its shard",
                            shared.backends[dead]
                        ))
                    });
                }
                return Ok(());
            }
            // Block for a burst's first report, then gather reports for
            // the rest of the window — a reader's send does not wake this
            // thread while it is parked, only a finished submission does —
            // and write what they release with one flush, as a daemon
            // does (`docs/FORMATS.md` §5.1).
            let mut event = Some(rx.recv().expect("a submission in flight holds a sender"));
            let opened = Instant::now();
            loop {
                while let Some(report) = event.take().or_else(|| rx.try_recv().ok()) {
                    routing.handle(report, backends);
                }
                match hold(opened, Instant::now(), routing.urgent()) {
                    Some(rest) => thread::park_timeout(rest),
                    None => break,
                }
            }
            routing.end_burst()?;
        }
    })?;

    let Routing {
        writer,
        verdicts,
        released,
        failure,
        workers,
        peak_resident,
        ..
    } = routing;
    let last = match (failure, malformed) {
        // Nothing released yet: answered exactly as before any verdict.
        (Some(fail), _) if released == 0 => {
            return answer_shard_fail(shared, writer, batch.id, fail)
        }
        // A failure after verdicts went out ends the batch with an
        // `Error` after them, as a daemon's aborted batch does (§5.1).
        (Some(ShardFail::Fatal(e) | ShardFail::Dead(e)), _) => return Err(e),
        (Some(ShardFail::Unknown(id)), _) => {
            metrics.batch_errors.inc();
            ControlFrame::Error {
                batch_id: batch.id,
                message: ControlError::UnknownReference(id).to_string(),
            }
        }
        (Some(ShardFail::InBand(message)), _) => {
            metrics.batch_errors.inc();
            ControlFrame::Error {
                batch_id: batch.id,
                message,
            }
        }
        (None, Some(e)) => {
            metrics.batch_errors.inc();
            ControlFrame::Error {
                batch_id: batch.id,
                message: e.to_string(),
            }
        }
        (None, None) => {
            // In place: the slots become the list the summary reads.
            let verdicts: Vec<AuditVerdict> = verdicts
                .into_iter()
                .map(|v| v.expect("every session answered"))
                .collect();
            ControlFrame::Summary {
                batch_id: batch.id,
                workers,
                peak_resident,
                summary: FleetSummary::from_verdicts(&verdicts),
            }
        }
    };
    write_frame(metrics, writer, &last)
}

/// Answer a shard failure before any verdict went out, exactly as a
/// single daemon would: an `Unknown` reference gets a `ReferenceAck`,
/// refusals get an `Error` frame, protocol violations end the connection.
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
        ShardFail::Fatal(e) | ShardFail::Dead(e) => Err(e),
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
        match client.put_reference_from(put_id, tdrp) {
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
