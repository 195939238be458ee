//! The persistent audit service: a warmed worker pool behind job tickets.
//!
//! The one-shot entry points in [`crate::pool`] build a temporary
//! service, audit one batch, and shut it down. A fleet operator auditing
//! traffic continuously (the deployment of Aviram et al. and Deterland)
//! pays that spin-up on every batch. [`AuditService`] pays it **once**:
//!
//! * [`AuditService::builder`] validates the configuration up front
//!   ([`AuditConfig::validate`] — zero workers or a zero high-water mark
//!   are typed [`ConfigError`]s, not silent fallbacks) and spawns the
//!   worker pool at `build()`.
//! * [`AuditService::submit`] is the one in-process entry: it takes a
//!   [`Source`] (owned jobs or a TDRB reader) and an optional registered
//!   [`ReferenceId`], enqueues the work and returns a [`BatchTicket`]
//!   immediately. The ticket yields per-session verdicts as they arrive
//!   ([`BatchTicket::recv`]) and a final deterministic report
//!   ([`BatchTicket::wait`]). Dropping a ticket cancels its
//!   not-yet-audited sessions.
//! * [`AuditService::serve`] is the daemon loop: [`crate::control`]
//!   frames in, verdict/summary frames out, over any `Read + Write` pair
//!   (a socket, or the in-memory [`duplex`] the tests use). It submits
//!   through the same core as `submit`.
//!
//! ## One reference path
//!
//! Every work item carries exactly one pinned reference entry: the
//! service's built-in one (the builder's [`Reference`], held outside the
//! registry's content-addressed map) or a registered one. A worker checks
//! a warm [`crate::ReferenceCache`] out of the entry's pool, audits, and
//! returns it. The battery is resolved once, at submission: the current
//! generation for the built-in entry under [`BatteryMode::Full`], none
//! for a registered entry (a TDRP ships the program alone).
//!
//! ## Idle/shutdown protocol
//!
//! Idle workers park in a blocking wait on the shared work queue — no
//! spinning, no polling — and a push signals only when a worker is
//! parked. A streamed batch's feeder that fills its residency gate sleeps
//! until half the gate is free again, so it wakes once per burst of
//! freed slots, not once per session. [`AuditService::shutdown`] (and
//! `Drop`) closes the queue; workers drain every job already queued —
//! in-flight tickets still complete — and then exit, and shutdown joins
//! them. Cancellation is per-ticket: a dropped ticket flips a shared flag
//! and workers skip its remaining sessions without auditing them.
//!
//! ## Fair scheduling
//!
//! The work queue is not a single FIFO: items carry a **tenant id** (the
//! daemon's connection id; 0 for in-process submissions) and the queue
//! dequeues round-robin across tenants with queued work, one job per
//! tenant per round. A peer flooding thousands of sessions therefore
//! delays another tenant's batch by at most `other_tenants × in_flight`
//! jobs, never by its own backlog — the no-starvation invariant
//! (`docs/ARCHITECTURE.md`, "Admission control & fairness"), proven by
//! `tests/fairness_torture.rs`. Within one tenant, order is FIFO, so
//! verdict streams are unchanged for a lone submitter.
//!
//! Determinism does not depend on the entry point: a verdict depends only
//! on the job, the service configuration, and the session seed — never on
//! pool temperature. The one-shot entry points are thin shims over a
//! temporary service, and the test suite pins warm-service resubmission
//! byte-identical to fresh one-shot calls.

use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

use detectors::DetectorBattery;

use jbc::ReferenceId;

use crate::control::{AckStatus, BusyScope, ControlError, ControlFrame};
use crate::ingest::{BatchStream, IngestError};
use crate::obs::{Counter, Gauge, MetricsSnapshot, ServiceMetrics, TraceEvent, TraceKind};
use crate::pool::BatchReport;
use crate::registry::{
    PinnedReference, ReferenceRegistry, RegistryError, RegistryLoad, DEFAULT_REFERENCE_BUDGET,
};
use crate::verdict::{AuditVerdict, FleetSummary};
use crate::{AuditConfig, AuditJob, BatteryMode, ConfigError, Reference};

// ---------------------------------------------------------------------------
// Residency gate (streaming backpressure)
// ---------------------------------------------------------------------------

/// Counting gate bounding the resident-session set of one stream; blocks
/// the decode side when `resident == cap` and records the high-water mark
/// actually reached. It refills in bursts: a blocked feeder resumes only
/// once residency has fallen to half the cap, so it wakes once per
/// `cap / 2` audited sessions instead of once per session.
struct ResidencyGate {
    state: Mutex<GateState>,
    freed: Condvar,
    cap: usize,
}

#[derive(Default)]
struct GateState {
    resident: usize,
    peak: usize,
    /// The feeder sleeps until a release clears this.
    waiting: bool,
}

impl ResidencyGate {
    fn new(cap: usize) -> Self {
        ResidencyGate {
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            cap,
        }
    }

    /// Block until a residency slot is free, then claim it. The slot is
    /// speculative until [`commit`](Self::commit): the feeder claims before
    /// pulling, but the pull may yield end-of-stream instead of a session.
    fn acquire(&self) {
        let mut s = self.state.lock().expect("gate lock");
        if s.resident >= self.cap {
            s.waiting = true;
            while s.waiting {
                s = self.freed.wait(s).expect("gate wait");
            }
        }
        s.resident += 1;
    }

    /// Record the claimed slot as a real resident session (peak tracking).
    fn commit(&self) {
        let mut s = self.state.lock().expect("gate lock");
        s.peak = s.peak.max(s.resident);
    }

    /// Release a residency slot (the session was audited and dropped),
    /// waking a waiting feeder once half the cap is free.
    fn release(&self) {
        let mut s = self.state.lock().expect("gate lock");
        s.resident -= 1;
        if s.waiting && s.resident <= self.cap / 2 {
            s.waiting = false;
            drop(s);
            self.freed.notify_one();
        }
    }

    fn peak(&self) -> usize {
        self.state.lock().expect("gate lock").peak
    }
}

// ---------------------------------------------------------------------------
// Work items and worker threads
// ---------------------------------------------------------------------------

/// One session queued for a worker.
struct WorkItem {
    /// Submission index within its batch (verdict ordering key).
    index: usize,
    job: Box<AuditJob>,
    /// The entry this item audits against, pinned for the batch's
    /// lifetime (all items of one batch share the `Arc`; the last drop
    /// unpins).
    reference: Arc<PinnedReference>,
    /// The battery resolved at submission (`None` = TDR-only).
    battery: Option<Arc<DetectorBattery>>,
    /// Ticket-wide cancellation flag: set → skip the audit entirely.
    cancelled: Arc<AtomicBool>,
    /// Residency slot to release after the audit (streams only).
    gate: Option<Arc<ResidencyGate>>,
    /// Where the verdict goes (the ticket's receiver).
    sink: Sink,
    /// Scheduling key: the daemon connection id that submitted this item,
    /// or [`LOCAL_TENANT`] for in-process submissions.
    tenant: u64,
    /// Per-tenant queue-depth gauge (`tenant_{id}_queue_depth`), present
    /// only for daemon tenants; decremented when the item is dequeued.
    tenant_depth: Option<Arc<Gauge>>,
}

/// Tenant id for in-process submissions ([`AuditService::submit`]) and
/// for daemon connections served without a tenant id. Daemon connection
/// ids start at 1, so 0 never collides.
const LOCAL_TENANT: u64 = 0;

/// Where a submission's verdicts go. Its feed and each of its work items
/// hold a clone, so once the last clone drops, every verdict the
/// submission will produce has been sent.
#[derive(Clone)]
struct Sink {
    tx: mpsc::Sender<(usize, AuditVerdict)>,
    /// The serve loop to wake when the last clone drops. Declared after
    /// `tx`, so it drops after it: the woken loop finds the channel
    /// closed.
    _wake: Option<Arc<Unpark>>,
}

/// Unparks a thread when dropped. Every [`Sink`] of one submission shares
/// it, so it drops with the last of them.
struct Unpark(Thread);

impl Drop for Unpark {
    fn drop(&mut self) {
        self.0.unpark();
    }
}

// ---------------------------------------------------------------------------
// Fair work queue (round-robin across tenants)
// ---------------------------------------------------------------------------

/// Per-connection/tenant submission quota, enforced in-band by
/// [`AuditService::serve_as_tenant`] — an over-quota `SubmitBatch` is
/// answered with a [`ControlFrame::Busy`] frame and the connection
/// survives; rejected submissions consume no budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantQuota {
    /// Most sessions one `SubmitBatch` may declare in its TDRB header.
    /// Batches declaring more are refused with
    /// [`crate::control::BusyScope::InFlightSessions`] before any session
    /// is decoded or audited.
    pub max_sessions: u64,
    /// Most `SubmitBatch` requests one connection may have admitted over
    /// its lifetime (the serve loop is synchronous — each batch fully
    /// drains before the next frame is read, so admitted == completed).
    /// Further batches are refused with
    /// [`crate::control::BusyScope::QueuedBatches`].
    pub max_batches: u64,
}

/// What [`WorkQueue::try_pop`] observed without blocking.
enum Popped {
    Item(Box<WorkItem>),
    Empty,
    Closed,
}

#[derive(Default)]
struct QueueState {
    /// Per-tenant FIFO backlogs. Empty backlogs are removed, so the map
    /// never grows beyond the set of tenants with live backlog.
    queues: BTreeMap<u64, VecDeque<WorkItem>>,
    /// Round-robin service order over `queues` keys.
    active: VecDeque<u64>,
    closed: bool,
    /// Workers waiting in [`WorkQueue::pop_wait`]; a push signals only
    /// when there is one.
    parked: usize,
}

/// The shared work queue: items are enqueued FIFO *per tenant* and
/// dequeued round-robin *across* tenants — one job per tenant with
/// backlog per round — so one tenant's flood delays another tenant by at
/// most one job per round instead of by the whole backlog.
///
/// [`close`](Self::close) rejects new pushes, but pops keep draining
/// queued items — `None`/`Closed` only once the queue is closed **and**
/// empty, so graceful shutdown still completes in-flight tickets.
struct WorkQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl WorkQueue {
    fn new() -> Self {
        WorkQueue {
            state: Mutex::new(QueueState::default()),
            ready: Condvar::new(),
        }
    }

    /// Enqueue an item under its tenant. `Err(item)` iff the queue is
    /// closed (the service shut down under the submitter).
    fn push(&self, item: WorkItem) -> Result<(), WorkItem> {
        let mut guard = self.state.lock().expect("work queue lock");
        let s = &mut *guard;
        if s.closed {
            return Err(item);
        }
        let backlog = s.queues.entry(item.tenant).or_default();
        if backlog.is_empty() {
            s.active.push_back(item.tenant);
        }
        backlog.push_back(item);
        let parked = s.parked > 0;
        drop(guard);
        if parked {
            self.ready.notify_one();
        }
        Ok(())
    }

    /// One round-robin step under the lock: serve the head tenant's
    /// oldest item and requeue the tenant if backlog remains.
    fn pop_locked(s: &mut QueueState) -> Option<Box<WorkItem>> {
        let tenant = s.active.pop_front()?;
        let backlog = s
            .queues
            .get_mut(&tenant)
            .expect("active tenant has a backlog");
        let item = backlog.pop_front().expect("active tenant backlog nonempty");
        if backlog.is_empty() {
            s.queues.remove(&tenant);
        } else {
            s.active.push_back(tenant);
        }
        Some(Box::new(item))
    }

    /// Non-blocking pop, so workers can distinguish a genuinely empty
    /// queue (→ park) from available work.
    fn try_pop(&self) -> Popped {
        let mut s = self.state.lock().expect("work queue lock");
        match Self::pop_locked(&mut s) {
            Some(item) => Popped::Item(item),
            None if s.closed => Popped::Closed,
            None => Popped::Empty,
        }
    }

    /// Blocking pop: parks until an item arrives or the queue is closed
    /// *and* drained.
    fn pop_wait(&self) -> Option<Box<WorkItem>> {
        let mut s = self.state.lock().expect("work queue lock");
        loop {
            if let Some(item) = Self::pop_locked(&mut s) {
                return Some(item);
            }
            if s.closed {
                return None;
            }
            s.parked += 1;
            s = self.ready.wait(s).expect("work queue wait");
            s.parked -= 1;
        }
    }

    /// Close the queue: pushes fail from here on, pops drain what's left.
    /// Idempotent (called from both `shutdown` and `Drop`).
    fn close(&self) {
        self.state.lock().expect("work queue lock").closed = true;
        self.ready.notify_all();
    }
}

/// State shared by the service handle, its workers, and its tickets.
struct Shared {
    cfg: AuditConfig,
    /// The builder's reference as an entry outside the registry's map:
    /// never evicted, charged to no budget, counted in no `registry_*`
    /// metric. `submit(_, None)` and v1 `SubmitBatch` frames audit
    /// against it.
    builtin: Arc<PinnedReference>,
    /// Current battery generation. Starts as the reference's battery;
    /// replaced only by [`AuditService::install_battery`].
    battery: Mutex<Option<Arc<DetectorBattery>>>,
    /// The service's single source of truth for counters and lifecycle
    /// events — workers, feeders, serve loops, and the TCP front end all
    /// record into this one set (see [`crate::obs::ServiceMetrics`]).
    metrics: ServiceMetrics,
    /// Wire-registered reference programs (verify-on-load, LRU-evicted).
    registry: ReferenceRegistry,
}

/// Releases a claimed residency slot on drop — **including unwind**. If a
/// worker panics mid-audit, the slot must not leak: a leaked slot would
/// wedge the streaming feeder in `gate.acquire` forever, turning a worker
/// death into a silent hang instead of the loud short-verdict-set failure
/// `BatchTicket::wait` raises.
struct SlotGuard(Option<Arc<ResidencyGate>>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        if let Some(gate) = self.0.take() {
            gate.release();
        }
    }
}

fn worker_main(worker: u64, shared: Arc<Shared>, queue: Arc<WorkQueue>) {
    loop {
        // The queue holds its lock only for the dequeue, not the audit. An
        // idle worker parks in `pop_wait`; a closed-and-drained queue is
        // the shutdown signal. `try_pop` first so the park/unpark trace
        // records only *true* blocking waits, not queue-was-already-full
        // dequeues.
        let item = match queue.try_pop() {
            Popped::Item(item) => Some(item),
            Popped::Closed => None,
            Popped::Empty => {
                shared.metrics.trace(TraceKind::WorkerPark, worker, 0);
                let got = queue.pop_wait();
                shared.metrics.trace(TraceKind::WorkerUnpark, worker, 0);
                got
            }
        };
        let Some(item) = item else { break };
        shared.metrics.queue_depth.dec();
        let WorkItem {
            index,
            job,
            reference,
            battery,
            cancelled,
            gate,
            sink,
            tenant: _,
            tenant_depth,
        } = *item;
        if let Some(depth) = tenant_depth {
            depth.dec();
        }
        let slot = SlotGuard(gate);
        if cancelled.load(Ordering::Relaxed) {
            shared.metrics.sessions_cancelled.inc();
            continue;
        }
        shared.metrics.in_flight_jobs.inc();
        let started = Instant::now();
        // The one audit arm: a warm cache from the pinned entry's pool,
        // scored with the battery resolved at submission.
        let mut cache = reference.checkout_cache();
        let verdict = cache.audit(&job, &shared.cfg, battery.as_deref());
        reference.return_cache(cache);
        let elapsed = started.elapsed();
        shared.metrics.in_flight_jobs.dec();
        // Unpin and free the slot before the verdict goes out, so a ticket
        // that has every verdict holds no pin and no slot.
        drop(job);
        drop(reference);
        drop(slot);
        shared
            .metrics
            .worker_busy_nanos
            .add(elapsed.as_nanos() as u64);
        shared
            .metrics
            .verdict_latency_us
            .observe(elapsed.as_secs_f64() * 1e6);
        shared.metrics.replayed_cycles.add(verdict.replayed_cycles);
        shared.metrics.sessions_audited.inc();
        // A dropped ticket is not an error: the verdict is simply unwanted.
        let _ = sink.tx.send((index, verdict));
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Configures and spawns an [`AuditService`].
///
/// Defaults: one worker per available core, the default high-water mark,
/// and TDR-only scoring. Unlike the one-shot [`AuditConfig`], `0` is
/// **not** a magic value here — `build()` returns a typed [`ConfigError`]
/// for zero workers or a zero high-water mark.
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    reference: Reference,
    cfg: AuditConfig,
    reference_budget: u64,
}

impl ServiceBuilder {
    /// Worker threads to keep warm (must be positive).
    pub fn workers(mut self, n: usize) -> Self {
        self.cfg.workers = n;
        self
    }

    /// Streaming residency bound (must be positive).
    pub fn high_water(mut self, w: usize) -> Self {
        self.cfg.high_water = w;
        self
    }

    /// Which detectors score each session. [`BatteryMode::Full`] requires
    /// a trained battery on the reference ([`Reference::with_battery`]).
    pub fn battery(mut self, mode: BatteryMode) -> Self {
        self.cfg.battery = mode;
        self
    }

    /// TDR flagging threshold (default 2%).
    pub fn threshold(mut self, t: f64) -> Self {
        self.cfg.threshold = t;
        self
    }

    /// Replace the whole configuration at once (the one-shot shims use
    /// this to carry a caller's [`AuditConfig`] verbatim — after resolving
    /// its `0` fallbacks, since `build()` rejects them).
    pub fn config(mut self, cfg: AuditConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Residency budget (bytes of canonical program code) for the
    /// reference registry — wire-registered programs are LRU-evicted
    /// when they exceed it (default
    /// [`DEFAULT_REFERENCE_BUDGET`]).
    /// The built-in default reference is not charged against it.
    pub fn reference_budget(mut self, bytes: u64) -> Self {
        self.reference_budget = bytes;
        self
    }

    /// Validate the configuration and spawn the worker pool. Workers
    /// build their reference caches lazily, on first checkout.
    pub fn build(self) -> Result<AuditService, ConfigError> {
        self.cfg.validate()?;
        if self.cfg.battery == BatteryMode::Full && self.reference.battery.is_none() {
            return Err(ConfigError::MissingBattery);
        }
        let battery = Mutex::new(self.reference.battery.clone());
        let metrics = ServiceMetrics::new();
        let registry = ReferenceRegistry::with_service_metrics(self.reference_budget, &metrics);
        let shared = Arc::new(Shared {
            cfg: self.cfg,
            builtin: Arc::new(PinnedReference::unregistered(self.reference)),
            battery,
            metrics,
            registry,
        });
        let queue = Arc::new(WorkQueue::new());
        let workers = (0..self.cfg.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("audit-service-worker-{w}"))
                    .spawn(move || worker_main(w as u64, shared, queue))
                    .expect("spawn audit service worker")
            })
            .collect();
        Ok(AuditService {
            shared,
            queue,
            workers,
        })
    }
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// What one [`AuditService::submit`] audits. The kind of source, not an
/// option, selects how it is fed:
///
/// * owned jobs (`Vec<AuditJob>`, via `From`) are resident already, so
///   they are enqueued at once without a residency gate;
/// * a TDRB reader ([`Source::tdrb`]) is decoded lazily on a feeder thread
///   under the service's high-water residency bound.
pub struct Source(Sessions);

enum Sessions {
    Jobs(Vec<AuditJob>),
    Tdrb(BatchStream<io::BufReader<Box<dyn Read + Send>>>),
}

impl Source {
    /// A TDRB byte stream. The batch header is read here, so a malformed
    /// header fails fast, on the caller; `reader` is buffered internally.
    pub fn tdrb<R: Read + Send + 'static>(reader: R) -> Result<Source, IngestError> {
        let reader: Box<dyn Read + Send> = Box::new(reader);
        let sessions = BatchStream::new(io::BufReader::new(reader))?;
        Ok(Source(Sessions::Tdrb(sessions)))
    }

    /// Sessions the source holds: the TDRB header's declared count for a
    /// stream.
    fn sessions_declared(&self) -> u64 {
        match &self.0 {
            Sessions::Jobs(jobs) => jobs.len() as u64,
            Sessions::Tdrb(sessions) => sessions.sessions_declared(),
        }
    }
}

impl From<Vec<AuditJob>> for Source {
    fn from(jobs: Vec<AuditJob>) -> Self {
        Source(Sessions::Jobs(jobs))
    }
}

/// A long-lived audit service: one warmed worker pool, many submissions.
///
/// See the [module docs](self) for the lifecycle. Submissions from
/// multiple batches share the tenant-fair work queue (per-tenant FIFO,
/// round-robin across tenants); verdicts are routed to the submitting
/// ticket.
pub struct AuditService {
    shared: Arc<Shared>,
    queue: Arc<WorkQueue>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for AuditService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditService")
            .field("workers", &self.workers.len())
            .field("cfg", &self.shared.cfg)
            .field(
                "sessions_audited",
                &self.shared.metrics.sessions_audited.get(),
            )
            .finish()
    }
}

impl AuditService {
    /// Start configuring a service over `reference`.
    pub fn builder(reference: Reference) -> ServiceBuilder {
        ServiceBuilder {
            reference,
            cfg: AuditConfig {
                // The builder resolves the defaults *now*; `0` is invalid
                // at build() rather than a fallback deep in the pool.
                workers: AuditConfig::default().resolved_workers(),
                ..AuditConfig::default()
            },
            reference_budget: DEFAULT_REFERENCE_BUDGET,
        }
    }

    /// The service-wide configuration (fixed at build time).
    pub fn config(&self) -> &AuditConfig {
        &self.shared.cfg
    }

    /// Worker threads kept warm.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Sessions audited over the service's lifetime (skipped/cancelled
    /// sessions are not counted). A view over the `sessions_audited`
    /// metric — see [`metrics_snapshot`](Self::metrics_snapshot).
    pub fn sessions_audited(&self) -> u64 {
        self.shared.metrics.sessions_audited.get()
    }

    /// Batches submitted over the service's lifetime (a view over the
    /// `batches_submitted` metric).
    pub fn batches_submitted(&self) -> u64 {
        self.shared.metrics.batches_submitted.get()
    }

    /// The service's metric set (shared with workers, feeders, serve
    /// loops, and the TCP front end).
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.shared.metrics
    }

    /// Capture every service metric as a deterministic, name-ordered
    /// snapshot — the payload of [`ControlFrame::Stats`].
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The retained lifecycle trace, oldest event first. Timestamps are
    /// process-monotonic wall-clock measurements: diagnostic only, never
    /// part of a determinism-pinned artifact, never sent on the control
    /// plane.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.shared.metrics.trace_events()
    }

    /// The current battery generation: what new submissions on the
    /// built-in reference score with under [`BatteryMode::Full`]. Only
    /// [`install_battery`](Self::install_battery) changes it.
    pub fn battery(&self) -> Option<Arc<DetectorBattery>> {
        self.shared.battery.lock().expect("battery lock").clone()
    }

    /// Submit `source` for audit against `reference` — a registered id,
    /// or `None` for the service's built-in reference. Returns
    /// immediately; the ticket yields verdicts as workers produce them and
    /// the final report on [`BatchTicket::wait`]. The serve loop submits
    /// through the same core, so a v1 `SubmitBatch` frame is
    /// `submit(_, None)` and a v2 frame is `submit(_, Some(id))`.
    ///
    /// The built-in reference scores with the battery generation current
    /// at submission when the service runs [`BatteryMode::Full`]. A
    /// registered reference ships no battery, so its sessions score
    /// TDR-only. Fails with [`RegistryError::Unknown`] if `reference` is
    /// not resident (never loaded, or evicted);
    /// [`put_reference`](Self::put_reference) and resubmit.
    pub fn submit(
        &self,
        source: impl Into<Source>,
        reference: Option<ReferenceId>,
    ) -> Result<BatchTicket, RegistryError> {
        let registered = self.resolve(reference).map_err(RegistryError::Unknown)?;
        Ok(self.start(source.into(), registered, LOCAL_TENANT, None, None))
    }

    /// Pin the registered entry `reference` names (`None` names the
    /// built-in entry); `Err` returns an id that is not resident.
    fn resolve(
        &self,
        reference: Option<ReferenceId>,
    ) -> Result<Option<PinnedReference>, ReferenceId> {
        reference
            .map(|id| self.shared.registry.checkout(&id).ok_or(id))
            .transpose()
    }

    /// Open, verify, and admit a TDRP container into the service's
    /// reference registry — the in-process twin of the wire
    /// [`ControlFrame::PutReference`] (`Client::put_reference`).
    pub fn put_reference(&self, tdrp: &[u8]) -> Result<RegistryLoad, RegistryError> {
        self.shared.registry.load(tdrp)
    }

    /// Parse and install a trained detector battery from its canonical
    /// JSON form, replacing the current generation in one atomic swap —
    /// the in-process twin of the wire [`ControlFrame::PutBattery`]
    /// (`Client::put_battery`). Returns the new generation number.
    ///
    /// Refused (with the reason) when the JSON fails to parse, the
    /// battery is untrained, or the service scores TDR-only — with or
    /// without a battery attached, an installed battery would silently
    /// never score, so pretending to accept it would hide a fleet
    /// misconfiguration. In-flight sessions keep the generation they
    /// were submitted under; only subsequent submissions see the new one.
    ///
    /// This is the one way a generation changes. Retraining is the
    /// writer's job: [`crate::verdict::retrain`] derives the next battery
    /// from a batch's verdicts, and the writer installs it here. An
    /// install replaces the battery outright, so a daemon (or a fleet
    /// behind a coordinator) takes one writer.
    pub fn install_battery(&self, json: &str) -> Result<u64, String> {
        let battery =
            DetectorBattery::from_json(json).map_err(|e| format!("battery JSON refused: {e}"))?;
        if !battery.is_trained() {
            return Err("battery is untrained".to_string());
        }
        if self.shared.cfg.battery != BatteryMode::Full {
            return Err(
                "service scores TDR-only, so an installed battery would never score; install refused"
                    .to_string(),
            );
        }
        let mut slot = self.shared.battery.lock().expect("battery lock");
        *slot = Some(Arc::new(battery));
        // Numbered under the lock, so generation order is swap order.
        let generation = self.shared.metrics.retrain_generations.inc();
        drop(slot);
        self.shared
            .metrics
            .trace(TraceKind::RetrainPublish, generation, 0);
        Ok(generation)
    }

    /// The service's reference registry (shared with every serve loop).
    pub fn reference_registry(&self) -> &ReferenceRegistry {
        &self.shared.registry
    }

    /// The submission core under [`submit`](Self::submit) and the serve
    /// loop: owned jobs are fed on the calling thread, a TDRB stream on a
    /// feeder thread. `registered` is `None` for the built-in entry;
    /// `wake` as in [`open`](Self::open).
    fn start(
        &self,
        source: Source,
        registered: Option<PinnedReference>,
        tenant: u64,
        handles: Option<&TenantMetricHandles>,
        wake: Option<Thread>,
    ) -> BatchTicket {
        match source.0 {
            Sessions::Jobs(jobs) => {
                let len = Some(jobs.len());
                self.open(registered, tenant, handles, len, wake, |ctx| {
                    Outcome::Fed(feed(jobs.into_iter().map(Ok), ctx))
                })
            }
            Sessions::Tdrb(sessions) => self.open(registered, tenant, handles, None, wake, |ctx| {
                let feeder = std::thread::Builder::new()
                    .name("audit-service-feeder".to_string())
                    .spawn(move || feed(sessions, ctx))
                    .expect("spawn audit service feeder");
                Outcome::Feeding(feeder)
            }),
        }
    }

    /// Blocking audit of a session source that need not be `Send` (it may
    /// borrow caller state) on the built-in reference: the feed runs on
    /// the calling thread while workers audit. This is what the one-shot
    /// helpers in [`crate::pool`] run; `len` as in [`open`](Self::open).
    pub(crate) fn audit_blocking<I>(
        &self,
        sessions: I,
        len: Option<usize>,
    ) -> Result<BatchReport, IngestError>
    where
        I: IntoIterator<Item = Result<AuditJob, IngestError>>,
    {
        self.open(None, LOCAL_TENANT, None, len, None, |ctx| {
            Outcome::Fed(feed(sessions, ctx))
        })
        .wait()
    }

    /// Open one submission: count and trace it, resolve its entry and
    /// battery, let `run` feed it, and return its ticket — the one ticket
    /// constructor. `len` is the session count of owned jobs; `None`
    /// marks a stream, fed under the residency gate. `wake` is a thread to
    /// unpark once the submission's last verdict is sent (the serve loop,
    /// which sleeps through its verdict windows).
    fn open(
        &self,
        registered: Option<PinnedReference>,
        tenant: u64,
        handles: Option<&TenantMetricHandles>,
        len: Option<usize>,
        wake: Option<Thread>,
        run: impl FnOnce(FeedContext) -> Outcome,
    ) -> BatchTicket {
        let shared = &self.shared;
        let batch_seq = shared.metrics.batches_submitted.inc();
        // A stream's session count is unknown until it drains: `b = 0`.
        shared
            .metrics
            .trace(TraceKind::BatchSubmit, batch_seq, len.unwrap_or(0) as u64);
        // The built-in entry scores with the generation current now; a
        // registered entry ships no battery.
        let (reference, battery) = match registered {
            Some(pin) => (Arc::new(pin), None),
            None => (
                Arc::clone(&shared.builtin),
                (shared.cfg.battery == BatteryMode::Full)
                    .then(|| self.battery())
                    .flatten(),
            ),
        };
        let (tx, rx) = mpsc::channel();
        let cancelled = Arc::new(AtomicBool::new(false));
        let outcome = run(FeedContext {
            queue: Arc::clone(&self.queue),
            sink: Sink {
                tx,
                _wake: wake.map(|thread| Arc::new(Unpark(thread))),
            },
            cancelled: Arc::clone(&cancelled),
            reference,
            battery,
            gate: len
                .is_none()
                .then(|| Arc::new(ResidencyGate::new(shared.cfg.high_water))),
            queue_depth: Arc::clone(&shared.metrics.queue_depth),
            sessions_submitted: Arc::clone(&shared.metrics.sessions_submitted),
            tenant,
            tenant_depth: handles.map(|h| Arc::clone(&h.queue_depth)),
            tenant_sessions: handles.map(|h| Arc::clone(&h.sessions)),
        });
        BatchTicket {
            rx,
            cancelled,
            batch_seq,
            collected: Vec::with_capacity(len.unwrap_or(0)),
            outcome: Some(outcome),
            // More workers than sessions, or than residency slots, could
            // never all be busy.
            workers: self
                .workers
                .len()
                .min(len.unwrap_or(shared.cfg.high_water))
                .max(1),
            shared: Arc::clone(shared),
        }
    }

    /// Graceful shutdown: close the work queue, let workers drain every
    /// queued item (in-flight tickets still complete), and join them.
    /// Dropping the service does the same.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.queue.close();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }

    /// The daemon loop: serve [`ControlFrame`] requests from `reader`,
    /// writing responses to `writer`, until the peer disconnects (clean
    /// EOF) or sends [`ControlFrame::Shutdown`].
    ///
    /// Per [`ControlFrame::SubmitBatch`] request the response is zero or
    /// more [`ControlFrame::Verdict`] frames **in submission order**
    /// followed by exactly one [`ControlFrame::Summary`] (success) or
    /// [`ControlFrame::Error`] (the embedded TDRB failed to decode; the
    /// service stays up). Verdicts are flushed in bursts, each at most
    /// 1 ms after its first verdict; the batch's last verdict and its
    /// terminating frame are flushed at once. A
    /// [`ControlFrame::StatsRequest`] is answered with one
    /// [`ControlFrame::Stats`] carrying a live
    /// [`metrics_snapshot`](Self::metrics_snapshot). Protocol-level
    /// failures — corrupt control frames, client-only frames arriving as
    /// requests, transport errors — return a [`ControlError`] and end the
    /// loop (a read timing out on an endpoint with a configured read
    /// deadline is reported as [`ControlError::IdleTimeout`]).
    pub fn serve<R: Read, W: Write>(&self, reader: R, writer: W) -> Result<(), ControlError> {
        self.serve_as_tenant(reader, writer, LOCAL_TENANT, None)
    }

    /// [`serve`](Self::serve) with multi-tenant governance: work this
    /// connection submits is scheduled under `tenant` (the daemon's
    /// connection id — per-tenant round-robin onto the worker pool, plus
    /// lazily-registered `tenant_{id}_sessions` / `tenant_{id}_rejected` /
    /// `tenant_{id}_queue_depth` metrics), and `quota` (if any) bounds
    /// what it may submit. An over-quota `SubmitBatch` is answered in-band
    /// with a [`ControlFrame::Busy`] frame — the client surfaces it as
    /// [`ControlError::QuotaExceeded`] — and the connection survives;
    /// rejected batches consume no quota. A `tenant` of 0 disables the
    /// per-tenant metrics (it is the in-process submitter's id).
    pub fn serve_as_tenant<R: Read, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
        tenant: u64,
        quota: Option<TenantQuota>,
    ) -> Result<(), ControlError> {
        let metrics = &self.shared.metrics;
        let handles =
            (tenant != LOCAL_TENANT).then(|| TenantMetricHandles::register(metrics, tenant));
        let mut admitted_batches = 0u64;
        let mut frames_seen = 0u64;
        let outcome = loop {
            let frame = match ControlFrame::read_from(&mut reader) {
                Ok(None) => break Ok(()), // peer hung up cleanly
                Ok(Some(frame)) => frame,
                Err(ControlError::Io(kind, _))
                    if kind == io::ErrorKind::WouldBlock || kind == io::ErrorKind::TimedOut =>
                {
                    // A read deadline fired (net.rs sets one when the
                    // daemon runs with an idle timeout): the peer stalled.
                    break Err(ControlError::IdleTimeout);
                }
                Err(e) => break Err(e),
            };
            frames_seen += 1;
            metrics.frames_in.inc();
            let result = match frame {
                ControlFrame::SubmitBatch {
                    batch_id,
                    tdrb,
                    reference,
                } => {
                    metrics.frames_in_submit_batch.inc();
                    // Resolve the reference before admitting: an unknown
                    // id is answered in-band (the client surfaces it as
                    // `ControlError::UnknownReference`) and, like a quota
                    // refusal, consumes no quota.
                    match self.resolve(reference) {
                        Err(id) => reply(
                            &mut writer,
                            ControlFrame::ReferenceAck {
                                put_id: batch_id,
                                reference: id,
                                status: AckStatus::Unknown,
                                resident_bytes: self.shared.registry.resident_bytes(),
                            },
                            metrics,
                            &metrics.frames_out_reference_ack,
                        ),
                        Ok(registered) => {
                            if let Some(refusal) =
                                quota_refusal(quota, admitted_batches, &tdrb, batch_id)
                            {
                                metrics.quota_rejections.inc();
                                if let Some(h) = &handles {
                                    h.rejected.inc();
                                }
                                metrics.trace(TraceKind::QuotaReject, tenant, batch_id);
                                reply(&mut writer, refusal, metrics, &metrics.frames_out_busy)
                            } else {
                                admitted_batches += 1;
                                self.serve_batch(
                                    batch_id,
                                    tdrb,
                                    registered,
                                    &mut writer,
                                    tenant,
                                    handles.as_ref(),
                                )
                            }
                        }
                    }
                }
                ControlFrame::PutReference { put_id, tdrp } => {
                    metrics.frames_in_put_reference.inc();
                    // Verify/CRC failures are *in-band* rejections: the
                    // connection — and the daemon — keep serving.
                    let ack = match self.shared.registry.load(&tdrp) {
                        Ok(load) => ControlFrame::ReferenceAck {
                            put_id,
                            reference: load.id,
                            status: if load.newly_loaded {
                                AckStatus::Loaded
                            } else {
                                AckStatus::AlreadyResident
                            },
                            resident_bytes: load.resident_bytes,
                        },
                        Err(e) => ControlFrame::ReferenceAck {
                            put_id,
                            reference: ReferenceId([0u8; 32]),
                            status: AckStatus::Rejected(e.to_string()),
                            resident_bytes: self.shared.registry.resident_bytes(),
                        },
                    };
                    reply(&mut writer, ack, metrics, &metrics.frames_out_reference_ack)
                }
                ControlFrame::PutBattery { put_id, json } => {
                    metrics.frames_in_put_battery.inc();
                    // Like a refused container: rejections travel in-band,
                    // the connection and the daemon keep serving.
                    let ack = match self.install_battery(&json) {
                        Ok(generation) => ControlFrame::BatteryAck {
                            put_id,
                            generation,
                            status: AckStatus::Loaded,
                        },
                        Err(reason) => ControlFrame::BatteryAck {
                            put_id,
                            generation: 0,
                            status: AckStatus::Rejected(reason),
                        },
                    };
                    reply(&mut writer, ack, metrics, &metrics.frames_out_battery_ack)
                }
                ControlFrame::StatsRequest => {
                    metrics.frames_in_stats_request.inc();
                    let stats = ControlFrame::Stats {
                        snapshot: metrics.snapshot(),
                    };
                    reply(&mut writer, stats, metrics, &metrics.frames_out_stats)
                }
                ControlFrame::Shutdown => {
                    metrics.frames_in_shutdown.inc();
                    break reply(
                        &mut writer,
                        ControlFrame::ShutdownAck,
                        metrics,
                        &metrics.frames_out_shutdown_ack,
                    );
                }
                other => Err(ControlError::UnexpectedFrame(other.kind_name())),
            };
            if let Err(e) = result {
                break Err(e);
            }
        };
        metrics.conn_frames.observe(frames_seen as f64);
        if let Err(e) = &outcome {
            metrics.record_control_error(e);
        }
        outcome
    }

    fn serve_batch<W: Write>(
        &self,
        batch_id: u64,
        tdrb: Vec<u8>,
        registered: Option<PinnedReference>,
        writer: &mut W,
        tenant: u64,
        handles: Option<&TenantMetricHandles>,
    ) -> Result<(), ControlError> {
        let metrics = &self.shared.metrics;
        let source = match Source::tdrb(io::Cursor::new(tdrb)) {
            Ok(source) => source,
            Err(e) => {
                metrics.batch_errors.inc();
                let error = ControlFrame::Error {
                    batch_id,
                    message: e.to_string(),
                };
                return reply(writer, error, metrics, &metrics.frames_out_error);
            }
        };
        let declared = source.sessions_declared();
        let ticket = self.start(source, registered, tenant, handles, Some(thread::current()));
        // Re-order scheduling-dependent arrivals into submission order so
        // the response byte stream is deterministic. The verdicts taken
        // off the channel here are the batch's only copy: once written,
        // each moves into `written`, which the Summary is computed from.
        let mut pending: BTreeMap<usize, AuditVerdict> = BTreeMap::new();
        let mut written = Vec::new();
        let mut received = 0u64;
        let mut all_in = false;
        // Verdicts leave in bursts, so a burst costs one wake-up and one
        // flush instead of one per verdict. Block for a burst's first
        // verdict, then sleep out the rest of VERDICT_WINDOW: a sender
        // signals a receiver only while it is blocked in `recv`, so the
        // window passes unwoken. Only the batch's end wakes it early — the
        // last sink unparks this thread — so the last verdict and the
        // terminating frame are never held. A client on a buffered
        // transport (the TCP front end wraps the socket in a BufWriter)
        // still sees verdicts live, at most one window late.
        while !all_in {
            let Ok((index, verdict)) = ticket.rx.recv() else {
                break;
            };
            let opened = Instant::now();
            pending.insert(index, verdict);
            received += 1;
            loop {
                let closed = loop {
                    match ticket.rx.try_recv() {
                        Ok((index, verdict)) => {
                            pending.insert(index, verdict);
                            received += 1;
                        }
                        Err(mpsc::TryRecvError::Empty) => break false,
                        Err(mpsc::TryRecvError::Disconnected) => break true,
                    }
                };
                all_in = closed || received == declared;
                match hold(opened, Instant::now(), all_in) {
                    Some(rest) => thread::park_timeout(rest),
                    None => break,
                }
            }
            let mut wrote = false;
            while let Some(verdict) = pending.remove(&written.len()) {
                let frame = ControlFrame::Verdict {
                    batch_id,
                    index: written.len() as u64,
                    verdict,
                };
                frame.write_to(writer)?;
                metrics.frames_out.inc();
                metrics.frames_out_verdict.inc();
                let ControlFrame::Verdict { verdict, .. } = frame else {
                    unreachable!("built as a Verdict frame above");
                };
                written.push(verdict);
                wrote = true;
            }
            // The batch's last burst goes out with the terminating frame's
            // flush.
            if wrote && !all_in {
                writer.flush().map_err(ControlError::from_io)?;
            }
        }
        debug_assert!(pending.is_empty(), "verdict indexes are contiguous");
        let (last, kind) = match ticket.finish(written) {
            Ok(report) => (
                ControlFrame::Summary {
                    batch_id,
                    workers: report.workers as u64,
                    peak_resident: report.peak_resident as u64,
                    summary: report.summary,
                },
                &metrics.frames_out_summary,
            ),
            Err(e) => (
                ControlFrame::Error {
                    batch_id,
                    message: e.to_string(),
                },
                &metrics.frames_out_error,
            ),
        };
        reply(writer, last, metrics, kind)
    }
}

impl Drop for AuditService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Handles to one tenant's lazily-registered metrics
/// (`tenant_{id}_sessions` / `tenant_{id}_rejected` /
/// `tenant_{id}_queue_depth`), fetched once per connection so the
/// name-keyed registry lookup is off the per-session path.
struct TenantMetricHandles {
    /// Sessions this tenant handed to the workers (throughput).
    sessions: Arc<Counter>,
    /// Batches refused by quota (each one also counted in the global
    /// `quota_rejections`).
    rejected: Arc<Counter>,
    /// This tenant's share of the shared work queue.
    queue_depth: Arc<Gauge>,
}

impl TenantMetricHandles {
    fn register(metrics: &ServiceMetrics, tenant: u64) -> Self {
        let r = metrics.registry();
        TenantMetricHandles {
            sessions: r.counter(&format!("tenant_{tenant}_sessions")),
            rejected: r.counter(&format!("tenant_{tenant}_rejected")),
            queue_depth: r.gauge(&format!("tenant_{tenant}_queue_depth")),
        }
    }
}

/// Admission decision for one `SubmitBatch`: `Some(Busy)` if `quota`
/// refuses it. Batch budget is checked first, then the session count the
/// TDRB header *declares*, read by ingest's own header parser — no
/// session is decoded. A header that parser rejects skips the session
/// check (the ingest path downstream reports it in-band as a decode
/// [`ControlFrame::Error`], which must not be masked by a quota refusal).
fn quota_refusal(
    quota: Option<TenantQuota>,
    admitted: u64,
    tdrb: &[u8],
    batch_id: u64,
) -> Option<ControlFrame> {
    let quota = quota?;
    if admitted >= quota.max_batches {
        return Some(ControlFrame::Busy {
            batch_id,
            scope: BusyScope::QueuedBatches,
            active: admitted,
            limit: quota.max_batches,
        });
    }
    let declared = BatchStream::new(tdrb).ok()?.sessions_declared();
    (declared > quota.max_sessions).then_some(ControlFrame::Busy {
        batch_id,
        scope: BusyScope::InFlightSessions,
        active: declared,
        limit: quota.max_sessions,
    })
}

/// How long the serve loop gathers verdicts after a burst's first one
/// before writing them all with one flush (`docs/FORMATS.md` §5.1).
const VERDICT_WINDOW: Duration = Duration::from_millis(1);

/// How much longer the serve loop holds a burst of verdicts opened at
/// `opened`; `None` writes it now. A burst that completes its batch
/// (`all_in`) goes out at once, whatever is left of the window.
pub(crate) fn hold(opened: Instant, now: Instant, all_in: bool) -> Option<Duration> {
    if all_in {
        return None;
    }
    let rest = VERDICT_WINDOW.saturating_sub(now.duration_since(opened));
    (!rest.is_zero()).then_some(rest)
}

/// Write one reply frame and flush it; once it is out, count it in
/// `frames_out` and in its kind's `frames_out_<kind>` counter.
fn reply<W: Write>(
    writer: &mut W,
    frame: ControlFrame,
    metrics: &ServiceMetrics,
    kind: &Counter,
) -> Result<(), ControlError> {
    frame.write_to(writer)?;
    writer.flush().map_err(ControlError::from_io)?;
    metrics.frames_out.inc();
    kind.inc();
    Ok(())
}

// ---------------------------------------------------------------------------
// Feeding a submission
// ---------------------------------------------------------------------------

/// Everything [`feed`] needs besides the session source.
struct FeedContext {
    queue: Arc<WorkQueue>,
    sink: Sink,
    cancelled: Arc<AtomicBool>,
    /// The pinned entry every item of the submission audits against.
    reference: Arc<PinnedReference>,
    /// The battery resolved at submission.
    battery: Option<Arc<DetectorBattery>>,
    /// A stream's residency gate; `None` for owned jobs, which are
    /// resident already.
    gate: Option<Arc<ResidencyGate>>,
    /// Metric handles (not the whole set: the feeder may outlive the
    /// ticket but records only these).
    queue_depth: Arc<Gauge>,
    sessions_submitted: Arc<Counter>,
    /// Scheduling key stamped on every work item this feed enqueues.
    tenant: u64,
    tenant_depth: Option<Arc<Gauge>>,
    tenant_sessions: Option<Arc<Counter>>,
}

/// What a feed reports back when it finishes.
struct FeedOutcome {
    error: Option<IngestError>,
    /// Sessions actually handed to the workers (the verdict count a
    /// clean run must deliver — fewer means a worker died).
    submitted: usize,
    peak_resident: usize,
}

/// The one enqueue loop: pull sessions — under the residency gate, for a
/// stream — and enqueue them as work items. Runs on a feeder thread (a
/// TDRB reader) or on the calling thread (owned jobs, and the blocking
/// one-shot stream).
fn feed<I>(sessions: I, ctx: FeedContext) -> FeedOutcome
where
    I: IntoIterator<Item = Result<AuditJob, IngestError>>,
{
    let mut error = None;
    let mut submitted = 0usize;
    let mut sessions = sessions.into_iter();
    while !ctx.cancelled.load(Ordering::Relaxed) {
        // Claim a residency slot *before* decoding the next session: the
        // pull itself is what materializes it.
        if let Some(gate) = &ctx.gate {
            gate.acquire();
        }
        let job = match sessions.next() {
            Some(Ok(job)) => job,
            end => {
                if let Some(gate) = &ctx.gate {
                    gate.release();
                }
                error = end.and_then(Result::err);
                break;
            }
        };
        if let Some(gate) = &ctx.gate {
            gate.commit();
        }
        let item = WorkItem {
            index: submitted,
            job: Box::new(job),
            reference: Arc::clone(&ctx.reference),
            battery: ctx.battery.clone(),
            cancelled: Arc::clone(&ctx.cancelled),
            gate: ctx.gate.clone(),
            sink: ctx.sink.clone(),
            tenant: ctx.tenant,
            tenant_depth: ctx.tenant_depth.clone(),
        };
        ctx.queue_depth.inc();
        if let Some(depth) = &ctx.tenant_depth {
            depth.inc();
        }
        if ctx.queue.push(item).is_err() {
            // The service shut down under us; hand the slot back and
            // stop feeding.
            ctx.queue_depth.dec();
            if let Some(depth) = &ctx.tenant_depth {
                depth.dec();
            }
            if let Some(gate) = &ctx.gate {
                gate.release();
            }
            break;
        }
        ctx.sessions_submitted.inc();
        if let Some(sessions) = &ctx.tenant_sessions {
            sessions.inc();
        }
        submitted += 1;
    }
    FeedOutcome {
        error,
        submitted,
        peak_resident: ctx.gate.map_or(0, |gate| gate.peak()),
    }
}

// ---------------------------------------------------------------------------
// Tickets
// ---------------------------------------------------------------------------

/// A ticket's outcome slot: the feed already ran (owned jobs, or the
/// blocking one-shot stream), or a feeder thread is still pulling a TDRB
/// reader.
enum Outcome {
    Fed(FeedOutcome),
    Feeding(JoinHandle<FeedOutcome>),
}

/// Handle to one submission in flight on an [`AuditService`].
///
/// Yields per-session verdicts as workers produce them
/// ([`recv`](Self::recv); arrival order is scheduling-dependent, indexes
/// are submission order) and the final deterministic report on
/// [`wait`](Self::wait). **Dropping the ticket cancels the submission**:
/// sessions not yet audited are skipped (their residency slots released)
/// and the service moves on to the next batch. For a TDRB stream, the
/// drop waits for the feeder thread to stop — including any read of the
/// source it is in the middle of — so the reader and the reference pin
/// are released when `drop` returns, and a feeder panic re-raises there.
pub struct BatchTicket {
    rx: mpsc::Receiver<(usize, AuditVerdict)>,
    cancelled: Arc<AtomicBool>,
    /// 1-based submission sequence number (the `batches_submitted` count
    /// at submission), keying this batch's trace events.
    batch_seq: u64,
    collected: Vec<(usize, AuditVerdict)>,
    /// Taken when the ticket finishes; a ticket dropped with it still
    /// here cancels its submission.
    outcome: Option<Outcome>,
    workers: usize,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for BatchTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchTicket")
            .field("collected", &self.collected.len())
            .field("cancelled", &self.cancelled.load(Ordering::Relaxed))
            .finish()
    }
}

impl BatchTicket {
    /// The next verdict as it arrives, or `None` once every session of the
    /// submission has reported. Verdicts are also retained internally for
    /// the final report, so mixing `recv` and [`wait`](Self::wait) is
    /// fine.
    pub fn recv(&mut self) -> Option<(usize, AuditVerdict)> {
        match self.rx.recv() {
            Ok((index, verdict)) => {
                self.collected.push((index, verdict.clone()));
                Some((index, verdict))
            }
            Err(_) => None,
        }
    }

    /// Drain remaining verdicts and produce the final batch report.
    ///
    /// For owned jobs the `Err` arm is unreachable; for a stream it
    /// carries the first ingest error, after in-flight sessions drained
    /// (same contract as the one-shot [`crate::audit_stream`]).
    pub fn wait(mut self) -> Result<BatchReport, IngestError> {
        // Drain by moving — no per-verdict clone on the internal path.
        while let Ok(pair) = self.rx.recv() {
            self.collected.push(pair);
        }
        let mut collected = std::mem::take(&mut self.collected);
        collected.sort_by_key(|&(i, _)| i);
        self.finish(collected.into_iter().map(|(_, v)| v).collect())
    }

    /// Finish the submission given `verdicts`, every verdict it delivered
    /// in submission order: join the feed, check that no worker died,
    /// record the batch and build the report.
    fn finish(mut self, verdicts: Vec<AuditVerdict>) -> Result<BatchReport, IngestError> {
        let outcome = match self.outcome.take().expect("a ticket finishes once") {
            Outcome::Fed(outcome) => outcome,
            Outcome::Feeding(feeder) => feeder.join().expect("feeder thread never panics"),
        };
        let metrics = &self.shared.metrics;
        if let Some(e) = outcome.error {
            metrics.batch_errors.inc();
            metrics.trace(
                TraceKind::BatchError,
                self.batch_seq,
                outcome.submitted as u64,
            );
            return Err(e);
        }
        // Persistent workers swallow panics into their join handles, so a
        // short verdict set is the only evidence a worker died mid-audit —
        // fail loudly, never report a truncated fleet summary as complete.
        assert_eq!(
            verdicts.len(),
            outcome.submitted,
            "an audit worker died before delivering every verdict"
        );
        metrics.batches_completed.inc();
        metrics.batch_sessions.observe(outcome.submitted as f64);
        metrics.residency_peak.set_max(outcome.peak_resident as u64);
        metrics.trace(
            TraceKind::BatchComplete,
            self.batch_seq,
            outcome.submitted as u64,
        );
        let summary = FleetSummary::from_verdicts(&verdicts);
        Ok(BatchReport {
            verdicts,
            summary,
            workers: self.workers,
            peak_resident: outcome.peak_resident,
        })
    }
}

impl Drop for BatchTicket {
    fn drop(&mut self) {
        let Some(outcome) = self.outcome.take() else {
            return;
        };
        self.cancelled.store(true, Ordering::Relaxed);
        if let Outcome::Feeding(feeder) = outcome {
            if let Err(panic) = feeder.join() {
                if !thread::panicking() {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// In-memory duplex (the daemon's loopback transport)
// ---------------------------------------------------------------------------

/// One direction of the duplex: a byte queue with EOF tracking.
#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    ready: Condvar,
}

#[derive(Debug, Default)]
struct PipeState {
    buf: VecDeque<u8>,
    closed: bool,
}

/// One end of an in-memory, thread-safe duplex byte stream.
///
/// `Read` blocks until bytes arrive or the peer drops (then EOF);
/// `Write` never blocks (the buffer is unbounded — control traffic is
/// small). Dropping an end closes both directions for the peer. This is
/// the loopback transport the daemon tests drive [`AuditService::serve`]
/// with; a real deployment hands `serve` a socket's reader/writer instead.
#[derive(Debug)]
pub struct DuplexEnd {
    rx: Arc<Pipe>,
    tx: Arc<Pipe>,
}

/// A connected pair of in-memory duplex endpoints.
pub fn duplex() -> (DuplexEnd, DuplexEnd) {
    let a = Arc::new(Pipe::default());
    let b = Arc::new(Pipe::default());
    (
        DuplexEnd {
            rx: Arc::clone(&a),
            tx: Arc::clone(&b),
        },
        DuplexEnd { rx: b, tx: a },
    )
}

// Like `TcpStream`, reads and writes also work through a shared
// reference, so one end can serve as a daemon's reader *and* writer at
// once: `service.serve(&end, &end)`.
impl Read for &DuplexEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut state = self.rx.state.lock().expect("pipe lock");
        loop {
            if !state.buf.is_empty() {
                let n = buf.len().min(state.buf.len());
                for slot in buf.iter_mut().take(n) {
                    *slot = state.buf.pop_front().expect("n bytes queued");
                }
                return Ok(n);
            }
            if state.closed {
                return Ok(0);
            }
            state = self.rx.ready.wait(state).expect("pipe wait");
        }
    }
}

impl Write for &DuplexEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut state = self.tx.state.lock().expect("pipe lock");
        if state.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer end dropped",
            ));
        }
        state.buf.extend(buf);
        self.tx.ready.notify_all();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for DuplexEnd {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self).read(buf)
    }
}

impl Write for DuplexEnd {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for DuplexEnd {
    fn drop(&mut self) {
        for pipe in [&self.tx, &self.rx] {
            pipe.state.lock().expect("pipe lock").closed = true;
            pipe.ready.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use jbc::hll::{dsl::*, HTy, Module};
    use jbc::ElemTy;
    use replay::record;

    use super::*;
    use crate::pool;

    /// A tiny echo service: one request in, one response out, with a bit
    /// of payload-dependent compute — enough for real verdicts, fast
    /// enough to submit dozens of sessions in a unit test.
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

    fn session(program: &Arc<jbc::Program>, session_id: u64, tamper: &[usize]) -> AuditJob {
        let rec = record(
            Arc::clone(program),
            machine::MachineConfig::sanity(),
            vm::VmConfig::default(),
            1000 + session_id,
            |vm| {
                for k in 0..3u64 {
                    let data = vec![(10 + k * 3) as u8; 64];
                    vm.machine_mut().deliver_packet(100_000 + k * 400_000, data);
                }
            },
        )
        .expect("record");
        let mut observed = rec.tx_ipds_cycles();
        for &t in tamper {
            observed[t] += observed[t] / 5;
        }
        AuditJob {
            session_id,
            log: rec.log,
            observed_ipds: observed,
        }
    }

    /// Submit owned copies of `jobs` against the built-in reference.
    fn submit_jobs(service: &AuditService, jobs: &[AuditJob]) -> BatchTicket {
        service
            .submit(jobs.to_vec(), None)
            .expect("the built-in reference is always resident")
    }

    fn mixed_jobs(program: &Arc<jbc::Program>, n: u64) -> Vec<AuditJob> {
        (0..n)
            .map(|id| {
                if id % 3 == 2 {
                    session(program, id, &[1])
                } else {
                    session(program, id, &[])
                }
            })
            .collect()
    }

    #[test]
    fn builder_rejects_zero_workers_and_high_water() {
        let reference = Reference::new(echo_program(1));
        assert_eq!(
            AuditService::builder(reference.clone())
                .workers(0)
                .build()
                .err(),
            Some(ConfigError::ZeroWorkers)
        );
        assert_eq!(
            AuditService::builder(reference.clone())
                .high_water(0)
                .build()
                .err(),
            Some(ConfigError::ZeroHighWater)
        );
        assert_eq!(
            AuditService::builder(reference)
                .battery(BatteryMode::Full)
                .build()
                .err(),
            Some(ConfigError::MissingBattery),
            "Full battery mode without a battery is a build error"
        );
    }

    #[test]
    fn warm_service_resubmission_matches_one_shot() {
        let program = echo_program(3);
        let reference = Reference::new(Arc::clone(&program));
        let jobs_a = mixed_jobs(&program, 5);
        let jobs_b: Vec<AuditJob> = mixed_jobs(&program, 8).split_off(5);

        let cfg = AuditConfig {
            workers: 2,
            ..AuditConfig::default()
        };
        let service = AuditService::builder(reference.clone())
            .config(cfg)
            .build()
            .expect("builds");
        let warm_a = submit_jobs(&service, &jobs_a)
            .wait()
            .expect("batch never fails ingest");
        let warm_b = submit_jobs(&service, &jobs_b)
            .wait()
            .expect("batch never fails ingest");
        assert_eq!(service.batches_submitted(), 2);
        assert_eq!(
            service.sessions_audited(),
            (jobs_a.len() + jobs_b.len()) as u64
        );
        service.shutdown();

        let cold_a = pool::audit_batch(&reference, &jobs_a, &cfg);
        let cold_b = pool::audit_batch(&reference, &jobs_b, &cfg);
        assert_eq!(warm_a, cold_a, "first warm batch == fresh one-shot");
        assert_eq!(warm_b, cold_b, "second warm batch == fresh one-shot");
    }

    #[test]
    fn dropping_a_ticket_cancels_and_leaves_the_service_usable() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 12);
        let service = AuditService::builder(Reference::new(Arc::clone(&program)))
            .workers(1)
            .build()
            .expect("builds");
        // Cancel immediately: most of the 12 sessions should be skipped
        // (scheduling-dependent, so only the upper bound is asserted).
        drop(submit_jobs(&service, &jobs));
        let report = submit_jobs(&service, &jobs[..3])
            .wait()
            .expect("post-cancel submission audits");
        assert_eq!(report.verdicts.len(), 3);
        assert!(
            service.sessions_audited() <= (jobs.len() + 3) as u64,
            "cancelled sessions are not audited twice"
        );
        service.shutdown();
    }

    #[test]
    fn shutdown_with_inflight_ticket_drains_it() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 6);
        let service = AuditService::builder(Reference::new(Arc::clone(&program)))
            .workers(2)
            .build()
            .expect("builds");
        let baseline = pool::audit_batch(
            &Reference::new(Arc::clone(&program)),
            &jobs,
            service.config(),
        );
        let ticket = submit_jobs(&service, &jobs);
        // Shut down with the whole batch in flight: graceful shutdown
        // drains the queue, so the ticket still completes in full.
        service.shutdown();
        let report = ticket.wait().expect("inflight batch drains");
        assert_eq!(report.verdicts.len(), jobs.len());
        assert_eq!(report.summary, baseline.summary);
    }

    #[test]
    fn stream_submission_over_reader_matches_batch() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 6);
        let bytes = crate::ingest::encode_batch(&jobs);
        let service = AuditService::builder(Reference::new(Arc::clone(&program)))
            .workers(2)
            .high_water(3)
            .build()
            .expect("builds");
        let batch = submit_jobs(&service, &jobs).wait().expect("batch");
        let source = Source::tdrb(io::Cursor::new(bytes)).expect("header ok");
        let stream = service
            .submit(source, None)
            .expect("built-in reference")
            .wait()
            .expect("stream audits");
        assert_eq!(stream.verdicts, batch.verdicts);
        assert_eq!(stream.summary, batch.summary);
        assert_eq!(batch.peak_resident, 0, "owned jobs are fed ungated");
        assert!(stream.peak_resident <= 3);
        service.shutdown();
    }

    #[test]
    fn install_battery_refuses_a_battery_a_tdr_only_service_never_scores() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 4);
        let clean: Vec<Vec<u64>> = jobs.iter().map(|j| j.observed_ipds.clone()).collect();
        let battery = DetectorBattery::trained(&clean);
        let json = battery.to_json();
        // A battery attached but TDR-only scoring: no verdict would ever
        // carry detector scores, so an install must be refused in-band.
        let service = AuditService::builder(
            Reference::new(Arc::clone(&program)).with_battery(battery.clone()),
        )
        .workers(2)
        .build()
        .expect("builds");
        let before = service.battery().expect("battery attached");
        let refused = service.install_battery(&json).expect_err("refused");
        assert!(refused.contains("battery"), "{refused}");
        assert!(Arc::ptr_eq(&before, &service.battery().expect("kept")));
        assert_eq!(service.metrics_snapshot().counter("retrain_generations"), 0);
        let report = submit_jobs(&service, &jobs).wait().expect("audits");
        assert!(report.verdicts.iter().all(|v| v.detector_scores.is_empty()));
        service.shutdown();

        // The same install on a service that scores with it is accepted:
        // it publishes generation 1, counted and traced.
        let service = AuditService::builder(Reference::new(program).with_battery(battery))
            .battery(BatteryMode::Full)
            .workers(1)
            .build()
            .expect("builds");
        let initial = service.battery().expect("battery attached");
        assert_eq!(service.install_battery(&json), Ok(1));
        let installed = service.battery().expect("battery attached");
        assert!(
            !Arc::ptr_eq(&initial, &installed),
            "an install publishes a new generation"
        );
        assert_eq!(service.metrics_snapshot().counter("retrain_generations"), 1);
        assert!(service
            .trace_events()
            .iter()
            .any(|e| e.kind == TraceKind::RetrainPublish && e.a == 1 && e.b == 0));
        service.shutdown();
    }

    #[test]
    fn serve_counts_only_the_frames_it_wrote() {
        /// A transport whose peer vanishes after `budget` bytes.
        struct Vanishing {
            budget: usize,
        }
        impl Write for Vanishing {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.budget == 0 {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"));
                }
                let n = buf.len().min(self.budget);
                self.budget -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 2);
        let good = crate::ingest::encode_batch(&jobs);
        let mut bad_header = good.clone();
        bad_header[0] ^= 0xff;
        let mut bad_last = good.clone();
        let n = bad_last.len();
        bad_last[n - 10] ^= 0xff;
        let service = AuditService::builder(Reference::new(program))
            .workers(1)
            .build()
            .expect("builds");
        // Each batch ends in one terminating frame: the header Error, the
        // Summary, or the Error after the verdicts before a bad session.
        for (tdrb, verdicts) in [(bad_header, 0u64), (good, 2), (bad_last, 1)] {
            let request = ControlFrame::SubmitBatch {
                batch_id: 1,
                tdrb,
                reference: None,
            }
            .encode();
            let mut full = Vec::new();
            service.serve(&request[..], &mut full).expect("clean");
            let mut frames = Vec::new();
            let mut src = &full[..];
            while let Some(frame) = ControlFrame::read_from(&mut src).expect("decodes") {
                frames.push(frame);
            }
            assert_eq!(frames.len() as u64, verdicts + 1);
            let last = frames.last().expect("terminating frame").encode().len();

            // The peer vanishes exactly at the terminating frame.
            let before = service.metrics_snapshot();
            let mut writer = Vanishing {
                budget: full.len() - last,
            };
            let got = service.serve(&request[..], &mut writer);
            assert!(matches!(got, Err(ControlError::Io(..))), "{got:?}");
            let after = service.metrics_snapshot();
            let delta = |name: &str| after.counter(name) - before.counter(name);
            assert_eq!(delta("frames_out"), verdicts, "frames written");
            assert_eq!(delta("frames_out_verdict"), verdicts);
            assert_eq!(delta("frames_out_summary"), 0);
            assert_eq!(delta("frames_out_error"), 0);
        }
        service.shutdown();
    }

    #[test]
    fn serve_flushes_verdicts_once_per_window() {
        /// Keeps the bytes and counts `flush` calls.
        #[derive(Default)]
        struct FlushCounter {
            bytes: Vec<u8>,
            flushes: usize,
        }
        impl Write for FlushCounter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.bytes.extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                self.flushes += 1;
                Ok(())
            }
        }
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 64);
        let service = AuditService::builder(Reference::new(Arc::clone(&program)))
            .workers(1)
            .build()
            .expect("builds");
        let request = ControlFrame::SubmitBatch {
            batch_id: 3,
            tdrb: crate::ingest::encode_batch(&jobs),
            reference: None,
        }
        .encode();
        let mut out = FlushCounter::default();
        let started = Instant::now();
        service.serve(&request[..], &mut out).expect("clean");
        let elapsed = started.elapsed();

        // The bytes are those of a flush per verdict: every verdict of the
        // one-shot audit in order, then the Summary as the last frame.
        let expected = pool::audit_batch(&Reference::new(program), &jobs, service.config());
        let mut src = &out.bytes[..];
        let mut last = None;
        while let Some(frame) = ControlFrame::read_from(&mut src).expect("decodes") {
            last = Some(frame);
        }
        let Some(ControlFrame::Summary { peak_resident, .. }) = last else {
            panic!("the last frame is the Summary, got {last:?}");
        };
        assert!(peak_resident <= service.config().high_water as u64);
        let mut want = Vec::new();
        for (index, verdict) in expected.verdicts.into_iter().enumerate() {
            ControlFrame::Verdict {
                batch_id: 3,
                index: index as u64,
                verdict,
            }
            .write_to(&mut want)
            .expect("encode");
        }
        ControlFrame::Summary {
            batch_id: 3,
            workers: 1,
            peak_resident,
            summary: expected.summary,
        }
        .write_to(&mut want)
        .expect("encode");
        assert!(
            out.bytes == want,
            "served bytes differ from the one-shot audit's"
        );

        // One flush per window, the Summary's included: a flush per
        // verdict would make 65.
        let windows = elapsed.as_nanos().div_ceil(VERDICT_WINDOW.as_nanos()) as usize;
        assert!(
            out.flushes < windows + 2,
            "{} flushes in {elapsed:?}",
            out.flushes
        );
        service.shutdown();
    }

    #[test]
    fn a_burst_that_completes_its_batch_is_not_held() {
        let t = Instant::now();
        assert_eq!(hold(t, t, true), None, "every declared verdict is in");
        assert_eq!(hold(t, t, false), Some(VERDICT_WINDOW));
        assert_eq!(
            hold(t, t + VERDICT_WINDOW / 4, false),
            Some(VERDICT_WINDOW * 3 / 4)
        );
        assert_eq!(hold(t, t + VERDICT_WINDOW / 4, true), None);
        assert_eq!(hold(t, t + VERDICT_WINDOW, false), None, "window over");
    }

    #[test]
    fn a_peer_vanishing_inside_a_window_leaks_nothing() {
        /// A peer that is gone before the first byte.
        struct Gone;
        impl Write for Gone {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer gone"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 256);
        let service = AuditService::builder(Reference::new(Arc::clone(&program)))
            .workers(1)
            .build()
            .expect("builds");
        let submit = |batch_id, jobs: &[AuditJob]| {
            ControlFrame::SubmitBatch {
                batch_id,
                tdrb: crate::ingest::encode_batch(jobs),
                reference: None,
            }
            .encode()
        };
        // The verdicts sit in the BufWriter until the window's flush, which
        // is where the dead peer shows.
        let got = service.serve(&submit(1, &jobs)[..], io::BufWriter::new(Gone));
        assert!(matches!(got, Err(ControlError::Io(..))), "{got:?}");

        // The dropped ticket cancels the rest: the feeder stops, each
        // session it handed over is audited or skipped, and the feeder and
        // every work item give back their pin on the built-in entry. A
        // leaked residency slot would wedge the feeder, so its pin too.
        let deadline = Instant::now() + Duration::from_secs(60);
        let snap = loop {
            let snap = service.metrics_snapshot();
            let handled = snap.counter("sessions_audited") + snap.counter("sessions_cancelled");
            if Arc::strong_count(&service.shared.builtin) == 1
                && handled == snap.counter("sessions_submitted")
            {
                break snap;
            }
            assert!(Instant::now() < deadline, "a pin or a slot leaked");
            thread::sleep(Duration::from_millis(1));
        };
        assert!(
            snap.counter("sessions_audited") < jobs.len() as u64,
            "the batch was cut short"
        );
        assert_eq!(snap.gauge("queue_depth"), 0);
        assert_eq!(snap.gauge("in_flight_jobs"), 0);

        // The next batch on the same service audits in full, identical to
        // a fresh one-shot audit.
        let mut out = Vec::new();
        service
            .serve(&submit(2, &jobs[..6])[..], &mut out)
            .expect("clean");
        let mut verdicts = Vec::new();
        let mut summary = None;
        let mut src = &out[..];
        while let Some(frame) = ControlFrame::read_from(&mut src).expect("decodes") {
            match frame {
                ControlFrame::Verdict { verdict, .. } => verdicts.push(verdict),
                ControlFrame::Summary { summary: s, .. } => summary = Some(s),
                other => panic!("unexpected {other:?}"),
            }
        }
        let expected = pool::audit_batch(&Reference::new(program), &jobs[..6], service.config());
        assert_eq!(verdicts, expected.verdicts);
        assert_eq!(summary, Some(expected.summary));
        service.shutdown();
    }

    #[test]
    fn duplex_moves_bytes_both_ways_and_eofs_on_drop() {
        let (mut a, mut b) = duplex();
        a.write_all(b"ping").expect("write");
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong").expect("write");
        a.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"pong");
        drop(b);
        assert_eq!(a.read(&mut buf).expect("eof"), 0, "peer drop is EOF");
        assert!(a.write_all(b"x").is_err(), "peer drop breaks the pipe");
    }

    #[test]
    fn serve_rejects_response_frames_as_requests() {
        let program = echo_program(1);
        let service = AuditService::builder(Reference::new(program))
            .workers(1)
            .build()
            .expect("builds");
        let request = ControlFrame::ShutdownAck.encode();
        let mut responses = Vec::new();
        let got = service.serve(&request[..], &mut responses);
        assert_eq!(got, Err(ControlError::UnexpectedFrame("ShutdownAck")));
        service.shutdown();
    }

    #[test]
    fn serve_answers_shutdown_and_clean_eof() {
        let program = echo_program(1);
        let service = AuditService::builder(Reference::new(program))
            .workers(1)
            .build()
            .expect("builds");
        // Clean EOF: no frames at all.
        let mut responses = Vec::new();
        service.serve(&[][..], &mut responses).expect("clean eof");
        assert!(responses.is_empty());
        // Shutdown: one ack, then the loop returns.
        let request = ControlFrame::Shutdown.encode();
        let mut responses = Vec::new();
        service
            .serve(&request[..], &mut responses)
            .expect("shutdown handled");
        let ack = ControlFrame::read_from(&mut &responses[..])
            .expect("decodes")
            .expect("one frame");
        assert_eq!(ack, ControlFrame::ShutdownAck);
        service.shutdown();
    }

    #[test]
    fn serve_answers_stats_requests_with_a_live_snapshot() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 3);
        let tdrb = crate::ingest::encode_batch(&jobs);
        let service = AuditService::builder(Reference::new(program))
            .workers(2)
            .build()
            .expect("builds");
        let mut requests = Vec::new();
        ControlFrame::StatsRequest
            .write_to(&mut requests)
            .expect("encode");
        ControlFrame::SubmitBatch {
            batch_id: 1,
            tdrb,
            reference: None,
        }
        .write_to(&mut requests)
        .expect("encode");
        ControlFrame::StatsRequest
            .write_to(&mut requests)
            .expect("encode");
        ControlFrame::Shutdown
            .write_to(&mut requests)
            .expect("encode");
        let mut responses = Vec::new();
        service
            .serve(&requests[..], &mut responses)
            .expect("protocol stays clean");

        let mut frames = Vec::new();
        let mut src = &responses[..];
        while let Some(frame) = ControlFrame::read_from(&mut src).expect("decodes") {
            frames.push(frame);
        }
        // First frame: a snapshot from before any submission.
        let ControlFrame::Stats { snapshot: first } = &frames[0] else {
            panic!("first response is Stats, got {frames:?}");
        };
        assert_eq!(first.counter("sessions_audited"), 0);
        assert_eq!(first.counter("frames_in_stats_request"), 1);
        // Last two frames: the post-batch snapshot (serve_batch drains the
        // ticket before the next request, so every session is audited by
        // the time the second StatsRequest is read) and the shutdown ack.
        let ControlFrame::Stats { snapshot: second } = &frames[frames.len() - 2] else {
            panic!("penultimate response is Stats, got {frames:?}");
        };
        assert_eq!(second.counter("sessions_audited"), 3);
        assert_eq!(second.counter("sessions_submitted"), 3);
        assert_eq!(second.counter("batches_submitted"), 1);
        assert_eq!(second.counter("batches_completed"), 1);
        assert_eq!(second.counter("frames_in_submit_batch"), 1);
        assert_eq!(second.counter("frames_out_verdict"), 3);
        assert_eq!(second.counter("frames_out_summary"), 1);
        assert_eq!(second.gauge("queue_depth"), 0);
        assert_eq!(second.gauge("in_flight_jobs"), 0);
        assert!(second.float_gauge("uptime_seconds") >= 0.0);
        assert_eq!(frames[frames.len() - 1], ControlFrame::ShutdownAck);

        // The service-side accessors agree with the exported snapshot.
        assert_eq!(service.sessions_audited(), 3);
        assert_eq!(service.metrics_snapshot().counter("frames_out_stats"), 2);
        service.shutdown();
    }

    #[test]
    fn metrics_ground_truth_and_trace_for_a_batch_submission() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 4);
        let service = AuditService::builder(Reference::new(program))
            .workers(2)
            .build()
            .expect("builds");
        let report = submit_jobs(&service, &jobs).wait().expect("audits");
        assert_eq!(report.verdicts.len(), 4);

        let snap = service.metrics_snapshot();
        assert_eq!(snap.counter("sessions_submitted"), 4);
        assert_eq!(snap.counter("sessions_audited"), 4);
        assert_eq!(snap.counter("batches_submitted"), 1);
        assert_eq!(snap.counter("batches_completed"), 1);
        assert_eq!(snap.counter("batch_errors"), 0);
        assert_eq!(snap.gauge("queue_depth"), 0, "all jobs dequeued");
        assert_eq!(snap.gauge("in_flight_jobs"), 0, "all audits done");
        assert!(snap.counter("replayed_cycles") > 0, "replay cost recorded");
        assert!(snap.counter("worker_busy_nanos") > 0);
        let latency = &snap.histograms["verdict_latency_us"];
        assert_eq!(latency.total, 4, "one latency observation per session");
        let batch_sessions = &snap.histograms["batch_sessions"];
        assert_eq!(batch_sessions.total, 1);

        // The trace ring saw the submission lifecycle, stamped with the
        // 1-based batch sequence number.
        let events = service.trace_events();
        assert!(events
            .iter()
            .any(|e| e.kind == TraceKind::BatchSubmit && e.a == 1 && e.b == 4));
        assert!(events
            .iter()
            .any(|e| e.kind == TraceKind::BatchComplete && e.a == 1 && e.b == 4));
        assert!(
            events.windows(2).all(|w| w[0].seq < w[1].seq),
            "trace seq is strictly increasing"
        );
        service.shutdown();
    }

    #[test]
    fn serve_classifies_read_deadline_errors_as_idle_timeout() {
        /// A transport whose read stalls forever — as seen through a
        /// socket read timeout: `WouldBlock`.
        struct Stalled;
        impl Read for Stalled {
            fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "read timed out"))
            }
        }
        let program = echo_program(1);
        let service = AuditService::builder(Reference::new(program))
            .workers(1)
            .build()
            .expect("builds");
        let mut responses = Vec::new();
        let got = service.serve(Stalled, &mut responses);
        assert_eq!(got, Err(ControlError::IdleTimeout));
        let snap = service.metrics_snapshot();
        assert_eq!(snap.counter("control_errors"), 1);
        assert_eq!(snap.counter("control_err_idle_timeout"), 1);
        service.shutdown();
    }

    #[test]
    fn serve_reports_bad_batches_in_band_and_stays_up() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 4);
        let mut bad = crate::ingest::encode_batch(&jobs);
        let n = bad.len();
        bad[n - 10] ^= 0xff; // corrupt the last session's log frame
        let good = crate::ingest::encode_batch(&jobs);

        let service = AuditService::builder(Reference::new(Arc::clone(&program)))
            .workers(2)
            .build()
            .expect("builds");
        let mut requests = Vec::new();
        ControlFrame::SubmitBatch {
            batch_id: 1,
            tdrb: bad,
            reference: None,
        }
        .write_to(&mut requests)
        .expect("encode");
        ControlFrame::SubmitBatch {
            batch_id: 2,
            tdrb: good,
            reference: None,
        }
        .write_to(&mut requests)
        .expect("encode");
        let mut responses = Vec::new();
        service
            .serve(&requests[..], &mut responses)
            .expect("protocol stays clean");

        let mut frames = Vec::new();
        let mut src = &responses[..];
        while let Some(frame) = ControlFrame::read_from(&mut src).expect("decodes") {
            frames.push(frame);
        }
        // Batch 1: three clean verdicts stream out, then the in-band error
        // for the corrupted fourth session. Batch 2: four verdicts and a
        // summary — the daemon survived the bad batch.
        assert!(frames
            .iter()
            .any(|f| matches!(f, ControlFrame::Error { batch_id: 1, .. })));
        let summaries: Vec<_> = frames
            .iter()
            .filter(|f| matches!(f, ControlFrame::Summary { batch_id: 2, .. }))
            .collect();
        assert_eq!(summaries.len(), 1);
        let verdicts_2 = frames
            .iter()
            .filter(|f| matches!(f, ControlFrame::Verdict { batch_id: 2, .. }))
            .count();
        assert_eq!(verdicts_2, jobs.len());
        service.shutdown();
    }

    /// A bare work item for queue-ordering tests: a real recorded job (the
    /// queue moves items, it never audits them here), no gate, no battery.
    fn queue_item(
        job: &AuditJob,
        tenant: u64,
        index: usize,
        sink: &mpsc::Sender<(usize, AuditVerdict)>,
    ) -> WorkItem {
        let reference = Reference::new(echo_program(1));
        WorkItem {
            index,
            job: Box::new(job.clone()),
            reference: Arc::new(PinnedReference::unregistered(reference)),
            battery: None,
            cancelled: Arc::new(AtomicBool::new(false)),
            gate: None,
            sink: Sink {
                tx: sink.clone(),
                _wake: None,
            },
            tenant,
            tenant_depth: None,
        }
    }

    #[test]
    fn work_queue_round_robins_across_tenants_fifo_within() {
        let program = echo_program(3);
        let job = session(&program, 0, &[]);
        let (sink, _rx) = mpsc::channel();
        let queue = WorkQueue::new();
        // Tenant 1 floods three items before tenants 2 and 3 enqueue one
        // each; DRR must interleave, not serve tenant 1's backlog first.
        for (tenant, index) in [(1, 0), (1, 1), (1, 2), (2, 3), (3, 4)] {
            assert!(queue.push(queue_item(&job, tenant, index, &sink)).is_ok());
        }
        let mut order = Vec::new();
        while let Popped::Item(item) = queue.try_pop() {
            order.push((item.tenant, item.index));
        }
        assert_eq!(
            order,
            vec![(1, 0), (2, 3), (3, 4), (1, 1), (1, 2)],
            "one job per tenant per round, FIFO within a tenant"
        );
    }

    #[test]
    fn work_queue_drains_after_close_then_reports_closed() {
        let program = echo_program(3);
        let job = session(&program, 0, &[]);
        let (sink, _rx) = mpsc::channel();
        let queue = WorkQueue::new();
        assert!(queue.push(queue_item(&job, 1, 0, &sink)).is_ok());
        assert!(queue.push(queue_item(&job, 2, 1, &sink)).is_ok());
        queue.close();
        assert!(
            queue.push(queue_item(&job, 3, 2, &sink)).is_err(),
            "closed queue rejects new work"
        );
        assert!(matches!(queue.try_pop(), Popped::Item(_)));
        assert!(queue.pop_wait().is_some(), "queued items drain after close");
        assert!(matches!(queue.try_pop(), Popped::Closed));
        assert!(queue.pop_wait().is_none());
    }

    #[test]
    fn serve_enforces_tenant_quota_in_band_and_stays_up() {
        let program = echo_program(3);
        let jobs = mixed_jobs(&program, 3);
        let oversized = crate::ingest::encode_batch(&jobs); // declares 3
        let small = crate::ingest::encode_batch(&jobs[..2]); // declares 2
                                                             // Declares 3 too, behind a header ingest rejects (version 9).
        let mut malformed = oversized.clone();
        malformed[4] = 9;
        let service = AuditService::builder(Reference::new(Arc::clone(&program)))
            .workers(2)
            .build()
            .expect("builds");
        let quota = TenantQuota {
            max_sessions: 2,
            max_batches: 3,
        };
        let mut requests = Vec::new();
        for (batch_id, tdrb) in [
            (1, oversized.clone()),
            (2, small.clone()),
            (3, small.clone()),
            (4, malformed),
            (5, small.clone()),
        ] {
            ControlFrame::SubmitBatch {
                batch_id,
                tdrb,
                reference: None,
            }
            .write_to(&mut requests)
            .expect("encode");
        }
        ControlFrame::Shutdown
            .write_to(&mut requests)
            .expect("encode");
        let mut responses = Vec::new();
        service
            .serve_as_tenant(&requests[..], &mut responses, 7, Some(quota))
            .expect("quota refusals are in-band, not protocol errors");

        let mut frames = Vec::new();
        let mut src = &responses[..];
        while let Some(frame) = ControlFrame::read_from(&mut src).expect("decodes") {
            frames.push(frame);
        }
        // Batch 1 declares 3 > max_sessions: refused before any decode.
        assert_eq!(
            frames[0],
            ControlFrame::Busy {
                batch_id: 1,
                scope: BusyScope::InFlightSessions,
                active: 3,
                limit: 2,
            }
        );
        // Batches 2 and 3 fit and audit in full.
        for id in [2u64, 3] {
            assert_eq!(
                frames
                    .iter()
                    .filter(
                        |f| matches!(f, ControlFrame::Verdict { batch_id, .. } if *batch_id == id)
                    )
                    .count(),
                2
            );
            assert!(frames
                .iter()
                .any(|f| matches!(f, ControlFrame::Summary { batch_id, .. } if *batch_id == id)));
        }
        // Batch 4's header does not parse, so its declared count is not
        // checked: the decode error goes back in-band, not masked by a
        // Busy.
        assert!(frames
            .iter()
            .any(|f| matches!(f, ControlFrame::Error { batch_id: 4, .. })));
        // Batch 5 exceeds the lifetime batch budget; refusals consumed
        // none of it (batch 1's rejection did not count).
        assert!(frames.contains(&ControlFrame::Busy {
            batch_id: 5,
            scope: BusyScope::QueuedBatches,
            active: 3,
            limit: 3,
        }));
        assert_eq!(*frames.last().expect("ack"), ControlFrame::ShutdownAck);

        // Per-tenant and global governance counters match ground truth.
        let snap = service.metrics_snapshot();
        assert_eq!(snap.counter("quota_rejections"), 2);
        assert_eq!(snap.counter("frames_out_busy"), 2);
        assert_eq!(snap.counter("tenant_7_sessions"), 4);
        assert_eq!(snap.counter("tenant_7_rejected"), 2);
        assert_eq!(snap.gauge("tenant_7_queue_depth"), 0);
        assert!(service
            .trace_events()
            .iter()
            .any(|e| e.kind == TraceKind::QuotaReject && e.a == 7 && e.b == 1));
        service.shutdown();
    }
}
