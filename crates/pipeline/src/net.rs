//! TCP front end for the audit daemon: many connections, one warm pool.
//!
//! [`AuditService::serve`] speaks the TDRC control plane over any
//! `Read + Write` pair but handles exactly one peer. [`serve_tcp`] makes
//! the service deployable: it takes a bound [`TcpListener`], accepts
//! connections on a dedicated thread, and runs one `serve` loop per
//! connection on its own thread — every connection multiplexes its
//! submissions onto the **same** warm worker pool and sees the same
//! battery generation, which is the whole point of a fleet daemon (one
//! spin-up, many log sources).
//!
//! The accept loop, the connection threads and the stop/wake/join
//! shutdown are one front end that the [`crate::coord`] coordinator holds
//! too, with its router as the per-connection handler. Both keep the same
//! connection ledger (`conn_accepted`, `conn_active`, `conn_errors`,
//! `conn_reaped`); the daemon's own policy — connection-cap shedding,
//! tenant quotas, the idle deadline, trace events and byte counting —
//! lives in its handler.
//!
//! ## Connection lifecycle (normative rules in `docs/FORMATS.md` §5.4)
//!
//! * Each connection carries one independent TDRC request/response
//!   stream; response frames of different connections are never
//!   interleaved.
//! * [`ControlFrame::Shutdown`] is
//!   **connection** shutdown: the daemon acks and closes that connection.
//!   The daemon itself stops only via [`TcpDaemon::shutdown`] (an
//!   operator action), which stops accepting, waits for every in-flight
//!   connection to finish — graceful drain — and hands the still-warm
//!   [`AuditService`] back.
//! * A peer that vanishes mid-frame, writes garbage, or goes away while
//!   verdicts are being written ends **its own** connection with a typed
//!   [`ControlError`] (counted by
//!   [`TcpDaemon::connection_errors`]) and never takes the daemon down.
//!   Writes to a dead peer surface as `io::Error` (`EPIPE`) rather than a
//!   fatal `SIGPIPE`, because the Rust runtime ignores `SIGPIPE` at
//!   startup; the serve loop maps them into `ControlError::Io` like any
//!   other transport failure.
//!
//! ## Admission control (normative rules in `docs/FORMATS.md` §5.6)
//!
//! With [`DaemonOptions::max_conns`] set, a connection arriving while
//! `max_conns` are already active is **shed**: the daemon answers with a
//! single connection-scoped
//! [`ControlFrame::Busy`] frame and closes —
//! no serve thread, no unbounded thread growth. Shed connections are
//! counted by `conn_shed` (reported as [`DaemonReport::connections_shed`])
//! and are **neither** accepted **nor** errored, so
//! `accepted + shed` is exactly the number of TCP connects the daemon
//! answered. With [`DaemonOptions::tenant_quota`] set, each connection's
//! serve loop enforces the quota in-band via
//! [`AuditService::serve_as_tenant`] — the connection id is the tenant id.
//!
//! The torture suite (`tests/protocol_torture.rs`,
//! `tests/integration_daemon_tcp.rs`, `tests/fairness_torture.rs`) pins
//! all of this: corrupt frames, slow-loris writers, mid-frame
//! disconnects, concurrent clients, and flooding tenants all leave the
//! daemon serving, with verdict bytes identical to the in-memory duplex
//! path and to in-process submission.

use std::io::{self, BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::control::{BusyScope, ControlError, ControlFrame};
use crate::obs::{
    Counter, CountingRead, CountingWrite, Gauge, MetricsRegistry, MetricsSnapshot, TraceKind,
};
use crate::service::{AuditService, TenantQuota};

/// The connection ledger every TCP front end keeps, under the same names
/// on a daemon and a coordinator so fleet tooling reads both alike:
/// `conn_accepted` (its count is the 1-based connection id),
/// `conn_active`, `conn_errors` and `conn_reaped` (connection threads
/// joined).
#[derive(Debug, Clone)]
pub(crate) struct ConnMetrics {
    pub(crate) accepted: Arc<Counter>,
    pub(crate) active: Arc<Gauge>,
    pub(crate) errors: Arc<Counter>,
    pub(crate) reaped: Arc<Counter>,
}

impl ConnMetrics {
    pub(crate) fn register(registry: &MetricsRegistry) -> Self {
        ConnMetrics {
            accepted: registry.counter("conn_accepted"),
            active: registry.gauge("conn_active"),
            errors: registry.counter("conn_errors"),
            reaped: registry.counter("conn_reaped"),
        }
    }
}

/// What a [`FrontEnd`] does with the connections it accepts: the daemon
/// serves the control plane from its warm service, the coordinator
/// routes to its backends.
pub(crate) trait Handler: Send + Sync + 'static {
    /// Admission, before a connect counts as accepted: `false` sheds it,
    /// after the handler answered it. Admits every connect by default.
    fn admit(&self, _stream: &TcpStream) -> bool {
        true
    }

    /// Serve connection `conn_id` until it ends. An `Err` counts in
    /// `conn_errors`.
    fn serve(&self, stream: &TcpStream, conn_id: u64) -> Result<(), ControlError>;
}

/// One TCP front end, held by both [`TcpDaemon`] and
/// [`crate::coord::Coordinator`]: an accept thread, one thread per
/// accepted connection, and the stop/wake/join lifecycle. Dropping it
/// stops accepting and joins every connection thread.
#[derive(Debug)]
pub(crate) struct FrontEnd {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

/// What a front end's owner, accept thread and connection threads share:
/// the stop flag, the connection metrics, and the connection-thread
/// ledger — threads still owed a join. Ended ones are reaped on each
/// accept **and** as each connection exits, so an idle front end that
/// stops receiving connects does not hold every handle it ever served
/// until the next accept; the remainder joins at shutdown. Every join
/// increments `conn_reaped`, so after a drain the ledger balances:
/// `conn_reaped` equals the connection threads ever spawned.
#[derive(Debug)]
struct Shared {
    stop: AtomicBool,
    metrics: ConnMetrics,
    threads: Mutex<Threads>,
}

/// The connection threads owed a join. A thread records its exit here,
/// under the lock, and joins the threads that recorded theirs earlier, so
/// of threads that end together at most the last to record stays
/// unreaped (a thread cannot join itself). A thread's own handle may only
/// arrive after it recorded its exit; the next reaper takes it then.
#[derive(Debug, Default)]
struct Threads {
    /// Handles not yet joined, by connection id.
    handles: Vec<(u64, JoinHandle<()>)>,
    /// Connections whose threads recorded their exit and are not joined.
    exited: Vec<u64>,
}

impl Threads {
    /// Take the handles of the threads that recorded their exit, or that
    /// ended without recording it (a handler that panicked).
    fn take_ended(&mut self) -> Vec<JoinHandle<()>> {
        let exited = &mut self.exited;
        let (ended, live): (Vec<_>, Vec<_>) = self
            .handles
            .drain(..)
            .partition(|(id, handle)| exited.contains(id) || handle.is_finished());
        self.handles = live;
        exited.retain(|id| !ended.iter().any(|(e, _)| e == id));
        ended.into_iter().map(|(_, handle)| handle).collect()
    }
}

impl FrontEnd {
    /// Accept connections on `listener` and serve each on its own thread
    /// with `handler`. Threads are named `{name}-accept` and
    /// `{name}-conn-{id}`.
    pub(crate) fn start<H: Handler>(
        listener: TcpListener,
        name: &'static str,
        metrics: ConnMetrics,
        handler: Arc<H>,
    ) -> io::Result<FrontEnd> {
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            metrics,
            threads: Mutex::default(),
        });
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(listener, name, &shared, &handler))?
        };
        Ok(FrontEnd {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the front end is accepting on (resolves `:0` binds).
    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for FrontEnd {
    fn drop(&mut self) {
        let Some(accept) = self.accept_thread.take() else {
            return;
        };
        self.shared.stop.store(true, Ordering::SeqCst);
        wake_accept(self.addr);
        let _ = accept.join();
        let threads = std::mem::take(&mut *self.shared.threads.lock().expect("threads lock"));
        self.shared
            .join(threads.handles.into_iter().map(|(_, handle)| handle));
    }
}

fn accept_loop<H: Handler>(
    listener: TcpListener,
    name: &str,
    shared: &Arc<Shared>,
    handler: &Arc<H>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Transient accept failure (e.g. fd exhaustion): the
                // front end must outlive it. Back off briefly and retry.
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
                continue;
            }
        };
        if shared.stop.load(Ordering::SeqCst) {
            // The wake-up connection from shutdown (or a client racing
            // it). Either way the front end is closing: drop it unanswered.
            return;
        }
        if !handler.admit(&stream) {
            continue;
        }
        let conn_id = shared.metrics.accepted.inc();
        shared.metrics.active.inc();
        shared.reap(None);
        let spawned = {
            let (shared, handler) = (Arc::clone(shared), Arc::clone(handler));
            std::thread::Builder::new()
                .name(format!("{name}-conn-{conn_id}"))
                .spawn(move || serve_connection(&shared, &*handler, stream, conn_id))
        };
        match spawned {
            Ok(handle) => {
                let mut threads = shared.threads.lock().expect("threads lock");
                threads.handles.push((conn_id, handle));
            }
            Err(_) => {
                // Could not spawn a thread: count it against the error
                // tally and keep accepting — refusing one client is
                // recoverable, dying is not.
                shared.metrics.active.dec();
                shared.metrics.errors.inc();
            }
        }
    }
}

/// One connection's lifetime: serve until clean EOF / `Shutdown`, or a
/// typed protocol/transport error (counted, never fatal to the front end).
fn serve_connection<H: Handler>(shared: &Shared, handler: &H, stream: TcpStream, conn_id: u64) {
    // Both handlers gather frames in a BufWriter and flush once per burst
    // or reply. Disable Nagle so each flush leaves as one send at once
    // instead of waiting on the peer's ACK.
    let _ = stream.set_nodelay(true);
    if handler.serve(&stream, conn_id).is_err() {
        shared.metrics.errors.inc();
    }
    shared.metrics.active.dec();
    let _ = stream.shutdown(Shutdown::Both);
    // Reap on the way out, not only on the next accept: an idle front end
    // (or a coordinator backend between batches) may never see another
    // connect, and without this every handle it ever served would sit
    // unjoined until shutdown. This thread records its exit and is left
    // for the next reaper.
    shared.reap(Some(conn_id));
}

impl Shared {
    /// Join the connection threads that ended, after recording the exit
    /// of connection `exiting`'s thread, the caller's, if it is one.
    fn reap(&self, exiting: Option<u64>) {
        let mut threads = self.threads.lock().expect("threads lock");
        let ended = threads.take_ended();
        threads.exited.extend(exiting);
        drop(threads);
        self.join(ended);
    }

    fn join(&self, threads: impl IntoIterator<Item = JoinHandle<()>>) {
        for thread in threads {
            let _ = thread.join();
            self.metrics.reaped.inc();
        }
    }
}

/// Wake an accept loop blocked in `accept()`, which has no timeout, with
/// a throwaway connection to its listener at `addr`. A wildcard bind
/// (0.0.0.0 / ::) is not connectable everywhere, so target loopback on
/// the bound port in that case. If connecting fails (listener already
/// dead), the accept loop has already returned or will error out and
/// observe its stop flag.
fn wake_accept(addr: SocketAddr) {
    let target = if addr.ip().is_unspecified() {
        let loopback: IpAddr = if addr.is_ipv4() {
            Ipv4Addr::LOCALHOST.into()
        } else {
            Ipv6Addr::LOCALHOST.into()
        };
        SocketAddr::new(loopback, addr.port())
    } else {
        addr
    };
    let _ = TcpStream::connect(target);
}

/// Front-end policy knobs for [`serve_tcp_with`].
#[derive(Debug, Clone, Default)]
pub struct DaemonOptions {
    /// Per-connection read deadline. A peer that goes silent for this
    /// long mid-stream has its connection closed with a typed
    /// [`ControlError::IdleTimeout`] (counted by `conn_idle_timeout`),
    /// freeing the connection thread — the slow-loris defense. `None`
    /// (the default, and [`serve_tcp`]'s behavior) keeps the historical
    /// semantics: a connection may idle forever.
    pub idle_timeout: Option<Duration>,
    /// Connection cap. While this many connections are active, further
    /// arrivals are shed with one connection-scoped
    /// [`ControlFrame::Busy`] frame and a
    /// close (counted by `conn_shed`, never an error). `None` (the
    /// default) accepts without bound.
    pub max_conns: Option<usize>,
    /// Per-connection submission quota, enforced in-band by each
    /// connection's serve loop (see
    /// [`AuditService::serve_as_tenant`]). `None` (the default) leaves
    /// submissions unbounded.
    pub tenant_quota: Option<TenantQuota>,
}

/// What a daemon hands back at [`TcpDaemon::shutdown`]: the still-warm
/// service plus final tallies. The tallies are views over the service's
/// metric set, captured after every connection thread joined — they
/// cannot disagree with a `Stats` snapshot taken at the same point.
#[derive(Debug)]
pub struct DaemonReport {
    /// The service the daemon was serving, still warm — reusable
    /// directly or via another [`serve_tcp`] call.
    pub service: AuditService,
    /// Connections accepted over the daemon's lifetime (the
    /// `conn_accepted` counter).
    pub connections_accepted: u64,
    /// Connections that ended with a protocol or transport error (the
    /// `conn_errors` counter).
    pub connection_errors: u64,
    /// Connections shed at the cap with a `Busy` frame (the `conn_shed`
    /// counter) — distinct from both accepted and errored connections:
    /// `accepted + shed` is every TCP connect the daemon answered.
    pub connections_shed: u64,
    /// Every service metric at shutdown, name-ordered (what a
    /// [`ControlFrame::Stats`] response would
    /// have carried at that instant).
    pub snapshot: MetricsSnapshot,
}

/// A running TCP audit daemon: an accept loop plus one serve thread per
/// connection, all sharing one warm [`AuditService`].
///
/// Built by [`serve_tcp`]. Dropping the daemon performs the same graceful
/// shutdown as [`shutdown`](Self::shutdown) (minus returning the
/// service).
#[derive(Debug)]
pub struct TcpDaemon {
    front: FrontEnd,
    /// Connection tallies live in the service's metric set, not here —
    /// one source of truth for the live accessors, [`DaemonReport`], and
    /// the TDRC `Stats` frame.
    service: Arc<AuditService>,
}

/// [`serve_tcp`] with explicit [`DaemonOptions`] (idle timeout etc.).
pub fn serve_tcp_with(
    service: AuditService,
    listener: TcpListener,
    options: DaemonOptions,
) -> io::Result<TcpDaemon> {
    let service = Arc::new(service);
    let daemon = Arc::new(Daemon {
        service: Arc::clone(&service),
        options,
    });
    let metrics = service.metrics().conn.clone();
    let front = FrontEnd::start(listener, "tdrd", metrics, daemon)?;
    Ok(TcpDaemon { front, service })
}

/// Serve the TDRC control plane over TCP: accept connections on
/// `listener` (typically bound to an explicit port, or `127.0.0.1:0` for
/// an ephemeral one — read it back via [`TcpDaemon::local_addr`]) and run
/// one [`AuditService::serve`] loop per connection, connection-per-thread.
///
/// The returned handle owns the service; [`TcpDaemon::shutdown`] stops
/// accepting, drains in-flight connections, and returns the service still
/// warm. Per-connection failures — protocol garbage, a client vanishing
/// mid-frame, a broken pipe while writing verdicts — end that connection
/// only (see [`TcpDaemon::connection_errors`]).
pub fn serve_tcp(service: AuditService, listener: TcpListener) -> io::Result<TcpDaemon> {
    serve_tcp_with(service, listener, DaemonOptions::default())
}

/// The daemon's per-connection policy: connection-cap shedding, the idle
/// deadline, byte counting, tenant quotas and connection trace events.
struct Daemon {
    service: Arc<AuditService>,
    options: DaemonOptions,
}

impl Handler for Daemon {
    /// Shed a connection arriving while `max_conns` are active: answer it
    /// with a single connection-scoped `Busy` frame (`batch_id` 0 — no
    /// request was read) before the front end closes it. Best-effort
    /// write: a peer that already vanished is shed all the same.
    fn admit(&self, stream: &TcpStream) -> bool {
        let metrics = self.service.metrics();
        let active = metrics.conn.active.get();
        let Some(cap) = self.options.max_conns.filter(|&cap| active as usize >= cap) else {
            return true;
        };
        let mut writer = CountingWrite::new(BufWriter::new(stream), Arc::clone(&metrics.bytes_out));
        let wrote = ControlFrame::Busy {
            batch_id: 0,
            scope: BusyScope::Connections,
            active,
            limit: cap as u64,
        }
        .write_to(&mut writer)
        .and_then(|()| writer.flush().map_err(ControlError::from_io));
        if wrote.is_ok() {
            metrics.frames_out.inc();
            metrics.frames_out_busy.inc();
        }
        metrics.conn_shed.inc();
        metrics.trace(TraceKind::ConnShed, active, cap as u64);
        false
    }

    fn serve(&self, stream: &TcpStream, conn_id: u64) -> Result<(), ControlError> {
        let metrics = self.service.metrics();
        metrics.trace(TraceKind::ConnAccept, conn_id, 0);
        if let Some(deadline) = self.options.idle_timeout {
            // A read past the deadline fails with WouldBlock/TimedOut,
            // which the serve loop classifies as `ControlError::IdleTimeout`.
            let _ = stream.set_read_timeout(Some(deadline));
        }
        let reader = CountingRead::new(stream, Arc::clone(&metrics.bytes_in));
        let writer = CountingWrite::new(BufWriter::new(stream), Arc::clone(&metrics.bytes_out));
        // The connection id is the tenant id: submissions from this peer
        // are round-robin scheduled against other connections' work and
        // metered under `tenant_{conn_id}_*`.
        let outcome =
            self.service
                .serve_as_tenant(reader, writer, conn_id, self.options.tenant_quota);
        match &outcome {
            Ok(()) => metrics.trace(TraceKind::ConnClose, conn_id, 0),
            Err(ControlError::IdleTimeout) => {
                metrics.conn_idle_timeout.inc();
                metrics.trace(TraceKind::ConnIdleTimeout, conn_id, 0);
            }
            Err(_) => metrics.trace(TraceKind::ConnError, conn_id, 0),
        }
        outcome
    }
}

impl TcpDaemon {
    /// The address the daemon is accepting on (resolves `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.front.local_addr()
    }

    /// The service the connections multiplex onto.
    pub fn service(&self) -> &AuditService {
        &self.service
    }

    /// Connections accepted over the daemon's lifetime (a live view over
    /// the `conn_accepted` metric).
    pub fn connections_accepted(&self) -> u64 {
        self.service.metrics().conn.accepted.get()
    }

    /// Connections that ended with a protocol or transport error (a
    /// corrupt frame, a peer vanishing mid-frame, a broken pipe, an idle
    /// timeout). Clean EOFs and acknowledged `Shutdown`s are not errors.
    /// A live view over the `conn_errors` metric.
    pub fn connection_errors(&self) -> u64 {
        self.service.metrics().conn.errors.get()
    }

    /// Connections shed at the [`DaemonOptions::max_conns`] cap with a
    /// `Busy` frame — never counted as accepted or errored. A live view
    /// over the `conn_shed` metric.
    pub fn connections_shed(&self) -> u64 {
        self.service.metrics().conn_shed.get()
    }

    /// Graceful shutdown: stop accepting, wait for every in-flight
    /// connection to end (their submissions complete — the drain
    /// semantics the stress test pins), and return the still-warm
    /// [`AuditService`] plus the final connection tallies (exact once
    /// every connection thread is joined, unlike the live accessors).
    ///
    /// Waits for connections, so close (or `Shutdown`-frame) any client
    /// this caller controls first; a connection held open forever by a
    /// peer blocks shutdown by design — killing its work silently would
    /// violate the drain guarantee.
    pub fn shutdown(self) -> DaemonReport {
        let TcpDaemon { front, service } = self;
        drop(front);
        // Every connection thread is joined: the snapshot below is final,
        // and the tally fields are just named views into it.
        let snapshot = service.metrics_snapshot();
        DaemonReport {
            connections_accepted: snapshot.counter("conn_accepted"),
            connection_errors: snapshot.counter("conn_errors"),
            connections_shed: snapshot.counter("conn_shed"),
            snapshot,
            // Only the daemon's own handle remains: the handler's went
            // with the joined threads. If this is the last handle when a
            // daemon is dropped instead, the AuditService's own Drop joins
            // its workers.
            service: match Arc::try_unwrap(service) {
                Ok(service) => service,
                Err(_) => {
                    unreachable!("all daemon threads joined and dropped their service handles")
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use std::io::Read;
    use std::sync::Barrier;
    use std::time::Instant;

    use super::*;

    /// Reads its connection to the end.
    struct Drain;

    impl Handler for Drain {
        fn serve(&self, mut stream: &TcpStream, _conn_id: u64) -> Result<(), ControlError> {
            let mut sink = [0u8; 64];
            while matches!(stream.read(&mut sink), Ok(n) if n > 0) {}
            Ok(())
        }
    }

    /// Eight connections end at once, fifty times over. Of the threads
    /// that end together, at most the last to record its exit may stay
    /// unreaped; the next round's accepts reap it.
    #[test]
    fn connections_ending_together_leave_at_most_one_thread_unreaped() {
        const CONNS: usize = 8;
        const ROUNDS: usize = 50;
        let metrics = ConnMetrics::register(&MetricsRegistry::new());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let front =
            FrontEnd::start(listener, "reap", metrics.clone(), Arc::new(Drain)).expect("start");
        let mut crowded = Vec::new();
        for round in 0..ROUNDS {
            let clients: Vec<TcpStream> = (0..CONNS)
                .map(|_| TcpStream::connect(front.local_addr()).expect("connect"))
                .collect();
            let deadline = Instant::now() + Duration::from_secs(10);
            while metrics.active.get() < CONNS as u64 {
                assert!(
                    Instant::now() < deadline,
                    "round {round}: connections never served"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
            let barrier = Arc::new(Barrier::new(CONNS));
            let enders: Vec<_> = clients
                .into_iter()
                .map(|client| {
                    let barrier = Arc::clone(&barrier);
                    std::thread::spawn(move || {
                        barrier.wait();
                        drop(client);
                    })
                })
                .collect();
            for ender in enders {
                ender.join().expect("ender");
            }
            let accepted = ((round + 1) * CONNS) as u64;
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                let unreaped = accepted - metrics.reaped.get();
                if metrics.active.get() == 0 && unreaped <= 1 {
                    break;
                }
                if Instant::now() >= deadline {
                    crowded.push((round, unreaped));
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        drop(front);
        assert!(
            crowded.is_empty(),
            "{} of {ROUNDS} rounds kept more than one ended thread unreaped \
             (round, unreaped): {crowded:?}",
            crowded.len()
        );
        assert_eq!(
            metrics.reaped.get(),
            (CONNS * ROUNDS) as u64,
            "shutdown joins the rest"
        );
    }
}
