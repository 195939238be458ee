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
    Counter, CountingRead, CountingWrite, MetricsSnapshot, ServiceMetrics, TraceKind,
};
use crate::service::{AuditService, TenantQuota};

/// The connection-thread ledger of a TCP front end (this daemon and the
/// [`crate::coord`] coordinator): threads still owed a join. Finished
/// ones are reaped on each accept **and** as each connection exits (so
/// an idle front end that stops receiving connects does not hold every
/// handle it ever served until the next accept — at most the last
/// connection to finish stays unreaped, since a thread cannot join
/// itself); the remainder joins at shutdown. Every join increments the
/// front end's `conn_reaped`, so after a drain the ledger balances:
/// `conn_reaped` equals the connection threads ever spawned.
#[derive(Debug, Default)]
pub(crate) struct ConnThreads(Mutex<Vec<JoinHandle<()>>>);

impl ConnThreads {
    pub(crate) fn push(&self, handle: JoinHandle<()>) {
        self.0.lock().expect("conns lock").push(handle);
    }

    /// Join the connection threads that already finished, counting each
    /// join in `reaped`.
    pub(crate) fn reap_finished(&self, reaped: &Counter) {
        let mut conns = self.0.lock().expect("conns lock");
        let (finished, live) = conns.drain(..).partition(JoinHandle::is_finished);
        *conns = live;
        drop(conns);
        Self::join(finished, reaped);
    }

    /// Join every connection thread (shutdown), counting each join in
    /// `reaped`.
    pub(crate) fn join_all(&self, reaped: &Counter) {
        let conns = std::mem::take(&mut *self.0.lock().expect("conns lock"));
        Self::join(conns, reaped);
    }

    fn join(handles: Vec<JoinHandle<()>>, reaped: &Counter) {
        for handle in handles {
            let _ = handle.join();
            reaped.inc();
        }
    }
}

/// Wake an accept loop blocked in `accept()`, which has no timeout, with
/// a throwaway connection to its listener at `addr`. A wildcard bind
/// (0.0.0.0 / ::) is not connectable everywhere, so target loopback on
/// the bound port in that case. If connecting fails (listener already
/// dead), the accept loop has already returned or will error out and
/// observe its stop flag.
pub(crate) fn wake_accept(addr: SocketAddr) {
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
    service: Arc<AuditService>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    /// Connection tallies live in the service's metric set, not here —
    /// one source of truth for the live accessors, [`DaemonReport`], and
    /// the TDRC `Stats` frame.
    conns: Arc<ConnThreads>,
    accept_thread: Option<JoinHandle<()>>,
}

/// [`serve_tcp`] with explicit [`DaemonOptions`] (idle timeout etc.).
pub fn serve_tcp_with(
    service: AuditService,
    listener: TcpListener,
    options: DaemonOptions,
) -> io::Result<TcpDaemon> {
    let addr = listener.local_addr()?;
    let service = Arc::new(service);
    let stop = Arc::new(AtomicBool::new(false));
    let conns = Arc::new(ConnThreads::default());
    let accept_thread = {
        let service = Arc::clone(&service);
        let stop = Arc::clone(&stop);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("tdrd-accept".to_string())
            .spawn(move || accept_loop(listener, service, stop, conns, options))?
    };
    Ok(TcpDaemon {
        service,
        addr,
        stop,
        conns,
        accept_thread: Some(accept_thread),
    })
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

fn accept_loop(
    listener: TcpListener,
    service: Arc<AuditService>,
    stop: Arc<AtomicBool>,
    conns: Arc<ConnThreads>,
    options: DaemonOptions,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => {
                // Transient accept failure (e.g. fd exhaustion): the
                // daemon must outlive it. Back off briefly and retry.
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(20));
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            // The wake-up connection from `shutdown` (or a client racing
            // it). Either way the daemon is closing: drop it unanswered.
            drop(stream);
            return;
        }
        let metrics = service.metrics();
        if let Some(cap) = options.max_conns {
            let active = metrics.conn_active.get();
            if active as usize >= cap {
                shed_connection(&stream, metrics, active, cap as u64);
                drop(stream);
                continue;
            }
        }
        // The accept counter doubles as the 1-based connection id keying
        // this connection's trace events and thread name.
        let conn_id = metrics.conn_accepted.inc();
        metrics.trace(TraceKind::ConnAccept, conn_id, 0);
        metrics.conn_active.inc();
        conns.reap_finished(&metrics.conn_reaped);
        let handle = {
            let service = Arc::clone(&service);
            let conns = Arc::clone(&conns);
            let options = options.clone();
            std::thread::Builder::new()
                .name(format!("tdrd-conn-{conn_id}"))
                .spawn(move || serve_connection(&service, &conns, stream, conn_id, &options))
        };
        match handle {
            Ok(handle) => conns.push(handle),
            Err(_) => {
                // Could not spawn a thread: count it against the daemon's
                // error tally and keep accepting — refusing one client is
                // recoverable, dying is not.
                metrics.conn_active.dec();
                metrics.conn_errors.inc();
                metrics.trace(TraceKind::ConnError, conn_id, 0);
            }
        }
    }
}

/// Refuse one over-cap connection: answer with a single
/// connection-scoped `Busy` frame (`batch_id` 0 — no request was read)
/// and let the caller close the socket. Best-effort write: a peer that
/// already vanished is shed all the same.
fn shed_connection(stream: &TcpStream, metrics: &ServiceMetrics, active: u64, cap: u64) {
    let mut writer = CountingWrite::new(BufWriter::new(stream), Arc::clone(&metrics.bytes_out));
    let wrote = ControlFrame::Busy {
        batch_id: 0,
        scope: BusyScope::Connections,
        active,
        limit: cap,
    }
    .write_to(&mut writer)
    .and_then(|()| writer.flush().map_err(ControlError::from_io));
    if wrote.is_ok() {
        metrics.frames_out.inc();
        metrics.frames_out_busy.inc();
    }
    metrics.conn_shed.inc();
    metrics.trace(TraceKind::ConnShed, active, cap);
}

/// One connection's lifetime: serve until clean EOF / `Shutdown`, or a
/// typed protocol/transport error (counted, never fatal to the daemon).
fn serve_connection(
    service: &AuditService,
    conns: &ConnThreads,
    stream: TcpStream,
    conn_id: u64,
    options: &DaemonOptions,
) {
    let metrics = service.metrics();
    // The BufWriter below gathers frames and the serve loop flushes once
    // per burst: the verdicts of one 1 ms window, or a reply with the
    // frames before it. Disable Nagle so each flush leaves as one send at
    // once instead of waiting on the peer's ACK.
    let _ = stream.set_nodelay(true);
    if let Some(deadline) = options.idle_timeout {
        // A read past the deadline fails with WouldBlock/TimedOut, which
        // the serve loop classifies as `ControlError::IdleTimeout`.
        let _ = stream.set_read_timeout(Some(deadline));
    }
    let reader = CountingRead::new(&stream, Arc::clone(&metrics.bytes_in));
    let writer = CountingWrite::new(BufWriter::new(&stream), Arc::clone(&metrics.bytes_out));
    // The connection id is the tenant id: submissions from this peer are
    // round-robin scheduled against other connections' work and metered
    // under `tenant_{conn_id}_*`.
    let outcome = service.serve_as_tenant(reader, writer, conn_id, options.tenant_quota);
    match &outcome {
        Ok(()) => metrics.trace(TraceKind::ConnClose, conn_id, 0),
        Err(ControlError::IdleTimeout) => {
            metrics.conn_idle_timeout.inc();
            metrics.conn_errors.inc();
            metrics.trace(TraceKind::ConnIdleTimeout, conn_id, 0);
        }
        Err(_) => {
            metrics.conn_errors.inc();
            metrics.trace(TraceKind::ConnError, conn_id, 0);
        }
    }
    metrics.conn_active.dec();
    let _ = stream.shutdown(Shutdown::Both);
    // Reap on the way out, not only on the next accept: an idle daemon
    // (or a coordinator backend between batches) may never see another
    // connect, and without this every handle it ever served would sit
    // unjoined until shutdown. This thread's own handle reports
    // unfinished to `is_finished` and is left for the next reaper.
    conns.reap_finished(&metrics.conn_reaped);
}

impl TcpDaemon {
    /// The address the daemon is accepting on (resolves `:0` binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service the connections multiplex onto.
    pub fn service(&self) -> &AuditService {
        &self.service
    }

    /// Connections accepted over the daemon's lifetime (a live view over
    /// the `conn_accepted` metric).
    pub fn connections_accepted(&self) -> u64 {
        self.service.metrics().conn_accepted.get()
    }

    /// Connections that ended with a protocol or transport error (a
    /// corrupt frame, a peer vanishing mid-frame, a broken pipe, an idle
    /// timeout). Clean EOFs and acknowledged `Shutdown`s are not errors.
    /// A live view over the `conn_errors` metric.
    pub fn connection_errors(&self) -> u64 {
        self.service.metrics().conn_errors.get()
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
    pub fn shutdown(mut self) -> DaemonReport {
        self.shutdown_inner();
        // Every connection thread is joined: the snapshot below is final,
        // and the tally fields are just named views into it.
        let snapshot = self.service.metrics_snapshot();
        let connections_accepted = snapshot.counter("conn_accepted");
        let connection_errors = snapshot.counter("conn_errors");
        let connections_shed = snapshot.counter("conn_shed");
        let service = Arc::clone(&self.service);
        drop(self); // only `service` above and the daemon's own Arc remain
        DaemonReport {
            service: match Arc::try_unwrap(service) {
                Ok(service) => service,
                Err(_) => {
                    unreachable!("all daemon threads joined and dropped their service handles")
                }
            },
            connections_accepted,
            connection_errors,
            connections_shed,
            snapshot,
        }
    }

    fn shutdown_inner(&mut self) {
        let Some(accept) = self.accept_thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        wake_accept(self.addr);
        let _ = accept.join();
        self.conns.join_all(&self.service.metrics().conn_reaped);
    }
}

impl Drop for TcpDaemon {
    fn drop(&mut self) {
        self.shutdown_inner();
        // The service Arc drops here; if this is the last handle, the
        // AuditService's own Drop joins its workers.
    }
}
