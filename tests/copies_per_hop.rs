//! Copies per hop: a counting allocator bounds the heap a batch needs on
//! its way through a client, a coordinator and two backends.
//!
//! Every hop must hold a `SubmitBatch`'s TDRB once — its frame is read
//! into one buffer, the embedded batch is that buffer, and shards are
//! written from it — so the batch's peak live heap is a small multiple of
//! its TDRB however many sessions it carries. A frame read grows its
//! buffer toward the declared length and never past it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use sanity_tdr::audit_pipeline::ingest;
use sanity_tdr::{serve_coordinator, serve_tcp, AuditJob, Client, ControlFrame, TcpDaemon};

#[path = "torture_common.rs"]
mod torture_common;
use torture_common::{echo_jobs, echo_sanity};

/// The system allocator, counting live bytes and their peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(n: usize) {
    let live = LIVE.fetch_add(n, Ordering::SeqCst) + n;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let q = System.realloc(p, layout, new_size);
        if !q.is_null() {
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => {
                    LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
                }
            }
        }
        q
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The counters are process-wide: one measurement at a time.
static MEASURING: Mutex<()> = Mutex::new(());

/// The peak live heap `run` reaches above the heap live when it starts.
fn peak_above_start<T>(run: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE.load(Ordering::SeqCst);
    PEAK.store(start, Ordering::SeqCst);
    let out = run();
    (out, PEAK.load(Ordering::SeqCst) - start)
}

/// Wait until the live heap stops falling: a batch's answer reaches the
/// client before the coordinator and the backends have freed that
/// batch's buffers, and a measurement must not start with them counted.
fn at_rest() {
    let mut last = LIVE.load(Ordering::SeqCst);
    loop {
        std::thread::sleep(std::time::Duration::from_millis(20));
        let now = LIVE.load(Ordering::SeqCst);
        if now >= last {
            return;
        }
        last = now;
    }
}

fn backend(jobs_sanity: &sanity_tdr::Sanity) -> TcpDaemon {
    let service = jobs_sanity
        .audit_service()
        .workers(1)
        .build()
        .expect("valid service configuration");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    serve_tcp(service, listener).expect("backend starts")
}

/// A 4,096-session batch through a coordinator over two one-worker
/// backends, after one warm-up batch: above the heap at rest before it,
/// the coordinator's copy of the TDRB, the backends' shards and every
/// hop's verdicts together peak at no more than five times the TDRB the
/// client holds.
#[test]
fn a_fleet_batch_peaks_at_five_tdrbs() {
    let sanity = echo_sanity();
    // Recorded once, reused under 4,096 ids: ids pick shards and seeds.
    let recorded = echo_jobs(&sanity, 0..16);
    let jobs: Vec<AuditJob> = (0..4096u64)
        .map(|id| AuditJob {
            session_id: id,
            ..recorded[id as usize % recorded.len()].clone()
        })
        .collect();
    let tdrb = ingest::encode_batch(&jobs);
    drop(jobs);

    let _one = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let backends: Vec<TcpDaemon> = (0..2).map(|_| backend(&sanity)).collect();
    let addrs = backends
        .iter()
        .map(|b| b.local_addr().to_string())
        .collect();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let coordinator = serve_coordinator(listener, addrs).expect("coordinator starts");
    let mut client = Client::new(TcpStream::connect(coordinator.local_addr()).expect("connect"));

    let warm = client.submit_batch(0, tdrb.clone()).expect("warm-up batch");
    assert_eq!(warm.verdicts.len(), 4096);
    drop(warm);
    let batch = tdrb.clone();
    at_rest();
    let (outcome, peak) = peak_above_start(|| client.submit_batch(1, batch));
    let outcome = outcome.expect("batch completes");
    assert_eq!(outcome.result.expect("audits").summary.sessions, 4096);
    let ratio = peak as f64 / tdrb.len() as f64;
    eprintln!(
        "peak live heap of one batch: {peak} bytes over a {}-byte TDRB ({ratio:.2}x)",
        tdrb.len()
    );
    assert!(
        ratio <= 5.0,
        "a batch peaked at {ratio:.2} TDRBs of live heap, over the bound of 5"
    );

    client.shutdown().expect("shutdown ack");
    coordinator.shutdown();
    for b in backends {
        b.shutdown().service.shutdown();
    }
}

/// Hands out at most 64 KiB per `read()`, as a socket does.
struct Chunks<'a>(&'a [u8]);

impl Read for Chunks<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(64 * 1024).min(self.0.len());
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// A 3 MB `SubmitBatch` read through 64 KiB reads allocates no more than
/// the frame plus 64 KiB: the payload grows toward the declared length,
/// never past it, and the decoded TDRB is the payload itself.
#[test]
fn a_frame_read_holds_its_payload_once() {
    let tdrb: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
    let frame = ControlFrame::SubmitBatch {
        batch_id: 7,
        tdrb,
        reference: None,
    };
    let bytes = frame.encode();

    let _one = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    let (read, peak) = peak_above_start(|| ControlFrame::read_from(&mut Chunks(&bytes)));
    let read = read.expect("decodes").expect("one frame");
    assert_eq!(read, frame);
    assert!(
        peak <= bytes.len() + 64 * 1024,
        "reading a {}-byte frame peaked at {peak} live bytes",
        bytes.len()
    );
}
