//! Allocations per audit: a counting allocator bounds the heap a warm
//! audit replay asks for.
//!
//! Every audit replay starts from a cold core, as the paper's §3.6
//! requires. Its caches and BTB take the storage the previous replay on
//! the same thread left behind, at a new epoch, instead of allocating
//! and filling 5,120 cache lines and 512 BTB entries (about 132 KiB), so
//! once a thread has replayed one session, a LOOKUP audit allocates only
//! what its VM, machine and verdict need. The count is of bytes asked
//! for, not of live bytes or time, so it is the same on every host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use sanity_tdr::audit_pipeline::{Reference, ReferenceCache};
use sanity_tdr::{AuditConfig, AuditJob, Sanity};
use workloads::artifacts::{registry_artifacts, NFS_ARTIFACT_REQUESTS};
use workloads::nfs::{encode_request, OP_LOOKUP};

/// The system allocator, counting the bytes and the calls the measuring
/// thread asks for (a `realloc` asks for its whole new size).
struct Counting;

static BYTES: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MEASURING: Cell<bool> = const { Cell::new(false) };
}

fn asked(n: usize) {
    if MEASURING.with(Cell::get) {
        BYTES.fetch_add(n, Ordering::SeqCst);
        CALLS.fetch_add(1, Ordering::SeqCst);
    }
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        asked(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        asked(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, p: *mut u8, layout: Layout) {
        System.dealloc(p, layout);
    }

    unsafe fn realloc(&self, p: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        asked(new_size);
        System.realloc(p, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `(bytes, calls)` this thread asks the allocator for during `run`.
fn counted(run: impl FnOnce()) -> (usize, usize) {
    let (bytes, calls) = (BYTES.load(Ordering::SeqCst), CALLS.load(Ordering::SeqCst));
    MEASURING.with(|m| m.set(true));
    run();
    MEASURING.with(|m| m.set(false));
    (
        BYTES.load(Ordering::SeqCst) - bytes,
        CALLS.load(Ordering::SeqCst) - calls,
    )
}

/// After one warm-up audit, 64 LOOKUP audits through one
/// `ReferenceCache` on the `nfs_server` artifact ask for at most 16 KiB
/// each (a cold core alone is about 132 KiB).
#[test]
fn a_warm_lookup_audit_allocates_at_most_16_kib() {
    const SESSIONS: u64 = 64;
    let (_, server) = registry_artifacts()
        .into_iter()
        .find(|(name, _)| *name == "nfs_server")
        .expect("the artifact set names nfs_server");
    let sanity = Sanity::new(server.clone());
    let jobs: Vec<AuditJob> = (0..=SESSIONS)
        .map(|id| {
            let rec = sanity
                .record(500 + id, move |vm| {
                    for k in 0..NFS_ARTIFACT_REQUESTS as u64 {
                        let req = encode_request(OP_LOOKUP, (id * 7 + k) as u8, 0, 0);
                        let at = 150_000 + k * 450_000 + id * 3_000;
                        vm.machine_mut().deliver_packet(at, req);
                    }
                })
                .expect("record LOOKUP session");
            AuditJob {
                session_id: id,
                observed_ipds: rec.tx_ipds_cycles(),
                log: rec.log,
            }
        })
        .collect();
    let cfg = AuditConfig::default();
    let mut cache = ReferenceCache::new(&Reference::new(Arc::new(server)));
    let warm = cache.audit(&jobs[0], &cfg, None);
    assert_eq!(warm.error, None, "the warm-up audit replays");

    let mut replayed = 0;
    let (bytes, calls) = counted(|| {
        for job in &jobs[1..] {
            let verdict = cache.audit(job, &cfg, None);
            replayed += usize::from(verdict.error.is_none() && verdict.tx_packets > 0);
        }
    });
    assert_eq!(
        replayed, SESSIONS as usize,
        "every session replays and answers"
    );
    let per_session = bytes / SESSIONS as usize;
    assert!(
        per_session <= 16 * 1024,
        "a warm LOOKUP audit asked for {per_session} B in {} allocations",
        calls / SESSIONS as usize
    );
}
