//! A replay panic that `audit_replay` catches stays out of the panic hook;
//! every other panic still reaches it.
//!
//! A verified program can still reach an interpreter assertion (the
//! verifier checks stack depth, not operand types), and its session gets
//! an error verdict. Were the hook to run for that caught panic, each such
//! session would write a "panicked at" line to the daemon's stderr. The
//! hook is process-wide, so this test has a binary of its own.

use std::sync::atomic::{AtomicUsize, Ordering};

use sanity_tdr::Sanity;

#[path = "torture_common.rs"]
mod torture_common;
use torture_common::{picky_job, picky_program};

static HOOK_CALLS: AtomicUsize = AtomicUsize::new(0);

#[test]
fn a_caught_replay_panic_skips_the_hook_and_others_reach_it() {
    let sanity = Sanity::new(picky_program());
    let bad = picky_job(&sanity, 0, true);
    std::panic::set_hook(Box::new(|_| {
        HOOK_CALLS.fetch_add(1, Ordering::SeqCst);
    }));

    let service = sanity
        .audit_service()
        .workers(1)
        .build()
        .expect("valid service configuration");
    let report = service
        .submit(vec![bad], None)
        .expect("the built-in reference is always resident")
        .wait()
        .expect("the batch completes");
    service.shutdown();
    let error = report.verdicts[0]
        .error
        .as_deref()
        .expect("an error verdict");
    assert!(
        error.starts_with("replay panicked: array kind mismatch"),
        "the panic's message still reaches the verdict: {error}"
    );

    let other = std::thread::spawn(|| panic!("a panic outside any replay")).join();
    assert!(other.is_err(), "the spawned thread panicked");
    let _ = std::panic::take_hook();
    assert_eq!(
        HOOK_CALLS.load(Ordering::SeqCst),
        1,
        "the hook saw the other thread's panic and not the caught replay panic"
    );
}
