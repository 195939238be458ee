//! Differential determinism suite: the seeded corpus replayed through the
//! current interpreter/scheduler must match goldens recorded from the
//! implementation that existed before the dispatch/tick-scheduler rework.
//!
//! Every fingerprint is exact — cycle counts, instruction counts, wall-ps,
//! console output, per-packet IPDs, and the full verdict/summary structures
//! (floats compared via their shortest-roundtrip `Debug` rendering, which
//! is bit-faithful). Any change to opcode semantics, cost accounting, event
//! ordering, RNG draw order, or detector arithmetic fails here first.
//!
//! Regenerate with `UPDATE_GOLDENS=1 cargo test --test determinism_goldens`
//! — but only when a change is *supposed* to alter timing, and say so in
//! the commit.

use sanity_tdr::{AuditConfig, AuditJob, BatteryMode, DetectorBattery, Sanity};
use workloads::corpus;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/goldens/determinism.txt"
);
const SEPARATOR: &str = "\n=== program ";

/// One corpus program's exact behavioural fingerprint.
fn fingerprint(k: u64) -> String {
    let prog = corpus::corpus_program(corpus::GOLDEN_CORPUS_SEED + k);
    let s = Sanity::new(prog);

    // Three training runs under distinct noise seeds give the battery a
    // non-degenerate clean distribution for this program.
    let training: Vec<Vec<u64>> = (0..3)
        .map(|t| {
            s.record(9_000 + k * 10 + t, |_| {})
                .expect("training record")
                .tx_ipds_cycles()
        })
        .collect();

    let rec = s.record(1_000 + k, |_| {}).expect("record");
    let rep = s.replay(&rec.log, 2_000 + k, |_| {}).expect("replay");

    let audited = s.with_battery(DetectorBattery::trained(&training));
    let job = AuditJob {
        session_id: k,
        log: rec.log.clone(),
        observed_ipds: rec.tx_ipds_cycles(),
    };
    let cfg = AuditConfig {
        workers: 2,
        battery: BatteryMode::Full,
        ..AuditConfig::default()
    };
    let report = audited.audit_batch(std::slice::from_ref(&job), &cfg);

    format!(
        "record: exit={:?} icount={} cycles={} wall_ps={} gc={}\n\
         record console={:?}\n\
         record ipds={:?}\n\
         replay: exit={:?} icount={} cycles={} wall_ps={}\n\
         replay console={:?}\n\
         replay ipds={:?}\n\
         verdicts={:?}\n\
         summary={:?}\n",
        rec.outcome.exit,
        rec.outcome.icount,
        rec.outcome.cycles,
        rec.outcome.wall_ps,
        rec.gc_runs,
        rec.outcome.console,
        rec.tx_ipds_cycles(),
        rep.outcome.exit,
        rep.outcome.icount,
        rep.outcome.cycles,
        rep.outcome.wall_ps,
        rep.outcome.console,
        rep.tx_ipds_cycles(),
        report.verdicts,
        report.summary,
    )
}

fn render_all() -> String {
    let mut out = String::from("determinism goldens v1\n");
    for k in 0..corpus::GOLDEN_CORPUS_SIZE as u64 {
        out.push_str(SEPARATOR);
        out.push_str(&format!("{k} ===\n"));
        out.push_str(&fingerprint(k));
    }
    out
}

#[test]
fn corpus_matches_pinned_goldens() {
    let actual = render_all();
    if std::env::var("UPDATE_GOLDENS").is_ok() {
        std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap())
            .expect("mkdir goldens");
        std::fs::write(GOLDEN_PATH, &actual).expect("write goldens");
        eprintln!("goldens updated at {GOLDEN_PATH}");
        return;
    }
    let expected = std::fs::read_to_string(GOLDEN_PATH)
        .expect("goldens missing — run once with UPDATE_GOLDENS=1");
    if expected != actual {
        // Diff per program so the failure names the culprit.
        let exp: Vec<&str> = expected.split(SEPARATOR).collect();
        let act: Vec<&str> = actual.split(SEPARATOR).collect();
        assert_eq!(
            exp.len(),
            act.len(),
            "golden program count changed (regenerate deliberately)"
        );
        for (e, a) in exp.iter().zip(act.iter()) {
            if e != a {
                for (le, la) in e.lines().zip(a.lines()) {
                    assert_eq!(le, la, "determinism fingerprint diverged");
                }
                assert_eq!(e, a, "determinism fingerprint diverged (line count)");
            }
        }
        panic!("goldens diverged"); // unreachable fallback
    }
}
