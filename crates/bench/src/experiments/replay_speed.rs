//! Replay speed: the interpreter/scheduler fast paths vs the classic
//! configuration, measured end to end.
//!
//! Two measurements, both over the *same recorded logs*:
//!
//! 1. **Single-session replay** — a compute-bound SciMark kernel and an
//!    I/O-bound NFS session are each recorded once, then replayed many
//!    times under the classic configuration (per-opcode `match` dispatch,
//!    scan-every-component housekeeping) and under the optimized one
//!    (fused dispatch + discrete-event tick queue, the defaults). The two
//!    configurations are **bit-identical by construction** — the fast
//!    paths only skip host work, never simulated work — and this
//!    experiment cross-checks that on every replay: any divergence in
//!    cycles, wall_ps, console bytes, or TX IPDs aborts the run with a
//!    nonzero exit.
//! 2. **Warm-service throughput** — the same audit batch is pushed
//!    through a warm `AuditService` built over each configuration, and
//!    the fleet summaries are asserted equal before reporting sessions/s.
//!
//! Results land in `BENCH_replay_speed.json`.

use std::fmt::Write as _;
use std::time::Instant;

use machine::MachineConfig;
use sanity_tdr::audit_pipeline::ingest;
use sanity_tdr::{AuditJob, Sanity, Source};
use vm::{DispatchMode, VmConfig};
use workloads::{nfs, scimark::Kernel};

use super::Options;

/// The classic (pre-optimization) configuration: per-opcode `match`
/// dispatch and scan-everything housekeeping.
fn classic(s: &Sanity) -> Sanity {
    s.clone()
        .with_vm_config(VmConfig {
            dispatch: DispatchMode::Classic,
            ..VmConfig::default()
        })
        .with_machine_config(MachineConfig {
            event_ticking: false,
            ..*s.machine_config()
        })
}

/// A replay outcome's determinism fingerprint: everything the audit
/// pipeline's verdicts derive from.
fn fingerprint(rec: &replay::Recorded) -> String {
    format!(
        "{} {} {} {:?} {:?}",
        rec.outcome.icount,
        rec.outcome.cycles,
        rec.outcome.wall_ps,
        rec.outcome.console,
        rec.tx_ipds_cycles()
    )
}

/// Replay `log` `iters` times under `s`, returning (mean ns per replay,
/// fingerprint of the last replay).
fn time_replays(s: &Sanity, log: &replay::EventLog, iters: usize) -> (f64, String) {
    // One untimed warm-up replay so allocator and cache state don't
    // charge the first timed iteration.
    let mut fp = fingerprint(&s.replay(log, 2, |_| {}).expect("replay"));
    let t = Instant::now();
    for _ in 0..iters {
        fp = fingerprint(&s.replay(log, 2, |_| {}).expect("replay"));
    }
    (t.elapsed().as_nanos() as f64 / iters as f64, fp)
}

type Setup = Box<dyn Fn(&mut vm::Vm)>;

struct WorkloadRow {
    name: &'static str,
    classic_ns: f64,
    fast_ns: f64,
}

/// Run the replay-speed comparison and write `BENCH_replay_speed.json`.
pub fn run(opts: &Options) {
    println!("== replay speed: classic vs fused dispatch + event ticking ==\n");
    let iters = opts.runs_or(10, 40);

    let workloads: Vec<(&'static str, Sanity, Setup)> = vec![
        (
            "scimark_fft_small",
            Sanity::new(Kernel::Fft.program_small()),
            Box::new(|_: &mut vm::Vm| {}),
        ),
        (
            "nfs_8req",
            {
                let files = nfs::make_files(4, 1500, 4000, 5);
                Sanity::new(nfs::server_program(8)).with_files(files)
            },
            {
                let files = nfs::make_files(4, 1500, 4000, 5);
                let sched = nfs::client_schedule(&files, 200_000, 700_000, 4);
                Box::new(move |vm: &mut vm::Vm| {
                    for (at, pkt) in sched.packets.iter().take(8) {
                        vm.machine_mut().deliver_packet(*at, pkt.clone());
                    }
                })
            },
        ),
    ];

    let mut rows: Vec<WorkloadRow> = Vec::new();
    for (name, fast, setup) in &workloads {
        let slow = classic(fast);
        let rec = fast.record(1, |vm| setup(vm)).expect("record");

        let (classic_ns, classic_fp) = time_replays(&slow, &rec.log, iters);
        let (fast_ns, fast_fp) = time_replays(fast, &rec.log, iters);
        // Determinism cross-check: the two configurations must produce
        // bit-identical replays (the fast paths skip host work only — the
        // record-vs-replay gap is TDR's separate noise floor, §6.4).
        // assert! exits nonzero on mismatch, which is what CI keys on.
        assert_eq!(
            classic_fp, fast_fp,
            "{name}: classic and optimized replay diverged"
        );

        println!(
            "  {name:<20} classic {:>10.0} ns/replay   optimized {:>10.0} ns/replay   {:.2}x",
            classic_ns,
            fast_ns,
            classic_ns / fast_ns
        );
        rows.push(WorkloadRow {
            name,
            classic_ns,
            fast_ns,
        });
    }

    // Warm-service throughput over the same batch, both configurations.
    let sessions = opts.runs_or(12, 48) as u64;
    let fast = Sanity::new(Kernel::Mc.program_small());
    let slow = classic(&fast);
    let jobs: Vec<AuditJob> = (0..sessions)
        .map(|id| {
            let rec = fast.record(1_000 + id, |_| {}).expect("record");
            AuditJob {
                session_id: id,
                observed_ipds: rec.tx_ipds_cycles(),
                log: rec.log,
            }
        })
        .collect();
    let tdrb = ingest::encode_batch(&jobs);

    let mut service_rows: Vec<(&'static str, f64, String)> = Vec::new();
    for (label, s) in [("classic", &slow), ("optimized", &fast)] {
        let service = s
            .audit_service()
            .workers(4)
            .build()
            .expect("valid service configuration");
        let t = Instant::now();
        let source = Source::tdrb(std::io::Cursor::new(tdrb.clone())).expect("header decodes");
        let report = service
            .submit(source, None)
            .expect("submit")
            .wait()
            .expect("batch audits");
        let secs = t.elapsed().as_secs_f64();
        service.shutdown();
        let throughput = sessions as f64 / secs;
        println!("  warm service ({label}): {throughput:.0} sessions/s");
        service_rows.push((label, throughput, format!("{:?}", report.summary)));
    }
    assert_eq!(
        service_rows[0].2, service_rows[1].2,
        "warm-service summaries diverged between configurations"
    );
    println!("\n(all replays and summaries bit-identical across configurations)");

    let mut json_rows = String::new();
    for r in &rows {
        let _ = write!(
            json_rows,
            "{}    {{\"workload\": \"{}\", \"classic_ns_per_replay\": {:.0}, \
             \"optimized_ns_per_replay\": {:.0}, \"speedup\": {:.4}}}",
            if json_rows.is_empty() { "" } else { ",\n" },
            r.name,
            r.classic_ns,
            r.fast_ns,
            r.classic_ns / r.fast_ns
        );
    }
    let json = format!(
        "{{\n  \"replays_per_cell\": {iters},\n  \"workloads\": [\n{json_rows}\n  ],\n  \
         \"warm_service_sessions\": {sessions},\n  \
         \"warm_service_classic_sessions_per_sec\": {:.2},\n  \
         \"warm_service_optimized_sessions_per_sec\": {:.2},\n  \
         \"determinism_ok\": true\n}}\n",
        service_rows[0].1, service_rows[1].1
    );
    opts.write("BENCH_replay_speed.json", &json);
}
