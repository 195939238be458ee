//! The audit benchmark: end-to-end and per-layer numbers for two
//! deployment shapes of the audit pipeline.
//!
//! ```text
//! auditbench --workload <nfs_daemon|lookup_fleet> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run records a seeded, duplicate-free corpus, starts the workload's
//! deployment, warms it up, and then drives a closed loop of batches for
//! about `--seconds` seconds: one client, one connection, the next batch
//! sent when the previous summary arrives. The timed loop runs in twelve
//! slices, each after the recording of its own batches, so that it spans
//! most of the run. Afterwards the same batches are audited again
//! in-process, layer by layer (the staged pass, `staged.rs`), with more
//! cold starts of the deployment in between (the median cold start is
//! `setup_s`); every deployed verdict and summary must equal the staged
//! pass's bit for bit, and the deployment's Stats-plane counters must
//! equal its exact counts. With `--trace 1` the client also records a
//! span on every other batch (the untraced half gives the tracing
//! overhead), the staged pass records a span per layer call, and the
//! per-layer metrics are reported instead of the end-to-end ones.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod corpus;
mod deploy;
mod staged;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use corpus::{Batch, Corpus};
use deploy::{Deployment, Outcome, BACKENDS, WORKERS};
use staged::Work;
use trace::{Span, Stage, Tracer};

/// The deployment shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One TCP daemon, NFS sessions (one in eight covert), full battery.
    NfsDaemon,
    /// Coordinator over two daemons, LOOKUP-only sessions against a
    /// registered reference.
    LookupFleet,
}

impl Workload {
    const ALL: [Workload; 2] = [Workload::NfsDaemon, Workload::LookupFleet];

    fn name(self) -> &'static str {
        match self {
            Workload::NfsDaemon => "nfs_daemon",
            Workload::LookupFleet => "lookup_fleet",
        }
    }

    /// Sessions per batch.
    pub fn batch_sessions(self) -> usize {
        match self {
            Workload::NfsDaemon => 32,
            Workload::LookupFleet => 1024,
        }
    }

    /// Seconds of `--seconds` that one timed batch stands for. It only
    /// sizes the corpus: a run audits `seconds / nominal_batch_s` timed
    /// batches, so the work (and every exact counter) is fixed by seed and
    /// `--seconds`, and a faster program finishes the same work sooner.
    /// `nfs_daemon`'s is about its batch time on the 2-core host the
    /// benchmark was defined on (0.15–0.29 s as the host drifts);
    /// `lookup_fleet`'s is half again its batch time there (0.08 s), so
    /// that its steadier runs leave more of the time budget to
    /// `nfs_daemon`'s.
    fn nominal_batch_s(self) -> f64 {
        match self {
            Workload::NfsDaemon => 0.20,
            Workload::LookupFleet => 0.12,
        }
    }
}

/// Cold starts per run, spread over its slices; their median is `setup_s`.
const SETUP_REPS: usize = 241;
/// Warm-up before timing: the first batches of a fresh process run slow.
const WARMUP_S: f64 = 1.0;
/// Fewest timed batches, so the latency median always has a sample.
const MIN_TIMED_BATCHES: usize = 12;
/// The timed phase runs in this many slices, each right after the
/// recording of its own batches, so that it samples the host over most of
/// the run rather than over one stretch of it: the host's speed drifts by
/// a fifth and more over seconds to minutes. `sessions_per_s` is the
/// median of the slices' rates, so a slow stretch that covers fewer than
/// half of them does not move it.
const SLICES: usize = 12;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "auditbench: {e}\nusage: auditbench --workload <nfs_daemon|lookup_fleet> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(run) => {
            for e in run.errors.iter().take(20) {
                eprintln!("auditbench: {e}");
            }
            if run.errors.len() > 20 {
                eprintln!("auditbench: ... and {} more", run.errors.len() - 20);
            }
            println!("{}", run.json());
            if run.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("auditbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// CPU seconds (user + system) this process has used. Only differences
/// are meaningful: the counts carry over from whatever process exec'd
/// this one (`cargo run` does).
fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct RUsage {
        utime: [i64; 2],
        stime: [i64; 2],
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        rest: [0; 14],
    };
    // SAFETY: `u` is a writable `struct rusage` in the LP64 Linux layout
    // (two `timeval`s, then fourteen `long`s), and 0 is RUSAGE_SELF.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    let secs = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    secs(u.utime) + secs(u.stime)
}

/// A `/proc/self/status` memory figure in MiB: `VmRSS` (resident now) or
/// `VmHWM` (peak resident, which unlike `getrusage`'s maximum starts
/// afresh at exec and can be reset).
fn status_mib(field: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| format!("no {field} line in /proc/self/status"))
}

/// Hand the heap's free pages back to the kernel, then restart `VmHWM`
/// from the resulting resident set, so the next peak read is that of what
/// runs from now on, not of the load generator that ran before.
fn reset_peak_rss() -> Result<(), String> {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only releases free heap memory; it
    // takes no pointers and is safe to call from any thread at any time.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
compile_error!(
    "auditbench calls glibc (getrusage, malloc_trim) on 64-bit Linux and uses /proc/self"
);

/// Where the benchmark keeps its outputs: the build's target directory,
/// inside the checkout.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("auditbench")
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `q`-quantile by the nearest-rank rule.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Everything one run measured.
struct Run {
    attempted: u64,
    failed: u64,
    /// Violated checks other than per-batch failures.
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Run {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn json(&self) -> String {
        let mut m = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { -1.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                m,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

fn run(args: &Args) -> Result<Run, String> {
    let w = args.workload;
    let warmup = (WARMUP_S / w.nominal_batch_s()).ceil() as usize;
    let timed =
        ((args.seconds as f64 / w.nominal_batch_s()).round() as usize).max(MIN_TIMED_BATCHES);
    let slice = timed.div_ceil(SLICES);
    println!(
        "{}: seed {}, {warmup} warm-up + {timed} timed batches of {} sessions, in {} slices",
        w.name(),
        args.seed,
        w.batch_sessions(),
        timed.div_ceil(slice),
    );
    let mut corpus = Corpus::new(w, args.seed, warmup + timed, warmup, &out_dir())?;
    let (mut recording, mut recording_peak) = (Duration::ZERO, 0.0f64);
    let mut record = |corpus: &mut Corpus, count: usize| -> Result<(), String> {
        let start = Instant::now();
        corpus.record(count)?;
        recording += start.elapsed();
        recording_peak = recording_peak.max(status_mib("VmHWM")?);
        Ok(())
    };
    record(&mut corpus, warmup + slice)?;
    // From here on the peak resident set is that of what runs next (on
    // top of what is resident now), not the recording's.
    reset_peak_rss()?;
    let rss_before = status_mib("VmRSS")?;

    let start = Instant::now();
    let mut dep = Deployment::start(w, &corpus)?;
    let mut setup = vec![start.elapsed().as_secs_f64()];
    dep.observe()?;

    let epoch = Instant::now();
    let mut run = Run {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
    };
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut client_spans: Vec<Span> = Vec::new();
    let mut drive = |corpus: &Corpus,
                     batch: &Batch,
                     dep: &mut Deployment,
                     run: &mut Run,
                     traced: bool|
     -> bool {
        run.attempted += batch.sessions;
        let submitted = corpus.tdrb(batch).and_then(|tdrb| {
            let start_ns = epoch.elapsed().as_nanos() as u64;
            dep.submit(batch, tdrb).map(|o| (start_ns, o))
        });
        match submitted {
            Ok((start_ns, o)) => {
                if traced {
                    let first = start_ns + o.first_verdict.as_nanos() as u64;
                    client_spans.push(Span {
                        stage: Stage::FirstVerdict,
                        id: batch.id,
                        parent: batch.id,
                        start_ns: first,
                        end_ns: first,
                    });
                    client_spans.push(Span {
                        stage: Stage::Batch,
                        id: batch.id,
                        parent: 0,
                        start_ns,
                        end_ns: start_ns + o.latency.as_nanos() as u64,
                    });
                }
                outcomes.push(o);
                true
            }
            Err(e) => {
                run.failed += batch.sessions;
                run.errors.push(format!("batch {} failed: {e}", batch.id));
                false
            }
        }
    };
    let mut ok = corpus
        .warmup
        .iter()
        .all(|b| drive(&corpus, b, &mut dep, &mut run, false));
    let before = if ok {
        dep.stats()?
    } else {
        deploy::Stats::default()
    };

    // The timed phase, slice by slice, each slice right after the
    // recording of its own batches. The peak resident set restarts before
    // each, so the recording's cannot raise the peak it reports.
    let mut slice_rates = Vec::with_capacity(SLICES);
    let (mut wall, mut cpu_s, mut peak_rss_mb) = (Duration::ZERO, 0.0, 0.0f64);
    for k in 0..timed.div_ceil(slice) {
        if !ok {
            break;
        }
        if k > 0 {
            record(&mut corpus, slice)?;
        }
        reset_peak_rss()?;
        let (cpu0, t0) = (cpu_seconds(), Instant::now());
        let mut sessions = 0;
        // Traced runs trace every other batch, so the untraced half
        // measures the tracing overhead under the same conditions.
        for i in k * slice..corpus.timed.len() {
            let traced = args.trace && i % 2 == 1;
            ok = drive(&corpus, &corpus.timed[i], &mut dep, &mut run, traced);
            if !ok {
                break;
            }
            sessions += corpus.timed[i].sessions;
        }
        let elapsed = t0.elapsed();
        wall += elapsed;
        cpu_s += cpu_seconds() - cpu0;
        peak_rss_mb = peak_rss_mb.max(status_mib("VmHWM")?);
        slice_rates.push(sessions as f64 / elapsed.as_secs_f64());
    }
    let (after, stopped) = if ok {
        (dep.stats()?, dep.stop())
    } else {
        drop(dep);
        (before.clone(), Ok(()))
    };
    stopped?;
    corpus.check_distinct_logs()?;
    println!(
        "corpus: {} sessions ({} covert) recorded in {:.1} s, recording's peak RSS {:.1} MiB; \
         duplicate share 0 (ids and logs all distinct)",
        corpus.batches().map(|b| b.sessions).sum::<u64>(),
        corpus.batches().map(|b| b.covert).sum::<u64>(),
        recording.as_secs_f64(),
        recording_peak,
    );

    // The staged pass over every batch the deployment answered, in up to
    // `SLICES` pieces, with a share of the other cold starts after each,
    // so that those sample the host over the pass rather than one moment. They come after the measured phase, so
    // neither their thread churn nor the pass's own allocations can raise
    // the peak resident set it reports.
    let mut stage_tracer = Tracer::new(epoch, args.trace);
    let plan = staged::Plan::new(w, &corpus, &mut stage_tracer)?;
    let mut stage_spans = stage_tracer.spans;
    let answered: Vec<&Batch> = corpus.batches().take(outcomes.len()).collect();
    let pieces: Vec<&[&Batch]> = answered
        .chunks(answered.len().div_ceil(SLICES).max(1))
        .collect();
    let mut expected = Vec::with_capacity(answered.len());
    for (k, piece) in pieces.iter().enumerate() {
        let (e, spans) = staged::run(&plan, &corpus, piece, epoch, args.trace)?;
        expected.extend(e);
        stage_spans.extend(spans);
        while setup.len() < 1 + (k + 1) * (SETUP_REPS - 1) / pieces.len() {
            let start = Instant::now();
            let d = Deployment::start(w, &corpus)?;
            setup.push(start.elapsed().as_secs_f64());
            d.stop()?;
        }
    }
    for ((o, e), b) in outcomes.iter().zip(&expected).zip(&answered) {
        if o.verdicts != e.verdicts || o.summary != e.summary || o.flagged != e.flagged {
            run.failed += b.sessions;
            run.errors.push(format!(
                "batch {}: deployed verdicts/summary differ from the in-process audit \
                 (flagged {} vs {})",
                b.id, o.flagged, e.flagged
            ));
        }
    }
    if !ok {
        return Ok(run);
    }

    let timed_out = &outcomes[warmup..];
    let timed_exp = &expected[warmup..];
    let sessions: u64 = corpus.timed.iter().map(|b| b.sessions).sum();
    let mut work = Work::default();
    timed_exp
        .iter()
        .flat_map(|e| &e.work)
        .for_each(|s| work.add(s));
    let tdrb: u64 = timed_exp.iter().map(|e| e.tdrb_bytes).sum();
    let wire_in: u64 = timed_exp.iter().map(|e| e.wire_in).sum();
    let wire_out: u64 = timed_exp.iter().map(|e| e.wire_out).sum();
    let checkouts: u64 = timed_exp.iter().map(|e| e.checkouts).sum();
    let shard: Vec<u64> = (0..BACKENDS)
        .map(|i| timed_exp.iter().map(|e| e.shard_sessions[i]).sum())
        .collect();
    let flagged: usize = timed_exp.iter().map(|e| e.flagged).sum();
    let d = before.delta(&after);
    let fleet = w == Workload::LookupFleet;

    // The Stats plane must count exactly the staged work.
    let mut expect = |what: &str, stats: u64, staged: u64| {
        if stats != staged {
            run.errors.push(format!(
                "Stats {what} = {stats}, staged pass counted {staged}"
            ));
        }
    };
    expect("sessions_audited", d.sessions_audited, sessions);
    expect("replayed_cycles", d.replayed_cycles, work.cycles);
    expect("bytes_in", d.bytes_in, wire_in);
    expect("bytes_out", d.bytes_out, wire_out);
    if fleet {
        expect("coord_sessions_routed", d.routed, sessions);
        expect("registry_hits", d.registry_hits, checkouts);
        expect("registry_misses", d.registry_misses, 0);
        for (i, (&s, &e)) in d.backend_sessions.iter().zip(&shard).enumerate() {
            expect(&format!("coord_backend_{i}_sessions"), s, e);
        }
    }
    expect("conn_errors", d.conn_errors, 0);
    expect("coord_retries + coord_backend_failures", d.retries, 0);

    // Host-independent counts: fixed by seed and --seconds, so they must
    // repeat exactly from run to run (a simulator-only speed-up leaves
    // them identical).
    let wire = d.bytes_in + d.bytes_out;
    let counts = format!(
        "sessions={sessions} instructions={} sim_cycles={} l1d_misses={} l2_misses={} \
         tlb_misses={} branch_mispredicts={} bus_stall_cycles={} gc_runs={} tx_packets={} \
         ipds={} tdrb_bytes={tdrb} wire_bytes={wire} routed_sessions={} flagged={flagged}",
        work.instructions,
        work.cycles,
        work.l1d_misses,
        work.l2_misses,
        work.tlb_misses,
        work.branch_mispredicts,
        work.bus_stall_cycles,
        work.gc_runs,
        work.tx_packets,
        work.ipds,
        d.routed,
    );
    println!("exact: {counts}");
    // Keyed by this executable's digest: a rebuilt program may
    // legitimately count differently.
    let exe = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| corpus::digest(&bytes))
        .map_err(|e| format!("reading the benchmark executable: {e}"))?;
    let ledger = out_dir().join(format!(
        "counts-{}-seed{}-batches{timed}-{exe:016x}.txt",
        w.name(),
        args.seed
    ));
    match std::fs::read_to_string(&ledger) {
        Ok(earlier) if earlier.trim() != counts => run.errors.push(format!(
            "exact counters differ from an earlier run of the same seed ({}):\n  was {}",
            ledger.display(),
            earlier.trim()
        )),
        Ok(_) => println!("exact counters equal an earlier run of this seed"),
        Err(_) => {
            let _ = std::fs::create_dir_all(out_dir());
            let _ = std::fs::write(&ledger, &counts);
        }
    }

    let lat: Vec<f64> = timed_out.iter().map(|o| ms(o.latency)).collect();
    let n = lat.len();
    // Median over the slices; the pooled rate is reported beside it.
    let sessions_per_s = median(slice_rates.clone());
    let batch_p50_ms = median(lat.clone());
    let setup_s = median(setup.clone());
    let cpu_ms = cpu_s * 1e3 / sessions as f64;
    let busy_share = d.worker_busy_nanos as f64 / (WORKERS as f64 * wall.as_nanos() as f64);
    println!(
        "end to end: {sessions_per_s:.1} sessions/s (median of {} slices; min {:.1}, max {:.1}; \
         pooled {:.1} over {:.2} s); batch p50 {batch_p50_ms:.2} ms{} over {n} batches; \
         set-up median {:.3} ms (min {:.3}, max {:.3}, {} cold starts); \
         peak RSS {peak_rss_mb:.1} MiB (resident before set-up {rss_before:.1} MiB); \
         CPU {cpu_ms:.3} ms/session; worker busy share {busy_share:.3}",
        slice_rates.len(),
        slice_rates.iter().copied().fold(f64::INFINITY, f64::min),
        slice_rates.iter().copied().fold(0.0, f64::max),
        sessions as f64 / wall.as_secs_f64(),
        wall.as_secs_f64(),
        // The highest percentile with at least ten batches beyond it.
        match (n > 10).then(|| (100 * (n - 10)) / n) {
            Some(p) if p > 50 =>
                format!(", p{p} {:.2} ms", quantile(lat.clone(), p as f64 / 100.0)),
            _ => String::new(),
        },
        setup_s * 1e3,
        setup.iter().copied().fold(f64::INFINITY, f64::min) * 1e3,
        setup.iter().copied().fold(0.0, f64::max) * 1e3,
        setup.len(),
    );
    if !args.trace {
        run.metrics = vec![
            ("sessions_per_s", sessions_per_s, "1/s"),
            ("batch_p50_ms", batch_p50_ms, "ms"),
            ("setup_s", setup_s, "s"),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
        ];
        return Ok(run);
    }

    // ---- per layer (traced run) ----------------------------------------
    let timed_ids = |parent: u64| parent == 0 || parent > warmup as u64;
    let durations = |stage: Stage| -> Vec<f64> {
        stage_spans
            .iter()
            .filter(|s| s.stage == stage && timed_ids(s.parent))
            .map(|s| s.ns() as f64)
            .collect()
    };
    let us = |stage: Stage| median(durations(stage)) / 1e3;
    // Per-batch stages: total per batch, median over batches.
    let per_batch_us = |stage: Stage| {
        let mut by_batch = std::collections::BTreeMap::<u64, f64>::new();
        for s in stage_spans
            .iter()
            .filter(|s| s.stage == stage && timed_ids(s.parent))
        {
            *by_batch.entry(s.parent).or_default() += s.ns() as f64;
        }
        median(by_batch.into_values().collect()) / 1e3
    };
    let rows: Vec<&Work> = timed_exp.iter().flat_map(|e| &e.work).collect();
    let exact = |f: fn(&Work) -> u64| median(rows.iter().map(|r| f(r) as f64).collect());
    let replay_ns: f64 = durations(Stage::Replay).iter().sum();
    let traced_half = |traced: bool| {
        let (s, t) = timed_out
            .iter()
            .zip(&corpus.timed)
            .enumerate()
            .filter(|(i, _)| (i % 2 == 1) == traced)
            .fold((0.0, 0.0), |(s, t), (_, (o, b))| {
                (s + b.sessions as f64, t + o.latency.as_secs_f64())
            });
        s / t
    };
    let first_verdict: Vec<f64> = timed_out
        .iter()
        .skip(1)
        .step_by(2)
        .map(|o| ms(o.first_verdict))
        .collect();
    let (hits, misses) = if fleet {
        (d.registry_hits, d.registry_misses)
    } else {
        (checkouts, 0)
    };
    let shard_max = if fleet {
        d.backend_sessions.iter().copied().max()
    } else {
        shard.iter().copied().max()
    };
    let wire_bytes_per_session = wire as f64 / sessions as f64;
    let batch_self: Vec<(u64, u64)> = trace::batch_self_ns(&stage_spans);
    let unattributed: f64 = batch_self
        .iter()
        .filter(|(id, _)| timed_ids(*id))
        .map(|&(_, ns)| ns as f64)
        .sum::<f64>()
        / stage_spans
            .iter()
            .filter(|s| s.stage == Stage::Batch && timed_ids(s.id))
            .map(|s| s.ns() as f64)
            .sum::<f64>();
    run.metrics = vec![
        ("ingest.decode_us", us(Stage::IngestDecode), "us"),
        (
            "ingest.bytes_per_session",
            tdrb as f64 / sessions as f64,
            "B",
        ),
        ("registry.load_us", us(Stage::RegistryLoad), "us"),
        ("registry.checkout_us", us(Stage::RegistryCheckout), "us"),
        (
            "registry.hit_ratio",
            hits as f64 / (hits + misses) as f64,
            "ratio",
        ),
        ("replay.us_per_session", us(Stage::Replay), "us"),
        (
            "replay.ns_per_instr",
            replay_ns / work.instructions as f64,
            "ns",
        ),
        ("vm.instructions", exact(|r| r.instructions), "count"),
        ("vm.gc_runs", exact(|r| r.gc_runs), "count"),
        ("machine.sim_cycles", exact(|r| r.cycles), "count"),
        ("machine.tx_packets", exact(|r| r.tx_packets), "count"),
        ("sim-core.l1d_misses", exact(|r| r.l1d_misses), "count"),
        ("sim-core.l2_misses", exact(|r| r.l2_misses), "count"),
        ("sim-core.tlb_misses", exact(|r| r.tlb_misses), "count"),
        (
            "sim-core.branch_mispredicts",
            exact(|r| r.branch_mispredicts),
            "count",
        ),
        (
            "sim-core.bus_stall_cycles",
            exact(|r| r.bus_stall_cycles),
            "count",
        ),
        ("detectors.score_us", us(Stage::DetectorsScore), "us"),
        ("detectors.ipds_per_session", exact(|r| r.ipds), "count"),
        (
            "verdict.aggregate_us",
            per_batch_us(Stage::VerdictAggregate),
            "us",
        ),
        ("control.encode_us", us(Stage::ControlEncode), "us"),
        ("control.decode_us", us(Stage::ControlDecode), "us"),
        (
            "control.wire_bytes_per_session",
            wire_bytes_per_session,
            "B",
        ),
        ("service.worker_busy_share", busy_share, "ratio"),
        ("service.first_verdict_ms", median(first_verdict), "ms"),
        ("net.conn_errors", d.conn_errors as f64, "count"),
        ("coord.route_us", per_batch_us(Stage::CoordRoute), "us"),
        (
            "coord.max_shard_share",
            shard_max.unwrap_or(0) as f64 * BACKENDS as f64 / sessions as f64,
            "ratio",
        ),
        ("coord.retries", d.retries as f64, "count"),
        ("process.cpu_ms_per_session", cpu_ms, "ms"),
        (
            "trace.overhead",
            traced_half(true) / traced_half(false),
            "ratio",
        ),
    ];
    let off_path: &[&str] = match w {
        Workload::NfsDaemon => &["registry", "coord"],
        Workload::LookupFleet => &[],
    };
    println!("per layer (staged pass; self time = span duration, layer calls do not nest):");
    for (name, value, unit) in &run.metrics {
        let layer = name.split('.').next().unwrap_or(name);
        let note = if off_path.contains(&layer) {
            "  (staged only: not on this deployment's path)"
        } else {
            ""
        };
        println!("  {name:<32} {value:>14.4} {unit}{note}");
    }
    println!(
        "  batch self time not covered by layer spans: {:.2}% of staged batch time",
        unattributed * 100.0
    );
    let mut all = client_spans;
    all.extend(stage_spans);
    let path = out_dir().join(format!("spans-{}-seed{}.tsv", w.name(), args.seed));
    trace::write_spans(&path, &all).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{} spans written to {}", all.len(), path.display());
    Ok(run)
}
