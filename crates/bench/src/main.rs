//! `repro` — regenerate every table and figure of the paper.
//!
//! One subcommand per artifact:
//!
//! ```text
//! repro fig2             Timing-variance CDFs across environments
//! repro fig3             Play vs. replay progress under functional replay
//! repro table1-ablation  Replay accuracy with each mitigation disabled
//! repro table2           SciMark: Sanity vs Oracle-INT vs Oracle-JIT
//! repro fig6             SciMark timing variance: Dirty / Clean / Sanity
//! repro fig7             NFS replay accuracy (play vs replay IPDs)
//! repro logsize          Log growth rate and composition (§6.5)
//! repro fig8             ROC/AUC for 4 channels × 5 detectors
//! repro fig8-fleet       The same comparison through the fleet pipeline
//!                        (trained battery, TDRB stream → BENCH_fig8_fleet.json)
//! repro noise-vs-jitter  TDR noise floor vs WAN jitter (§6.9)
//! repro all              Everything above
//! ```
//!
//! Options: `--full` (paper-scale parameters), `--runs N` (override the
//! per-cell run count), `--out DIR` (results directory, default
//! `results/`).
//!
//! The audit system's throughput and latency are measured by the
//! `auditbench` package (see `BENCHMARK.json`), not here.

mod experiments;

use experiments::Options;

/// A subcommand name and the experiment it runs.
type Experiment = (&'static str, fn(&Options));

/// Every artifact, in `repro all` order.
const EXPERIMENTS: [Experiment; 10] = [
    ("fig2", experiments::fig2::run),
    ("fig3", experiments::fig3::run),
    ("table1-ablation", experiments::ablation::run),
    ("table2", experiments::table2::run),
    ("fig6", experiments::fig6::run),
    ("fig7", experiments::fig7::run),
    ("logsize", experiments::fig7::run_logsize),
    ("fig8", experiments::fig8::run),
    ("fig8-fleet", experiments::fig8_fleet::run),
    ("noise-vs-jitter", experiments::fig7::run_noise_vs_jitter),
];

fn main() {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_else(|| {
        let names: Vec<&str> = EXPERIMENTS.iter().map(|&(name, _)| name).collect();
        eprintln!(
            "usage: repro <{}|all> [--full] [--runs N] [--out DIR]",
            names.join("|")
        );
        std::process::exit(2);
    });
    let mut opts = Options::default();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => opts.full = true,
            "--runs" => {
                opts.runs = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--runs needs a number");
                    std::process::exit(2);
                });
            }
            "--out" => {
                opts.out_dir = args.next().unwrap_or_else(|| {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown option: {other}");
                std::process::exit(2);
            }
        }
    }
    let selected: Vec<fn(&Options)> = EXPERIMENTS
        .iter()
        .filter(|&&(name, _)| cmd == "all" || cmd == name)
        .map(|&(_, run)| run)
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment: {cmd}");
        std::process::exit(2);
    }
    std::fs::create_dir_all(&opts.out_dir).expect("create results dir");

    let t0 = std::time::Instant::now();
    for run in selected {
        run(&opts);
    }
    eprintln!("[repro] done in {:.1}s", t0.elapsed().as_secs_f64());
}
