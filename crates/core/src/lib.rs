//! `sanity-tdr` — time-deterministic replay for a Java-like VM.
//!
//! This is the top-level crate of the reproduction of *Detecting Covert
//! Timing Channels with Time-Deterministic Replay* (OSDI 2014). It ties the
//! substrate crates together and exposes the system a user would actually
//! run:
//!
//! * [`Sanity`] — the TDR system: record an execution, replay it with
//!   reproduced timing, or audit a log against a reference binary;
//! * [`Engine`] — the three execution engines of the evaluation (the Sanity
//!   TDR interpreter, Oracle's interpreter, Oracle's JIT — the latter two as
//!   cost models over the same ISA);
//! * [`compare`] — IPD and runtime comparison utilities (replay accuracy,
//!   §6.4);
//! * [`TimingAuditor`] — the covert-timing-channel detector built on TDR
//!   (§5.3): replay the log with a known-good binary and flag any output
//!   whose timing deviates beyond the TDR noise floor;
//! * [`Sanity::audit_service`] — the persistent, fleet-scale detector: a
//!   builder for a long-lived [`audit_pipeline::AuditService`] whose
//!   worker pool and reference caches stay warm across submissions, with
//!   job tickets, a daemon loop over `ControlFrame`s, and battery
//!   generations that one writer installs (`install_battery`, the wire's
//!   `PutBattery`);
//! * [`Sanity::audit_batch`] — the one-shot batch audit: shard a batch of
//!   recorded sessions across a worker pool (`audit-pipeline`) and
//!   aggregate per-session verdicts into a fleet summary (now a thin shim
//!   over a temporary service, byte-identical to before);
//! * [`Sanity::audit_stream`] — the same audit over a TDRB byte stream
//!   from any `io::Read` source (file, socket, in-memory buffer), decoding
//!   sessions lazily so a batch far larger than RAM audits in bounded
//!   memory; verdicts are byte-identical to the materialized path;
//! * [`Sanity::with_battery`] — attach a [`DetectorBattery`] trained on the
//!   fleet's clean traces, and both audit paths (under
//!   [`BatteryMode::Full`]) score every session with all five Fig. 8
//!   detectors in one pass, without perturbing the TDR score.
//!
//! The substrate crates are re-exported under their own names so that a
//! single dependency on `sanity-tdr` gives access to the whole system.
//!
//! # Quickstart
//!
//! ```
//! use sanity_tdr::{compare, Sanity};
//! use workloads::scimark::Kernel;
//!
//! // Record a small FFT run under the full TDR configuration...
//! let sanity = Sanity::new(Kernel::Fft.program_small());
//! let rec = sanity.record(1, |_| {}).unwrap();
//! // ...and reproduce it on "another machine of the same type".
//! let rep = sanity.replay(&rec.log, 2, |_| {}).unwrap();
//! let err = compare::relative_error(rec.outcome.cycles, rep.outcome.cycles);
//! assert!(err < 0.02, "timing reproduced within 2%: {err}");
//! ```

#![warn(missing_docs)]

pub mod compare;
pub mod engine;

use std::sync::Arc;

use jbc::Program;
use machine::MachineConfig;
use replay::{EventLog, Recorded, SessionError};
use vm::{Vm, VmConfig, VmError};

pub use engine::Engine;

// Re-export the substrate so `sanity-tdr` is a one-stop dependency.
pub use audit_pipeline;
pub use detectors;
pub use jbc;
pub use machine;
pub use netsim;
pub use replay;
pub use sim_core;
pub use vm;

pub use audit_pipeline::{
    serve_coordinator, serve_tcp, serve_tcp_with, AckStatus, AuditConfig, AuditJob, AuditService,
    BatchOutcome, BatchReport, BatchSummary, BatchTicket, BatteryMode, BatteryOutcome, BusyScope,
    Client, ConfigError, ControlError, ControlFrame, CoordReport, Coordinator, DaemonOptions,
    DaemonReport, IngestError, MetricsSnapshot, PutOutcome, ReferenceId, ReferenceRegistry,
    RegistryError, RegistryLoad, ServiceBuilder, Source, TcpDaemon, TenantQuota, TraceEvent,
    TraceKind,
};
pub use detectors::{Detector, DetectorBattery, TraceView};

/// The TDR system: a program plus the machine configuration it runs
/// under, on the default VM. All methods are deterministic given the run
/// number.
#[derive(Debug, Clone)]
pub struct Sanity {
    program: Arc<Program>,
    mcfg: MachineConfig,
    /// Stable-storage contents (shared machine state: play and replay both
    /// see the same file system, like the paper's NFS file set). One copy,
    /// shared by every run and every reference made from this one.
    files: Arc<Vec<Vec<u8>>>,
    /// Trained detector battery shared by every audit worker (None = the
    /// TDR-only default).
    battery: Option<Arc<DetectorBattery>>,
}

impl Sanity {
    /// Wrap `program` with the full Sanity configuration (every Table 1
    /// mitigation enabled).
    pub fn new(program: Program) -> Self {
        Sanity {
            program: Arc::new(program),
            mcfg: MachineConfig::sanity(),
            files: Arc::default(),
            battery: None,
        }
    }

    /// Attach stable-storage contents (installed into every run: storage is
    /// machine state, not a nondeterministic input, so replay must see the
    /// same files).
    pub fn with_files(mut self, files: impl Into<Arc<Vec<Vec<u8>>>>) -> Self {
        self.files = files.into();
        self
    }

    /// Override the machine configuration (ablations).
    pub fn with_machine_config(mut self, mcfg: MachineConfig) -> Self {
        self.mcfg = mcfg;
        self
    }

    /// Attach a [`DetectorBattery`] trained on this fleet's clean traces
    /// (see [`DetectorBattery::trained`]). Audit runs requesting
    /// [`BatteryMode::Full`] then score every session with all five Fig. 8
    /// detectors; the default [`BatteryMode::TdrOnly`] is unaffected.
    ///
    /// # Panics
    ///
    /// Panics if the battery is untrained (see
    /// [`audit_pipeline::Reference::with_battery`]).
    pub fn with_battery(mut self, battery: DetectorBattery) -> Self {
        assert!(
            battery.is_trained(),
            "train the battery on clean traces before attaching it"
        );
        self.battery = Some(Arc::new(battery));
        self
    }

    /// The wrapped program.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// Record an execution; `setup` delivers inputs (packets, files, delay
    /// models) before the run starts.
    pub fn record(&self, run: u64, setup: impl FnOnce(&mut Vm)) -> Result<Recorded, SessionError> {
        let files = Arc::clone(&self.files);
        replay::record(
            Arc::clone(&self.program),
            self.mcfg,
            VmConfig::default(),
            run,
            |vm| {
                vm.set_files(files);
                setup(vm);
            },
        )
    }

    /// Time-deterministic replay of `log` (same binary, §3).
    pub fn replay(
        &self,
        log: &EventLog,
        run: u64,
        setup: impl FnOnce(&mut Vm),
    ) -> Result<Recorded, SessionError> {
        let files = Arc::clone(&self.files);
        replay::replay_tdr(
            Arc::clone(&self.program),
            self.mcfg,
            VmConfig::default(),
            log,
            run,
            |vm| {
                vm.set_files(files);
                setup(vm);
            },
        )
    }

    /// Functional (XenTT-style) replay of `log` — the Fig. 3 baseline.
    pub fn replay_functional(&self, log: &EventLog, run: u64) -> Result<Recorded, SessionError> {
        let files = Arc::clone(&self.files);
        replay::replay_functional(
            Arc::clone(&self.program),
            VmConfig::default(),
            log,
            run,
            |vm| {
                vm.set_files(files);
            },
        )
    }

    /// This configuration as an audit-pipeline reference environment.
    pub fn as_reference(&self) -> audit_pipeline::Reference {
        audit_pipeline::Reference {
            program: Arc::clone(&self.program),
            machine: self.mcfg,
            vm: VmConfig::default(),
            files: Arc::clone(&self.files),
            battery: self.battery.clone(),
        }
    }

    /// Start configuring a persistent [`AuditService`] over this
    /// (known-good) binary: the worker pool spawns once at `build()` and
    /// its reference caches — and the trained battery, if one is attached
    /// — stay warm across submissions. This is the continuous-auditing
    /// entry point; [`Sanity::audit_batch`]/[`Sanity::audit_stream`] are
    /// one-shot conveniences over a temporary service.
    ///
    /// ```no_run
    /// # use sanity_tdr::{Sanity, Source};
    /// # use workloads::scimark::Kernel;
    /// # let sanity = Sanity::new(Kernel::Fft.program_small());
    /// # let tdrb_bytes: Vec<u8> = Vec::new();
    /// let service = sanity.audit_service().workers(8).build().unwrap();
    /// let source = Source::tdrb(std::io::Cursor::new(tdrb_bytes)).unwrap();
    /// let report = service.submit(source, None).unwrap().wait().unwrap();
    /// ```
    pub fn audit_service(&self) -> ServiceBuilder {
        AuditService::builder(self.as_reference())
    }

    /// Batch audit (§5.3 at fleet scale): shard `jobs` across a worker
    /// pool, audit each session's log against this (known-good) binary on
    /// a reference machine, and aggregate the verdicts. Verdicts are
    /// deterministic — independent of worker count and shard order.
    pub fn audit_batch(&self, jobs: &[AuditJob], cfg: &AuditConfig) -> BatchReport {
        audit_pipeline::audit_batch(&self.as_reference(), jobs, cfg)
    }

    /// Streaming batch audit: decode a TDRB byte stream session-by-session
    /// from `reader` and audit each against this (known-good) binary,
    /// holding at most [`AuditConfig::high_water`] sessions resident.
    ///
    /// This is the fleet-scale entry point — batches arrive from disk or
    /// the network far larger than RAM, and memory stays bounded no matter
    /// the batch size. Verdicts and the fleet summary are byte-identical
    /// to [`Sanity::audit_batch`] over the same bytes, regardless of
    /// worker count, read-buffer size, or high-water mark. `reader` is
    /// buffered internally, so a raw `File` or socket is fine.
    pub fn audit_stream(
        &self,
        reader: impl std::io::Read,
        cfg: &AuditConfig,
    ) -> Result<BatchReport, IngestError> {
        let sessions = audit_pipeline::BatchStream::new(std::io::BufReader::new(reader))?;
        audit_pipeline::audit_stream(&self.as_reference(), sessions, cfg)
    }

    /// Audit replay (§5.3): re-deliver the log's inputs at their recorded
    /// arrival times to this (known-good) binary on a reference machine.
    pub fn audit_replay(
        &self,
        log: &EventLog,
        run: u64,
        setup: impl FnOnce(&mut Vm),
    ) -> Result<Recorded, SessionError> {
        let program = jbc::Verified::new(Arc::clone(&self.program)).map_err(VmError::from)?;
        let files = Arc::clone(&self.files);
        replay::audit_replay(&program, self.mcfg, VmConfig::default(), log, run, |vm| {
            vm.set_files(files);
            setup(vm);
        })
    }
}

/// The TDR-based covert-timing-channel detector (§5.3).
///
/// Holds the known-good binary. Given a machine's log and the packet timing
/// actually observed on the wire, it reproduces what the timing *should*
/// have been and scores the worst relative IPD deviation. Scores above
/// [`threshold`](Self::threshold) flag a channel; the paper's noise floor
/// is 1.85% (§6.4), so the default threshold is 2%.
#[derive(Debug, Clone)]
pub struct TimingAuditor {
    reference: Sanity,
    /// Deviation threshold above which a trace is flagged.
    pub threshold: f64,
}

/// Outcome of one audit.
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Maximum relative IPD deviation between observed and reproduced.
    pub score: f64,
    /// True if the score exceeds the detector threshold.
    pub flagged: bool,
    /// The reproduced (reference) IPDs, in cycles.
    pub replayed_ipds: Vec<u64>,
}

impl TimingAuditor {
    /// Auditor with the known-good `reference` program and a 2% threshold.
    pub fn new(reference: Sanity) -> Self {
        TimingAuditor {
            reference,
            threshold: 0.02,
        }
    }

    /// Audit: reproduce the reference timing for `log` and compare against
    /// `observed_ipds` (cycles between consecutive transmitted packets, as
    /// captured at the suspect machine).
    pub fn audit(
        &self,
        log: &EventLog,
        observed_ipds: &[u64],
        run: u64,
    ) -> Result<AuditReport, SessionError> {
        let rec = self.reference.audit_replay(log, run, |_| {})?;
        let replayed_ipds = rec.tx_ipds_cycles();
        let score = detectors::TdrDetector::new()
            .score(&TraceView::with_replay(observed_ipds, &replayed_ipds));
        Ok(AuditReport {
            score,
            flagged: score > self.threshold,
            replayed_ipds,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::nfs;

    fn nfs_sanity(n_requests: i32, seed: u64) -> Sanity {
        Sanity::new(nfs::server_program(n_requests))
            .with_files(nfs::make_files(4, 1500, 4000, seed))
    }

    fn deliver_nfs(vm: &mut Vm, n: usize, seed: u64) {
        let files = nfs::make_files(4, 1500, 4000, seed);
        let sched = nfs::client_schedule(&files, 200_000, 700_000, seed ^ 1);
        for (at, pkt) in sched.packets.into_iter().take(n) {
            vm.machine_mut().deliver_packet(at, pkt);
        }
    }

    #[test]
    fn record_replay_roundtrip_nfs() {
        let s = nfs_sanity(8, 5);
        let rec = s.record(1, |vm| deliver_nfs(vm, 8, 5)).expect("record");
        assert_eq!(rec.tx.len(), 8);
        let rep = s.replay(&rec.log, 2, |_| {}).expect("replay");
        assert_eq!(rep.tx.len(), 8);
        let err = compare::relative_error(rec.outcome.cycles, rep.outcome.cycles);
        assert!(err < 0.02, "{err}");
    }

    #[test]
    fn auditor_passes_clean_trace() {
        let s = nfs_sanity(8, 6);
        let rec = s.record(3, |vm| deliver_nfs(vm, 8, 6)).expect("record");
        let observed: Vec<u64> = rec.tx.windows(2).map(|w| w[1].cycle - w[0].cycle).collect();
        let auditor = TimingAuditor::new(s.clone());
        let report = auditor.audit(&rec.log, &observed, 7).expect("audit");
        assert!(!report.flagged, "clean trace passes: {}", report.score);
    }

    #[test]
    fn auditor_flags_covert_trace() {
        let s = nfs_sanity(8, 8);
        let rec = s
            .record(4, |vm| {
                deliver_nfs(vm, 8, 8);
                // A channel delaying two packets by ~20% of the IPD.
                vm.set_delay_model(Box::new(vm::ScheduledDelays::new(vec![
                    0, 150_000, 0, 0, 150_000, 0, 0, 0,
                ])));
            })
            .expect("record");
        let observed: Vec<u64> = rec.tx.windows(2).map(|w| w[1].cycle - w[0].cycle).collect();
        let auditor = TimingAuditor::new(s.clone());
        let report = auditor.audit(&rec.log, &observed, 9).expect("audit");
        assert!(report.flagged, "covert trace flagged: {}", report.score);
        assert!(report.score > 0.05);
    }

    #[test]
    fn audit_batch_matches_single_session_auditor() {
        let s = nfs_sanity(8, 14);
        let clean = s.record(10, |vm| deliver_nfs(vm, 8, 14)).expect("record");
        let covert = s
            .record(11, |vm| {
                deliver_nfs(vm, 8, 14);
                vm.set_delay_model(Box::new(vm::ScheduledDelays::new(vec![
                    0, 150_000, 0, 0, 150_000, 0, 0, 0,
                ])));
            })
            .expect("record");

        let jobs = vec![
            AuditJob {
                session_id: 1,
                observed_ipds: clean.tx_ipds_cycles(),
                log: clean.log,
            },
            AuditJob {
                session_id: 2,
                observed_ipds: covert.tx_ipds_cycles(),
                log: covert.log,
            },
        ];
        let cfg = AuditConfig {
            workers: 2,
            run_seed: 99,
            ..AuditConfig::default()
        };
        let report = s.audit_batch(&jobs, &cfg);
        assert_eq!(report.summary.flagged, vec![2], "only the covert session");

        // The batch verdict agrees with the single-session auditor run
        // under the same per-session seed.
        let auditor = TimingAuditor::new(s.clone());
        for (job, verdict) in jobs.iter().zip(&report.verdicts) {
            let single = auditor
                .audit(
                    &job.log,
                    &job.observed_ipds,
                    cfg.session_seed(job.session_id),
                )
                .expect("audit");
            assert_eq!(single.score, verdict.score);
            assert_eq!(single.flagged, verdict.flagged);
        }
    }

    #[test]
    fn audit_stream_matches_audit_batch() {
        let s = nfs_sanity(8, 14);
        let jobs: Vec<AuditJob> = (0..3u64)
            .map(|id| {
                let rec = s
                    .record(20 + id, |vm| deliver_nfs(vm, 8, 14))
                    .expect("record");
                AuditJob {
                    session_id: id,
                    observed_ipds: rec.tx_ipds_cycles(),
                    log: rec.log,
                }
            })
            .collect();
        let cfg = AuditConfig {
            workers: 2,
            high_water: 2,
            ..AuditConfig::default()
        };
        let batch = s.audit_batch(&jobs, &cfg);
        let bytes = audit_pipeline::ingest::encode_batch(&jobs);
        let stream = s.audit_stream(&bytes[..], &cfg).expect("stream audits");
        assert_eq!(stream.verdicts, batch.verdicts);
        assert_eq!(stream.summary, batch.summary);
        assert!(stream.peak_resident <= 2);
    }

    #[test]
    fn quickstart_example_compiles_and_runs() {
        // Mirrors the crate-level docs.
        use workloads::scimark::Kernel;
        let sanity = Sanity::new(Kernel::Mc.program_small());
        let rec = sanity.record(1, |_| {}).expect("record");
        let rep = sanity.replay(&rec.log, 2, |_| {}).expect("replay");
        let err = compare::relative_error(rec.outcome.cycles, rep.outcome.cycles);
        assert!(err < 0.02, "{err}");
    }
}
