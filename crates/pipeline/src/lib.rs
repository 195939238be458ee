//! `audit-pipeline` — sharded batch auditing of recorded sessions.
//!
//! The paper's detector (§5.3) audits one log at a time; a cloud provider
//! deploying it (the setting of Aviram et al. and Deterland) has *fleets*
//! of logs per hour. This crate turns the single-session auditor into a
//! batch service:
//!
//! * [`ingest`] — a batch wire format (TDRB, specified in
//!   `docs/FORMATS.md`): length-framed binary event logs (the
//!   `replay::codec` encoding) bundled with each session's id and the
//!   packet timing observed on the wire at the suspect machine. Ingest is
//!   pull-based: [`BatchStream`] decodes sessions one at a time from any
//!   `io::Read` source, so a batch far larger than RAM streams through in
//!   bounded memory;
//! * [`service`] — the persistent [`AuditService`]: a warm worker pool
//!   behind one submission entry, [`AuditService::submit`]. Workers audit
//!   every session on a warm [`ReferenceCache`] checked out of its
//!   reference entry's pool (the known-good binary and file set, so
//!   per-session setup cost is one clone, not one rebuild), and a stream
//!   is fed under backpressure ([`AuditConfig::high_water`] caps the
//!   resident set). [`pool`] holds the one-shot [`audit_batch`] and
//!   [`audit_stream`] helpers over a temporary service;
//! * [`verdict`] — per-session [`AuditVerdict`]s and their deterministic
//!   aggregation into a [`FleetSummary`] (flagged sessions, score
//!   histogram, per-detector stats) plus labeled ROC/AUC — per detector —
//!   over a benchmark batch via `detectors::roc`, and
//!   [`verdict::retrain`], the step a battery's one writer runs between a
//!   batch's verdicts and its `PutBattery`.
//!
//! Detection defaults to the TDR score alone, but a fleet can attach a
//! [`DetectorBattery`] trained on its clean traces
//! ([`Reference::with_battery`]) and request [`BatteryMode::Full`] to score
//! every session with all five Fig. 8 detectors in the same pass — the
//! battery state is shared across workers behind one `Arc`, and the TDR
//! score stays byte-identical to the TDR-only path.
//!
//! Determinism is a design requirement, not an accident: a session's
//! verdict depends only on its log, its observed timing, and the batch
//! seed — never on which worker audited it or in what order. The test
//! suite pins this (1 worker and N workers must produce identical verdict
//! sets), because a detector whose verdict depends on scheduling would be
//! unauditable itself. The same holds across ingest modes: streamed and
//! materialized decode of the same TDRB bytes produce byte-identical
//! fleet summaries, regardless of read-buffer size, worker count, or
//! high-water mark.

#![warn(missing_docs)]

pub mod cache;
pub mod control;
pub mod coord;
pub mod ingest;
pub mod net;
pub mod obs;
pub mod pool;
pub mod registry;
pub mod service;
pub mod verdict;

use std::sync::Arc;

use jbc::Program;
use machine::MachineConfig;
use replay::EventLog;
use vm::VmConfig;

pub use cache::ReferenceCache;
pub use control::{
    AckStatus, BatchOutcome, BatchSummary, BatteryOutcome, BusyScope, Client, ControlError,
    ControlFrame, PutOutcome,
};
pub use coord::{serve_coordinator, CoordReport, Coordinator};
pub use detectors::DetectorBattery;
pub use ingest::{BatchStream, IngestError};
pub use jbc::ReferenceId;
pub use net::{serve_tcp, serve_tcp_with, DaemonOptions, DaemonReport, TcpDaemon};
pub use obs::{MetricsSnapshot, TraceEvent, TraceKind};
pub use pool::{audit_batch, audit_stream, BatchReport};
pub use registry::{ReferenceRegistry, RegistryError, RegistryLoad, DEFAULT_REFERENCE_BUDGET};
pub use service::{AuditService, BatchTicket, ServiceBuilder, Source, TenantQuota};
pub use verdict::{AuditVerdict, DetectorStats, FleetSummary, ScoreHistogram};

/// The reference environment sessions are audited against: the known-good
/// binary plus the machine/VM configuration and stable-storage contents of
/// the reference machine, and optionally a trained detector battery shared
/// by every worker.
#[derive(Debug, Clone)]
pub struct Reference {
    /// The known-good program.
    pub program: Arc<Program>,
    /// Reference machine configuration (normally `MachineConfig::sanity()`).
    pub machine: MachineConfig,
    /// VM configuration.
    pub vm: VmConfig,
    /// Stable-storage contents, installed into every audit replay (storage
    /// is machine state, so the reference must see the same files). One
    /// shared copy: every cache and replay holds the same `Arc`.
    pub files: Arc<Vec<Vec<u8>>>,
    /// A detector battery trained on this fleet's clean traces, shared
    /// (one `Arc`, not one copy per worker) by every audit that scores
    /// with it. `None` — the default — leaves the pipeline TDR-only;
    /// sessions gain per-detector score maps only when a battery is
    /// attached *and* [`AuditConfig::battery`] asks for
    /// [`BatteryMode::Full`].
    pub battery: Option<Arc<DetectorBattery>>,
}

impl Reference {
    /// Reference over `program` with the full Sanity machine configuration
    /// and no files.
    pub fn new(program: Arc<Program>) -> Self {
        Reference {
            program,
            machine: MachineConfig::sanity(),
            vm: VmConfig::default(),
            files: Arc::default(),
            battery: None,
        }
    }

    /// Attach stable-storage contents.
    pub fn with_files(mut self, files: impl Into<Arc<Vec<Vec<u8>>>>) -> Self {
        self.files = files.into();
        self
    }

    /// Attach a trained detector battery (see [`DetectorBattery::trained`]).
    ///
    /// # Panics
    ///
    /// Panics if the battery is untrained: scoring sessions against
    /// uninitialized baselines would produce garbage verdicts silently.
    pub fn with_battery(mut self, battery: DetectorBattery) -> Self {
        assert!(
            battery.is_trained(),
            "train the battery on clean traces before attaching it"
        );
        self.battery = Some(Arc::new(battery));
        self
    }
}

/// One session submitted for audit.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditJob {
    /// Caller-assigned session identifier (reported back in the verdict
    /// and used to derive the session's deterministic replay seed).
    pub session_id: u64,
    /// The suspect machine's event log.
    pub log: EventLog,
    /// Cycles between consecutive transmitted packets, as captured on the
    /// wire at the suspect machine.
    pub observed_ipds: Vec<u64>,
}

/// Which detectors score each session.
///
/// This is the `Copy`-able half of the battery configuration — the trained
/// state itself rides on [`Reference::battery`], so `AuditConfig` stays a
/// plain value type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatteryMode {
    /// The TDR detector only — the pre-battery behavior, and the default.
    /// Verdict score maps stay empty.
    #[default]
    TdrOnly,
    /// Score every session with the full five-detector battery on
    /// [`Reference::battery`]. Requires one to be attached
    /// ([`ConfigError::MissingBattery`] otherwise — a missing battery must
    /// not silently degrade the fleet report to TDR-only). The TDR score
    /// and flagging are byte-identical to [`BatteryMode::TdrOnly`].
    Full,
}

/// Batch-audit tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Worker threads; `0` means one per available core.
    pub workers: usize,
    /// TDR detector threshold: flag sessions whose worst relative IPD
    /// deviation exceeds this. The paper's noise floor is 1.85% (§6.4), so
    /// the default is 2%.
    pub threshold: f64,
    /// Base seed for the reference machines' irreducible noise. Each
    /// session replays under a seed derived from this and its session id,
    /// so verdicts are independent of sharding.
    pub run_seed: u64,
    /// Streaming ingest memory bound: the maximum number of sessions
    /// resident at once (decoded but not yet audited) in
    /// [`audit_stream`]. Once the resident set reaches this mark, decode
    /// of the next session blocks until it has dropped to half the mark.
    /// `0` means the default of 8.
    /// Has no effect on the materialized [`audit_batch`] path.
    pub high_water: usize,
    /// Which detectors score each session (default: TDR only).
    pub battery: BatteryMode,
}

/// Default [`AuditConfig::high_water`]: sessions in flight during
/// streaming ingest.
pub const DEFAULT_HIGH_WATER: usize = 8;

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            workers: 0,
            threshold: 0.02,
            run_seed: 0x7d12_aa64_5eed_0001,
            high_water: DEFAULT_HIGH_WATER,
            battery: BatteryMode::TdrOnly,
        }
    }
}

/// A structurally invalid [`AuditConfig`], rejected at service
/// construction.
///
/// The one-shot entry points historically resolved `0` values through
/// [`AuditConfig::resolved_workers`]/[`AuditConfig::resolved_high_water`]
/// deep inside the pool; the service API resolves once at the front door
/// instead and rejects configurations that would otherwise silently fall
/// back ([`service::ServiceBuilder::build`] calls
/// [`AuditConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `workers == 0` reached service construction. The one-shot shims
    /// resolve `0` to the core count before building; a service must be
    /// given an explicit positive worker count.
    ZeroWorkers,
    /// `high_water == 0` reached service construction: a zero residency
    /// bound would deadlock the streaming feeder.
    ZeroHighWater,
    /// [`BatteryMode::Full`] was requested but no trained battery is
    /// attached to the reference.
    MissingBattery,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::ZeroWorkers => write!(f, "workers must be positive (0 is not resolved at service construction; use ServiceBuilder::workers or AuditConfig::resolved_workers)"),
            ConfigError::ZeroHighWater => write!(f, "high_water must be positive (a zero residency bound would deadlock streaming ingest)"),
            ConfigError::MissingBattery => write!(f, "BatteryMode::Full needs a trained battery on the Reference (Reference::with_battery)"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl AuditConfig {
    /// Check this configuration is structurally valid for service
    /// construction: every knob explicit, nothing left to the `resolved_*`
    /// fallbacks. Battery availability is checked separately by the
    /// builder (it lives on the [`Reference`], not here).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        if self.high_water == 0 {
            return Err(ConfigError::ZeroHighWater);
        }
        Ok(())
    }

    /// The per-session replay seed: a SplitMix64-style mix of the batch
    /// seed and the session id, so sessions are decorrelated but the
    /// mapping is stable across runs and worker counts.
    pub fn session_seed(&self, session_id: u64) -> u64 {
        let mut z = self
            .run_seed
            .wrapping_add(session_id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The number of workers after resolving `0` to the core count.
    pub fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// The streaming high-water mark after resolving `0` to the default.
    pub fn resolved_high_water(&self) -> usize {
        if self.high_water > 0 {
            self.high_water
        } else {
            DEFAULT_HIGH_WATER
        }
    }
}
