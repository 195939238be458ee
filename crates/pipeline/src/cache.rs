//! Reference cache — the TDR detector's reference-replay adapter.
//!
//! Every audit replays a suspect's log on the *same* known-good
//! environment. The cache pins that environment once — the program,
//! verified once on construction ([`jbc::Verified`]), the machine/VM
//! configuration and the stable-storage file set (behind an `Arc`) — and
//! hands out per-session audit replays. Each [`crate::registry`] entry
//! keeps a pool of warm caches that service workers check out for one
//! audit at a time. It is what turns the two-trace TDR detector into an
//! ordinary [`detectors::Detector`]: the adapter produces the reference
//! timing the detector compares against. It also counts what passed
//! through it, which is what the throughput bench reads. Under an
//! [`crate::AuditService`] these tallies are shadowed by the service-wide
//! [`crate::obs::ServiceMetrics`] counters (`sessions_audited`,
//! `replayed_cycles`), which aggregate across workers without touching
//! this single-threaded hot path.

use std::collections::BTreeMap;
use std::sync::Arc;

use detectors::{Detector, DetectorBattery, TdrDetector, TraceView};
use replay::{audit_replay, EventLog, Recorded, SessionError};
use vm::VmError;

use crate::verdict::AuditVerdict;
use crate::{AuditConfig, AuditJob, Reference};

/// Warm audit state for one reference: the environment plus counters.
#[derive(Debug)]
pub struct ReferenceCache {
    /// The program, verified once when the cache was built. A program
    /// that fails keeps its load error, and every session audited
    /// against it gets that error, as a per-session verify would give.
    program: Result<jbc::Verified, VmError>,
    machine: machine::MachineConfig,
    vm: vm::VmConfig,
    /// Shared file set; every session's VM reads the same copy.
    files: Arc<Vec<Vec<u8>>>,
    tdr: TdrDetector,
    /// Sessions audited through this cache.
    sessions_audited: u64,
    /// Reference cycles replayed through this cache (for sessions/sec math).
    cycles_replayed: u64,
}

impl ReferenceCache {
    /// Pin `reference` into a cache.
    pub fn new(reference: &Reference) -> Self {
        ReferenceCache {
            program: jbc::Verified::new(Arc::clone(&reference.program)).map_err(VmError::from),
            machine: reference.machine,
            vm: reference.vm,
            files: Arc::clone(&reference.files),
            tdr: TdrDetector::new(),
            sessions_audited: 0,
            cycles_replayed: 0,
        }
    }

    /// Sessions audited through this cache.
    pub fn sessions_audited(&self) -> u64 {
        self.sessions_audited
    }

    /// Total reference cycles replayed through this cache.
    pub fn cycles_replayed(&self) -> u64 {
        self.cycles_replayed
    }

    /// Run the audit replay for `log` under `seed` on the cached reference.
    pub fn replay(&mut self, log: &EventLog, seed: u64) -> Result<Recorded, SessionError> {
        let program = self.program.as_ref().map_err(VmError::clone)?;
        let files = Arc::clone(&self.files);
        let rec = audit_replay(program, self.machine, self.vm, log, seed, |vm| {
            vm.set_files(files)
        })?;
        self.sessions_audited += 1;
        self.cycles_replayed += rec.outcome.cycles;
        Ok(rec)
    }

    /// Audit one session: reproduce the reference timing for its log and
    /// score the observed wire timing against it — with the TDR detector
    /// alone, or with the whole trained `battery` in one pass. `cfg`
    /// supplies the threshold and the session seed.
    ///
    /// A session whose audit replay *fails* is flagged with the maximal
    /// TDR score: the reference binary could not even reproduce the
    /// execution, which is a stronger anomaly than any timing deviation.
    /// The statistical detectors still score its observed timing (they
    /// need no replay), and the verdict's "Sanity" map entry is pinned to
    /// the same maximal 1.0 as its scalar score.
    pub fn audit(
        &mut self,
        job: &AuditJob,
        cfg: &AuditConfig,
        battery: Option<&DetectorBattery>,
    ) -> AuditVerdict {
        let seed = cfg.session_seed(job.session_id);
        match self.replay(&job.log, seed) {
            Ok(rec) => {
                let replayed_ipds: Vec<u64> =
                    rec.tx.windows(2).map(|w| w[1].cycle - w[0].cycle).collect();
                let trace = TraceView::with_replay(&job.observed_ipds, &replayed_ipds);
                let detector_scores = match battery {
                    Some(battery) => battery.score_all(&trace),
                    None => BTreeMap::new(),
                };
                // The scalar TDR score *is* the battery's "Sanity" entry
                // when one was computed — equal by construction, not by
                // coincidence — and the detector runs once either way.
                let score = match detector_scores.get(self.tdr.name()) {
                    Some(&s) => s,
                    None => self.tdr.score(&trace),
                };
                AuditVerdict {
                    session_id: job.session_id,
                    score,
                    flagged: score > cfg.threshold,
                    tx_packets: rec.tx.len(),
                    replayed_cycles: rec.outcome.cycles,
                    detector_scores,
                    error: None,
                }
            }
            Err(e) => {
                let detector_scores = match battery {
                    Some(battery) => {
                        let mut scores =
                            battery.score_all(&TraceView::observed(&job.observed_ipds));
                        // Replay failure is maximal TDR evidence; keep the
                        // map entry consistent with the scalar score.
                        scores.insert(self.tdr.name().to_string(), 1.0);
                        scores
                    }
                    None => BTreeMap::new(),
                };
                AuditVerdict {
                    session_id: job.session_id,
                    score: 1.0,
                    flagged: true,
                    tx_packets: 0,
                    replayed_cycles: 0,
                    detector_scores,
                    error: Some(e.to_string()),
                }
            }
        }
    }
}
