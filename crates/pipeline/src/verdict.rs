//! Per-session verdicts, fleet-wide aggregation, and [`retrain`]: the
//! next battery generation derived from an audited batch.
//!
//! The aggregation is deliberately deterministic: a [`FleetSummary`] is a
//! pure function of the verdict *set* (order-insensitive counts and
//! extrema; the flagged list sorted by session id), so 1-worker and
//! N-worker runs of the same batch summarize identically.

use std::collections::BTreeMap;

use detectors::{auc, roc, DetectorBattery, RocPoint, TraceView};

use crate::AuditJob;

/// The audit outcome for one session.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditVerdict {
    /// The session's caller-assigned id.
    pub session_id: u64,
    /// Worst relative IPD deviation between observed and reference timing
    /// (1.0 if the session failed to replay or changed its output count).
    pub score: f64,
    /// Whether the score exceeds the batch threshold.
    pub flagged: bool,
    /// Packets the reference replay transmitted.
    pub tx_packets: usize,
    /// Cycles the reference replay executed (throughput accounting).
    pub replayed_cycles: u64,
    /// Per-detector scores (detector name → score) when the batch ran with
    /// [`crate::BatteryMode::Full`]; empty on the default TDR-only path.
    /// The "Sanity" entry is always byte-identical to [`score`](Self::score).
    pub detector_scores: BTreeMap<String, f64>,
    /// Present when the audit replay itself failed.
    pub error: Option<String>,
}

/// Histogram of audit scores over fixed deviation buckets.
///
/// Bucket edges are fractions of the reference IPD: everything below the
/// TDR noise floor lands in the first buckets, channels in the last ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScoreHistogram {
    /// Count of scores in `[edge[i], edge[i+1])`; the final bucket is
    /// `[0.5, ∞)`.
    pub counts: [u64; EDGES.len()],
}

/// Lower bucket edges (relative deviation).
pub const EDGES: [f64; 8] = [0.0, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5];

impl Default for ScoreHistogram {
    fn default() -> Self {
        ScoreHistogram {
            counts: [0; EDGES.len()],
        }
    }
}

impl ScoreHistogram {
    /// Add one score.
    pub fn add(&mut self, score: f64) {
        let idx = EDGES.iter().rposition(|&e| score >= e).unwrap_or(0);
        self.counts[idx] += 1;
    }

    /// Total samples.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Human-readable one-line rendering (`[0.5%, 1%): 12` style).
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let hi = EDGES
                .get(i + 1)
                .map(|e| format!("{:.1}%", e * 100.0))
                .unwrap_or_else(|| "inf".to_string());
            parts.push(format!("[{:.1}%, {hi}): {c}", EDGES[i] * 100.0));
        }
        parts.join("  ")
    }
}

/// Mean and maximum of one detector's scores over a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorStats {
    /// Mean score (summed in session-id order for determinism).
    pub mean: f64,
    /// Largest score in the batch.
    pub max: f64,
}

/// Fleet-wide aggregation of a batch's verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSummary {
    /// Sessions audited.
    pub sessions: u64,
    /// Session ids flagged as covert, sorted ascending.
    pub flagged: Vec<u64>,
    /// Sessions whose audit replay failed outright.
    pub errors: u64,
    /// Distribution of scores.
    pub histogram: ScoreHistogram,
    /// Largest score in the batch.
    pub max_score: f64,
    /// Mean score (over all sessions, summed in session-id order).
    pub mean_score: f64,
    /// Total reference cycles replayed (throughput accounting).
    pub replayed_cycles: u64,
    /// Per-detector aggregates (name → mean/max) over every verdict that
    /// carried a score map; empty on the TDR-only path. Like every other
    /// field, a pure, order-insensitive function of the verdict set.
    pub detector_stats: BTreeMap<String, DetectorStats>,
}

impl FleetSummary {
    /// Aggregate a batch. Input order does not matter: verdicts are
    /// re-sorted by session id before any floating-point accumulation.
    pub fn from_verdicts(verdicts: &[AuditVerdict]) -> Self {
        let mut ordered: Vec<&AuditVerdict> = verdicts.iter().collect();
        ordered.sort_by_key(|v| v.session_id);
        let mut summary = FleetSummary {
            sessions: ordered.len() as u64,
            flagged: Vec::new(),
            errors: 0,
            histogram: ScoreHistogram::default(),
            max_score: 0.0,
            mean_score: 0.0,
            replayed_cycles: 0,
            detector_stats: BTreeMap::new(),
        };
        let mut sum = 0.0;
        let mut det_sums: BTreeMap<&str, (f64, f64, u64)> = BTreeMap::new();
        for v in &ordered {
            if v.flagged {
                summary.flagged.push(v.session_id);
            }
            if v.error.is_some() {
                summary.errors += 1;
            }
            summary.histogram.add(v.score);
            summary.max_score = summary.max_score.max(v.score);
            summary.replayed_cycles += v.replayed_cycles;
            sum += v.score;
            for (name, &s) in &v.detector_scores {
                let e = det_sums.entry(name).or_insert((0.0, f64::NEG_INFINITY, 0));
                e.0 += s;
                e.1 = e.1.max(s);
                e.2 += 1;
            }
        }
        if !ordered.is_empty() {
            summary.mean_score = sum / ordered.len() as f64;
        }
        summary.detector_stats = det_sums
            .into_iter()
            .map(|(name, (s, max, n))| {
                (
                    name.to_string(),
                    DetectorStats {
                        mean: s / n as f64,
                        max,
                    },
                )
            })
            .collect();
        summary
    }
}

/// ROC curve and AUC of a labeled benchmark batch: `covert_ids` is the
/// ground truth, scores come from the verdicts' TDR scores. This is the
/// batch-scale version of the paper's Fig. 8 evaluation, built on
/// `detectors::roc`.
pub fn labeled_roc(
    verdicts: &[AuditVerdict],
    covert_ids: &std::collections::HashSet<u64>,
) -> (Vec<RocPoint>, f64) {
    split_and_score(verdicts, covert_ids, |v| v.score)
}

/// Per-detector labeled ROC/AUC over a benchmark batch — the fleet-scale
/// Fig. 8 report.
///
/// Every detector name appearing in any verdict's score map gets a curve;
/// the TDR detector ("Sanity") always gets one, from the verdict's scalar
/// score, so the function is also meaningful on TDR-only batches.
pub fn labeled_roc_by_detector(
    verdicts: &[AuditVerdict],
    covert_ids: &std::collections::HashSet<u64>,
) -> BTreeMap<String, (Vec<RocPoint>, f64)> {
    let mut names: std::collections::BTreeSet<&str> = verdicts
        .iter()
        .flat_map(|v| v.detector_scores.keys())
        .map(String::as_str)
        .collect();
    names.insert("Sanity");
    names
        .into_iter()
        .map(|name| {
            let result = split_and_score(verdicts, covert_ids, |v| {
                // Fall back to the scalar TDR score for "Sanity" — the two
                // are pinned byte-identical when both exist.
                v.detector_scores.get(name).copied().unwrap_or_else(|| {
                    if name == "Sanity" {
                        v.score
                    } else {
                        0.0
                    }
                })
            });
            (name.to_string(), result)
        })
        .collect()
}

fn split_and_score(
    verdicts: &[AuditVerdict],
    covert_ids: &std::collections::HashSet<u64>,
    score_of: impl Fn(&AuditVerdict) -> f64,
) -> (Vec<RocPoint>, f64) {
    let legit: Vec<f64> = verdicts
        .iter()
        .filter(|v| !covert_ids.contains(&v.session_id))
        .map(&score_of)
        .collect();
    let covert: Vec<f64> = verdicts
        .iter()
        .filter(|v| covert_ids.contains(&v.session_id))
        .map(&score_of)
        .collect();
    let points = roc(&covert, &legit);
    let area = auc(&covert, &legit);
    (points, area)
}

/// The next battery generation [`retrain`] derived from one batch.
#[derive(Debug, Clone)]
pub struct Retrained {
    /// The base battery with the batch's clean traces absorbed — what the
    /// writer installs with `PutBattery`.
    pub battery: DetectorBattery,
    /// Clean traces absorbed.
    pub absorbed: usize,
    /// Mean absolute change in detector score over the absorbed traces,
    /// base generation vs. next.
    pub drift_mean: f64,
    /// Largest such change.
    pub drift_max: f64,
}

/// Cross-batch retraining, as a pure function of one audited batch: absorb
/// each clean session's observed IPDs (not flagged, no replay error,
/// non-empty IPDs; in submission order, so deterministic) into a copy of
/// `battery` with one [`DetectorBattery::absorb_all`]. `None` when the
/// batch has no clean session. A battery's one writer calls this between
/// a batch's verdicts and its `PutBattery`.
///
/// The drift is the score-drift monitoring substrate — a quietly shifting
/// baseline shows up here before it shows up as verdict churn: every
/// (absorbed trace, detector) score pair, |next − base|.
///
/// # Panics
///
/// Panics unless `jobs` and `verdicts` pair up by session id, in order.
pub fn retrain(
    battery: &DetectorBattery,
    jobs: &[AuditJob],
    verdicts: &[AuditVerdict],
) -> Option<Retrained> {
    assert_eq!(jobs.len(), verdicts.len(), "one verdict per job");
    let mut clean: Vec<Vec<u64>> = Vec::new();
    for (job, verdict) in jobs.iter().zip(verdicts) {
        assert_eq!(
            job.session_id, verdict.session_id,
            "jobs and verdicts pair up by session id"
        );
        if !verdict.flagged && verdict.error.is_none() && !job.observed_ipds.is_empty() {
            clean.push(job.observed_ipds.clone());
        }
    }
    if clean.is_empty() {
        return None;
    }
    let mut next = battery.clone();
    next.absorb_all(&clean);

    let mut sum = 0.0f64;
    let mut max = 0.0f64;
    let mut n = 0u64;
    for ipds in &clean {
        let view = TraceView::observed(ipds);
        let before = battery.score_all(&view);
        let after = next.score_all(&view);
        for (name, b) in &before {
            if let Some(a) = after.get(name) {
                let d = (a - b).abs();
                sum += d;
                max = max.max(d);
                n += 1;
            }
        }
    }
    Some(Retrained {
        battery: next,
        absorbed: clean.len(),
        drift_mean: if n > 0 { sum / n as f64 } else { 0.0 },
        drift_max: max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdict(id: u64, score: f64, flagged: bool) -> AuditVerdict {
        AuditVerdict {
            session_id: id,
            score,
            flagged,
            tx_packets: 10,
            replayed_cycles: 1_000,
            detector_scores: BTreeMap::new(),
            error: None,
        }
    }

    fn battery_verdict(id: u64, tdr: f64, shape: f64) -> AuditVerdict {
        AuditVerdict {
            detector_scores: [
                ("Sanity".to_string(), tdr),
                ("Shape test".to_string(), shape),
            ]
            .into_iter()
            .collect(),
            ..verdict(id, tdr, tdr > 0.02)
        }
    }

    #[test]
    fn summary_is_order_insensitive() {
        let a = vec![
            verdict(1, 0.001, false),
            verdict(2, 0.30, true),
            verdict(3, 0.015, false),
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(
            FleetSummary::from_verdicts(&a),
            FleetSummary::from_verdicts(&b)
        );
    }

    #[test]
    fn summary_counts_and_extrema() {
        let vs = vec![
            verdict(5, 0.001, false),
            verdict(1, 0.30, true),
            AuditVerdict {
                error: Some("boom".into()),
                ..verdict(9, 1.0, true)
            },
        ];
        let s = FleetSummary::from_verdicts(&vs);
        assert_eq!(s.sessions, 3);
        assert_eq!(s.flagged, vec![1, 9]);
        assert_eq!(s.errors, 1);
        assert_eq!(s.max_score, 1.0);
        assert_eq!(s.histogram.total(), 3);
        assert_eq!(s.replayed_cycles, 3_000);
    }

    #[test]
    fn histogram_buckets_scores() {
        let mut h = ScoreHistogram::default();
        h.add(0.0);
        h.add(0.004); // below noise floor
        h.add(0.03); // between 2% and 5%
        h.add(0.75); // last bucket
        h.add(123.0); // still last bucket
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[3], 1);
        assert_eq!(h.counts[7], 2);
        assert_eq!(h.total(), 5);
        assert!(h.render().contains("[0.0%, 0.5%): 2"));
    }

    #[test]
    fn summary_aggregates_per_detector_stats() {
        let vs = vec![battery_verdict(1, 0.01, 2.0), battery_verdict(2, 0.30, 4.0)];
        let s = FleetSummary::from_verdicts(&vs);
        assert_eq!(s.detector_stats.len(), 2);
        let shape = &s.detector_stats["Shape test"];
        assert!((shape.mean - 3.0).abs() < 1e-12);
        assert_eq!(shape.max, 4.0);
        let tdr = &s.detector_stats["Sanity"];
        assert!((tdr.mean - 0.155).abs() < 1e-12);
        assert_eq!(tdr.max, 0.30);
        // TDR-only verdicts leave the map empty.
        let s = FleetSummary::from_verdicts(&[verdict(1, 0.1, true)]);
        assert!(s.detector_stats.is_empty());
    }

    #[test]
    fn per_detector_stats_are_order_insensitive() {
        let a = vec![
            battery_verdict(1, 0.001, 1.0),
            battery_verdict(2, 0.25, 5.0),
            battery_verdict(3, 0.013, 2.5),
        ];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(
            FleetSummary::from_verdicts(&a),
            FleetSummary::from_verdicts(&b)
        );
    }

    #[test]
    fn labeled_roc_by_detector_covers_every_detector() {
        // TDR separates this batch perfectly, the shape scores are flat.
        let vs = vec![
            battery_verdict(0, 0.001, 3.0),
            battery_verdict(1, 0.002, 3.0),
            battery_verdict(2, 0.25, 3.0),
            battery_verdict(3, 0.40, 3.0),
        ];
        let covert: std::collections::HashSet<u64> = [2, 3].into_iter().collect();
        let by_det = labeled_roc_by_detector(&vs, &covert);
        assert_eq!(by_det.len(), 2);
        assert!((by_det["Sanity"].1 - 1.0).abs() < 1e-9);
        assert!(
            (by_det["Shape test"].1 - 0.5).abs() < 1e-9,
            "all ties → 0.5"
        );
    }

    #[test]
    fn labeled_roc_by_detector_works_on_tdr_only_batches() {
        let vs = vec![verdict(0, 0.001, false), verdict(1, 0.30, true)];
        let covert: std::collections::HashSet<u64> = [1].into_iter().collect();
        let by_det = labeled_roc_by_detector(&vs, &covert);
        assert_eq!(by_det.len(), 1, "only the Sanity curve");
        assert!((by_det["Sanity"].1 - 1.0).abs() < 1e-9);
    }

    fn job(session_id: u64, observed_ipds: Vec<u64>) -> AuditJob {
        AuditJob {
            session_id,
            log: replay::EventLog::default(),
            observed_ipds,
        }
    }

    /// `n` IPDs around 700k cycles with deterministic xorshift jitter.
    fn ipds(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                700_000 + x % 40_000
            })
            .collect()
    }

    #[test]
    fn retrain_absorbs_the_clean_sessions_in_submission_order() {
        let training: Vec<Vec<u64>> = (0..8).map(|s| ipds(s, 300)).collect();
        let base = DetectorBattery::trained(&training);
        let jobs = vec![
            job(0, ipds(10, 300)),
            job(1, ipds(11, 300)),
            job(2, ipds(12, 300)),
            job(3, Vec::new()),
            job(4, ipds(14, 300)),
        ];
        // Clean: 0 and 4. Flagged: 1. Replay error: 2. No IPDs: 3.
        let verdicts = vec![
            verdict(0, 0.001, false),
            verdict(1, 0.30, true),
            AuditVerdict {
                error: Some("boom".into()),
                ..verdict(2, 0.001, false)
            },
            verdict(3, 0.0, false),
            verdict(4, 0.001, false),
        ];
        let next = retrain(&base, &jobs, &verdicts).expect("two clean sessions");
        assert_eq!(next.absorbed, 2);
        assert_eq!(next.battery.training_traces(), base.training_traces() + 2);
        let mut explicit = base.clone();
        explicit.absorb_all(&[jobs[0].observed_ipds.clone(), jobs[4].observed_ipds.clone()]);
        assert_eq!(next.battery.to_json(), explicit.to_json(), "one absorb_all");
        assert!(
            next.drift_mean >= 0.0 && next.drift_max >= next.drift_mean,
            "drift stats ordered: {} {}",
            next.drift_mean,
            next.drift_max
        );
        assert!(
            retrain(&base, &jobs[1..4], &verdicts[1..4]).is_none(),
            "no clean session, no next generation"
        );
    }

    #[test]
    #[should_panic(expected = "pair up by session id")]
    fn retrain_refuses_verdicts_of_other_sessions() {
        let base = DetectorBattery::trained(&[ipds(1, 300), ipds(2, 300)]);
        retrain(&base, &[job(0, ipds(3, 300))], &[verdict(1, 0.001, false)]);
    }

    #[test]
    fn labeled_roc_separates_perfectly_separable_batch() {
        let vs = vec![
            verdict(0, 0.001, false),
            verdict(1, 0.002, false),
            verdict(2, 0.25, true),
            verdict(3, 0.40, true),
        ];
        let covert: std::collections::HashSet<u64> = [2, 3].into_iter().collect();
        let (_, area) = labeled_roc(&vs, &covert);
        assert!((area - 1.0).abs() < 1e-9, "perfect separation: {area}");
    }
}
