//! CPU frequency behavior: fixed, on-demand scaling, and TurboBoost.
//!
//! The paper disables frequency scaling and TurboBoost in the BIOS because
//! "the effect of these optimizations is unpredictable and — at least on
//! current hardware — they cannot be fully controlled by the software"
//! (§4.2). The governor converts elapsed *cycles* into elapsed *time*; with
//! scaling enabled the conversion factor wanders (seeded randomness standing
//! in for thermal/load state the model does not track), so identical cycle
//! counts map to different wall-clock durations run over run.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::Cycles;

/// Frequency policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FreqPolicy {
    /// Constant frequency (scaling and boost disabled — the Sanity setting).
    Fixed,
    /// OnDemand-style scaling: the multiplier random-walks between
    /// `min_ratio` and 1.0 every quantum.
    OnDemand {
        /// Lower bound of the frequency ratio (e.g. 0.5 = half speed).
        min_ratio: f64,
    },
    /// TurboBoost: starts at `boost_ratio` (>1) with a thermal budget of
    /// `budget_cycles` boosted cycles (randomized ±25% per run), then
    /// settles to 1.0.
    Turbo {
        /// Boost multiplier while the thermal budget lasts.
        boost_ratio: f64,
        /// Nominal number of boosted cycles available.
        budget_cycles: Cycles,
    },
}

/// Converts elapsed cycles to elapsed picoseconds under a policy.
///
/// Picoseconds are used internally so that sub-nanosecond periods at
/// multi-GHz frequencies accumulate without rounding bias.
#[derive(Debug, Clone)]
pub struct FrequencyGovernor {
    /// Nominal frequency in Hz.
    nominal_hz: u64,
    policy: FreqPolicy,
    rng: StdRng,
    /// Current ratio (1.0 = nominal).
    ratio: f64,
    /// Cycles until the next governor decision.
    quantum_left: Cycles,
    /// Remaining turbo budget in cycles.
    turbo_left: Cycles,
    /// Accumulated picoseconds (unused under `fixed_period_ps`, where
    /// they are derived from `elapsed_cycles`).
    elapsed_ps: u128,
    /// Accumulated cycles.
    elapsed_cycles: Cycles,
    /// Governor decision quantum in cycles.
    quantum: Cycles,
    /// Exact integer period for the `Fixed` policy when the nominal
    /// frequency divides 1e12 ps evenly (e.g. 10_000 ps at 100 MHz). Lets
    /// `advance` skip the chunked floating-point loop entirely: it only
    /// counts cycles, and [`elapsed_ps`](Self::elapsed_ps) multiplies when
    /// read. Bit-identical to the loop: every chunk product
    /// `step * period` is exact in f64 (both factors small), so the
    /// chunked sum equals `cycles * period`, and a sum of such products
    /// equals the product of the summed cycles.
    fixed_period_ps: Option<u128>,
}

impl FrequencyGovernor {
    /// Create a governor at `nominal_hz` under `policy`; `seed` drives the
    /// run-specific wander.
    pub fn new(nominal_hz: u64, policy: FreqPolicy, seed: u64) -> Self {
        assert!(nominal_hz > 0, "nominal frequency must be nonzero");
        let mut rng = StdRng::seed_from_u64(seed);
        let (ratio, turbo_left) = match policy {
            FreqPolicy::Fixed => (1.0, 0),
            FreqPolicy::OnDemand { min_ratio } => {
                let r = rng.gen_range(min_ratio..=1.0);
                (r, 0)
            }
            FreqPolicy::Turbo {
                boost_ratio,
                budget_cycles,
            } => {
                let jitter = rng.gen_range(0.85..=1.15);
                (boost_ratio, (budget_cycles as f64 * jitter) as Cycles)
            }
        };
        let fixed_period_ps = match policy {
            FreqPolicy::Fixed if 1_000_000_000_000u128.is_multiple_of(nominal_hz as u128) => {
                Some(1_000_000_000_000u128 / nominal_hz as u128)
            }
            _ => None,
        };
        FrequencyGovernor {
            nominal_hz,
            policy,
            rng,
            ratio,
            quantum_left: 50_000,
            turbo_left,
            elapsed_ps: 0,
            elapsed_cycles: 0,
            quantum: 50_000,
            fixed_period_ps,
        }
    }

    /// The nominal frequency in Hz.
    pub fn nominal_hz(&self) -> u64 {
        self.nominal_hz
    }

    /// The active policy.
    pub fn policy(&self) -> FreqPolicy {
        self.policy
    }

    /// Advance by `cycles`, returning the picoseconds they took.
    #[inline]
    pub fn advance(&mut self, mut cycles: Cycles) -> u128 {
        // Fixed-frequency fast path: count cycles, no chunking. The
        // quantum/turbo bookkeeping below is unobservable under `Fixed`.
        // (Inlined, so a caller that ignores the result skips the multiply.)
        if let Some(period) = self.fixed_period_ps {
            self.elapsed_cycles += cycles;
            return cycles as u128 * period;
        }
        let mut ps = 0u128;
        while cycles > 0 {
            let step = cycles.min(self.quantum_left).max(1);
            let period_ps = 1e12 / (self.nominal_hz as f64 * self.ratio);
            ps += (step as f64 * period_ps) as u128;
            self.elapsed_cycles += step;
            cycles -= step;

            if let FreqPolicy::Turbo { .. } = self.policy {
                self.turbo_left = self.turbo_left.saturating_sub(step);
                if self.turbo_left == 0 {
                    self.ratio = 1.0;
                }
            }
            self.quantum_left -= step.min(self.quantum_left);
            if self.quantum_left == 0 {
                self.quantum_left = self.quantum;
                if let FreqPolicy::OnDemand { min_ratio } = self.policy {
                    // Random walk with reflection at the bounds.
                    let delta = self.rng.gen_range(-0.08..=0.08);
                    self.ratio = (self.ratio + delta).clamp(min_ratio, 1.0);
                }
            }
        }
        self.elapsed_ps += ps;
        ps
    }

    /// Total picoseconds accumulated so far.
    pub fn elapsed_ps(&self) -> u128 {
        match self.fixed_period_ps {
            Some(period) => self.elapsed_cycles as u128 * period,
            None => self.elapsed_ps,
        }
    }

    /// Total cycles accumulated so far.
    pub fn elapsed_cycles(&self) -> Cycles {
        self.elapsed_cycles
    }

    /// Convert a cycle count to picoseconds at the *nominal* frequency
    /// (useful for fixed-policy math without a governor instance).
    pub fn nominal_ps(nominal_hz: u64, cycles: Cycles) -> u128 {
        (cycles as u128) * 1_000_000_000_000u128 / nominal_hz as u128
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_policy_is_exact_and_reproducible() {
        let mut a = FrequencyGovernor::new(100_000_000, FreqPolicy::Fixed, 1);
        let mut b = FrequencyGovernor::new(100_000_000, FreqPolicy::Fixed, 999);
        let pa = a.advance(1_000_000);
        let pb = b.advance(1_000_000);
        assert_eq!(pa, pb, "fixed policy ignores the seed");
        // 1e6 cycles at 100 MHz = 10 ms = 1e10 ps.
        assert_eq!(pa, 10_000_000_000);
    }

    #[test]
    fn ondemand_varies_across_seeds() {
        let run = |seed| {
            let mut g =
                FrequencyGovernor::new(100_000_000, FreqPolicy::OnDemand { min_ratio: 0.5 }, seed);
            g.advance(10_000_000)
        };
        assert_ne!(run(1), run(2), "different seeds, different wall time");
        assert_eq!(run(3), run(3), "same seed reproduces exactly");
    }

    #[test]
    fn ondemand_is_never_faster_than_nominal() {
        let mut g = FrequencyGovernor::new(100_000_000, FreqPolicy::OnDemand { min_ratio: 0.5 }, 5);
        let ps = g.advance(1_000_000);
        assert!(ps >= 10_000_000_000, "scaling can only slow things down");
        assert!(ps <= 20_000_000_000, "bounded by min_ratio = 0.5");
    }

    #[test]
    fn turbo_starts_fast_then_settles() {
        let mut g = FrequencyGovernor::new(
            100_000_000,
            FreqPolicy::Turbo {
                boost_ratio: 1.3,
                budget_cycles: 100_000,
            },
            5,
        );
        let early = g.advance(50_000);
        let _mid = g.advance(200_000);
        let late_start = g.elapsed_ps();
        let late = g.advance(50_000);
        let _ = late_start;
        assert!(
            early < late,
            "boosted cycles take less wall time than settled ones"
        );
    }

    #[test]
    fn elapsed_counters_accumulate() {
        let mut g = FrequencyGovernor::new(1_000_000_000, FreqPolicy::Fixed, 0);
        g.advance(500);
        g.advance(500);
        assert_eq!(g.elapsed_cycles(), 1000);
        assert_eq!(g.elapsed_ps(), 1000 * 1000); // 1 ns per cycle at 1 GHz.
    }

    #[test]
    fn nominal_ps_helper() {
        assert_eq!(
            FrequencyGovernor::nominal_ps(1_000_000_000, 1),
            1000,
            "1 cycle at 1 GHz is 1000 ps"
        );
    }
}
