//! Branch target buffer with 2-bit saturating counters.
//!
//! Divergent control flow between play and replay trains the predictor
//! differently, which then changes the timing of *later, unrelated* code —
//! the "polluted BTB" effect the paper's symmetric read/write design
//! eliminates (§3.5). The model is a direct-mapped BTB indexed by the
//! branch's fetch address, with a 2-bit counter per entry.
//!
//! **Cold state in O(1).** Each entry carries the epoch it was allocated
//! in and is valid only while that epoch equals its predictor's; every
//! entry's epoch is at most its predictor's. [`BranchPredictor::flush`]
//! invalidates every entry by moving to the next epoch, and rewrites the
//! entries (to epoch 0, which no predictor holds) only when the `u32`
//! epoch would wrap, restarting the count at 1. A dropped predictor
//! leaves its entries and final epoch to a per-thread spare, and the next
//! [`BranchPredictor::new`] of the same size on that thread starts from
//! them one epoch later, without allocating or writing them. Nothing
//! reads a stale entry but its epoch, so recycled entries behave as fresh
//! ones.

use serde::{Deserialize, Serialize};

use crate::epoch::{Entry, Spare, Store};
use crate::{Cycles, PAddr};

/// Geometry and penalty of the branch predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BtbParams {
    /// Number of BTB entries (must be a power of two).
    pub entries: u32,
    /// Cycles lost on a misprediction (pipeline refill).
    pub mispredict_cycles: Cycles,
}

impl BtbParams {
    /// 512-entry BTB with a 12-cycle misprediction penalty.
    pub fn default_params() -> Self {
        BtbParams {
            entries: 512,
            mispredict_cycles: 12,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BtbEntry {
    tag: u64,
    target: u64,
    /// The epoch the entry was allocated in: valid only while it equals
    /// its predictor's.
    epoch: u32,
    /// 2-bit saturating counter; >= 2 predicts taken.
    counter: u8,
}

impl Entry for BtbEntry {
    const COLD: BtbEntry = BtbEntry {
        tag: 0,
        target: 0,
        epoch: 0,
        counter: 0,
    };
    /// A core's one BTB.
    const SPARES: usize = 1;

    fn spare() -> &'static std::thread::LocalKey<Spare<BtbEntry>> {
        thread_local!(static SPARE: Spare<BtbEntry> = const { Spare::new(Vec::new()) });
        &SPARE
    }
}

/// A direct-mapped BTB + 2-bit bimodal predictor.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    params: BtbParams,
    entries: Store<BtbEntry>,
    lookups: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    /// Create a predictor with all entries invalid (predicting not-taken),
    /// on this thread's spare entries when a dropped predictor of the same
    /// size left some.
    pub fn new(params: BtbParams) -> Self {
        assert!(
            params.entries.is_power_of_two(),
            "entries must be a power of two"
        );
        BranchPredictor {
            params,
            entries: Store::new(params.entries as usize),
            lookups: 0,
            mispredicts: 0,
        }
    }

    fn index(&self, pc: PAddr) -> usize {
        ((pc >> 2) & (self.params.entries as u64 - 1)) as usize
    }

    /// Resolve the branch at `pc`: predict, compare against the actual
    /// outcome, update state, and return the cycle penalty (0 if predicted
    /// correctly, `mispredict_cycles` otherwise).
    #[inline]
    pub fn resolve(&mut self, pc: PAddr, taken: bool, target: PAddr) -> Cycles {
        self.lookups += 1;
        let idx = self.index(pc);
        let epoch = self.entries.epoch();
        let e = &mut self.entries[idx];
        let tag = pc >> 2;
        let resident = e.epoch == epoch && e.tag == tag;

        let (pred_taken, pred_target) = if resident {
            (e.counter >= 2, e.target)
        } else {
            // Cold or aliased entry: static predict not-taken.
            (false, 0)
        };
        let correct = pred_taken == taken && (!taken || pred_target == target);

        // Train.
        if resident {
            if taken {
                e.counter = (e.counter + 1).min(3);
                e.target = target;
            } else {
                e.counter = e.counter.saturating_sub(1);
            }
        } else if taken {
            // Allocate on taken branches only (typical BTB behavior).
            *e = BtbEntry {
                tag,
                target,
                epoch,
                counter: 2,
            };
        }

        if correct {
            0
        } else {
            self.mispredicts += 1;
            self.params.mispredict_cycles
        }
    }

    /// Invalidate all entries (used during initialization/quiescence).
    pub fn flush(&mut self) {
        self.entries.invalidate();
    }

    /// `(lookups, mispredicts)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.lookups, self.mispredicts)
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    fn bp() -> BranchPredictor {
        BranchPredictor::new(BtbParams {
            entries: 16,
            mispredict_cycles: 10,
        })
    }

    #[test]
    fn cold_not_taken_is_free() {
        let mut p = bp();
        assert_eq!(p.resolve(0x100, false, 0), 0);
    }

    #[test]
    fn cold_taken_mispredicts_then_learns() {
        let mut p = bp();
        assert_eq!(p.resolve(0x100, true, 0x200), 10, "cold miss");
        assert_eq!(p.resolve(0x100, true, 0x200), 0, "learned");
        assert_eq!(p.resolve(0x100, true, 0x200), 0);
    }

    #[test]
    fn loop_branch_pattern() {
        let mut p = bp();
        // A loop back-edge taken 9 times then falling through once.
        let mut penalty = 0;
        for _ in 0..9 {
            penalty += p.resolve(0x40, true, 0x10);
        }
        assert_eq!(penalty, 10, "only the first taken misses");
        assert_eq!(p.resolve(0x40, false, 0), 10, "exit mispredicts");
    }

    #[test]
    fn target_change_counts_as_mispredict() {
        let mut p = bp();
        p.resolve(0x80, true, 0x100);
        p.resolve(0x80, true, 0x100);
        assert_eq!(p.resolve(0x80, true, 0x300), 10, "new target");
        assert_eq!(p.resolve(0x80, true, 0x300), 0, "retrained");
    }

    #[test]
    fn flush_forgets_training() {
        let mut p = bp();
        p.resolve(0x100, true, 0x200);
        p.resolve(0x100, true, 0x200);
        p.flush();
        assert_eq!(p.resolve(0x100, true, 0x200), 10, "cold again");
    }

    #[test]
    fn aliasing_pollutes_unrelated_branch() {
        // Two PCs mapping to the same entry (16 entries, stride 16*4).
        let mut p = bp();
        p.resolve(0x100, true, 0x500);
        p.resolve(0x100, true, 0x500); // Trained.
        p.resolve(0x100 + 16 * 4, true, 0x900); // Aliased: evicts training.
        assert_eq!(
            p.resolve(0x100, true, 0x500),
            10,
            "training was displaced by the aliased branch"
        );
    }

    #[test]
    fn stats_track_mispredicts() {
        let mut p = bp();
        p.resolve(0x0, true, 0x8);
        p.resolve(0x0, true, 0x8);
        let (lookups, miss) = p.stats();
        assert_eq!(lookups, 2);
        assert_eq!(miss, 1);
    }
}
