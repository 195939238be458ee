//! The shared memory bus between the timed core and the supporting core.
//!
//! The paper's TC/SC split confines interrupts and I/O to the supporting
//! core, but both cores share the memory bus, so DMA transfers "can
//! sometimes compete with the TC's accesses" (§3.3). That residual
//! contention — plus sub-cycle arbitration the model cannot resolve — is
//! exactly the noise floor that keeps replay accuracy at ~1–2% instead of
//! exact (§6.9). This module models it:
//!
//! * devices schedule DMA windows on the bus at absolute cycle times;
//! * TC memory traffic that overlaps a window stalls until the window ends;
//! * when arbitration jitter is enabled, each contended access additionally
//!   pays a small seeded-random penalty, representing arbitration state the
//!   simulator does not model deterministically. Play and replay use
//!   different jitter seeds, which is what makes them agree only to within
//!   a small tolerance rather than exactly.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::Cycles;

/// Who is requesting the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BusAgent {
    /// The timed core (cache fills / writebacks).
    TimedCore,
    /// The supporting core or a DMA-capable device.
    Dma,
}

/// Bus configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusParams {
    /// Cycles to transfer one 64-byte beat.
    pub beat_cycles: Cycles,
    /// Maximum extra cycles of arbitration jitter per contended access
    /// (0 disables jitter).
    pub jitter_max: Cycles,
}

impl BusParams {
    /// 4 cycles per beat, 6 cycles of worst-case arbitration jitter.
    pub fn default_params() -> Self {
        BusParams {
            beat_cycles: 4,
            jitter_max: 6,
        }
    }
}

/// The shared bus: DMA windows + TC request arbitration.
#[derive(Debug)]
pub struct MemoryBus {
    params: BusParams,
    /// Future/ongoing DMA occupancy windows, sorted by start cycle.
    windows: VecDeque<(Cycles, Cycles)>,
    rng: StdRng,
    tc_requests: u64,
    contended: u64,
    stall_cycles: Cycles,
    dma_bytes: u64,
}

impl MemoryBus {
    /// Create a bus; `seed` drives arbitration jitter.
    pub fn new(params: BusParams, seed: u64) -> Self {
        MemoryBus {
            params,
            windows: VecDeque::new(),
            rng: StdRng::seed_from_u64(seed),
            tc_requests: 0,
            contended: 0,
            stall_cycles: 0,
            dma_bytes: 0,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &BusParams {
        &self.params
    }

    /// Schedule a DMA transfer of `bytes` starting at absolute cycle
    /// `start`. Returns the cycle at which the transfer completes.
    ///
    /// Transfers are serialized: a transfer that would overlap the previous
    /// window is pushed back to start after it.
    pub fn schedule_dma(&mut self, start: Cycles, bytes: u64) -> Cycles {
        self.dma_bytes += bytes;
        let beats = bytes.div_ceil(64).max(1);
        let dur = beats * self.params.beat_cycles;
        let start = match self.windows.back() {
            Some(&(_, prev_end)) if prev_end > start => prev_end,
            _ => start,
        };
        let end = start + dur;
        self.windows.push_back((start, end));
        end
    }

    /// The timed core requests `beats` bus beats at absolute cycle `now`;
    /// returns the total bus cycles (wait + transfer + jitter).
    pub fn tc_request(&mut self, now: Cycles, beats: u64) -> Cycles {
        self.tc_requests += 1;
        // Drop windows that ended before this request.
        while let Some(&(_, end)) = self.windows.front() {
            if end <= now {
                self.windows.pop_front();
            } else {
                break;
            }
        }
        let service = beats.max(1) * self.params.beat_cycles;
        let mut wait = 0;
        if let Some(&(start, end)) = self.windows.front() {
            if start <= now {
                // Window is active: TC waits for it to drain.
                wait = end - now;
                self.contended += 1;
                if self.params.jitter_max > 0 {
                    wait += self.rng.gen_range(0..=self.params.jitter_max);
                }
            } else if now + service > start {
                // TC transfer would collide with an imminent window: the
                // model charges the TC the overlap (device has priority).
                wait = now + service - start;
                self.contended += 1;
                if self.params.jitter_max > 0 {
                    wait += self.rng.gen_range(0..=self.params.jitter_max);
                }
            }
        }
        self.stall_cycles += wait;
        wait + service
    }

    /// Remove DMA windows and reset arbitration state (not statistics).
    pub fn quiesce(&mut self) {
        self.windows.clear();
    }

    /// True if any DMA window is scheduled at or after `now`.
    pub fn dma_pending(&self, now: Cycles) -> bool {
        self.windows.iter().any(|&(_, end)| end > now)
    }

    /// `(tc_requests, contended, stall_cycles, dma_bytes)` counters.
    pub fn stats(&self) -> (u64, u64, Cycles, u64) {
        (
            self.tc_requests,
            self.contended,
            self.stall_cycles,
            self.dma_bytes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> MemoryBus {
        MemoryBus::new(
            BusParams {
                beat_cycles: 4,
                jitter_max: 0,
            },
            7,
        )
    }

    #[test]
    fn uncontended_request_pays_service_only() {
        let mut b = bus();
        assert_eq!(b.tc_request(100, 1), 4);
        assert_eq!(b.tc_request(200, 2), 8);
    }

    #[test]
    fn request_during_dma_window_waits() {
        let mut b = bus();
        let end = b.schedule_dma(100, 128); // 2 beats = 8 cycles, ends 108.
        assert_eq!(end, 108);
        assert_eq!(b.tc_request(104, 1), (108 - 104) + 4);
    }

    #[test]
    fn request_after_window_is_free() {
        let mut b = bus();
        b.schedule_dma(100, 64);
        assert_eq!(b.tc_request(200, 1), 4);
    }

    #[test]
    fn imminent_window_charges_overlap() {
        let mut b = bus();
        b.schedule_dma(105, 64); // Window [105, 109).
                                 // TC at 103 wants 4 cycles [103,107): overlaps the window by 2.
        assert_eq!(b.tc_request(103, 1), 2 + 4);
    }

    #[test]
    fn dma_transfers_serialize() {
        let mut b = bus();
        let e1 = b.schedule_dma(100, 64); // [100,104)
        let e2 = b.schedule_dma(102, 64); // Pushed to [104,108)
        assert_eq!(e1, 104);
        assert_eq!(e2, 108);
    }

    #[test]
    fn jitter_is_seed_deterministic() {
        let mk = |seed| {
            let mut b = MemoryBus::new(
                BusParams {
                    beat_cycles: 4,
                    jitter_max: 6,
                },
                seed,
            );
            b.schedule_dma(100, 640);
            b.tc_request(105, 1)
        };
        assert_eq!(mk(1), mk(1), "same seed, same jitter");
        // Different seeds usually differ; check over a few probes.
        let same = (0..8).all(|k| mk(k) == mk(k + 100));
        assert!(!same, "independent seeds should produce some difference");
    }

    #[test]
    fn quiesce_drops_windows() {
        let mut b = bus();
        b.schedule_dma(100, 6400);
        assert!(b.dma_pending(0));
        b.quiesce();
        assert!(!b.dma_pending(0));
        assert_eq!(b.tc_request(100, 1), 4);
    }

    #[test]
    fn stats_accumulate() {
        let mut b = bus();
        b.schedule_dma(100, 64);
        b.tc_request(100, 1);
        b.tc_request(300, 1);
        let (reqs, contended, stalls, bytes) = b.stats();
        assert_eq!(reqs, 2);
        assert_eq!(contended, 1);
        assert!(stalls > 0);
        assert_eq!(bytes, 64);
    }
}
