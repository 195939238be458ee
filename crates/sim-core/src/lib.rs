//! `sim-core` — a cycle-level timing model of a simple in-order core.
//!
//! The OSDI'14 TDR paper runs on real hardware and fights real
//! microarchitectural timing noise. This reproduction replaces the hardware
//! with an explicit model that exposes the paper's noise sources (Table 1)
//! as controllable mechanisms:
//!
//! * [`cache::Cache`] — set-associative, LRU, physically indexed write-back
//!   caches (L1I, L1D, shared L2), with flush support for the paper's
//!   initialization/quiescence phase (§3.6);
//! * [`cache::Tlb`] — a TLB with global flush (`CR4.PCIDE` toggling in the
//!   paper, §4.2);
//! * [`branch::BranchPredictor`] — a branch target buffer with 2-bit
//!   counters; divergent control flow between play and replay pollutes it,
//!   which is exactly why Sanity's symmetric read/writes exist (§3.5);
//! * [`dram::Dram`] — a DRAM model with per-bank row buffers;
//! * [`bus::MemoryBus`] — the shared memory bus on which the supporting
//!   core's DMA traffic contends with the timed core (§3.3, §6.9);
//! * [`freq::FrequencyGovernor`] — frequency scaling / TurboBoost; the
//!   paper disables both in the BIOS (§4.2);
//! * [`core::CoreModel`] — per-opcode base costs plus the memory hierarchy,
//!   yielding a cycle count for each executed instruction.
//!
//! Everything is deterministic given a seed: the only stochastic elements
//! (bus arbitration micro-jitter, DRAM refresh) are driven by an explicit
//! [`rand::rngs::StdRng`], so experiments can reproduce both *noisy* and
//! *noise-free* machines exactly.

#![warn(missing_docs)]

pub mod branch;
pub mod bus;
pub mod cache;
pub mod core;
pub mod dram;
mod epoch;
pub mod freq;

pub use crate::core::{
    AccessKind, CoreModel, CoreParams, CoreStats, CostModel, InstrTiming, MemRef,
};
pub use branch::{BranchPredictor, BtbParams};
pub use bus::{BusAgent, BusParams, MemoryBus};
pub use cache::{Cache, CacheParams, Tlb, TlbParams};
pub use dram::{Dram, DramParams};
pub use freq::{FreqPolicy, FrequencyGovernor};

/// A simulated cycle count.
pub type Cycles = u64;

/// A simulated physical address.
pub type PAddr = u64;
