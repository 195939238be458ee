//! The in-order core model: per-instruction cost composition.
//!
//! For every executed (bytecode) instruction, the model charges:
//!
//! 1. a **base cost** from the engine's [`CostModel`] (interpreter dispatch
//!    plus the operation itself);
//! 2. the **instruction fetch** through L1I (the interpreter's dispatch loop
//!    touches the bytecode stream);
//! 3. each **data reference** through TLB → L1D → L2 → DRAM over the shared
//!    bus, with write-back of dirty victims;
//! 4. the **branch penalty** from the BTB, if the instruction is a branch.
//!
//! Cycle totals accumulate into a core-local clock that the platform uses as
//! the timed core's notion of "now".

use serde::{Deserialize, Serialize};

use crate::branch::{BranchPredictor, BtbParams};
use crate::bus::{BusParams, MemoryBus};
use crate::cache::{Cache, CacheParams, Tlb, TlbParams};
use crate::dram::{Dram, DramParams};
use crate::{Cycles, PAddr};

/// What kind of access a [`MemRef`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AccessKind {
    /// Instruction fetch.
    Fetch,
    /// Data load.
    Load,
    /// Data store.
    Store,
}

/// One data memory reference performed by an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRef {
    /// Virtual address (drives the TLB).
    pub vaddr: u64,
    /// Physical address (drives the physically indexed caches).
    pub paddr: PAddr,
    /// True for stores.
    pub write: bool,
}

/// Per-engine base cycle costs, by operation class.
///
/// Three presets model the three engines of the paper's evaluation:
/// [`CostModel::sanity_interpreter`] (the TDR JVM, which pays extra dispatch
/// work for deterministic scheduling and symmetric buffer access),
/// [`CostModel::oracle_interpreter`] (Oracle's JVM with `-Xint`), and
/// [`CostModel::oracle_jit`] (Oracle's JVM with JIT, modeled as near-native
/// per-op costs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    /// Interpreter dispatch overhead added to every instruction.
    pub dispatch: Cycles,
    /// Constants and no-ops.
    pub const_op: Cycles,
    /// Local variable access.
    pub local: Cycles,
    /// Operand-stack shuffling.
    pub stack: Cycles,
    /// Integer ALU.
    pub alu_int: Cycles,
    /// Integer multiply.
    pub mul_int: Cycles,
    /// Integer divide.
    pub div_int: Cycles,
    /// FP add/sub/compare.
    pub alu_fp: Cycles,
    /// FP multiply.
    pub mul_fp: Cycles,
    /// FP divide.
    pub div_fp: Cycles,
    /// Numeric conversion.
    pub conv: Cycles,
    /// Branch instructions (on top of any misprediction penalty).
    pub branch: Cycles,
    /// Heap load (on top of the memory hierarchy).
    pub heap_load: Cycles,
    /// Heap store (on top of the memory hierarchy).
    pub heap_store: Cycles,
    /// Allocation fast path.
    pub alloc: Cycles,
    /// Method call / return overhead.
    pub call: Cycles,
    /// Native call trampoline.
    pub native: Cycles,
    /// Exception throw dispatch.
    pub throw: Cycles,
    /// Monitor enter/exit.
    pub monitor: Cycles,
}

impl CostModel {
    /// The Sanity TDR interpreter: straightforward threaded dispatch plus
    /// the deterministic-scheduling bookkeeping on every instruction. The
    /// prototype has no optimized floating-point paths (the paper's SOR and
    /// FFT rows are its worst), so FP operations are markedly dearer than
    /// in Oracle's tuned template interpreter.
    pub fn sanity_interpreter() -> Self {
        CostModel {
            dispatch: 14,
            const_op: 2,
            local: 3,
            stack: 2,
            alu_int: 3,
            mul_int: 6,
            div_int: 24,
            alu_fp: 22,
            mul_fp: 30,
            div_fp: 70,
            conv: 8,
            branch: 4,
            heap_load: 6,
            heap_store: 7,
            alloc: 40,
            call: 30,
            native: 60,
            throw: 80,
            monitor: 12,
        }
    }

    /// Oracle's interpreter (`-Xint`): a heavily tuned template interpreter
    /// with cheaper dispatch but no deterministic-scheduling work.
    pub fn oracle_interpreter() -> Self {
        CostModel {
            dispatch: 10,
            const_op: 2,
            local: 2,
            stack: 2,
            alu_int: 3,
            mul_int: 5,
            div_int: 22,
            alu_fp: 5,
            mul_fp: 7,
            div_fp: 26,
            conv: 3,
            branch: 3,
            heap_load: 5,
            heap_store: 6,
            alloc: 30,
            call: 24,
            native: 50,
            throw: 70,
            monitor: 10,
        }
    }

    /// Oracle's JIT: compiled code with no dispatch overhead and near-native
    /// operation latencies.
    pub fn oracle_jit() -> Self {
        CostModel {
            dispatch: 0,
            const_op: 1,
            local: 1,
            stack: 1,
            alu_int: 1,
            mul_int: 3,
            div_int: 18,
            alu_fp: 3,
            mul_fp: 4,
            div_fp: 20,
            conv: 1,
            branch: 1,
            heap_load: 2,
            heap_store: 2,
            alloc: 12,
            call: 6,
            native: 30,
            throw: 60,
            monitor: 8,
        }
    }
}

/// Full configuration of the timed core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreParams {
    /// L1 instruction cache geometry.
    pub l1i: CacheParams,
    /// L1 data cache geometry.
    pub l1d: CacheParams,
    /// Unified L2 geometry.
    pub l2: CacheParams,
    /// TLB geometry.
    pub tlb: TlbParams,
    /// Branch predictor geometry.
    pub btb: BtbParams,
    /// DRAM timing.
    pub dram: DramParams,
    /// Shared bus timing.
    pub bus: BusParams,
}

impl CoreParams {
    /// Default microarchitecture used throughout the experiments.
    pub fn default_params() -> Self {
        CoreParams {
            l1i: CacheParams::l1i(),
            l1d: CacheParams::l1d(),
            l2: CacheParams::l2(),
            tlb: TlbParams::default_params(),
            btb: BtbParams::default_params(),
            dram: DramParams::default_params(),
            bus: BusParams::default_params(),
        }
    }
}

/// Timing outcome of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstrTiming {
    /// Total cycles charged.
    pub cycles: Cycles,
    /// True if the instruction fetch missed L1I.
    pub fetch_miss: bool,
    /// Number of data references that missed L1D.
    pub data_misses: u8,
    /// True if a branch mispredicted.
    pub mispredict: bool,
}

/// Aggregate counters of the core model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CoreStats {
    /// Instructions retired.
    pub retired: u64,
    /// Total cycles.
    pub cycles: Cycles,
    /// L1I (hits, misses).
    pub l1i: (u64, u64),
    /// L1D (hits, misses).
    pub l1d: (u64, u64),
    /// L2 (hits, misses).
    pub l2: (u64, u64),
    /// TLB (hits, misses).
    pub tlb: (u64, u64),
    /// Branch (lookups, mispredicts).
    pub branch: (u64, u64),
    /// Bus (requests, contended, stall cycles, dma bytes).
    pub bus: (u64, u64, Cycles, u64),
}

/// The timed core: caches + TLB + BTB + DRAM + bus + clock.
#[derive(Debug)]
pub struct CoreModel {
    params: CoreParams,
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    tlb: Tlb,
    btb: BranchPredictor,
    dram: Dram,
    bus: MemoryBus,
    cycle: Cycles,
    retired: u64,
}

impl CoreModel {
    /// Create a core in the cold (all-flushed) state. `bus_seed` drives the
    /// arbitration jitter of the shared bus.
    pub fn new(params: CoreParams, bus_seed: u64) -> Self {
        CoreModel {
            params,
            l1i: Cache::new(params.l1i),
            l1d: Cache::new(params.l1d),
            l2: Cache::new(params.l2),
            tlb: Tlb::new(params.tlb),
            btb: BranchPredictor::new(params.btb),
            dram: Dram::new(params.dram),
            bus: MemoryBus::new(params.bus, bus_seed),
            cycle: 0,
            retired: 0,
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &CoreParams {
        &self.params
    }

    /// Current core-local cycle count.
    pub fn now(&self) -> Cycles {
        self.cycle
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Mutable access to the shared bus (devices schedule DMA through it).
    pub fn bus_mut(&mut self) -> &mut MemoryBus {
        &mut self.bus
    }

    /// Shared bus, read-only.
    pub fn bus(&self) -> &MemoryBus {
        &self.bus
    }

    /// Pollute a fraction of the cache hierarchy mid-run (interrupt handler
    /// or preemption working-set displacement).
    pub fn pollute_caches(&mut self, frac_l1: f64, frac_l2: f64, salt: u64) {
        self.l1d.pollute(frac_l1, salt);
        self.l1i.pollute(frac_l1 * 0.5, salt ^ 0x5a);
        self.l2.pollute(frac_l2, salt ^ 0xa5);
    }

    /// Drop all TLB entries (context-switch cost on a preemption).
    pub fn tlb_flush(&mut self) {
        self.tlb.flush();
    }

    /// Pollute caches and predictor to model an uncontrolled start state.
    pub fn dirty_start(&mut self, salt: u64) {
        self.l1i.pollute(0.8, salt ^ 0x11);
        self.l1d.pollute(0.8, salt ^ 0x22);
        self.l2.pollute(0.9, salt ^ 0x33);
        // A dirty BTB is modeled by leaving it cold here but polluted caches
        // dominate; the predictor trains quickly either way.
    }

    /// Flush caches, TLB, predictor; precharge DRAM; clear DMA windows.
    /// Returns the cycles the flush itself takes (proportional to dirty
    /// lines, as `wbinvd` is), which the caller should add as quiescence.
    pub fn flush_all(&mut self) -> Cycles {
        let d1 = self.l1d.flush();
        let d2 = self.l2.flush();
        self.l1i.flush();
        self.tlb.flush();
        self.btb.flush();
        self.dram.precharge_all();
        self.bus.quiesce();
        // Each dirty line takes one bus beat to write back.
        (d1 + d2) * self.params.bus.beat_cycles + 200
    }

    /// Let `cycles` pass without executing instructions (quiescence period,
    /// §3.6, or modeled preemption on non-Sanity hosts).
    pub fn idle(&mut self, cycles: Cycles) {
        self.cycle += cycles;
    }

    /// Access through L2 (called on an L1 miss or L1 writeback); returns
    /// cycles.
    #[inline]
    fn l2_access(&mut self, paddr: PAddr, write: bool) -> Cycles {
        let mut cycles = self.params.l2.hit_cycles;
        let res = self.l2.access(paddr, write);
        if !res.hit {
            // Line fill from DRAM over the shared bus.
            cycles += self.dram.access(paddr);
            cycles += self.bus.tc_request(self.cycle + cycles, 1);
        }
        if res.writeback {
            // Dirty L2 victim goes to DRAM over the bus.
            cycles += self.bus.tc_request(self.cycle + cycles, 1);
        }
        cycles
    }

    /// Charge one data reference; returns (cycles, missed_l1).
    #[inline]
    fn data_ref(&mut self, r: &MemRef) -> (Cycles, bool) {
        let mut cycles = self.tlb.access(r.vaddr);
        cycles += self.params.l1d.hit_cycles;
        let res = self.l1d.access(r.paddr, r.write);
        if res.writeback {
            cycles += self.l2_access(r.paddr ^ 0x8000_0000, true);
        }
        if !res.hit {
            cycles += self.l2_access(r.paddr, false);
        }
        (cycles, !res.hit)
    }

    /// Charge an instruction fetch; returns (cycles, missed_l1i).
    #[inline]
    fn fetch(&mut self, vaddr: u64, paddr: PAddr) -> (Cycles, bool) {
        let mut cycles = self.tlb.access(vaddr);
        cycles += self.params.l1i.hit_cycles;
        let res = self.l1i.access(paddr, false);
        if !res.hit {
            cycles += self.l2_access(paddr, false);
        }
        (cycles, !res.hit)
    }

    /// Charge one standalone data access (used by the platform's ring
    /// buffers and native handlers, whose memory traffic is not part of a
    /// bytecode instruction); advances the clock.
    pub fn mem_access(&mut self, vaddr: u64, paddr: PAddr, write: bool) -> Cycles {
        let (c, _) = self.data_ref(&MemRef {
            vaddr,
            paddr,
            write,
        });
        self.cycle += c;
        c
    }

    /// Resolve a standalone branch (used by the naive, asymmetric buffer
    /// access in the ablation experiments); advances the clock.
    pub fn branch_only(&mut self, pc: PAddr, taken: bool, target: PAddr) -> Cycles {
        let p = self.btb.resolve(pc, taken, target);
        self.cycle += p;
        p
    }

    /// Execute one instruction:
    ///
    /// * `base` — engine cost (dispatch + op class);
    /// * `pc` — fetch virtual/physical address;
    /// * `mem` — data references;
    /// * `branch` — `(taken, target_paddr)` if this is a branch.
    ///
    /// Advances the core clock and returns the per-instruction breakdown.
    #[inline]
    pub fn step(
        &mut self,
        base: Cycles,
        pc: (u64, PAddr),
        mem: &[MemRef],
        branch: Option<(bool, PAddr)>,
    ) -> InstrTiming {
        let mut t = InstrTiming {
            cycles: base,
            ..Default::default()
        };
        let (fc, fmiss) = self.fetch(pc.0, pc.1);
        t.cycles += fc;
        t.fetch_miss = fmiss;
        for r in mem {
            let (mc, miss) = self.data_ref(r);
            t.cycles += mc;
            t.data_misses += miss as u8;
        }
        if let Some((taken, target)) = branch {
            let pen = self.btb.resolve(pc.1, taken, target);
            t.mispredict = pen > 0;
            t.cycles += pen;
        }
        self.cycle += t.cycles;
        self.retired += 1;
        t
    }

    /// Snapshot all counters.
    pub fn stats(&self) -> CoreStats {
        let (i_h, i_m, _) = self.l1i.stats();
        let (d_h, d_m, _) = self.l1d.stats();
        let (l2_h, l2_m, _) = self.l2.stats();
        CoreStats {
            retired: self.retired,
            cycles: self.cycle,
            l1i: (i_h, i_m),
            l1d: (d_h, d_m),
            l2: (l2_h, l2_m),
            tlb: self.tlb.stats(),
            branch: self.btb.stats(),
            bus: self.bus.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core() -> CoreModel {
        CoreModel::new(CoreParams::default_params(), 42)
    }

    #[test]
    fn cold_fetch_costs_more_than_warm() {
        let mut c = core();
        let t1 = c.step(5, (0x1000, 0x1000), &[], None);
        let t2 = c.step(5, (0x1000, 0x1000), &[], None);
        assert!(t1.fetch_miss);
        assert!(!t2.fetch_miss);
        assert!(t1.cycles > t2.cycles);
    }

    #[test]
    fn data_misses_counted() {
        let mut c = core();
        let refs = [MemRef {
            vaddr: 0x20_0000,
            paddr: 0x20_0000,
            write: false,
        }];
        let t1 = c.step(5, (0x1000, 0x1000), &refs, None);
        assert_eq!(t1.data_misses, 1);
        let t2 = c.step(5, (0x1000, 0x1000), &refs, None);
        assert_eq!(t2.data_misses, 0);
    }

    #[test]
    fn identical_runs_are_cycle_identical() {
        let run = |seed| {
            let mut c = CoreModel::new(CoreParams::default_params(), seed);
            for k in 0..1000u64 {
                let addr = 0x10_0000 + (k % 64) * 64;
                c.step(
                    6,
                    (0x1000 + (k % 16) * 4, 0x1000 + (k % 16) * 4),
                    &[MemRef {
                        vaddr: addr,
                        paddr: addr,
                        write: k % 3 == 0,
                    }],
                    Some((k % 5 == 0, 0x2000)),
                );
            }
            c.now()
        };
        // Without DMA traffic there is no jitter, so even different bus
        // seeds give identical cycle counts.
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn dma_contention_perturbs_timing() {
        let run = |dma: bool, seed: u64| {
            let mut c = CoreModel::new(CoreParams::default_params(), seed);
            if dma {
                for k in 0..200 {
                    c.bus_mut().schedule_dma(k * 500, 1500);
                }
            }
            for k in 0..5000u64 {
                let addr = 0x10_0000 + (k * 64) % (1 << 20);
                c.step(
                    6,
                    (0x1000, 0x1000),
                    &[MemRef {
                        vaddr: addr,
                        paddr: addr,
                        write: false,
                    }],
                    None,
                );
            }
            c.now()
        };
        let clean = run(false, 1);
        let noisy = run(true, 1);
        assert!(noisy > clean, "DMA contention must slow the TC down");
        // Jitter: same DMA schedule, different arbitration seeds.
        let a = run(true, 1);
        let b = run(true, 2);
        assert_ne!(a, b, "arbitration jitter differs across seeds");
        let rel = (a as f64 - b as f64).abs() / a as f64;
        assert!(rel < 0.02, "jitter is small: {rel}");
    }

    #[test]
    fn flush_all_resets_hierarchy() {
        let mut c = core();
        c.step(
            5,
            (0x1000, 0x1000),
            &[MemRef {
                vaddr: 0x9000,
                paddr: 0x9000,
                write: true,
            }],
            None,
        );
        let cost = c.flush_all();
        assert!(cost > 0);
        let t = c.step(5, (0x1000, 0x1000), &[], None);
        assert!(t.fetch_miss, "flush emptied L1I");
    }

    #[test]
    fn dirty_start_changes_first_touch_timing() {
        let mut clean = core();
        let mut dirty = core();
        dirty.dirty_start(7);
        // Pollution leaves resident garbage lines; a fresh working set then
        // evicts them, producing writebacks the clean run does not have.
        let mut cl = 0;
        let mut dt = 0;
        for k in 0..512u64 {
            let addr = 0x40_0000 + k * 64;
            let r = [MemRef {
                vaddr: addr,
                paddr: addr,
                write: true,
            }];
            cl += clean.step(5, (0x1000, 0x1000), &r, None).cycles;
            dt += dirty.step(5, (0x1000, 0x1000), &r, None).cycles;
        }
        assert!(dt > cl, "dirty start must cost extra writebacks");
    }

    #[test]
    fn cost_model_orderings_hold() {
        let s = CostModel::sanity_interpreter();
        let i = CostModel::oracle_interpreter();
        let j = CostModel::oracle_jit();
        assert!(s.dispatch > i.dispatch, "TDR bookkeeping costs dispatch");
        assert!(i.dispatch > j.dispatch);
        assert!(j.alu_fp < i.alu_fp);
    }

    #[test]
    fn idle_advances_clock_without_retiring() {
        let mut c = core();
        c.idle(1234);
        assert_eq!(c.now(), 1234);
        assert_eq!(c.retired(), 0);
    }

    #[test]
    fn stats_snapshot_consistent() {
        let mut c = core();
        for _ in 0..10 {
            c.step(5, (0x1000, 0x1000), &[], None);
        }
        let s = c.stats();
        assert_eq!(s.retired, 10);
        assert_eq!(s.l1i.0 + s.l1i.1, 10);
        assert_eq!(s.cycles, c.now());
    }
}
