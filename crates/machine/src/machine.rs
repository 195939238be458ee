//! The simulated machine: timed core + supporting core + devices.
//!
//! [`Machine`] is the platform the VM executes against. It owns the TC's
//! [`CoreModel`], the frequency governor (cycles → wall-clock), the address
//! space, the two ring buffers, the NIC and storage device, and the noise
//! injector for the configured [`Environment`].
//!
//! The supporting core is modeled by its externally visible effects:
//!
//! * received packets are DMA'd over the shared bus, then appear in the S-T
//!   buffer after a fixed SC processing latency;
//! * transmitted packets leave the T-S buffer after a fixed SC latency;
//! * during play the SC periodically flushes the event log to storage; the
//!   resulting DMA is the *residual* noise source that remains even under
//!   the full Sanity configuration (§6.9) — replay performs the mirror-image
//!   log *reads* on the same cadence (play/replay I/O is "reduced", not
//!   eliminated — Table 1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use sim_core::{CoreModel, CoreParams, CoreStats, Cycles, FrequencyGovernor, InstrTiming, MemRef};

use crate::addr::{AddressSpace, FramePolicy};
use crate::device::{Nic, Storage, StorageKind, TxRecord};
use crate::noise::{Environment, NoiseConfig, NoiseInjector};
use crate::ringbuf::{Phase, StBuffer, StEntry, TsBuffer};
use crate::sched::{ComponentId, TickQueue};

/// Kind of a recorded event mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MarkKind {
    /// A packet was consumed from the S-T buffer.
    PacketIn,
    /// A packet was written to the T-S buffer.
    PacketOut,
    /// A wall-clock read went through the T-S buffer.
    TimeRead,
}

/// A timestamped point in the execution, used to compare the progress of
/// play and replay event-by-event (Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventMark {
    /// What happened.
    pub kind: MarkKind,
    /// TC cycle at the event.
    pub cycle: Cycles,
    /// Wall-clock picoseconds at the event.
    pub wall_ps: u128,
}

/// Simulated memory map (virtual addresses).
pub mod map {
    /// Base of the bytecode region (matches `jbc::builder::CODE_BASE`).
    pub const CODE: u64 = 0x0000_0000;
    /// Base of the static-field area.
    pub const STATICS: u64 = 0x0100_0000;
    /// Base of the VM heap.
    pub const HEAP: u64 = 0x0200_0000;
    /// Base of the thread-stack region (locals/frames).
    pub const STACKS: u64 = 0x0A00_0000;
    /// Base of the S-T ring buffer.
    pub const ST_BUF: u64 = 0x0B00_0000;
    /// Base of the T-S ring buffer.
    pub const TS_BUF: u64 = 0x0B10_0000;
    /// VMM scratch (naive-cell branch PCs and the like).
    pub const VMM: u64 = 0x0B20_0000;
    /// Total mapped size.
    pub const TOTAL: u64 = 0x0B30_0000;
}

/// Seeds for the per-run stochastic components.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Seeds {
    /// Noise injector schedule.
    pub noise: u64,
    /// Bus arbitration jitter.
    pub bus: u64,
    /// Frequency governor wander.
    pub freq: u64,
    /// Frame assignment permutation.
    pub frames: u64,
    /// Storage latency variance.
    pub storage: u64,
}

impl Seeds {
    /// Spread a single run number into independent component seeds.
    pub fn from_run(run: u64) -> Self {
        let mix = |salt: u64| {
            run.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(salt)
                .rotate_left(17)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9)
        };
        Seeds {
            noise: mix(1),
            bus: mix(2),
            freq: mix(3),
            frames: mix(4),
            storage: mix(5),
        }
    }
}

/// Machine configuration: Table 1 as toggles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Microarchitecture of the timed core.
    pub core: CoreParams,
    /// Nominal clock, Hz. All experiments use a 100 MHz-class simulated
    /// clock; reported results are relative, so the constant cancels.
    pub nominal_hz: u64,
    /// The host environment (noise profile, frequency policy, frames).
    pub env: Environment,
    /// Confine device interrupts to the supporting core (§3.3). When false,
    /// every NIC delivery also interrupts the timed core.
    pub tc_sc_split: bool,
    /// Use the branch-free symmetric buffer access (§3.5). When false, the
    /// naive flag-checking access is used (ablation).
    pub symmetric_access: bool,
    /// Pad storage requests to their worst case (§3.7).
    pub io_padding: bool,
    /// Storage device kind.
    pub storage: StorageKind,
    /// Flush caches/TLB/BTB and quiesce before the run starts (§3.6).
    pub flush_on_start: bool,
    /// Quiescence period after the flush, in cycles.
    pub quiesce_cycles: Cycles,
    /// SC log-flush cadence in cycles (0 disables housekeeping DMA).
    pub sc_log_flush_interval: Cycles,
    /// SC heartbeat cadence (0 disables). The supporting core's own
    /// housekeeping (status pages, device maintenance, log bookkeeping)
    /// periodically occupies the shared memory bus; the TC loses a small,
    /// run-specific number of cycles each time. This is the §6.9 residual:
    /// "contention between the SC and the TC on the memory bus might affect
    /// different executions in slightly different ways".
    pub sc_heartbeat_interval: Cycles,
    /// Worst-case TC stall per heartbeat, cycles.
    pub sc_heartbeat_stall_max: Cycles,
    /// Override the environment's frame policy (ablations).
    pub frame_policy_override: Option<FramePolicy>,
    /// Override the environment's frequency policy (ablations).
    pub freq_policy_override: Option<sim_core::FreqPolicy>,
}

impl MachineConfig {
    /// The full Sanity configuration: every Table 1 mitigation on.
    pub fn sanity() -> Self {
        MachineConfig {
            core: CoreParams::default_params(),
            nominal_hz: 100_000_000,
            env: Environment::Sanity,
            tc_sc_split: true,
            symmetric_access: true,
            io_padding: true,
            storage: StorageKind::RamDisk,
            flush_on_start: true,
            quiesce_cycles: 10_000,
            sc_log_flush_interval: 1_000_000,
            sc_heartbeat_interval: 400_000,
            sc_heartbeat_stall_max: 5_000,
            frame_policy_override: None,
            freq_policy_override: None,
        }
    }

    /// An ordinary host in the given environment (no TDR mitigations).
    pub fn host(env: Environment) -> Self {
        MachineConfig {
            core: CoreParams::default_params(),
            nominal_hz: 100_000_000,
            env,
            tc_sc_split: false,
            symmetric_access: false,
            io_padding: false,
            storage: StorageKind::RamDisk,
            flush_on_start: env == Environment::KernelQuiet,
            quiesce_cycles: 0,
            sc_log_flush_interval: 0,
            // Hosts without the split get their noise from the environment.
            sc_heartbeat_interval: 0,
            sc_heartbeat_stall_max: 0,
            frame_policy_override: None,
            freq_policy_override: None,
        }
    }
}

/// The simulated machine. See the [module docs](self).
#[derive(Debug)]
pub struct Machine {
    cfg: MachineConfig,
    noise_cfg: NoiseConfig,
    core: CoreModel,
    governor: FrequencyGovernor,
    aspace: AddressSpace,
    st: StBuffer,
    ts: TsBuffer,
    nic: Nic,
    storage: Storage,
    noise: NoiseInjector,
    phase: Phase,
    tx: Vec<TxRecord>,
    /// Cycle up to which the governor has been advanced.
    synced: Cycles,
    /// Log bytes produced since the last SC flush.
    pending_log_bytes: u64,
    next_log_flush: Cycles,
    /// Pending device-IRQ deliveries to the TC (only when the TC/SC split
    /// is disabled).
    pending_tc_irqs: std::collections::VecDeque<Cycles>,
    log_dma_bytes: u64,
    marks: Vec<EventMark>,
    /// SC-side nondeterminism (heartbeat interference, processing jitter).
    sc_rng: StdRng,
    next_heartbeat: Cycles,
    /// Discrete-event schedule of the housekeeping components.
    tickq: TickQueue,
    /// Test oracle: run housekeeping after every step, as the
    /// scan-everything design the tick queue replaced did.
    #[cfg(test)]
    scan_every_step: bool,
}

impl Machine {
    /// Build a machine for one run.
    pub fn new(cfg: MachineConfig, seeds: Seeds) -> Self {
        let noise_cfg = cfg.env.noise_config();
        let frame_policy = cfg.frame_policy_override.unwrap_or(match cfg.env {
            Environment::Sanity => FramePolicy::Pinned,
            _ => noise_cfg.frame_policy,
        });
        let freq_policy = cfg.freq_policy_override.unwrap_or(noise_cfg.freq_policy);
        let core = CoreModel::new(cfg.core, seeds.bus);
        let governor = FrequencyGovernor::new(cfg.nominal_hz, freq_policy, seeds.freq);
        let mut m = Machine {
            core,
            governor,
            aspace: AddressSpace::new(map::TOTAL, frame_policy, seeds.frames),
            st: StBuffer::new(map::ST_BUF, 240),
            ts: TsBuffer::new(map::TS_BUF, 4096),
            nic: Nic::new(),
            storage: Storage::new(cfg.storage, cfg.io_padding, seeds.storage),
            noise: NoiseInjector::new(noise_cfg, seeds.noise),
            phase: Phase::Play,
            tx: Vec::new(),
            synced: 0,
            pending_log_bytes: 0,
            next_log_flush: cfg.sc_log_flush_interval.max(1),
            pending_tc_irqs: std::collections::VecDeque::new(),
            log_dma_bytes: 0,
            marks: Vec::new(),
            sc_rng: StdRng::seed_from_u64(seeds.noise ^ 0x5c5c),
            next_heartbeat: cfg.sc_heartbeat_interval.max(1),
            tickq: TickQueue::new(),
            #[cfg(test)]
            scan_every_step: false,
            noise_cfg,
            cfg,
        };
        m.rearm();
        m
    }

    fn mark(&mut self, kind: MarkKind) {
        let cycle = self.core.now();
        self.sync();
        self.marks.push(EventMark {
            kind,
            cycle,
            wall_ps: self.governor.elapsed_ps(),
        });
    }

    /// The active configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current phase (play or replay).
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Prepare the machine state for the run: flush + quiesce under Sanity
    /// rules, or pollute the caches for dirty-start environments (§3.6).
    ///
    /// Without the flush, the machine starts with whatever the previous
    /// activity left in the caches — different every run, which is exactly
    /// why the paper flushes and quiesces before execution begins.
    pub fn start_run(&mut self) {
        if self.cfg.flush_on_start {
            let flush_cost = self.core.flush_all();
            self.core.idle(flush_cost + self.cfg.quiesce_cycles);
        }
        if self.noise_cfg.dirty_start || !self.cfg.flush_on_start {
            let salt = self.sc_rng.gen::<u64>();
            self.core.dirty_start(salt);
        }
        if !self.cfg.flush_on_start {
            // No quiescence period: whatever DMA the devices still had in
            // flight (the reason §3.6 waits before starting) lands on the
            // bus during early execution, differently every run.
            let leftover = self.sc_rng.gen_range(0..200_000u64);
            let now = self.core.now();
            self.core.bus_mut().schedule_dma(now, leftover);
        }
        self.sync();
    }

    /// Switch to replay, preloading logged S-T entries and T-S values.
    ///
    /// The SC's replay-side work mirrors play: for every logged packet it
    /// *reads* the log and writes the S-T buffer, producing bus traffic on
    /// the same schedule as the original NIC DMA — record and replay I/O is
    /// "reduced, not eliminated" (Table 1), and this is what keeps the bus
    /// contention pattern aligned between the phases.
    pub fn enter_replay(&mut self, st_entries: Vec<StEntry>, ts_values: Vec<u64>) {
        self.phase = Phase::Replay;
        for e in &st_entries {
            self.core
                .bus_mut()
                .schedule_dma(e.wire_at, e.data.len() as u64);
        }
        self.st.enter_replay(st_entries);
        self.ts.enter_replay(ts_values);
    }

    // ---- clock -----------------------------------------------------------

    /// Current TC cycle.
    pub fn now_cycles(&self) -> Cycles {
        self.core.now()
    }

    /// Current wall-clock picoseconds (via the frequency governor).
    pub fn now_ps(&mut self) -> u128 {
        self.sync();
        self.governor.elapsed_ps()
    }

    #[inline]
    fn sync(&mut self) {
        let now = self.core.now();
        if now > self.synced {
            self.governor.advance(now - self.synced);
            self.synced = now;
        }
    }

    // ---- instruction execution -------------------------------------------

    /// Execute one instruction on the TC.
    ///
    /// `refs` are `(vaddr, is_write)` pairs (at most 4); `branch` is
    /// `(taken, target_vaddr)`. The machine translates addresses, charges
    /// the core model, applies due noise events, and advances the governor.
    #[inline]
    pub fn step_instr(
        &mut self,
        base: Cycles,
        pc_vaddr: u64,
        refs: &[(u64, bool)],
        branch: Option<(bool, u64)>,
    ) -> InstrTiming {
        debug_assert!(refs.len() <= 4, "at most 4 data refs per instruction");
        let mut buf = [MemRef {
            vaddr: 0,
            paddr: 0,
            write: false,
        }; 4];
        let n = refs.len().min(4);
        for (i, &(va, w)) in refs.iter().take(4).enumerate() {
            buf[i] = MemRef {
                vaddr: va,
                paddr: self.aspace.translate(va),
                write: w,
            };
        }
        let pc = (pc_vaddr, self.aspace.translate(pc_vaddr));
        let br = branch.map(|(taken, tv)| (taken, self.aspace.translate(tv)));
        let t = self.core.step(base, pc, &buf[..n], br);
        self.post_step();
        t
    }

    /// Let cycles pass without retiring instructions (used by the VM for
    /// calibrated delays and by I/O waits).
    pub fn idle(&mut self, cycles: Cycles) {
        self.core.idle(cycles);
        self.post_step();
    }

    #[inline]
    fn post_step(&mut self) {
        // Discrete-event gate: skip the whole housekeeping block unless a
        // component is actually due. The governor sync below stays
        // UNCONDITIONAL — non-Fixed governors advance in chunks whose
        // float truncation depends on call granularity, so wall-clock time
        // is only reproducible if `sync` runs on exactly the same schedule
        // whether the gate or the test oracle's scan decides.
        let due = self.tickq.any_due(self.core.now());
        #[cfg(test)]
        let due = due || self.scan_every_step;
        if due {
            self.run_housekeeping();
        }
        self.sync();
    }

    /// One pass over the housekeeping components, in canonical order —
    /// exactly the body the scan-everything design ran on every call. Each
    /// component re-checks its own due condition here, so a conservative
    /// (stale/early) tick-queue entry can never change simulated time.
    fn run_housekeeping(&mut self) {
        self.tickq.drain_due(self.core.now());
        self.noise.apply(&mut self.core);
        // Device IRQs on the TC (no TC/SC split): each pending delivery
        // whose time has come costs a handler invocation.
        while let Some(&t) = self.pending_tc_irqs.front() {
            if t <= self.core.now() {
                self.pending_tc_irqs.pop_front();
                self.core.idle(2_500);
                self.core.pollute_caches(0.04, 0.02, t);
            } else {
                break;
            }
        }
        // SC heartbeat: bounded, run-specific bus interference (§6.9).
        if self.cfg.sc_heartbeat_interval > 0 && self.core.now() >= self.next_heartbeat {
            let stall = self.sc_rng.gen_range(0..=self.cfg.sc_heartbeat_stall_max);
            let now = self.core.now();
            self.core.bus_mut().schedule_dma(now, 256);
            self.core.idle(stall);
            self.next_heartbeat = self.core.now() + self.cfg.sc_heartbeat_interval;
        }
        // SC log housekeeping (both phases: write during play, read during
        // replay — same cadence, same DMA size, different direction).
        if self.cfg.sc_log_flush_interval > 0
            && self.pending_log_bytes > 0
            && self.core.now() >= self.next_log_flush
        {
            let bytes = self.pending_log_bytes + 64; // Flush header.
            let now = self.core.now();
            self.core.bus_mut().schedule_dma(now, bytes);
            self.log_dma_bytes += bytes;
            self.pending_log_bytes = 0;
            self.next_log_flush = self.core.now() + self.cfg.sc_log_flush_interval;
        }
        self.rearm();
    }

    /// Re-arm the tick queue with every component's current next due
    /// cycle. Conservative duplicates are harmless (lazy deletion).
    fn rearm(&mut self) {
        if let Some(t) = self.noise.next_event() {
            self.tickq.push(t, ComponentId::Noise);
        }
        if let Some(&t) = self.pending_tc_irqs.front() {
            self.tickq.push(t, ComponentId::TcIrq);
        }
        if self.cfg.sc_heartbeat_interval > 0 {
            self.tickq.push(self.next_heartbeat, ComponentId::Heartbeat);
        }
        if self.cfg.sc_log_flush_interval > 0 && self.pending_log_bytes > 0 {
            self.tickq.push(self.next_log_flush, ComponentId::LogFlush);
        }
    }

    /// Account `bytes` of pending SC log material, arming the log-flush
    /// component if this is the first pending byte since the last flush.
    fn note_log_bytes(&mut self, bytes: u64) {
        if self.pending_log_bytes == 0 && bytes > 0 && self.cfg.sc_log_flush_interval > 0 {
            self.tickq.push(self.next_log_flush, ComponentId::LogFlush);
        }
        self.pending_log_bytes += bytes;
    }

    // ---- network ----------------------------------------------------------

    /// Deliver a packet from the wire at absolute cycle `at` (play only).
    /// The NIC DMAs it across the shared bus; it becomes visible in the S-T
    /// buffer after the SC's processing latency. Returns false if the ring
    /// was full and the packet was dropped.
    pub fn deliver_packet(&mut self, at: Cycles, data: Vec<u8>) -> bool {
        debug_assert!(
            matches!(self.phase, Phase::Play),
            "during replay inputs come from the log"
        );
        self.nic.note_rx(data.len());
        let dma_end = self.core.bus_mut().schedule_dma(at, data.len() as u64);
        let avail = dma_end + self.nic.sc_rx_cycles;
        if !self.cfg.tc_sc_split {
            self.pending_tc_irqs.push_back(avail);
            self.tickq.push(avail, ComponentId::TcIrq);
        }
        self.st.sc_append(data, avail, at)
    }

    /// TC-side poll of the S-T buffer at instruction count `icount`.
    /// Returns `(payload, virtual timestamp)` if an entry was consumed.
    pub fn poll_packet(&mut self, icount: u64) -> Option<(Vec<u8>, u64)> {
        let now = self.core.now();
        let r = self.st.tc_poll(icount, now, &mut self.core, &self.aspace);
        if r.is_some() {
            // Play: the entry (payload + timestamp) must be written to the
            // log (§6.5). Replay: the SC reads the same bytes back — the
            // housekeeping DMA cadence is symmetric either way.
            let bytes = r.as_ref().map(|(d, _)| d.len() as u64 + 16).unwrap_or(0);
            self.note_log_bytes(bytes);
            self.mark(MarkKind::PacketIn);
        }
        self.post_step();
        r
    }

    /// Record a logged event value (e.g. `System.nanoTime`) through the T-S
    /// buffer with the configured access discipline. Returns the value the
    /// program must use (produced during play, injected during replay).
    pub fn event_value(&mut self, produced: u64) -> u64 {
        let v = if self.cfg.symmetric_access {
            self.ts.event_value(produced, &mut self.core, &self.aspace)
        } else {
            // Ablation: the naive access. Functionally it consumes the same
            // logged values, but timing-wise it adds a phase-dependent
            // branch, an asymmetric (dirty-vs-clean) cell access, and the
            // record-vs-inject code-path cost difference (§2.5: recording
            // reads a device register, injecting walks the log).
            let replay = matches!(self.phase, Phase::Replay);
            let injected = self.ts.event_value(produced, &mut self.core, &self.aspace);
            self.core.idle(if replay { 3_200 } else { 800 });
            let pc = map::VMM + 0x100;
            let ppc = self.aspace.translate(pc);
            self.core.branch_only(ppc, !replay, ppc + 64);
            let cell = map::VMM + 0x200;
            let pcell = self.aspace.translate(cell);
            self.core.mem_access(cell, pcell, !replay);
            injected
        };
        // Both phases move these 8 bytes between the SC and the log.
        self.note_log_bytes(8);
        self.mark(MarkKind::TimeRead);
        self.post_step();
        v
    }

    /// Transmit a packet: TC writes it to the T-S buffer; the SC forwards it
    /// to the wire. The send is recorded with its cycle and wall time.
    pub fn send_packet(&mut self, data: &[u8]) {
        self.ts.send_packet(data, &mut self.core, &self.aspace);
        self.nic.note_tx(data.len());
        let now = self.core.now();
        let tx_cycle = now + self.nic.sc_tx_cycles;
        // DMA of the payload to the NIC.
        self.core.bus_mut().schedule_dma(now, data.len() as u64);
        self.sync();
        let extra_ps = FrequencyGovernor::nominal_ps(self.cfg.nominal_hz, self.nic.sc_tx_cycles);
        self.tx.push(TxRecord {
            cycle: tx_cycle,
            wall_ps: self.governor.elapsed_ps() + extra_ps,
            data: data.to_vec(),
        });
        self.mark(MarkKind::PacketOut);
        self.post_step();
    }

    /// Read `bytes` from storage at `lba`; the TC blocks for the device
    /// latency (padded to worst case if configured) and the data is DMA'd.
    pub fn storage_read(&mut self, lba: u64, bytes: u64) -> Cycles {
        let lat = self.storage.read_latency(lba, bytes);
        let start = self.core.now() + lat;
        self.core.bus_mut().schedule_dma(start, bytes);
        self.core.idle(lat);
        self.post_step();
        lat
    }

    // ---- accessors ---------------------------------------------------------

    /// Touch a contiguous simulated region line by line (bulk array fills,
    /// packet copies into the heap). Charges one access per 64-byte line.
    pub fn bulk_touch(&mut self, base_vaddr: u64, bytes: u64, write: bool) {
        let lines = bytes.div_ceil(64).max(1);
        for k in 0..lines {
            let va = base_vaddr + k * 64;
            let pa = self.aspace.translate(va);
            self.core.mem_access(va, pa, write);
        }
        self.post_step();
    }

    /// Cycle at which the next S-T entry becomes observable, if any.
    pub fn next_packet_ready_at(&self) -> Option<Cycles> {
        self.st.front_avail()
    }

    /// Take the transmitted-packet trace recorded so far.
    pub fn take_tx(&mut self) -> Vec<TxRecord> {
        std::mem::take(&mut self.tx)
    }

    /// Take the event-mark timeline recorded so far.
    pub fn take_marks(&mut self) -> Vec<EventMark> {
        std::mem::take(&mut self.marks)
    }

    /// Take the packets consumed during play (log material).
    pub fn take_consumed_packets(&mut self) -> Vec<StEntry> {
        self.st.take_consumed_log()
    }

    /// Event values drained from the T-S buffer during play (log material).
    pub fn drain_logged_values(&mut self) -> Vec<u64> {
        self.ts.drain_values()
    }

    /// Core statistics snapshot.
    pub fn core_stats(&self) -> CoreStats {
        self.core.stats()
    }

    /// Total bytes of log-flush DMA issued by the SC.
    pub fn log_dma_bytes(&self) -> u64 {
        self.log_dma_bytes
    }

    /// The address space (white-box tests).
    pub fn aspace(&self) -> &AddressSpace {
        &self.aspace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sanity_machine(run: u64) -> Machine {
        Machine::new(MachineConfig::sanity(), Seeds::from_run(run))
    }

    #[test]
    fn start_run_flushes_under_sanity() {
        let mut m = sanity_machine(1);
        m.start_run();
        assert!(m.now_cycles() >= 10_000, "quiescence period elapsed");
    }

    #[test]
    fn step_instr_advances_clock_and_wall() {
        let mut m = sanity_machine(1);
        m.start_run();
        let c0 = m.now_cycles();
        m.step_instr(10, 0x1_0000, &[(map::HEAP, false)], None);
        assert!(m.now_cycles() > c0);
        let ps = m.now_ps();
        // 100 MHz → 10_000 ps per cycle.
        assert_eq!(ps, m.now_cycles() as u128 * 10_000);
    }

    #[test]
    fn packet_roundtrip_play() {
        let mut m = sanity_machine(2);
        m.start_run();
        m.deliver_packet(m.now_cycles(), vec![42; 100]);
        // Let the DMA and SC processing finish.
        m.idle(20_000);
        let got = m.poll_packet(123).expect("packet visible");
        assert_eq!(got.0, vec![42; 100]);
        assert_eq!(got.1, 123);
    }

    #[test]
    fn packet_not_visible_before_sc_latency() {
        let mut m = sanity_machine(3);
        m.start_run();
        let now = m.now_cycles();
        m.deliver_packet(now + 5_000, vec![1]);
        assert!(m.poll_packet(1).is_none(), "not yet DMA'd");
    }

    #[test]
    fn replay_injects_logged_packets_at_icount() {
        let mut m = sanity_machine(4);
        m.start_run();
        m.enter_replay(
            vec![StEntry {
                ts: 50,
                data: vec![7; 10],
                avail_at: 0,
                wire_at: 0,
            }],
            vec![],
        );
        assert!(m.poll_packet(49).is_none());
        let (d, ts) = m.poll_packet(50).expect("injected at icount 50");
        assert_eq!(d, vec![7; 10]);
        assert_eq!(ts, 50);
    }

    #[test]
    fn event_values_recorded_then_injected() {
        let mut m = sanity_machine(5);
        m.start_run();
        assert_eq!(m.event_value(111), 111);
        assert_eq!(m.event_value(222), 222);
        let logged = m.drain_logged_values();
        assert_eq!(logged, vec![111, 222]);

        let mut r = sanity_machine(6);
        r.start_run();
        r.enter_replay(vec![], logged);
        assert_eq!(r.event_value(999), 111, "replay returns the logged value");
        assert_eq!(r.event_value(888), 222);
    }

    #[test]
    fn send_packet_records_tx_with_wall_time() {
        let mut m = sanity_machine(7);
        m.start_run();
        m.send_packet(&[1, 2, 3]);
        m.step_instr(10, 0x1_0000, &[], None);
        m.send_packet(&[4, 5, 6]);
        let tx = m.take_tx();
        assert_eq!(tx.len(), 2);
        assert!(tx[1].cycle > tx[0].cycle);
        assert!(tx[1].wall_ps > tx[0].wall_ps);
        assert_eq!(tx[0].data, vec![1, 2, 3]);
    }

    #[test]
    fn storage_read_blocks_tc() {
        let mut m = sanity_machine(8);
        m.start_run();
        let c0 = m.now_cycles();
        let lat = m.storage_read(0, 4096);
        assert!(lat > 0);
        assert!(m.now_cycles() >= c0 + lat);
    }

    #[test]
    fn io_padding_makes_storage_deterministic() {
        let run = |seed: u64| {
            let mut m = Machine::new(MachineConfig::sanity(), Seeds::from_run(seed));
            m.start_run();
            (0..10).map(|k| m.storage_read(k * 997, 2048)).sum::<u64>()
        };
        assert_eq!(run(1), run(2), "padded I/O ignores the storage seed");
    }

    #[test]
    fn no_split_interrupts_the_tc() {
        let mut cfg = MachineConfig::sanity();
        cfg.tc_sc_split = false;
        let mut with_irq = Machine::new(cfg, Seeds::from_run(9));
        with_irq.start_run();
        let mut without = sanity_machine(9);
        without.start_run();

        for m in [&mut with_irq, &mut without] {
            let now = m.now_cycles();
            for k in 0..10 {
                m.deliver_packet(now + k * 100, vec![0; 256]);
            }
        }
        // Execute identical work on both.
        let work = |m: &mut Machine| {
            let c0 = m.now_cycles();
            for _ in 0..1000 {
                m.step_instr(10, 0x1_0000, &[(map::HEAP, false)], None);
            }
            m.now_cycles() - c0
        };
        let t_irq = work(&mut with_irq);
        let t_split = work(&mut without);
        assert!(
            t_irq > t_split,
            "TC-handled interrupts must slow the TC: {t_irq} vs {t_split}"
        );
    }

    #[test]
    fn log_housekeeping_produces_dma() {
        let mut m = sanity_machine(10);
        m.start_run();
        for k in 0..50 {
            m.event_value(k);
            m.idle(100_000);
        }
        assert!(m.log_dma_bytes() > 0, "SC flushed the log");
    }

    #[test]
    fn event_ticking_is_bit_identical_to_scanning() {
        // The tick queue must never change simulated time — only skip
        // no-op housekeeping scans. Run an eventful mix (instructions,
        // idles, packets, event values) in a noisy environment with the
        // queue and with the scan after every step it replaced, and
        // require identical clocks, wall time, and event counts.
        let run = |scan_every_step: bool, env: Environment| {
            let mut cfg = MachineConfig::sanity();
            cfg.env = env;
            cfg.tc_sc_split = false; // Exercise the TC-IRQ component too.
            let mut m = Machine::new(cfg, Seeds::from_run(42));
            m.scan_every_step = scan_every_step;
            m.start_run();
            let base = m.now_cycles();
            for k in 0..40u64 {
                m.deliver_packet(base + k * 90_000, vec![k as u8; 128]);
            }
            for k in 0..8_000u64 {
                m.step_instr(
                    10,
                    0x1_0000 + (k % 64) * 4,
                    &[(map::HEAP + k * 8, k % 3 == 0)],
                    None,
                );
                if k % 500 == 0 {
                    m.event_value(k);
                }
                if k % 200 == 0 {
                    m.poll_packet(k);
                }
                if k % 700 == 0 {
                    m.idle(30_000);
                }
            }
            let (p, i, d) = m.noise.stats();
            (m.now_cycles(), m.now_ps(), m.log_dma_bytes(), p, i, d)
        };
        for env in [Environment::Sanity, Environment::UserNoisy] {
            assert_eq!(
                run(false, env),
                run(true, env),
                "tick queue diverged from scanning under {env:?}"
            );
        }
    }

    #[test]
    fn seeds_spread_is_stable_and_distinct() {
        let a = Seeds::from_run(1);
        let b = Seeds::from_run(1);
        let c = Seeds::from_run(2);
        assert_eq!(a, b);
        assert_ne!(a.noise, c.noise);
        assert_ne!(a.noise, a.bus);
    }
}
