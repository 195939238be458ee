//! The S-T and T-S ring buffers and the symmetric-access mechanisms.
//!
//! These implement the two devices at the heart of the paper's
//! play/replay-symmetry design (§3.4–§3.5):
//!
//! * [`SymCell::sym_access`] — the branch-free merge of Fig. 4. The TC
//!   performs *exactly* the same loads, stores, and (absence of) branches in
//!   play and replay; only the `play_mask` differs, and the mask is data,
//!   not control flow.
//! * [`NaiveCell::naive_access`] — the strawman the paper warns about: check
//!   a replay flag and branch. Its memory traffic and branch direction
//!   differ between the phases, which dirties the cache differently and
//!   trains the BTB differently. Kept for the ablation experiment.
//! * [`StBuffer`] — the SC→TC buffer with the fake-infinity timestamp
//!   protocol: the buffer always ends in a sentinel whose timestamp is
//!   "infinity", appends overwrite the sentinel with timestamp 0, and the TC
//!   always performs the same read-check-write sequence on the head entry
//!   whether or not data is present.
//! * [`TsBuffer`] — the TC→SC buffer carrying outputs and logged values.
//!
//! Functionally the buffers are ordinary queues; *timing-wise* every TC
//! operation charges its loads/stores through the [`CoreModel`] at the
//! buffer's simulated addresses, so cache and bus effects are faithful.

use std::collections::VecDeque;

use sim_core::{CoreModel, Cycles};

use crate::addr::AddressSpace;

/// The "infinity" timestamp carried by the sentinel entry (§3.5).
pub const TS_INFINITY: u64 = u64::MAX;

/// Execution phase; determines the value of the play mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Original execution: values are produced and recorded.
    Play,
    /// Reproduced execution: values are injected from the log.
    Replay,
}

impl Phase {
    /// The Fig. 4 bit mask: all-ones during play, zero during replay.
    pub fn mask(self) -> u64 {
        match self {
            Phase::Play => u64::MAX,
            Phase::Replay => 0,
        }
    }
}

/// A single value cell accessed with the symmetric algorithm of Fig. 4.
///
/// One cell per event slot in the T-S ring; the owning [`TsBuffer`] supplies
/// the addresses so consecutive events touch consecutive slots.
#[derive(Debug, Clone)]
pub struct SymCell {
    /// Simulated virtual address of the cell.
    pub vaddr: u64,
    /// Stored value (the `*buf` of Fig. 4).
    pub buf: u64,
}

impl SymCell {
    /// Perform the symmetric access: identical memory traffic in both
    /// phases. Returns the merged value (the produced `value` during play,
    /// the buffered value during replay).
    pub fn sym_access(
        &mut self,
        value: u64,
        mask: u64,
        core: &mut CoreModel,
        aspace: &AddressSpace,
    ) -> u64 {
        // temp = (*value & mask) | (*buf & !mask)  — no branches.
        let paddr = aspace.translate(self.vaddr);
        core.mem_access(self.vaddr, paddr, false); // Load *buf.
        let merged = (value & mask) | (self.buf & !mask);
        core.mem_access(self.vaddr, paddr, true); // Store *buf.
        self.buf = merged;
        merged
    }
}

/// The naive, *asymmetric* strawman: branch on a replay flag, then either
/// write (play) or read (replay). Used only by the ablation experiments.
#[derive(Debug, Clone)]
pub struct NaiveCell {
    /// Simulated virtual address of the cell.
    pub vaddr: u64,
    /// Simulated fetch address of the flag-checking branch.
    pub branch_pc: u64,
    /// Stored value.
    pub buf: u64,
}

impl NaiveCell {
    /// Perform the asymmetric access. During play the cell is written
    /// (dirty line, branch taken); during replay it is read (clean line,
    /// branch not taken).
    pub fn naive_access(
        &mut self,
        value: u64,
        phase: Phase,
        core: &mut CoreModel,
        aspace: &AddressSpace,
    ) -> u64 {
        let paddr = aspace.translate(self.vaddr);
        // The flag check: a conditional branch whose direction depends on
        // the phase — this is precisely what pollutes the BTB.
        let branch_paddr = aspace.translate(self.branch_pc);
        core.branch_only(branch_paddr, phase == Phase::Play, branch_paddr + 64);
        match phase {
            Phase::Play => {
                core.mem_access(self.vaddr, paddr, true);
                self.buf = value;
                value
            }
            Phase::Replay => {
                core.mem_access(self.vaddr, paddr, false);
                self.buf
            }
        }
    }
}

/// One entry of the S-T (supporting-core → timed-core) buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StEntry {
    /// Virtual timestamp: instruction count at which the TC first observed
    /// the entry (written by the TC; 0 when freshly appended by the SC;
    /// [`TS_INFINITY`] for the sentinel).
    pub ts: u64,
    /// Payload bytes (e.g., a network packet).
    pub data: Vec<u8>,
    /// Cycle at which the SC finished writing the entry (play only): the TC
    /// cannot observe the entry before this.
    pub avail_at: Cycles,
    /// Cycle at which the packet arrived on the wire (before DMA + SC
    /// processing). Recorded in the log so an *audit* replay can re-deliver
    /// inputs at their original arrival times to a different binary (§5.3).
    pub wire_at: Cycles,
}

/// The S-T ring buffer with the fake-infinity sentinel protocol (§3.5).
#[derive(Debug)]
pub struct StBuffer {
    base_vaddr: u64,
    /// Entry stride in simulated bytes (one page per entry keeps the
    /// addressing simple and realistic enough).
    stride: u64,
    capacity: usize,
    /// Pending entries, oldest first. The conceptual sentinel at the end is
    /// implicit: `entries.len()`'s slot holds timestamp ∞.
    entries: VecDeque<StEntry>,
    /// Ring cursor of the *head* slot (advances as the TC consumes).
    head_slot: u64,
    phase: Phase,
    /// Count of TC polls (each is a symmetric read-check-write).
    polls: u64,
    /// Count of entries consumed by the TC.
    consumed: u64,
    /// Entries consumed during play, with their final timestamps — the raw
    /// material of the event log.
    consumed_log: Vec<StEntry>,
}

impl StBuffer {
    /// Create an empty buffer whose slots live at `base_vaddr`.
    pub fn new(base_vaddr: u64, capacity: usize) -> Self {
        StBuffer {
            base_vaddr,
            stride: 4096,
            capacity,
            entries: VecDeque::new(),
            head_slot: 0,
            phase: Phase::Play,
            polls: 0,
            consumed: 0,
            consumed_log: Vec::new(),
        }
    }

    /// Switch to replay and preload the logged entries (their `ts` values
    /// are the recorded instruction counts).
    pub fn enter_replay(&mut self, logged: Vec<StEntry>) {
        self.phase = Phase::Replay;
        self.entries = logged.into();
        self.head_slot = 0;
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// SC side: append an entry (play). Overwrites the sentinel with a
    /// timestamp of zero and pushes a new sentinel, per §3.5. Returns false
    /// if the ring is full (the packet would be dropped, as real NIC rings
    /// drop on overrun).
    pub fn sc_append(&mut self, data: Vec<u8>, avail_at: Cycles, wire_at: Cycles) -> bool {
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push_back(StEntry {
            ts: 0,
            data,
            avail_at,
            wire_at,
        });
        true
    }

    /// Take the entries consumed during play (the log material).
    pub fn take_consumed_log(&mut self) -> Vec<StEntry> {
        std::mem::take(&mut self.consumed_log)
    }

    /// Number of entries currently pending.
    pub fn pending(&self) -> usize {
        self.entries.len()
    }

    /// Cycle at which the head entry becomes (became) observable, if any.
    /// During replay this is the recorded arrival cycle from the log.
    pub fn front_avail(&self) -> Option<Cycles> {
        self.entries.front().map(|e| e.avail_at)
    }

    /// `(polls, consumed)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.polls, self.consumed)
    }

    fn head_addr(&self) -> u64 {
        self.base_vaddr + (self.head_slot % self.capacity as u64) * self.stride
    }

    /// TC side: poll the head entry at instruction count `icount`, cycle
    /// `now`. The timing-relevant sequence is identical whether or not an
    /// entry is ready: load the timestamp, check it, store it back.
    ///
    /// Play: a fresh entry has `ts == 0`; the TC replaces it with `icount`
    /// (the virtual timestamp that will be logged) and consumes the payload.
    /// Replay: an entry is consumable once `icount >= ts`.
    ///
    /// Returns the payload and its virtual timestamp if consumed.
    pub fn tc_poll(
        &mut self,
        icount: u64,
        now: Cycles,
        core: &mut CoreModel,
        aspace: &AddressSpace,
    ) -> Option<(Vec<u8>, u64)> {
        self.polls += 1;
        let head_vaddr = self.head_addr();
        let head_paddr = aspace.translate(head_vaddr);
        // Symmetric sequence: read ts, (check), write ts — always.
        core.mem_access(head_vaddr, head_paddr, false);
        core.mem_access(head_vaddr, head_paddr, true);

        let ready = match self.entries.front() {
            None => false, // Sentinel: ts = ∞, check fails.
            Some(e) => match self.phase {
                Phase::Play => e.avail_at <= now && e.ts == 0,
                Phase::Replay => icount >= e.ts,
            },
        };
        if !ready {
            return None;
        }
        let mut e = self.entries.pop_front().expect("checked front");
        let ts = match self.phase {
            Phase::Play => {
                // TC recognizes the zero timestamp and replaces it with the
                // current instruction count (§3.5).
                e.ts = icount;
                self.consumed_log.push(e.clone());
                icount
            }
            Phase::Replay => e.ts,
        };
        // Payload copy: one load per 64-byte line.
        let lines = (e.data.len() as u64).div_ceil(64).max(1);
        for k in 0..lines {
            let va = head_vaddr + 64 + k * 64;
            core.mem_access(va, aspace.translate(va), false);
        }
        self.head_slot += 1;
        self.consumed += 1;
        Some((e.data, ts))
    }
}

/// The T-S (timed-core → supporting-core) ring buffer.
///
/// Carries two kinds of traffic: *logged event values* (e.g.
/// `System.nanoTime` results), which use [`SymCell`]-style symmetric access,
/// and *output packets*, which are pure writes in both phases (the replayed
/// execution produces an identical copy, §6.5).
#[derive(Debug)]
pub struct TsBuffer {
    base_vaddr: u64,
    capacity: usize,
    slot: u64,
    mask: u64,
    /// Values the SC prefilled for replay (from the log), oldest first.
    replay_values: VecDeque<u64>,
    /// Values the SC drained during play (destined for the log).
    drained: Vec<u64>,
    /// Packets the TC wrote (SC forwards during play, discards in replay).
    packets: Vec<Vec<u8>>,
    events: u64,
}

impl TsBuffer {
    /// Create an empty buffer whose slots live at `base_vaddr`.
    pub fn new(base_vaddr: u64, capacity: usize) -> Self {
        TsBuffer {
            base_vaddr,
            capacity,
            slot: 0,
            mask: Phase::Play.mask(),
            replay_values: VecDeque::new(),
            drained: Vec::new(),
            packets: Vec::new(),
            events: 0,
        }
    }

    /// Switch to replay, preloading logged event values.
    pub fn enter_replay(&mut self, values: Vec<u64>) {
        self.mask = Phase::Replay.mask();
        self.replay_values = values.into();
    }

    /// Record an event value with symmetric access. During play the produced
    /// `value` is stored (and later drained into the log); during replay the
    /// prefilled logged value is returned instead.
    pub fn event_value(&mut self, value: u64, core: &mut CoreModel, aspace: &AddressSpace) -> u64 {
        let vaddr = self.base_vaddr + (self.slot % self.capacity as u64) * 8;
        self.slot += 1;
        self.events += 1;
        // SC prefill (replay): the logged value is already in the slot. The
        // SC's own write happened off the TC's critical path.
        let prefill = if self.mask == 0 {
            self.replay_values.pop_front().unwrap_or(0)
        } else {
            0
        };
        let mut cell = SymCell {
            vaddr,
            buf: prefill,
        };
        let merged = cell.sym_access(value, self.mask, core, aspace);
        if self.mask != 0 {
            self.drained.push(merged);
        }
        merged
    }

    /// Write an output packet (pure stores; identical in both phases).
    pub fn send_packet(&mut self, data: &[u8], core: &mut CoreModel, aspace: &AddressSpace) {
        let base = self.base_vaddr + 8 * self.capacity as u64;
        let lines = (data.len() as u64).div_ceil(64).max(1);
        for k in 0..lines {
            let va = base + ((self.slot + k) % self.capacity as u64) * 64;
            core.mem_access(va, aspace.translate(va), true);
        }
        self.packets.push(data.to_vec());
    }

    /// SC side: take all packets written so far.
    pub fn drain_packets(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.packets)
    }

    /// SC side: take all event values recorded during play (log material).
    pub fn drain_values(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.drained)
    }

    /// Number of event values recorded.
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::FramePolicy;
    use sim_core::{CoreModel, CoreParams};

    fn setup() -> (CoreModel, AddressSpace) {
        (
            CoreModel::new(CoreParams::default_params(), 0),
            AddressSpace::new(1 << 24, FramePolicy::Pinned, 0),
        )
    }

    #[test]
    fn sym_access_returns_value_in_play() {
        let (mut core, asp) = setup();
        let mut c = SymCell {
            vaddr: 0x10000,
            buf: 0,
        };
        assert_eq!(c.sym_access(42, Phase::Play.mask(), &mut core, &asp), 42);
        assert_eq!(c.buf, 42, "value lands in the buffer during play");
    }

    #[test]
    fn sym_access_returns_buffer_in_replay() {
        let (mut core, asp) = setup();
        let mut c = SymCell {
            vaddr: 0x10000,
            buf: 99,
        };
        assert_eq!(c.sym_access(42, Phase::Replay.mask(), &mut core, &asp), 99);
        assert_eq!(c.buf, 99, "buffer value survives replay access");
    }

    #[test]
    fn sym_access_charges_identical_cycles_in_both_phases() {
        let (mut core_p, asp) = setup();
        let (mut core_r, _) = setup();
        let mut a = SymCell {
            vaddr: 0x10000,
            buf: 0,
        };
        let mut b = SymCell {
            vaddr: 0x10000,
            buf: 7,
        };
        let t0 = core_p.now();
        a.sym_access(1, Phase::Play.mask(), &mut core_p, &asp);
        let play_cost = core_p.now() - t0;
        let t1 = core_r.now();
        b.sym_access(1, Phase::Replay.mask(), &mut core_r, &asp);
        let replay_cost = core_r.now() - t1;
        assert_eq!(play_cost, replay_cost, "Fig. 4 property");
    }

    #[test]
    fn naive_access_charges_differently_across_phases() {
        // Warm both cores identically first, then measure a long sequence;
        // the branch direction and the dirty-vs-clean line differ.
        let (mut core_p, asp) = setup();
        let (mut core_r, _) = setup();
        let mut total_p = 0;
        let mut total_r = 0;
        for k in 0..64u64 {
            let mut a = NaiveCell {
                vaddr: 0x10000 + k * 8,
                branch_pc: 0x20000,
                buf: 0,
            };
            let mut b = a.clone();
            let t0 = core_p.now();
            a.naive_access(5, Phase::Play, &mut core_p, &asp);
            total_p += core_p.now() - t0;
            let t1 = core_r.now();
            b.naive_access(5, Phase::Replay, &mut core_r, &asp);
            total_r += core_r.now() - t1;
        }
        assert_ne!(total_p, total_r, "asymmetric cost is the point");
    }

    #[test]
    fn st_poll_on_empty_buffer_returns_none_but_charges() {
        let (mut core, asp) = setup();
        let mut st = StBuffer::new(0x100000, 16);
        let t0 = core.now();
        assert!(st.tc_poll(10, 0, &mut core, &asp).is_none());
        assert!(core.now() > t0, "the sentinel check still costs cycles");
    }

    #[test]
    fn st_play_consume_stamps_icount() {
        let (mut core, asp) = setup();
        let mut st = StBuffer::new(0x100000, 16);
        st.sc_append(vec![1, 2, 3], 100, 90);
        // Not yet available at cycle 0 (the SC finishes writing at 100).
        assert!(st.tc_poll(5, 0, &mut core, &asp).is_none());
        let (data, ts) = st.tc_poll(7, 150, &mut core, &asp).expect("ready");
        assert_eq!(data, vec![1, 2, 3]);
        assert_eq!(ts, 7, "timestamp is the consuming instruction count");
    }

    #[test]
    fn st_replay_waits_for_icount() {
        let (mut core, asp) = setup();
        let mut st = StBuffer::new(0x100000, 16);
        st.enter_replay(vec![StEntry {
            ts: 500,
            data: vec![9],
            avail_at: 0,
            wire_at: 0,
        }]);
        assert!(st.tc_poll(499, 0, &mut core, &asp).is_none());
        let (data, ts) = st.tc_poll(500, 0, &mut core, &asp).expect("ready");
        assert_eq!((data, ts), (vec![9], 500));
    }

    #[test]
    fn st_ring_overrun_drops() {
        let (_, _) = setup();
        let mut st = StBuffer::new(0x100000, 2);
        assert!(st.sc_append(vec![1], 0, 0));
        assert!(st.sc_append(vec![2], 0, 0));
        assert!(!st.sc_append(vec![3], 0, 0), "full ring drops");
        assert_eq!(st.pending(), 2);
    }

    #[test]
    fn ts_event_value_roundtrip() {
        let (mut core, asp) = setup();
        let mut ts = TsBuffer::new(0x200000, 64);
        assert_eq!(ts.event_value(1111, &mut core, &asp), 1111);
        assert_eq!(ts.event_value(2222, &mut core, &asp), 2222);
        let logged = ts.drain_values();
        assert_eq!(logged, vec![1111, 2222]);

        // Replay: inject the logged values; produced values are ignored.
        let mut ts2 = TsBuffer::new(0x200000, 64);
        ts2.enter_replay(logged);
        assert_eq!(ts2.event_value(9999, &mut core, &asp), 1111);
        assert_eq!(ts2.event_value(8888, &mut core, &asp), 2222);
    }

    #[test]
    fn ts_packets_collected() {
        let (mut core, asp) = setup();
        let mut ts = TsBuffer::new(0x200000, 64);
        ts.send_packet(&[1; 100], &mut core, &asp);
        ts.send_packet(&[2; 100], &mut core, &asp);
        let pkts = ts.drain_packets();
        assert_eq!(pkts.len(), 2);
        assert_eq!(pkts[0].len(), 100);
    }

    #[test]
    fn st_poll_sequence_identical_cycles_play_vs_replay() {
        // The crucial §3.5 property: a poll-poll-consume sequence costs the
        // same whether entries come from the SC (play) or the log (replay).
        let (mut core_p, asp) = setup();
        let (mut core_r, _) = setup();

        let mut st_p = StBuffer::new(0x100000, 16);
        st_p.sc_append(vec![7; 64], 0, 0);
        let t0 = core_p.now();
        assert!(st_p.tc_poll(1, 1000, &mut core_p, &asp).is_some());
        assert!(st_p.tc_poll(2, 1000, &mut core_p, &asp).is_none());
        let cost_p = core_p.now() - t0;

        let mut st_r = StBuffer::new(0x100000, 16);
        st_r.enter_replay(vec![StEntry {
            ts: 1,
            data: vec![7; 64],
            avail_at: 0,
            wire_at: 0,
        }]);
        let t1 = core_r.now();
        assert!(st_r.tc_poll(1, 1000, &mut core_r, &asp).is_some());
        assert!(st_r.tc_poll(2, 1000, &mut core_r, &asp).is_none());
        let cost_r = core_r.now() - t1;

        assert_eq!(cost_p, cost_r);
    }
}
