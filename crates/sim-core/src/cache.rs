//! Set-associative caches and the TLB.
//!
//! The caches are tag-only (no data payload — the VM holds the real data);
//! the model tracks hit/miss, dirty lines, and LRU order. Lines are
//! physically indexed/physically tagged, which is why the paper must pin the
//! same physical frames across play and replay (§3.6): a different
//! virtual→physical assignment changes set indexing and thus conflict
//! misses. This model reproduces that effect faithfully.
//!
//! [`Cache::access`] first consults an exact memo of the most recently
//! accessed line: its line number → the index of its line. A memo hit
//! skips only the set scan; the hit it finds, and the LRU stamp, dirty
//! bit and counter it updates, are the ones the scan would have found and
//! updated. The memo is replaced or dropped at each point that can move or
//! duplicate a line: every miss memoizes the line it filled, the only
//! valid copy of its tag (the victim may have been the memoized line),
//! and [`Cache::flush`] and [`Cache::pollute`] drop it (`pollute` can
//! plant one tag in two ways of a set, where the scan picks the first).
//! The TLB has no memo: its hash index already makes a lookup O(1).
//!
//! **Cold state in O(1).** Each line carries the epoch it was filled in
//! and is valid only while that epoch equals its cache's; every line's
//! epoch is at most its cache's. [`Cache::flush`] invalidates every line
//! by moving the cache to the next epoch. Only when the `u32` epoch would
//! wrap are the lines rewritten, to epoch 0, which no cache ever holds,
//! and the count restarts at 1. `flush` still counts the valid dirty
//! lines exactly, since its cycle cost depends on that count. A dropped
//! cache leaves its lines and final epoch to a per-thread spare (a core's
//! worth: three caches), and the next [`Cache::new`] of the same size on
//! that thread starts from them one epoch later, so a replay's cold
//! caches are built without allocating or filling their 5,120 lines.
//! Nothing reads a stale line but its epoch, so recycled lines behave as
//! fresh ones.

use serde::{Deserialize, Serialize};

use crate::epoch::{Entry, Spare, Store};
use crate::{Cycles, PAddr};

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheParams {
    /// Number of sets (must be a power of two).
    pub sets: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes (must be a power of two).
    pub line: u32,
    /// Latency of a hit, in cycles.
    pub hit_cycles: Cycles,
}

impl CacheParams {
    /// A small L1 data cache (32 KiB, 8-way, 64 B lines, 4-cycle hits).
    pub fn l1d() -> Self {
        CacheParams {
            sets: 64,
            ways: 8,
            line: 64,
            hit_cycles: 4,
        }
    }

    /// A small L1 instruction cache (32 KiB, 8-way, 64 B lines).
    pub fn l1i() -> Self {
        CacheParams {
            sets: 64,
            ways: 8,
            line: 64,
            hit_cycles: 1,
        }
    }

    /// A unified L2 (256 KiB, 8-way, 64 B lines, 12-cycle hits).
    pub fn l2() -> Self {
        CacheParams {
            sets: 512,
            ways: 8,
            line: 64,
            hit_cycles: 12,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.sets as u64 * self.ways as u64 * self.line as u64
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the line was resident.
    pub hit: bool,
    /// Whether a dirty line had to be written back to make room.
    pub writeback: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    /// LRU stamp; higher = more recently used.
    lru: u64,
    /// The epoch the line was filled in: valid only while it equals its
    /// cache's.
    epoch: u32,
    dirty: bool,
}

impl Entry for Line {
    const COLD: Line = Line {
        tag: 0,
        lru: 0,
        epoch: 0,
        dirty: false,
    };
    /// A core's L1I, L1D and L2.
    const SPARES: usize = 3;

    fn spare() -> &'static std::thread::LocalKey<Spare<Line>> {
        thread_local!(static SPARE: Spare<Line> = const { Spare::new(Vec::new()) });
        &SPARE
    }
}

/// A set-associative, write-back, write-allocate cache with true LRU.
///
/// Deterministic by construction: the replacement decision depends only on
/// the access sequence, which is the property Sanity's design leans on
/// ("if the instruction stream is exactly the same and the caches have a
/// deterministic replacement policy … this is almost sufficient to
/// reproduce the evolution of cache states", §3.6).
#[derive(Debug, Clone)]
pub struct Cache {
    params: CacheParams,
    lines: Store<Line>,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
    /// The most recently accessed line number and the index of its line:
    /// host-side only, see the [module docs](self).
    mru: Option<(u64, usize)>,
}

impl Cache {
    /// Create an empty (all-invalid) cache, on this thread's spare lines
    /// when a dropped cache of the same size left some.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `line` is not a power of two, or any dimension is
    /// zero — geometry is static configuration, not runtime input.
    pub fn new(params: CacheParams) -> Self {
        assert!(params.sets.is_power_of_two(), "sets must be a power of two");
        assert!(params.line.is_power_of_two(), "line must be a power of two");
        assert!(params.ways > 0, "ways must be nonzero");
        Cache {
            params,
            lines: Store::new((params.sets * params.ways) as usize),
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
            mru: None,
        }
    }

    /// The configured geometry.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    // `sets` and `line` are powers of two (checked in `new`), so the
    // divisions of the set-index and tag math are shifts and masks.
    fn set_index(&self, addr: PAddr) -> usize {
        ((addr >> self.params.line.trailing_zeros()) & (self.params.sets as u64 - 1)) as usize
    }

    fn tag(&self, addr: PAddr) -> u64 {
        addr >> (self.params.line.trailing_zeros() + self.params.sets.trailing_zeros())
    }

    /// Access `addr`; returns hit/writeback status. A write marks the line
    /// dirty (write-allocate on miss).
    #[inline]
    pub fn access(&mut self, addr: PAddr, write: bool) -> CacheAccess {
        self.clock += 1;
        let line = addr >> self.params.line.trailing_zeros();
        let ways = self.params.ways as usize;
        let base = self.set_index(addr) * ways;
        let tag = self.tag(addr);
        let epoch = self.lines.epoch();
        let hit = match self.mru {
            Some((memo, at)) if memo == line => Some(at),
            _ => self.lines[base..base + ways]
                .iter()
                .position(|l| l.epoch == epoch && l.tag == tag)
                .map(|way| base + way),
        };

        if let Some(at) = hit {
            self.mru = Some((line, at));
            let l = &mut self.lines[at];
            l.lru = self.clock;
            l.dirty |= write;
            self.hits += 1;
            return CacheAccess {
                hit: true,
                writeback: false,
            };
        }
        // Miss: fill into the invalid or least-recently-used way.
        self.misses += 1;
        let (way, victim) = self.lines[base..base + ways]
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, l)| if l.epoch == epoch { l.lru + 1 } else { 0 })
            .expect("ways is non-empty");
        let writeback = victim.epoch == epoch && victim.dirty;
        if writeback {
            self.writebacks += 1;
        }
        *victim = Line {
            tag,
            lru: self.clock,
            epoch,
            dirty: write,
        };
        self.mru = Some((line, base + way));
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    /// True if the line containing `addr` is resident (no state change).
    pub fn probe(&self, addr: PAddr) -> bool {
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let base = set * self.params.ways as usize;
        self.lines[base..base + self.params.ways as usize]
            .iter()
            .any(|l| l.epoch == self.lines.epoch() && l.tag == tag)
    }

    /// Invalidate everything, returning the number of dirty lines that the
    /// hardware would have to write back (`wbinvd` semantics, §4.2).
    pub fn flush(&mut self) -> u64 {
        self.mru = None;
        // Only `access` and `pollute` fill lines, and both advance `clock`:
        // a cache whose clock is still 0 is all-invalid already.
        if self.clock == 0 {
            return 0;
        }
        let epoch = self.lines.epoch();
        let dirty = self
            .lines
            .iter()
            .filter(|l| l.epoch == epoch && l.dirty)
            .count() as u64;
        self.lines.invalidate();
        dirty
    }

    /// Mark `fraction` (0..=1) of the lines valid with arbitrary tags, as a
    /// model of a "dirty" machine whose cache content is unknown at start.
    ///
    /// The pollution pattern is a deterministic function of `salt`.
    pub fn pollute(&mut self, fraction: f64, salt: u64) {
        self.mru = None;
        let n = self.lines.len();
        let count = ((n as f64) * fraction.clamp(0.0, 1.0)) as usize;
        for k in 0..count {
            // Simple LCG-scattered indices; determinism matters, beauty not.
            let idx = (salt
                .wrapping_mul(6364136223846793005)
                .wrapping_add((k as u64).wrapping_mul(1442695040888963407)))
                % n as u64;
            self.clock += 1;
            self.lines[idx as usize] = Line {
                tag: salt.wrapping_add(k as u64) | (1 << 40),
                lru: self.clock,
                epoch: self.lines.epoch(),
                dirty: k % 3 == 0,
            };
        }
    }

    /// `(hits, misses, writebacks)` counters since construction.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.writebacks)
    }

    /// Number of currently valid lines.
    pub fn resident_lines(&self) -> usize {
        let epoch = self.lines.epoch();
        self.lines.iter().filter(|l| l.epoch == epoch).count()
    }
}

/// Geometry of the TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbParams {
    /// Number of entries (fully associative).
    pub entries: u32,
    /// Page size in bytes (must be a power of two).
    pub page: u32,
    /// Penalty of a miss (page-table walk), in cycles.
    pub miss_cycles: Cycles,
}

impl TlbParams {
    /// A 64-entry TLB over 4 KiB pages with a 30-cycle walk.
    pub fn default_params() -> Self {
        TlbParams {
            entries: 64,
            page: 4096,
            miss_cycles: 30,
        }
    }
}

/// End of a [`Tlb`] bucket chain.
const NIL: u32 = u32::MAX;

/// A fully associative TLB with LRU replacement.
///
/// Tracks virtual page numbers; the walk cost is charged on miss. `flush`
/// models the paper's `CR4.PCIDE` toggle that drops global entries too.
#[derive(Debug, Clone)]
pub struct Tlb {
    params: TlbParams,
    entries: Vec<(u64, u64)>, // (vpn, lru)
    clock: u64,
    hits: u64,
    misses: u64,
    /// Host-side lookup index over `entries`, so a lookup costs O(1)
    /// instead of a scan: `buckets[hash(vpn)]` heads a chain of the slots
    /// whose vpn hashes there, linked through `next[slot]`. Hit/miss and
    /// LRU outcomes are decided by `entries` alone — a chain only names
    /// the slots to compare.
    buckets: Vec<u32>,
    next: Vec<u32>,
    /// `64 - log2(buckets.len())`: the multiplicative hash keeps the top
    /// bits, so vpns that differ only in high bits (the region bases are
    /// all multiples of 256 pages) still spread.
    hash_shift: u32,
}

impl Tlb {
    /// Create an empty TLB.
    pub fn new(params: TlbParams) -> Self {
        assert!(params.page.is_power_of_two(), "page must be a power of two");
        let buckets = (params.entries as usize * 2).next_power_of_two().max(2);
        Tlb {
            params,
            entries: Vec::with_capacity(params.entries as usize),
            clock: 0,
            hits: 0,
            misses: 0,
            buckets: vec![NIL; buckets],
            next: vec![NIL; params.entries as usize],
            hash_shift: 64 - buckets.trailing_zeros(),
        }
    }

    /// The configured geometry.
    pub fn params(&self) -> &TlbParams {
        &self.params
    }

    /// Touch the page containing virtual address `vaddr`; returns the cycle
    /// cost (0 on hit, `miss_cycles` on miss).
    #[inline]
    pub fn access(&mut self, vaddr: u64) -> Cycles {
        self.clock += 1;
        let vpn = vaddr >> self.params.page.trailing_zeros();
        if let Some(slot) = self.find(vpn) {
            self.entries[slot].1 = self.clock;
            self.hits += 1;
            return 0;
        }
        self.misses += 1;
        if self.entries.len() < self.params.entries as usize {
            self.entries.push((vpn, self.clock));
            self.link(self.entries.len() - 1);
        } else if let Some(slot) = (0..self.entries.len()).min_by_key(|&s| self.entries[s].1) {
            self.unlink(slot);
            self.entries[slot] = (vpn, self.clock);
            self.link(slot);
        }
        self.params.miss_cycles
    }

    fn bucket(&self, vpn: u64) -> usize {
        (vpn.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.hash_shift) as usize
    }

    fn find(&self, vpn: u64) -> Option<usize> {
        let mut slot = self.buckets[self.bucket(vpn)];
        while slot != NIL {
            if self.entries[slot as usize].0 == vpn {
                return Some(slot as usize);
            }
            slot = self.next[slot as usize];
        }
        None
    }

    /// Chain `slot` (holding its new vpn) into its bucket.
    fn link(&mut self, slot: usize) {
        let b = self.bucket(self.entries[slot].0);
        self.next[slot] = self.buckets[b];
        self.buckets[b] = slot as u32;
    }

    /// Unchain `slot` (still holding its old vpn) from its bucket.
    fn unlink(&mut self, slot: usize) {
        let b = self.bucket(self.entries[slot].0);
        if self.buckets[b] == slot as u32 {
            self.buckets[b] = self.next[slot];
            return;
        }
        let mut prev = self.buckets[b] as usize;
        while self.next[prev] != slot as u32 {
            prev = self.next[prev] as usize;
        }
        self.next[prev] = self.next[slot];
    }

    /// Drop every entry.
    pub fn flush(&mut self) {
        self.entries.clear();
        self.buckets.fill(NIL);
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod differential;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(CacheParams::l1d());
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1004, false).hit, "same line, different offset");
        assert!(!c.access(0x2000, false).hit, "different line misses");
    }

    #[test]
    fn lru_evicts_oldest() {
        // Direct construction of a 1-set, 2-way cache.
        let mut c = Cache::new(CacheParams {
            sets: 1,
            ways: 2,
            line: 64,
            hit_cycles: 1,
        });
        c.access(0x0, false); // A
        c.access(0x40, false); // B
        c.access(0x0, false); // A again (B is now LRU)
        c.access(0x80, false); // C evicts B
        assert!(c.probe(0x0), "A stays");
        assert!(!c.probe(0x40), "B evicted");
        assert!(c.probe(0x80), "C resident");
    }

    #[test]
    fn writeback_only_on_dirty_eviction() {
        let mut c = Cache::new(CacheParams {
            sets: 1,
            ways: 1,
            line: 64,
            hit_cycles: 1,
        });
        c.access(0x0, true); // Dirty A.
        let a = c.access(0x40, false); // Evicts dirty A.
        assert!(a.writeback);
        let b = c.access(0x80, false); // Evicts clean B.
        assert!(!b.writeback);
    }

    #[test]
    fn flush_counts_dirty_lines_and_empties() {
        let mut c = Cache::new(CacheParams::l1d());
        c.access(0x0, true);
        c.access(0x40, true);
        c.access(0x80, false);
        assert_eq!(c.flush(), 2);
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.access(0x0, false).hit);
    }

    #[test]
    fn pollute_is_deterministic() {
        let mut a = Cache::new(CacheParams::l1d());
        let mut b = Cache::new(CacheParams::l1d());
        a.pollute(0.5, 42);
        b.pollute(0.5, 42);
        assert_eq!(a.resident_lines(), b.resident_lines());
        // Identical subsequent behavior.
        assert_eq!(a.access(0x123456, false).hit, b.access(0x123456, false).hit);
    }

    #[test]
    fn physical_indexing_differs_by_frame() {
        // The same access pattern through two different physical frames can
        // produce different conflict behavior — the reason Sanity pins
        // frames across play and replay.
        let params = CacheParams {
            sets: 4,
            ways: 1,
            line: 64,
            hit_cycles: 1,
        };
        let mut c1 = Cache::new(params);
        // Frame A: lines map to sets 0 and 2 (no conflict).
        c1.access(0x000, false);
        c1.access(0x080, false);
        assert!(c1.probe(0x000) && c1.probe(0x080));
        let mut c2 = Cache::new(params);
        // Frame B: both lines map to set 0 (conflict).
        c2.access(0x000, false);
        c2.access(0x100, false);
        assert!(!c2.probe(0x000), "conflicting frame assignment evicts");
    }

    #[test]
    fn tlb_hit_after_fill() {
        let mut t = Tlb::new(TlbParams::default_params());
        assert_eq!(t.access(0x1000), 30);
        assert_eq!(t.access(0x1fff), 0, "same page");
        assert_eq!(t.access(0x2000), 30, "next page");
    }

    #[test]
    fn tlb_lru_and_flush() {
        let mut t = Tlb::new(TlbParams {
            entries: 2,
            page: 4096,
            miss_cycles: 10,
        });
        t.access(0x0000); // page 0
        t.access(0x1000); // page 1
        t.access(0x0000); // page 0 again; page 1 is LRU
        t.access(0x2000); // page 2 evicts page 1
        assert_eq!(t.access(0x0000), 0);
        assert_eq!(t.access(0x1000), 10, "page 1 was evicted");
        t.flush();
        assert_eq!(t.access(0x0000), 10, "flush drops everything");
    }

    #[test]
    fn capacity_math() {
        assert_eq!(CacheParams::l1d().capacity(), 32 * 1024);
        assert_eq!(CacheParams::l2().capacity(), 256 * 1024);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        Cache::new(CacheParams {
            sets: 3,
            ways: 1,
            line: 64,
            hit_cycles: 1,
        });
    }
}
