//! Differential test: the shift/mask cache, with its most-recently-used
//! memo and its epoch-stamped, recycled lines, and the hash-indexed TLB
//! against test-local copies of the division-based cache (a valid bit per
//! line, a flush that rewrites every line, fresh lines for every cache)
//! and the sorted-index TLB they replaced, on seeded access streams.
//! Every access outcome, the observable line state after every operation
//! (each line's validity, read through the epoch, then the tag, dirty bit
//! and LRU stamp of a valid line, so every victim), and the final
//! counters must agree. Uniform addresses rarely repeat a line, so the
//! cache's stream mixes in bursts of locality runs, which take the memo's
//! hit branches. Further streams drop a used cache and build the next one
//! of the same geometry on the same thread, which takes the dropped
//! cache's lines, or start an epoch count near its wrap.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{Cache, CacheAccess, CacheParams, Line, Tlb, TlbParams};

/// A line of the cache as it was: a valid bit instead of an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RefLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    lru: u64,
}

const INVALID_LINE: RefLine = RefLine {
    tag: 0,
    valid: false,
    dirty: false,
    lru: 0,
};

/// The cache as it was: division/modulo indexing and a flush that always
/// scans and rewrites every line.
struct RefCache {
    params: CacheParams,
    lines: Vec<RefLine>,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl RefCache {
    fn new(params: CacheParams) -> Self {
        RefCache {
            params,
            lines: vec![INVALID_LINE; (params.sets * params.ways) as usize],
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn access(&mut self, addr: u64, write: bool) -> CacheAccess {
        self.clock += 1;
        let set = ((addr / self.params.line as u64) % self.params.sets as u64) as usize;
        let tag = addr / self.params.line as u64 / self.params.sets as u64;
        let base = set * self.params.ways as usize;
        let ways = &mut self.lines[base..base + self.params.ways as usize];
        for l in ways.iter_mut() {
            if l.valid && l.tag == tag {
                l.lru = self.clock;
                l.dirty |= write;
                self.hits += 1;
                return CacheAccess {
                    hit: true,
                    writeback: false,
                };
            }
        }
        self.misses += 1;
        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru + 1 } else { 0 })
            .expect("ways is non-empty");
        let writeback = victim.valid && victim.dirty;
        if writeback {
            self.writebacks += 1;
        }
        *victim = RefLine {
            tag,
            valid: true,
            dirty: write,
            lru: self.clock,
        };
        CacheAccess {
            hit: false,
            writeback,
        }
    }

    fn flush(&mut self) -> u64 {
        let dirty = self.lines.iter().filter(|l| l.valid && l.dirty).count() as u64;
        for l in self.lines.iter_mut() {
            *l = INVALID_LINE;
        }
        dirty
    }

    fn pollute(&mut self, fraction: f64, salt: u64) {
        let n = self.lines.len();
        let count = ((n as f64) * fraction.clamp(0.0, 1.0)) as usize;
        for k in 0..count {
            let idx = (salt
                .wrapping_mul(6364136223846793005)
                .wrapping_add((k as u64).wrapping_mul(1442695040888963407)))
                % n as u64;
            self.clock += 1;
            self.lines[idx as usize] = RefLine {
                tag: salt.wrapping_add(k as u64) | (1 << 40),
                valid: true,
                dirty: k % 3 == 0,
                lru: self.clock,
            };
        }
    }
}

/// The TLB as it was: a sorted `(vpn, slot)` index, binary-searched.
struct RefTlb {
    params: TlbParams,
    entries: Vec<(u64, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
    index: Vec<(u64, u32)>,
}

impl RefTlb {
    fn new(params: TlbParams) -> Self {
        RefTlb {
            params,
            entries: Vec::new(),
            clock: 0,
            hits: 0,
            misses: 0,
            index: Vec::new(),
        }
    }

    fn access(&mut self, vaddr: u64) -> u64 {
        self.clock += 1;
        let vpn = vaddr / self.params.page as u64;
        if let Ok(i) = self.index.binary_search_by_key(&vpn, |&(p, _)| p) {
            let slot = self.index[i].1 as usize;
            self.entries[slot].1 = self.clock;
            self.hits += 1;
            return 0;
        }
        self.misses += 1;
        if self.entries.len() < self.params.entries as usize {
            let slot = self.entries.len() as u32;
            self.entries.push((vpn, self.clock));
            let at = self.index.partition_point(|&(p, _)| p < vpn);
            self.index.insert(at, (vpn, slot));
        } else if let Some((slot, victim)) = self
            .entries
            .iter_mut()
            .enumerate()
            .min_by_key(|(_, (_, l))| *l)
        {
            let old = victim.0;
            *victim = (vpn, self.clock);
            let gone = self
                .index
                .binary_search_by_key(&old, |&(p, _)| p)
                .expect("indexed");
            self.index.remove(gone);
            let at = self.index.partition_point(|&(p, _)| p < vpn);
            self.index.insert(at, (vpn, slot as u32));
        }
        self.params.miss_cycles
    }

    fn flush(&mut self) {
        self.entries.clear();
        self.index.clear();
    }
}

/// Virtual bases of the machine's memory map (`machine::map`: code,
/// statics, heap, stacks, the two ring buffers, VMM scratch, and the end
/// of the map). Their page numbers are all multiples of 256, so they
/// collide in any power-of-two table indexed by low vpn bits.
const REGION_BASES: [u64; 8] = [
    0x0000_0000,
    0x0100_0000,
    0x0200_0000,
    0x0A00_0000,
    0x0B00_0000,
    0x0B10_0000,
    0x0B20_0000,
    0x0B30_0000,
];

/// Same observable state: each line valid in both or in neither, a valid
/// line's tag, dirty bit and LRU stamp, the clock and the counters. A
/// stale line's other fields are never read, so they are not compared;
/// what is checked of them is the epoch invariant, that no line's epoch
/// is past its cache's.
fn assert_same_cache(new: &Cache, old: &RefCache, what: &str) {
    let epoch = new.lines.epoch();
    assert_eq!(new.lines.len(), old.lines.len(), "{what}: line count");
    for (i, (n, o)) in new.lines.iter().zip(&old.lines).enumerate() {
        assert!(n.epoch <= epoch, "{what}: line {i} from a later epoch");
        let n = (n.epoch == epoch).then_some((n.tag, n.dirty, n.lru));
        let o = o.valid.then_some((o.tag, o.dirty, o.lru));
        assert_eq!(n, o, "{what}: line {i}");
    }
    assert_eq!(new.clock, old.clock, "{what}: clock");
    assert_eq!(
        new.stats(),
        (old.hits, old.misses, old.writebacks),
        "{what}: counters"
    );
}

/// The machine's three caches and three small geometries that fill,
/// evict and alias quickly (one set of one way, odd associativity).
fn geometries() -> [CacheParams; 6] {
    [
        CacheParams::l1i(),
        CacheParams::l1d(),
        CacheParams::l2(),
        CacheParams {
            sets: 1,
            ways: 1,
            line: 64,
            hit_cycles: 1,
        },
        CacheParams {
            sets: 4,
            ways: 3,
            line: 32,
            hit_cycles: 1,
        },
        CacheParams {
            sets: 16,
            ways: 2,
            line: 128,
            hit_cycles: 1,
        },
    ]
}

#[test]
fn cache_matches_the_division_based_reference() {
    for (g, params) in geometries().into_iter().enumerate() {
        for seed in 0..4u64 {
            let what = format!("geometry {g} seed {seed}");
            let mut rng = StdRng::seed_from_u64(0xcace_0000 + g as u64 * 16 + seed);
            let mut new = Cache::new(params);
            let mut old = RefCache::new(params);
            // A flush before anything touched the cache (the start-of-run
            // case the early return serves).
            assert_eq!(new.flush(), old.flush(), "{what}: cold flush");
            assert_same_cache(&new, &old, &what);
            cache_stream(&mut new, &mut old, &mut rng, 6_000, &what);
        }
    }
}

#[test]
fn recycled_lines_match_a_fresh_reference() {
    // Each round drops a used cache, with lines left valid, dirty and
    // polluted, and builds the next one of the same geometry on this
    // thread, which takes the dropped lines; the new cache must behave as
    // a reference cache built from nothing.
    for (g, params) in geometries().into_iter().enumerate() {
        for seed in 0..2u64 {
            let mut rng = StdRng::seed_from_u64(0x5ba2_0000 + g as u64 * 16 + seed);
            let mut new = Cache::new(params);
            let mut old = RefCache::new(params);
            for round in 0..12 {
                let what = format!("geometry {g} seed {seed} round {round}");
                cache_stream(&mut new, &mut old, &mut rng, 400, &what);
                touch(&mut new, &mut old, &mut rng, 50, &what);
                assert!(
                    old.lines.iter().any(|l| l.valid && l.dirty),
                    "{what}: dirty"
                );
                let lines = new.lines.as_ptr();
                let epoch = new.lines.epoch();
                drop(new);
                new = Cache::new(params);
                assert_eq!(new.lines.as_ptr(), lines, "{what}: spare lines taken");
                assert_eq!(new.lines.epoch(), epoch + 1, "{what}: one epoch on");
                old = RefCache::new(params);
                assert_same_cache(&new, &old, &what);
                assert_eq!(new.flush(), old.flush(), "{what}: cold flush");
            }
        }
    }
}

#[test]
fn epoch_wrap_matches_the_reference() {
    for (g, params) in geometries().into_iter().enumerate() {
        for seed in 0..2u64 {
            let what = format!("geometry {g} seed {seed}");
            let mut rng = StdRng::seed_from_u64(0xe90c_0000 + g as u64 * 16 + seed);
            {
                // Flushes across the wrap: from MAX - 1 to MAX, then to 1
                // with every line rewritten to epoch 0, then on to 2.
                let mut new = Cache::new(params);
                new.lines.restart_at(u32::MAX - 1);
                let mut old = RefCache::new(params);
                for after in [u32::MAX, 1, 2] {
                    let what = format!("{what} flush to epoch {after}");
                    touch(&mut new, &mut old, &mut rng, 300, &what);
                    assert_eq!(new.flush(), old.flush(), "{what}");
                    assert_eq!(new.lines.epoch(), after, "{what}");
                    assert_same_cache(&new, &old, &what);
                }
                cache_stream(&mut new, &mut old, &mut rng, 600, &what);
            }
            // A cache dropped in the last epoch, its lines valid: the next
            // one wraps as it takes them.
            let mut new = Cache::new(params);
            new.lines.restart_at(u32::MAX);
            let mut old = RefCache::new(params);
            touch(&mut new, &mut old, &mut rng, 300, &what);
            assert_eq!(new.lines.epoch(), u32::MAX, "{what}: last epoch");
            let lines = new.lines.as_ptr();
            drop(new);
            let mut new = Cache::new(params);
            assert_eq!(new.lines.as_ptr(), lines, "{what}: spare lines taken");
            assert_eq!(new.lines.epoch(), 1, "{what}: wrapped");
            let mut old = RefCache::new(params);
            assert_same_cache(&new, &old, &what);
            cache_stream(&mut new, &mut old, &mut rng, 600, &what);
        }
    }
}

/// `n` accesses over a working set a few times the capacity, a pollute,
/// and a write: leaves lines valid, dirty and (in caches of ten lines or
/// more) polluted, with no flush. Checks every outcome and the state.
fn touch(new: &mut Cache, old: &mut RefCache, rng: &mut StdRng, n: usize, what: &str) {
    let span = new.params().capacity() * 3;
    for step in 0..=n {
        if step == n / 2 {
            let fraction = rng.gen_range(0.1..1.0);
            let salt = rng.gen::<u64>();
            new.pollute(fraction, salt);
            old.pollute(fraction, salt);
        }
        let addr = rng.gen_range(0..span);
        let write = step == n || rng.gen_bool(0.3);
        assert_eq!(
            new.access(addr, write),
            old.access(addr, write),
            "{what} step {step}: access {addr:#x}"
        );
    }
    assert_same_cache(new, old, what);
}

/// `steps` seeded operations on both caches, checking every outcome and
/// the observable state after every operation: accesses, mostly to a
/// working set a few times the capacity (hits, LRU evictions, dirty
/// writebacks), and rarely a flush, a pollute or a burst of locality runs.
fn cache_stream(new: &mut Cache, old: &mut RefCache, rng: &mut StdRng, steps: usize, what: &str) {
    let params = *new.params();
    let span = params.capacity() * 3;
    let mut lines = vec![0];
    for step in 0..steps {
        match rng.gen_range(0u32..100) {
            0 => assert_eq!(new.flush(), old.flush(), "{what} step {step}: flush"),
            1 => {
                let fraction = rng.gen_range(0.0..1.0);
                let salt = rng.gen::<u64>();
                new.pollute(fraction, salt);
                old.pollute(fraction, salt);
            }
            // A burst of runs with the locality the memo serves, which
            // uniform addresses rarely have.
            2 => {
                for run in 0..rng.gen_range(1..=8) {
                    let what = format!("{what} step {step} run {run}");
                    // Half the runs go back to the previous run's lines,
                    // which a flush or pollute may just have moved.
                    if rng.gen_bool(0.5) {
                        lines = locality_lines(&params, rng);
                    }
                    cache_run(new, old, rng, &lines, &what);
                    match rng.gen_range(0..10) {
                        0 => assert_eq!(new.flush(), old.flush(), "{what}: flush"),
                        1 => {
                            // Salts from a small range, so pollutes overlap.
                            let fraction = rng.gen_range(0.0..1.0);
                            let salt = rng.gen_range(0..16u64);
                            new.pollute(fraction, salt);
                            old.pollute(fraction, salt);
                        }
                        _ => {}
                    }
                    assert_same_cache(new, old, &what);
                }
            }
            op => {
                // Some addresses anywhere, including the region bases and
                // the top of the address space.
                let addr = match op % 4 {
                    0 => rng.gen::<u64>(),
                    1 => {
                        REGION_BASES[rng.gen_range(0..REGION_BASES.len())]
                            + rng.gen_range(0..4096u64)
                    }
                    _ => rng.gen_range(0..span),
                };
                let write = rng.gen_bool(0.3);
                assert_eq!(
                    new.access(addr, write),
                    old.access(addr, write),
                    "{what} step {step}: access {addr:#x}"
                );
            }
        }
        assert_same_cache(new, old, what);
    }
}

/// The line numbers of one locality run, in a working set a few times the
/// capacity, so runs revisit lines still resident and lines long evicted:
/// one line, two to four lines of one set (beyond the associativity they
/// evict each other), or two to four lines in consecutive sets.
fn locality_lines(params: &CacheParams, rng: &mut StdRng) -> Vec<u64> {
    let sets = params.sets as u64;
    let first = rng.gen_range(0..sets * params.ways as u64 * 3);
    let n = rng.gen_range(2..=4u64);
    match rng.gen_range(0..3) {
        0 => vec![first],
        1 => (0..n).map(|k| first + k * sets).collect(),
        _ => (0..n).map(|k| first + k).collect(),
    }
}

/// One run of a locality stream over the line numbers `lines`: mostly
/// round robin, sometimes a repeat, each access at a random offset in its
/// line. Checks every outcome and the full state after every access.
fn cache_run(new: &mut Cache, old: &mut RefCache, rng: &mut StdRng, lines: &[u64], what: &str) {
    let line = new.params().line as u64;
    for step in 0..rng.gen_range(1..48usize) {
        let l = if rng.gen_bool(0.75) {
            lines[step % lines.len()]
        } else {
            lines[rng.gen_range(0..lines.len())]
        };
        let addr = l * line + rng.gen_range(0..line);
        let write = rng.gen_bool(0.3);
        assert_eq!(
            new.access(addr, write),
            old.access(addr, write),
            "{what} step {step}: access {addr:#x}"
        );
        assert_same_cache(new, old, what);
    }
}

#[test]
fn cache_memo_hits_the_first_of_two_copies_of_a_tag() {
    // Two pollutes can plant one tag in two ways of a set (their tags are
    // `salt + k`); the scan then finds the first copy, and so must every
    // later hit. Plant such a pair directly, with distinct dirty bits and
    // stamps, in a cache whose memo is empty, as after any pollute.
    for (g, params) in geometries().into_iter().enumerate() {
        if params.ways < 2 {
            continue;
        }
        for seed in 0..4u64 {
            let what = format!("geometry {g} seed {seed}");
            let mut rng = StdRng::seed_from_u64(0xd0b1_0000 + g as u64 * 16 + seed);
            let mut new = Cache::new(params);
            let mut old = RefCache::new(params);
            let sets = params.sets as u64;
            let set = rng.gen_range(0..sets);
            let tag = rng.gen_range(0..64u64);
            let ways = params.ways as usize;
            let a = rng.gen_range(0..ways - 1);
            let b = rng.gen_range(a + 1..ways);
            let base = set as usize * ways;
            for (way, dirty, lru) in [(a, false, 2), (b, true, 1)] {
                new.lines[base + way] = Line {
                    tag,
                    lru,
                    epoch: new.lines.epoch(),
                    dirty,
                };
                old.lines[base + way] = RefLine {
                    tag,
                    valid: true,
                    dirty,
                    lru,
                };
            }
            new.clock = 2;
            old.clock = 2;
            let copied = tag * sets + set;
            for run in 0..100 {
                let what = format!("{what} run {run}");
                // The doubled line, with the set's other lines and a line
                // elsewhere, so the memo fills, hits and is dropped.
                let lines = [copied, copied + sets, copied + 2 * sets, copied + 1];
                let n = rng.gen_range(1..=lines.len());
                cache_run(&mut new, &mut old, &mut rng, &lines[..n], &what);
            }
        }
    }
}

#[test]
fn tlb_matches_the_sorted_index_reference() {
    for entries in [0u32, 1, 2, 5, 64, 100] {
        for seed in 0..4u64 {
            let what = format!("{entries} entries seed {seed}");
            let params = TlbParams {
                entries,
                page: 4096,
                miss_cycles: 30,
            };
            let mut rng = StdRng::seed_from_u64(0x71b0_0000 + entries as u64 * 16 + seed);
            let mut new = Tlb::new(params);
            let mut old = RefTlb::new(params);
            // A pool of pages about twice the TLB's reach, dominated by
            // the region bases and their neighbours, so a full TLB evicts
            // constantly and colliding vpns share buckets.
            let mut pool: Vec<u64> = REGION_BASES
                .iter()
                .flat_map(|&b| (0..4u64).map(move |k| b / 4096 + k))
                .collect();
            while pool.len() < (2 * entries as usize).max(40) {
                pool.push(rng.gen_range(0..1u64 << 40));
            }
            for step in 0..8_000 {
                if rng.gen_range(0u32..400) == 0 {
                    new.flush();
                    old.flush();
                } else {
                    let vpn = pool[rng.gen_range(0..pool.len())];
                    let vaddr = vpn * 4096 + rng.gen_range(0..4096u64);
                    assert_eq!(
                        new.access(vaddr),
                        old.access(vaddr),
                        "{what} step {step}: access {vaddr:#x}"
                    );
                }
                assert_eq!(new.entries, old.entries, "{what} step {step}: entries");
                assert_eq!(new.clock, old.clock, "{what} step {step}: clock");
            }
            assert_eq!(new.stats(), (old.hits, old.misses), "{what}: counters");
            assert!(
                entries == 0 || old.misses > entries as u64,
                "{what}: TLB filled"
            );
        }
    }
}
