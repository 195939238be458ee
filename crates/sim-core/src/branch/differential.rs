//! Differential test: the predictor, with its epoch-stamped, recycled
//! entries, against a test-local copy of the predictor it replaced (a
//! valid bit per entry, a flush that rewrites every entry, fresh entries
//! for every predictor), on seeded branch streams. Every penalty, the
//! observable entry state after every operation (each entry's validity,
//! read through the epoch, then the tag, target and counter of a valid
//! entry) and the counters must agree, also when a used predictor is
//! dropped and the next one of the same size on this thread takes its
//! entries, and when the epoch count wraps.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::{BranchPredictor, BtbParams};

#[derive(Debug, Clone, Copy)]
struct RefEntry {
    tag: u64,
    target: u64,
    counter: u8,
    valid: bool,
}

/// The predictor as it was.
struct RefBtb {
    params: BtbParams,
    entries: Vec<RefEntry>,
    lookups: u64,
    mispredicts: u64,
}

impl RefBtb {
    fn new(params: BtbParams) -> Self {
        RefBtb {
            params,
            entries: vec![
                RefEntry {
                    tag: 0,
                    target: 0,
                    counter: 0,
                    valid: false,
                };
                params.entries as usize
            ],
            lookups: 0,
            mispredicts: 0,
        }
    }

    fn resolve(&mut self, pc: u64, taken: bool, target: u64) -> u64 {
        self.lookups += 1;
        let idx = ((pc >> 2) & (self.params.entries as u64 - 1)) as usize;
        let e = &mut self.entries[idx];
        let tag = pc >> 2;
        let (pred_taken, pred_target) = if e.valid && e.tag == tag {
            (e.counter >= 2, e.target)
        } else {
            (false, 0)
        };
        let correct = pred_taken == taken && (!taken || pred_target == target);
        if e.valid && e.tag == tag {
            if taken {
                e.counter = (e.counter + 1).min(3);
                e.target = target;
            } else {
                e.counter = e.counter.saturating_sub(1);
            }
        } else if taken {
            *e = RefEntry {
                tag,
                target,
                counter: 2,
                valid: true,
            };
        }
        if correct {
            0
        } else {
            self.mispredicts += 1;
            self.params.mispredict_cycles
        }
    }

    fn flush(&mut self) {
        for e in self.entries.iter_mut() {
            e.valid = false;
            e.counter = 0;
        }
    }
}

/// Same observable state: each entry valid in both or in neither, a valid
/// entry's tag, target and counter, and the counters; no entry's epoch is
/// past its predictor's.
fn assert_same_btb(new: &BranchPredictor, old: &RefBtb, what: &str) {
    let epoch = new.entries.epoch();
    assert_eq!(new.entries.len(), old.entries.len(), "{what}: entry count");
    for (i, (n, o)) in new.entries.iter().zip(&old.entries).enumerate() {
        assert!(n.epoch <= epoch, "{what}: entry {i} from a later epoch");
        let n = (n.epoch == epoch).then_some((n.tag, n.target, n.counter));
        let o = o.valid.then_some((o.tag, o.target, o.counter));
        assert_eq!(n, o, "{what}: entry {i}");
    }
    assert_eq!(
        new.stats(),
        (old.lookups, old.mispredicts),
        "{what}: counters"
    );
}

fn sizes() -> [BtbParams; 4] {
    [1, 2, 16, 512].map(|entries| BtbParams {
        entries,
        mispredict_cycles: 12,
    })
}

/// `steps` seeded branches on both predictors, from a pool of pcs twice
/// the BTB's size (so aliased pcs evict each other) with a few targets
/// each, mostly taken; with `flushes`, rarely a flush instead. Checks
/// every penalty and the state.
fn btb_stream(
    new: &mut BranchPredictor,
    old: &mut RefBtb,
    rng: &mut StdRng,
    steps: usize,
    flushes: bool,
    what: &str,
) {
    let slots = 2 * new.params.entries as u64;
    for step in 0..steps {
        if flushes && rng.gen_range(0u32..200) == 0 {
            new.flush();
            old.flush();
        } else {
            let pc = 0x1_0000 + rng.gen_range(0..slots) * 4;
            let taken = rng.gen_bool(0.7);
            let target = 0x2_0000 + rng.gen_range(0..3u64) * 64;
            assert_eq!(
                new.resolve(pc, taken, target),
                old.resolve(pc, taken, target),
                "{what} step {step}: branch at {pc:#x}"
            );
        }
        assert_same_btb(new, old, what);
    }
}

#[test]
fn btb_matches_the_valid_bit_reference() {
    for (s, params) in sizes().into_iter().enumerate() {
        for seed in 0..4u64 {
            let what = format!("size {s} seed {seed}");
            let mut rng = StdRng::seed_from_u64(0xb7b0_0000 + s as u64 * 16 + seed);
            let mut new = BranchPredictor::new(params);
            let mut old = RefBtb::new(params);
            new.flush();
            old.flush();
            assert_same_btb(&new, &old, &what);
            btb_stream(&mut new, &mut old, &mut rng, 4_000, true, &what);
        }
    }
}

#[test]
fn recycled_entries_match_a_fresh_reference() {
    for (s, params) in sizes().into_iter().enumerate() {
        for seed in 0..2u64 {
            let mut rng = StdRng::seed_from_u64(0xb7b1_0000 + s as u64 * 16 + seed);
            let mut new = BranchPredictor::new(params);
            let mut old = RefBtb::new(params);
            for round in 0..12 {
                let what = format!("size {s} seed {seed} round {round}");
                btb_stream(&mut new, &mut old, &mut rng, 300, true, &what);
                new.resolve(0x1_0000, true, 0x2_0000);
                old.resolve(0x1_0000, true, 0x2_0000);
                assert!(old.entries.iter().any(|e| e.valid), "{what}: entries left");
                let entries = new.entries.as_ptr();
                let epoch = new.entries.epoch();
                drop(new);
                new = BranchPredictor::new(params);
                assert_eq!(new.entries.as_ptr(), entries, "{what}: spare taken");
                assert_eq!(new.entries.epoch(), epoch + 1, "{what}: one epoch on");
                old = RefBtb::new(params);
                assert_same_btb(&new, &old, &what);
            }
        }
    }
}

#[test]
fn btb_epoch_wrap_matches_the_reference() {
    for (s, params) in sizes().into_iter().enumerate() {
        let what = format!("size {s}");
        let mut rng = StdRng::seed_from_u64(0xb7b2_0000 + s as u64);
        {
            // Flushes across the wrap: from MAX - 1 to MAX, then to 1 with
            // every entry rewritten to epoch 0, then on to 2.
            let mut new = BranchPredictor::new(params);
            new.entries.restart_at(u32::MAX - 1);
            let mut old = RefBtb::new(params);
            for after in [u32::MAX, 1, 2] {
                let what = format!("{what} flush to epoch {after}");
                btb_stream(&mut new, &mut old, &mut rng, 300, false, &what);
                new.flush();
                old.flush();
                assert_eq!(new.entries.epoch(), after, "{what}");
                assert_same_btb(&new, &old, &what);
            }
            btb_stream(&mut new, &mut old, &mut rng, 600, true, &what);
        }
        // A predictor dropped in the last epoch, entries valid: the next
        // one wraps as it takes them.
        let mut new = BranchPredictor::new(params);
        new.entries.restart_at(u32::MAX);
        let mut old = RefBtb::new(params);
        btb_stream(&mut new, &mut old, &mut rng, 300, false, &what);
        assert!(old.entries.iter().any(|e| e.valid), "{what}: entries left");
        let entries = new.entries.as_ptr();
        drop(new);
        let mut new = BranchPredictor::new(params);
        assert_eq!(new.entries.as_ptr(), entries, "{what}: spare taken");
        assert_eq!(new.entries.epoch(), 1, "{what}: wrapped");
        let mut old = RefBtb::new(params);
        assert_same_btb(&new, &old, &what);
        btb_stream(&mut new, &mut old, &mut rng, 600, true, &what);
    }
}
