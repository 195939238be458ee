//! Virtual address space and physical frame assignment.
//!
//! The caches are physically indexed, so the virtual→physical assignment
//! changes conflict-miss behavior. Sanity "deterministically chooses the
//! frames that will be mapped to the TC's address space, so they are the
//! same during play and replay" (§3.6); an ordinary OS hands out whatever
//! frames are free, differently every run. [`FramePolicy`] selects between
//! the two.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use sim_core::PAddr;

/// Page/frame size in bytes.
pub const PAGE_SIZE: u64 = 4096;

/// How physical frames are assigned to the VM's pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FramePolicy {
    /// Identity mapping: page `n` gets frame `n` every run (the Sanity
    /// reserved-frame-range module, §4.2).
    Pinned,
    /// A per-run pseudorandom permutation of frames, keyed by the seed —
    /// what an unmodified OS effectively does.
    Random,
}

/// A flat virtual address space with per-page frame assignment.
///
/// The VM's whole world (code, statics, heap, stacks, ring buffers) lives in
/// one contiguous virtual region starting at 0; `translate` is a bounds
/// check plus, under [`FramePolicy::Random`], one indexed load, keeping the
/// interpreter hot path cheap.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    /// Number of mapped pages.
    pages: usize,
    /// `frames[vpn]` is the physical frame number backing page `vpn`;
    /// empty under [`FramePolicy::Pinned`], whose mapping is the identity.
    frames: Vec<u32>,
}

impl AddressSpace {
    /// Create a space covering `size_bytes`, assigning frames per `policy`.
    /// `seed` matters only for [`FramePolicy::Random`].
    pub fn new(size_bytes: u64, policy: FramePolicy, seed: u64) -> Self {
        let pages = size_bytes.div_ceil(PAGE_SIZE) as usize;
        let mut frames = Vec::new();
        if policy == FramePolicy::Random {
            frames = (0..pages as u32).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            frames.shuffle(&mut rng);
        }
        AddressSpace { pages, frames }
    }

    /// Number of mapped pages.
    pub fn pages(&self) -> usize {
        self.pages
    }

    /// Translate a virtual address to a physical address.
    ///
    /// # Panics
    ///
    /// Panics if `vaddr` is outside the mapped region; the VM guarantees all
    /// generated addresses are in range (the region is sized at startup).
    #[inline]
    pub fn translate(&self, vaddr: u64) -> PAddr {
        let vpn = (vaddr / PAGE_SIZE) as usize;
        assert!(
            vpn < self.pages,
            "virtual address {vaddr:#x} outside the mapped region"
        );
        if self.frames.is_empty() {
            return vaddr;
        }
        let frame = self.frames[vpn] as u64;
        frame * PAGE_SIZE + (vaddr % PAGE_SIZE)
    }

    /// True if `vaddr` lies within the mapped region.
    pub fn contains(&self, vaddr: u64) -> bool {
        ((vaddr / PAGE_SIZE) as usize) < self.pages
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_is_identity() {
        let a = AddressSpace::new(1 << 20, FramePolicy::Pinned, 0);
        assert_eq!(a.translate(0), 0);
        assert_eq!(a.translate(4096 + 17), 4096 + 17);
        assert_eq!(a.translate(123_456), 123_456);
    }

    #[test]
    fn random_permutes_but_preserves_offsets() {
        let a = AddressSpace::new(1 << 20, FramePolicy::Random, 42);
        // Offsets within a page are preserved.
        let base = a.translate(8192);
        assert_eq!(a.translate(8192 + 99), base + 99);
        // Some page must move (256 pages; identity permutation is absurdly
        // unlikely and the seed is fixed).
        let moved = (0..256u64).any(|p| a.translate(p * 4096) != p * 4096);
        assert!(moved);
    }

    #[test]
    fn random_is_seed_deterministic() {
        let a = AddressSpace::new(1 << 20, FramePolicy::Random, 7);
        let b = AddressSpace::new(1 << 20, FramePolicy::Random, 7);
        let c = AddressSpace::new(1 << 20, FramePolicy::Random, 8);
        for p in 0..256u64 {
            assert_eq!(a.translate(p * 4096), b.translate(p * 4096));
        }
        let differs = (0..256u64).any(|p| a.translate(p * 4096) != c.translate(p * 4096));
        assert!(differs, "different seeds give different layouts");
    }

    #[test]
    fn random_is_a_bijection() {
        let a = AddressSpace::new(64 * 4096, FramePolicy::Random, 3);
        let mut seen = std::collections::HashSet::new();
        for p in 0..64u64 {
            assert!(seen.insert(a.translate(p * 4096)), "frame reused");
        }
    }

    #[test]
    #[should_panic(expected = "outside the mapped region")]
    fn pinned_translation_is_bounds_checked() {
        let a = AddressSpace::new(2 * 4096, FramePolicy::Pinned, 0);
        a.translate(2 * 4096);
    }

    #[test]
    #[should_panic(expected = "outside the mapped region")]
    fn random_translation_is_bounds_checked() {
        let a = AddressSpace::new(2 * 4096, FramePolicy::Random, 0);
        a.translate(2 * 4096);
    }

    #[test]
    fn contains_checks_bounds() {
        let a = AddressSpace::new(2 * 4096, FramePolicy::Pinned, 0);
        assert!(a.contains(0));
        assert!(a.contains(2 * 4096 - 1));
        assert!(!a.contains(2 * 4096));
    }
}
