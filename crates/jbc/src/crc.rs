//! CRC-32/IEEE 802.3 — the one checksum implementation of every wire
//! format in the system (TDRL, TDRB, TDRC, TDRP; `docs/FORMATS.md` §1.4).
//!
//! Reflected polynomial `0xEDB88320`, initial value and final XOR
//! `0xFFFFFFFF` — the same function as zlib's `crc32`. This crate is the
//! lowest in the graph that every codec depends on, so the checksum lives
//! here and `replay::codec` re-exports it.
//!
//! The implementation is slicing-by-8: eight 256-entry tables, built at
//! compile time, fold eight input bytes per step; the tail goes a byte at
//! a time through the first table.

/// `TABLES[0]` is the classic byte table; `TABLES[k][i]` is the CRC state
/// after byte `i` is followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Incremental CRC-32 hasher.
///
/// Feed chunks with [`update`](Crc32::update) in any split;
/// [`value`](Crc32::value) equals [`crc32`] of the concatenation, so the
/// streaming readers can validate checksums as bytes arrive.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh hasher (equivalent to the CRC of zero bytes).
    pub fn new() -> Self {
        Crc32 { state: !0u32 }
    }

    /// Fold `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xff) as usize]
                ^ t[6][((lo >> 8) & 0xff) as usize]
                ^ t[5][((lo >> 16) & 0xff) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xff) as usize]
                ^ t[2][((hi >> 8) & 0xff) as usize]
                ^ t[1][((hi >> 16) & 0xff) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far (does not consume the hasher;
    /// further [`update`](Crc32::update)s continue from this state).
    pub fn value(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The definition: eight shift/xor steps per byte.
    fn bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = (crc >> 1) ^ (0xedb8_8320 & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// Seeded buffer of `len` bytes (xorshift64*).
    fn buffer(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                s ^= s >> 12;
                s ^= s << 25;
                s ^= s >> 27;
                (s.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn formats_md_test_vector() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn table_crc_matches_the_bitwise_definition_at_every_split() {
        for len in 0..=257usize {
            for seed in 0..3u64 {
                let data = buffer(seed * 1000 + len as u64, len);
                let want = bitwise(&data);
                assert_eq!(crc32(&data), want, "len {len} seed {seed}");
                for split in 0..=len {
                    let mut h = Crc32::new();
                    h.update(&data[..split]);
                    h.update(&data[split..]);
                    assert_eq!(h.value(), want, "len {len} seed {seed} split {split}");
                }
            }
        }
    }
}
