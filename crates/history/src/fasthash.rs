//! A tiny, fast, non-cryptographic hasher for the hot-path maps of the
//! checkers and the simulator (integer-ish keys: transaction ids, node
//! pairs, client keys, key/value tuples).
//!
//! The default `SipHash13` costs real time per probe on the hot paths, so
//! these maps use an `FxHasher`-style multiply-xor hash instead: per
//! 8-byte word, `state = (state.rotate_left(5) ^ word) * K`. Their keys
//! are not all the program's own: a daemon's tenants choose their keys on
//! the wire, and a client's keys are often aligned ids (`row << 16`,
//! `table << 48`). A product's low bits depend only on its factors' low
//! bits, and std's map picks a bucket from the low bits of the hash, so the
//! state alone would put keys that share their low bits in one bucket, and
//! a map of them would be quadratic. `finish` therefore folds: it
//! multiplies the state by `K` once more into 128 bits and xors the two
//! halves, so every bit of the state reaches the low bits
//! (`tests/hash_spread.rs` times aligned keys against dense ones). A rotate
//! of the state, as rustc-hash 2 does, only moves the problem: it still
//! puts keys `k << 44` into 512 buckets. The hash is not keyed, so keys
//! searched out on purpose to collide still collide; this hasher does not
//! defend against that.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-xor hasher over native words.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher {
    state: u64,
}

const K: u64 = 0x517c_c1b7_2722_0a95;

impl FastHasher {
    #[inline]
    fn word(&mut self, w: u64) {
        self.state = (self.state.rotate_left(5) ^ w).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let folded = u128::from(self.state) * u128::from(K);
        (folded as u64) ^ ((folded >> 64) as u64)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut w = [0u8; 8];
            w[..rest.len()].copy_from_slice(rest);
            self.word(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.word(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.word(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }
}

/// `BuildHasher` for [`FastHasher`].
pub type FastBuild = BuildHasherDefault<FastHasher>;

/// A `HashMap` keyed with the fast hasher.
pub type FastHashMap<K, V> = std::collections::HashMap<K, V, FastBuild>;

/// A `HashSet` keyed with the fast hasher.
pub type FastHashSet<T> = std::collections::HashSet<T, FastBuild>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_behave_like_maps() {
        let mut m: FastHashMap<(u32, u64), usize> = FastHashMap::default();
        for i in 0..1000u32 {
            m.insert((i, u64::from(i) << 40), i as usize);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u32 {
            assert_eq!(m.get(&(i, u64::from(i) << 40)), Some(&(i as usize)));
        }
        assert_eq!(m.get(&(5, 0)), None);
    }

    #[test]
    fn distinct_inputs_rarely_collide() {
        use std::hash::BuildHasher;
        let b = FastBuild::default();
        let mut seen = std::collections::HashSet::new();
        for i in 0..10_000u64 {
            seen.insert(b.hash_one((i, i.wrapping_mul(7))));
        }
        assert!(seen.len() > 9_990, "{} distinct hashes", seen.len());
    }

    #[test]
    fn keys_that_share_their_low_bits_spread_over_the_low_bits() {
        // A map of 2^14 entries picks its bucket from the hash's low 15
        // bits. Aligned keys must spread over them as dense keys do (a
        // rotate of the state instead of the fold puts keys `k << 44` into
        // 512 of them).
        use std::hash::BuildHasher;
        let b = FastBuild::default();
        for shift in (0..=48).step_by(4) {
            let buckets: std::collections::HashSet<u64> = (0..1u64 << 14)
                .map(|k| b.hash_one(k << shift) & ((1 << 15) - 1))
                .collect();
            assert!(
                buckets.len() > 1 << 13,
                "keys k << {shift}: {} buckets of {}",
                buckets.len(),
                1 << 15
            );
        }
    }
}
