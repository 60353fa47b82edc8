//! The one hasher behind the simulator's private integer-keyed maps.
//!
//! Every map on the per-step path is keyed by something the simulator itself
//! minted — request and instance ids, heap addresses, connection ids, write
//! keys — so SipHash's protection against crafted keys buys nothing there,
//! and at several lookups per simulated step it was a tenth of the host
//! time. Maps keyed by input from outside the program (method names, CLI and
//! artifact-file keys) keep the std hasher.
//!
//! With a fixed seed, iteration order no longer changes from process to
//! process — but it is a function of the map's insertion *history*, not of
//! its key set (keys sharing a bucket sit in arrival order), so nothing may
//! print or accumulate floats in iteration order any more than before.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` over [`FastHasher`]. Build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// A `HashSet` over [`FastHasher`]. Build with `FastSet::default()`.
pub type FastSet<K> = HashSet<K, BuildHasherDefault<FastHasher>>;

/// 2^64 / φ: odd, with no short bit period, so consecutive keys land far
/// apart after the multiply.
const MULTIPLIER: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-rotate hasher for small integer keys: one rotate, xor and
/// multiply per word written, and a final rotate that brings the
/// well-mixed high half of the product down to where hashbrown picks its
/// bucket from. Without it the low three hash bits of every 8-byte-aligned
/// address would be zero and seven buckets in eight would stay empty.
#[derive(Clone, Copy, Debug, Default)]
pub struct FastHasher(u64);

impl Hasher for FastHasher {
    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MULTIPLIER);
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x as u64);
    }

    #[inline]
    fn write_i64(&mut self, x: i64) {
        self.write_u64(x as u64);
    }

    /// Everything else, zero-padded into little-endian words.
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(key: impl Hash) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(key)
    }

    /// Distinct values of the low 12 hash bits over 4,096 keys; a uniform
    /// hash gives about 4096 · (1 − 1/e) ≈ 2,590.
    fn low_bits_spread(keys: impl Iterator<Item = u64>) -> usize {
        keys.map(|k| hash_of(k) & 0xFFF)
            .collect::<HashSet<_>>()
            .len()
    }

    #[test]
    fn aligned_addresses_and_sequential_ids_spread_over_the_low_bits() {
        // Heap addresses: 8-byte aligned, consecutive objects.
        for base in [0x1000_0000_0000u64, 0x2000_0000_0000, 0x3000_0000_0000] {
            for stride in [8u64, 16, 64, 512] {
                let spread = low_bits_spread((0..4096).map(|i| base + i * stride));
                assert!(spread >= 2300, "base {base:#x} stride {stride}: {spread}");
            }
        }
        // Request / instance / connection ids: sequential.
        for first in [0u64, 1, 1_000_000] {
            let spread = low_bits_spread(first..first + 4096);
            assert!(spread >= 2300, "ids from {first}: {spread}");
        }
        // The top seven bits (hashbrown's control byte) move too.
        let tags: HashSet<u64> = (0..4096u64).map(|i| hash_of(i) >> 57).collect();
        assert_eq!(tags.len(), 128);
    }

    #[test]
    fn the_same_history_iterates_identically_in_separately_built_maps() {
        // What the simulator relies on: a run is a deterministic sequence
        // of inserts and removes, so two runs build the same table. (Std's
        // `RandomState` fails this; a different *history* over the same
        // keys may still order them differently.)
        let build = || {
            let mut rng = Rng::new(23);
            let mut m: FastMap<u64, u32> = FastMap::default();
            for i in 0..3000u32 {
                m.insert(rng.next_u64() >> 20, i);
                if i % 3 == 0 {
                    let victim = *m.keys().next().expect("non-empty");
                    m.remove(&victim);
                }
            }
            m
        };
        let (a, b) = (build(), build());
        assert!(a.len() > 1500);
        assert!(a.iter().eq(b.iter()));
        let sa: FastSet<u64> = a.keys().copied().collect();
        let sb: FastSet<u64> = b.keys().copied().collect();
        assert!(sa.iter().eq(sb.iter()));
    }

    #[test]
    fn every_width_and_compound_keys_hash_by_value() {
        assert_eq!(hash_of(7u8), hash_of(7u64));
        assert_eq!(hash_of(7u16), hash_of(7u64));
        assert_eq!(hash_of(7u32), hash_of(7u64));
        assert_eq!(hash_of(7usize), hash_of(7u64));
        assert_eq!(hash_of(7i64), hash_of(7u64));
        // Field order matters in a compound key (request id, write seq).
        assert_ne!(hash_of((1u64, 2u32)), hash_of((2u64, 1u32)));
        assert_ne!(hash_of((1u64, 0u32)), hash_of(1u64));
        // Byte strings go through the same words, zero-padded.
        let mut h = FastHasher::default();
        h.write(&[1, 0, 0, 0, 0, 0, 0, 0, 2]);
        let mut w = FastHasher::default();
        w.write_u64(1);
        w.write_u64(2);
        assert_eq!(h.finish(), w.finish());
    }
}
