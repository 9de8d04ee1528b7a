//! Fast fixed-seed hashing for the engine's internal hot maps.
//!
//! The evaluator's scratch structures — per-pass dedup maps, hash-join build
//! tables, table slot maps, secondary-index buckets — live and die inside one
//! process and are only ever probed by key, never iterated in an
//! order-sensitive way. They don't need SipHash's flooding resistance, only
//! speed and determinism, and they are probed once per candidate tuple, so
//! the hasher sits directly on the join hot path. This is the classic
//! multiply-rotate construction (the rustc/firefox "Fx" hash): a couple of
//! ALU ops per 8-byte word versus SipHash's per-block rounds.
//!
//! Anything whose hash value leaks into observable state — slot-map keys
//! shared across phases — goes through [`crate::value::hash_values`] (this
//! hasher over the row's values); see the stability note there. This
//! hasher is itself deterministic across runs and processes (no random
//! state), so using it for scratch maps cannot make evaluation
//! nondeterministic.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher over 8-byte words.
#[derive(Debug, Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            // Fold the tail with its length so "ab" + "" and "a" + "b"
            // prefixes can't collide trivially.
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add(u64::from_le_bytes(buf) ^ rem.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_input_sensitive() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_ne!(hash_of(&42u64), hash_of(&43u64));
        assert_ne!(hash_of("ab"), hash_of("ba"));
        assert_ne!(hash_of(&[1u8, 2, 3][..]), hash_of(&[1u8, 2][..]));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<String, i64> = FxHashMap::default();
        for i in 0..1000 {
            m.insert(format!("k{i}"), i);
        }
        for i in 0..1000 {
            assert_eq!(m.get(&format!("k{i}")), Some(&i));
        }
    }
}
