//! The simulator's one hasher: a fixed, unseeded multiply-rotate hash in
//! the style of rustc's FxHash, and the map/set aliases built on it.
//!
//! Every key the simulator hashes — event ids, cache lines, execution ids,
//! slab addresses, static labels — is made by the simulator itself, never
//! by an adversary, so std's per-process-seeded SipHash buys no HashDoS
//! protection here and costs several times more per probe. No seed also
//! means no per-process randomness, although nothing may depend on it:
//! code that lets map order reach output or an RNG still sorts first.

#![allow(clippy::disallowed_types)]

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FxHash's multiplier (from the golden ratio, odd so the multiply is a
/// bijection on the low bits).
const K: u64 = 0x517c_c1b7_2722_0a95;

/// A word-at-a-time multiply-rotate [`Hasher`]; see the module docs.
#[derive(Debug, Default, Clone, Copy)]
pub struct FastHasher(u64);

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            self.add(u64::from(b));
        }
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A [`HashMap`] hashed with [`FastHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// A [`HashSet`] hashed with [`FastHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(value: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(value)
    }

    #[test]
    fn unseeded_and_deterministic() {
        // The same key hashes the same in every map and every process.
        assert_eq!(hash(42u64), hash(42u64));
        assert_eq!(hash("Pair.key"), hash("Pair.key"));
        assert_ne!(hash(1u64), hash(2u64));
        assert_ne!(hash("Pair.key"), hash("Pair.val"));
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000).all(|i| m[&i] == i * 2));
        let s: FastSet<&str> = ["a", "b", "a"].into_iter().collect();
        assert_eq!(s.len(), 2);
    }
}
