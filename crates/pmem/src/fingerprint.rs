//! 64-bit fingerprints for persisted-state equivalence pruning.
//!
//! Two kinds of hashes:
//!
//! * a **rolling** event-delta hash ([`Fp64`]) that the memory model
//!   updates incrementally as state-changing events commit — the hash the
//!   engine's crash-point pruning keys its classes on, O(1) per event and
//!   zero-cost for events that do not change crash-visible state, and
//! * a **content** hash over the engine's copy-on-write line records,
//!   which feeds the engine's full crash-state fingerprint; only
//!   yashbench's `--layers` microbenchmark calls that. Records shared
//!   between snapshots hash once thanks to the [`ArcMemo`] address fast
//!   path: an untouched record costs one map lookup, not 64 byte mixes.
//!
//! Both are built on the splitmix64 finalizer, which is cheap and has full
//! avalanche — adjacent event ids or line ids never collide by accident of
//! arithmetic structure.

use crate::hash::FastMap;

/// The splitmix64 finalizer: a cheap full-avalanche 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// An order-sensitive rolling 64-bit hasher.
///
/// `absorb` folds one word into the running state; two sequences of
/// absorbed words compare equal only if they are the same words in the
/// same order (up to 64-bit collisions; a collision that merged two
/// different crash states would fail exhaustive resumption's attribution
/// check).
///
/// # Examples
///
/// ```
/// use pmem::Fp64;
/// let mut a = Fp64::new();
/// a.absorb(1);
/// a.absorb(2);
/// let mut b = Fp64::new();
/// b.absorb(2);
/// b.absorb(1);
/// assert_ne!(a.value(), b.value(), "order matters");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fp64(u64);

impl Fp64 {
    /// Creates an empty hasher.
    pub fn new() -> Self {
        Fp64::default()
    }

    /// Folds one word into the running hash.
    #[inline]
    pub fn absorb(&mut self, word: u64) {
        self.0 = mix64(self.0 ^ mix64(word));
    }

    /// The current hash value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// A memo of per-slab content hashes keyed by the slab's address.
///
/// Crash-point snapshots share untouched line records through
/// [`crate::CowBox`]; hashing the same physical record once and replaying
/// the cached value for every other holder makes a full-image content
/// fingerprint cost O(changed lines) amortized. The memo is only sound
/// while the recorded slabs are alive and unmodified — an address is reused
/// once its slab is freed, and owned storage is written in place — so
/// callers keep it scoped to one pass over snapshots that are never
/// written through, and do not reuse a memo across mutations.
#[derive(Debug, Default)]
pub struct ArcMemo {
    hashes: FastMap<usize, u64>,
}

impl ArcMemo {
    /// Creates an empty memo.
    pub fn new() -> Self {
        ArcMemo::default()
    }

    /// Returns the cached hash for `slab`, computing it with `compute` on
    /// first sight of this address.
    pub fn memoize<T>(&mut self, slab: &T, compute: impl FnOnce(&T) -> u64) -> u64 {
        let key = slab as *const T as usize;
        *self.hashes.entry(key).or_insert_with(|| compute(slab))
    }

    /// Number of distinct slabs hashed so far.
    pub fn len(&self) -> usize {
        self.hashes.len()
    }

    /// Returns `true` if nothing has been memoized.
    pub fn is_empty(&self) -> bool {
        self.hashes.is_empty()
    }
}

/// Hashes a slice of bytes as little-endian words (content hash for line
/// slabs).
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let mut fp = Fp64::new();
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        fp.absorb(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let rest = chunks.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        fp.absorb(u64::from_le_bytes(last));
        fp.absorb(rest.len() as u64);
    }
    fp.value()
}

/// Hashes a slice of words (content hash for provenance slabs).
pub fn hash_words(words: &[u64]) -> u64 {
    let mut fp = Fp64::new();
    for &w in words {
        fp.absorb(w);
    }
    fp.value()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_avalanches_small_inputs() {
        assert_ne!(mix64(0), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        assert_ne!(mix64(0), 0);
    }

    #[test]
    fn fp64_is_order_sensitive() {
        let mut a = Fp64::new();
        a.absorb(7);
        a.absorb(9);
        let mut b = Fp64::new();
        b.absorb(9);
        b.absorb(7);
        assert_ne!(a.value(), b.value());
    }

    #[test]
    fn fp64_equal_sequences_agree() {
        let mut a = Fp64::new();
        let mut b = Fp64::new();
        for w in [3u64, 1, 4, 1, 5] {
            a.absorb(w);
            b.absorb(w);
        }
        assert_eq!(a.value(), b.value());
    }

    #[test]
    fn memo_computes_once_per_allocation() {
        let mut shared = crate::CowBox::new(vec![1u8; 64]);
        let alias = crate::Forkable::fork(&mut shared);
        let other = crate::CowBox::new(vec![1u8; 64]);
        let mut memo = ArcMemo::new();
        let mut computed = 0;
        let mut hash = |a: &Vec<u8>, memo: &mut ArcMemo| {
            memo.memoize(a, |s| {
                computed += 1;
                hash_bytes(s)
            })
        };
        let h1 = hash(&shared, &mut memo);
        let h2 = hash(&alias, &mut memo);
        let h3 = hash(&other, &mut memo);
        assert_eq!(h1, h2);
        assert_eq!(h1, h3, "equal contents hash equal");
        assert_eq!(computed, 2, "aliased slab hashed once");
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn hash_bytes_distinguishes_tail_lengths() {
        assert_ne!(hash_bytes(&[0u8; 3]), hash_bytes(&[0u8; 4]));
        assert_ne!(hash_bytes(&[1, 2, 3]), hash_bytes(&[1, 2, 4]));
    }
}
