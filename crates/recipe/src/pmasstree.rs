//! P-Masstree: the persistent Masstree from the RECIPE suite.
//!
//! Masstree leaves publish insertions through a `permutation` word that
//! encodes the number and order of live slots; readers decode it before
//! touching keys. The port preserves that protocol, which is exactly why
//! the racy fields Table 3 reports for P-Masstree (bugs #17–#19) are the
//! *publishing* fields — `root_`, `permutation`, and the leaf `next`
//! pointer — and not the key/value slots: a reader that first decodes the
//! permutation has already forced the slot writes (and their flushes) into
//! the consistent prefix.

use compiler_model::{SourceProfile, SourceUnit};
use jaaru::{Atomicity, Ctx, Program};
use pmem::Addr;

use crate::util::{as_ptr, flush_range, open_pool, seal_pool};

/// Key slots per leaf.
pub const LEAF_WIDTH: u64 = 4;

// Leaf layout: { permutation u64, next u64, keys[4] u64, values[4] u64 }.
const OFF_PERMUTATION: u64 = 0;
const OFF_NEXT: u64 = 8;
const OFF_KEYS: u64 = 16;
const OFF_VALUES: u64 = 16 + LEAF_WIDTH * 8;
/// Byte size of a leaf node.
pub const LEAF_BYTES: u64 = 16 + 2 * LEAF_WIDTH * 8;

const ROOT_SLOT: u64 = 0;

const L_ROOT: &str = "masstree.root_ (masstree.h)";
const L_PERMUTATION: &str = "leafnode.permutation (masstree.h)";
const L_NEXT: &str = "leafnode.next (masstree.h)";

/// Decodes `(count, slot order)` from a permutation word: the low byte is
/// the count, bytes 1.. are slot indices in key order.
fn perm_count(perm: u64) -> u64 {
    (perm & 0xff).min(LEAF_WIDTH)
}

fn perm_slot(perm: u64, i: u64) -> u64 {
    ((perm >> (8 + i * 8)) & 0xff).min(LEAF_WIDTH - 1)
}

fn perm_push(perm: u64, slot: u64) -> u64 {
    let count = perm & 0xff;
    let with_slot = perm | (slot << (8 + count * 8));
    (with_slot & !0xff) | (count + 1)
}

/// A P-Masstree handle.
#[derive(Debug, Clone, Copy)]
pub struct PMasstree {
    root_slot: Addr,
}

impl PMasstree {
    /// Creates an empty tree with one leaf as root.
    pub fn create(ctx: &mut Ctx) -> PMasstree {
        let root_slot = ctx.root_slot(ROOT_SLOT);
        let leaf = Self::alloc_leaf(ctx);
        ctx.store_u64(root_slot, leaf.raw(), Atomicity::Plain, L_ROOT);
        ctx.clflush_labeled(root_slot, "masstree.root_ flush (masstree.h)");
        ctx.sfence_labeled("masstree.root_ fence (masstree.h)");
        PMasstree { root_slot }
    }

    /// Re-opens post-crash.
    pub fn open(ctx: &mut Ctx) -> PMasstree {
        PMasstree {
            root_slot: ctx.root_slot(ROOT_SLOT),
        }
    }

    fn alloc_leaf(ctx: &mut Ctx) -> Addr {
        let leaf = ctx.alloc_line_aligned(LEAF_BYTES);
        ctx.memset(leaf, 0, LEAF_BYTES, "leafnode::ctor memset");
        flush_range(ctx, leaf, LEAF_BYTES, "leafnode::ctor flush (masstree.h)");
        ctx.sfence_labeled("leafnode::ctor fence (masstree.h)");
        leaf
    }

    fn root(&self, ctx: &mut Ctx) -> Option<Addr> {
        as_ptr(ctx.load_u64(self.root_slot, Atomicity::Plain))
    }

    /// Inserts `key → value`: write the slot, flush it, then publish via the
    /// plain `permutation` store (bug #18); grow a sibling leaf via `next`
    /// (bug #19) and replace `root_` (bug #17) when full.
    pub fn put(&self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        let mut leaf = match self.root(ctx) {
            Some(l) => l,
            None => return false,
        };
        for _hop in 0..4 {
            let perm = ctx.load_u64(leaf + OFF_PERMUTATION, Atomicity::Plain);
            let count = perm_count(perm);
            if count < LEAF_WIDTH {
                let slot = count; // next free physical slot
                ctx.store_u64(
                    leaf + OFF_KEYS + slot * 8,
                    key,
                    Atomicity::Plain,
                    "leafnode.key",
                );
                ctx.store_u64(
                    leaf + OFF_VALUES + slot * 8,
                    value,
                    Atomicity::Plain,
                    "leafnode.value",
                );
                flush_range(
                    ctx,
                    leaf + OFF_KEYS + slot * 8,
                    8,
                    "leafnode.entry flush (masstree.h)",
                );
                flush_range(
                    ctx,
                    leaf + OFF_VALUES + slot * 8,
                    8,
                    "leafnode.entry flush (masstree.h)",
                );
                ctx.sfence_labeled("leafnode.entry fence (masstree.h)");
                let new_perm = perm_push(perm, slot);
                ctx.store_u64(
                    leaf + OFF_PERMUTATION,
                    new_perm,
                    Atomicity::Plain,
                    L_PERMUTATION,
                );
                ctx.clflush_labeled(
                    leaf + OFF_PERMUTATION,
                    "leafnode.permutation flush (masstree.h)",
                );
                ctx.sfence_labeled("leafnode.permutation fence (masstree.h)");
                return true;
            }
            // Leaf full: follow or create the sibling.
            let next = ctx.load_u64(leaf + OFF_NEXT, Atomicity::Plain);
            match as_ptr(next) {
                Some(n) => leaf = n,
                None => {
                    let sibling = Self::alloc_leaf(ctx);
                    ctx.store_u64(leaf + OFF_NEXT, sibling.raw(), Atomicity::Plain, L_NEXT);
                    ctx.clflush_labeled(leaf + OFF_NEXT, "leafnode.next flush (masstree.h)");
                    ctx.sfence_labeled("leafnode.next fence (masstree.h)");
                    // Growing the tree updates root_ (a plain store).
                    ctx.store_u64(self.root_slot, leaf.raw(), Atomicity::Plain, L_ROOT);
                    ctx.clflush_labeled(self.root_slot, "masstree.root_ flush (masstree.h)");
                    ctx.sfence_labeled("masstree.root_ fence (masstree.h)");
                    leaf = sibling;
                }
            }
        }
        false
    }

    /// Looks up `key`: decode the permutation first, then probe only the
    /// published slots.
    pub fn get(&self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        let mut leaf = self.root(ctx)?;
        for _hop in 0..4 {
            let perm = ctx.load_u64(leaf + OFF_PERMUTATION, Atomicity::Plain);
            let count = perm_count(perm);
            for i in 0..count {
                let slot = perm_slot(perm, i);
                let k = ctx.load_u64(leaf + OFF_KEYS + slot * 8, Atomicity::Plain);
                if k == key {
                    return Some(ctx.load_u64(leaf + OFF_VALUES + slot * 8, Atomicity::Plain));
                }
            }
            leaf = as_ptr(ctx.load_u64(leaf + OFF_NEXT, Atomicity::Plain))?;
        }
        None
    }
}

/// Keys used by the example driver (six inserts overflow one leaf).
pub const DRIVER_KEYS: [u64; 6] = [5, 10, 15, 20, 25, 30];

/// The example test application.
pub fn program() -> Program {
    Program::new("P-Masstree")
        .pre_crash(|ctx: &mut Ctx| {
            let tree = PMasstree::create(ctx);
            seal_pool(ctx);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                tree.put(ctx, k, (i as u64 + 1) * 9);
            }
        })
        .post_crash(|ctx: &mut Ctx| {
            if !open_pool(ctx) {
                return;
            }
            let tree = PMasstree::open(ctx);
            for &k in &DRIVER_KEYS {
                let _ = tree.get(ctx, k);
            }
        })
}

/// Races Table 3 reports for P-Masstree (bugs #17–#19).
pub const EXPECTED_RACES: &[&str] = &[L_ROOT, L_PERMUTATION, L_NEXT];

/// Table 2b profile (paper: 3 → 14): three explicit mem-ops plus eleven
/// sites clang converts (leaf zero-inits and split copies).
pub fn source_profile() -> SourceProfile {
    use SourceUnit::*;
    let mut regions: Vec<Vec<SourceUnit>> = Vec::new();
    regions.push(vec![ExplicitMemset { words: 12 }]);
    regions.push(vec![ExplicitMemcpy { words: 8 }]);
    regions.push(vec![ExplicitMemcpy { words: 4 }]);
    for _ in 0..6 {
        regions.push(vec![ZeroStoreRun { words: 8 }]);
    }
    for _ in 0..5 {
        regions.push(vec![AssignRun { words: 4 }]);
    }
    SourceProfile::new("P-Masstree", regions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn permutation_encoding_roundtrip() {
        let mut perm = 0u64;
        for slot in 0..LEAF_WIDTH {
            perm = perm_push(perm, slot);
        }
        assert_eq!(perm_count(perm), LEAF_WIDTH);
        for i in 0..LEAF_WIDTH {
            assert_eq!(perm_slot(perm, i), i);
        }
    }

    #[test]
    fn put_get_roundtrip_with_overflow_leaf() {
        let sum = Arc::new(AtomicU64::new(0));
        let s = sum.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let t = PMasstree::create(ctx);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                assert!(t.put(ctx, k, (i as u64 + 1) * 9), "put {k}");
            }
            let mut acc = 0;
            for &k in &DRIVER_KEYS {
                acc += t.get(ctx, k).unwrap_or(0);
            }
            s.store(acc, Ordering::SeqCst);
        });
        crate::run_once(&program, 2);
        assert_eq!(sum.load(Ordering::SeqCst), (1 + 2 + 3 + 4 + 5 + 6) * 9);
    }

    #[test]
    fn unpublished_slot_is_invisible() {
        // A key written into a slot but not yet published via the
        // permutation must not be found — the core Masstree invariant.
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let t = PMasstree::create(ctx);
            t.put(ctx, 5, 50);
            let leaf = t.root(ctx).unwrap();
            // Write slot 1's key directly without a permutation update.
            ctx.store_u64(leaf + OFF_KEYS + 8, 99, Atomicity::Plain, "leafnode.key");
            assert_eq!(t.get(ctx, 99), None);
            assert_eq!(t.get(ctx, 5), Some(50));
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn profile_matches_table2b_row() {
        let p = source_profile();
        assert_eq!(p.source_counts().total(), 3);
        assert_eq!(
            p.asm_counts(&compiler_model::CompilerConfig::clang_o3_x86())
                .total(),
            14
        );
    }
}
