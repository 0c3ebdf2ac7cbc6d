//! FAST_FAIR: a failure-atomic byte-addressable B+-tree (Hwang et al.,
//! FAST '18).
//!
//! The port preserves the lock-free read protocol (readers snapshot
//! `switch_counter` before and after scanning a node) and the in-place
//! entry-shifting insertions of `btree.h`. Table 3 bugs #3–#8 are the
//! persistency races on `last_index`, `switch_counter`, `entry.key`,
//! `entry.ptr`, `btree.root`, and `header.sibling_ptr` — all plain stores
//! committed by insertions/splits and read back by post-crash searches.

use compiler_model::{SourceProfile, SourceUnit};
use jaaru::{Atomicity, Ctx, Program};
use pmem::Addr;

use crate::util::{as_ptr, flush_range, open_pool, seal_pool};

/// Entries per node.
pub const CARDINALITY: u64 = 8;

/// Byte size of one node (32-byte header + entries).
pub const NODE_BYTES: u64 = 32 + CARDINALITY * 16;

// Header field offsets.
const OFF_LEFTMOST: u64 = 0;
const OFF_SIBLING: u64 = 8;
const OFF_LAST_INDEX: u64 = 16;
const OFF_SWITCH_COUNTER: u64 = 20;
const OFF_ENTRIES: u64 = 32;

const ROOT_SLOT: u64 = 0;

// Race labels (Table 3 rows 3–8).
const L_LAST_INDEX: &str = "header.last_index (btree.h)";
const L_SWITCH_COUNTER: &str = "header.switch_counter (btree.h)";
const L_ENTRY_KEY: &str = "entry.key (btree.h)";
const L_ENTRY_PTR: &str = "entry.ptr (btree.h)";
const L_ROOT: &str = "btree.root (btree.h)";
const L_SIBLING: &str = "header.sibling_ptr (btree.h)";

/// A FAST_FAIR B+-tree handle.
#[derive(Debug, Clone, Copy)]
pub struct FastFair {
    root_slot: Addr,
}

fn entry_addr(node: Addr, i: u64) -> Addr {
    node + OFF_ENTRIES + i * 16
}

impl FastFair {
    /// Creates an empty tree: one leaf node as root.
    pub fn create(ctx: &mut Ctx) -> FastFair {
        let root_slot = ctx.root_slot(ROOT_SLOT);
        let leaf = Self::alloc_node(ctx);
        ctx.store_u64(root_slot, leaf.raw(), Atomicity::Plain, L_ROOT);
        ctx.clflush_labeled(root_slot, "btree.root flush (btree.h)");
        ctx.sfence_labeled("btree.root fence (btree.h)");
        FastFair { root_slot }
    }

    /// Re-opens the tree post-crash.
    pub fn open(ctx: &mut Ctx) -> FastFair {
        FastFair {
            root_slot: ctx.root_slot(ROOT_SLOT),
        }
    }

    fn alloc_node(ctx: &mut Ctx) -> Addr {
        let node = ctx.alloc_line_aligned(NODE_BYTES);
        // The page constructor zero-initializes header and entries.
        ctx.memset(node, 0, NODE_BYTES, "page::ctor memset");
        flush_range(ctx, node, NODE_BYTES, "page::ctor flush (btree.h)");
        ctx.sfence_labeled("page::ctor fence (btree.h)");
        node
    }

    fn load_root(&self, ctx: &mut Ctx) -> Option<Addr> {
        as_ptr(ctx.load_u64(self.root_slot, Atomicity::Plain))
    }

    fn is_internal(ctx: &mut Ctx, node: Addr) -> bool {
        ctx.load_u64(node + OFF_LEFTMOST, Atomicity::Plain) != 0
    }

    fn count(ctx: &mut Ctx, node: Addr) -> u64 {
        (ctx.load_u32(node + OFF_LAST_INDEX, Atomicity::Plain) as u64).min(CARDINALITY)
    }

    /// Descends from the root to the leaf responsible for `key`.
    fn find_leaf(&self, ctx: &mut Ctx, key: u64) -> Option<Addr> {
        let mut node = self.load_root(ctx)?;
        for _ in 0..4 {
            if !Self::is_internal(ctx, node) {
                return Some(node);
            }
            let cnt = Self::count(ctx, node);
            let mut child = ctx.load_u64(node + OFF_LEFTMOST, Atomicity::Plain);
            for i in 0..cnt {
                let k = ctx.load_u64(entry_addr(node, i), Atomicity::Plain);
                if key >= k {
                    child = ctx.load_u64(entry_addr(node, i) + 8, Atomicity::Plain);
                } else {
                    break;
                }
            }
            node = as_ptr(child)?;
        }
        None
    }

    /// `page::insert_key`: shift entries right, write the new entry, bump
    /// `last_index`; flush the touched lines.
    fn leaf_insert(ctx: &mut Ctx, node: Addr, key: u64, value: u64) {
        let cnt = Self::count(ctx, node);
        // The lock-free read protocol requires writers to bump
        // switch_counter when the update direction changes; the insertion
        // path stores it non-atomically.
        let sc = ctx.load_u32(node + OFF_SWITCH_COUNTER, Atomicity::Plain);
        if sc % 2 == 1 {
            ctx.store_u32(
                node + OFF_SWITCH_COUNTER,
                sc + 1,
                Atomicity::Plain,
                L_SWITCH_COUNTER,
            );
        }
        // Find the insertion position (entries sorted ascending).
        let mut pos = cnt;
        for i in 0..cnt {
            let k = ctx.load_u64(entry_addr(node, i), Atomicity::Plain);
            if key < k {
                pos = i;
                break;
            }
        }
        // FAST: shift entries right one by one (ptr first, then key), which
        // readers tolerate thanks to the switch_counter protocol.
        let mut i = cnt;
        while i > pos {
            let src = entry_addr(node, i - 1);
            let dst = entry_addr(node, i);
            let p = ctx.load_u64(src + 8, Atomicity::Plain);
            ctx.store_u64(dst + 8, p, Atomicity::Plain, L_ENTRY_PTR);
            let k = ctx.load_u64(src, Atomicity::Plain);
            ctx.store_u64(dst, k, Atomicity::Plain, L_ENTRY_KEY);
            i -= 1;
        }
        ctx.store_u64(
            entry_addr(node, pos) + 8,
            value,
            Atomicity::Plain,
            L_ENTRY_PTR,
        );
        ctx.store_u64(entry_addr(node, pos), key, Atomicity::Plain, L_ENTRY_KEY);
        ctx.store_u32(
            node + OFF_LAST_INDEX,
            (cnt + 1) as u32,
            Atomicity::Plain,
            L_LAST_INDEX,
        );
        flush_range(ctx, node, NODE_BYTES, "insert_key flush (btree.h)");
        ctx.sfence_labeled("insert_key fence (btree.h)");
    }

    /// Splits a full leaf: copy the upper half to a sibling (a `memcpy`, as
    /// clang generates for the entry block copy), link `sibling_ptr`, shrink
    /// the leaf, and grow the tree with a new root.
    fn split_leaf(&self, ctx: &mut Ctx, node: Addr) -> (u64, Addr) {
        let m = CARDINALITY / 2;
        let sibling = Self::alloc_node(ctx);
        // Copy entries m.. to the sibling in one block.
        let mut block = Vec::with_capacity(((CARDINALITY - m) * 16) as usize);
        for i in m..CARDINALITY {
            block.extend_from_slice(&ctx.load_bytes(entry_addr(node, i), 16, Atomicity::Plain));
        }
        ctx.memcpy(entry_addr(sibling, 0), &block, "page split memcpy");
        ctx.store_u32(
            sibling + OFF_LAST_INDEX,
            (CARDINALITY - m) as u32,
            Atomicity::Plain,
            L_LAST_INDEX,
        );
        flush_range(
            ctx,
            sibling,
            NODE_BYTES,
            "page::split sibling flush (btree.h)",
        );
        ctx.sfence_labeled("page::split sibling fence (btree.h)");
        // Link the sibling and shrink this node.
        ctx.store_u64(
            node + OFF_SIBLING,
            sibling.raw(),
            Atomicity::Plain,
            L_SIBLING,
        );
        ctx.store_u32(
            node + OFF_LAST_INDEX,
            m as u32,
            Atomicity::Plain,
            L_LAST_INDEX,
        );
        let sc = ctx.load_u32(node + OFF_SWITCH_COUNTER, Atomicity::Plain);
        ctx.store_u32(
            node + OFF_SWITCH_COUNTER,
            sc + 2,
            Atomicity::Plain,
            L_SWITCH_COUNTER,
        );
        flush_range(ctx, node, 64, "page::split header flush (btree.h)");
        ctx.sfence_labeled("page::split header fence (btree.h)");
        let split_key = ctx.load_u64(entry_addr(sibling, 0), Atomicity::Plain);
        (split_key, sibling)
    }

    fn grow_root(&self, ctx: &mut Ctx, left: Addr, split_key: u64, right: Addr) {
        let new_root = Self::alloc_node(ctx);
        ctx.store_u64(
            new_root + OFF_LEFTMOST,
            left.raw(),
            Atomicity::Plain,
            L_ENTRY_PTR,
        );
        ctx.store_u64(
            entry_addr(new_root, 0),
            split_key,
            Atomicity::Plain,
            L_ENTRY_KEY,
        );
        ctx.store_u64(
            entry_addr(new_root, 0) + 8,
            right.raw(),
            Atomicity::Plain,
            L_ENTRY_PTR,
        );
        ctx.store_u32(new_root + OFF_LAST_INDEX, 1, Atomicity::Plain, L_LAST_INDEX);
        flush_range(ctx, new_root, NODE_BYTES, "grow_root flush (btree.h)");
        ctx.sfence_labeled("grow_root fence (btree.h)");
        ctx.store_u64(self.root_slot, new_root.raw(), Atomicity::Plain, L_ROOT);
        ctx.clflush_labeled(self.root_slot, "btree.root flush (btree.h)");
        ctx.sfence_labeled("btree.root fence (btree.h)");
    }

    /// Inserts a key/value pair.
    pub fn insert(&self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        let leaf = match self.find_leaf(ctx, key) {
            Some(l) => l,
            None => return false,
        };
        if Self::count(ctx, leaf) == CARDINALITY {
            let (split_key, sibling) = self.split_leaf(ctx, leaf);
            // Single-split tree: grow only if the root is still this leaf.
            let root = self.load_root(ctx);
            if root == Some(leaf) {
                self.grow_root(ctx, leaf, split_key, sibling);
            }
            let target = if key >= split_key { sibling } else { leaf };
            Self::leaf_insert(ctx, target, key, value);
        } else {
            Self::leaf_insert(ctx, leaf, key, value);
        }
        true
    }

    /// Removes `key` from its leaf (shift-left deletion; bumps
    /// `switch_counter` to an odd value so readers notice the direction
    /// change).
    pub fn remove(&self, ctx: &mut Ctx, key: u64) -> bool {
        let leaf = match self.find_leaf(ctx, key) {
            Some(l) => l,
            None => return false,
        };
        let cnt = Self::count(ctx, leaf);
        let sc = ctx.load_u32(leaf + OFF_SWITCH_COUNTER, Atomicity::Plain);
        if sc.is_multiple_of(2) {
            ctx.store_u32(
                leaf + OFF_SWITCH_COUNTER,
                sc + 1,
                Atomicity::Plain,
                L_SWITCH_COUNTER,
            );
        }
        for i in 0..cnt {
            let k = ctx.load_u64(entry_addr(leaf, i), Atomicity::Plain);
            if k == key {
                for j in i..cnt - 1 {
                    let nk = ctx.load_u64(entry_addr(leaf, j + 1), Atomicity::Plain);
                    let np = ctx.load_u64(entry_addr(leaf, j + 1) + 8, Atomicity::Plain);
                    ctx.store_u64(entry_addr(leaf, j), nk, Atomicity::Plain, L_ENTRY_KEY);
                    ctx.store_u64(entry_addr(leaf, j) + 8, np, Atomicity::Plain, L_ENTRY_PTR);
                }
                ctx.store_u32(
                    leaf + OFF_LAST_INDEX,
                    (cnt - 1) as u32,
                    Atomicity::Plain,
                    L_LAST_INDEX,
                );
                flush_range(ctx, leaf, NODE_BYTES, "remove_key flush (btree.h)");
                ctx.sfence_labeled("remove_key fence (btree.h)");
                return true;
            }
        }
        false
    }

    /// Lock-free search with the switch_counter retry protocol.
    pub fn search(&self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        let mut leaf = self.find_leaf(ctx, key)?;
        for _hop in 0..4 {
            for _retry in 0..3 {
                let sc_before = ctx.load_u32(leaf + OFF_SWITCH_COUNTER, Atomicity::Plain);
                let cnt = Self::count(ctx, leaf);
                let mut found = None;
                for i in 0..cnt {
                    let k = ctx.load_u64(entry_addr(leaf, i), Atomicity::Plain);
                    if k == key {
                        found = Some(ctx.load_u64(entry_addr(leaf, i) + 8, Atomicity::Plain));
                        break;
                    }
                }
                let sc_after = ctx.load_u32(leaf + OFF_SWITCH_COUNTER, Atomicity::Plain);
                if sc_before == sc_after {
                    if found.is_some() {
                        return found;
                    }
                    break;
                }
            }
            // Not in this leaf: hop to the sibling (the key may have moved
            // during a split).
            match as_ptr(ctx.load_u64(leaf + OFF_SIBLING, Atomicity::Plain)) {
                Some(s) => leaf = s,
                None => return None,
            }
        }
        None
    }

    /// Recovery scan: walk the leaf chain via `sibling_ptr`, counting live
    /// entries (reads every racy header field).
    pub fn recovery_scan(&self, ctx: &mut Ctx) -> u64 {
        let mut node = match self.load_root(ctx) {
            Some(n) => n,
            None => return 0,
        };
        // Descend to the leftmost leaf.
        for _ in 0..4 {
            if !Self::is_internal(ctx, node) {
                break;
            }
            match as_ptr(ctx.load_u64(node + OFF_LEFTMOST, Atomicity::Plain)) {
                Some(c) => node = c,
                None => return 0,
            }
        }
        let mut total = 0;
        for _ in 0..8 {
            total += Self::count(ctx, node);
            match as_ptr(ctx.load_u64(node + OFF_SIBLING, Atomicity::Plain)) {
                Some(s) => node = s,
                None => break,
            }
        }
        total
    }
}

/// Keys used by the example driver (enough to force one split).
pub fn driver_keys() -> Vec<u64> {
    (1..=10).map(|i| i * 11).collect()
}

/// The example test application: insertions, deletions, lookups, recovery.
pub fn program() -> Program {
    Program::new("Fast_Fair")
        .pre_crash(|ctx: &mut Ctx| {
            let tree = FastFair::create(ctx);
            seal_pool(ctx);
            for (i, &k) in driver_keys().iter().enumerate() {
                tree.insert(ctx, k, (i as u64 + 1) * 100);
            }
            tree.remove(ctx, 33);
        })
        .post_crash(|ctx: &mut Ctx| {
            if !open_pool(ctx) {
                return;
            }
            let tree = FastFair::open(ctx);
            for &k in &driver_keys() {
                let _ = tree.search(ctx, k);
            }
            let _ = tree.recovery_scan(ctx);
        })
}

/// Races Table 3 reports for FAST_FAIR (bugs #3–#8).
pub const EXPECTED_RACES: &[&str] = &[
    L_LAST_INDEX,
    L_SWITCH_COUNTER,
    L_ENTRY_KEY,
    L_ENTRY_PTR,
    L_ROOT,
    L_SIBLING,
];

/// Table 2b profile: 1 explicit mem-op in source, 4 in the assembly
/// (paper: 1 → 4): clang introduces a memset for the page constructor's
/// zero-init and memcpys for the entry block copies.
pub fn source_profile() -> SourceProfile {
    use SourceUnit::*;
    SourceProfile::new(
        "Fast_Fair",
        vec![
            // The one explicit memset in the source (page init).
            vec![ExplicitMemset { words: 16 }],
            // Constructor zero-run converted to a second memset.
            vec![ZeroStoreRun { words: 16 }],
            // Split entry-block copies converted to memcpy.
            vec![AssignRun { words: 8 }],
            vec![AssignRun { words: 8 }],
            // Shift loops of small runs stay element-wise.
            vec![AssignRun { words: 1 }],
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::{Engine, PersistencePolicy, SchedPolicy};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn insert_and_search_same_execution() {
        let sum = Arc::new(AtomicU64::new(0));
        let s = sum.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let t = FastFair::create(ctx);
            for &k in &driver_keys() {
                assert!(t.insert(ctx, k, k * 2));
            }
            let mut acc = 0;
            for &k in &driver_keys() {
                acc += t.search(ctx, k).unwrap_or(0);
            }
            s.store(acc, Ordering::SeqCst);
        });
        crate::run_once(&program, 5);
        let expect: u64 = driver_keys().iter().map(|k| k * 2).sum();
        assert_eq!(sum.load(Ordering::SeqCst), expect);
    }

    #[test]
    fn split_creates_internal_root_and_sibling_chain() {
        let scanned = Arc::new(AtomicU64::new(0));
        let s = scanned.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let t = FastFair::create(ctx);
            for &k in &driver_keys() {
                t.insert(ctx, k, k);
            }
            s.store(t.recovery_scan(ctx), Ordering::SeqCst);
        });
        crate::run_once(&program, 5);
        assert_eq!(
            scanned.load(Ordering::SeqCst),
            10,
            "all entries reachable via leaf chain"
        );
    }

    #[test]
    fn remove_deletes_key() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let t = FastFair::create(ctx);
            for &k in &driver_keys() {
                t.insert(ctx, k, k);
            }
            assert!(t.remove(ctx, 33));
            assert_eq!(t.search(ctx, 33), None);
            assert_eq!(t.search(ctx, 44), Some(44));
        });
        crate::run_once(&program, 5);
    }

    #[test]
    fn fully_flushed_tree_survives_floor_only_crash() {
        let sum = Arc::new(AtomicU64::new(0));
        let s = sum.clone();
        let program = Program::new("t")
            .pre_crash(|ctx: &mut Ctx| {
                let t = FastFair::create(ctx);
                seal_pool(ctx);
                for &k in &driver_keys() {
                    t.insert(ctx, k, k * 3);
                }
            })
            .post_crash(move |ctx: &mut Ctx| {
                assert!(open_pool(ctx));
                let t = FastFair::open(ctx);
                let mut acc = 0;
                for &k in &driver_keys() {
                    acc += t.search(ctx, k).unwrap_or(0);
                }
                s.store(acc, Ordering::SeqCst);
            });
        Engine::run_single(
            &program,
            SchedPolicy::Deterministic,
            PersistencePolicy::FloorOnly,
            0,
            None,
            Box::new(jaaru::NullSink),
        );
        let expect: u64 = driver_keys().iter().map(|k| k * 3).sum();
        assert_eq!(sum.load(Ordering::SeqCst), expect);
    }

    #[test]
    fn profile_matches_table2b_row() {
        let p = source_profile();
        assert_eq!(p.source_counts().total(), 1);
        assert_eq!(
            p.asm_counts(&compiler_model::CompilerConfig::clang_o3_x86())
                .total(),
            4
        );
    }
}
