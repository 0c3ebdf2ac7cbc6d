//! P-ART: the persistent Adaptive Radix Tree from the RECIPE suite.
//!
//! The port models the ROWEX-style concurrent ART: child pointers are
//! atomic (so lock-free readers are safe), while the node bookkeeping
//! fields `compactCount` and `count` are plain stores — Table 3 bugs #9/#10.
//! Removals feed an epoch-based reclamation scheme (`Epoche.h`) whose
//! `DeletionList`/`LabelDelete` bookkeeping fields are also plain stores
//! living in PM — bugs #11–#15. The paper notes (§7.4) that the RECIPE
//! authors consider the reclamation allocator known-crash-inconsistent; the
//! races are real but would be fixed by replacing the allocator.

use compiler_model::{SourceProfile, SourceUnit};
use jaaru::{Atomicity, Ctx, Program};
use pmem::Addr;

use crate::util::{as_ptr, flush_range, open_pool, seal_pool};

/// Fan-out of a small node.
pub const N4_SLOTS: u64 = 4;
/// Fan-out of a grown node.
pub const N16_SLOTS: u64 = 16;

// Node layout: header { type u8, pad, compactCount u16, count u16 },
// keys[16] u8, children[16] u64 — sized for N16, N4 uses a prefix.
const OFF_TYPE: u64 = 0;
const OFF_COMPACT_COUNT: u64 = 2;
const OFF_COUNT: u64 = 4;
const OFF_KEYS: u64 = 8;
const OFF_CHILDREN: u64 = 24;
/// Byte size of a node.
pub const NODE_BYTES: u64 = OFF_CHILDREN + N16_SLOTS * 8;

const TYPE_N4: u8 = 4;
const TYPE_N16: u8 = 16;

// DeletionList layout (one per thread; we model one).
const DL_HEAD: u64 = 0;
const DL_COUNT: u64 = 8;
const DL_THRESHOLD: u64 = 16;
const DL_ADDED: u64 = 24;
/// Byte size of the deletion list.
pub const DL_BYTES: u64 = 32;

// LabelDelete layout.
const LD_NODES_COUNT: u64 = 0;
const LD_NEXT: u64 = 8;
const LD_NODES: u64 = 16;
/// Byte size of a LabelDelete record.
pub const LD_BYTES: u64 = 16 + 4 * 8;

const ROOT_SLOT: u64 = 0;
const DL_SLOT: u64 = 1;

// Race labels (Table 3 rows 9–15; the paper's own spelling of
// "deletitionListCount" is preserved).
const L_COMPACT_COUNT: &str = "N.compactCount (N.h)";
const L_COUNT: &str = "N.count (N.h)";
const L_DL_COUNT: &str = "DeletionList.deletitionListCount (Epoche.h)";
const L_DL_HEAD: &str = "DeletionList.headDeletionList (Epoche.h)";
const L_LD_NODES_COUNT: &str = "LabelDelete.nodesCount (Epoche.h)";
const L_DL_ADDED: &str = "DeletionList.added (Epoche.h)";
const L_DL_THRESHOLD: &str = "DeletionList.thresholdCounter (Epoche.h)";

/// A P-ART handle (single radix level over the key's low byte, which is all
/// the driver needs to exercise N4 → N16 growth).
#[derive(Debug, Clone, Copy)]
pub struct Part {
    dl: Addr,
}

impl Part {
    /// Creates an empty tree with an N4 root and a deletion list.
    pub fn create(ctx: &mut Ctx) -> Part {
        let node = Self::alloc_node(ctx, TYPE_N4);
        ctx.store_u64(
            ctx.root_slot(ROOT_SLOT),
            node.raw(),
            Atomicity::ReleaseAcquire,
            "ART.root",
        );
        ctx.clflush_labeled(ctx.root_slot(ROOT_SLOT), "ART.root flush (Tree.h)");
        ctx.sfence_labeled("ART.root fence (Tree.h)");
        let dl = ctx.alloc_line_aligned(DL_BYTES);
        ctx.memset(dl, 0, DL_BYTES, "DeletionList::ctor memset");
        flush_range(ctx, dl, DL_BYTES, "DeletionList::ctor flush (Epoche.h)");
        ctx.sfence_labeled("DeletionList::ctor fence (Epoche.h)");
        ctx.store_u64(
            ctx.root_slot(DL_SLOT),
            dl.raw(),
            Atomicity::Plain,
            "Epoche.deletionList",
        );
        ctx.clflush_labeled(
            ctx.root_slot(DL_SLOT),
            "Epoche.deletionList flush (Epoche.h)",
        );
        ctx.sfence_labeled("Epoche.deletionList fence (Epoche.h)");
        Part { dl }
    }

    /// Re-opens post-crash.
    pub fn open(ctx: &mut Ctx) -> Option<Part> {
        let dl = as_ptr(ctx.load_u64(ctx.root_slot(DL_SLOT), Atomicity::Plain))?;
        Some(Part { dl })
    }

    fn alloc_node(ctx: &mut Ctx, node_type: u8) -> Addr {
        let node = ctx.alloc_line_aligned(NODE_BYTES);
        // N4::N4() / N16::N16() zero their key and child arrays.
        ctx.memset(node, 0, NODE_BYTES, "N::ctor memset");
        flush_range(ctx, node, NODE_BYTES, "N::ctor flush (N.h)");
        ctx.store_u8(node + OFF_TYPE, node_type, Atomicity::Relaxed, "N.type");
        ctx.clflush_labeled(node, "N.type flush (N.h)");
        ctx.sfence_labeled("N.type fence (N.h)");
        node
    }

    fn root(ctx: &mut Ctx) -> Option<Addr> {
        as_ptr(ctx.load_acquire_u64(ctx.root_slot(ROOT_SLOT)))
    }

    fn slots(ctx: &mut Ctx, node: Addr) -> u64 {
        if ctx.load_u8(node + OFF_TYPE, Atomicity::Relaxed) == TYPE_N16 {
            N16_SLOTS
        } else {
            N4_SLOTS
        }
    }

    /// Inserts `key → value`, growing the root N4 into an N16 when full
    /// (N4.cpp/N16.cpp write `compactCount` and `count`).
    pub fn insert(&self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        let mut node = match Self::root(ctx) {
            Some(n) => n,
            None => return false,
        };
        let byte = (key & 0xff) as u8;
        let cc = ctx.load_u16(node + OFF_COMPACT_COUNT, Atomicity::Plain) as u64;
        let slots = Self::slots(ctx, node);
        if cc >= slots {
            node = self.grow(ctx, node);
        }
        let cc = ctx.load_u16(node + OFF_COMPACT_COUNT, Atomicity::Plain) as u64;
        if cc >= Self::slots(ctx, node) {
            return false;
        }
        // Leaf record: fully written and flushed before publication.
        let leaf = ctx.alloc(16, 8);
        ctx.store_u64(leaf, key, Atomicity::Plain, "ART.leaf.key");
        ctx.store_u64(leaf + 8, value, Atomicity::Plain, "ART.leaf.value");
        flush_range(ctx, leaf, 16, "ART.leaf flush (Tree.h)");
        ctx.sfence_labeled("ART.leaf fence (Tree.h)");
        // Publish: key byte, atomic child pointer, then the plain counters.
        ctx.store_u8(node + OFF_KEYS + cc, byte, Atomicity::Relaxed, "N.keys");
        ctx.store_u64(
            node + OFF_CHILDREN + cc * 8,
            leaf.raw(),
            Atomicity::ReleaseAcquire,
            "N.children",
        );
        ctx.store_u16(
            node + OFF_COMPACT_COUNT,
            (cc + 1) as u16,
            Atomicity::Plain,
            L_COMPACT_COUNT,
        );
        let count = ctx.load_u16(node + OFF_COUNT, Atomicity::Plain);
        ctx.store_u16(node + OFF_COUNT, count + 1, Atomicity::Plain, L_COUNT);
        flush_range(ctx, node, NODE_BYTES, "N::insert flush (N.h)");
        ctx.sfence_labeled("N::insert fence (N.h)");
        true
    }

    /// Grows the root N4 into an N16, copying keys and children.
    fn grow(&self, ctx: &mut Ctx, old: Addr) -> Addr {
        let new = Self::alloc_node(ctx, TYPE_N16);
        let cc = ctx.load_u16(old + OFF_COMPACT_COUNT, Atomicity::Plain) as u64;
        for i in 0..cc.min(N4_SLOTS) {
            let k = ctx.load_u8(old + OFF_KEYS + i, Atomicity::Relaxed);
            let c = ctx.load_acquire_u64(old + OFF_CHILDREN + i * 8);
            ctx.store_u8(new + OFF_KEYS + i, k, Atomicity::Relaxed, "N.keys");
            ctx.store_u64(
                new + OFF_CHILDREN + i * 8,
                c,
                Atomicity::ReleaseAcquire,
                "N.children",
            );
        }
        ctx.store_u16(
            new + OFF_COMPACT_COUNT,
            cc as u16,
            Atomicity::Plain,
            L_COMPACT_COUNT,
        );
        ctx.store_u16(new + OFF_COUNT, cc as u16, Atomicity::Plain, L_COUNT);
        flush_range(ctx, new, NODE_BYTES, "N::grow flush (N.h)");
        ctx.sfence_labeled("N::grow fence (N.h)");
        ctx.store_u64(
            ctx.root_slot(ROOT_SLOT),
            new.raw(),
            Atomicity::ReleaseAcquire,
            "ART.root",
        );
        ctx.clflush_labeled(ctx.root_slot(ROOT_SLOT), "ART.root flush (Tree.h)");
        ctx.sfence_labeled("ART.root fence (Tree.h)");
        // The old node goes to the deletion list (epoch reclamation).
        self.mark_deleted(ctx, old);
        new
    }

    /// `Epoche::markNodeForDeletion`: plain-store bookkeeping in PM.
    fn mark_deleted(&self, ctx: &mut Ctx, node: Addr) {
        let ld = ctx.alloc_line_aligned(LD_BYTES);
        ctx.store_u64(
            ld + LD_NODES,
            node.raw(),
            Atomicity::Plain,
            "LabelDelete.nodes",
        );
        ctx.store_u64(ld + LD_NODES_COUNT, 1, Atomicity::Plain, L_LD_NODES_COUNT);
        // The `next` link is part of the headDeletionList chain.
        let head = ctx.load_u64(self.dl + DL_HEAD, Atomicity::Plain);
        ctx.store_u64(ld + LD_NEXT, head, Atomicity::Plain, L_DL_HEAD);
        ctx.store_u64(self.dl + DL_HEAD, ld.raw(), Atomicity::Plain, L_DL_HEAD);
        let n = ctx.load_u64(self.dl + DL_COUNT, Atomicity::Plain);
        ctx.store_u64(self.dl + DL_COUNT, n + 1, Atomicity::Plain, L_DL_COUNT);
        let a = ctx.load_u64(self.dl + DL_ADDED, Atomicity::Plain);
        ctx.store_u64(self.dl + DL_ADDED, a + 1, Atomicity::Plain, L_DL_ADDED);
        let t = ctx.load_u64(self.dl + DL_THRESHOLD, Atomicity::Plain);
        ctx.store_u64(
            self.dl + DL_THRESHOLD,
            t + 1,
            Atomicity::Plain,
            L_DL_THRESHOLD,
        );
        // The reclamation code never flushes these (the known-inconsistent
        // allocator of §7.4).
    }

    /// Removes `key` by unlinking its child pointer and retiring the leaf.
    pub fn remove(&self, ctx: &mut Ctx, key: u64) -> bool {
        let node = match Self::root(ctx) {
            Some(n) => n,
            None => return false,
        };
        let byte = (key & 0xff) as u8;
        let cc = ctx.load_u16(node + OFF_COMPACT_COUNT, Atomicity::Plain) as u64;
        for i in 0..cc.min(N16_SLOTS) {
            let k = ctx.load_u8(node + OFF_KEYS + i, Atomicity::Relaxed);
            if k == byte {
                let child = ctx.load_acquire_u64(node + OFF_CHILDREN + i * 8);
                ctx.store_u64(
                    node + OFF_CHILDREN + i * 8,
                    0,
                    Atomicity::ReleaseAcquire,
                    "N.children",
                );
                let count = ctx.load_u16(node + OFF_COUNT, Atomicity::Plain);
                ctx.store_u16(
                    node + OFF_COUNT,
                    count.saturating_sub(1),
                    Atomicity::Plain,
                    L_COUNT,
                );
                flush_range(ctx, node, NODE_BYTES, "N::remove flush (N.h)");
                ctx.sfence_labeled("N::remove fence (N.h)");
                if let Some(leaf) = as_ptr(child) {
                    self.mark_deleted(ctx, leaf);
                }
                return true;
            }
        }
        false
    }

    /// Looks up `key`. `N4::getChild` scans up to `compactCount`;
    /// `N16::getChild` uses `count` — both bookkeeping fields are read back
    /// post-crash.
    pub fn lookup(&self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        let node = Self::root(ctx)?;
        let byte = (key & 0xff) as u8;
        let cc = if ctx.load_u8(node + OFF_TYPE, Atomicity::Relaxed) == TYPE_N16 {
            let c = ctx.load_u16(node + OFF_COUNT, Atomicity::Plain) as u64;
            let cc = ctx.load_u16(node + OFF_COMPACT_COUNT, Atomicity::Plain) as u64;
            c.max(cc).min(N16_SLOTS)
        } else {
            (ctx.load_u16(node + OFF_COMPACT_COUNT, Atomicity::Plain) as u64).min(N16_SLOTS)
        };
        for i in 0..cc {
            let k = ctx.load_u8(node + OFF_KEYS + i, Atomicity::Relaxed);
            if k == byte {
                let child = as_ptr(ctx.load_acquire_u64(node + OFF_CHILDREN + i * 8))?;
                let stored = ctx.load_u64(child, Atomicity::Plain);
                if stored == key {
                    return Some(ctx.load_u64(child + 8, Atomicity::Plain));
                }
            }
        }
        None
    }

    /// Epoch recovery: reads the deletion-list bookkeeping (the post-crash
    /// reads that observe bugs #11–#15).
    pub fn epoch_recovery(&self, ctx: &mut Ctx) -> u64 {
        let mut reclaimed = 0;
        let count = ctx.load_u64(self.dl + DL_COUNT, Atomicity::Plain);
        let _added = ctx.load_u64(self.dl + DL_ADDED, Atomicity::Plain);
        let _threshold = ctx.load_u64(self.dl + DL_THRESHOLD, Atomicity::Plain);
        let mut head = ctx.load_u64(self.dl + DL_HEAD, Atomicity::Plain);
        for _ in 0..count.min(16) {
            let ld = match as_ptr(head) {
                Some(a) => a,
                None => break,
            };
            reclaimed += ctx.load_u64(ld + LD_NODES_COUNT, Atomicity::Plain);
            head = ctx.load_u64(ld + LD_NEXT, Atomicity::Plain);
        }
        reclaimed
    }
}

/// Keys used by the example driver: five inserts force N4 → N16 growth.
pub const DRIVER_KEYS: [u64; 5] = [0x11, 0x22, 0x33, 0x44, 0x55];

/// The example test application.
pub fn program() -> Program {
    Program::new("P-ART")
        .pre_crash(|ctx: &mut Ctx| {
            let tree = Part::create(ctx);
            seal_pool(ctx);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                tree.insert(ctx, k, (i as u64 + 1) * 7);
            }
            tree.remove(ctx, 0x22);
        })
        .post_crash(|ctx: &mut Ctx| {
            if !open_pool(ctx) {
                return;
            }
            if let Some(tree) = Part::open(ctx) {
                for &k in &DRIVER_KEYS {
                    let _ = tree.lookup(ctx, k);
                }
                let _ = tree.epoch_recovery(ctx);
            }
        })
}

/// Races Table 3 reports for P-ART (bugs #9–#15).
pub const EXPECTED_RACES: &[&str] = &[
    L_COMPACT_COUNT,
    L_COUNT,
    L_DL_COUNT,
    L_DL_HEAD,
    L_LD_NODES_COUNT,
    L_DL_ADDED,
    L_DL_THRESHOLD,
];

/// Table 2b profile: P-ART is the benchmark whose *assembly* has fewer
/// mem-ops than its source (17 → 8): the constructors call 14 `memset`s on
/// adjacent regions that clang merges into 3, and two assignment runs
/// become 2 introduced `memcpy`s alongside 3 explicit copies.
pub fn source_profile() -> SourceProfile {
    use SourceUnit::*;
    let regions: Vec<Vec<SourceUnit>> = vec![
        // Constructor bodies: adjacent memsets that merge (5 + 5 + 4 = 14 src).
        vec![ExplicitMemset { words: 2 }; 5],
        vec![ExplicitMemset { words: 2 }; 5],
        vec![ExplicitMemset { words: 2 }; 4],
        // Three explicit copies in distinct functions.
        vec![ExplicitMemcpy { words: 4 }],
        vec![ExplicitMemcpy { words: 4 }],
        vec![ExplicitMemcpy { words: 2 }],
        // Two assignment runs clang turns into memcpy.
        vec![AssignRun { words: 4 }],
        vec![AssignRun { words: 4 }],
    ];
    SourceProfile::new("P-ART", regions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn insert_lookup_roundtrip_with_growth() {
        let sum = Arc::new(AtomicU64::new(0));
        let s = sum.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let t = Part::create(ctx);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                assert!(t.insert(ctx, k, (i as u64 + 1) * 7), "insert {k:#x}");
            }
            let mut acc = 0;
            for &k in &DRIVER_KEYS {
                acc += t.lookup(ctx, k).unwrap_or(0);
            }
            s.store(acc, Ordering::SeqCst);
        });
        crate::run_once(&program, 2);
        assert_eq!(sum.load(Ordering::SeqCst), 7 + 14 + 21 + 28 + 35);
    }

    #[test]
    fn growth_retires_old_node_to_deletion_list() {
        let reclaimed = Arc::new(AtomicU64::new(0));
        let r = reclaimed.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let t = Part::create(ctx);
            for &k in &DRIVER_KEYS {
                t.insert(ctx, k, 1);
            }
            t.remove(ctx, 0x11);
            r.store(t.epoch_recovery(ctx), Ordering::SeqCst);
        });
        crate::run_once(&program, 2);
        // One node from growth + one leaf from removal.
        assert_eq!(reclaimed.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn removed_key_is_gone() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let t = Part::create(ctx);
            for &k in &DRIVER_KEYS {
                t.insert(ctx, k, k);
            }
            assert!(t.remove(ctx, 0x33));
            assert_eq!(t.lookup(ctx, 0x33), None);
            assert_eq!(t.lookup(ctx, 0x44), Some(0x44));
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn profile_matches_table2b_row() {
        let p = source_profile();
        assert_eq!(p.source_counts().total(), 17);
        assert_eq!(
            p.asm_counts(&compiler_model::CompilerConfig::clang_o3_x86())
                .total(),
            8
        );
    }
}
