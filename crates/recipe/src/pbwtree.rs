//! P-BwTree: the persistent Bw-Tree from the RECIPE suite.
//!
//! A Bw-Tree maps logical node ids to delta chains through a mapping table
//! updated by CAS — those publications are atomic, so they do not race. The
//! persistency race Table 3 reports (bug #16) is on the `epoch` counter in
//! `BwTreeBase` (`bwtree.h`): every operation bumps it with a plain store
//! that is never flushed, and the post-crash recovery path reads it back.

use compiler_model::{SourceProfile, SourceUnit};
use jaaru::{Atomicity, Ctx, Program};
use pmem::Addr;

use crate::util::{as_ptr, flush_range, open_pool, seal_pool};

/// Mapping-table slots.
pub const MAPPING_SLOTS: u64 = 4;

// Delta record layout: { key u64, value u64, next u64 }.
const DELTA_BYTES: u64 = 24;

// Base node layout: { count u64, pairs[8] (key,value) }.
const BASE_BYTES: u64 = 8 + 8 * 16;

const MT_SLOT: u64 = 0;
const EPOCH_SLOT: u64 = 1;

const L_EPOCH: &str = "BwTreeBase.epoch (bwtree.h)";

/// A P-BwTree handle.
#[derive(Debug, Clone, Copy)]
pub struct PBwTree {
    mapping: Addr,
}

impl PBwTree {
    /// Creates an empty tree: a mapping table pointing at empty base nodes.
    pub fn create(ctx: &mut Ctx) -> PBwTree {
        let mapping = ctx.alloc_line_aligned(MAPPING_SLOTS * 8);
        for s in 0..MAPPING_SLOTS {
            let base = ctx.alloc_line_aligned(BASE_BYTES);
            ctx.memset(base, 0, BASE_BYTES, "BaseNode::ctor memset");
            flush_range(ctx, base, BASE_BYTES, "BaseNode::ctor flush (bwtree.h)");
            ctx.sfence_labeled("BaseNode::ctor fence (bwtree.h)");
            // Initial publication via CAS, like the runtime updates.
            ctx.cas_u64(mapping + s * 8, 0, base.raw(), "MappingTable.slot");
        }
        flush_range(
            ctx,
            mapping,
            MAPPING_SLOTS * 8,
            "MappingTable::ctor flush (bwtree.h)",
        );
        ctx.sfence_labeled("MappingTable::ctor fence (bwtree.h)");
        ctx.store_u64(
            ctx.root_slot(MT_SLOT),
            mapping.raw(),
            Atomicity::Plain,
            "BwTree.mapping",
        );
        ctx.clflush_labeled(ctx.root_slot(MT_SLOT), "BwTree.mapping flush (bwtree.h)");
        ctx.sfence_labeled("BwTree.mapping fence (bwtree.h)");
        PBwTree { mapping }
    }

    /// Re-opens post-crash.
    pub fn open(ctx: &mut Ctx) -> Option<PBwTree> {
        let mapping = as_ptr(ctx.load_u64(ctx.root_slot(MT_SLOT), Atomicity::Plain))?;
        Some(PBwTree { mapping })
    }

    /// Bumps the global epoch: the racy plain store of bug #16.
    fn bump_epoch(&self, ctx: &mut Ctx) {
        let e = ctx.load_u64(ctx.root_slot(EPOCH_SLOT), Atomicity::Plain);
        ctx.store_u64(ctx.root_slot(EPOCH_SLOT), e + 1, Atomicity::Plain, L_EPOCH);
        // Never flushed — the epoch is considered volatile bookkeeping, but
        // it lives in the persistent pool.
    }

    fn slot_of(key: u64) -> u64 {
        crate::util::hash64(key) % MAPPING_SLOTS
    }

    /// Inserts by prepending a fully flushed delta record, published with a
    /// CAS on the mapping slot.
    pub fn insert(&self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        self.bump_epoch(ctx);
        let slot = self.mapping + Self::slot_of(key) * 8;
        let head = ctx.load_acquire_u64(slot);
        let delta = ctx.alloc_line_aligned(DELTA_BYTES);
        ctx.store_u64(delta, key, Atomicity::Plain, "DeltaInsert.key");
        ctx.store_u64(delta + 8, value, Atomicity::Plain, "DeltaInsert.value");
        ctx.store_u64(delta + 16, head, Atomicity::Plain, "DeltaInsert.next");
        flush_range(ctx, delta, DELTA_BYTES, "DeltaInsert flush (bwtree.h)");
        ctx.sfence_labeled("DeltaInsert fence (bwtree.h)");
        let (_, ok) = ctx.cas_u64(slot, head, delta.raw(), "MappingTable.slot");
        ok
    }

    /// Looks up `key` by walking the delta chain.
    pub fn lookup(&self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        self.bump_epoch(ctx);
        let slot = self.mapping + Self::slot_of(key) * 8;
        let mut cur = ctx.load_acquire_u64(slot);
        for _ in 0..16 {
            let node = as_ptr(cur)?;
            let k = ctx.load_u64(node, Atomicity::Plain);
            if k == key {
                return Some(ctx.load_u64(node + 8, Atomicity::Plain));
            }
            // Base nodes have key field 0 (count) — chain ends there.
            if k == 0 {
                return None;
            }
            cur = ctx.load_u64(node + 16, Atomicity::Plain);
        }
        None
    }

    /// Recovery: reads the epoch back (the race-observing load of bug #16).
    pub fn recover_epoch(&self, ctx: &mut Ctx) -> u64 {
        ctx.load_u64(ctx.root_slot(EPOCH_SLOT), Atomicity::Plain)
    }
}

/// Keys used by the example driver.
pub const DRIVER_KEYS: [u64; 4] = [12, 34, 56, 78];

/// The example test application.
pub fn program() -> Program {
    Program::new("P-BwTree")
        .pre_crash(|ctx: &mut Ctx| {
            let tree = PBwTree::create(ctx);
            seal_pool(ctx);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                tree.insert(ctx, k, (i as u64 + 1) * 5);
            }
        })
        .post_crash(|ctx: &mut Ctx| {
            if !open_pool(ctx) {
                return;
            }
            if let Some(tree) = PBwTree::open(ctx) {
                let _ = tree.recover_epoch(ctx);
                for &k in &DRIVER_KEYS {
                    let _ = tree.lookup(ctx, k);
                }
            }
        })
}

/// Races Table 3 reports for P-BwTree (bug #16).
pub const EXPECTED_RACES: &[&str] = &[L_EPOCH];

/// Table 2b profile (paper: 6 → 15): six explicit mem-ops scattered across
/// functions, plus nine sites clang converts (node zero-inits and
/// consolidation copies).
pub fn source_profile() -> SourceProfile {
    use SourceUnit::*;
    let mut regions: Vec<Vec<SourceUnit>> = Vec::new();
    for _ in 0..3 {
        regions.push(vec![ExplicitMemset { words: 8 }]);
    }
    for _ in 0..3 {
        regions.push(vec![ExplicitMemcpy { words: 8 }]);
    }
    for _ in 0..5 {
        regions.push(vec![ZeroStoreRun { words: 8 }]);
    }
    for _ in 0..4 {
        regions.push(vec![AssignRun { words: 4 }]);
    }
    SourceProfile::new("P-BwTree", regions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn insert_lookup_roundtrip() {
        let sum = Arc::new(AtomicU64::new(0));
        let s = sum.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let t = PBwTree::create(ctx);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                assert!(t.insert(ctx, k, (i as u64 + 1) * 5));
            }
            let mut acc = 0;
            for &k in &DRIVER_KEYS {
                acc += t.lookup(ctx, k).unwrap_or(0);
            }
            s.store(acc, Ordering::SeqCst);
        });
        crate::run_once(&program, 2);
        assert_eq!(sum.load(Ordering::SeqCst), 5 + 10 + 15 + 20);
    }

    #[test]
    fn missing_key_not_found() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let t = PBwTree::create(ctx);
            t.insert(ctx, 12, 1);
            assert_eq!(t.lookup(ctx, 99), None);
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn newer_delta_shadows_older() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let t = PBwTree::create(ctx);
            t.insert(ctx, 12, 1);
            t.insert(ctx, 12, 2);
            assert_eq!(t.lookup(ctx, 12), Some(2));
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn epoch_counts_operations() {
        let e = Arc::new(AtomicU64::new(0));
        let e2 = e.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let t = PBwTree::create(ctx);
            t.insert(ctx, 1, 1);
            t.insert(ctx, 2, 2);
            let _ = t.lookup(ctx, 1);
            e2.store(t.recover_epoch(ctx), Ordering::SeqCst);
        });
        crate::run_once(&program, 2);
        assert_eq!(e.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn profile_matches_table2b_row() {
        let p = source_profile();
        assert_eq!(p.source_counts().total(), 6);
        assert_eq!(
            p.asm_counts(&compiler_model::CompilerConfig::clang_o3_x86())
                .total(),
            15
        );
    }
}
