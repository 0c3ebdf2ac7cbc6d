//! A persistent skiplist.
//!
//! Nodes carry a tower of next pointers; insertion persists the node fully,
//! then links it level by level from the bottom. In the racy variant the
//! link stores are plain — a crash between a link store and its flush lets
//! recovery read a partially persistent pointer, exactly the bug class
//! Yashme targets. The fixed variant publishes links with release stores.

use jaaru::{Atomicity, Ctx, Program};
use pmem::Addr;

use crate::Variant;

/// Maximum tower height.
pub const MAX_LEVEL: u64 = 4;

// Node layout: { key u64, value u64, next[MAX_LEVEL] u64 }.
const OFF_KEY: u64 = 0;
const OFF_VALUE: u64 = 8;
const OFF_NEXT: u64 = 16;
/// Byte size of a node.
pub const NODE_BYTES: u64 = OFF_NEXT + MAX_LEVEL * 8;

const HEAD_SLOT: u64 = 0;

/// Race label of the link stores.
pub const LINK_LABEL: &str = "skiplist.node.next";

/// A persistent skiplist handle.
#[derive(Debug, Clone, Copy)]
pub struct SkipList {
    head: Addr,
    variant: Variant,
}

fn valid(raw: u64) -> Option<Addr> {
    if raw >= Addr::BASE.raw() && raw < Addr::BASE.raw() + (1 << 30) {
        Some(Addr(raw))
    } else {
        None
    }
}

/// Deterministic tower height from the key (so runs are replayable):
/// height = 1 + trailing ones of a key hash, capped.
fn height_of(key: u64) -> u64 {
    let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
    ((h.trailing_ones() as u64) + 1).min(MAX_LEVEL)
}

impl SkipList {
    /// Creates an empty list: a head node with null towers.
    pub fn create(ctx: &mut Ctx, variant: Variant) -> SkipList {
        let head = ctx.alloc_line_aligned(NODE_BYTES);
        ctx.memset(head, 0, NODE_BYTES, "skiplist head init");
        for line in head.lines_in_range(NODE_BYTES) {
            ctx.clflush_labeled(line.base(), "skiplist.head flush (pskiplist)");
        }
        ctx.sfence_labeled("skiplist.head fence (pskiplist)");
        ctx.store_u64(
            ctx.root_slot(HEAD_SLOT),
            head.raw(),
            Atomicity::ReleaseAcquire,
            "skiplist.head",
        );
        ctx.clflush_labeled(ctx.root_slot(HEAD_SLOT), "skiplist.head flush (pskiplist)");
        ctx.sfence_labeled("skiplist.head fence (pskiplist)");
        SkipList { head, variant }
    }

    /// Re-opens the list post-crash.
    pub fn open(ctx: &mut Ctx, variant: Variant) -> Option<SkipList> {
        let head = valid(ctx.load_acquire_u64(ctx.root_slot(HEAD_SLOT)))?;
        Some(SkipList { head, variant })
    }

    fn next(&self, ctx: &mut Ctx, node: Addr, level: u64) -> u64 {
        match self.variant {
            Variant::Racy => ctx.load_u64(node + OFF_NEXT + level * 8, Atomicity::Plain),
            Variant::Fixed => ctx.load_acquire_u64(node + OFF_NEXT + level * 8),
        }
    }

    fn set_next(&self, ctx: &mut Ctx, node: Addr, level: u64, target: u64) {
        ctx.store_u64(
            node + OFF_NEXT + level * 8,
            target,
            self.variant.atomicity(),
            LINK_LABEL,
        );
        ctx.clflush_labeled(
            node + OFF_NEXT + level * 8,
            "skiplist.link flush (pskiplist)",
        );
        ctx.sfence_labeled("skiplist.link fence (pskiplist)");
    }

    /// Finds the per-level predecessors of `key`.
    fn predecessors(&self, ctx: &mut Ctx, key: u64) -> [Addr; MAX_LEVEL as usize] {
        let mut preds = [self.head; MAX_LEVEL as usize];
        let mut node = self.head;
        for level in (0..MAX_LEVEL).rev() {
            for _ in 0..64 {
                let nxt = self.next(ctx, node, level);
                match valid(nxt) {
                    Some(n) if ctx.load_u64(n + OFF_KEY, Atomicity::Plain) < key => node = n,
                    _ => break,
                }
            }
            preds[level as usize] = node;
        }
        preds
    }

    /// Inserts `key → value`: the node is fully persisted before any link
    /// store publishes it.
    pub fn insert(&self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        let preds = self.predecessors(ctx, key);
        // Update in place if present.
        if let Some(n) = valid(self.next(ctx, preds[0], 0)) {
            if ctx.load_u64(n + OFF_KEY, Atomicity::Plain) == key {
                ctx.store_u64(
                    n + OFF_VALUE,
                    value,
                    Atomicity::Plain,
                    "skiplist.node.value",
                );
                ctx.clflush_labeled(n + OFF_VALUE, "skiplist.node.value flush (pskiplist)");
                ctx.sfence_labeled("skiplist.node.value fence (pskiplist)");
                return true;
            }
        }
        let height = height_of(key);
        let node = ctx.alloc_line_aligned(NODE_BYTES);
        ctx.store_u64(node + OFF_KEY, key, Atomicity::Plain, "skiplist.node.key");
        ctx.store_u64(
            node + OFF_VALUE,
            value,
            Atomicity::Plain,
            "skiplist.node.value",
        );
        for level in 0..MAX_LEVEL {
            let succ = if level < height {
                self.next(ctx, preds[level as usize], level)
            } else {
                0
            };
            ctx.store_u64(
                node + OFF_NEXT + level * 8,
                succ,
                Atomicity::Plain,
                LINK_LABEL,
            );
        }
        for line in node.lines_in_range(NODE_BYTES) {
            ctx.clflush_labeled(line.base(), "skiplist.node flush (pskiplist)");
        }
        ctx.sfence_labeled("skiplist.node fence (pskiplist)");
        // Publish bottom-up.
        for level in 0..height {
            self.set_next(ctx, preds[level as usize], level, node.raw());
        }
        true
    }

    /// Looks `key` up.
    pub fn get(&self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        let preds = self.predecessors(ctx, key);
        let n = valid(self.next(ctx, preds[0], 0))?;
        if ctx.load_u64(n + OFF_KEY, Atomicity::Plain) == key {
            Some(ctx.load_u64(n + OFF_VALUE, Atomicity::Plain))
        } else {
            None
        }
    }

    /// Bottom-level scan (recovery walk): returns all keys in order.
    pub fn scan(&self, ctx: &mut Ctx) -> Vec<u64> {
        let mut keys = Vec::new();
        let mut node = self.head;
        for _ in 0..64 {
            match valid(self.next(ctx, node, 0)) {
                Some(n) => {
                    keys.push(ctx.load_u64(n + OFF_KEY, Atomicity::Plain));
                    node = n;
                }
                None => break,
            }
        }
        keys
    }
}

/// Driver keys.
pub const DRIVER_KEYS: [u64; 6] = [31, 7, 55, 19, 2, 43];

/// The benchmark driver for a variant.
pub fn program(variant: Variant) -> Program {
    Program::new(match variant {
        Variant::Racy => "x-skiplist",
        Variant::Fixed => "x-skiplist-fixed",
    })
    .pre_crash(move |ctx: &mut Ctx| {
        let list = SkipList::create(ctx, variant);
        for (i, &k) in DRIVER_KEYS.iter().enumerate() {
            list.insert(ctx, k, (i as u64 + 1) * 100);
        }
    })
    .post_crash(move |ctx: &mut Ctx| {
        if let Some(list) = SkipList::open(ctx, variant) {
            for &k in &DRIVER_KEYS {
                let _ = list.get(ctx, k);
            }
            let _ = list.scan(ctx);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn insert_get_scan_sorted() {
        for variant in [Variant::Racy, Variant::Fixed] {
            let scanned = Arc::new(Mutex::new(Vec::new()));
            let s = scanned.clone();
            let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
                let list = SkipList::create(ctx, variant);
                for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                    assert!(list.insert(ctx, k, (i as u64 + 1) * 100));
                }
                for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                    assert_eq!(list.get(ctx, k), Some((i as u64 + 1) * 100));
                }
                assert_eq!(list.get(ctx, 99), None);
                *s.lock().unwrap() = list.scan(ctx);
            });
            crate::run_once(&program, 2);
            let keys = scanned.lock().unwrap().clone();
            let mut sorted = DRIVER_KEYS.to_vec();
            sorted.sort();
            assert_eq!(keys, sorted, "{variant:?}");
        }
    }

    #[test]
    fn update_in_place() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let list = SkipList::create(ctx, Variant::Fixed);
            list.insert(ctx, 5, 1);
            list.insert(ctx, 5, 2);
            assert_eq!(list.get(ctx, 5), Some(2));
            assert_eq!(list.scan(ctx).len(), 1);
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn racy_variant_is_flagged_fixed_variant_is_clean() {
        let racy = yashme::model_check(&program(Variant::Racy));
        assert!(
            racy.race_labels().contains(&LINK_LABEL),
            "racy links must be reported\n{racy}"
        );
        let fixed = yashme::model_check(&program(Variant::Fixed));
        assert!(
            fixed.races().is_empty(),
            "release-store links must be clean\n{fixed}"
        );
    }

    #[test]
    fn heights_are_deterministic_and_bounded() {
        for k in 0..200u64 {
            let h = height_of(k);
            assert!((1..=MAX_LEVEL).contains(&h));
            assert_eq!(h, height_of(k));
        }
    }
}
