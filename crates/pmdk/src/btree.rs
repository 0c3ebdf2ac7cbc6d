//! The PMDK example `btree`: a sorted-node B-tree over transactions.
//!
//! The port uses a two-level tree (a root directory of sorted leaf nodes)
//! whose leaf insertions shift entries in place inside a transaction — the
//! pattern that exercises `tx_add_range` on multi-word regions.

use jaaru::{Atomicity, Ctx, Program};
use pmem::Addr;

use crate::libpmem::pmem_persist;
use crate::pool::Pool;
use crate::tx::Tx;

/// Entries per leaf node.
pub const NODE_KEYS: u64 = 4;

// Node layout: { count u64, keys[4] u64, values[4] u64, next u64 }.
const OFF_COUNT: u64 = 0;
const OFF_KEYS: u64 = 8;
const OFF_VALUES: u64 = 8 + NODE_KEYS * 8;
const OFF_NEXT: u64 = 8 + 2 * NODE_KEYS * 8;
/// Byte size of a node.
pub const NODE_BYTES: u64 = OFF_NEXT + 8;

/// The PMDK example btree.
#[derive(Debug, Clone, Copy)]
pub struct BTree {
    pool: Pool,
    head: Addr,
}

impl BTree {
    /// Creates an empty tree rooted at the pool's root object.
    pub fn create(ctx: &mut Ctx, pool: &Pool) -> BTree {
        let mut tx = Tx::begin(ctx, pool);
        let head = tx.alloc(ctx, NODE_BYTES);
        ctx.memset(head, 0, NODE_BYTES, "btree node init");
        pmem_persist(ctx, head, NODE_BYTES, "btree.create persist");
        tx.add_range(ctx, head, 8);
        tx.commit(ctx);
        pool.set_root_obj(ctx, head);
        BTree { pool: *pool, head }
    }

    /// Re-opens post-crash from the pool root object.
    pub fn open(ctx: &mut Ctx, pool: &Pool) -> Option<BTree> {
        let head = pool.root_obj(ctx)?;
        Some(BTree { pool: *pool, head })
    }

    /// Inserts `key → value` transactionally, shifting entries to keep the
    /// node sorted; duplicate keys update in place; overflows chain a new
    /// node.
    pub fn insert(&self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        // Update in place if the key exists anywhere in the chain.
        let mut node = self.head;
        for _hop in 0..8 {
            let count = ctx
                .load_u64(node + OFF_COUNT, Atomicity::Plain)
                .min(NODE_KEYS);
            for i in 0..count {
                if ctx.load_u64(node + OFF_KEYS + i * 8, Atomicity::Plain) == key {
                    let mut tx = Tx::begin(ctx, &self.pool);
                    tx.add_range(ctx, node + OFF_VALUES + i * 8, 8);
                    ctx.store_u64(
                        node + OFF_VALUES + i * 8,
                        value,
                        Atomicity::Plain,
                        "btree.node.value",
                    );
                    tx.commit(ctx);
                    return true;
                }
            }
            let next = ctx.load_u64(node + OFF_NEXT, Atomicity::Plain);
            if next == 0 || next < Addr::BASE.raw() {
                break;
            }
            node = Addr(next);
        }
        let mut node = self.head;
        for _hop in 0..8 {
            let count = ctx
                .load_u64(node + OFF_COUNT, Atomicity::Plain)
                .min(NODE_KEYS);
            if count < NODE_KEYS {
                let mut tx = Tx::begin(ctx, &self.pool);
                // Snapshot the regions the shift will modify.
                tx.add_range(ctx, node + OFF_COUNT, 8);
                tx.add_range(ctx, node + OFF_KEYS, NODE_KEYS * 8);
                tx.add_range(ctx, node + OFF_VALUES, NODE_KEYS * 8);
                let mut pos = count;
                for i in 0..count {
                    let k = ctx.load_u64(node + OFF_KEYS + i * 8, Atomicity::Plain);
                    if key < k {
                        pos = i;
                        break;
                    }
                }
                let mut i = count;
                while i > pos {
                    let k = ctx.load_u64(node + OFF_KEYS + (i - 1) * 8, Atomicity::Plain);
                    let v = ctx.load_u64(node + OFF_VALUES + (i - 1) * 8, Atomicity::Plain);
                    ctx.store_u64(
                        node + OFF_KEYS + i * 8,
                        k,
                        Atomicity::Plain,
                        "btree.node.key",
                    );
                    ctx.store_u64(
                        node + OFF_VALUES + i * 8,
                        v,
                        Atomicity::Plain,
                        "btree.node.value",
                    );
                    i -= 1;
                }
                ctx.store_u64(
                    node + OFF_KEYS + pos * 8,
                    key,
                    Atomicity::Plain,
                    "btree.node.key",
                );
                ctx.store_u64(
                    node + OFF_VALUES + pos * 8,
                    value,
                    Atomicity::Plain,
                    "btree.node.value",
                );
                ctx.store_u64(
                    node + OFF_COUNT,
                    count + 1,
                    Atomicity::Plain,
                    "btree.node.count",
                );
                tx.commit(ctx);
                return true;
            }
            // Overflow: follow or create the next node.
            let next = ctx.load_u64(node + OFF_NEXT, Atomicity::Plain);
            if next == 0 {
                let mut tx = Tx::begin(ctx, &self.pool);
                let fresh = tx.alloc(ctx, NODE_BYTES);
                ctx.memset(fresh, 0, NODE_BYTES, "btree node init");
                pmem_persist(ctx, fresh, NODE_BYTES, "btree.grow persist");
                tx.add_range(ctx, node + OFF_NEXT, 8);
                ctx.store_u64(
                    node + OFF_NEXT,
                    fresh.raw(),
                    Atomicity::Plain,
                    "btree.node.next",
                );
                tx.commit(ctx);
                node = fresh;
            } else {
                node = Addr(next);
            }
        }
        false
    }

    /// Looks up `key`.
    pub fn get(&self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        let mut node = self.head;
        for _hop in 0..8 {
            let count = ctx
                .load_u64(node + OFF_COUNT, Atomicity::Plain)
                .min(NODE_KEYS);
            for i in 0..count {
                let k = ctx.load_u64(node + OFF_KEYS + i * 8, Atomicity::Plain);
                if k == key {
                    return Some(ctx.load_u64(node + OFF_VALUES + i * 8, Atomicity::Plain));
                }
            }
            let next = ctx.load_u64(node + OFF_NEXT, Atomicity::Plain);
            if next == 0 || next < Addr::BASE.raw() {
                return None;
            }
            node = Addr(next);
        }
        None
    }
}

/// Keys used by the example driver (enough to chain a second node).
pub const DRIVER_KEYS: [u64; 6] = [40, 10, 30, 20, 60, 50];

/// The example test application (as in the paper, the PMDK example data
/// structures drive the library).
pub fn program() -> Program {
    Program::new("Btree")
        .pre_crash(|ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let tree = BTree::create(ctx, &pool);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                tree.insert(ctx, k, (i as u64 + 1) * 2);
            }
        })
        .post_crash(|ctx: &mut Ctx| {
            if let Some(pool) = Pool::open(ctx) {
                if let Some(tree) = BTree::open(ctx, &pool) {
                    for &k in &DRIVER_KEYS {
                        let _ = tree.get(ctx, k);
                    }
                }
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn sorted_insert_and_get() {
        let sum = Arc::new(AtomicU64::new(0));
        let s = sum.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let tree = BTree::create(ctx, &pool);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                assert!(tree.insert(ctx, k, (i as u64 + 1) * 2));
            }
            let mut acc = 0;
            for &k in &DRIVER_KEYS {
                acc += tree.get(ctx, k).unwrap_or(0);
            }
            s.store(acc, Ordering::SeqCst);
        });
        crate::run_once(&program, 2);
        assert_eq!(sum.load(Ordering::SeqCst), (1 + 2 + 3 + 4 + 5 + 6) * 2);
    }

    #[test]
    fn node_keeps_keys_sorted() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let tree = BTree::create(ctx, &pool);
            for &k in &[30u64, 10, 20] {
                tree.insert(ctx, k, k);
            }
            let node = tree.head;
            let k0 = ctx.load_u64(node + OFF_KEYS, Atomicity::Plain);
            let k1 = ctx.load_u64(node + OFF_KEYS + 8, Atomicity::Plain);
            let k2 = ctx.load_u64(node + OFF_KEYS + 16, Atomicity::Plain);
            assert_eq!((k0, k1, k2), (10, 20, 30));
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn missing_key_is_none() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let tree = BTree::create(ctx, &pool);
            tree.insert(ctx, 10, 1);
            assert_eq!(tree.get(ctx, 11), None);
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn detector_finds_only_the_ulog_race() {
        let report = yashme::model_check(&program());
        assert_eq!(
            report.race_labels(),
            vec![crate::ULOG_RACE_LABEL],
            "{report}"
        );
    }
}
