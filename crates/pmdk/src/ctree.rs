//! The PMDK example `ctree`: a crit-bit binary tree over transactions.
//!
//! Internal nodes discriminate on the highest differing key bit; leaves
//! carry key/value. As in the PMDK example, every mutation is wrapped in a
//! transaction.

use jaaru::{Atomicity, Ctx, Program};
use pmem::Addr;

use crate::libpmem::pmem_persist;
use crate::pool::Pool;
use crate::tx::Tx;

// Node layout: { is_leaf u64, key/bit u64, value u64, left u64, right u64 }.
const OFF_IS_LEAF: u64 = 0;
const OFF_KEY: u64 = 8;
const OFF_VALUE: u64 = 16;
const OFF_LEFT: u64 = 24;
const OFF_RIGHT: u64 = 32;
/// Byte size of a node.
pub const NODE_BYTES: u64 = 40;

/// The PMDK example ctree.
#[derive(Debug, Clone, Copy)]
pub struct CTree {
    pool: Pool,
}

fn valid(raw: u64) -> Option<Addr> {
    if raw >= Addr::BASE.raw() && raw < Addr::BASE.raw() + (1 << 30) {
        Some(Addr(raw))
    } else {
        None
    }
}

impl CTree {
    /// Creates an empty tree.
    pub fn create(_ctx: &mut Ctx, pool: &Pool) -> CTree {
        CTree { pool: *pool }
    }

    /// Re-opens post-crash.
    pub fn open(_ctx: &mut Ctx, pool: &Pool) -> CTree {
        CTree { pool: *pool }
    }

    fn new_leaf(&self, ctx: &mut Ctx, tx: &mut Tx, key: u64, value: u64) -> Addr {
        let leaf = tx.alloc(ctx, NODE_BYTES);
        ctx.store_u64(
            leaf + OFF_IS_LEAF,
            1,
            Atomicity::Plain,
            "ctree.node.is_leaf",
        );
        ctx.store_u64(leaf + OFF_KEY, key, Atomicity::Plain, "ctree.node.key");
        ctx.store_u64(
            leaf + OFF_VALUE,
            value,
            Atomicity::Plain,
            "ctree.node.value",
        );
        ctx.store_u64(leaf + OFF_LEFT, 0, Atomicity::Plain, "ctree.node.left");
        ctx.store_u64(leaf + OFF_RIGHT, 0, Atomicity::Plain, "ctree.node.right");
        pmem_persist(ctx, leaf, NODE_BYTES, "ctree.leaf persist");
        leaf
    }

    /// Inserts `key → value` transactionally.
    pub fn insert(&self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        let mut tx = Tx::begin(ctx, &self.pool);
        let root_raw = match self.pool.root_obj(ctx) {
            None => {
                let leaf = self.new_leaf(ctx, &mut tx, key, value);
                tx.commit(ctx);
                self.pool.set_root_obj(ctx, leaf);
                return true;
            }
            Some(r) => r,
        };
        // Find the leaf we collide with.
        let mut node = root_raw;
        let mut parent: Option<(Addr, u64)> = None; // (parent, side offset)
        for _ in 0..66 {
            if ctx.load_u64(node + OFF_IS_LEAF, Atomicity::Plain) == 1 {
                break;
            }
            let bit = ctx.load_u64(node + OFF_KEY, Atomicity::Plain).min(63);
            let side = if key & (1 << bit) != 0 {
                OFF_RIGHT
            } else {
                OFF_LEFT
            };
            let child = ctx.load_u64(node + side, Atomicity::Plain);
            match valid(child) {
                Some(c) => {
                    parent = Some((node, side));
                    node = c;
                }
                None => return false,
            }
        }
        let existing = ctx.load_u64(node + OFF_KEY, Atomicity::Plain);
        if existing == key {
            // Update in place.
            tx.add_range(ctx, node + OFF_VALUE, 8);
            ctx.store_u64(
                node + OFF_VALUE,
                value,
                Atomicity::Plain,
                "ctree.node.value",
            );
            tx.commit(ctx);
            return true;
        }
        // Split: internal node on the highest differing bit.
        let diff = 63 - (existing ^ key).leading_zeros() as u64;
        let leaf = self.new_leaf(ctx, &mut tx, key, value);
        let internal = tx.alloc(ctx, NODE_BYTES);
        ctx.store_u64(
            internal + OFF_IS_LEAF,
            0,
            Atomicity::Plain,
            "ctree.node.is_leaf",
        );
        ctx.store_u64(internal + OFF_KEY, diff, Atomicity::Plain, "ctree.node.key");
        ctx.store_u64(
            internal + OFF_VALUE,
            0,
            Atomicity::Plain,
            "ctree.node.value",
        );
        let (new_side, old_side) = if key & (1 << diff) != 0 {
            (OFF_RIGHT, OFF_LEFT)
        } else {
            (OFF_LEFT, OFF_RIGHT)
        };
        ctx.store_u64(
            internal + new_side,
            leaf.raw(),
            Atomicity::Plain,
            "ctree.node.child",
        );
        ctx.store_u64(
            internal + old_side,
            node.raw(),
            Atomicity::Plain,
            "ctree.node.child",
        );
        pmem_persist(ctx, internal, NODE_BYTES, "ctree.internal persist");
        match parent {
            Some((p, side)) => {
                tx.add_range(ctx, p + side, 8);
                ctx.store_u64(
                    p + side,
                    internal.raw(),
                    Atomicity::Plain,
                    "ctree.node.child",
                );
                tx.commit(ctx);
            }
            None => {
                tx.commit(ctx);
                self.pool.set_root_obj(ctx, internal);
            }
        }
        true
    }

    /// Looks up `key`.
    pub fn get(&self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        let mut node = self.pool.root_obj(ctx)?;
        for _ in 0..66 {
            if ctx.load_u64(node + OFF_IS_LEAF, Atomicity::Plain) == 1 {
                let k = ctx.load_u64(node + OFF_KEY, Atomicity::Plain);
                return if k == key {
                    Some(ctx.load_u64(node + OFF_VALUE, Atomicity::Plain))
                } else {
                    None
                };
            }
            let bit = ctx.load_u64(node + OFF_KEY, Atomicity::Plain).min(63);
            let side = if key & (1 << bit) != 0 {
                OFF_RIGHT
            } else {
                OFF_LEFT
            };
            node = valid(ctx.load_u64(node + side, Atomicity::Plain))?;
        }
        None
    }
}

/// Keys used by the example driver.
pub const DRIVER_KEYS: [u64; 5] = [0b1000, 0b0100, 0b1100, 0b0010, 0b1010];

/// The example test application.
pub fn program() -> Program {
    Program::new("Ctree")
        .pre_crash(|ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let tree = CTree::create(ctx, &pool);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                tree.insert(ctx, k, (i as u64 + 1) * 3);
            }
        })
        .post_crash(|ctx: &mut Ctx| {
            if let Some(pool) = Pool::open(ctx) {
                let tree = CTree::open(ctx, &pool);
                for &k in &DRIVER_KEYS {
                    let _ = tree.get(ctx, k);
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
    fn insert_get_roundtrip() {
        let sum = Arc::new(AtomicU64::new(0));
        let s = sum.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let tree = CTree::create(ctx, &pool);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                assert!(tree.insert(ctx, k, (i as u64 + 1) * 3), "insert {k:#b}");
            }
            let mut acc = 0;
            for &k in &DRIVER_KEYS {
                acc += tree.get(ctx, k).unwrap_or(0);
            }
            s.store(acc, Ordering::SeqCst);
        });
        crate::run_once(&program, 2);
        assert_eq!(sum.load(Ordering::SeqCst), (1 + 2 + 3 + 4 + 5) * 3);
    }

    #[test]
    fn update_replaces_value() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let tree = CTree::create(ctx, &pool);
            tree.insert(ctx, 8, 1);
            tree.insert(ctx, 8, 2);
            assert_eq!(tree.get(ctx, 8), Some(2));
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn missing_key_is_none() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let tree = CTree::create(ctx, &pool);
            tree.insert(ctx, 8, 1);
            assert_eq!(tree.get(ctx, 9), None);
            assert_eq!(tree.get(ctx, 12), None);
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
