//! The PMDK example `rbtree`: a red-black tree over transactions.
//!
//! A full insert-with-fixup implementation (recolorings and rotations),
//! with every modified node field journaled through the transaction before
//! it is overwritten.

use jaaru::{Atomicity, Ctx, Program};
use pmem::Addr;

use crate::libpmem::pmem_persist;
use crate::pool::Pool;
use crate::tx::Tx;

// Node layout: { key, value, left, right, parent, color } (color: 0 black,
// 1 red).
const OFF_KEY: u64 = 0;
const OFF_VALUE: u64 = 8;
const OFF_LEFT: u64 = 16;
const OFF_RIGHT: u64 = 24;
const OFF_PARENT: u64 = 32;
const OFF_COLOR: u64 = 40;
/// Byte size of a node.
pub const NODE_BYTES: u64 = 48;

const BLACK: u64 = 0;
const RED: u64 = 1;

/// Root slot inside the tree header object.
const HDR_ROOT: u64 = 0;
/// Byte size of the tree header.
pub const HDR_BYTES: u64 = 8;

/// The PMDK example rbtree.
#[derive(Debug, Clone, Copy)]
pub struct RbTree {
    pool: Pool,
    hdr: Addr,
}

/// A transaction wrapper that snapshots each node once before modification.
struct RbTx {
    tx: Tx,
    snapshotted: Vec<Addr>,
}

impl RbTx {
    fn begin(ctx: &mut Ctx, pool: &Pool) -> RbTx {
        RbTx {
            tx: Tx::begin(ctx, pool),
            snapshotted: Vec::new(),
        }
    }

    fn snapshot(&mut self, ctx: &mut Ctx, addr: Addr, len: u64) {
        if !self.snapshotted.contains(&addr) {
            self.snapshotted.push(addr);
            self.tx.add_range(ctx, addr, len);
        }
    }

    fn commit(self, ctx: &mut Ctx) {
        self.tx.commit(ctx);
    }
}

fn valid(raw: u64) -> Option<Addr> {
    if raw >= Addr::BASE.raw() && raw < Addr::BASE.raw() + (1 << 30) {
        Some(Addr(raw))
    } else {
        None
    }
}

impl RbTree {
    /// Creates an empty tree: a header object holding the root pointer.
    pub fn create(ctx: &mut Ctx, pool: &Pool) -> RbTree {
        let mut tx = Tx::begin(ctx, pool);
        let hdr = tx.alloc(ctx, HDR_BYTES);
        ctx.store_u64(hdr + HDR_ROOT, 0, Atomicity::Plain, "rbtree.root");
        pmem_persist(ctx, hdr, HDR_BYTES, "rbtree.hdr persist");
        tx.commit(ctx);
        pool.set_root_obj(ctx, hdr);
        RbTree { pool: *pool, hdr }
    }

    /// Re-opens post-crash.
    pub fn open(ctx: &mut Ctx, pool: &Pool) -> Option<RbTree> {
        let hdr = pool.root_obj(ctx)?;
        Some(RbTree { pool: *pool, hdr })
    }

    fn root(&self, ctx: &mut Ctx) -> u64 {
        ctx.load_u64(self.hdr + HDR_ROOT, Atomicity::Plain)
    }

    fn set_root(&self, ctx: &mut Ctx, tx: &mut RbTx, node: u64) {
        tx.snapshot(ctx, self.hdr + HDR_ROOT, 8);
        ctx.store_u64(self.hdr + HDR_ROOT, node, Atomicity::Plain, "rbtree.root");
    }

    fn field(&self, ctx: &mut Ctx, node: Addr, off: u64) -> u64 {
        ctx.load_u64(node + off, Atomicity::Plain)
    }

    fn set_field(
        &self,
        ctx: &mut Ctx,
        tx: &mut RbTx,
        node: Addr,
        off: u64,
        value: u64,
        label: &'static str,
    ) {
        tx.snapshot(ctx, node + off, 8);
        ctx.store_u64(node + off, value, Atomicity::Plain, label);
    }

    fn color(&self, ctx: &mut Ctx, node: u64) -> u64 {
        match valid(node) {
            Some(n) => self.field(ctx, n, OFF_COLOR),
            None => BLACK, // nil is black
        }
    }

    fn rotate(&self, ctx: &mut Ctx, tx: &mut RbTx, x: Addr, left: bool) {
        let (side_a, side_b) = if left {
            (OFF_RIGHT, OFF_LEFT)
        } else {
            (OFF_LEFT, OFF_RIGHT)
        };
        let y = valid(self.field(ctx, x, side_a)).expect("rotation child exists");
        let beta = self.field(ctx, y, side_b);
        self.set_field(ctx, tx, x, side_a, beta, "rbtree.node.child");
        if let Some(b) = valid(beta) {
            self.set_field(ctx, tx, b, OFF_PARENT, x.raw(), "rbtree.node.parent");
        }
        let xp = self.field(ctx, x, OFF_PARENT);
        self.set_field(ctx, tx, y, OFF_PARENT, xp, "rbtree.node.parent");
        match valid(xp) {
            None => self.set_root(ctx, tx, y.raw()),
            Some(p) => {
                if self.field(ctx, p, OFF_LEFT) == x.raw() {
                    self.set_field(ctx, tx, p, OFF_LEFT, y.raw(), "rbtree.node.child");
                } else {
                    self.set_field(ctx, tx, p, OFF_RIGHT, y.raw(), "rbtree.node.child");
                }
            }
        }
        self.set_field(ctx, tx, y, side_b, x.raw(), "rbtree.node.child");
        self.set_field(ctx, tx, x, OFF_PARENT, y.raw(), "rbtree.node.parent");
    }

    /// Inserts `key → value`; updates in place if present.
    pub fn insert(&self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        let mut tx = RbTx::begin(ctx, &self.pool);
        // Standard BST descent.
        let mut parent: Option<Addr> = None;
        let mut cur = self.root(ctx);
        while let Some(n) = valid(cur) {
            let k = self.field(ctx, n, OFF_KEY);
            if k == key {
                self.set_field(ctx, &mut tx, n, OFF_VALUE, value, "rbtree.node.value");
                tx.commit(ctx);
                return true;
            }
            parent = Some(n);
            cur = if key < k {
                self.field(ctx, n, OFF_LEFT)
            } else {
                self.field(ctx, n, OFF_RIGHT)
            };
        }
        // New red node, fully persisted before linking.
        let z = tx.tx.alloc(ctx, NODE_BYTES);
        ctx.store_u64(z + OFF_KEY, key, Atomicity::Plain, "rbtree.node.key");
        ctx.store_u64(z + OFF_VALUE, value, Atomicity::Plain, "rbtree.node.value");
        ctx.store_u64(z + OFF_LEFT, 0, Atomicity::Plain, "rbtree.node.child");
        ctx.store_u64(z + OFF_RIGHT, 0, Atomicity::Plain, "rbtree.node.child");
        ctx.store_u64(
            z + OFF_PARENT,
            parent.map_or(0, Addr::raw),
            Atomicity::Plain,
            "rbtree.node.parent",
        );
        ctx.store_u64(z + OFF_COLOR, RED, Atomicity::Plain, "rbtree.node.color");
        pmem_persist(ctx, z, NODE_BYTES, "rbtree.node persist");
        match parent {
            None => self.set_root(ctx, &mut tx, z.raw()),
            Some(p) => {
                let k = self.field(ctx, p, OFF_KEY);
                let side = if key < k { OFF_LEFT } else { OFF_RIGHT };
                self.set_field(ctx, &mut tx, p, side, z.raw(), "rbtree.node.child");
            }
        }
        self.insert_fixup(ctx, &mut tx, z);
        tx.commit(ctx);
        true
    }

    /// CLRS insert-fixup: recoloring and rotations restoring RB invariants.
    fn insert_fixup(&self, ctx: &mut Ctx, tx: &mut RbTx, mut z: Addr) {
        loop {
            let zp_raw = self.field(ctx, z, OFF_PARENT);
            let zp = match valid(zp_raw) {
                Some(p) if self.color(ctx, zp_raw) == RED => p,
                _ => break,
            };
            let gp = match valid(self.field(ctx, zp, OFF_PARENT)) {
                Some(g) => g,
                None => break,
            };
            let parent_is_left = self.field(ctx, gp, OFF_LEFT) == zp.raw();
            let uncle = if parent_is_left {
                self.field(ctx, gp, OFF_RIGHT)
            } else {
                self.field(ctx, gp, OFF_LEFT)
            };
            if self.color(ctx, uncle) == RED {
                let u = valid(uncle).expect("red uncle exists");
                self.set_field(ctx, tx, zp, OFF_COLOR, BLACK, "rbtree.node.color");
                self.set_field(ctx, tx, u, OFF_COLOR, BLACK, "rbtree.node.color");
                self.set_field(ctx, tx, gp, OFF_COLOR, RED, "rbtree.node.color");
                z = gp;
                continue;
            }
            let z_is_inner = if parent_is_left {
                self.field(ctx, zp, OFF_RIGHT) == z.raw()
            } else {
                self.field(ctx, zp, OFF_LEFT) == z.raw()
            };
            let (mut z2, mut zp2) = (z, zp);
            if z_is_inner {
                self.rotate(ctx, tx, zp, parent_is_left);
                z2 = zp;
                zp2 = match valid(self.field(ctx, z2, OFF_PARENT)) {
                    Some(p) => p,
                    None => break,
                };
            }
            let _ = z2;
            self.set_field(ctx, tx, zp2, OFF_COLOR, BLACK, "rbtree.node.color");
            self.set_field(ctx, tx, gp, OFF_COLOR, RED, "rbtree.node.color");
            self.rotate(ctx, tx, gp, !parent_is_left);
            break;
        }
        // Root is always black.
        if let Some(root) = valid(self.root(ctx)) {
            if self.field(ctx, root, OFF_COLOR) == RED {
                self.set_field(ctx, tx, root, OFF_COLOR, BLACK, "rbtree.node.color");
            }
        }
    }

    /// Looks up `key`.
    pub fn get(&self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        let mut cur = self.root(ctx);
        for _ in 0..64 {
            let n = valid(cur)?;
            let k = self.field(ctx, n, OFF_KEY);
            if k == key {
                return Some(self.field(ctx, n, OFF_VALUE));
            }
            cur = if key < k {
                self.field(ctx, n, OFF_LEFT)
            } else {
                self.field(ctx, n, OFF_RIGHT)
            };
        }
        None
    }

    /// Validates the red-black invariants (tests): red nodes have black
    /// children and every root-to-nil path has the same black height.
    /// Returns the black height.
    pub fn check_invariants(&self, ctx: &mut Ctx) -> u64 {
        fn walk(t: &RbTree, ctx: &mut Ctx, node: u64) -> u64 {
            let n = match valid(node) {
                Some(n) => n,
                None => return 1,
            };
            let color = t.field(ctx, n, OFF_COLOR);
            let l = t.field(ctx, n, OFF_LEFT);
            let r = t.field(ctx, n, OFF_RIGHT);
            if color == RED {
                assert_eq!(t.color(ctx, l), BLACK, "red node has red left child");
                assert_eq!(t.color(ctx, r), BLACK, "red node has red right child");
            }
            let hl = walk(t, ctx, l);
            let hr = walk(t, ctx, r);
            assert_eq!(hl, hr, "black heights differ");
            hl + (color == BLACK) as u64
        }
        let root = self.root(ctx);
        assert_eq!(self.color(ctx, root), BLACK, "root must be black");
        walk(self, ctx, root)
    }
}

/// Keys used by the example driver (ascending order forces rotations).
pub const DRIVER_KEYS: [u64; 7] = [10, 20, 30, 40, 50, 60, 70];

/// The example test application.
pub fn program() -> Program {
    Program::new("RBtree")
        .pre_crash(|ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let tree = RbTree::create(ctx, &pool);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                tree.insert(ctx, k, (i as u64 + 1) * 4);
            }
        })
        .post_crash(|ctx: &mut Ctx| {
            if let Some(pool) = Pool::open(ctx) {
                if let Some(tree) = RbTree::open(ctx, &pool) {
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
    fn ascending_inserts_stay_balanced() {
        let height = Arc::new(AtomicU64::new(0));
        let h = height.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let tree = RbTree::create(ctx, &pool);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                assert!(tree.insert(ctx, k, (i as u64 + 1) * 4));
                tree.check_invariants(ctx);
            }
            h.store(tree.check_invariants(ctx), Ordering::SeqCst);
        });
        crate::run_once(&program, 2);
        assert!(height.load(Ordering::SeqCst) >= 2);
    }

    #[test]
    fn get_returns_inserted_values() {
        let sum = Arc::new(AtomicU64::new(0));
        let s = sum.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let tree = RbTree::create(ctx, &pool);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                tree.insert(ctx, k, (i as u64 + 1) * 4);
            }
            let mut acc = 0;
            for &k in &DRIVER_KEYS {
                acc += tree.get(ctx, k).unwrap_or(0);
            }
            s.store(acc, Ordering::SeqCst);
        });
        crate::run_once(&program, 2);
        assert_eq!(
            sum.load(Ordering::SeqCst),
            (1..=7).map(|i| i * 4).sum::<u64>()
        );
    }

    #[test]
    fn update_in_place() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let tree = RbTree::create(ctx, &pool);
            tree.insert(ctx, 10, 1);
            tree.insert(ctx, 10, 2);
            assert_eq!(tree.get(ctx, 10), Some(2));
            assert_eq!(tree.get(ctx, 11), None);
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn interleaved_inserts_stay_balanced() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let tree = RbTree::create(ctx, &pool);
            for &k in &[50u64, 20, 70, 10, 30, 60, 80, 25, 35, 15] {
                tree.insert(ctx, k, k);
                tree.check_invariants(ctx);
            }
            for &k in &[50u64, 20, 70, 10, 30, 60, 80, 25, 35, 15] {
                assert_eq!(tree.get(ctx, k), Some(k));
            }
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
