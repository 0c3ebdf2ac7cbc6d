//! `libpmemobj`-style transactions over the undo log.

use jaaru::Ctx;
use pmem::Addr;

use crate::libpmem::pmem_persist;
use crate::pool::Pool;

/// An open transaction: snapshot ranges with [`Tx::add_range`], modify them
/// in place through the [`Ctx`], then [`Tx::commit`]. Dropping without
/// commit models an abort: the next [`Pool::open`] rolls the snapshots
/// back.
///
/// # Examples
///
/// ```
/// use jaaru::{Atomicity, Ctx, Engine, NullSink, PersistencePolicy, Program, SchedPolicy};
/// use pmdk::{pool::Pool, tx::Tx};
///
/// let program = Program::new("tx-demo").pre_crash(|ctx: &mut Ctx| {
///     let pool = Pool::create(ctx);
///     let obj = pool.alloc_obj(ctx, 8);
///     let mut tx = Tx::begin(ctx, &pool);
///     tx.add_range(ctx, obj, 8);
///     ctx.store_u64(obj, 42, Atomicity::Plain, "obj.value");
///     tx.commit(ctx);
/// });
/// Engine::run_single(
///     &program,
///     SchedPolicy::RandomChoice,
///     PersistencePolicy::Random,
///     1,
///     None,
///     Box::new(NullSink),
/// );
/// ```
#[derive(Debug)]
pub struct Tx {
    pool: Pool,
    ranges: Vec<(Addr, u64)>,
}

impl Tx {
    /// Begins a transaction on `pool`.
    pub fn begin(_ctx: &mut Ctx, pool: &Pool) -> Tx {
        Tx {
            pool: *pool,
            ranges: Vec::new(),
        }
    }

    /// Snapshots `[addr, addr+len)` so modifications can be undone. Ranges
    /// wider than one ulog entry are split across several entries.
    pub fn add_range(&mut self, ctx: &mut Ctx, addr: Addr, len: u64) {
        let mut off = 0;
        while off < len {
            let n = (len - off).min(crate::ulog::MAX_RANGE);
            self.pool.ulog().add_range(ctx, addr + off, n);
            off += n;
        }
        self.ranges.push((addr, len));
    }

    /// Allocates a fresh object inside the transaction. Fresh memory needs
    /// no undo snapshot (an abort merely leaks it, as in PMDK).
    pub fn alloc(&mut self, ctx: &mut Ctx, size: u64) -> Addr {
        ctx.alloc_line_aligned(size.max(8))
    }

    /// Commits: persists every modified range, then discards the journal.
    pub fn commit(self, ctx: &mut Ctx) {
        for &(addr, len) in &self.ranges {
            pmem_persist(ctx, addr, len, "tx.commit persist");
        }
        self.pool.ulog().reset(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::{Atomicity, Engine, PersistencePolicy, Program, SchedPolicy};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn committed_tx_durable_under_floor_only() {
        let v = Arc::new(AtomicU64::new(0));
        let v2 = v.clone();
        let program = Program::new("t")
            .pre_crash(|ctx: &mut Ctx| {
                let pool = Pool::create(ctx);
                let obj = pool.alloc_obj(ctx, 8);
                pool.set_root_obj(ctx, obj);
                let mut tx = Tx::begin(ctx, &pool);
                tx.add_range(ctx, obj, 8);
                ctx.store_u64(obj, 42, Atomicity::Plain, "obj");
                tx.commit(ctx);
            })
            .post_crash(move |ctx: &mut Ctx| {
                if let Some(pool) = Pool::open(ctx) {
                    if let Some(obj) = pool.root_obj(ctx) {
                        v2.store(ctx.load_u64(obj, Atomicity::Plain), Ordering::SeqCst);
                    }
                }
            });
        Engine::run_single(
            &program,
            SchedPolicy::Deterministic,
            PersistencePolicy::FloorOnly,
            0,
            None,
            Box::new(jaaru::NullSink),
        );
        assert_eq!(v.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn aborted_tx_rolled_back_on_open() {
        let v = Arc::new(AtomicU64::new(0));
        let v2 = v.clone();
        let program = Program::new("t")
            .pre_crash(|ctx: &mut Ctx| {
                let pool = Pool::create(ctx);
                let obj = pool.alloc_obj(ctx, 8);
                ctx.store_u64(obj, 7, Atomicity::Plain, "obj");
                pmem_persist(ctx, obj, 8, "obj persist");
                pool.set_root_obj(ctx, obj);
                let mut tx = Tx::begin(ctx, &pool);
                tx.add_range(ctx, obj, 8);
                ctx.store_u64(obj, 1000, Atomicity::Plain, "obj");
                pmem_persist(ctx, obj, 8, "obj persist");
                // never committed
            })
            .post_crash(move |ctx: &mut Ctx| {
                if let Some(pool) = Pool::open(ctx) {
                    if let Some(obj) = pool.root_obj(ctx) {
                        v2.store(ctx.load_u64(obj, Atomicity::Plain), Ordering::SeqCst);
                    }
                }
            });
        Engine::run_single(
            &program,
            SchedPolicy::Deterministic,
            PersistencePolicy::FullCache,
            0,
            None,
            Box::new(jaaru::NullSink),
        );
        assert_eq!(v.load(Ordering::SeqCst), 7, "Pool::open rolled back");
    }
}
