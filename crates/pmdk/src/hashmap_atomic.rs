//! The PMDK example `hashmap_atomic`: a chained hashmap that avoids
//! transactions by publishing entries with atomic stores — but whose
//! allocations still go through the pool's journaled allocator, which is how
//! the `ulog.c` race reaches it.

use jaaru::{Atomicity, Ctx, Program};
use pmem::Addr;

use crate::libpmem::pmem_persist;
use crate::pool::Pool;

/// Buckets in the table.
pub const NUM_BUCKETS: u64 = 4;

// Entry layout: { key u64, value u64, next u64 }.
const OFF_KEY: u64 = 0;
const OFF_VALUE: u64 = 8;
const OFF_NEXT: u64 = 16;
/// Byte size of an entry.
pub const ENTRY_BYTES: u64 = 24;

/// Root slots used alongside the pool's.
const SLOT_COUNT: u64 = 14;

/// The PMDK example hashmap_atomic.
#[derive(Debug, Clone, Copy)]
pub struct HashmapAtomic {
    pool: Pool,
    buckets: Addr,
}

fn bucket_of(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % NUM_BUCKETS
}

fn valid(raw: u64) -> Option<Addr> {
    if raw >= Addr::BASE.raw() && raw < Addr::BASE.raw() + (1 << 30) {
        Some(Addr(raw))
    } else {
        None
    }
}

impl HashmapAtomic {
    /// Creates an empty table.
    pub fn create(ctx: &mut Ctx, pool: &Pool) -> HashmapAtomic {
        let buckets = pool.alloc_obj(ctx, NUM_BUCKETS * 8);
        for b in 0..NUM_BUCKETS {
            ctx.store_u64(
                buckets + b * 8,
                0,
                Atomicity::ReleaseAcquire,
                "hashmap_atomic.bucket",
            );
        }
        pmem_persist(
            ctx,
            buckets,
            NUM_BUCKETS * 8,
            "hashmap_atomic.buckets persist",
        );
        let count = ctx.root_slot(SLOT_COUNT);
        ctx.store_u64(count, 0, Atomicity::ReleaseAcquire, "hashmap_atomic.count");
        pmem_persist(ctx, count, 8, "hashmap_atomic.count persist");
        pool.set_root_obj(ctx, buckets);
        HashmapAtomic {
            pool: *pool,
            buckets,
        }
    }

    /// Re-opens post-crash.
    pub fn open(ctx: &mut Ctx, pool: &Pool) -> Option<HashmapAtomic> {
        let buckets = pool.root_obj(ctx)?;
        Some(HashmapAtomic {
            pool: *pool,
            buckets,
        })
    }

    /// Inserts without a transaction: persist the entry, then publish it
    /// with an atomic release store and bump the atomic count.
    pub fn insert(&self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        let slot = self.buckets + bucket_of(key) * 8;
        let head = ctx.load_acquire_u64(slot);
        let entry = self.pool.alloc_obj(ctx, ENTRY_BYTES);
        ctx.store_u64(
            entry + OFF_KEY,
            key,
            Atomicity::Plain,
            "hashmap_atomic.entry.key",
        );
        ctx.store_u64(
            entry + OFF_VALUE,
            value,
            Atomicity::Plain,
            "hashmap_atomic.entry.value",
        );
        ctx.store_u64(
            entry + OFF_NEXT,
            head,
            Atomicity::Plain,
            "hashmap_atomic.entry.next",
        );
        pmem_persist(ctx, entry, ENTRY_BYTES, "hashmap_atomic.entry persist");
        ctx.store_u64(
            slot,
            entry.raw(),
            Atomicity::ReleaseAcquire,
            "hashmap_atomic.bucket",
        );
        pmem_persist(ctx, slot, 8, "hashmap_atomic.bucket persist");
        let count = ctx.root_slot(SLOT_COUNT);
        let c = ctx.load_acquire_u64(count);
        ctx.store_u64(
            count,
            c + 1,
            Atomicity::ReleaseAcquire,
            "hashmap_atomic.count",
        );
        pmem_persist(ctx, count, 8, "hashmap_atomic.count persist");
        true
    }

    /// Looks up `key` with acquire loads on the published chain.
    pub fn get(&self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        let slot = self.buckets + bucket_of(key) * 8;
        let mut cur = ctx.load_acquire_u64(slot);
        for _ in 0..16 {
            let entry = valid(cur)?;
            let k = ctx.load_u64(entry + OFF_KEY, Atomicity::Plain);
            if k == key {
                return Some(ctx.load_u64(entry + OFF_VALUE, Atomicity::Plain));
            }
            cur = ctx.load_u64(entry + OFF_NEXT, Atomicity::Plain);
        }
        None
    }

    /// The entry count.
    pub fn count(&self, ctx: &mut Ctx) -> u64 {
        ctx.load_acquire_u64(ctx.root_slot(SLOT_COUNT))
    }
}

/// Keys used by the example driver.
pub const DRIVER_KEYS: [u64; 5] = [5, 25, 125, 625, 3125];

/// The example test application.
pub fn program() -> Program {
    Program::new("hashmap-atomic")
        .pre_crash(|ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let map = HashmapAtomic::create(ctx, &pool);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                map.insert(ctx, k, (i as u64 + 1) * 8);
            }
        })
        .post_crash(|ctx: &mut Ctx| {
            if let Some(pool) = Pool::open(ctx) {
                if let Some(map) = HashmapAtomic::open(ctx, &pool) {
                    let _ = map.count(ctx);
                    for &k in &DRIVER_KEYS {
                        let _ = map.get(ctx, k);
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
    fn insert_get_roundtrip_and_count() {
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let map = HashmapAtomic::create(ctx, &pool);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                assert!(map.insert(ctx, k, (i as u64 + 1) * 8));
            }
            let mut acc = map.count(ctx) * 1000;
            for &k in &DRIVER_KEYS {
                acc += map.get(ctx, k).unwrap_or(0);
            }
            o.store(acc, Ordering::SeqCst);
        });
        crate::run_once(&program, 2);
        assert_eq!(out.load(Ordering::SeqCst), 5000 + (1 + 2 + 3 + 4 + 5) * 8);
    }

    #[test]
    fn detector_finds_only_the_ulog_race() {
        // hashmap_atomic never opens a transaction, yet the journaled
        // allocator still exposes the ulog race.
        let report = yashme::model_check(&program());
        assert_eq!(
            report.race_labels(),
            vec![crate::ULOG_RACE_LABEL],
            "{report}"
        );
    }
}
