//! The PMDK example `hashmap_tx`: a chained hashmap whose mutations run in
//! transactions.

use jaaru::{Atomicity, Ctx, Program};
use pmem::Addr;

use crate::libpmem::pmem_persist;
use crate::pool::Pool;
use crate::tx::Tx;

/// Buckets in the table.
pub const NUM_BUCKETS: u64 = 4;

// Entry layout: { key u64, value u64, next u64 }.
const OFF_KEY: u64 = 0;
const OFF_VALUE: u64 = 8;
const OFF_NEXT: u64 = 16;
/// Byte size of an entry.
pub const ENTRY_BYTES: u64 = 24;

/// The PMDK example hashmap_tx.
#[derive(Debug, Clone, Copy)]
pub struct HashmapTx {
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

impl HashmapTx {
    /// Creates an empty table.
    pub fn create(ctx: &mut Ctx, pool: &Pool) -> HashmapTx {
        let mut tx = Tx::begin(ctx, pool);
        let buckets = tx.alloc(ctx, NUM_BUCKETS * 8);
        ctx.memset(buckets, 0, NUM_BUCKETS * 8, "hashmap_tx buckets init");
        pmem_persist(ctx, buckets, NUM_BUCKETS * 8, "hashmap_tx.buckets persist");
        tx.commit(ctx);
        pool.set_root_obj(ctx, buckets);
        HashmapTx {
            pool: *pool,
            buckets,
        }
    }

    /// Re-opens post-crash.
    pub fn open(ctx: &mut Ctx, pool: &Pool) -> Option<HashmapTx> {
        let buckets = pool.root_obj(ctx)?;
        Some(HashmapTx {
            pool: *pool,
            buckets,
        })
    }

    /// Inserts transactionally: new entry persisted, bucket head journaled
    /// and swung.
    pub fn insert(&self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        let slot = self.buckets + bucket_of(key) * 8;
        let head = ctx.load_u64(slot, Atomicity::Plain);
        let mut tx = Tx::begin(ctx, &self.pool);
        let entry = tx.alloc(ctx, ENTRY_BYTES);
        ctx.store_u64(
            entry + OFF_KEY,
            key,
            Atomicity::Plain,
            "hashmap_tx.entry.key",
        );
        ctx.store_u64(
            entry + OFF_VALUE,
            value,
            Atomicity::Plain,
            "hashmap_tx.entry.value",
        );
        ctx.store_u64(
            entry + OFF_NEXT,
            head,
            Atomicity::Plain,
            "hashmap_tx.entry.next",
        );
        pmem_persist(ctx, entry, ENTRY_BYTES, "hashmap_tx.entry persist");
        tx.add_range(ctx, slot, 8);
        ctx.store_u64(slot, entry.raw(), Atomicity::Plain, "hashmap_tx.bucket");
        tx.commit(ctx);
        true
    }

    /// Removes `key` transactionally by unlinking its newest entry from the
    /// chain (the snapshot covers the link being rewritten).
    pub fn remove(&self, ctx: &mut Ctx, key: u64) -> bool {
        let slot = self.buckets + bucket_of(key) * 8;
        let mut link = slot; // address of the pointer to rewrite
        let mut cur = ctx.load_u64(slot, Atomicity::Plain);
        for _ in 0..16 {
            let entry = match valid(cur) {
                Some(e) => e,
                None => return false,
            };
            let k = ctx.load_u64(entry + OFF_KEY, Atomicity::Plain);
            if k == key {
                let next = ctx.load_u64(entry + OFF_NEXT, Atomicity::Plain);
                let mut tx = Tx::begin(ctx, &self.pool);
                tx.add_range(ctx, link, 8);
                ctx.store_u64(link, next, Atomicity::Plain, "hashmap_tx.bucket");
                tx.commit(ctx);
                return true;
            }
            link = entry + OFF_NEXT;
            cur = ctx.load_u64(entry + OFF_NEXT, Atomicity::Plain);
        }
        false
    }

    /// Looks up `key` (newest entry wins).
    pub fn get(&self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        let slot = self.buckets + bucket_of(key) * 8;
        let mut cur = ctx.load_u64(slot, Atomicity::Plain);
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
}

/// Keys used by the example driver.
pub const DRIVER_KEYS: [u64; 5] = [2, 4, 8, 16, 32];

/// The example test application.
pub fn program() -> Program {
    Program::new("hashmap-tx")
        .pre_crash(|ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let map = HashmapTx::create(ctx, &pool);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                map.insert(ctx, k, (i as u64 + 1) * 6);
            }
        })
        .post_crash(|ctx: &mut Ctx| {
            if let Some(pool) = Pool::open(ctx) {
                if let Some(map) = HashmapTx::open(ctx, &pool) {
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
    fn insert_get_roundtrip() {
        let sum = Arc::new(AtomicU64::new(0));
        let s = sum.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let map = HashmapTx::create(ctx, &pool);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                assert!(map.insert(ctx, k, (i as u64 + 1) * 6));
            }
            let mut acc = 0;
            for &k in &DRIVER_KEYS {
                acc += map.get(ctx, k).unwrap_or(0);
            }
            s.store(acc, Ordering::SeqCst);
        });
        crate::run_once(&program, 2);
        assert_eq!(sum.load(Ordering::SeqCst), (1 + 2 + 3 + 4 + 5) * 6);
    }

    #[test]
    fn newest_entry_shadows_older() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let map = HashmapTx::create(ctx, &pool);
            map.insert(ctx, 2, 1);
            map.insert(ctx, 2, 9);
            assert_eq!(map.get(ctx, 2), Some(9));
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn remove_unlinks_and_uncovers_older_entries() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let map = HashmapTx::create(ctx, &pool);
            map.insert(ctx, 2, 1);
            map.insert(ctx, 2, 9); // shadows the first entry
            assert!(map.remove(ctx, 2));
            assert_eq!(map.get(ctx, 2), Some(1), "older entry uncovered");
            assert!(map.remove(ctx, 2));
            assert_eq!(map.get(ctx, 2), None);
            assert!(!map.remove(ctx, 2));
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn remove_from_middle_of_chain() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let pool = Pool::create(ctx);
            let map = HashmapTx::create(ctx, &pool);
            // Force two distinct keys into the same bucket by brute force.
            let base = 2u64;
            let mut other = None;
            for candidate in 3..200 {
                if super::bucket_of(candidate) == super::bucket_of(base) {
                    other = Some(candidate);
                    break;
                }
            }
            let other = other.expect("a colliding key exists");
            map.insert(ctx, base, 10);
            map.insert(ctx, other, 20);
            // `base` is now mid-chain (behind `other`).
            assert!(map.remove(ctx, base));
            assert_eq!(map.get(ctx, base), None);
            assert_eq!(map.get(ctx, other), Some(20));
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
