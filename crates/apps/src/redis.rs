//! Redis-pmem: a key-value server storing its dictionary in PM through
//! PMDK's transaction API (§7.1).
//!
//! Redis exposes the PMDK `ulog.c` race through the transaction machinery
//! but contributes no new racy fields of its own (Table 4 lists none for
//! Redis; Table 5 reports 0 races for it in a single random execution).

use jaaru::{Atomicity, Ctx, Program};
use pmdk::libpmem::pmem_persist;
use pmdk::pool::Pool;
use pmdk::tx::Tx;
use pmem::Addr;

use crate::client::{Command, Wire};

/// Hash buckets of the persistent dict.
pub const NUM_BUCKETS: u64 = 4;

// Dict entry layout: { key u64, value u64, next u64 }.
const OFF_KEY: u64 = 0;
const OFF_VALUE: u64 = 8;
const OFF_NEXT: u64 = 16;
/// Byte size of a dict entry.
pub const ENTRY_BYTES: u64 = 24;

fn bucket_of(key: u64) -> u64 {
    key.rotate_left(7).wrapping_mul(0x2545_F491_4F6C_DD1D) % NUM_BUCKETS
}

fn valid(raw: u64) -> Option<Addr> {
    if raw >= Addr::BASE.raw() && raw < Addr::BASE.raw() + (1 << 30) {
        Some(Addr(raw))
    } else {
        None
    }
}

/// The redis-pmem server state.
#[derive(Debug)]
pub struct Redis {
    pool: Pool,
    dict: Addr,
}

impl Redis {
    /// Creates the server: a PMDK pool holding the dict bucket array.
    pub fn create(ctx: &mut Ctx) -> Redis {
        let pool = Pool::create(ctx);
        let mut tx = Tx::begin(ctx, &pool);
        let dict = tx.alloc(ctx, NUM_BUCKETS * 8);
        ctx.memset(dict, 0, NUM_BUCKETS * 8, "redis dict init");
        pmem_persist(ctx, dict, NUM_BUCKETS * 8, "redis.dict persist");
        tx.commit(ctx);
        pool.set_root_obj(ctx, dict);
        Redis { pool, dict }
    }

    /// Restarts the server post-crash: pool open (checksum validation +
    /// ulog recovery) and dict re-attachment.
    pub fn restart(ctx: &mut Ctx) -> Option<Redis> {
        let pool = Pool::open(ctx)?;
        let dict = pool.root_obj(ctx)?;
        Some(Redis { pool, dict })
    }

    /// `SET key value` via a PMDK transaction.
    pub fn set(&self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        let slot = self.dict + bucket_of(key) * 8;
        let head = ctx.load_u64(slot, Atomicity::Plain);
        let mut tx = Tx::begin(ctx, &self.pool);
        let entry = tx.alloc(ctx, ENTRY_BYTES);
        ctx.store_u64(
            entry + OFF_KEY,
            key,
            Atomicity::Plain,
            "redis.dictEntry.key",
        );
        ctx.store_u64(
            entry + OFF_VALUE,
            value,
            Atomicity::Plain,
            "redis.dictEntry.value",
        );
        ctx.store_u64(
            entry + OFF_NEXT,
            head,
            Atomicity::Plain,
            "redis.dictEntry.next",
        );
        pmem_persist(ctx, entry, ENTRY_BYTES, "redis.dictEntry persist");
        tx.add_range(ctx, slot, 8);
        ctx.store_u64(slot, entry.raw(), Atomicity::Plain, "redis.dict.bucket");
        tx.commit(ctx);
        true
    }

    /// `DEL key`: unlinks the newest matching entry transactionally.
    pub fn del(&self, ctx: &mut Ctx, key: u64) -> bool {
        let slot = self.dict + bucket_of(key) * 8;
        let mut link = slot;
        let mut cur = ctx.load_u64(slot, Atomicity::Plain);
        for _ in 0..16 {
            let entry = match valid(cur) {
                Some(e) => e,
                None => return false,
            };
            if ctx.load_u64(entry + OFF_KEY, Atomicity::Plain) == key {
                let next = ctx.load_u64(entry + OFF_NEXT, Atomicity::Plain);
                let mut tx = Tx::begin(ctx, &self.pool);
                tx.add_range(ctx, link, 8);
                ctx.store_u64(link, next, Atomicity::Plain, "redis.dict.bucket");
                tx.commit(ctx);
                return true;
            }
            link = entry + OFF_NEXT;
            cur = ctx.load_u64(entry + OFF_NEXT, Atomicity::Plain);
        }
        false
    }

    /// `GET key` (newest entry wins).
    pub fn get(&self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        let slot = self.dict + bucket_of(key) * 8;
        let mut cur = ctx.load_u64(slot, Atomicity::Plain);
        for _ in 0..16 {
            let entry = valid(cur)?;
            if ctx.load_u64(entry + OFF_KEY, Atomicity::Plain) == key {
                return Some(ctx.load_u64(entry + OFF_VALUE, Atomicity::Plain));
            }
            cur = ctx.load_u64(entry + OFF_NEXT, Atomicity::Plain);
        }
        None
    }

    /// Runs the server loop, draining `wire` in batches until `Quit`.
    ///
    /// Same discipline as [`crate::memcached::Memcached::serve`]: one host
    /// mutex acquisition per [`Wire::drain`] batch, identical simulated
    /// operation order, scheduler consulted only when the wire is idle.
    pub fn serve(&mut self, ctx: &mut Ctx, wire: &Wire) {
        const BATCH: usize = 64;
        loop {
            let batch = wire.drain(BATCH);
            if batch.is_empty() {
                ctx.sched_yield();
                continue;
            }
            for cmd in batch {
                match cmd {
                    Command::Set(k, v) => {
                        self.set(ctx, k, v);
                    }
                    Command::Get(k) => {
                        let _ = self.get(ctx, k);
                    }
                    Command::Del(k) => {
                        self.del(ctx, k);
                    }
                    Command::Quit => return,
                }
            }
        }
    }
}

/// The client workload of §7.1: insertions and lookups.
pub fn client_workload(wire: &Wire) {
    for (i, key) in [7u64, 21, 42].into_iter().enumerate() {
        wire.send(Command::Set(key, (i as u64 + 1) * 50));
    }
    wire.send(Command::Get(7));
    wire.send(Command::Get(42));
    wire.send(Command::Quit);
}

/// The full server+client program.
pub fn program() -> Program {
    Program::new("Redis")
        .pre_crash(|ctx: &mut Ctx| {
            let wire = Wire::new();
            let client_wire = wire.clone();
            let client = ctx.spawn(move |_c: &mut Ctx| {
                client_workload(&client_wire);
            });
            let mut server = Redis::create(ctx);
            server.serve(ctx, &wire);
            ctx.join(client);
        })
        .post_crash(|ctx: &mut Ctx| {
            if let Some(server) = Redis::restart(ctx) {
                for key in [7u64, 21, 42] {
                    let _ = server.get(ctx, key);
                }
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::{Engine, PersistencePolicy, SchedPolicy};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn set_get_roundtrip() {
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let server = Redis::create(ctx);
            server.set(ctx, 7, 50);
            server.set(ctx, 21, 100);
            o.store(
                server.get(ctx, 7).unwrap_or(0) + server.get(ctx, 21).unwrap_or(0),
                Ordering::SeqCst,
            );
        });
        crate::run_once(&program, 2);
        assert_eq!(out.load(Ordering::SeqCst), 150);
    }

    #[test]
    fn committed_sets_survive_floor_only_crash() {
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        let program = Program::new("t")
            .pre_crash(|ctx: &mut Ctx| {
                let server = Redis::create(ctx);
                server.set(ctx, 7, 50);
                server.set(ctx, 42, 150);
            })
            .post_crash(move |ctx: &mut Ctx| {
                let server = Redis::restart(ctx).expect("pool opens");
                o.store(
                    server.get(ctx, 7).unwrap_or(0) + server.get(ctx, 42).unwrap_or(0),
                    Ordering::SeqCst,
                );
            });
        Engine::run_single(
            &program,
            SchedPolicy::Deterministic,
            PersistencePolicy::FloorOnly,
            0,
            None,
            Box::new(jaaru::NullSink),
        );
        assert_eq!(out.load(Ordering::SeqCst), 200);
    }

    #[test]
    fn del_removes_the_key() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let server = Redis::create(ctx);
            server.set(ctx, 7, 50);
            assert!(server.del(ctx, 7));
            assert_eq!(server.get(ctx, 7), None);
            assert!(!server.del(ctx, 7));
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn client_server_session_works() {
        let run = crate::run_once(&program(), 4);
        assert!(run.panics.is_empty(), "{:?}", run.panics);
    }

    #[test]
    fn model_check_reports_only_the_pmdk_ulog_race() {
        let report = yashme::model_check(&program());
        assert_eq!(
            report.race_labels(),
            vec![pmdk::ULOG_RACE_LABEL],
            "{report}"
        );
    }
}
