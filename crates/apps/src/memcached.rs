//! Memcached-pmem: the persistent slab allocator (`pslab.c`) and item store.
//!
//! Memcached-pmem keeps its slabs in PM and reconstructs the volatile hash
//! index at restart by scanning them. The port preserves the four racy
//! fields of Table 4: the pool-header `valid` flag, the per-slab `id`
//! written when a slab is assigned to a size class, and the per-item
//! `it_flags`/`cas` metadata written when an item is linked.

use jaaru::{Atomicity, Ctx, Program};
use pmdk::libpmem::pmem_persist;
use pmem::Addr;

use crate::client::{Command, Wire};
use crate::labels::{ITEM_CAS, ITEM_IT_FLAGS, PSLAB_ID, PSLAB_VALID};

/// Slabs in the pool.
pub const NUM_SLABS: u64 = 2;
/// Items per slab.
pub const ITEMS_PER_SLAB: u64 = 4;

// Pool header root slots.
const SLOT_SIGNATURE: u64 = 20;
const SLOT_VALID: u64 = 21;
const SLOT_SLABS: u64 = 22;

const SIGNATURE: u64 = 0x6d63_6432_706d_656d; // "mcd2pmem"

// Slab layout: { id u32, pad, items... } — items start at 64 bytes.
const SLAB_HDR_BYTES: u64 = 64;
// Item layout: { it_flags u8, pad, cas u64, key u64, value u64 }.
const ITEM_STRIDE: u64 = 32;
const OFF_IT_FLAGS: u64 = 0;
const OFF_CAS: u64 = 8;
const OFF_KEY: u64 = 16;
const OFF_VALUE: u64 = 24;
/// Byte size of one slab with the default geometry.
pub const SLAB_BYTES: u64 = slab_bytes(ITEMS_PER_SLAB);

/// Byte size of one slab holding `items_per_slab` items.
pub const fn slab_bytes(items_per_slab: u64) -> u64 {
    SLAB_HDR_BYTES + items_per_slab * ITEM_STRIDE
}

const ITEM_LINKED: u8 = 1;

/// The memcached-pmem server state.
#[derive(Debug)]
pub struct Memcached {
    slabs: Addr,
    /// Volatile: next cas value.
    cas_counter: u64,
    /// Pool geometry (volatile configuration, like memcached's `-m`/`-I`
    /// flags): slab count and items per slab.
    num_slabs: u64,
    items_per_slab: u64,
    /// Volatile: which slabs have been assigned ids.
    assigned: Vec<bool>,
}

impl Memcached {
    /// Formats the persistent slab pool (like `pslab_create`) with the
    /// default geometry.
    pub fn format(ctx: &mut Ctx) -> Memcached {
        Memcached::format_sized(ctx, NUM_SLABS, ITEMS_PER_SLAB)
    }

    /// [`Memcached::format`] with explicit pool geometry. The soak traffic
    /// generator sizes the pool to its key space so updates reuse item
    /// slots in place — the bounded-live-state workload.
    pub fn format_sized(ctx: &mut Ctx, num_slabs: u64, items_per_slab: u64) -> Memcached {
        let slab_bytes = slab_bytes(items_per_slab);
        let slabs = ctx.alloc_line_aligned(num_slabs * slab_bytes);
        ctx.memset(slabs, 0, num_slabs * slab_bytes, "pslab format memset");
        pmem_persist(ctx, slabs, num_slabs * slab_bytes, "pslab.format persist");
        ctx.store_u64(
            ctx.root_slot(SLOT_SIGNATURE),
            SIGNATURE,
            Atomicity::Plain,
            "pslab_pool.signature",
        );
        ctx.store_u64(
            ctx.root_slot(SLOT_SLABS),
            slabs.raw(),
            Atomicity::Plain,
            "pslab_pool.slabs",
        );
        pmem_persist(
            ctx,
            ctx.root_slot(SLOT_SIGNATURE),
            8,
            "pslab_pool.signature persist",
        );
        pmem_persist(
            ctx,
            ctx.root_slot(SLOT_SLABS),
            8,
            "pslab_pool.slabs persist",
        );
        // The racy store of bug #2: a plain flag write marking the pool
        // usable.
        ctx.store_u8(ctx.root_slot(SLOT_VALID), 1, Atomicity::Plain, PSLAB_VALID);
        pmem_persist(
            ctx,
            ctx.root_slot(SLOT_VALID),
            1,
            "pslab_pool.valid persist",
        );
        Memcached {
            slabs,
            cas_counter: 0,
            num_slabs,
            items_per_slab,
            assigned: vec![false; num_slabs as usize],
        }
    }

    fn slab_addr(&self, slab: u64) -> Addr {
        self.slabs + slab * slab_bytes(self.items_per_slab)
    }

    fn item_addr(&self, slab: u64, item: u64) -> Addr {
        self.slab_addr(slab) + SLAB_HDR_BYTES + item * ITEM_STRIDE
    }

    /// Stores `key → value` (the `set` command): lazily assigns the slab's
    /// id (bug #3), writes the payload, persists it, then writes the racy
    /// `cas` (bug #5) and `it_flags` (bug #4) metadata.
    pub fn set(&mut self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        let slab = key % self.num_slabs;
        if !self.assigned[slab as usize] {
            // do_slabs_newslab: assign the slab to a size class.
            let id_addr = self.slab_addr(slab);
            ctx.store_u32(id_addr, slab as u32 + 1, Atomicity::Plain, PSLAB_ID);
            pmem_persist(ctx, id_addr, 4, "pslab.id persist");
            self.assigned[slab as usize] = true;
        }
        for i in 0..self.items_per_slab {
            let item = self.item_addr(slab, i);
            let flags = ctx.load_u8(item + OFF_IT_FLAGS, Atomicity::Plain);
            let existing = ctx.load_u64(item + OFF_KEY, Atomicity::Plain);
            if flags != ITEM_LINKED || existing == key {
                // Payload first, fully persisted...
                ctx.store_u64(item + OFF_KEY, key, Atomicity::Plain, "item.key");
                ctx.store_u64(item + OFF_VALUE, value, Atomicity::Plain, "item.value");
                pmem_persist(ctx, item + OFF_KEY, 16, "item.payload persist");
                // ...then the racy metadata.
                self.cas_counter += 1;
                ctx.store_u64(item + OFF_CAS, self.cas_counter, Atomicity::Plain, ITEM_CAS);
                ctx.store_u8(
                    item + OFF_IT_FLAGS,
                    ITEM_LINKED,
                    Atomicity::Plain,
                    ITEM_IT_FLAGS,
                );
                pmem_persist(ctx, item, ITEM_STRIDE, "item.meta persist");
                return true;
            }
        }
        false
    }

    /// Deletes `key` (the `delete` command): unlinking writes the racy
    /// `it_flags` field again.
    pub fn del(&mut self, ctx: &mut Ctx, key: u64) -> bool {
        let slab = key % self.num_slabs;
        for i in 0..self.items_per_slab {
            let item = self.item_addr(slab, i);
            if ctx.load_u8(item + OFF_IT_FLAGS, Atomicity::Plain) == ITEM_LINKED
                && ctx.load_u64(item + OFF_KEY, Atomicity::Plain) == key
            {
                ctx.store_u8(item + OFF_IT_FLAGS, 0, Atomicity::Plain, ITEM_IT_FLAGS);
                pmem_persist(ctx, item, 1, "item.unlink persist");
                return true;
            }
        }
        false
    }

    /// Looks `key` up (the `get` command).
    pub fn get(&self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        let slab = key % self.num_slabs;
        for i in 0..self.items_per_slab {
            let item = self.item_addr(slab, i);
            if ctx.load_u8(item + OFF_IT_FLAGS, Atomicity::Plain) == ITEM_LINKED
                && ctx.load_u64(item + OFF_KEY, Atomicity::Plain) == key
            {
                return Some(ctx.load_u64(item + OFF_VALUE, Atomicity::Plain));
            }
        }
        None
    }

    /// Restart path (like `pslab_check` + index rebuild): validates the
    /// pool flag, reads every slab id, and scans items — the four
    /// race-observing loads of Table 4. Returns the rebuilt server and the
    /// number of recovered items, or `None` if the pool is not valid.
    pub fn restart(ctx: &mut Ctx) -> Option<(Memcached, u64)> {
        Memcached::restart_sized(ctx, NUM_SLABS, ITEMS_PER_SLAB)
    }

    /// [`Memcached::restart`] for a pool created by
    /// [`Memcached::format_sized`]. The geometry is volatile configuration,
    /// so the restarting server must be told the same sizes it was
    /// formatted with.
    pub fn restart_sized(
        ctx: &mut Ctx,
        num_slabs: u64,
        items_per_slab: u64,
    ) -> Option<(Memcached, u64)> {
        if ctx.load_u8(ctx.root_slot(SLOT_VALID), Atomicity::Plain) != 1 {
            return None;
        }
        let sig = ctx.load_u64(ctx.root_slot(SLOT_SIGNATURE), Atomicity::Plain);
        if sig != SIGNATURE {
            return None;
        }
        let slabs = Addr(ctx.load_u64(ctx.root_slot(SLOT_SLABS), Atomicity::Plain));
        if slabs.raw() < Addr::BASE.raw() || slabs.raw() > Addr::BASE.raw() + (1 << 30) {
            return None;
        }
        let mut server = Memcached {
            slabs,
            cas_counter: 0,
            num_slabs,
            items_per_slab,
            assigned: vec![false; num_slabs as usize],
        };
        let mut recovered = 0;
        for s in 0..num_slabs {
            let id = ctx.load_u32(server.slab_addr(s), Atomicity::Plain);
            server.assigned[s as usize] = id != 0;
            for i in 0..items_per_slab {
                let item = server.item_addr(s, i);
                if ctx.load_u8(item + OFF_IT_FLAGS, Atomicity::Plain) == ITEM_LINKED {
                    let cas = ctx.load_u64(item + OFF_CAS, Atomicity::Plain);
                    server.cas_counter = server.cas_counter.max(cas);
                    let _key = ctx.load_u64(item + OFF_KEY, Atomicity::Plain);
                    recovered += 1;
                }
            }
        }
        Some((server, recovered))
    }

    /// Runs the server loop, draining `wire` in batches until `Quit`.
    ///
    /// Batching takes the wire's host mutex once per
    /// [`Wire::drain`] instead of once per command; the simulated
    /// operations (and hence the engine's event stream) are identical to
    /// one-at-a-time `recv`, since commands execute in the same FIFO order
    /// and the scheduler is only consulted when the wire is idle.
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
    for (i, key) in [11u64, 22, 33, 44].into_iter().enumerate() {
        wire.send(Command::Set(key, (i as u64 + 1) * 100));
    }
    wire.send(Command::Get(11));
    wire.send(Command::Get(44));
    wire.send(Command::Quit);
}

/// The full server+client program: format, serve a client session, crash,
/// restart, serve lookups again.
pub fn program() -> Program {
    Program::new("Memcached")
        .pre_crash(|ctx: &mut Ctx| {
            let wire = Wire::new();
            let client_wire = wire.clone();
            let client = ctx.spawn(move |_c: &mut Ctx| {
                client_workload(&client_wire);
            });
            let mut server = Memcached::format(ctx);
            server.serve(ctx, &wire);
            ctx.join(client);
        })
        .post_crash(|ctx: &mut Ctx| {
            if let Some((server, _recovered)) = Memcached::restart(ctx) {
                for key in [11u64, 22, 33, 44] {
                    let _ = server.get(ctx, key);
                }
            }
        })
}

/// Races Table 4 reports for memcached (bugs #2–#5).
pub const EXPECTED_RACES: &[&str] = &[PSLAB_VALID, PSLAB_ID, ITEM_IT_FLAGS, ITEM_CAS];

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
            let mut server = Memcached::format(ctx);
            assert!(server.set(ctx, 11, 100));
            assert!(server.set(ctx, 22, 200));
            o.store(
                server.get(ctx, 11).unwrap_or(0) + server.get(ctx, 22).unwrap_or(0),
                Ordering::SeqCst,
            );
        });
        crate::run_once(&program, 2);
        assert_eq!(out.load(Ordering::SeqCst), 300);
    }

    #[test]
    fn update_reuses_slot() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let mut server = Memcached::format(ctx);
            server.set(ctx, 11, 1);
            server.set(ctx, 11, 2);
            assert_eq!(server.get(ctx, 11), Some(2));
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn del_unlinks_and_slot_is_reusable() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let mut server = Memcached::format(ctx);
            server.set(ctx, 11, 100);
            assert!(server.del(ctx, 11));
            assert_eq!(server.get(ctx, 11), None);
            assert!(!server.del(ctx, 11));
            server.set(ctx, 13, 300);
            assert_eq!(server.get(ctx, 13), Some(300));
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn restart_recovers_persisted_items() {
        let recovered = Arc::new(AtomicU64::new(99));
        let r = recovered.clone();
        let program = Program::new("t")
            .pre_crash(|ctx: &mut Ctx| {
                let mut server = Memcached::format(ctx);
                server.set(ctx, 11, 100);
                server.set(ctx, 22, 200);
                server.set(ctx, 33, 300);
            })
            .post_crash(move |ctx: &mut Ctx| {
                let (_, n) = Memcached::restart(ctx).expect("pool valid");
                r.store(n, Ordering::SeqCst);
            });
        Engine::run_single(
            &program,
            SchedPolicy::Deterministic,
            PersistencePolicy::FullCache,
            0,
            None,
            Box::new(jaaru::NullSink),
        );
        assert_eq!(recovered.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn client_server_session_works() {
        // The full driver runs without panics and the server answers gets.
        let run = crate::run_once(&program(), 3);
        assert!(run.panics.is_empty(), "{:?}", run.panics);
    }

    #[test]
    fn detector_finds_the_four_memcached_races() {
        use std::collections::BTreeSet;
        let report = yashme::model_check(&program());
        let found: BTreeSet<&str> = report.race_labels().into_iter().collect();
        let expected: BTreeSet<&str> = EXPECTED_RACES.iter().copied().collect();
        assert_eq!(found, expected, "{report}");
    }
}

#[cfg(test)]
mod multiclient_tests {
    use super::*;
    use crate::client::{Command, Wire};

    #[test]
    fn two_clients_share_the_server() {
        // Two client threads interleave sets and gets through one wire; the
        // server must process all commands and terminate on the single Quit.
        let program = Program::new("mc-2c").pre_crash(|ctx: &mut Ctx| {
            let wire = Wire::new();
            let w1 = wire.clone();
            let w2 = wire.clone();
            let c1 = ctx.spawn(move |c: &mut Ctx| {
                w1.send(Command::Set(11, 1));
                c.sched_yield();
                w1.send(Command::Set(33, 3));
                w1.send(Command::Get(11));
            });
            let c2 = ctx.spawn(move |c: &mut Ctx| {
                w2.send(Command::Set(22, 2));
                c.sched_yield();
                w2.send(Command::Get(22));
            });
            let mut server = Memcached::format(ctx);
            // Serve until both clients are done, then quit.
            ctx.join(c1);
            ctx.join(c2);
            wire.send(Command::Quit);
            server.serve(ctx, &wire);
            assert_eq!(server.get(ctx, 11), Some(1));
            assert_eq!(server.get(ctx, 22), Some(2));
            assert_eq!(server.get(ctx, 33), Some(3));
        });
        let run = crate::run_once(&program, 6);
        assert!(run.panics.is_empty(), "{:?}", run.panics);
    }
}
