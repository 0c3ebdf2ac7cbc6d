//! The persistent object pool: a checksummed header, a persistent heap, and
//! a root-object pointer.

use jaaru::{Atomicity, Ctx};
use pmem::Addr;

use crate::libpmem::pmem_persist;
use crate::ulog::Ulog;

/// Root-region slot layout used by the pool.
const SLOT_MAGIC: u64 = 8;
const SLOT_VERSION: u64 = 9;
const SLOT_CHECKSUM: u64 = 10;
const SLOT_ULOG: u64 = 11;
const SLOT_ROOT_OBJ: u64 = 12;
const SLOT_HEAP_OFF: u64 = 13;

const POOL_MAGIC: u64 = 0x504d_444b_0001_0001; // "PMDK"
const POOL_VERSION: u64 = 1;

/// A `libpmemobj`-style pool handle.
///
/// The pool persists a header whose integrity is protected by a checksum;
/// [`Pool::open`] re-validates it post-crash with checksum-scope loads, so
/// torn header reads surface as *benign* checksum reports rather than true
/// races (§7.5). Object allocation is journaled through the pool's
/// [`Ulog`], which is where PMDK's own persistency race lives (Table 4
/// bug #1).
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    ulog: Ulog,
}

fn header_checksum(magic: u64, version: u64, ulog_ptr: u64) -> u64 {
    magic.rotate_left(17) ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ulog_ptr.rotate_left(33)
}

impl Pool {
    /// Creates and formats a pool.
    pub fn create(ctx: &mut Ctx) -> Pool {
        let ulog = Ulog::create_area(ctx);
        let magic = ctx.root_slot(SLOT_MAGIC);
        let version = ctx.root_slot(SLOT_VERSION);
        let checksum = ctx.root_slot(SLOT_CHECKSUM);
        let ulog_slot = ctx.root_slot(SLOT_ULOG);
        ctx.store_u64(magic, POOL_MAGIC, Atomicity::Plain, "pool_hdr.signature");
        ctx.store_u64(version, POOL_VERSION, Atomicity::Plain, "pool_hdr.major");
        ctx.store_u64(
            ulog_slot,
            ulog.base().raw(),
            Atomicity::Plain,
            "pool_hdr.ulog_ptr",
        );
        ctx.store_u64(
            checksum,
            header_checksum(POOL_MAGIC, POOL_VERSION, ulog.base().raw()),
            Atomicity::Plain,
            "pool_hdr.checksum",
        );
        pmem_persist(ctx, magic, 32, "pool_hdr persist");
        Pool { ulog }
    }

    /// Opens a pool post-crash: validates the header checksum (benign-race
    /// scope) and runs undo-log recovery. Returns `None` if the header does
    /// not validate (the crash predated formatting).
    pub fn open(ctx: &mut Ctx) -> Option<Pool> {
        ctx.set_checksum_scope(true);
        let magic = ctx.load_u64(ctx.root_slot(SLOT_MAGIC), Atomicity::Plain);
        let version = ctx.load_u64(ctx.root_slot(SLOT_VERSION), Atomicity::Plain);
        let ulog_ptr = ctx.load_u64(ctx.root_slot(SLOT_ULOG), Atomicity::Plain);
        let checksum = ctx.load_u64(ctx.root_slot(SLOT_CHECKSUM), Atomicity::Plain);
        ctx.set_checksum_scope(false);
        if checksum != header_checksum(magic, version, ulog_ptr) || magic != POOL_MAGIC {
            return None;
        }
        let ulog = Ulog::from_base(ulog_ptr)?;
        let pool = Pool { ulog };
        pool.ulog.recover(ctx);
        Some(pool)
    }

    /// The pool's undo log.
    pub fn ulog(&self) -> Ulog {
        self.ulog
    }

    /// The persistent root-object pointer slot.
    pub fn root_obj_slot(ctx: &Ctx) -> Addr {
        ctx.root_slot(SLOT_ROOT_OBJ)
    }

    /// Sets the root object pointer (journaled + persisted).
    pub fn set_root_obj(&self, ctx: &mut Ctx, obj: Addr) {
        let slot = Self::root_obj_slot(ctx);
        self.ulog.add_range(ctx, slot, 8);
        ctx.store_u64(slot, obj.raw(), Atomicity::Plain, "pool.root_obj");
        pmem_persist(ctx, slot, 8, "pool.root_obj persist");
        self.ulog.reset(ctx);
    }

    /// Reads the root object pointer.
    pub fn root_obj(&self, ctx: &mut Ctx) -> Option<Addr> {
        let raw = ctx.load_u64(Self::root_obj_slot(ctx), Atomicity::Plain);
        let addr = Addr(raw);
        if addr.is_null() || raw < Addr::BASE.raw() || raw > Addr::BASE.raw() + (1 << 30) {
            None
        } else {
            Some(addr)
        }
    }

    /// Allocates a persistent object. PMDK's allocator journals its heap
    /// metadata updates through the redo/undo machinery; the port journals
    /// the heap cursor through the ulog, which is how the ulog race
    /// manifests in benchmarks (like hashmap-atomic) that never open
    /// transactions themselves.
    pub fn alloc_obj(&self, ctx: &mut Ctx, size: u64) -> Addr {
        let cursor = ctx.root_slot(SLOT_HEAP_OFF);
        self.ulog.add_range(ctx, cursor, 8);
        let obj = ctx.alloc_line_aligned(size.max(8));
        ctx.store_u64(cursor, obj.raw(), Atomicity::Plain, "heap.cursor");
        pmem_persist(ctx, cursor, 8, "heap.cursor persist");
        self.ulog.reset(ctx);
        obj
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::{Engine, PersistencePolicy, Program, SchedPolicy};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn create_then_open_across_crash() {
        let opened = Arc::new(AtomicU64::new(0));
        let o = opened.clone();
        let program = Program::new("t")
            .pre_crash(|ctx: &mut Ctx| {
                let pool = Pool::create(ctx);
                let obj = pool.alloc_obj(ctx, 64);
                ctx.store_u64(obj, 5, Atomicity::Plain, "obj");
                pmem_persist(ctx, obj, 8, "obj persist");
                pool.set_root_obj(ctx, obj);
            })
            .post_crash(move |ctx: &mut Ctx| {
                if let Some(pool) = Pool::open(ctx) {
                    if let Some(obj) = pool.root_obj(ctx) {
                        o.store(ctx.load_u64(obj, Atomicity::Plain), Ordering::SeqCst);
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
        assert_eq!(opened.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn open_unformatted_pool_fails() {
        let ok = Arc::new(AtomicU64::new(9));
        let o = ok.clone();
        let program =
            Program::new("t")
                .pre_crash(|_ctx: &mut Ctx| {})
                .post_crash(move |ctx: &mut Ctx| {
                    o.store(Pool::open(ctx).is_some() as u64, Ordering::SeqCst);
                });
        crate::run_once(&program, 1);
        assert_eq!(ok.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn checksum_function_distinguishes_headers() {
        assert_ne!(
            header_checksum(POOL_MAGIC, 1, 0),
            header_checksum(POOL_MAGIC, 2, 0)
        );
        assert_ne!(header_checksum(0, 1, 0), header_checksum(1, 1, 0));
        assert_ne!(header_checksum(0, 1, 7), header_checksum(0, 1, 8));
    }
}
