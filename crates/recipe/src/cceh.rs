//! CCEH: Cacheline-Conscious Extendible Hashing (Nam et al., FAST '19).
//!
//! The port preserves the `Segment::Insert` protocol of the paper's
//! Figure 3: a CAS on the `key` field locks a slot (writing `SENTINEL`),
//! then the `value` field is written, an `mfence` orders it, and finally the
//! non-atomic `key` store commits the insertion — both fields on the same
//! cache line. `Get` (Figure 10) reads the non-atomic `key` and `value`
//! fields back. Bugs #1/#2 of Table 3 are the persistency races on those
//! two fields.

use compiler_model::{SourceProfile, SourceUnit};
use jaaru::{Atomicity, Ctx, Program};
use pmem::Addr;

use crate::util::{as_ptr, flush_range, hash64, open_pool, seal_pool};

/// Empty slot marker.
pub const EMPTY: u64 = 0;
/// Lock sentinel written by the CAS that claims a slot.
pub const SENTINEL: u64 = u64::MAX - 1;
/// Tombstone for deleted slots (probing continues past it).
pub const DELETED: u64 = u64::MAX - 2;

/// Slots per segment.
pub const SEGMENT_SLOTS: u64 = 16;
/// Number of segments in the (fixed-depth) directory.
pub const NUM_SEGMENTS: u64 = 4;
/// Linear-probe window (pairs sharing a cache line, hence
/// "cacheline-conscious").
pub const PROBE_WINDOW: u64 = 4;

/// The root slot holding the directory pointer.
const DIR_SLOT: u64 = 0;

/// A CCEH hashtable handle (volatile; the table itself lives in simulated
/// PM).
#[derive(Debug, Clone, Copy)]
pub struct Cceh {
    dir: Addr,
}

impl Cceh {
    /// Creates a fresh table: allocates the directory and segments,
    /// zero-initializes them (`memset`, as the C++ constructors do), flushes
    /// everything, and publishes the directory pointer.
    pub fn create(ctx: &mut Ctx) -> Cceh {
        let dir = ctx.alloc_line_aligned(NUM_SEGMENTS * 8);
        for s in 0..NUM_SEGMENTS {
            let seg = ctx.alloc_line_aligned(SEGMENT_SLOTS * 16);
            // Segment::Segment() zero-initializes its pairs.
            ctx.memset(seg, 0, SEGMENT_SLOTS * 16, "Segment::ctor memset");
            flush_range(ctx, seg, SEGMENT_SLOTS * 16, "Segment::ctor flush (CCEH.h)");
            ctx.store_u64(
                dir + s * 8,
                seg.raw(),
                Atomicity::Plain,
                "Directory.segment",
            );
        }
        flush_range(ctx, dir, NUM_SEGMENTS * 8, "Directory::ctor flush (CCEH.h)");
        ctx.sfence_labeled("Directory::ctor fence (CCEH.h)");
        ctx.store_u64(
            ctx.root_slot(DIR_SLOT),
            dir.raw(),
            Atomicity::Plain,
            "CCEH.dir_",
        );
        ctx.clflush_labeled(ctx.root_slot(DIR_SLOT), "CCEH.dir_ flush (CCEH.h)");
        ctx.sfence_labeled("CCEH.dir_ fence (CCEH.h)");
        Cceh { dir }
    }

    /// Re-opens the table post-crash via the persisted directory pointer.
    pub fn open(ctx: &mut Ctx) -> Option<Cceh> {
        let raw = ctx.load_u64(ctx.root_slot(DIR_SLOT), Atomicity::Plain);
        as_ptr(raw).map(|dir| Cceh { dir })
    }

    fn slot_addr(&self, ctx: &mut Ctx, key: u64, probe: u64) -> Option<Addr> {
        let h = hash64(key);
        let seg_idx = (h >> 32) % NUM_SEGMENTS;
        let raw = ctx.load_u64(self.dir + seg_idx * 8, Atomicity::Plain);
        let seg = as_ptr(raw)?;
        let slot = (h.wrapping_add(probe)) % SEGMENT_SLOTS;
        Some(seg + slot * 16)
    }

    /// `Segment::Insert` (Figure 3): CAS-lock the slot's key, write value,
    /// `mfence`, write key; then flush the pair and fence.
    pub fn insert(&self, ctx: &mut Ctx, key: u64, value: u64) -> bool {
        assert!(key != EMPTY && key != SENTINEL, "reserved key");
        for probe in 0..PROBE_WINDOW {
            let pair = match self.slot_addr(ctx, key, probe) {
                Some(p) => p,
                None => return false,
            };
            let (_, locked) = ctx.cas_u64(pair, EMPTY, SENTINEL, "Pair.key (pair.h)");
            let locked = locked || ctx.cas_u64(pair, DELETED, SENTINEL, "Pair.key (pair.h)").1;
            if locked {
                ctx.store_u64(pair + 8, value, Atomicity::Plain, "Pair.value (pair.h)");
                ctx.mfence_labeled("Segment::Insert mfence (CCEH.h)");
                ctx.store_u64(pair, key, Atomicity::Plain, "Pair.key (pair.h)");
                // The caller flushes both stores to persistent memory.
                ctx.clflush_labeled(pair, "Segment::Insert flush (CCEH.h)");
                ctx.sfence_labeled("Segment::Insert fence (CCEH.h)");
                return true;
            }
        }
        false
    }

    /// `CCEH::Delete`: tombstones the slot with a non-atomic key store (the
    /// same racy field as insertion) and flushes it.
    pub fn remove(&self, ctx: &mut Ctx, key: u64) -> bool {
        for probe in 0..PROBE_WINDOW {
            let pair = match self.slot_addr(ctx, key, probe) {
                Some(p) => p,
                None => return false,
            };
            let k = ctx.load_u64(pair, Atomicity::Plain);
            if k == key {
                ctx.store_u64(pair, DELETED, Atomicity::Plain, "Pair.key (pair.h)");
                ctx.clflush_labeled(pair, "CCEH::Delete flush (CCEH.h)");
                ctx.sfence_labeled("CCEH::Delete fence (CCEH.h)");
                return true;
            }
            if k == EMPTY {
                return false;
            }
        }
        false
    }

    /// `CCEH::Get` (Figure 10): reads the non-atomic key and value fields.
    pub fn get(&self, ctx: &mut Ctx, key: u64) -> Option<u64> {
        for probe in 0..PROBE_WINDOW {
            let pair = self.slot_addr(ctx, key, probe)?;
            let k = ctx.load_u64(pair, Atomicity::Plain);
            if k == key {
                return Some(ctx.load_u64(pair + 8, Atomicity::Plain));
            }
            if k == EMPTY {
                return None;
            }
        }
        None
    }
}

/// Keys used by the example driver.
pub const DRIVER_KEYS: [u64; 5] = [101, 202, 303, 404, 505];

/// The example test application: create, insert, crash, re-open, look up.
pub fn program() -> Program {
    Program::new("CCEH")
        .pre_crash(|ctx: &mut Ctx| {
            let table = Cceh::create(ctx);
            seal_pool(ctx);
            for (i, &k) in DRIVER_KEYS.iter().enumerate() {
                table.insert(ctx, k, (i as u64 + 1) * 1000);
            }
        })
        .post_crash(|ctx: &mut Ctx| {
            if !open_pool(ctx) {
                return;
            }
            if let Some(table) = Cceh::open(ctx) {
                for &k in &DRIVER_KEYS {
                    let _ = table.get(ctx, k);
                }
            }
        })
}

/// Races Table 3 reports for CCEH (bugs #1 and #2).
pub const EXPECTED_RACES: &[&str] = &["Pair.value (pair.h)", "Pair.key (pair.h)"];

/// The Table 2b mem-op profile of the CCEH port: 6 explicit mem-ops in the
/// source (segment constructors and directory doubling copies), with -O3
/// introducing many more from the zero-initialization and rehashing
/// assignment runs (paper: 6 → 33).
pub fn source_profile() -> SourceProfile {
    use SourceUnit::*;
    let mut regions: Vec<Vec<SourceUnit>> = Vec::new();
    // Segment constructors: two explicit memsets, separated by header setup.
    regions.push(vec![
        ExplicitMemset { words: 32 },
        ScatteredStores { count: 2 },
        ExplicitMemset { words: 32 },
    ]);
    // Directory constructor + doubling: explicit copies.
    regions.push(vec![
        ExplicitMemcpy { words: 8 },
        ScatteredStores { count: 1 },
        ExplicitMemcpy { words: 8 },
    ]);
    // CCEH constructor: two more explicit memsets, separated.
    regions.push(vec![
        ExplicitMemset { words: 4 },
        ScatteredStores { count: 1 },
        ExplicitMemset { words: 4 },
    ]);
    // Zero-init and bucket-copy sites that clang -O3 converts: 19 zero-store
    // runs across segment split/rehash paths and 8 assignment runs.
    for _ in 0..19 {
        regions.push(vec![ZeroStoreRun { words: 8 }]);
    }
    for _ in 0..8 {
        regions.push(vec![AssignRun { words: 4 }]);
    }
    SourceProfile::new("CCEH", regions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::{Engine, PersistencePolicy, SchedPolicy};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn insert_then_get_same_execution() {
        let found = Arc::new(AtomicU64::new(0));
        let f = found.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let t = Cceh::create(ctx);
            assert!(t.insert(ctx, 7, 70));
            assert!(t.insert(ctx, 9, 90));
            f.store(
                t.get(ctx, 7).unwrap_or(0) + t.get(ctx, 9).unwrap_or(0),
                Ordering::SeqCst,
            );
        });
        crate::run_once(&program, 3);
        assert_eq!(found.load(Ordering::SeqCst), 160);
    }

    #[test]
    fn get_missing_key_is_none() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let t = Cceh::create(ctx);
            assert!(t.insert(ctx, 7, 70));
            assert_eq!(t.get(ctx, 8), None);
        });
        crate::run_once(&program, 3);
    }

    #[test]
    fn values_survive_crash_when_fully_flushed() {
        let found = Arc::new(AtomicU64::new(0));
        let f = found.clone();
        let program = Program::new("t")
            .pre_crash(|ctx: &mut Ctx| {
                let t = Cceh::create(ctx);
                seal_pool(ctx);
                for &k in &DRIVER_KEYS {
                    t.insert(ctx, k, k * 10);
                }
            })
            .post_crash(move |ctx: &mut Ctx| {
                assert!(open_pool(ctx));
                let t = Cceh::open(ctx).expect("directory pointer persisted");
                let mut sum = 0;
                for &k in &DRIVER_KEYS {
                    sum += t.get(ctx, k).unwrap_or(0);
                }
                f.store(sum, Ordering::SeqCst);
            });
        // No injected crash: phase 0 completes, everything flushed.
        Engine::run_single(
            &program,
            SchedPolicy::Deterministic,
            PersistencePolicy::FloorOnly,
            0,
            None,
            Box::new(jaaru::NullSink),
        );
        let expect: u64 = DRIVER_KEYS.iter().map(|k| k * 10).sum();
        assert_eq!(found.load(Ordering::SeqCst), expect);
    }

    #[test]
    fn remove_tombstones_and_slot_is_reusable() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let t = Cceh::create(ctx);
            assert!(t.insert(ctx, 7, 70));
            assert!(t.remove(ctx, 7));
            assert_eq!(t.get(ctx, 7), None);
            assert!(!t.remove(ctx, 7), "double delete fails");
            // The tombstoned slot is reusable.
            assert!(t.insert(ctx, 7, 71));
            assert_eq!(t.get(ctx, 7), Some(71));
        });
        crate::run_once(&program, 3);
    }

    #[test]
    fn profile_matches_table2b_row() {
        let p = source_profile();
        assert_eq!(p.source_counts().total(), 6);
        assert_eq!(
            p.asm_counts(&compiler_model::CompilerConfig::clang_o3_x86())
                .total(),
            33
        );
    }
}
