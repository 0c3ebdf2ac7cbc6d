//! `libpmemlog`-style append-only log (an extension beyond the paper's
//! evaluated PMDK surface).
//!
//! PMDK's `libpmemlog` appends byte ranges to a persistent log and walks
//! them back after a restart. The interesting store for Yashme is the
//! *write offset*: every append persists the payload first and then
//! advances the offset with a non-atomic store — the same publish-pointer
//! pattern as the `ulog.c` race, so the detector flags it the same way.

use jaaru::{Atomicity, Ctx};
use pmem::Addr;

use crate::libpmem::pmem_persist;

/// Capacity of the log payload area in bytes.
pub const LOG_CAPACITY: u64 = 1024;

/// The race label for the append pointer.
pub const PLOG_RACE_LABEL: &str = "plog.write_offset (log.c)";

// Layout: { write_offset u64 } | payload bytes...
const OFF_PAYLOAD: u64 = 64;

/// Fixed location of the log within the root region: like `libpmemlog`,
/// the layout is derived from the pool base rather than a stored pointer,
/// so re-opening reads no pointer at all.
const LOG_REGION_OFFSET: u64 = 2048;

/// A persistent append-only log.
#[derive(Debug, Clone, Copy)]
pub struct PmemLog {
    base: Addr,
}

impl PmemLog {
    /// Creates an empty log at the pool's fixed log region.
    pub fn create(ctx: &mut Ctx) -> PmemLog {
        let base = Addr::BASE + LOG_REGION_OFFSET;
        ctx.store_u64(base, 0, Atomicity::Plain, PLOG_RACE_LABEL);
        pmem_persist(ctx, base, 8, "plog.offset persist");
        PmemLog { base }
    }

    /// Re-opens the log at the pool's fixed log region (no pointer read —
    /// the layout is part of the pool format).
    pub fn open(_ctx: &mut Ctx) -> PmemLog {
        PmemLog {
            base: Addr::BASE + LOG_REGION_OFFSET,
        }
    }

    /// Current number of appended payload bytes.
    pub fn tell(&self, ctx: &mut Ctx) -> u64 {
        ctx.load_u64(self.base, Atomicity::Plain).min(LOG_CAPACITY)
    }

    /// `pmemlog_append`: persist the payload, then advance the write offset
    /// (the racy non-atomic publish store).
    ///
    /// Returns `false` if the log is full.
    pub fn append(&self, ctx: &mut Ctx, data: &[u8]) -> bool {
        let offset = self.tell(ctx);
        if offset + data.len() as u64 > LOG_CAPACITY {
            return false;
        }
        let dst = self.base + OFF_PAYLOAD + offset;
        ctx.memcpy(dst, data, "plog.payload");
        pmem_persist(ctx, dst, data.len() as u64, "plog.payload persist");
        ctx.store_u64(
            self.base,
            offset + data.len() as u64,
            Atomicity::Plain,
            PLOG_RACE_LABEL,
        );
        pmem_persist(ctx, self.base, 8, "plog.offset persist");
        true
    }

    /// `pmemlog_rewind`: truncates the log to empty.
    pub fn rewind(&self, ctx: &mut Ctx) {
        ctx.store_u64(self.base, 0, Atomicity::Plain, PLOG_RACE_LABEL);
        pmem_persist(ctx, self.base, 8, "plog.offset persist");
    }

    /// `pmemlog_walk`: reads back every appended byte (the race-observing
    /// loads post-crash).
    pub fn walk(&self, ctx: &mut Ctx) -> Vec<u8> {
        let len = self.tell(ctx);
        ctx.load_bytes(self.base + OFF_PAYLOAD, len, Atomicity::Plain)
    }
}

/// A driver: append records, crash, walk the log back.
pub fn program() -> jaaru::Program {
    jaaru::Program::new("pmemlog")
        .pre_crash(|ctx: &mut Ctx| {
            let log = PmemLog::create(ctx);
            log.append(ctx, b"alpha");
            log.append(ctx, b"beta");
            log.append(ctx, b"gamma");
        })
        .post_crash(|ctx: &mut Ctx| {
            let log = PmemLog::open(ctx);
            let _ = log.walk(ctx);
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::{Engine, PersistencePolicy, Program, SchedPolicy};
    use std::sync::{Arc, Mutex};

    #[test]
    fn append_walk_roundtrip() {
        let out = Arc::new(Mutex::new(Vec::new()));
        let o = out.clone();
        let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
            let log = PmemLog::create(ctx);
            assert!(log.append(ctx, b"hello "));
            assert!(log.append(ctx, b"world"));
            *o.lock().unwrap() = log.walk(ctx);
        });
        crate::run_once(&program, 2);
        assert_eq!(out.lock().unwrap().as_slice(), b"hello world");
    }

    #[test]
    fn rewind_truncates() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let log = PmemLog::create(ctx);
            log.append(ctx, b"junk");
            log.rewind(ctx);
            assert_eq!(log.tell(ctx), 0);
            log.append(ctx, b"ok");
            assert_eq!(log.walk(ctx), b"ok");
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn full_log_rejects_appends() {
        let program = Program::new("t").pre_crash(|ctx: &mut Ctx| {
            let log = PmemLog::create(ctx);
            let big = vec![7u8; LOG_CAPACITY as usize];
            assert!(log.append(ctx, &big));
            assert!(!log.append(ctx, b"x"));
        });
        crate::run_once(&program, 2);
    }

    #[test]
    fn committed_appends_survive_adversarial_crash() {
        let out = Arc::new(Mutex::new(Vec::new()));
        let o = out.clone();
        let program = Program::new("t")
            .pre_crash(|ctx: &mut Ctx| {
                let log = PmemLog::create(ctx);
                log.append(ctx, b"durable");
            })
            .post_crash(move |ctx: &mut Ctx| {
                let log = PmemLog::open(ctx);
                *o.lock().unwrap() = log.walk(ctx);
            });
        Engine::run_single(
            &program,
            SchedPolicy::Deterministic,
            PersistencePolicy::FloorOnly,
            0,
            None,
            Box::new(jaaru::NullSink),
        );
        assert_eq!(out.lock().unwrap().as_slice(), b"durable");
    }

    #[test]
    fn detector_flags_the_write_offset() {
        let report = yashme::model_check(&program());
        assert!(report.race_labels().contains(&PLOG_RACE_LABEL), "{report}");
        // The payload itself is covered by the offset publish (its persist
        // happens-before the offset store the walker reads first).
        assert!(!report.race_labels().contains(&"plog.payload"), "{report}");
    }
}
