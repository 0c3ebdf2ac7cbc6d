//! A persistent ring-buffer queue (single producer, single consumer).
//!
//! Slots are persisted before the `tail` index publishes them; `head`
//! advances on dequeue. In the racy variant the index stores are plain —
//! recovery reads a possibly-torn index and can replay garbage. The fixed
//! variant uses release stores for both indices.

use jaaru::{Atomicity, Ctx, Program};
use pmem::Addr;

use crate::Variant;

/// Slots in the ring.
pub const CAPACITY: u64 = 8;

// Layout: { head u64, tail u64 } | slots[CAPACITY] u64, ring base fixed in
// the root region (the layout is part of the format, like libpmemlog).
const RING_OFFSET: u64 = 3072;
const OFF_HEAD: u64 = 0;
const OFF_TAIL: u64 = 8;
const OFF_SLOTS: u64 = 16;

/// Race labels of the index stores.
pub const HEAD_LABEL: &str = "pqueue.head";
/// Race label of the tail store.
pub const TAIL_LABEL: &str = "pqueue.tail";

/// A persistent ring queue handle.
#[derive(Debug, Clone, Copy)]
pub struct PQueue {
    base: Addr,
    variant: Variant,
}

impl PQueue {
    fn base() -> Addr {
        Addr::BASE + RING_OFFSET
    }

    /// Creates an empty queue at the fixed ring region.
    pub fn create(ctx: &mut Ctx, variant: Variant) -> PQueue {
        let base = Self::base();
        let q = PQueue { base, variant };
        ctx.store_u64(base + OFF_HEAD, 0, variant.atomicity(), HEAD_LABEL);
        ctx.store_u64(base + OFF_TAIL, 0, variant.atomicity(), TAIL_LABEL);
        ctx.clflush_labeled(base, "pqueue.header flush (pqueue)");
        ctx.sfence_labeled("pqueue.header fence (pqueue)");
        q
    }

    /// Re-opens the queue post-crash.
    pub fn open(_ctx: &mut Ctx, variant: Variant) -> PQueue {
        PQueue {
            base: Self::base(),
            variant,
        }
    }

    fn load_idx(&self, ctx: &mut Ctx, off: u64) -> u64 {
        match self.variant {
            Variant::Racy => ctx.load_u64(self.base + off, Atomicity::Plain),
            Variant::Fixed => ctx.load_acquire_u64(self.base + off),
        }
    }

    fn store_idx(&self, ctx: &mut Ctx, off: u64, value: u64, label: &'static str) {
        ctx.store_u64(self.base + off, value, self.variant.atomicity(), label);
        ctx.clflush_labeled(self.base + off, "pqueue.index flush (pqueue)");
        ctx.sfence_labeled("pqueue.index fence (pqueue)");
    }

    /// Number of enqueued, not-yet-dequeued elements.
    pub fn len(&self, ctx: &mut Ctx) -> u64 {
        let head = self.load_idx(ctx, OFF_HEAD);
        let tail = self.load_idx(ctx, OFF_TAIL);
        tail.saturating_sub(head).min(CAPACITY)
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self, ctx: &mut Ctx) -> bool {
        self.len(ctx) == 0
    }

    /// Enqueues `value`: slot persisted first, then the tail publish store.
    pub fn enqueue(&self, ctx: &mut Ctx, value: u64) -> bool {
        let head = self.load_idx(ctx, OFF_HEAD);
        let tail = self.load_idx(ctx, OFF_TAIL);
        if tail - head >= CAPACITY {
            return false;
        }
        let slot = self.base + OFF_SLOTS + (tail % CAPACITY) * 8;
        ctx.store_u64(slot, value, Atomicity::Plain, "pqueue.slot");
        ctx.clflush_labeled(slot, "pqueue.slot flush (pqueue)");
        ctx.sfence_labeled("pqueue.slot fence (pqueue)");
        self.store_idx(ctx, OFF_TAIL, tail + 1, TAIL_LABEL);
        true
    }

    /// Dequeues the oldest element.
    pub fn dequeue(&self, ctx: &mut Ctx) -> Option<u64> {
        let head = self.load_idx(ctx, OFF_HEAD);
        let tail = self.load_idx(ctx, OFF_TAIL);
        if head >= tail {
            return None;
        }
        let slot = self.base + OFF_SLOTS + (head % CAPACITY) * 8;
        let value = ctx.load_u64(slot, Atomicity::Plain);
        self.store_idx(ctx, OFF_HEAD, head + 1, HEAD_LABEL);
        Some(value)
    }

    /// Recovery drain: reads both indices and every live slot.
    pub fn recover_drain(&self, ctx: &mut Ctx) -> Vec<u64> {
        let mut out = Vec::new();
        let head = self.load_idx(ctx, OFF_HEAD);
        let tail = self.load_idx(ctx, OFF_TAIL);
        if tail < head || tail - head > CAPACITY {
            return out; // torn indices: treat as corrupt, drop the queue
        }
        for i in head..tail {
            let slot = self.base + OFF_SLOTS + (i % CAPACITY) * 8;
            out.push(ctx.load_u64(slot, Atomicity::Plain));
        }
        out
    }
}

/// The benchmark driver for a variant.
pub fn program(variant: Variant) -> Program {
    Program::new(match variant {
        Variant::Racy => "x-queue",
        Variant::Fixed => "x-queue-fixed",
    })
    .pre_crash(move |ctx: &mut Ctx| {
        let q = PQueue::create(ctx, variant);
        for v in [10u64, 20, 30, 40] {
            q.enqueue(ctx, v);
        }
        let _ = q.dequeue(ctx);
    })
    .post_crash(move |ctx: &mut Ctx| {
        let q = PQueue::open(ctx, variant);
        let _ = q.recover_drain(ctx);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::Engine;
    use std::sync::{Arc, Mutex};

    #[test]
    fn fifo_order_and_capacity() {
        for variant in [Variant::Racy, Variant::Fixed] {
            let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
                let q = PQueue::create(ctx, variant);
                assert!(q.is_empty(ctx));
                for v in 0..CAPACITY {
                    assert!(q.enqueue(ctx, v * 3), "{v}");
                }
                assert!(!q.enqueue(ctx, 999), "full");
                assert_eq!(q.len(ctx), CAPACITY);
                for v in 0..CAPACITY {
                    assert_eq!(q.dequeue(ctx), Some(v * 3));
                }
                assert_eq!(q.dequeue(ctx), None);
                // Wraparound.
                assert!(q.enqueue(ctx, 7));
                assert_eq!(q.dequeue(ctx), Some(7));
            });
            crate::run_once(&program, 2);
        }
    }

    #[test]
    fn recovery_drains_live_elements() {
        let out = Arc::new(Mutex::new(Vec::new()));
        let o = out.clone();
        let program = Program::new("t")
            .pre_crash(|ctx: &mut Ctx| {
                let q = PQueue::create(ctx, Variant::Fixed);
                for v in [1u64, 2, 3] {
                    q.enqueue(ctx, v);
                }
                let _ = q.dequeue(ctx);
            })
            .post_crash(move |ctx: &mut Ctx| {
                let q = PQueue::open(ctx, Variant::Fixed);
                *o.lock().unwrap() = q.recover_drain(ctx);
            });
        Engine::run_single(
            &program,
            jaaru::SchedPolicy::Deterministic,
            jaaru::PersistencePolicy::FloorOnly,
            0,
            None,
            Box::new(jaaru::NullSink),
        );
        assert_eq!(out.lock().unwrap().clone(), vec![2, 3]);
    }

    #[test]
    fn racy_variant_is_flagged_fixed_variant_is_clean() {
        let racy = yashme::model_check(&program(Variant::Racy));
        let labels = racy.race_labels();
        assert!(labels.contains(&TAIL_LABEL), "{racy}");
        assert!(labels.contains(&HEAD_LABEL), "{racy}");
        let fixed = yashme::model_check(&program(Variant::Fixed));
        assert!(fixed.races().is_empty(), "{fixed}");
    }
}
