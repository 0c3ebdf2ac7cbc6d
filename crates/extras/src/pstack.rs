//! A persistent Treiber stack — the first lock-free structure in the
//! suite.
//!
//! Push allocates a node `{value, next}` and publishes it by CAS-ing the
//! `top` pointer; pop CAS-es `top` to the popped node's successor. The
//! two variants differ in *where the persist barrier sits relative to the
//! CAS publish*, not in store atomicity (the publish is already an atomic
//! RMW):
//!
//! * [`Variant::Racy`] — the natural volatile-first draft: CAS `top`
//!   first, flush the node afterwards. A crash between the publish and
//!   the flush leaves `top` pointing at a node whose plain `value`/`next`
//!   stores never reached persistent memory — recovery walking the stack
//!   reads them as persistency races (torn reads of unpersisted data).
//! * [`Variant::Fixed`] — the standard lock-free PM recipe: flush + fence
//!   the node *before* the CAS makes it reachable, so every node recovery
//!   can see is already durable.
//!
//! The lock-based suite never exercises this shape: its publish stores
//! are plain stores that the detector can flag directly, whereas here the
//! publish itself is atomic and *cannot* race — the bug lives entirely in
//! the flush ordering, which only the coverage plane's per-site
//! effective/ineffective flush counters make visible (see
//! EXPERIMENTS.md).

use jaaru::{Atomicity, Ctx, Program};
use pmem::Addr;

use crate::Variant;

/// Root slot holding the `top` pointer.
const TOP_SLOT: u64 = 48;

/// Node layout: `{ value u64, next u64 }`.
const NODE_BYTES: u64 = 16;
const OFF_VALUE: u64 = 0;
const OFF_NEXT: u64 = 8;

/// Race labels of the node payload stores (the sites recovery observes
/// unpersisted in the racy variant).
pub const VALUE_LABEL: &str = "pstack.node.value";
/// Race label of the node link store.
pub const NEXT_LABEL: &str = "pstack.node.next";

/// A persistent Treiber stack handle.
#[derive(Debug, Clone, Copy)]
pub struct PStack {
    variant: Variant,
}

/// Interprets a stored u64 as a node pointer, rejecting null and
/// out-of-arena values (a torn pointer read post-crash).
fn valid(raw: u64) -> Option<Addr> {
    let addr = Addr(raw);
    if addr.is_null() || raw < Addr::BASE.raw() || raw > Addr::BASE.raw() + (1 << 30) {
        None
    } else {
        Some(addr)
    }
}

impl PStack {
    /// Creates an empty stack: a null `top` pointer, persisted.
    pub fn create(ctx: &mut Ctx, variant: Variant) -> PStack {
        let top = ctx.root_slot(TOP_SLOT);
        ctx.store_u64(top, 0, Atomicity::ReleaseAcquire, "pstack.top");
        ctx.clflush_labeled(top, "pstack.top flush (pstack)");
        ctx.sfence_labeled("pstack.top fence (pstack)");
        PStack { variant }
    }

    /// Re-opens the stack post-crash.
    pub fn open(_ctx: &mut Ctx, variant: Variant) -> PStack {
        PStack { variant }
    }

    /// Pushes `value`: write the node, publish it with a CAS on `top`.
    /// The racy variant persists the node only *after* the CAS made it
    /// reachable; the fixed variant persists it before.
    pub fn push(&self, ctx: &mut Ctx, value: u64) {
        let top = ctx.root_slot(TOP_SLOT);
        let node = ctx.alloc_line_aligned(NODE_BYTES);
        ctx.store_u64(node + OFF_VALUE, value, Atomicity::Plain, VALUE_LABEL);
        loop {
            let head = ctx.load_acquire_u64(top);
            ctx.store_u64(node + OFF_NEXT, head, Atomicity::Plain, NEXT_LABEL);
            if self.variant == Variant::Fixed {
                // Persist-before-publish: the node is durable before any
                // other thread (or recovery) can reach it.
                ctx.clflush_labeled(node, "pstack.node flush (pstack)");
                ctx.sfence_labeled("pstack.node fence (pstack)");
            }
            let (_, ok) = ctx.cas_u64(top, head, node.raw(), "pstack.top");
            if ok {
                break;
            }
        }
        if self.variant == Variant::Racy {
            // Publish-then-persist: a crash window where `top` points at
            // an unpersisted node.
            ctx.clflush_labeled(node, "pstack.node flush (pstack)");
            ctx.sfence_labeled("pstack.node fence (pstack)");
        }
        ctx.clflush_labeled(top, "pstack.top flush (pstack)");
        ctx.sfence_labeled("pstack.top fence (pstack)");
    }

    /// Pops the most recently pushed value, or `None` when empty.
    pub fn pop(&self, ctx: &mut Ctx) -> Option<u64> {
        let top = ctx.root_slot(TOP_SLOT);
        loop {
            let head = ctx.load_acquire_u64(top);
            let node = valid(head)?;
            let next = ctx.load_u64(node + OFF_NEXT, Atomicity::Plain);
            let value = ctx.load_u64(node + OFF_VALUE, Atomicity::Plain);
            let (_, ok) = ctx.cas_u64(top, head, next, "pstack.top");
            if ok {
                ctx.clflush_labeled(top, "pstack.top flush (pstack)");
                ctx.sfence_labeled("pstack.top fence (pstack)");
                return Some(value);
            }
        }
    }

    /// Recovery walk: reads `top` and every reachable node's value,
    /// newest first. Stops at the first invalid pointer (a torn link) and
    /// bounds the walk so a cyclic torn pointer cannot loop forever.
    pub fn recover_collect(&self, ctx: &mut Ctx) -> Vec<u64> {
        let mut out = Vec::new();
        let mut cursor = ctx.load_acquire_u64(ctx.root_slot(TOP_SLOT));
        for _ in 0..64 {
            let node = match valid(cursor) {
                Some(n) => n,
                None => break,
            };
            out.push(ctx.load_u64(node + OFF_VALUE, Atomicity::Plain));
            cursor = ctx.load_u64(node + OFF_NEXT, Atomicity::Plain);
        }
        out
    }
}

/// The benchmark driver for a variant: two threads pushing interleaved
/// values (the lock-free contention the CAS loop exists for), one pop,
/// then a post-crash recovery walk.
pub fn program(variant: Variant) -> Program {
    Program::new(match variant {
        Variant::Racy => "x-stack",
        Variant::Fixed => "x-stack-fixed",
    })
    .pre_crash(move |ctx: &mut Ctx| {
        let s = PStack::create(ctx, variant);
        let t = ctx.spawn(move |ctx: &mut Ctx| {
            let s = PStack::open(ctx, variant);
            for v in [2u64, 4, 6] {
                s.push(ctx, v);
            }
        });
        for v in [1u64, 3, 5] {
            s.push(ctx, v);
        }
        ctx.join(t);
        let _ = s.pop(ctx);
    })
    .post_crash(move |ctx: &mut Ctx| {
        let s = PStack::open(ctx, variant);
        let _ = s.recover_collect(ctx);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::Engine;
    use std::sync::{Arc, Mutex};

    #[test]
    fn lifo_order_single_thread() {
        for variant in [Variant::Racy, Variant::Fixed] {
            let program = Program::new("t").pre_crash(move |ctx: &mut Ctx| {
                let s = PStack::create(ctx, variant);
                assert_eq!(s.pop(ctx), None);
                for v in [10u64, 20, 30] {
                    s.push(ctx, v);
                }
                assert_eq!(s.pop(ctx), Some(30));
                assert_eq!(s.pop(ctx), Some(20));
                assert_eq!(s.pop(ctx), Some(10));
                assert_eq!(s.pop(ctx), None);
            });
            crate::run_once(&program, 2);
        }
    }

    #[test]
    fn recovery_sees_persisted_nodes_newest_first() {
        let out = Arc::new(Mutex::new(Vec::new()));
        let o = out.clone();
        let program = Program::new("t")
            .pre_crash(|ctx: &mut Ctx| {
                let s = PStack::create(ctx, Variant::Fixed);
                for v in [1u64, 2, 3] {
                    s.push(ctx, v);
                }
            })
            .post_crash(move |ctx: &mut Ctx| {
                let s = PStack::open(ctx, Variant::Fixed);
                *o.lock().unwrap() = s.recover_collect(ctx);
            });
        Engine::run_single(
            &program,
            jaaru::SchedPolicy::Deterministic,
            jaaru::PersistencePolicy::FloorOnly,
            0,
            None,
            Box::new(jaaru::NullSink),
        );
        assert_eq!(out.lock().unwrap().clone(), vec![3, 2, 1]);
    }

    #[test]
    fn racy_variant_is_flagged_fixed_variant_is_clean() {
        let racy = yashme::model_check(&program(Variant::Racy));
        let labels = racy.race_labels();
        assert!(
            labels.contains(&VALUE_LABEL) || labels.contains(&NEXT_LABEL),
            "{racy}"
        );
        let fixed = yashme::model_check(&program(Variant::Fixed));
        assert!(fixed.races().is_empty(), "{fixed}");
    }

    #[test]
    fn racy_races_map_to_named_sites_in_coverage() {
        let racy = yashme::model_check(&program(Variant::Racy));
        let cov = racy.coverage();
        for label in racy.race_labels() {
            let named = cov
                .sites
                .sorted()
                .into_iter()
                .any(|(_, l, s)| l == label && cov.verdict_for(l, &s).name() == "raced");
            assert!(named, "race {label} has no raced site in coverage");
        }
    }
}
