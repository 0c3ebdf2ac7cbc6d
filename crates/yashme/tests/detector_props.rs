//! Property-based tests of detector-level guarantees on randomly generated
//! programs:
//!
//! * the baseline's races are a subset of prefix mode's (prefix expansion
//!   only widens detection, §4.2),
//! * eADR-mode races are a subset of default-mode races (§7.5 containment),
//! * atomic stores are never reported (condition 1 of Definition 5.1),
//! * reports are deterministic.

use jaaru::{Atomicity, Ctx, EngineConfig, ExecMode, Program};
use proptest::prelude::*;
use yashme::YashmeConfig;

const SLOTS: usize = 6;

/// Static label tables (race labels are `&'static str`).
const PLAIN_LABELS: [&str; SLOTS] = [
    "slot0.plain",
    "slot1.plain",
    "slot2.plain",
    "slot3.plain",
    "slot4.plain",
    "slot5.plain",
];
const ATOMIC_LABELS: [&str; SLOTS] = [
    "slot0.atomic",
    "slot1.atomic",
    "slot2.atomic",
    "slot3.atomic",
    "slot4.atomic",
    "slot5.atomic",
];

#[derive(Debug, Clone, Copy)]
enum Op {
    Store {
        slot: usize,
        atomic: bool,
        value: u64,
    },
    Clflush {
        slot: usize,
    },
    Clwb {
        slot: usize,
    },
    Sfence,
    Mfence,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0usize..SLOTS, any::<bool>(), 1u64..100).prop_map(|(slot, atomic, value)| Op::Store {
            slot,
            atomic,
            value
        }),
        1 => (0usize..SLOTS).prop_map(|slot| Op::Clflush { slot }),
        1 => (0usize..SLOTS).prop_map(|slot| Op::Clwb { slot }),
        1 => Just(Op::Sfence),
        1 => Just(Op::Mfence),
    ]
}

fn build(ops: Vec<Op>) -> Program {
    Program::new("prop")
        .pre_crash(move |ctx: &mut Ctx| {
            for op in &ops {
                match *op {
                    Op::Store {
                        slot,
                        atomic,
                        value,
                    } => {
                        // Spread slots across cache lines (slot * 64).
                        let addr = ctx.root_slot(slot as u64 * 8);
                        if atomic {
                            ctx.store_release_u64(addr, value, ATOMIC_LABELS[slot]);
                        } else {
                            ctx.store_u64(addr, value, Atomicity::Plain, PLAIN_LABELS[slot]);
                        }
                    }
                    Op::Clflush { slot } => ctx.clflush(ctx.root_slot(slot as u64 * 8)),
                    Op::Clwb { slot } => ctx.clwb(ctx.root_slot(slot as u64 * 8)),
                    Op::Sfence => ctx.sfence(),
                    Op::Mfence => ctx.mfence(),
                }
            }
        })
        .post_crash(|ctx: &mut Ctx| {
            for slot in 0..SLOTS {
                let addr = ctx.root_slot(slot as u64 * 8);
                if slot % 2 == 0 {
                    let _ = ctx.load_u64(addr, Atomicity::Plain);
                } else {
                    let _ = ctx.load_acquire_u64(addr);
                }
            }
        })
}

fn labels(ops: &[Op], config: YashmeConfig) -> Vec<&'static str> {
    let mut l = yashme::check(
        &build(ops.to_vec()),
        ExecMode::model_check(),
        config,
        &EngineConfig::default(),
    )
    .race_labels();
    l.sort();
    l
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn baseline_races_subset_of_prefix_races(ops in proptest::collection::vec(arb_op(), 1..14)) {
        let prefix = labels(&ops, YashmeConfig::default());
        let baseline = labels(&ops, YashmeConfig::baseline());
        for l in &baseline {
            prop_assert!(prefix.contains(l), "baseline-only race {l} ({ops:?})");
        }
    }

    #[test]
    fn eadr_races_subset_of_default_races(ops in proptest::collection::vec(arb_op(), 1..14)) {
        let default = labels(&ops, YashmeConfig::default());
        let eadr = labels(&ops, YashmeConfig::eadr());
        for l in &eadr {
            prop_assert!(default.contains(l), "eADR-only race {l} ({ops:?})");
        }
    }

    #[test]
    fn atomic_stores_never_race(ops in proptest::collection::vec(arb_op(), 1..14)) {
        for config in [YashmeConfig::default(), YashmeConfig::baseline(), YashmeConfig::eadr()] {
            for l in labels(&ops, config) {
                prop_assert!(!l.ends_with(".atomic"), "atomic store reported: {l}");
            }
        }
    }

    #[test]
    fn reports_are_deterministic(ops in proptest::collection::vec(arb_op(), 1..14)) {
        prop_assert_eq!(
            labels(&ops, YashmeConfig::default()),
            labels(&ops, YashmeConfig::default())
        );
    }

    #[test]
    fn unflushed_final_plain_store_always_races(
        ops in proptest::collection::vec(arb_op(), 0..10),
        slot in 0usize..SLOTS,
        value in 1u64..100,
    ) {
        // Appending a plain store with no flush after it: the post-crash
        // read of that slot must race on it (no condition of Definition 5.1
        // can save it — nothing the post-crash execution reads is ordered
        // after it... unless a *later atomic* store to the same line exists,
        // which appending last rules out).
        let mut ops = ops;
        ops.push(Op::Store { slot, atomic: false, value });
        let prefix = labels(&ops, YashmeConfig::default());
        prop_assert!(
            prefix.contains(&PLAIN_LABELS[slot]),
            "final unflushed plain store not reported ({ops:?})"
        );
    }
}
