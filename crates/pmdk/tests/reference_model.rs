//! Reference-model property tests for the PMDK example structures: random
//! operation sequences compared against a `BTreeMap` oracle, plus
//! crash-recovery equivalence (a committed prefix of operations survives a
//! fully flushed crash exactly).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use jaaru::{Ctx, Engine, NullSink, PersistencePolicy, Program, SchedPolicy};
use pmdk::pool::Pool;
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Op {
    Insert(u64, u64),
    Get(u64),
}

fn arb_ops(len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            2 => (1u64..30, 1u64..1000).prop_map(|(k, v)| Op::Insert(k, v)),
            1 => (1u64..30).prop_map(Op::Get),
        ],
        1..len,
    )
}

fn oracle_expect(ops: &[Op]) -> Vec<(usize, Option<u64>)> {
    let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
    let mut expected = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match *op {
            Op::Insert(k, v) => {
                oracle.insert(k, v);
            }
            Op::Get(k) => expected.push((i, oracle.get(&k).copied())),
        }
    }
    expected
}

macro_rules! oracle_test {
    ($name:ident, $create:expr, $insert:expr, $get:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(16))]
            #[test]
            fn $name(ops in arb_ops(8)) {
                let results: Arc<Mutex<Vec<(usize, Option<u64>)>>> =
                    Arc::new(Mutex::new(Vec::new()));
                let r = results.clone();
                let ops2 = ops.clone();
                let program = Program::new("oracle").pre_crash(move |ctx: &mut Ctx| {
                    let pool = Pool::create(ctx);
                    let ds = $create(ctx, &pool);
                    for (i, op) in ops2.iter().enumerate() {
                        match *op {
                            Op::Insert(k, v) => {
                                $insert(&ds, ctx, k, v);
                            }
                            Op::Get(k) => {
                                r.lock().unwrap().push((i, $get(&ds, ctx, k)));
                            }
                        }
                    }
                });
                Engine::run_single(
                    &program,
                    SchedPolicy::RandomChoice,
                    PersistencePolicy::Random,
                    3,
                    None,
                    Box::new(NullSink),
                );
                let got = results.lock().unwrap().clone();
                prop_assert_eq!(got, oracle_expect(&ops), "ops: {:?}", ops);
            }
        }
    };
}

oracle_test!(
    btree_matches_oracle,
    |ctx: &mut Ctx, pool: &Pool| pmdk::btree::BTree::create(ctx, pool),
    |ds: &pmdk::btree::BTree, ctx: &mut Ctx, k, v| {
        ds.insert(ctx, k, v); // duplicate keys update in place
    },
    |ds: &pmdk::btree::BTree, ctx: &mut Ctx, k| ds.get(ctx, k)
);

oracle_test!(
    ctree_matches_oracle,
    |ctx: &mut Ctx, pool: &Pool| pmdk::ctree::CTree::create(ctx, pool),
    |ds: &pmdk::ctree::CTree, ctx: &mut Ctx, k, v| {
        ds.insert(ctx, k, v);
    },
    |ds: &pmdk::ctree::CTree, ctx: &mut Ctx, k| ds.get(ctx, k)
);

oracle_test!(
    rbtree_matches_oracle,
    |ctx: &mut Ctx, pool: &Pool| pmdk::rbtree::RbTree::create(ctx, pool),
    |ds: &pmdk::rbtree::RbTree, ctx: &mut Ctx, k, v| {
        ds.insert(ctx, k, v);
    },
    |ds: &pmdk::rbtree::RbTree, ctx: &mut Ctx, k| ds.get(ctx, k)
);

oracle_test!(
    hashmap_tx_matches_oracle,
    |ctx: &mut Ctx, pool: &Pool| pmdk::hashmap_tx::HashmapTx::create(ctx, pool),
    |ds: &pmdk::hashmap_tx::HashmapTx, ctx: &mut Ctx, k, v| {
        ds.insert(ctx, k, v);
    },
    |ds: &pmdk::hashmap_tx::HashmapTx, ctx: &mut Ctx, k| ds.get(ctx, k)
);

oracle_test!(
    hashmap_atomic_matches_oracle,
    |ctx: &mut Ctx, pool: &Pool| pmdk::hashmap_atomic::HashmapAtomic::create(ctx, pool),
    |ds: &pmdk::hashmap_atomic::HashmapAtomic, ctx: &mut Ctx, k, v| {
        ds.insert(ctx, k, v);
    },
    |ds: &pmdk::hashmap_atomic::HashmapAtomic, ctx: &mut Ctx, k| ds.get(ctx, k)
);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Crash-recovery equivalence: with every operation committed and a
    /// FloorOnly crash, the recovered rbtree answers exactly like the
    /// oracle.
    #[test]
    fn rbtree_crash_recovery_matches_oracle(ops in arb_ops(8)) {
        let results: Arc<Mutex<Vec<Option<u64>>>> = Arc::new(Mutex::new(Vec::new()));
        let r = results.clone();
        let ops2 = ops.clone();
        let program = Program::new("rb-crash")
            .pre_crash(move |ctx: &mut Ctx| {
                let pool = Pool::create(ctx);
                let tree = pmdk::rbtree::RbTree::create(ctx, &pool);
                for op in &ops2 {
                    if let Op::Insert(k, v) = *op {
                        tree.insert(ctx, k, v);
                    }
                }
            })
            .post_crash(move |ctx: &mut Ctx| {
                let pool = Pool::open(ctx).expect("fully flushed pool opens");
                let tree = pmdk::rbtree::RbTree::open(ctx, &pool).expect("root obj");
                let mut out = r.lock().unwrap();
                for k in 1..30u64 {
                    out.push(tree.get(ctx, k));
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
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            if let Op::Insert(k, v) = *op {
                oracle.insert(k, v);
            }
        }
        let got = results.lock().unwrap().clone();
        prop_assert_eq!(got.len(), 29);
        for (i, v) in got.iter().enumerate() {
            let k = i as u64 + 1;
            prop_assert_eq!(*v, oracle.get(&k).copied(), "key {} after crash", k);
        }
    }
}
