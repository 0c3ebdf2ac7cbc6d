//! Differential property test: the line-slab [`MemState`] against the
//! byte-at-a-time [`RefMemState`] oracle.
//!
//! Random operation sequences — stores of assorted sizes and alignments
//! (including line-straddling ones), loads, flushes, fences, CAS, partial
//! store-buffer evictions, and crashes under every persistence policy — are
//! driven through both models in lockstep. Both perform the same clock
//! ticks, event-id draws, and rng draws, so every observable must agree
//! exactly: load bytes, the `chosen` and `candidates` event sets *in
//! order* (sink reporting depends on it), every thread's vector clock, the
//! persisted image, and per-byte provenance.
//!
//! Every operation is issued by one of [`THREADS`] threads (the main thread
//! and children registered under it), so per-thread store buffers, the
//! acquire path's clock joins, and candidate sets built from other threads'
//! stores are compared too. Besides the property test, a seeded 20k-op
//! stream over sixteen cache lines replays the store-heavy mix of the
//! paper's data-structure benchmarks.

#![allow(
    clippy::disallowed_types,
    reason = "the byte-at-a-time oracle keeps std maps, independent of the fast hasher it checks"
)]

mod refmodel;

use compiler_model::CompilerConfig;
use jaaru::{Atomicity, MemState, NullSink, PersistencePolicy};
use pmem::{Addr, Forkable};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use refmodel::RefMemState;
use vclock::ThreadId;

/// The property test's window: three cache lines starting at the root
/// region, small enough that threads keep colliding on the same bytes.
const WINDOW: u64 = 192;

/// Threads issuing operations: the main thread plus three children.
const THREADS: usize = 4;

fn base() -> Addr {
    Addr::BASE
}

/// One operation of the differential op language; a step pairs it with
/// the index (below [`THREADS`]) of the thread that issues it.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Store `len` bytes of a value pattern at `off` (kept inside the
    /// window, so `off` near the end is clamped).
    Store {
        off: u64,
        len: u64,
        seed: u8,
        release: bool,
    },
    Load {
        off: u64,
        len: u64,
        acquire: bool,
    },
    Clflush {
        off: u64,
    },
    Clwb {
        off: u64,
    },
    Sfence,
    Mfence,
    Cas {
        slot: u64,
        expected: u64,
        new: u64,
    },
    /// Evict one legal store-buffer entry, chosen by `pick`.
    Evict {
        pick: u8,
    },
    Drain,
    Crash {
        policy: u8,
        seed: u64,
    },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..WINDOW, 1u64..17, 0u8..255, any::<bool>()).prop_map(|(off, len, seed, release)| {
            Op::Store {
                off,
                len,
                seed,
                release,
            }
        }),
        (0u64..WINDOW, 1u64..17, any::<bool>()).prop_map(|(off, len, acquire)| Op::Load {
            off,
            len,
            acquire
        }),
        (0u64..WINDOW).prop_map(|off| Op::Clflush { off }),
        (0u64..WINDOW).prop_map(|off| Op::Clwb { off }),
        Just(Op::Sfence),
        Just(Op::Mfence),
        (0u64..WINDOW / 8, 0u64..4, 1u64..1000).prop_map(|(slot, expected, new)| Op::Cas {
            slot,
            expected,
            new
        }),
        (0u8..255).prop_map(|pick| Op::Evict { pick }),
        Just(Op::Drain),
        (0u8..3, 0u64..1 << 32).prop_map(|(policy, seed)| Op::Crash { policy, seed }),
    ]
}

fn policy_of(p: u8) -> PersistencePolicy {
    match p % 3 {
        0 => PersistencePolicy::FullCache,
        1 => PersistencePolicy::FloorOnly,
        _ => PersistencePolicy::Random,
    }
}

/// One `MemState` and one `RefMemState` driven in lockstep by the same
/// operations, with the same threads registered.
struct Lockstep {
    opt: MemState,
    oracle: RefMemState,
    tids: Vec<ThreadId>,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep::with_gc(false)
    }

    /// With `gc`, the `MemState` retires events and drains persisted log
    /// prefixes after every commit; the reference model never does.
    fn with_gc(gc: bool) -> Self {
        let mut opt = MemState::new(CompilerConfig::default(), 1 << 20);
        if gc {
            opt.enable_gc(1);
        }
        let mut oracle = RefMemState::new(CompilerConfig::default());
        let main = opt.register_thread(None);
        assert_eq!(main, oracle.register_thread(None));
        let mut tids = vec![main];
        for _ in 1..THREADS {
            let child = opt.register_thread(Some(main));
            assert_eq!(child, oracle.register_thread(Some(main)));
            tids.push(child);
        }
        Lockstep { opt, oracle, tids }
    }

    /// Applies `op` from thread index `thread` to both models over the
    /// first `window` bytes of the root region, asserting equality at
    /// every observation point. Returns an error message on the first
    /// divergence.
    fn step(&mut self, window: u64, step: usize, thread: usize, op: Op) -> Result<(), String> {
        let mut sink = NullSink;
        let Lockstep { opt, oracle, tids } = self;
        let t = tids[thread];
        match op {
            Op::Store {
                off,
                len,
                seed,
                release,
            } => {
                let off = off.min(window - len);
                let bytes: Vec<u8> = (0..len).map(|i| seed.wrapping_add(i as u8)).collect();
                let atomicity = if release {
                    Atomicity::ReleaseAcquire
                } else {
                    Atomicity::Plain
                };
                opt.exec_store(&mut sink, t, base() + off, &bytes, atomicity, "w");
                oracle.exec_store(t, base() + off, &bytes, atomicity, "w");
            }
            Op::Load { off, len, acquire } => {
                let off = off.min(window - len);
                let atomicity = if acquire {
                    Atomicity::ReleaseAcquire
                } else {
                    Atomicity::Plain
                };
                let a = opt.exec_load(t, base() + off, len, atomicity, "r");
                let b = oracle.exec_load(t, base() + off, len, atomicity);
                if a.bytes != b.bytes {
                    return Err(format!("step {step}: bytes {:?} != {:?}", a.bytes, b.bytes));
                }
                if a.chosen != b.chosen {
                    return Err(format!(
                        "step {step}: chosen {:?} != {:?}",
                        a.chosen, b.chosen
                    ));
                }
                if a.candidates != b.candidates {
                    return Err(format!(
                        "step {step}: candidates {:?} != {:?}",
                        a.candidates, b.candidates
                    ));
                }
            }
            Op::Clflush { off } => {
                opt.exec_clflush(t, base() + off, "f");
                oracle.exec_clflush(t, base() + off);
            }
            Op::Clwb { off } => {
                opt.exec_clwb(t, base() + off, "f");
                oracle.exec_clwb(t, base() + off);
            }
            Op::Sfence => {
                opt.exec_sfence(t, "sf");
                oracle.exec_sfence(t);
            }
            Op::Mfence => {
                opt.exec_mfence(&mut sink, t, "mf");
                oracle.exec_mfence(t);
            }
            Op::Cas {
                slot,
                expected,
                new,
            } => {
                let addr = base() + slot * 8;
                let (old_a, ok_a, out_a) = opt.exec_cas(&mut sink, t, addr, expected, new, "cas");
                let (old_b, ok_b, out_b) = oracle.exec_cas(t, addr, expected, new, "cas");
                if (old_a, ok_a) != (old_b, ok_b) {
                    return Err(format!(
                        "step {step}: cas ({old_a}, {ok_a}) != ({old_b}, {ok_b})"
                    ));
                }
                if out_a.bytes != out_b.bytes
                    || out_a.chosen != out_b.chosen
                    || out_a.candidates != out_b.candidates
                {
                    return Err(format!("step {step}: cas outcome diverged"));
                }
            }
            Op::Evict { pick } => {
                let choices = oracle.evictable(t);
                if opt.evictable(t) != choices {
                    return Err(format!("step {step}: evictable sets diverged"));
                }
                if let Some(&pos) = choices.get(pick as usize % choices.len().max(1)) {
                    opt.evict_one(&mut sink, t, pos);
                    oracle.evict_one(t, pos);
                }
            }
            Op::Drain => {
                opt.drain_sb(&mut sink, t);
                oracle.drain_sb(t);
            }
            Op::Crash { policy, seed } => {
                let policy = policy_of(policy);
                let mut rng_a = StdRng::seed_from_u64(seed);
                let mut rng_b = StdRng::seed_from_u64(seed);
                opt.crash(policy, &mut rng_a);
                oracle.crash(policy, &mut rng_b);
                // Threads keep their ids across the crash (clocks carry
                // over; buffers were cleared identically).
                check_persistent_state(window, step, opt, oracle)?;
            }
        }
        // Clock agreement for every thread after every step: acquire
        // joins and spawn inheritance are only visible here.
        for &tid in tids.iter() {
            if opt.cv(tid) != oracle.cv(tid) {
                return Err(format!(
                    "step {step}: clock of {tid:?} {:?} != {:?}",
                    opt.cv(tid),
                    oracle.cv(tid)
                ));
            }
        }
        // Storemap agreement over the window after every step.
        for i in 0..window {
            let at = base() + i;
            if opt.store_map_at(at) != oracle.store_map_at(at) {
                return Err(format!("step {step}: storemap diverged at {at}"));
            }
        }
        Ok(())
    }

    /// Final crash: compares the fully materialized persistent state.
    fn finish(&mut self, window: u64, step: usize) -> Result<(), String> {
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        self.opt.crash(PersistencePolicy::FullCache, &mut rng_a);
        self.oracle.crash(PersistencePolicy::FullCache, &mut rng_b);
        check_persistent_state(window, step, &self.opt, &self.oracle)
    }
}

/// Runs `steps` through both models over the first `window` bytes of the
/// root region, asserting equality at every observation point. Returns an
/// error message on the first divergence.
fn run_differential(window: u64, steps: &[(usize, Op)]) -> Result<(), String> {
    let mut both = Lockstep::new();
    for (step, &(thread, op)) in steps.iter().enumerate() {
        both.step(window, step, thread, op)?;
    }
    both.finish(window, steps.len())
}

/// What happens to the parent's copy-on-write co-holder in
/// [`run_forked`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sibling {
    /// Parent and fork both live on and take turns.
    Interleaved,
    /// The fork is dropped at once; the parent runs alone.
    ForkDropped,
    /// The parent is dropped at once; the fork runs alone.
    ParentDropped,
}

/// Upper bound on the copy-on-write copies both sides of one fork can make
/// together: every record and queue shared at the fork is copied at most
/// once (after one side copies, the other holds it alone). Line records
/// count two copies each, one per slab; the window spans three lines of
/// cache and three of image; each thread has two queues.
const MAX_FORK_COPIES: u64 = 2 * (3 + 3) + 2 * THREADS as u64;

/// Forks a memory system after `prefix`, then drives the parent through
/// `parent_ops` and the fork through `fork_ops`. Each side is checked at
/// every step against its own reference model, which replays that side's
/// whole history without forking, so a write on one side that leaked into
/// the other shows as a divergence. Copy-on-write traffic is checked
/// against a third, unforked memory system replaying the fork's history:
/// it never copies, and neither may a side whose co-holder was dropped.
/// Returns the copies both sides made.
fn run_forked(
    gc: bool,
    prefix: &[(usize, Op)],
    parent_ops: &[(usize, Op)],
    fork_ops: &[(usize, Op)],
    sibling: Sibling,
) -> Result<u64, String> {
    let mut parent = Lockstep::with_gc(gc);
    let mut fork = Lockstep::with_gc(gc);
    let mut unforked = Lockstep::with_gc(gc);
    for (step, &(thread, op)) in prefix.iter().enumerate() {
        parent.step(WINDOW, step, thread, op)?;
        fork.step(WINDOW, step, thread, op)?;
        unforked.step(WINDOW, step, thread, op)?;
    }
    fork.opt = parent.opt.fork();
    let mut sides = match sibling {
        Sibling::Interleaved => vec![(parent, parent_ops), (fork, fork_ops)],
        Sibling::ForkDropped => {
            drop(fork);
            vec![(parent, parent_ops)]
        }
        Sibling::ParentDropped => {
            drop(parent);
            vec![(fork, fork_ops)]
        }
    };
    let longest = parent_ops.len().max(fork_ops.len());
    for n in 0..longest {
        let step = prefix.len() + n;
        for (side, ops) in &mut sides {
            if let Some(&(thread, op)) = ops.get(n) {
                side.step(WINDOW, step, thread, op)?;
            }
        }
        if let Some(&(thread, op)) = fork_ops.get(n) {
            unforked.step(WINDOW, step, thread, op)?;
        }
    }
    let end = prefix.len() + longest;
    for (side, _) in &mut sides {
        side.finish(WINDOW, end)?;
    }
    if unforked.opt.cow_stats() != (0, 0) {
        return Err(format!(
            "an unforked replay copied: {:?}",
            unforked.opt.cow_stats()
        ));
    }
    let copies: u64 = sides.iter().map(|(side, _)| side.opt.cow_stats().0).sum();
    match sibling {
        Sibling::Interleaved if copies > MAX_FORK_COPIES => Err(format!(
            "{copies} copies after one fork, above {MAX_FORK_COPIES}"
        )),
        Sibling::ForkDropped | Sibling::ParentDropped if copies != 0 => Err(format!(
            "{copies} copies with the co-holder dropped; an unforked replay makes none"
        )),
        _ => Ok(copies),
    }
}

fn check_persistent_state(
    window: u64,
    step: usize,
    opt: &MemState,
    oracle: &RefMemState,
) -> Result<(), String> {
    for i in 0..window {
        let at = base() + i;
        if opt.image_byte(at) != oracle.image_byte(at) {
            return Err(format!(
                "step {step}: image byte at {at}: {} != {}",
                opt.image_byte(at),
                oracle.image_byte(at)
            ));
        }
        if opt.image_prov_at(at) != oracle.image_prov_at(at) {
            return Err(format!(
                "step {step}: provenance at {at}: {:?} != {:?}",
                opt.image_prov_at(at),
                oracle.image_prov_at(at)
            ));
        }
    }
    Ok(())
}

/// Issues every op from the main thread.
fn on_main(ops: &[Op]) -> Vec<(usize, Op)> {
    ops.iter().map(|&op| (0, op)).collect()
}

/// A seeded stream over sixteen cache lines with the store-heavy mix of
/// the paper's data-structure benchmarks: many small stores, loads
/// spanning whole records, periodic flushes and fences, rare crashes.
/// Threads issue operations round-robin.
fn seeded_stream(window: u64, ops: usize, seed: u64) -> Vec<(usize, Op)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ops)
        .map(|n| {
            let roll = rng.gen_range(0u32..100);
            let op = if roll < 32 {
                let len = rng.gen_range(8u64..33);
                Op::Store {
                    off: rng.gen_range(0..window - len),
                    len,
                    seed: rng.gen_range(0u32..256) as u8,
                    release: rng.gen_bool(0.25),
                }
            } else if roll < 72 {
                let len = rng.gen_range(16u64..65);
                Op::Load {
                    off: rng.gen_range(0..window - len),
                    len,
                    acquire: rng.gen_bool(0.25),
                }
            } else if roll < 80 {
                Op::Clflush {
                    off: rng.gen_range(0..window),
                }
            } else if roll < 85 {
                Op::Clwb {
                    off: rng.gen_range(0..window),
                }
            } else if roll < 90 {
                Op::Sfence
            } else if roll < 93 {
                Op::Mfence
            } else if roll < 96 {
                Op::Cas {
                    slot: rng.gen_range(0..window / 8),
                    expected: rng.gen_range(0u64..4),
                    new: rng.gen_range(1u64..100),
                }
            } else if roll < 99 {
                Op::Drain
            } else {
                Op::Crash {
                    policy: 2,
                    seed: rng.next_u64(),
                }
            };
            (n % THREADS, op)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn line_slab_memory_matches_byte_oracle(
        steps in proptest::collection::vec((0..THREADS, arb_op()), 1..60)
    ) {
        if let Err(msg) = run_differential(WINDOW, &steps) {
            prop_assert!(false, "{}", msg);
        }
    }

    #[test]
    fn a_fork_and_its_parent_stay_isolated(
        prefix in proptest::collection::vec((0..THREADS, arb_op()), 0..40),
        parent_ops in proptest::collection::vec((0..THREADS, arb_op()), 0..40),
        fork_ops in proptest::collection::vec((0..THREADS, arb_op()), 0..40),
        gc in any::<bool>(),
        sibling in prop_oneof![
            2 => Just(Sibling::Interleaved),
            1 => Just(Sibling::ForkDropped),
            1 => Just(Sibling::ParentDropped),
        ],
    ) {
        if let Err(msg) = run_forked(gc, &prefix, &parent_ops, &fork_ops, sibling) {
            prop_assert!(false, "{}", msg);
        }
    }
}

#[test]
fn a_fork_mid_run_diverges_from_its_parent_through_stores_flushes_fences_and_a_crash() {
    // Lines 0 and 1 hold committed stores, one of them flushed, and a
    // buffered store and clwb are pending when the state is captured.
    let prefix = on_main(&[
        Op::Store {
            off: 0,
            len: 8,
            seed: 1,
            release: false,
        },
        Op::Store {
            off: 64,
            len: 8,
            seed: 2,
            release: true,
        },
        Op::Drain,
        Op::Clflush { off: 0 },
        Op::Drain,
        Op::Store {
            off: 8,
            len: 8,
            seed: 3,
            release: false,
        },
        Op::Clwb { off: 64 },
    ]);
    // The parent overwrites line 0, fences its clwb and crashes keeping
    // only flushed data; the fork writes line 1, flushes line 0 and
    // crashes keeping everything.
    let parent_ops = on_main(&[
        Op::Store {
            off: 0,
            len: 8,
            seed: 10,
            release: false,
        },
        Op::Sfence,
        Op::Drain,
        Op::Crash { policy: 1, seed: 1 },
        Op::Load {
            off: 0,
            len: 16,
            acquire: false,
        },
    ]);
    let fork_ops = on_main(&[
        Op::Store {
            off: 72,
            len: 8,
            seed: 20,
            release: false,
        },
        Op::Clflush { off: 0 },
        Op::Mfence,
        Op::Crash { policy: 0, seed: 2 },
        Op::Load {
            off: 64,
            len: 16,
            acquire: true,
        },
    ]);
    for gc in [false, true] {
        for sibling in [
            Sibling::Interleaved,
            Sibling::ForkDropped,
            Sibling::ParentDropped,
        ] {
            let copies = run_forked(gc, &prefix, &parent_ops, &fork_ops, sibling)
                .unwrap_or_else(|msg| panic!("gc {gc}, {sibling:?}: {msg}"));
            if sibling == Sibling::Interleaved {
                // Both sides write line 0 or 1 and their buffers while the
                // other still holds them.
                assert!(copies > 0, "gc {gc}: shared storage was written in place");
            }
        }
    }
}

#[test]
fn directed_torn_store_and_partial_persistence_agree() {
    // A deterministic sequence covering the interesting sources: a store
    // split across two lines, a flushed floor, a random-cut crash, and
    // post-crash loads mixing image and cache bytes.
    let ops = [
        Op::Store {
            off: 58,
            len: 12,
            seed: 1,
            release: false,
        },
        Op::Clflush { off: 58 },
        Op::Drain,
        Op::Store {
            off: 60,
            len: 8,
            seed: 9,
            release: true,
        },
        Op::Drain,
        Op::Crash { policy: 2, seed: 3 },
        Op::Load {
            off: 56,
            len: 16,
            acquire: true,
        },
        Op::Store {
            off: 62,
            len: 4,
            seed: 7,
            release: false,
        },
        Op::Drain,
        Op::Load {
            off: 60,
            len: 8,
            acquire: false,
        },
        Op::Crash { policy: 1, seed: 4 },
        Op::Load {
            off: 58,
            len: 12,
            acquire: false,
        },
    ];
    run_differential(WINDOW, &on_main(&ops)).expect("models agree");
}

#[test]
fn cas_and_eviction_orders_agree() {
    let ops = [
        Op::Cas {
            slot: 0,
            expected: 0,
            new: 5,
        },
        Op::Cas {
            slot: 0,
            expected: 5,
            new: 9,
        },
        Op::Store {
            off: 0,
            len: 8,
            seed: 2,
            release: false,
        },
        Op::Clwb { off: 64 },
        Op::Store {
            off: 64,
            len: 8,
            seed: 3,
            release: false,
        },
        Op::Evict { pick: 1 },
        Op::Evict { pick: 0 },
        Op::Sfence,
        Op::Drain,
        Op::Crash {
            policy: 0,
            seed: 11,
        },
        Op::Load {
            off: 0,
            len: 16,
            acquire: true,
        },
    ];
    run_differential(WINDOW, &on_main(&ops)).expect("models agree");
}

#[test]
fn release_acquire_handoff_across_threads_agrees() {
    // Thread 1 publishes with a release store that thread 2 acquires,
    // while thread 3 keeps an unflushed plain store buffered on the same
    // line: the acquire joins thread 1's clock and the loads see stores
    // from every thread as candidates.
    let steps = [
        (
            1,
            Op::Store {
                off: 0,
                len: 8,
                seed: 4,
                release: false,
            },
        ),
        (
            1,
            Op::Store {
                off: 8,
                len: 8,
                seed: 5,
                release: true,
            },
        ),
        (1, Op::Drain),
        (
            3,
            Op::Store {
                off: 4,
                len: 8,
                seed: 6,
                release: false,
            },
        ),
        (
            2,
            Op::Load {
                off: 8,
                len: 8,
                acquire: true,
            },
        ),
        (
            2,
            Op::Load {
                off: 0,
                len: 16,
                acquire: false,
            },
        ),
        (3, Op::Drain),
        (0, Op::Clwb { off: 0 }),
        (0, Op::Sfence),
        (
            2,
            Op::Cas {
                slot: 1,
                expected: 0,
                new: 3,
            },
        ),
        (0, Op::Crash { policy: 2, seed: 5 }),
        (
            3,
            Op::Load {
                off: 0,
                len: 16,
                acquire: true,
            },
        ),
    ];
    run_differential(WINDOW, &steps).expect("models agree");
}

#[test]
fn seeded_four_thread_stream_agrees() {
    let steps = seeded_stream(1024, 20_000, 0x59a5_311e);
    run_differential(1024, &steps).expect("models agree");
}
