//! Integration tests for the execution engine: scheduling, crash injection,
//! persistence semantics, and multi-threading.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use jaaru::obs::Telemetry;
use jaaru::{
    Atomicity, Ctx, Engine, EngineConfig, PersistencePolicy, Program, SchedPolicy, SingleRun,
};

fn run_mc(program: &Program, target: Option<(usize, usize)>) -> SingleRun {
    Engine::run_single(
        program,
        SchedPolicy::Deterministic,
        PersistencePolicy::FullCache,
        0,
        target,
        Box::new(jaaru::NullSink),
    )
}

#[test]
fn crash_points_counted_per_phase() {
    let program = Program::new("p")
        .pre_crash(|ctx: &mut Ctx| {
            let a = ctx.alloc(8, 8);
            ctx.store_u64(a, 1, Atomicity::Plain, "x");
            ctx.clflush(a); // point 0
            ctx.sfence(); // point 1
            ctx.mfence(); // point 2
        })
        .post_crash(|ctx: &mut Ctx| {
            let a = ctx.alloc(8, 8);
            ctx.clwb(a); // point 0 of phase 1
        });
    let run = run_mc(&program, None);
    assert_eq!(run.points, vec![3, 1]);
    assert!(run.panics.is_empty());
}

#[test]
fn injected_crash_cuts_phase_short() {
    // Observe how far the pre-crash phase got by writing to a side channel.
    let progress = Arc::new(AtomicUsize::new(0));
    let p = progress.clone();
    let program = Program::new("p").pre_crash(move |ctx: &mut Ctx| {
        let a = ctx.alloc(8, 8);
        p.store(1, Ordering::SeqCst);
        ctx.store_u64(a, 1, Atomicity::Plain, "x");
        ctx.clflush(a); // crash point 0 — injected crash fires *before* this
        p.store(2, Ordering::SeqCst);
        ctx.sfence();
        p.store(3, Ordering::SeqCst);
    });
    let run = run_mc(&program, Some((0, 0)));
    assert_eq!(progress.load(Ordering::SeqCst), 1, "crashed before clflush");
    // Only the one point before the crash was seen.
    assert_eq!(run.points, vec![1]);

    let run = run_mc(&program, Some((0, 1)));
    assert_eq!(progress.load(Ordering::SeqCst), 2, "crashed before sfence");
    assert_eq!(run.points, vec![2]);
}

#[test]
fn store_persists_across_crash_when_flushed() {
    let observed = Arc::new(AtomicUsize::new(0));
    let o = observed.clone();
    let program = Program::new("p")
        .pre_crash(|ctx: &mut Ctx| {
            let a = ctx.root();
            ctx.store_u64(a, 77, Atomicity::Plain, "x");
            ctx.clflush(a);
            ctx.sfence();
        })
        .post_crash(move |ctx: &mut Ctx| {
            let a = ctx.root();
            o.store(ctx.load_u64(a, Atomicity::Plain) as usize, Ordering::SeqCst);
        });
    run_mc(&program, None);
    assert_eq!(observed.load(Ordering::SeqCst), 77);
}

#[test]
fn unflushed_store_lost_under_floor_only() {
    let observed = Arc::new(AtomicUsize::new(999));
    let o = observed.clone();
    let program = Program::new("p")
        .pre_crash(|ctx: &mut Ctx| {
            let a = ctx.root();
            ctx.store_u64(a, 77, Atomicity::Plain, "x");
            // no flush
        })
        .post_crash(move |ctx: &mut Ctx| {
            let a = ctx.root();
            o.store(ctx.load_u64(a, Atomicity::Plain) as usize, Ordering::SeqCst);
        });
    Engine::run_single(
        &program,
        SchedPolicy::Deterministic,
        PersistencePolicy::FloorOnly,
        0,
        None,
        Box::new(jaaru::NullSink),
    );
    assert_eq!(observed.load(Ordering::SeqCst), 0, "store never persisted");
}

#[test]
fn spawned_threads_interleave_and_join() {
    let total = Arc::new(AtomicUsize::new(0));
    let t = total.clone();
    let program = Program::new("mt").pre_crash(move |ctx: &mut Ctx| {
        let a = ctx.alloc(8, 8);
        let b = ctx.alloc(8, 8);
        let t1 = t.clone();
        let h = ctx.spawn(move |ctx2: &mut Ctx| {
            ctx2.store_u64(b, 5, Atomicity::Plain, "b");
            t1.fetch_add(
                ctx2.load_u64(b, Atomicity::Plain) as usize,
                Ordering::SeqCst,
            );
        });
        ctx.store_u64(a, 3, Atomicity::Plain, "a");
        ctx.join(h);
        t.fetch_add(ctx.load_u64(a, Atomicity::Plain) as usize, Ordering::SeqCst);
    });
    run_mc(&program, None);
    assert_eq!(total.load(Ordering::SeqCst), 8);
}

#[test]
fn benchmark_panic_recorded_as_symptom() {
    let program = Program::new("p")
        .pre_crash(|ctx: &mut Ctx| {
            let a = ctx.alloc(8, 8);
            ctx.store_u64(a, 1, Atomicity::Plain, "x");
        })
        .post_crash(|_ctx: &mut Ctx| {
            panic!("segfault analogue: wild pointer");
        });
    let run = run_mc(&program, None);
    assert_eq!(run.panics.len(), 1);
    assert!(run.panics[0].contains("wild pointer"));
}

#[test]
fn crash_unwinds_all_threads() {
    // Thread 2 loops forever; the injected crash must still terminate the
    // execution because every scheduling point checks the crash flag.
    let program = Program::new("mt").pre_crash(move |ctx: &mut Ctx| {
        let flag = ctx.alloc(8, 8);
        let _h = ctx.spawn(move |ctx2: &mut Ctx| {
            while ctx2.load_u64(flag, Atomicity::Plain) == 0 {
                // spin at scheduling points
            }
        });
        let a = ctx.alloc(8, 8);
        ctx.store_u64(a, 1, Atomicity::Plain, "x");
        ctx.clflush(a); // crash point 0
        ctx.store_u64(flag, 1, Atomicity::Plain, "flag");
    });
    let run = run_mc(&program, Some((0, 0)));
    assert_eq!(run.points, vec![1]);
}

#[test]
fn random_mode_is_deterministic_per_seed() {
    let build = || {
        Program::new("p")
            .pre_crash(|ctx: &mut Ctx| {
                let a = ctx.alloc(64, 64);
                for i in 0..4 {
                    ctx.store_u64(a + i * 8, i + 1, Atomicity::Plain, "slot");
                    ctx.clwb(a + i * 8);
                }
                ctx.sfence();
            })
            .post_crash(|ctx: &mut Ctx| {
                let a = ctx.alloc(64, 64);
                for i in 0..4 {
                    let _ = ctx.load_u64(a + i * 8, Atomicity::Plain);
                }
            })
    };
    let run = |seed| {
        let r = Engine::run_single(
            &build(),
            SchedPolicy::RandomChoice,
            PersistencePolicy::Random,
            seed,
            None,
            Box::new(jaaru::NullSink),
        );
        r.points
    };
    assert_eq!(run(7), run(7));
    assert_eq!(run(8), run(8));
}

#[test]
fn cas_lock_protocol_works_across_threads() {
    let winners = Arc::new(AtomicUsize::new(0));
    let w = winners.clone();
    let program = Program::new("cas").pre_crash(move |ctx: &mut Ctx| {
        let lock = ctx.alloc(8, 8);
        let w1 = w.clone();
        let w2 = w.clone();
        let h1 = ctx.spawn(move |c: &mut Ctx| {
            let (_, ok) = c.cas_u64(lock, 0, 1, "lock");
            if ok {
                w1.fetch_add(1, Ordering::SeqCst);
            }
        });
        let h2 = ctx.spawn(move |c: &mut Ctx| {
            let (_, ok) = c.cas_u64(lock, 0, 2, "lock");
            if ok {
                w2.fetch_add(1, Ordering::SeqCst);
            }
        });
        ctx.join(h1);
        ctx.join(h2);
    });
    run_mc(&program, None);
    assert_eq!(winners.load(Ordering::SeqCst), 1, "exactly one CAS wins");
}

#[test]
fn multi_phase_program_stacks_executions() {
    let seen = Arc::new(AtomicUsize::new(0));
    let s = seen.clone();
    let program = Program::new("p")
        .pre_crash(|ctx: &mut Ctx| {
            let a = ctx.root();
            ctx.store_u64(a, 1, Atomicity::Plain, "x");
            ctx.clflush(a);
            ctx.sfence();
        })
        .phase(|ctx: &mut Ctx| {
            let a = ctx.root();
            let v = ctx.load_u64(a, Atomicity::Plain);
            ctx.store_u64(a, v + 1, Atomicity::Plain, "x");
            ctx.clflush(a);
            ctx.sfence();
        })
        .phase(move |ctx: &mut Ctx| {
            let a = ctx.root();
            s.store(ctx.load_u64(a, Atomicity::Plain) as usize, Ordering::SeqCst);
        });
    run_mc(&program, None);
    assert_eq!(
        seen.load(Ordering::SeqCst),
        2,
        "value incremented across two crashes"
    );
}

#[test]
fn stats_count_operations() {
    let program = Program::new("stats")
        .pre_crash(|ctx: &mut Ctx| {
            let a = ctx.root();
            ctx.store_u64(a, 1, Atomicity::Plain, "x"); // 1 chunk
            ctx.store_u64(a + 8, 2, Atomicity::Plain, "y"); // 1 chunk
            let _ = ctx.load_u64(a, Atomicity::Plain);
            ctx.clflush(a);
            ctx.clwb(a + 8);
            ctx.sfence();
            ctx.mfence();
            let _ = ctx.cas_u64(a + 16, 0, 5, "lock");
        })
        .post_crash(|ctx: &mut Ctx| {
            let a = ctx.root();
            let _ = ctx.load_u64(a, Atomicity::Plain);
        });
    let run = Engine::run_single(
        &program,
        SchedPolicy::Deterministic,
        PersistencePolicy::FullCache,
        0,
        None,
        Box::new(jaaru::NullSink),
    );
    // 2 plain stores + 1 CAS-success store = 3 executed/committed.
    assert_eq!(run.stats.stores_executed, 3);
    assert_eq!(run.stats.stores_committed, 3);
    // 1 pre-crash load + 1 CAS internal load + 1 post-crash load.
    assert_eq!(run.stats.loads, 3);
    assert_eq!(run.stats.flushes, 2);
    assert_eq!(run.stats.fences, 2);
    assert_eq!(run.stats.cas_ops, 1);
    // One crash per phase boundary (2 phases).
    assert_eq!(run.stats.crashes, 2);
}

#[test]
fn random_profile_run_counts_toward_totals() {
    // Regression test: Random mode's profiling run is a full simulated run,
    // so its reports, panics, and execution count must land in the aggregate.
    // With zero requested executions the profile run is the *only* run —
    // everything in the report has to come from it.
    struct MarkerSink;
    impl jaaru::EventSink for MarkerSink {
        fn drain_reports(&mut self) -> Vec<jaaru::RaceReport> {
            vec![jaaru::RaceReport::new(
                jaaru::ReportKind::PersistencyRace,
                "marker",
                pmem::Addr(0x10),
                0,
                1,
                vclock::ThreadId::MAIN,
                "from profile run",
            )]
        }
    }
    let program = Program::new("profile-only")
        .pre_crash(|ctx: &mut Ctx| {
            let a = ctx.root();
            ctx.store_u64(a, 1, Atomicity::Plain, "x");
            ctx.clflush(a);
            ctx.sfence();
        })
        .post_crash(|_ctx: &mut Ctx| panic!("post-crash symptom"));
    let report = Engine::run_observed(
        &program,
        jaaru::ExecMode::random(0, 7),
        &|| Box::new(MarkerSink),
        &EngineConfig::default(),
        Telemetry::off(),
    );
    assert_eq!(report.executions(), 1, "the profile run counts");
    assert_eq!(report.race_labels(), vec!["marker"]);
    assert_eq!(report.post_crash_panics().len(), 1);
    assert!(report.post_crash_panics()[0].contains("post-crash symptom"));
}

#[test]
fn fetch_add_is_atomic_across_threads() {
    let total = Arc::new(AtomicUsize::new(0));
    let t = total.clone();
    let program = Program::new("faa").pre_crash(move |ctx: &mut Ctx| {
        let counter = ctx.root();
        let mut handles = Vec::new();
        for _ in 0..3 {
            handles.push(ctx.spawn(move |c: &mut Ctx| {
                for _ in 0..4 {
                    c.fetch_add_u64(counter, 1, "counter");
                }
            }));
        }
        for h in handles {
            ctx.join(h);
        }
        t.store(
            ctx.load_u64(counter, Atomicity::Plain) as usize,
            Ordering::SeqCst,
        );
    });
    // Random schedules: increments must never be lost.
    for seed in 0..8 {
        Engine::run_single(
            &program,
            SchedPolicy::RandomChoice,
            PersistencePolicy::FullCache,
            seed,
            None,
            Box::new(jaaru::NullSink),
        );
        assert_eq!(total.load(Ordering::SeqCst), 12, "seed {seed}");
    }
}

/// The first `steps` ops of a fixed labeled stream (stores, flushes, loads
/// and fences over eight lines, with labels first seen at different
/// steps), plus a post-crash phase that reads every line back when
/// `recover` is set.
fn coverage_program(steps: usize, recover: bool) -> Program {
    const LABELS: [&str; 6] = ["a", "b", "c", "d", "e", "f"];
    let program = Program::new("cov").pre_crash(move |ctx: &mut Ctx| {
        let base = ctx.root();
        for i in 0..steps {
            let slot = base + (i as u64 % 8) * 64;
            let label = LABELS[(i / 5) % LABELS.len()];
            match i % 4 {
                0 | 1 => ctx.store_u64(slot, i as u64, Atomicity::Plain, label),
                2 => ctx.clflush_labeled(slot, label),
                _ => drop(ctx.load_bytes_labeled(slot, 8, Atomicity::Plain, label)),
            }
            if i % 7 == 0 {
                ctx.sfence_labeled(label);
            }
        }
    });
    if !recover {
        return program;
    }
    program.post_crash(|ctx: &mut Ctx| {
        for line in 0..8 {
            ctx.load_bytes_labeled(ctx.root() + line * 64, 8, Atomicity::Plain, "r");
        }
    })
}

#[test]
fn positional_coverage_minus_matches_a_content_keyed_one() {
    // An earlier table and a later one of the same op stream: the earlier
    // one's sites are a prefix of the later one's, as for a crash-point
    // snapshot and its representative's total.
    let earlier = run_mc(&coverage_program(12, false), None).cov;
    let later = run_mc(&coverage_program(40, true), None).cov;
    assert!(later.len() > earlier.len(), "later sees new sites");
    // The content-keyed reference: every later site minus the earlier site
    // with the same (kind, label), found by text.
    let mut want = jaaru::SiteTable::default();
    let base = earlier.sorted();
    for (kind, label, stats) in later.sorted() {
        let prior = base
            .iter()
            .find(|(k, l, _)| *k == kind && *l == label)
            .map_or_else(Default::default, |row| row.2);
        *want.record(kind, label) = stats.minus(&prior);
    }
    let base_heat = earlier.heat_sorted();
    for (line, n) in later.heat_sorted() {
        let prior = base_heat.iter().find(|h| h.0 == line).map_or(0, |h| h.1);
        for _ in prior..n {
            want.touch_line(line);
        }
    }
    let got = later.minus(&earlier);
    assert_eq!(got.canonical(), want.canonical());
    // And attribution still reconstructs the later table.
    let mut member = earlier.clone();
    member.absorb(&got);
    assert_eq!(member.canonical(), later.canonical());
}
