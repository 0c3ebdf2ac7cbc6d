//! End-to-end reproductions of the paper's figures and §4.2 example,
//! exercising detector + engine together.

use jaaru::{
    Atomicity, Ctx, Engine, EngineConfig, ExecMode, PersistencePolicy, Program, SchedPolicy,
};
use yashme::{YashmeConfig, YashmeDetector};

/// Runs a single execution with a crash injected at `point` of phase 0.
fn single_with_crash_at(
    program: &Program,
    point: usize,
    config: YashmeConfig,
) -> Vec<&'static str> {
    let run = Engine::run_single(
        program,
        SchedPolicy::Deterministic,
        PersistencePolicy::FullCache,
        0,
        Some((0, point)),
        Box::new(YashmeDetector::new(config)),
    );
    run.reports.iter().map(|r| r.label()).collect()
}

/// Runs a single execution that completes phase 0 (crash at phase end).
fn single_no_injected_crash(program: &Program, config: YashmeConfig) -> Vec<&'static str> {
    let run = Engine::run_single(
        program,
        SchedPolicy::Deterministic,
        PersistencePolicy::FullCache,
        0,
        None,
        Box::new(YashmeDetector::new(config)),
    );
    run.reports.iter().map(|r| r.label()).collect()
}

/// Figure 1: store, crash before the flush, post-crash read — a race.
fn figure1_program() -> Program {
    Program::new("figure1")
        .pre_crash(|ctx: &mut Ctx| {
            let val = ctx.root();
            ctx.store_u64(val, 0x1234_5678_1234_5678, Atomicity::Plain, "pmobj->val");
            ctx.clflush(val);
        })
        .post_crash(|ctx: &mut Ctx| {
            let val = ctx.root();
            let _ = ctx.load_u64(val, Atomicity::Plain);
        })
}

#[test]
fn figure1_crash_in_window_detected_by_both_modes() {
    // Crash injected before the clflush: the classic window. Both baseline
    // and prefix detect it (the flush never committed).
    let p = figure1_program();
    assert_eq!(
        single_with_crash_at(&p, 0, YashmeConfig::baseline()),
        vec!["pmobj->val"]
    );
    assert_eq!(
        single_with_crash_at(&p, 0, YashmeConfig::default()),
        vec!["pmobj->val"]
    );
}

#[test]
fn figure5b_crash_outside_window_needs_prefix_expansion() {
    // Figure 5(b)/6(a): the crash happens *after* the flush. The baseline
    // algorithm misses the race; prefix expansion still finds it because no
    // post-crash read forces the flush into the consistent prefix.
    let p = figure1_program();
    assert!(single_no_injected_crash(&p, YashmeConfig::baseline()).is_empty());
    assert_eq!(
        single_no_injected_crash(&p, YashmeConfig::default()),
        vec!["pmobj->val"]
    );
}

#[test]
fn figure6b_reading_past_the_flush_closes_the_prefix() {
    // Figure 6(b): after the clflush(x), the program writes an atomic y on
    // the same cache line and the post-crash execution reads y first. Now
    // every consistent prefix contains the flush → no race on x.
    let program = Program::new("figure6b")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(1); // same cache line as x
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.clflush(x);
            ctx.store_release_u64(y, 1, "y_rel");
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(1);
            let _ = ctx.load_acquire_u64(y);
            let _ = ctx.load_u64(x, Atomicity::Plain);
        });
    assert!(single_no_injected_crash(&program, YashmeConfig::default()).is_empty());
}

#[test]
fn figure4a_clflush_before_crash_is_no_race_when_prefix_includes_it() {
    // Figure 4(a) with the post-crash execution also reading a *later*
    // flushed guard value whose store happens after the clflush, pulling
    // the flush into every consistent prefix.
    let program = Program::new("figure4a")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let guard = ctx.root_slot(32); // different cache line
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.clflush(x);
            ctx.store_u64(guard, 1, Atomicity::Plain, "guard");
            ctx.clflush(guard);
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let guard = ctx.root_slot(32);
            let _ = ctx.load_u64(guard, Atomicity::Plain);
            let _ = ctx.load_u64(x, Atomicity::Plain);
        });
    let labels = single_no_injected_crash(&program, YashmeConfig::default());
    // Reading guard forces guard's store (which happens after clflush(x))
    // into the prefix, so x is not racy; guard itself is racy (its own
    // flush is outside the prefix).
    assert!(!labels.contains(&"x"), "{labels:?}");
    assert!(labels.contains(&"guard"));
}

#[test]
fn figure4b_clwb_plus_fence_persists() {
    let program = Program::new("figure4b")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let guard = ctx.root_slot(32);
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.clwb(x);
            ctx.sfence();
            ctx.store_u64(guard, 1, Atomicity::Plain, "guard");
            ctx.clflush(guard);
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let guard = ctx.root_slot(32);
            let _ = ctx.load_u64(guard, Atomicity::Plain);
            let _ = ctx.load_u64(x, Atomicity::Plain);
        });
    let labels = single_no_injected_crash(&program, YashmeConfig::default());
    assert!(!labels.contains(&"x"), "{labels:?}");
}

#[test]
fn clwb_without_fence_does_not_persist() {
    let program = Program::new("clwb-no-fence")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.clwb(x);
            // no fence before the crash
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let _ = ctx.load_u64(x, Atomicity::Plain);
        });
    let labels = single_no_injected_crash(&program, YashmeConfig::default());
    assert_eq!(labels, vec!["x"]);
}

#[test]
fn figure5a_coherence_from_release_store_on_same_line() {
    // x=1 (plain) then y_rel=1 on the same cache line; post-crash reads y
    // then x. Coherence: reading y proves the line persisted after x.
    let program = Program::new("figure5a")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(1);
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.store_release_u64(y, 1, "y_rel");
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(1);
            let _ = ctx.load_acquire_u64(y);
            let _ = ctx.load_u64(x, Atomicity::Plain);
        });
    assert!(single_no_injected_crash(&program, YashmeConfig::default()).is_empty());
}

#[test]
fn figure5a_inverted_read_order_races() {
    // Reading x *before* y gives no coherence cover (condition (2) requires
    // reading the release store first).
    let program = Program::new("figure5a-inverted")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(1);
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.store_release_u64(y, 1, "y_rel");
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(1);
            let _ = ctx.load_u64(x, Atomicity::Plain);
            let _ = ctx.load_acquire_u64(y);
        });
    let labels = single_no_injected_crash(&program, YashmeConfig::default());
    assert_eq!(labels, vec!["x"]);
}

#[test]
fn release_store_on_different_line_gives_no_coherence() {
    let program = Program::new("diff-line")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(32); // different cache line
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.store_release_u64(y, 1, "y_rel");
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(32);
            let _ = ctx.load_acquire_u64(y);
            let _ = ctx.load_u64(x, Atomicity::Plain);
        });
    let labels = single_no_injected_crash(&program, YashmeConfig::default());
    assert_eq!(labels, vec!["x"]);
}

#[test]
fn section42_multithreaded_race_only_prefix_can_find() {
    // §4.2: thread 1 stores z (plain) and flushes it; thread 2 then sets an
    // atomic flag f. No crash point in this trace exposes the race on z,
    // but the prefix analysis rearranges: a consistent pre-crash execution
    // exists where t2 set f before t1's flush.
    let build = || {
        Program::new("sec4.2")
            .pre_crash(|ctx: &mut Ctx| {
                let z = ctx.root();
                let f = ctx.root_slot(32); // different line
                                           // The two threads are concurrent: thread 2 never
                                           // synchronizes with thread 1, so f's clock vector does not
                                           // cover the flush of z.
                let h = ctx.spawn(move |t1: &mut Ctx| {
                    t1.store_u64(z, 9, Atomicity::Plain, "z");
                    t1.clflush(z);
                    t1.sfence();
                });
                let h2 = ctx.spawn(move |t2: &mut Ctx| {
                    t2.store_release_u64(f, 1, "f");
                    t2.clflush(f);
                    t2.sfence();
                });
                ctx.join(h);
                ctx.join(h2);
            })
            .post_crash(|ctx: &mut Ctx| {
                let z = ctx.root();
                let f = ctx.root_slot(32);
                if ctx.load_acquire_u64(f) == 1 {
                    let _ = ctx.load_u64(z, Atomicity::Plain);
                }
            })
    };
    // Model-check (all crash points + uncut): prefix finds z.
    let report = yashme::model_check(&build());
    assert!(report.race_labels().contains(&"z"), "{report}");
    // Baseline on the *uncut* execution misses it.
    let labels = single_no_injected_crash(&build(), YashmeConfig::baseline());
    assert!(!labels.contains(&"z"), "{labels:?}");
    // Prefix on the uncut execution finds it without any injected crash.
    let labels = single_no_injected_crash(&build(), YashmeConfig::default());
    assert!(labels.contains(&"z"), "{labels:?}");
}

#[test]
fn torn_value_observable_end_to_end() {
    // Figure 1's concrete symptom: under the gcc/ARM64 compiler model and a
    // random persistence cut, the post-crash execution reads 0x12345678.
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let mut torn_seen = false;
    for seed in 0..64u64 {
        let observed = Arc::new(AtomicU64::new(0));
        let o = observed.clone();
        let program = Program::new("fig1-torn")
            .with_compiler(compiler_model::CompilerConfig::gcc_o1_arm64())
            .pre_crash(|ctx: &mut Ctx| {
                let val = ctx.root();
                ctx.store_u64(val, 0x1234_5678_1234_5678, Atomicity::Plain, "pmobj->val");
                ctx.clflush(val);
            })
            .post_crash(move |ctx: &mut Ctx| {
                let val = ctx.root();
                o.store(ctx.load_u64(val, Atomicity::Plain), Ordering::SeqCst);
            });
        Engine::run_single(
            &program,
            SchedPolicy::RandomChoice,
            PersistencePolicy::Random,
            seed,
            Some((0, 0)),
            Box::new(YashmeDetector::with_defaults()),
        );
        let v = observed.load(Ordering::SeqCst);
        if v == 0x1234_5678 {
            torn_seen = true;
            break;
        }
    }
    assert!(torn_seen, "some seed should persist exactly the low half");
}

#[test]
fn invented_store_race_on_byte_field() {
    // §7.2: byte-size fields are not safe either, because the compiler can
    // invent stores. With store inventing enabled the invented stash is a
    // distinct store event carrying the same label.
    let program = Program::new("invent")
        .with_compiler(compiler_model::CompilerConfig::default().with_invented_stores())
        .pre_crash(|ctx: &mut Ctx| {
            let flag = ctx.root();
            ctx.store_u8(flag, 1, Atomicity::Plain, "pslab.valid");
        })
        .post_crash(|ctx: &mut Ctx| {
            let flag = ctx.root();
            let _ = ctx.load_u8(flag, Atomicity::Plain);
        });
    let labels = single_no_injected_crash(&program, YashmeConfig::default());
    assert_eq!(labels, vec!["pslab.valid"]);
}

#[test]
fn model_check_mode_enumerates_all_crash_points() {
    let program = figure1_program();
    let report = yashme::check(
        &program,
        ExecMode::model_check(),
        YashmeConfig::default(),
        &EngineConfig::default(),
    );
    // 1 profiling execution + 1 injected-crash execution (one crash point).
    assert_eq!(report.executions(), 2);
    assert_eq!(report.crash_points(), 1);
    assert_eq!(report.race_labels(), vec!["pmobj->val"]);
}

#[test]
fn random_mode_finds_the_race() {
    let report = yashme::check(
        &figure1_program(),
        ExecMode::random(10, 7),
        YashmeConfig::default(),
        &EngineConfig::default(),
    );
    assert_eq!(report.race_labels(), vec!["pmobj->val"]);
    // 10 requested executions plus the initial profiling run, which counts
    // toward the totals like any other execution.
    assert_eq!(report.executions(), 11);
}

#[test]
fn race_free_program_reports_nothing() {
    // The paper's prescribed fix: atomic release stores.
    let program = Program::new("fixed")
        .pre_crash(|ctx: &mut Ctx| {
            let val = ctx.root();
            ctx.store_release_u64(val, 42, "pmobj->val");
            ctx.clflush(val);
            ctx.sfence();
        })
        .post_crash(|ctx: &mut Ctx| {
            let val = ctx.root();
            let _ = ctx.load_acquire_u64(val);
        });
    let report = yashme::model_check(&program);
    assert!(report.races().is_empty(), "{report}");
}

#[test]
fn checksum_validated_read_reported_benign() {
    let program = Program::new("checksum")
        .pre_crash(|ctx: &mut Ctx| {
            let data = ctx.root();
            ctx.store_u64(data, 0xfeed, Atomicity::Plain, "pool.data");
        })
        .post_crash(|ctx: &mut Ctx| {
            let data = ctx.root();
            ctx.set_checksum_scope(true);
            let _ = ctx.load_u64(data, Atomicity::Plain);
            ctx.set_checksum_scope(false);
        });
    let report = yashme::model_check(&program);
    assert!(report.race_labels().is_empty(), "no true races");
    assert!(report
        .races()
        .iter()
        .any(|r| r.kind() == yashme::ReportKind::BenignChecksum));
}
