//! End-to-end reproductions of the paper's figures and §4.2 example,
//! exercising detector + engine together.

mod common;

use common::*;
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

#[test]
fn figure1_crash_in_window_detected_by_both_modes() {
    // Crash injected before the clflush: the classic window. Both baseline
    // and prefix detect it (the flush never committed).
    let p = figure1();
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
    let p = figure1();
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
    assert!(single_no_injected_crash(&figure6b(), YashmeConfig::default()).is_empty());
}

#[test]
fn figure4a_clflush_before_crash_is_no_race_when_prefix_includes_it() {
    // Figure 4(a) with the post-crash execution also reading a *later*
    // flushed guard value whose store happens after the clflush, pulling
    // the flush into every consistent prefix.
    let labels = single_no_injected_crash(&figure4a(), YashmeConfig::default());
    // Reading guard forces guard's store (which happens after clflush(x))
    // into the prefix, so x is not racy; guard itself is racy (its own
    // flush is outside the prefix).
    assert!(!labels.contains(&"x"), "{labels:?}");
    assert!(labels.contains(&"guard"));
}

#[test]
fn figure4b_clwb_plus_fence_persists() {
    let labels = single_no_injected_crash(&figure4b(), YashmeConfig::default());
    assert!(!labels.contains(&"x"), "{labels:?}");
}

#[test]
fn clwb_without_fence_does_not_persist() {
    let labels = single_no_injected_crash(&clwb_without_fence(), YashmeConfig::default());
    assert_eq!(labels, vec!["x"]);
}

#[test]
fn figure5a_coherence_from_release_store_on_same_line() {
    // x=1 (plain) then y_rel=1 on the same cache line; post-crash reads y
    // then x. Coherence: reading y proves the line persisted after x.
    assert!(single_no_injected_crash(&figure5a(true), YashmeConfig::default()).is_empty());
}

#[test]
fn figure5a_inverted_read_order_races() {
    // Reading x *before* y gives no coherence cover (condition (2) requires
    // reading the release store first).
    let labels = single_no_injected_crash(&figure5a(false), YashmeConfig::default());
    assert_eq!(labels, vec!["x"]);
}

#[test]
fn release_store_on_different_line_gives_no_coherence() {
    let labels = single_no_injected_crash(&release_store_on_other_line(), YashmeConfig::default());
    assert_eq!(labels, vec!["x"]);
}

#[test]
fn section42_multithreaded_race_only_prefix_can_find() {
    // §4.2: thread 1 stores z (plain) and flushes it; thread 2 then sets an
    // atomic flag f. No crash point in this trace exposes the race on z,
    // but the prefix analysis rearranges: a consistent pre-crash execution
    // exists where t2 set f before t1's flush.
    // Model-check (all crash points + uncut): prefix finds z.
    let report = yashme::model_check(&section42());
    assert!(report.race_labels().contains(&"z"), "{report}");
    // Baseline on the *uncut* execution misses it.
    let labels = single_no_injected_crash(&section42(), YashmeConfig::baseline());
    assert!(!labels.contains(&"z"), "{labels:?}");
    // Prefix on the uncut execution finds it without any injected crash.
    let labels = single_no_injected_crash(&section42(), YashmeConfig::default());
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
    let labels = single_no_injected_crash(&invented_byte_store(), YashmeConfig::default());
    assert_eq!(labels, vec!["pslab.valid"]);
}

#[test]
fn model_check_mode_enumerates_all_crash_points() {
    let program = figure1();
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
        &figure1(),
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
    let report = yashme::model_check(&release_store_fix());
    assert!(report.races().is_empty(), "{report}");
}

#[test]
fn checksum_validated_read_reported_benign() {
    let report = yashme::model_check(&checksum_validated_read());
    assert!(report.race_labels().is_empty(), "no true races");
    assert!(report
        .races()
        .iter()
        .any(|r| r.kind() == yashme::ReportKind::BenignChecksum));
}
