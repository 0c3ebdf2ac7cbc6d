//! eADR-mode tests (§7.5): races on eADR platforms are a strict subset of
//! non-eADR races, and annotation-based suppression works.

use jaaru::{Atomicity, Ctx, EngineConfig, ExecMode, Program};
use yashme::YashmeConfig;

/// x stored, then a later same-thread store y is read first post-crash:
/// safe on eADR (x must have drained before y committed), racy otherwise.
fn later_event_program() -> Program {
    Program::new("eadr-covered")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(32); // different cache line
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.store_u64(y, 2, Atomicity::Plain, "y");
            ctx.clflush(y);
            ctx.sfence();
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let y = ctx.root_slot(32);
            let _ = ctx.load_u64(y, Atomicity::Plain);
            let _ = ctx.load_u64(x, Atomicity::Plain);
        })
}

/// Only x is read post-crash: racy on both platforms (the crash can hit
/// while x's chunks are mid-store-buffer even on eADR).
fn last_store_program() -> Program {
    Program::new("eadr-racy")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.clflush(x);
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let _ = ctx.load_u64(x, Atomicity::Plain);
        })
}

#[test]
fn eadr_mode_suppresses_races_covered_by_later_events() {
    let program = later_event_program();
    let default = yashme::model_check(&program);
    assert!(
        default.race_labels().contains(&"x"),
        "non-eADR: x races\n{default}"
    );
    let eadr = yashme::check(
        &program,
        ExecMode::model_check(),
        YashmeConfig::eadr(),
        &EngineConfig::default(),
    );
    assert!(
        !eadr.race_labels().contains(&"x"),
        "eADR: x covered by the later observed store\n{eadr}"
    );
}

#[test]
fn eadr_mode_still_detects_trailing_store_races() {
    let program = last_store_program();
    let eadr = yashme::check(
        &program,
        ExecMode::model_check(),
        YashmeConfig::eadr(),
        &EngineConfig::default(),
    );
    assert_eq!(eadr.race_labels(), vec!["x"], "{eadr}");
}

#[test]
fn eadr_races_are_a_subset_across_the_benchmark_suite() {
    // The paper's containment claim, checked on real benchmarks: every race
    // reported in eADR mode is also reported in the default mode.
    for spec in recipe::all_benchmarks() {
        let default: Vec<&str> = yashme::model_check(&(spec.program)()).race_labels();
        let eadr: Vec<&str> = yashme::check(
            &(spec.program)(),
            ExecMode::model_check(),
            YashmeConfig::eadr(),
            &EngineConfig::default(),
        )
        .race_labels();
        for label in &eadr {
            assert!(
                default.contains(label),
                "{}: eADR-only race {label} would violate containment",
                spec.name
            );
        }
    }
}

#[test]
fn suppression_annotations_silence_chosen_labels() {
    let program = last_store_program();
    let report = yashme::check(
        &program,
        ExecMode::model_check(),
        YashmeConfig::new().with_suppressed(&["x"]),
        &EngineConfig::default(),
    );
    assert!(report.races().is_empty(), "{report}");
    // Other labels are unaffected.
    let report = yashme::check(
        &program,
        ExecMode::model_check(),
        YashmeConfig::new().with_suppressed(&["unrelated"]),
        &EngineConfig::default(),
    );
    assert_eq!(report.race_labels(), vec!["x"]);
}
