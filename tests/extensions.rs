//! Cross-crate integration for the extension surface: extras structures,
//! eADR mode, schedule exploration, and the facade prelude.

use yashme_repro::prelude::*;

#[test]
fn extras_detect_fix_recheck_workflow() {
    // The downstream-user story end to end: the racy draft is flagged ...
    let racy = yashme::model_check(&extras::pskiplist::program(extras::Variant::Racy));
    assert!(racy.race_labels().contains(&extras::pskiplist::LINK_LABEL));
    // ... and the release-store fix silences the detector.
    let fixed = yashme::model_check(&extras::pskiplist::program(extras::Variant::Fixed));
    assert!(fixed.races().is_empty(), "{fixed}");
}

#[test]
fn eadr_subset_holds_for_extras_too() {
    for variant in [extras::Variant::Racy, extras::Variant::Fixed] {
        let program = extras::pqueue::program(variant);
        let default: Vec<_> = yashme::model_check(&program).race_labels();
        let eadr: Vec<_> = yashme::check(
            &extras::pqueue::program(variant),
            ExecMode::model_check(),
            YashmeConfig::eadr(),
            &EngineConfig::default(),
        )
        .race_labels();
        for label in &eadr {
            assert!(default.contains(label), "eADR-only race {label}");
        }
    }
}

#[test]
fn schedule_exploration_composes_with_the_detector() {
    // Explore interleavings of a two-thread writer program with the full
    // detector attached: the racy store must be found in some schedule.
    let program = Program::new("explore+detect")
        .pre_crash(|ctx: &mut Ctx| {
            let z = ctx.root();
            let f = ctx.root_slot(32);
            let h1 = ctx.spawn(move |t: &mut Ctx| {
                t.store_u64(z, 9, Atomicity::Plain, "z");
                t.clflush(z);
                t.sfence();
            });
            let h2 = ctx.spawn(move |t: &mut Ctx| {
                t.store_release_u64(f, 1, "f");
                t.clflush(f);
                t.sfence();
            });
            ctx.join(h1);
            ctx.join(h2);
        })
        .post_crash(|ctx: &mut Ctx| {
            let z = ctx.root();
            let f = ctx.root_slot(32);
            if ctx.load_acquire_u64(f) == 1 {
                let _ = ctx.load_u64(z, Atomicity::Plain);
            }
        });
    let report = yashme::check(
        &program,
        ExecMode::Explore {
            crash_target: None,
            max_runs: 40,
        },
        YashmeConfig::default(),
        &EngineConfig::default(),
    );
    let (reports, runs) = (report.races(), report.executions());
    assert!(runs > 1);
    assert!(
        reports.iter().any(|r| r.label() == "z"),
        "prefix detection across explored schedules"
    );
}

#[test]
fn prelude_covers_the_everyday_api() {
    // Compile-time check that the facade exposes the working vocabulary.
    let _: fn() -> YashmeConfig = YashmeConfig::default;
    let _ = Addr::BASE;
    let _ = ThreadId::MAIN;
    let _ = CACHE_LINE_SIZE;
    let _ = PersistencePolicy::FullCache;
    let _ = SchedPolicy::Deterministic;
    let _ = ReportKind::PersistencyRace;
}
