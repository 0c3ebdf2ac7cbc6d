//! Differential tests for crash-state equivalence pruning: the
//! `RunReport` — races, stats, metrics, `--json` rendering, and span
//! traces — must be byte-identical between pruned and exhaustive
//! suffix resumption, at every worker count, on the real benchmark suite
//! and the crash-dense log. Mirrors `fork_equivalence.rs`, which pins the
//! same contract for fork mode against full re-execution; randomized
//! programs go through the whole strategy matrix in `strategy_matrix.rs`.

mod common;

use bench::workload::crashprune_workload;
use bench::{evaluation_suite, SuiteMode, HARNESS_SEED};
use common::{apply, check, fingerprint, random_program, Op, FLUSH_HEAVY, WORKER_COUNTS};
use jaaru::{Atomicity, Ctx, EngineConfig, ExecMode, Program, PruneStats, RunReport};

/// Simulated events this run physically executed: the logical event total
/// minus prefix events inherited from snapshots and minus suffix events
/// attributed to skipped class members rather than executed.
fn physical_events(report: &RunReport) -> u64 {
    report.stats().events()
        - report.fork_stats().prefix_events_skipped
        - report.prune_stats().events_attributed
}

#[test]
fn pruned_matches_exhaustive_on_the_evaluation_suite() {
    for entry in evaluation_suite() {
        let mode = match entry.mode {
            SuiteMode::ModelCheck => ExecMode::model_check(),
            // Trimmed execution budget: equivalence needs identical runs,
            // not the paper's full detection budget.
            SuiteMode::Random(_) => ExecMode::random(5, HARNESS_SEED),
        };
        let program = (entry.program)();
        let exhaustive = check(
            &program,
            mode,
            &EngineConfig::sequential().with_prune(false),
        );
        let want = fingerprint(entry.name, &exhaustive);
        for workers in WORKER_COUNTS {
            let pruned = check(&program, mode, &EngineConfig::with_workers(workers));
            assert_eq!(
                fingerprint(entry.name, &pruned),
                want,
                "{}: pruned/workers={workers} diverged from exhaustive/sequential",
                entry.name
            );
            if matches!(entry.mode, SuiteMode::ModelCheck) {
                // The attribution contract: skipped members still count as
                // resumed runs, so the fork accounting is mode-invariant.
                assert_eq!(
                    pruned.fork_stats().resumed_runs,
                    pruned.executions() as u64 - 1,
                    "{}: every non-profile run resumed or attributed",
                    entry.name
                );
            }
        }
    }
}

#[test]
fn pruned_matches_exhaustive_on_the_crashprune_workload() {
    // The workload built to exercise pruning: redundant scrub passes give
    // guaranteed multi-member classes.
    let program = crashprune_workload(24, 4);
    let exhaustive = check(
        &program,
        ExecMode::model_check(),
        &EngineConfig::sequential().with_prune(false),
    );
    let full = check(
        &program,
        ExecMode::model_check(),
        &EngineConfig::sequential().with_fork(false),
    );
    let want = fingerprint("crashprune", &exhaustive);
    let exhaustive_resumed = exhaustive.fork_stats().resumed_runs;
    assert_eq!(
        fingerprint("crashprune", &full),
        want,
        "fork-off full replay is the ground truth both must match"
    );
    for workers in WORKER_COUNTS {
        let pruned = check(
            &program,
            ExecMode::model_check(),
            &EngineConfig::with_workers(workers),
        );
        assert_eq!(
            fingerprint("crashprune", &pruned),
            want,
            "workers {workers}"
        );
        // The fingerprint holds no coverage: the members' attributed site
        // counters, heat map and cartography are pinned here.
        assert_eq!(
            pruned.coverage(),
            exhaustive.coverage(),
            "workers {workers}: coverage"
        );
        let p = pruned.prune_stats();
        assert!(p.suffixes_skipped > 0, "pruning should actually engage");
        assert!(
            (p.representatives as usize) < pruned.crash_points(),
            "fewer representatives ({}) than crash points ({})",
            p.representatives,
            pruned.crash_points()
        );
        // Four scrub rounds give 10 crash points but 2 classes per record,
        // so pruning must resume at least 4x fewer suffixes and execute
        // strictly fewer events than exhaustive resumption.
        let resumed = pruned.fork_stats().resumed_runs - p.suffixes_skipped;
        assert!(
            resumed * 4 <= exhaustive_resumed,
            "pruned {resumed} resumed vs exhaustive {exhaustive_resumed}"
        );
        assert!(
            physical_events(&pruned) < physical_events(&exhaustive),
            "pruned {} events vs exhaustive {}",
            physical_events(&pruned),
            physical_events(&exhaustive)
        );
    }
}

#[test]
fn exhaustive_resumption_verifies_every_attribution() {
    // Without pruning every class member's suffix is executed, and each is
    // asserted equal to the outcome pruning would attribute to it (a
    // divergence panics) — so merely completing these runs proves the
    // attribution rule, provided the programs have multi-member classes.
    let heavy = crashprune_workload(12, 3);
    let exhaustive = EngineConfig::sequential().with_prune(false);
    let report = check(&heavy, ExecMode::model_check(), &exhaustive);
    let prunable = |report: &RunReport| -> u64 {
        let phases = &report.coverage().cartography.phases;
        phases.iter().map(|p| p.prunable).sum()
    };
    assert!(prunable(&report) > 0, "no multi-member class to check");
    assert_eq!(*report.prune_stats(), PruneStats::default());
    assert_eq!(
        fingerprint("crashprune", &report),
        fingerprint(
            "crashprune",
            &check(&heavy, ExecMode::model_check(), &EngineConfig::sequential())
        ),
        "pruning must not change the report"
    );
    let mut checked = 0;
    for seed in [0u64, 3] {
        let program = random_program(&FLUSH_HEAVY, seed);
        checked += prunable(&check(&program, ExecMode::model_check(), &exhaustive));
    }
    assert!(
        checked > 0,
        "no multi-member class among the random programs"
    );
}

/// Builds a single-phase program from `ops` with a post-crash scan.
fn straightline(ops: Vec<Op>) -> Program {
    Program::new("straightline")
        .pre_crash(move |ctx: &mut Ctx| apply(ctx, &ops))
        .post_crash(|ctx: &mut Ctx| {
            let base = ctx.root();
            for slot in 0..2u64 {
                let _ = ctx.load_u64(base + slot * 8, Atomicity::Plain);
            }
        })
}

fn classes_and_points(program: &Program) -> (u64, usize) {
    let report = check(
        program,
        ExecMode::model_check(),
        &EngineConfig::sequential(),
    );
    (report.prune_stats().classes, report.crash_points())
}

#[test]
fn state_changing_events_split_classes() {
    let store = |slot| Op::Store {
        slot,
        val: 7,
        release: false,
    };
    // A committed store between two crash points always splits them:
    // store; clflush (pt); sfence (pt); store; clflush (pt); sfence (pt)
    // — every point sees a distinct crash state.
    let (classes, points) = classes_and_points(&straightline(vec![
        store(0),
        Op::Clflush { slot: 0 },
        Op::Sfence,
        store(1),
        Op::Clflush { slot: 1 },
        Op::Sfence,
    ]));
    assert_eq!(points, 4);
    assert_eq!(
        classes, 4,
        "a store between points must split their classes"
    );

    // An effective (floor-raising) flush between two points splits them;
    // the redundant re-flush that follows does not.
    let (classes, points) = classes_and_points(&straightline(vec![
        store(0),
        Op::Clflush { slot: 0 },
        Op::Clflush { slot: 0 },
        Op::Clflush { slot: 0 },
    ]));
    assert_eq!(points, 3);
    assert_eq!(
        classes, 2,
        "the first flush splits; redundant re-flushes collapse"
    );

    // An effective fence (draining a pending clwb) splits the points
    // before and after it; the clwb itself — invisible at a crash until
    // fenced — does not.
    let (classes, points) = classes_and_points(&straightline(vec![
        store(0),
        Op::Clwb { slot: 0 },
        Op::Sfence,
        Op::Clflush { slot: 0 },
    ]));
    assert_eq!(points, 3);
    assert_eq!(
        classes, 2,
        "clwb leaves the crash state unchanged until the fence commits it"
    );
}
