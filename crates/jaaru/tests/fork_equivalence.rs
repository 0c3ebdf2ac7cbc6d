//! Differential tests for checkpoint/fork crash-point exploration: the
//! `RunReport` — races, stats, metrics, `--json` rendering, and span
//! traces — must be byte-identical between fork mode and full
//! re-execution, at every worker count, on the real benchmark suite.
//! Randomized programs go through the whole strategy matrix in
//! `strategy_matrix.rs`.

mod common;

use bench::workload::crashprune_workload;
use bench::{evaluation_suite, SuiteMode, HARNESS_SEED};
use common::{check, fingerprint, random_program, BALANCED, WORKER_COUNTS};
use jaaru::obs::Telemetry;
use jaaru::{Engine, EngineConfig, ExecMode};

#[test]
fn fork_matches_full_on_the_evaluation_suite() {
    for entry in evaluation_suite() {
        let mode = match entry.mode {
            SuiteMode::ModelCheck => ExecMode::model_check(),
            // Trimmed execution budget: equivalence needs identical runs,
            // not the paper's full detection budget.
            SuiteMode::Random(_) => ExecMode::random(5, HARNESS_SEED),
        };
        let program = (entry.program)();
        let baseline = check(&program, mode, &EngineConfig::sequential().with_fork(false));
        let want = fingerprint(entry.name, &baseline);
        for workers in WORKER_COUNTS {
            let fork = check(&program, mode, &EngineConfig::with_workers(workers));
            assert_eq!(
                fingerprint(entry.name, &fork),
                want,
                "{}: fork/workers={workers} diverged from full/sequential",
                entry.name
            );
            if matches!(entry.mode, SuiteMode::ModelCheck) {
                assert!(
                    fork.fork_stats().snapshots > 0,
                    "{}: fork mode should actually engage",
                    entry.name
                );
                assert_eq!(
                    fork.fork_stats().resumed_runs,
                    fork.executions() as u64 - 1,
                    "{}: every non-profile run should resume from a snapshot",
                    entry.name
                );
            }
            let full = check(
                &program,
                mode,
                &EngineConfig::with_workers(workers).with_fork(false),
            );
            assert_eq!(
                fingerprint(entry.name, &full),
                want,
                "{}: full/workers={workers} diverged from full/sequential",
                entry.name
            );
        }
    }
}

#[test]
fn fork_executes_strictly_fewer_events_on_a_crash_dense_log() {
    // An append log with two crash points per record and no scrub rounds:
    // full re-execution replays an O(records) prefix at each crash point,
    // fork mode executes the prefix once and replays only the suffixes.
    let program = crashprune_workload(32, 0);
    let mode = ExecMode::model_check();
    let fork = check(
        &program,
        mode,
        &EngineConfig::sequential().with_prune(false),
    );
    let full = check(&program, mode, &EngineConfig::sequential().with_fork(false));
    assert_eq!(
        fingerprint("crashlog", &fork),
        fingerprint("crashlog", &full)
    );
    assert!(fork.fork_stats().snapshots > 0, "fork mode should engage");
    // Logical stats are identical (checked above); what fork mode saves is
    // the prefix it never re-executes.
    let physical = fork.stats().events() - fork.fork_stats().prefix_events_skipped;
    assert!(
        physical < full.stats().events(),
        "fork {physical} events vs full {}",
        full.stats().events()
    );
}

#[test]
#[ignore = "wall-clock comparison; run explicitly with -- --ignored on an idle host"]
fn fork_is_faster_in_wall_clock() {
    let program = crashprune_workload(192, 0);
    let mode = ExecMode::model_check();
    let timed = |engine: &EngineConfig| {
        let start = std::time::Instant::now();
        check(&program, mode, engine);
        start.elapsed()
    };
    let fork_time = timed(&EngineConfig::sequential());
    let full_time = timed(&EngineConfig::sequential().with_fork(false));
    assert!(
        fork_time < full_time,
        "fork {fork_time:?} should beat full {full_time:?}"
    );
}

#[test]
fn unforkable_sink_falls_back_to_full_replay() {
    // A sink that keeps the default `fork_sink` (None): the engine must
    // quietly fall back to one full re-execution per crash point and still
    // produce the exact no-fork report.
    struct PlainSink;
    impl jaaru::EventSink for PlainSink {}

    let program = random_program(&BALANCED, 3);
    let run = |config: &EngineConfig| {
        Engine::run_observed(
            &program,
            ExecMode::model_check(),
            &|| Box::new(PlainSink),
            config,
            Telemetry::off(),
        )
    };
    let fork = run(&EngineConfig::sequential());
    let full = run(&EngineConfig::sequential().with_fork(false));
    assert_eq!(
        fork.metrics().to_json().render(),
        full.metrics().to_json().render()
    );
    assert_eq!(format!("{:?}", fork.stats()), format!("{:?}", full.stats()));
    // The profile run keeps recording points after the failed fork, so the
    // crash-space cartography covers every point as well.
    assert_eq!(fork.coverage(), full.coverage());
    assert_eq!(fork.fork_stats().snapshots, 0, "no snapshot could be kept");
    assert_eq!(fork.fork_stats().resumed_runs, 0);
}
