//! Every count of the wall-clock telemetry plane, pinned to its owner.
//!
//! The telemetry counts are *physical*: they count the work that actually
//! ran, while the report's counters count the logical exploration (a pruned
//! crash point, or a resumed suffix's inherited prefix, is represented but
//! never executed). Each count therefore equals an exact expression over
//! the report's own counters — the execution stats, `ForkStats`,
//! `PruneStats` and `GcStats` — under every exploration strategy and worker
//! count. This test checks those identities on all 20 `yashme --all`
//! programs, reading the counts back from the Prometheus exposition.

use std::sync::Arc;

use bench::{evaluation_suite, SuiteEntry, SuiteMode, HARNESS_SEED};
use jaaru::obs::telemetry::Telemetry;
use jaaru::{Engine, EngineConfig, ExecMode};
use yashme::YashmeDetector;

/// The programs of `yashme --all`, in its order.
fn programs() -> Vec<SuiteEntry> {
    let mut suite = evaluation_suite();
    suite.extend(extras::suite().into_iter().map(|x| SuiteEntry {
        name: x.name,
        program: x.program,
        mode: SuiteMode::ModelCheck,
    }));
    suite
}

/// The value of the exposition line that starts with `series ` exactly.
fn prom_value(prom: &str, series: &str) -> u64 {
    prom.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no integer series {series} in:\n{prom}"))
}

fn phase_count(prom: &str, phase: &str) -> u64 {
    prom_value(
        prom,
        &format!("yashme_phase_count_total{{phase=\"{phase}\"}}"),
    )
}

/// Runs every program under `config` and checks each telemetry count
/// against its owner's expression.
fn check_identities(tag: &str, config: &EngineConfig) {
    for entry in programs() {
        let program = (entry.program)();
        let mode = match entry.mode {
            SuiteMode::ModelCheck => ExecMode::model_check(),
            SuiteMode::Random(n) => ExecMode::random(n, HARNESS_SEED),
        };
        let tel = Arc::new(Telemetry::new());
        let report = Engine::run_observed(
            &program,
            mode,
            &|| Box::new(YashmeDetector::with_defaults()),
            config,
            &tel,
        );
        let prom = tel.to_prometheus();
        let (fork, prune, gc) = (report.fork_stats(), report.prune_stats(), report.gc_stats());
        let executions = report.executions() as u64;
        let points = match entry.mode {
            SuiteMode::ModelCheck => executions - 1,
            SuiteMode::Random(_) => 0,
        };
        let expected = [
            (
                "yashme_events_total",
                report.stats().events() - fork.prefix_events_skipped - prune.events_attributed,
            ),
            (
                "yashme_executions_total",
                executions - prune.suffixes_skipped,
            ),
            ("yashme_suffixes_resumed_total", fork.snapshots),
            ("yashme_suffixes_pruned_total", prune.suffixes_skipped),
            ("yashme_crash_points_done_total", points),
            ("yashme_crash_points", points),
        ];
        for (series, want) in expected {
            assert_eq!(
                prom_value(&prom, series),
                want,
                "{tag}: {} {series}",
                entry.name
            );
        }
        assert_eq!(
            phase_count(&prom, "snapshot-capture"),
            fork.snapshots,
            "{tag}: {} snapshot-capture count",
            entry.name
        );
        assert_eq!(
            phase_count(&prom, "gc-pass"),
            gc.passes,
            "{tag}: {} gc-pass count",
            entry.name
        );
    }
}

#[test]
fn counts_equal_their_owners_by_default() {
    check_identities("default", &EngineConfig::sequential());
}

#[test]
fn counts_equal_their_owners_without_fork() {
    check_identities("--no-fork", &EngineConfig::sequential().with_fork(false));
}

#[test]
fn counts_equal_their_owners_without_prune() {
    check_identities("--no-prune", &EngineConfig::sequential().with_prune(false));
}

#[test]
fn counts_equal_their_owners_without_gc() {
    check_identities("--no-gc", &EngineConfig::sequential().with_gc(false));
}

#[test]
fn counts_equal_their_owners_with_every_strategy_off() {
    let config = EngineConfig::sequential()
        .with_fork(false)
        .with_prune(false)
        .with_gc(false);
    check_identities("all off", &config);
}

#[test]
fn counts_equal_their_owners_with_a_gc_pass_per_commit() {
    check_identities("gc_every 1", &EngineConfig::sequential().with_gc_every(1));
}

#[test]
fn counts_equal_their_owners_at_workers_8() {
    check_identities("workers 8", &EngineConfig::with_workers(8));
}
