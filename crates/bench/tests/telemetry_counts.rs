//! Every count of the wall-clock telemetry plane, pinned to its owner.
//!
//! The telemetry counts are *physical*: they count the work that actually
//! ran, while the report's counters count the logical exploration (a pruned
//! crash point, or a resumed suffix's inherited prefix, is represented but
//! never executed). Each count therefore equals an exact expression over
//! the report's own counters — the execution stats, `ForkStats`,
//! `PruneStats` and `GcStats` — under every exploration strategy and worker
//! count. This test checks those identities on all 20 `yashme --all`
//! programs, in their own modes and under schedule exploration, reading
//! the counts back from the Prometheus exposition.
//!
//! It also pins the five op counts the coverage plane keeps a second time:
//! each of `ops.stores_executed`, `ops.stores_committed`, `ops.loads`,
//! `ops.flushes` and `ops.fences` equals the sum of the site table's
//! `executed` (or, for committed stores, `committed`) column over the
//! sites of its kind.

use std::sync::Arc;

use bench::{evaluation_suite, SuiteEntry, SuiteMode, HARNESS_SEED};
use jaaru::obs::telemetry::Telemetry;
use jaaru::obs::{SiteKind, SiteStats};
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

/// Each program's own `yashme --all` mode.
fn suite_mode(entry: &SuiteEntry) -> ExecMode {
    match entry.mode {
        SuiteMode::ModelCheck => ExecMode::model_check(),
        SuiteMode::Random(n) => ExecMode::random(n, HARNESS_SEED),
    }
}

/// Runs every program under `config`, in the mode `mode` picks for it,
/// and checks each telemetry count against its owner's expression.
fn check_identities(tag: &str, config: &EngineConfig, mode: fn(&SuiteEntry) -> ExecMode) {
    for entry in programs() {
        let program = (entry.program)();
        let mode = mode(&entry);
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
        let points = match mode {
            ExecMode::ModelCheck(_) => executions - 1,
            _ => 0,
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
        // The five op counts are also kept per site by the coverage plane:
        // each equals its kind's column sum over the site table.
        let sites = report.coverage().sites.sorted();
        let column = |kind: SiteKind, read: fn(&SiteStats) -> u64| -> u64 {
            sites
                .iter()
                .filter(|(k, _, _)| *k == kind)
                .map(|(_, _, s)| read(s))
                .sum()
        };
        let ops = report.stats();
        let executed = |s: &SiteStats| s.executed;
        let per_site = [
            (
                "ops.stores_executed",
                ops.stores_executed,
                column(SiteKind::Store, executed),
            ),
            (
                "ops.stores_committed",
                ops.stores_committed,
                column(SiteKind::Store, |s| s.committed),
            ),
            ("ops.loads", ops.loads, column(SiteKind::Load, executed)),
            (
                "ops.flushes",
                ops.flushes,
                column(SiteKind::Flush, executed),
            ),
            ("ops.fences", ops.fences, column(SiteKind::Fence, executed)),
        ];
        for (metric, op_count, site_sum) in per_site {
            assert_eq!(
                op_count, site_sum,
                "{tag}: {} {metric} vs its site-table column",
                entry.name
            );
        }
    }
}

#[test]
fn counts_equal_their_owners_by_default() {
    check_identities("default", &EngineConfig::sequential(), suite_mode);
}

#[test]
fn counts_equal_their_owners_without_fork() {
    check_identities(
        "--no-fork",
        &EngineConfig::sequential().with_fork(false),
        suite_mode,
    );
}

#[test]
fn counts_equal_their_owners_without_prune() {
    check_identities(
        "--no-prune",
        &EngineConfig::sequential().with_prune(false),
        suite_mode,
    );
}

#[test]
fn counts_equal_their_owners_without_gc() {
    check_identities(
        "--no-gc",
        &EngineConfig::sequential().with_gc(false),
        suite_mode,
    );
}

#[test]
fn counts_equal_their_owners_with_every_strategy_off() {
    let config = EngineConfig::sequential()
        .with_fork(false)
        .with_prune(false)
        .with_gc(false);
    check_identities("all off", &config, suite_mode);
}

#[test]
fn counts_equal_their_owners_with_a_gc_pass_per_commit() {
    check_identities(
        "gc_every 1",
        &EngineConfig::sequential().with_gc_every(1),
        suite_mode,
    );
}

#[test]
fn counts_equal_their_owners_at_workers_8() {
    check_identities("workers 8", &EngineConfig::with_workers(8), suite_mode);
}

#[test]
fn counts_equal_their_owners_under_schedule_exploration() {
    check_identities("explore", &EngineConfig::sequential(), |_| {
        ExecMode::Explore {
            crash_target: None,
            max_runs: 8,
        }
    });
}
