//! Exact work gate: the deterministic work counts of every `yashme --all`
//! program, pinned to the checked-in `WORK_baseline.json`.
//!
//! Each program runs in its paper mode (model checking, or random mode at
//! the harness seed) under `EngineConfig::sequential()`. One worker makes
//! every counter deterministic, including the copy-on-write traffic of
//! fork mode, so the gate compares them all exactly: executions, crash
//! points, dedup hits, every `ExecStats` field, and the fork, prune and GC
//! counters. Wall time is not gated here.

use bench::{bug_finding_run, evaluation_suite, SuiteEntry, SuiteMode};
use jaaru::obs::Json;
use jaaru::EngineConfig;

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

/// One counter block as a JSON object keyed by field name.
fn block_json(counters: impl IntoIterator<Item = (&'static str, &'static str, u64)>) -> Json {
    Json::obj(counters.into_iter().map(|(field, _, v)| (field, v.into())))
}

/// One program's work counts as a stable-field-order JSON object.
fn work_json(entry: &SuiteEntry) -> Json {
    let report = bug_finding_run(entry, &EngineConfig::sequential());
    Json::obj([
        ("program", entry.name.into()),
        ("executions", (report.executions() as u64).into()),
        ("crash_points", (report.crash_points() as u64).into()),
        ("dedup_hits", report.dedup_hits().into()),
        ("stats", block_json(report.stats().counters())),
        ("fork", block_json(report.fork_stats().counters())),
        ("prune", block_json(report.prune_stats().counters())),
        ("gc", block_json(report.gc_stats().counters())),
    ])
}

/// The whole document: a JSON array with one program object per line, so
/// a drift shows up as a one-line diff.
fn work_document() -> String {
    let rows: Vec<String> = programs().iter().map(|e| work_json(e).render()).collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

/// The checked-in work baseline, exactly as [`work_document`] renders it.
const BASELINE: &str = include_str!("../../../WORK_baseline.json");

#[test]
fn suite_work_matches_the_checked_in_baseline() {
    let got = work_document();
    if got != BASELINE {
        let drifted: Vec<&str> = got
            .lines()
            .zip(BASELINE.lines())
            .filter(|(g, b)| g != b)
            .map(|(g, _)| g)
            .collect();
        panic!(
            "the suite's work counts drifted from WORK_baseline.json in {} \
             line(s):\n{}\n\nif the change is intended, replace \
             WORK_baseline.json with this regenerated document:\n{got}",
            drifted.len(),
            drifted.join("\n"),
        );
    }
}
