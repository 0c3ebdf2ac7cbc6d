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

/// One program's work counts as a stable-field-order JSON object.
fn work_json(entry: &SuiteEntry) -> Json {
    let report = bug_finding_run(entry, &EngineConfig::sequential());
    let s = report.stats();
    let f = report.fork_stats();
    let p = report.prune_stats();
    let g = report.gc_stats();
    Json::obj([
        ("program", entry.name.into()),
        ("executions", (report.executions() as u64).into()),
        ("crash_points", (report.crash_points() as u64).into()),
        ("dedup_hits", report.dedup_hits().into()),
        (
            "stats",
            Json::obj([
                ("stores_executed", s.stores_executed.into()),
                ("stores_committed", s.stores_committed.into()),
                ("loads", s.loads.into()),
                ("flushes", s.flushes.into()),
                ("fences", s.fences.into()),
                ("cas_ops", s.cas_ops.into()),
                ("crashes", s.crashes.into()),
                ("bytes_from_bypass", s.bytes_from_bypass.into()),
                ("bytes_from_cache", s.bytes_from_cache.into()),
                ("bytes_from_image", s.bytes_from_image.into()),
                (
                    "candidate_stores_scanned",
                    s.candidate_stores_scanned.into(),
                ),
            ]),
        ),
        (
            "fork",
            Json::obj([
                ("snapshots", f.snapshots.into()),
                ("resumed_runs", f.resumed_runs.into()),
                ("cow_clones", f.cow_clones.into()),
                ("cow_bytes", f.cow_bytes.into()),
                ("prefix_events_skipped", f.prefix_events_skipped.into()),
                ("suffix_events", f.suffix_events.into()),
            ]),
        ),
        (
            "prune",
            Json::obj([
                ("classes", p.classes.into()),
                ("representatives", p.representatives.into()),
                ("suffixes_skipped", p.suffixes_skipped.into()),
                ("events_attributed", p.events_attributed.into()),
            ]),
        ),
        (
            "gc",
            Json::obj([
                ("passes", g.passes.into()),
                ("events_retired", g.events_retired.into()),
                ("flushes_retired", g.flushes_retired.into()),
                ("line_entries_retired", g.line_entries_retired.into()),
                ("live_events", g.live_events.into()),
                ("peak_live_events", g.peak_live_events.into()),
                ("slots_reused", g.slots_reused.into()),
                ("flushmap_live", g.flushmap_live.into()),
                ("flushmap_peak", g.flushmap_peak.into()),
            ]),
        ),
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
