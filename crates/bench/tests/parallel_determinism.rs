//! Parallel exploration on the real evaluation suite: worker pools must
//! reproduce the sequential reports exactly — also while every benchmark
//! shares the global pool at once — and (on multi-core hosts) faster.

use bench::{bug_finding_run, evaluation_suite};
use jaaru::EngineConfig;
use yashme::json::run_json;
use yashme::{ReportKind, RunReport};

fn fingerprint(report: &RunReport) -> Vec<(ReportKind, &'static str)> {
    report
        .races()
        .iter()
        .map(|r| (r.kind(), r.label()))
        .collect()
}

#[test]
fn suite_index_benchmarks_are_worker_count_invariant() {
    // Two model-checked index benchmarks with real race populations; the
    // de-duplicated reports must be identical at 1 and 8 workers.
    let suite = evaluation_suite();
    let mut checked = 0;
    for entry in &suite {
        if !matches!(entry.name, "CCEH" | "Fast_Fair") {
            continue;
        }
        let seq = bug_finding_run(entry, &EngineConfig::with_workers(1));
        let par = bug_finding_run(entry, &EngineConfig::with_workers(8));
        assert_eq!(fingerprint(&seq), fingerprint(&par), "{}", entry.name);
        assert_eq!(seq.executions(), par.executions(), "{}", entry.name);
        assert!(
            !seq.races().is_empty(),
            "{} should report races",
            entry.name
        );
        checked += 1;
    }
    assert_eq!(checked, 2);
}

#[test]
fn trace_and_metrics_are_worker_count_invariant_on_suite() {
    // The observability layer must obey the same determinism discipline as
    // the reports: Chrome trace and metrics exports byte-identical at
    // every worker count, including `auto` (one worker per CPU).
    let entry = evaluation_suite()
        .into_iter()
        .find(|e| e.name == "CCEH")
        .expect("suite contains CCEH");
    let run = |workers: usize| {
        bug_finding_run(
            &entry,
            &EngineConfig::with_workers(workers).with_trace(true),
        )
    };
    let seq = run(1);
    let eight = run(8);
    let auto = run(0);
    let chrome = |r: &RunReport| jaaru::obs::to_chrome_json(r.trace().expect("traced run"));
    assert_eq!(chrome(&seq), chrome(&eight), "trace differs at 8 workers");
    assert_eq!(chrome(&seq), chrome(&auto), "trace differs at auto workers");
    let metrics = |r: &RunReport| r.metrics().to_json().render();
    assert_eq!(
        metrics(&seq),
        metrics(&eight),
        "metrics differ at 8 workers"
    );
    assert_eq!(
        metrics(&seq),
        metrics(&auto),
        "metrics differ at auto workers"
    );
}

#[test]
fn concurrently_submitted_suite_matches_sequential_runs() {
    // Every benchmark of the suite submits its batches to the shared pool
    // at the same time, one submitter thread each. Overlap moves
    // scheduling, never results: each rendered report must equal the
    // benchmark's sequential run.
    let suite = evaluation_suite();
    let render = |name: &str, report: &RunReport| run_json(name, report, false).render();
    let parallel = EngineConfig::with_workers(4);
    let overlapped: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = suite
            .iter()
            .map(|entry| {
                let parallel = &parallel;
                scope.spawn(move || render(entry.name, &bug_finding_run(entry, parallel)))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("submitter thread"))
            .collect()
    });
    assert_eq!(overlapped.len(), 13);
    for (entry, got) in suite.iter().zip(&overlapped) {
        let sequential = bug_finding_run(entry, &EngineConfig::sequential());
        assert_eq!(*got, render(entry.name, &sequential), "{}", entry.name);
    }
}

/// Acceptance benchmark: 4 workers at least 2x faster than 1 on a suite
/// index benchmark, with identical reports. Ignored by default because it
/// needs >= 4 physical CPUs (this repo's CI containers expose one, where
/// the bound is unachievable); run with `cargo test --release -p bench --
/// --ignored` on a multi-core host.
#[test]
#[ignore = "requires >= 4 CPUs; run explicitly with -- --ignored"]
fn four_workers_double_throughput_on_multicore() {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    if cpus < 4 {
        eprintln!("skipping speedup assertion: only {cpus} CPU(s) available");
        return;
    }
    let entry = evaluation_suite()
        .into_iter()
        .find(|e| e.name == "Fast_Fair")
        .expect("suite contains Fast_Fair");
    let time = |workers: usize| {
        let cfg = EngineConfig::with_workers(workers);
        let start = std::time::Instant::now();
        let mut report = None;
        for _ in 0..10 {
            report = Some(bug_finding_run(&entry, &cfg));
        }
        (start.elapsed(), report.expect("ran"))
    };
    let (sequential, seq_report) = time(1);
    let (parallel, par_report) = time(4);
    assert_eq!(fingerprint(&seq_report), fingerprint(&par_report));
    let speedup = sequential.as_secs_f64() / parallel.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 2.0,
        "workers=4 should be >= 2x faster: {sequential:?} vs {parallel:?} ({speedup:.2}x)"
    );
}
