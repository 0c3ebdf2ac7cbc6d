//! Determinism contract for the coverage plane: the coverage JSON — the
//! per-site verdict table, crash-space cartography, and suite document —
//! is byte-identical across worker counts and across every physical
//! strategy combination (fork/prune/GC on/off). Coverage is measured on
//! the deterministic virtual clock; how the crash space was physically
//! explored must never show through. The table3 suite document is also
//! pinned byte for byte to the checked-in `COVERAGE_baseline.json`.

use jaaru::{CoverageReport, EngineConfig, ExecMode};
use yashme::json::{coverage_doc, coverage_suite_json};
use yashme::YashmeConfig;

/// One benchmark's coverage JSON under `engine`.
fn coverage_bytes(engine: &EngineConfig) -> String {
    let program = recipe::cceh::program();
    let report = yashme::check(
        &program,
        ExecMode::model_check(),
        YashmeConfig::default(),
        engine,
    );
    coverage_doc("CCEH", &report).render()
}

#[test]
fn coverage_json_identical_at_workers_1_8_auto() {
    let reference = coverage_bytes(&EngineConfig::with_workers(1));
    for workers in [8usize, 0] {
        let got = coverage_bytes(&EngineConfig::with_workers(workers));
        assert_eq!(reference, got, "coverage differs at workers={workers}");
    }
}

#[test]
fn coverage_json_identical_across_fork_prune_gc() {
    let reference = coverage_bytes(&EngineConfig::with_workers(1));
    for mask in 0u8..8 {
        let engine = EngineConfig::with_workers(4)
            .with_fork(mask & 1 != 0)
            .with_prune(mask & 2 != 0)
            .with_gc(mask & 4 != 0);
        let got = coverage_bytes(&engine);
        assert_eq!(
            reference,
            got,
            "coverage differs at fork={} prune={} gc={}",
            mask & 1 != 0,
            mask & 2 != 0,
            mask & 4 != 0
        );
    }
}

/// The table3 suite coverage document over the first `benchmarks` RECIPE
/// benchmarks, rendered exactly as `table3 --coverage-out` writes it.
fn table3_suite_doc(engine: &EngineConfig, benchmarks: usize) -> String {
    let mut aggregate = CoverageReport::default();
    let mut docs = Vec::new();
    for spec in recipe::all_benchmarks().into_iter().take(benchmarks) {
        let report = yashme::check(
            &(spec.program)(),
            ExecMode::model_check(),
            YashmeConfig::default(),
            engine,
        );
        aggregate.absorb_suite(report.coverage());
        docs.push(coverage_doc(spec.name, &report));
    }
    format!(
        "{}\n",
        coverage_suite_json("table3", &aggregate, docs).render()
    )
}

#[test]
fn suite_document_identical_across_strategies() {
    let build = |engine: &EngineConfig| table3_suite_doc(engine, 2);
    let reference = build(&EngineConfig::with_workers(1));
    let strategies = [
        EngineConfig::with_workers(8),
        EngineConfig::with_workers(0),
        EngineConfig::with_workers(4)
            .with_fork(false)
            .with_prune(false)
            .with_gc(false),
    ];
    for engine in &strategies {
        assert_eq!(
            reference,
            build(engine),
            "suite doc differs under {engine:?}"
        );
    }
}

#[test]
fn every_race_maps_to_a_named_raced_site() {
    for spec in recipe::all_benchmarks() {
        let report = yashme::model_check(&(spec.program)());
        let cov = report.coverage();
        for label in report.race_labels() {
            let named = cov
                .sites
                .sorted()
                .into_iter()
                .any(|(_, l, s)| l == label && cov.verdict_for(l, &s) == jaaru::Verdict::Raced);
            assert!(
                named && !label.is_empty(),
                "{}: race {label} has no named raced site",
                spec.name
            );
        }
    }
}

#[test]
fn table3_attribution_is_at_least_950_permille() {
    let mut aggregate = CoverageReport::default();
    for spec in recipe::all_benchmarks() {
        let report = yashme::model_check(&(spec.program)());
        aggregate.absorb_suite(report.coverage());
    }
    let summary = aggregate.summary();
    assert!(
        summary.attributed_permille() >= 950,
        "store/flush/fence attribution fell to {}‰ — an unlabeled flush or \
         fence site crept into a shipped workload",
        summary.attributed_permille()
    );
}

/// The checked-in coverage baseline, exactly as `table3 --coverage-out`
/// writes it.
const BASELINE: &str = include_str!("../../../COVERAGE_baseline.json");

#[test]
fn table3_coverage_matches_the_checked_in_baseline() {
    let got = table3_suite_doc(&EngineConfig::sequential(), usize::MAX);
    // The document is one line; point at the first differing byte.
    let at = got
        .bytes()
        .zip(BASELINE.bytes())
        .position(|(g, b)| g != b)
        .unwrap_or(got.len().min(BASELINE.len()));
    let near = &got.as_bytes()[at.saturating_sub(40)..(at + 40).min(got.len())];
    assert!(
        got == BASELINE,
        "the table3 coverage document drifted from COVERAGE_baseline.json at \
         byte {at}, near {:?}; if the change is intended, refresh the \
         baseline with `cargo run --release -p bench --bin table3 -- \
         --coverage-out COVERAGE_baseline.json`",
        String::from_utf8_lossy(near),
    );
}
