//! Machine-readable JSON rendering of run results (`yashme --json`).
//!
//! Field order is fixed by construction (objects render in insertion
//! order) and every collection is already deterministically sorted by the
//! engine, so two runs of the same program at any worker count render
//! byte-identical documents — except the trailing `elapsed_us` field,
//! which callers can omit for snapshot comparison.

use jaaru::obs::Json;
use jaaru::{RaceProvenance, RaceReport, RunReport};

/// Renders one race report. Fields, in order: `kind`, `label`, `addr`,
/// `store_exec`, `load_exec`, `store_thread`, `detail`, `provenance`
/// (`null` when the detector recorded none).
pub fn race_json(report: &RaceReport) -> Json {
    Json::obj([
        ("kind", Json::from(report.kind().slug())),
        ("label", Json::from(report.label())),
        ("addr", Json::from(report.addr().to_string())),
        ("store_exec", Json::from(report.store_exec() as u64)),
        ("load_exec", Json::from(report.load_exec() as u64)),
        (
            "store_thread",
            Json::from(report.store_thread().to_string()),
        ),
        ("detail", Json::from(report.detail())),
        (
            "provenance",
            report
                .provenance()
                .map(provenance_json)
                .unwrap_or(Json::Null),
        ),
    ])
}

fn provenance_json(p: &RaceProvenance) -> Json {
    Json::obj([
        ("store_cv", Json::from(p.store_cv.to_string())),
        ("store_len", Json::from(p.store_len)),
        ("store_atomicity", Json::from(p.store_atomicity.to_string())),
        (
            "ineffective_flushes",
            Json::arr(p.ineffective_flushes.iter().map(|(t, c)| {
                Json::obj([
                    ("thread", Json::from(t.to_string())),
                    ("clock", Json::from(*c)),
                ])
            })),
        ),
        ("cv_pre", Json::from(p.cv_pre.to_string())),
        ("load_thread", Json::from(p.load_thread.to_string())),
        ("load_addr", Json::from(p.load_addr.to_string())),
        ("load_len", Json::from(p.load_len)),
        ("load_label", Json::from(p.load_label)),
        ("validated", Json::from(p.validated)),
    ])
}

/// Renders a whole run for one benchmark. Fields, in order: `benchmark`,
/// `races`, `race_labels`, `executions`, `crash_points`,
/// `post_crash_panics`, `dedup_hits`, `metrics`, and — only when
/// `include_elapsed` — `elapsed_us` last, so deterministic prefixes stay
/// comparable.
pub fn run_json(benchmark: &str, report: &RunReport, include_elapsed: bool) -> Json {
    let mut fields = vec![
        ("benchmark".to_owned(), Json::from(benchmark)),
        (
            "races".to_owned(),
            Json::arr(report.races().iter().map(race_json)),
        ),
        (
            "race_labels".to_owned(),
            Json::arr(report.race_labels().into_iter().map(Json::from)),
        ),
        ("executions".to_owned(), Json::from(report.executions())),
        ("crash_points".to_owned(), Json::from(report.crash_points())),
        (
            "post_crash_panics".to_owned(),
            Json::arr(
                report
                    .post_crash_panics()
                    .iter()
                    .map(|p| Json::from(p.as_str())),
            ),
        ),
        ("dedup_hits".to_owned(), Json::from(report.dedup_hits())),
        ("metrics".to_owned(), report.metrics().to_json()),
    ];
    if include_elapsed {
        fields.push((
            "elapsed_us".to_owned(),
            Json::from(report.elapsed().as_micros() as u64),
        ));
    }
    Json::Obj(fields)
}

/// Renders the top-level `--json` document over several benchmark runs:
/// `{"benchmarks": [...], "total_races": N}`.
pub fn suite_json(runs: Vec<Json>, total_races: usize) -> Json {
    Json::obj([
        ("benchmarks", Json::Arr(runs)),
        ("total_races", Json::from(total_races)),
    ])
}

/// Renders one benchmark's coverage-plane document: `{"benchmark": ..,
/// "coverage": <coverage plane>}`. The inner document is
/// [`RunReport::coverage_json`], so it is byte-identical across worker
/// counts and physical strategies.
pub fn coverage_doc(benchmark: &str, report: &RunReport) -> Json {
    Json::obj([
        ("benchmark", Json::from(benchmark)),
        ("coverage", report.coverage_json()),
    ])
}

/// Renders the suite-level `--coverage-out` document: the aggregate
/// coverage plane first, then the per-benchmark documents.
/// `aggregate` is the site-table/raced-label union over the suite; its
/// cartography is left empty because crash-space phases are per-program.
pub fn coverage_suite_json(
    suite: &str,
    aggregate: &jaaru::CoverageReport,
    benchmarks: Vec<Json>,
) -> Json {
    Json::obj([
        ("suite", Json::from(suite)),
        ("aggregate", jaaru::coverage_json(aggregate)),
        ("benchmarks", Json::Arr(benchmarks)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::{Atomicity, Ctx, Program};

    fn sample_report() -> RunReport {
        let program = Program::new("sample")
            .pre_crash(|ctx: &mut Ctx| {
                let x = ctx.root();
                ctx.store_u64(x, 1, Atomicity::Plain, "field.a");
            })
            .post_crash(|ctx: &mut Ctx| {
                let x = ctx.root();
                let _ = ctx.load_u64(x, Atomicity::Plain);
            });
        crate::model_check(&program)
    }

    #[test]
    fn run_json_has_stable_field_order() {
        let report = sample_report();
        let doc = run_json("Sample", &report, false).render();
        let order = [
            "\"benchmark\"",
            "\"races\"",
            "\"race_labels\"",
            "\"executions\"",
            "\"crash_points\"",
            "\"post_crash_panics\"",
            "\"dedup_hits\"",
            "\"metrics\"",
        ];
        let mut last = 0;
        for key in order {
            let at = doc.find(key).unwrap_or_else(|| panic!("{key} in {doc}"));
            assert!(at >= last, "{key} out of order in {doc}");
            last = at;
        }
        assert!(!doc.contains("elapsed_us"));
    }

    #[test]
    fn elapsed_renders_last_when_requested() {
        let report = sample_report();
        let doc = run_json("Sample", &report, true).render();
        let at = doc.find("\"elapsed_us\"").expect("elapsed present");
        assert!(at > doc.find("\"metrics\"").unwrap());
    }

    #[test]
    fn race_json_carries_provenance() {
        let report = sample_report();
        let doc = race_json(&report.races()[0]).render();
        assert!(doc.contains("\"kind\":\"persistency-race\""), "{doc}");
        assert!(doc.contains("\"store_cv\""), "{doc}");
        assert!(doc.contains("\"cv_pre\""), "{doc}");
    }
}
