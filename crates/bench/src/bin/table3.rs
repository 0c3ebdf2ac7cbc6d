//! Regenerates Table 3 (and the Figure 11 detail): the persistency races
//! model checking finds in CCEH, FAST_FAIR, and the RECIPE benchmarks.
//!
//! `--workers N` fans crash-point exploration out over a worker pool; the table is identical at every worker count.
//! `--json` emits the table as a machine-readable document instead.
//!
//! The coverage plane rides along: `--coverage` prints each benchmark's
//! per-site verdict table and crash-space cartography after its rows, and
//! `--coverage-out PATH` writes the suite coverage document (aggregate
//! plane first, then per-benchmark planes) — byte-identical across worker
//! counts and fork/prune/GC strategies, so it can be diffed against
//! `COVERAGE_baseline.json` by the CI gate.

use jaaru::obs::Json;
use jaaru::{CoverageReport, ExecMode};
use yashme::YashmeConfig;

fn main() {
    let c = bench::cli::common_args(&["--json", "--coverage"], &["--coverage-out"]);
    let as_json = c.has_flag("--json");
    let show_coverage = c.has_flag("--coverage");
    let coverage_out = c.value_of("--coverage-out");
    if !as_json {
        println!("Table 3: races found in CCEH, FAST_FAIR, and RECIPE benchmarks");
        println!();
        println!("#\tBenchmark\tRoot Cause of Bug");
    }
    let mut idx = 1;
    let mut rows: Vec<(usize, String, String)> = Vec::new();
    let mut aggregate = CoverageReport::default();
    let mut coverage_docs = Vec::new();
    for spec in recipe::all_benchmarks() {
        let report = yashme::check(
            &(spec.program)(),
            ExecMode::model_check(),
            YashmeConfig::default(),
            &c.engine,
        );
        for label in report.race_labels() {
            if !as_json {
                println!("{idx}\t{}\t{label}", spec.name);
            }
            rows.push((idx, spec.name.to_owned(), label.to_owned()));
            idx += 1;
        }
        if coverage_out.is_some() {
            aggregate.absorb_suite(report.coverage());
            coverage_docs.push(yashme::json::coverage_doc(spec.name, &report));
        }
        if show_coverage && !as_json {
            println!("--- {} coverage ---", spec.name);
            print!("{}", yashme::render::render_coverage(&report));
        }
        if as_json {
            continue;
        }
        // Figure 11-style detail: per-report store sites.
        for r in report.true_races() {
            eprintln!(
                "  [{}] write to {} at address {} (execution {}, thread {})",
                spec.name,
                r.label(),
                r.addr(),
                r.store_exec(),
                r.store_thread()
            );
        }
    }
    let total = rows.len();
    if as_json {
        let borrowed: Vec<(usize, &str, &str)> = rows
            .iter()
            .map(|(i, b, l)| (*i, b.as_str(), l.as_str()))
            .collect();
        let doc = Json::obj([
            ("table", Json::from(3u64)),
            ("rows", bench::race_rows_json(&borrowed)),
            ("total", Json::from(total)),
        ]);
        println!("{}", doc.render());
    } else {
        println!();
        println!("total: {total} races (paper: 19)");
    }
    if let Some(path) = coverage_out {
        let doc = yashme::json::coverage_suite_json("table3", &aggregate, coverage_docs);
        std::fs::write(path, format!("{}\n", doc.render())).expect("write coverage json");
        if !as_json {
            println!("wrote {path}");
        }
    }
}
