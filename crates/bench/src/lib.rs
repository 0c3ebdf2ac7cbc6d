//! Shared harness code for the table-regeneration binaries and the
//! `yashbench` benchmark.
//!
//! The paper's evaluation (§7) runs thirteen benchmarks: six persistent
//! indexes (model-checking mode) and seven application/library workloads
//! (random mode). [`evaluation_suite`] assembles them in Table 5 order;
//! [`table5_row`] measures one row (prefix vs baseline race counts on a
//! single random execution, plus Yashme-vs-Jaaru wall time).

pub mod cli;
pub mod workload;

use std::time::{Duration, Instant};

use jaaru::obs::{Json, Telemetry};
use jaaru::{Engine, EngineConfig, ExecMode, Program};
use yashme::YashmeConfig;

/// Which engine mode the paper used for a benchmark (§7.1: indexes are
/// model-checked; PMDK, Memcached, and Redis run in random mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuiteMode {
    /// Model-checking mode.
    ModelCheck,
    /// Random mode with the given execution count.
    Random(usize),
}

/// One benchmark of the evaluation suite.
pub struct SuiteEntry {
    /// Name as printed in Table 5.
    pub name: &'static str,
    /// Builds the driver program.
    pub program: fn() -> Program,
    /// Mode used for the Table 3/4 bug-finding runs.
    pub mode: SuiteMode,
}

impl std::fmt::Debug for SuiteEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SuiteEntry")
            .field("name", &self.name)
            .field("mode", &self.mode)
            .finish()
    }
}

/// The thirteen benchmarks in Table 5 order.
pub fn evaluation_suite() -> Vec<SuiteEntry> {
    let mut suite: Vec<SuiteEntry> = recipe::all_benchmarks()
        .into_iter()
        .map(|b| SuiteEntry {
            name: b.name,
            program: b.program,
            mode: SuiteMode::ModelCheck,
        })
        .collect();
    for b in pmdk::all_benchmarks() {
        suite.push(SuiteEntry {
            name: b.name,
            program: b.program,
            mode: SuiteMode::Random(20),
        });
    }
    suite.push(SuiteEntry {
        name: "Redis",
        program: apps::redis::program,
        mode: SuiteMode::Random(20),
    });
    suite.push(SuiteEntry {
        name: "Memcached",
        program: apps::memcached::program,
        mode: SuiteMode::Random(20),
    });
    suite
}

/// The fixed seed the harness uses (documented in EXPERIMENTS.md).
pub const HARNESS_SEED: u64 = 15;

/// Renders Table 3/4-style numbered race rows as a JSON array with stable
/// field order: `{"index": .., "benchmark": .., "label": ..}` per row.
pub fn race_rows_json(rows: &[(usize, &str, &str)]) -> Json {
    Json::arr(rows.iter().map(|&(index, benchmark, label)| {
        Json::obj([
            ("index", Json::from(index)),
            ("benchmark", Json::from(benchmark)),
            ("label", Json::from(label)),
        ])
    }))
}

/// One row of Table 5.
#[derive(Debug, Clone)]
pub struct Table5Row {
    /// Benchmark name.
    pub name: &'static str,
    /// Races found by prefix expansion on a single random execution.
    pub prefix: usize,
    /// Races found by the baseline on the same execution.
    pub baseline: usize,
    /// Wall time with the Yashme detector attached.
    pub yashme_time: Duration,
    /// Wall time with no detector (plain Jaaru).
    pub jaaru_time: Duration,
}

/// Measures one Table 5 row under the given engine configuration.
pub fn table5_row(entry: &SuiteEntry, seed: u64, engine: &EngineConfig) -> Table5Row {
    let program = (entry.program)();
    let mode = ExecMode::random(1, seed);
    let prefix = yashme::check(&program, mode, YashmeConfig::default(), engine)
        .true_races()
        .count();
    let baseline = yashme::check(&program, mode, YashmeConfig::baseline(), engine)
        .true_races()
        .count();
    let start = Instant::now();
    let _ = yashme::check(&program, mode, YashmeConfig::default(), engine);
    let yashme_time = start.elapsed();
    let start = Instant::now();
    let _ = Engine::run_observed(
        &program,
        mode,
        &|| Box::new(jaaru::NullSink),
        engine,
        Telemetry::off(),
    );
    let jaaru_time = start.elapsed();
    Table5Row {
        name: entry.name,
        prefix,
        baseline,
        yashme_time,
        jaaru_time,
    }
}

/// Runs a benchmark in its paper mode under the given engine
/// configuration and returns the full report.
pub fn bug_finding_run(entry: &SuiteEntry, engine: &EngineConfig) -> yashme::RunReport {
    let program = (entry.program)();
    let mode = match entry.mode {
        SuiteMode::ModelCheck => ExecMode::model_check(),
        SuiteMode::Random(n) => ExecMode::random(n, HARNESS_SEED),
    };
    yashme::check(&program, mode, YashmeConfig::default(), engine)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn race_rows_json_snapshot() {
        let rows = [(1, "CCEH", "Pair.key"), (2, "CCEH", "Pair.value")];
        assert_eq!(
            race_rows_json(&rows).render(),
            r#"[{"index":1,"benchmark":"CCEH","label":"Pair.key"},{"index":2,"benchmark":"CCEH","label":"Pair.value"}]"#
        );
    }

    #[test]
    fn suite_has_thirteen_benchmarks_in_table5_order() {
        let suite = evaluation_suite();
        let names: Vec<_> = suite.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            vec![
                "CCEH",
                "Fast_Fair",
                "P-ART",
                "P-BwTree",
                "P-CLHT",
                "P-Masstree",
                "Btree",
                "Ctree",
                "RBtree",
                "hashmap-atomic",
                "hashmap-tx",
                "Redis",
                "Memcached",
            ]
        );
    }

    #[test]
    fn indexes_are_model_checked_apps_are_random() {
        for e in evaluation_suite() {
            match e.name {
                "CCEH" | "Fast_Fair" | "P-ART" | "P-BwTree" | "P-CLHT" | "P-Masstree" => {
                    assert_eq!(e.mode, SuiteMode::ModelCheck)
                }
                _ => assert!(matches!(e.mode, SuiteMode::Random(_))),
            }
        }
    }

    #[test]
    fn table5_prefix_dominates_baseline() {
        // The paper's headline optimization result: prefix expansion never
        // finds fewer races than the baseline, and strictly more in
        // aggregate.
        let mut total_prefix = 0;
        let mut total_baseline = 0;
        for entry in evaluation_suite() {
            let row = table5_row(&entry, HARNESS_SEED, &EngineConfig::default());
            assert!(
                row.prefix >= row.baseline,
                "{}: prefix {} < baseline {}",
                row.name,
                row.prefix,
                row.baseline
            );
            total_prefix += row.prefix;
            total_baseline += row.baseline;
        }
        assert!(
            total_prefix > total_baseline,
            "prefix {total_prefix} should beat baseline {total_baseline}"
        );
    }
}
