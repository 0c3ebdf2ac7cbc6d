//! Regenerates Table 5: races detected with and without prefix-based
//! expansion for a single random execution, and Yashme-vs-Jaaru run times.
//!
//! `--json` emits the table (and the companion sweep) as one
//! machine-readable document. Timing fields are wall-clock and therefore
//! not run-to-run stable; every other field is deterministic.

use bench::{evaluation_suite, table5_row, HARNESS_SEED};
use jaaru::obs::Json;
use jaaru::EngineConfig;

fn main() {
    let c = bench::cli::common_args(&["--json"], &[]);
    let engine = c.engine;
    let as_json = c.has_flag("--json");
    if !as_json {
        println!("Table 5: prefix vs baseline (single random execution, seed {HARNESS_SEED})");
        println!();
        println!(
            "{:<16}\tPrefix\tBaseline\tYashme Time\tJaaru Time",
            "Benchmark"
        );
    }
    let mut total_prefix = 0;
    let mut total_baseline = 0;
    let mut rows = Vec::new();
    for entry in evaluation_suite() {
        let row = table5_row(&entry, HARNESS_SEED, &engine);
        if !as_json {
            println!(
                "{:<16}\t{}\t{}\t{:.3?}\t{:.3?}",
                row.name, row.prefix, row.baseline, row.yashme_time, row.jaaru_time
            );
        }
        total_prefix += row.prefix;
        total_baseline += row.baseline;
        rows.push(Json::obj([
            ("benchmark", Json::from(row.name)),
            ("prefix", Json::from(row.prefix)),
            ("baseline", Json::from(row.baseline)),
            (
                "yashme_time_us",
                Json::from(row.yashme_time.as_micros() as u64),
            ),
            (
                "jaaru_time_us",
                Json::from(row.jaaru_time.as_micros() as u64),
            ),
        ]));
    }
    if !as_json {
        println!();
        println!(
            "total: prefix {total_prefix} vs baseline {total_baseline} (paper: 15 vs 3, a ~5x ratio)"
        );
    }
    let companion = companion_sweep(&engine, as_json);
    if as_json {
        let doc = Json::obj([
            ("table", Json::from(5u64)),
            ("seed", Json::from(HARNESS_SEED)),
            ("rows", Json::Arr(rows)),
            ("total_prefix", Json::from(total_prefix)),
            ("total_baseline", Json::from(total_baseline)),
            ("companion_20_executions", companion),
        ]);
        println!("{}", doc.render());
    }
}

/// Companion sweep appended to the single-execution table: with more random
/// executions the baseline does find the in-window crashes, but prefix
/// expansion stays far ahead — the §7.3 point that prefixes generalize
/// executions.
fn companion_sweep(engine: &EngineConfig, as_json: bool) -> Json {
    use jaaru::ExecMode;
    use yashme::YashmeConfig;
    if !as_json {
        println!();
        println!("Companion: 20 random executions per benchmark");
        println!();
        println!("{:<16}\tPrefix\tBaseline", "Benchmark");
    }
    let mut total_prefix = 0;
    let mut total_baseline = 0;
    let mut rows = Vec::new();
    for entry in evaluation_suite() {
        let program = (entry.program)();
        let prefix = yashme::check(
            &program,
            ExecMode::random(20, HARNESS_SEED),
            YashmeConfig::default(),
            engine,
        )
        .race_labels()
        .len();
        let baseline = yashme::check(
            &program,
            ExecMode::random(20, HARNESS_SEED),
            YashmeConfig::baseline(),
            engine,
        )
        .race_labels()
        .len();
        if !as_json {
            println!("{:<16}\t{}\t{}", entry.name, prefix, baseline);
        }
        total_prefix += prefix;
        total_baseline += baseline;
        rows.push(Json::obj([
            ("benchmark", Json::from(entry.name)),
            ("prefix", Json::from(prefix)),
            ("baseline", Json::from(baseline)),
        ]));
    }
    if !as_json {
        println!();
        println!("total over 20 executions: prefix {total_prefix} vs baseline {total_baseline}");
    }
    Json::obj([
        ("rows", Json::Arr(rows)),
        ("total_prefix", Json::from(total_prefix)),
        ("total_baseline", Json::from(total_baseline)),
    ])
}
