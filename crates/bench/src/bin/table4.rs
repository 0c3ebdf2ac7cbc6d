//! Regenerates Table 4 (and the Figure 12 detail): the persistency races
//! found in PMDK, Redis, and Memcached, using random mode as in the paper.
//!
//! `--json` emits the table as a machine-readable document instead.

use std::collections::BTreeSet;

use bench::{bug_finding_run, evaluation_suite};
use jaaru::obs::Json;

fn main() {
    let c = bench::cli::common_args(&["--json"], &[]);
    let engine = c.engine;
    let as_json = c.has_flag("--json");
    if !as_json {
        println!("Table 4: races found in PMDK, Redis, and Memcached (random mode)");
        println!();
        println!("#\tBenchmark\tRoot Cause of Bug");
    }
    let mut idx = 1;
    // PMDK row: the ulog race, deduplicated across its five example
    // structures (and reachable from Redis as well, as the paper notes).
    let mut pmdk_labels: BTreeSet<String> = BTreeSet::new();
    for entry in evaluation_suite() {
        if !matches!(
            entry.name,
            "Btree" | "Ctree" | "RBtree" | "hashmap-atomic" | "hashmap-tx"
        ) {
            continue;
        }
        let report = bug_finding_run(&entry, &engine);
        for label in report.race_labels() {
            pmdk_labels.insert(label.to_owned());
        }
    }
    let mut rows: Vec<(usize, &str, &str)> = Vec::new();
    for label in &pmdk_labels {
        if !as_json {
            println!("{idx}\tPMDK\t{label}");
        }
        rows.push((idx, "PMDK", label.as_str()));
        idx += 1;
    }
    let mut memcached_labels: Vec<&str> = Vec::new();
    for entry in evaluation_suite() {
        if entry.name != "Memcached" {
            continue;
        }
        let report = bug_finding_run(&entry, &engine);
        for label in report.race_labels() {
            memcached_labels.push(label);
            if !as_json {
                println!("{idx}\tmemcached\t{label}");
            }
            rows.push((idx, "memcached", label));
            idx += 1;
        }
        if as_json {
            continue;
        }
        for r in report.races() {
            eprintln!("  [memcached] {} report: {}", r.kind(), r.label());
        }
    }
    let mut redis_new = 0;
    for entry in evaluation_suite() {
        if entry.name != "Redis" {
            continue;
        }
        let report = bug_finding_run(&entry, &engine);
        redis_new = report
            .race_labels()
            .into_iter()
            .filter(|l| !pmdk_labels.contains(*l))
            .count();
        if !as_json {
            println!();
            println!(
                "Redis: {redis_new} new races beyond PMDK's (paper: the PMDK races are reachable from Redis too)",
            );
        }
    }
    let total = pmdk_labels.len() + memcached_labels.len();
    if as_json {
        let doc = Json::obj([
            ("table", Json::from(4u64)),
            ("rows", bench::race_rows_json(&rows)),
            ("redis_new_races", Json::from(redis_new)),
            ("total", Json::from(total)),
        ]);
        println!("{}", doc.render());
    } else {
        println!();
        println!("total: {total} races (paper: 5)");
    }
}
