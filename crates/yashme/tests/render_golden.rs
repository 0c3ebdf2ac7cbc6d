//! Golden tests for the deterministic parts of the CLI output: the
//! `--details` stats block (its `metrics:` lines come from the metrics
//! registry and its `strategy:` lines from the fork/prune/GC counter
//! blocks, so these also pin the canonical counter names), the `--explain`
//! timeline, and the `--json` document (minus the wall-clock `elapsed_us`
//! field).
//!
//! Everything asserted here is a pure function of the program, so the
//! strings are stable across runs and platforms; all but the `strategy:`
//! lines are stable across worker counts too.

use jaaru::{Atomicity, Ctx, ExecMode, Program, RunReport};
use yashme::{json, render, EngineConfig, YashmeConfig};

/// Two plain stores; the second is flushed and fenced, but prefix
/// expansion finds nothing forcing that flush into the consistent prefix,
/// so both race: `field.a` with no flush at all, `field.b` with a
/// recorded-but-ineffective flush — exercising both explain branches.
fn sample_program() -> Program {
    Program::new("golden")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            ctx.store_u64(x, 1, Atomicity::Plain, "field.a");
            ctx.store_u64(x + 64, 2, Atomicity::Plain, "field.b");
            ctx.clflush(x + 64);
            ctx.sfence();
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let _ = ctx.load_u64(x, Atomicity::Plain);
            let _ = ctx.load_u64(x + 64, Atomicity::Plain);
        })
}

fn sample_report() -> RunReport {
    yashme::model_check(&sample_program())
}

/// The `metrics:` lines of `render_stats` for the sample program: the
/// logical counters, identical under every strategy.
const METRICS_GOLDEN: &str = "\
metrics:
  engine.crash_points = 2
  engine.dedup_hits = 4
  engine.executions = 3
  engine.reports = 2
  load.bytes_from_bypass = 0
  load.bytes_from_cache = 0
  load.bytes_from_image = 48
  load.candidate_stores_scanned = 4
  ops.cas = 0
  ops.crashes = 6
  ops.fences = 1
  ops.flushes = 2
  ops.loads = 6
  ops.stores_committed = 6
  ops.stores_executed = 6
";

/// `render_stats` split at its `strategy:` block (empty when absent).
fn stats_blocks(report: &RunReport) -> (String, String) {
    let stats = render::render_stats(report);
    let at = stats.find("strategy:\n").unwrap_or(stats.len());
    (stats[..at].to_owned(), stats[at..].to_owned())
}

#[test]
fn details_stats_block_matches_golden() {
    let (metrics, _) = stats_blocks(&sample_report());
    assert_eq!(metrics, METRICS_GOLDEN, "actual:\n{metrics}");
}

#[test]
fn details_strategy_block_matches_golden() {
    // The default engine (fork, prune and GC on) at its default one
    // worker, where copy-on-write counts are deterministic too.
    assert_eq!(EngineConfig::default().workers, 1);
    let (_, strategy) = stats_blocks(&sample_report());
    let golden = "\
strategy:
  fork.snapshots = 2
  fork.resumed_runs = 2
  fork.cow_clones = 5
  fork.cow_bytes = 576
  fork.prefix_events_skipped = 9
  fork.suffix_events = 8
  prune.classes = 2
  prune.representatives = 2
  prune.suffixes_skipped = 0
  prune.events_attributed = 0
  gc.passes = 0
  gc.events_retired = 0
  gc.flushes_retired = 1
  gc.line_entries_retired = 1
  gc.live_events = 2
  gc.peak_live_events = 2
  gc.slots_reused = 0
  gc.flushmap_live = 1
  gc.flushmap_peak = 1
";
    assert_eq!(strategy, golden, "actual:\n{strategy}");
}

#[test]
fn strategy_block_is_absent_with_every_strategy_off() {
    let off = EngineConfig::sequential()
        .with_fork(false)
        .with_prune(false)
        .with_gc(false);
    let report = yashme::check(
        &sample_program(),
        ExecMode::model_check(),
        YashmeConfig::default(),
        &off,
    );
    let stats = render::render_stats(&report);
    assert_eq!(stats, METRICS_GOLDEN, "actual:\n{stats}");
}

#[test]
fn explain_timeline_matches_golden() {
    let report = sample_report();
    let races = report.races();
    assert_eq!(races.len(), 2, "{races:?}");
    // `field.a`: never flushed.
    let explain = render::render_explain("golden", 1, &races[0]);
    let golden = "\
race #1 [golden]: persistency race on `field.a`
  [ pre-crash-exec] execution 0: T0 stores 8 plain byte(s) to `field.a` at 0x1000, cv [T0:2]
  [ pre-crash-exec] no flush: no clflush or clwb+fence happens-after the store
  [crash-injection] injected crash ends execution 0 with the store unpersisted
  [post-crash-exec] execution 1: T1 loads 8 byte(s) at 0x1000
  [      detection] no flush inside the consistent prefix CVpre [] persists the store (cv [T0:2]) => the load may observe a torn value
";
    assert_eq!(explain, golden, "actual:\n{explain}");
    // `field.b`: flushed, but the flush lies outside the consistent prefix.
    let explain = render::render_explain("golden", 2, &races[1]);
    let golden = "\
race #2 [golden]: persistency race on `field.b`
  [ pre-crash-exec] execution 0: T0 stores 8 plain byte(s) to `field.b` at 0x1040, cv [T0:3]
  [ pre-crash-exec] 1 flush(es) happen-after the store (T0@4) but none lies inside the consistent prefix
  [crash-injection] injected crash ends execution 0 with the store unpersisted
  [post-crash-exec] execution 1: T1 loads 8 byte(s) at 0x1040
  [      detection] no flush inside the consistent prefix CVpre [T0:2] persists the store (cv [T0:3]) => the load may observe a torn value
";
    assert_eq!(explain, golden, "actual:\n{explain}");
}

#[test]
fn json_document_matches_snapshot() {
    // `include_elapsed: false` drops the only nondeterministic field.
    let doc = json::run_json("golden", &sample_report(), false).render();
    let golden = concat!(
        r#"{"benchmark":"golden","races":[{"kind":"persistency-race","label":"field.a","addr":"0x1000","store_exec":0,"load_exec":1,"store_thread":"T0","detail":"non-atomic 8-byte store could be torn or invented by the compiler; no consistent prefix of execution 0 flushes it before the post-crash load at 0x1000 (execution 1)","provenance":{"store_cv":"[T0:2]","store_len":8,"store_atomicity":"plain","ineffective_flushes":[],"cv_pre":"[]","load_thread":"T1","load_addr":"0x1000","load_len":8,"load_label":"","validated":false}},"#,
        r#"{"kind":"persistency-race","label":"field.b","addr":"0x1040","store_exec":0,"load_exec":1,"store_thread":"T0","detail":"non-atomic 8-byte store could be torn or invented by the compiler; no consistent prefix of execution 0 flushes it before the post-crash load at 0x1040 (execution 1)","provenance":{"store_cv":"[T0:3]","store_len":8,"store_atomicity":"plain","ineffective_flushes":[{"thread":"T0","clock":4}],"cv_pre":"[T0:2]","load_thread":"T1","load_addr":"0x1040","load_len":8,"load_label":"","validated":false}}],"#,
        r#""race_labels":["field.a","field.b"],"post_crash_panics":[],"#,
        r#""metrics":{"counters":{"engine.crash_points":2,"engine.dedup_hits":4,"engine.executions":3,"engine.reports":2,"load.bytes_from_bypass":0,"load.bytes_from_cache":0,"load.bytes_from_image":48,"load.candidate_stores_scanned":4,"ops.cas":0,"ops.crashes":6,"ops.fences":1,"ops.flushes":2,"ops.loads":6,"ops.stores_committed":6,"ops.stores_executed":6}}}"#,
    );
    assert_eq!(doc, golden, "actual:\n{doc}");
}
