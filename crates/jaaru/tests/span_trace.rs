//! Engine-level span tracing: deterministic collection, worker-count
//! invariance, and zero trace state when disabled.

use jaaru::obs::Telemetry;
use jaaru::{Atomicity, Ctx, Engine, EngineConfig, ExecMode, NullSink, Program};

fn racy_program() -> Program {
    Program::new("traced")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            ctx.store_u64(x, 1, Atomicity::Plain, "a");
            ctx.clflush(x);
            ctx.store_u64(x + 8, 2, Atomicity::Plain, "b");
            ctx.clflush(x + 8);
        })
        .post_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            let _ = ctx.load_u64(x, Atomicity::Plain);
            let _ = ctx.load_u64(x + 8, Atomicity::Plain);
        })
}

fn traced_report(workers: usize) -> jaaru::RunReport {
    Engine::run_observed(
        &racy_program(),
        ExecMode::model_check(),
        &|| Box::new(NullSink),
        &EngineConfig::with_workers(workers).with_trace(true),
        Telemetry::off(),
    )
}

#[test]
fn tracing_off_allocates_no_trace() {
    let report = Engine::run_observed(
        &racy_program(),
        ExecMode::model_check(),
        &|| Box::new(NullSink),
        &EngineConfig::sequential(),
        Telemetry::off(),
    );
    assert!(report.trace().is_none());
    // Metrics still work without a trace.
    assert!(report.metrics().counter("ops.loads") > 0);
}

#[test]
fn trace_has_one_lane_per_run() {
    let report = traced_report(1);
    let trace = report.trace().expect("trace recorded");
    // Profile run + one run per crash point.
    assert_eq!(trace.runs(), report.executions());
    assert_eq!(trace.lanes().len(), report.executions());
    assert!(trace.span_count() > 0);
    // Every run records its crash instant(s).
    let crashes: usize = trace.lanes().iter().map(|b| b.instants.len()).sum();
    assert!(
        crashes >= report.executions(),
        "each run crashes at least once"
    );
}

#[test]
fn chrome_export_and_metrics_are_worker_count_invariant() {
    let seq = traced_report(1);
    let par = traced_report(4);
    let seq_trace = seq.trace().expect("seq trace");
    let par_trace = par.trace().expect("par trace");
    assert_eq!(
        obs::to_chrome_json(seq_trace),
        obs::to_chrome_json(par_trace),
        "span set must be byte-identical across worker counts"
    );
    assert_eq!(
        seq.metrics().to_json().render(),
        par.metrics().to_json().render(),
        "metric totals must be byte-identical across worker counts"
    );
}

#[test]
fn trace_counters_reach_the_registry() {
    let report = traced_report(1);
    let metrics = report.metrics();
    assert!(metrics.counter(obs::names::TRACE_EVENTS) > 0);
    assert!(metrics.counter(obs::names::TRACE_SPANS) > 0);
    assert_eq!(
        metrics.counter(obs::names::ENGINE_EXECUTIONS),
        report.executions() as u64
    );
}

#[test]
fn chrome_totals_equal_the_registry_counters() {
    // The Chrome `otherData` totals and the registry's trace counters are
    // two renderings of one computation, so they agree exactly.
    let report = traced_report(1);
    let metrics = report.metrics();
    let chrome = obs::to_chrome_json(report.trace().expect("trace recorded"));
    let other_data = format!(
        r#""otherData":{{"clock":"virtual (engine events)","runs":{},"spans":{},"events":{}}}}}"#,
        metrics.counter(obs::names::ENGINE_EXECUTIONS),
        metrics.counter(obs::names::TRACE_SPANS),
        metrics.counter(obs::names::TRACE_EVENTS),
    );
    assert!(chrome.ends_with(&other_data), "{chrome}");
}
