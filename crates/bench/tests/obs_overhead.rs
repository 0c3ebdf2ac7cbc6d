//! Tracing must be pay-for-what-you-use: with `EngineConfig::trace` off
//! (the default), the engine hands the factory's sink straight to the run
//! loop — no `SpanTraceSink` wrapper, no `TraceBuf` allocation — so a
//! plain-`NullSink` run and a tracing-compiled-but-disabled run are the
//! same code path.

use std::time::{Duration, Instant};

use bench::{bug_finding_run, evaluation_suite, SuiteEntry};
use jaaru::obs::Telemetry;
use jaaru::{Engine, EngineConfig, ExecMode, NullSink};

fn cceh() -> SuiteEntry {
    evaluation_suite()
        .into_iter()
        .find(|e| e.name == "CCEH")
        .expect("suite contains CCEH")
}

#[test]
fn disabled_tracing_allocates_nothing() {
    // Structural half of the guarantee: no trace buffers exist unless the
    // run opted in.
    let off = bug_finding_run(&cceh(), &EngineConfig::sequential());
    assert!(off.trace().is_none(), "trace recorded without opting in");
    let on = bug_finding_run(&cceh(), &EngineConfig::sequential().with_trace(true));
    assert!(on.trace().is_some(), "opted-in run lost its trace");
}

fn median_run_time(runs: usize, f: impl Fn()) -> Duration {
    let mut samples: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[runs / 2]
}

#[test]
fn disabled_tracing_costs_no_more_than_a_null_sink() {
    // Timing half: a NullSink run with tracing compiled in but off must
    // stay within noise of a plain NullSink run. They execute identical
    // code, so the generous 3x bound only trips if someone adds per-event
    // work to the disabled path.
    let entry = cceh();
    let program = (entry.program)();
    let mode = ExecMode::model_check();
    const RUNS: usize = 15;
    // Warm up allocators and caches before timing anything.
    let _ = Engine::run_observed(
        &program,
        mode,
        &|| Box::new(NullSink),
        &EngineConfig::sequential(),
        Telemetry::off(),
    );
    let null_sink = median_run_time(RUNS, || {
        let _ = Engine::run_observed(
            &program,
            mode,
            &|| Box::new(NullSink),
            &EngineConfig::sequential(),
            Telemetry::off(),
        );
    });
    let trace_off = median_run_time(RUNS, || {
        let config = EngineConfig::sequential(); // trace defaults to off
        let _ = Engine::run_observed(
            &program,
            mode,
            &|| Box::new(NullSink),
            &config,
            Telemetry::off(),
        );
    });
    assert!(
        trace_off <= null_sink.saturating_mul(3) + Duration::from_millis(5),
        "tracing-off run ({trace_off:?}) should match plain NullSink ({null_sink:?})"
    );
}
