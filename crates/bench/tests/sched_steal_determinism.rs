//! Determinism contract for the parallel fan-out: with the stall hook
//! spreading chunks over every executor and completing them out of item
//! order, every deterministic surface — race reports, span trace, metrics
//! registry, coverage JSON — stays byte-identical across workers 1/8/auto.
//! The fan-out moves where and when jobs execute; it must never move what
//! they compute or how their results merge.

use std::sync::Arc;

use jaaru::obs::telemetry::Telemetry;
use jaaru::obs::to_chrome_json;
use jaaru::{Engine, EngineConfig, ExecMode};
use yashme::json::{coverage_doc, run_json};
use yashme::{YashmeConfig, YashmeDetector};

/// Every deterministic surface of one CCEH run, rendered to bytes
/// (elapsed excluded from the run JSON — wall clock is the one
/// legitimately nondeterministic field).
fn surfaces(engine: &EngineConfig, mode: ExecMode) -> (String, String, String, String) {
    let program = recipe::cceh::program();
    let report = yashme::check(&program, mode, YashmeConfig::default(), engine);
    (
        run_json("CCEH", &report, false).render(),
        report
            .trace()
            .map(to_chrome_json)
            .expect("tracing was requested"),
        report.metrics().to_json().render(),
        coverage_doc("CCEH", &report).render(),
    )
}

#[test]
fn reports_identical_across_workers_with_stealing_forced() {
    // Baseline *without* the pool at all.
    let reference = surfaces(
        &EngineConfig::with_workers(1).with_trace(true),
        ExecMode::model_check(),
    );
    jaaru::pool::set_stall_ms(1);
    for workers in [8usize, 0] {
        let got = surfaces(
            &EngineConfig::with_workers(workers).with_trace(true),
            ExecMode::model_check(),
        );
        assert_eq!(
            reference, got,
            "a surface diverged under forced stealing at workers={workers}"
        );
    }
    jaaru::pool::set_stall_ms(0);
}

#[test]
fn stealing_actually_happens_under_the_stall_hook() {
    // The companion to the byte-identity test: prove the chunks really were
    // spread over several executors, via the wall-clock telemetry plane.
    let program = recipe::cceh::program();
    let tel = Arc::new(Telemetry::new());
    jaaru::pool::set_stall_ms(1);
    let report = Engine::run_observed(
        &program,
        ExecMode::model_check(),
        &|| Box::new(YashmeDetector::with_defaults()),
        &EngineConfig::with_workers(8),
        &tel,
    );
    jaaru::pool::set_stall_ms(0);
    assert!(!report.races().is_empty(), "CCEH reports its known races");
    let sched = tel.sched_counters();
    assert!(sched.jobs > 0, "suffix jobs went through the scheduler");
    assert!(sched.batches > 0, "jobs were chunked");
    let busy = tel.worker_stats().iter().filter(|w| w.jobs > 0).count();
    assert!(
        busy >= 2,
        "stall hook must spread chunks over executors: {:?}",
        tel.worker_stats()
    );
    // The nondeterministic counters live in the telemetry plane only: the
    // Prometheus export carries them, the deterministic surfaces (asserted
    // byte-identical above) never do.
    let prom = tel.to_prometheus();
    for family in ["yashme_sched_jobs_total", "yashme_sched_batches_total"] {
        assert!(prom.contains(family), "missing prom family {family}");
    }
}

#[test]
fn random_mode_identical_across_workers_with_stealing_forced() {
    let mode = ExecMode::random(20, bench::HARNESS_SEED);
    let reference = surfaces(&EngineConfig::with_workers(1).with_trace(true), mode);
    jaaru::pool::set_stall_ms(1);
    for workers in [8usize, 0] {
        let got = surfaces(&EngineConfig::with_workers(workers).with_trace(true), mode);
        assert_eq!(
            reference, got,
            "random-mode surface diverged under forced stealing at workers={workers}"
        );
    }
    jaaru::pool::set_stall_ms(0);
}
