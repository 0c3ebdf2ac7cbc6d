//! Determinism contract for the parallel fan-out: with the stall hook
//! spreading items over every executor and completing them out of item
//! order, every deterministic surface — race reports, span trace, metrics
//! registry, coverage JSON — stays byte-identical across workers 1/8/auto.
//! The fan-out moves where and when jobs execute; it must never move what
//! they compute or how their results merge.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use jaaru::obs::telemetry::Telemetry;
use jaaru::obs::to_chrome_json;
use jaaru::{Engine, EngineConfig, ExecMode};
use yashme::json::{coverage_doc, run_json};
use yashme::{YashmeConfig, YashmeDetector};

/// Serializes the stall windows: every test here sets the process-global
/// stall hook, and without this one test's reset could end another's window.
static STALL: Mutex<()> = Mutex::new(());

/// Holds the stall hook at 1 ms per item while alive. Dropping it, also
/// when an assertion fails first, resets the hook and then frees the lock.
struct StallWindow {
    _lock: MutexGuard<'static, ()>,
}

impl StallWindow {
    fn open() -> Self {
        // A test that failed inside its window poisons the lock; the `()`
        // it guards cannot be left invalid, so the other tests go on.
        let _lock = STALL.lock().unwrap_or_else(PoisonError::into_inner);
        jaaru::pool::set_stall_ms(1);
        StallWindow { _lock }
    }
}

impl Drop for StallWindow {
    fn drop(&mut self) {
        jaaru::pool::set_stall_ms(0);
    }
}

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
    let _stall = StallWindow::open();
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
}

#[test]
fn stealing_actually_happens_under_the_stall_hook() {
    // The companion to the byte-identity test: prove the items really were
    // spread over several executors, via the wall-clock telemetry plane.
    let program = recipe::cceh::program();
    let tel = Arc::new(Telemetry::new());
    let report = {
        let _stall = StallWindow::open();
        Engine::run_observed(
            &program,
            ExecMode::model_check(),
            &|| Box::new(YashmeDetector::with_defaults()),
            &EngineConfig::with_workers(8),
            &tel,
        )
    };
    assert!(!report.races().is_empty(), "CCEH reports its known races");
    let sched = tel.sched_counters();
    assert!(sched.jobs > 0, "suffix jobs went through the scheduler");
    assert!(sched.batches > 0, "jobs ran in batches");
    let busy = tel.worker_stats().iter().filter(|w| w.jobs > 0).count();
    assert!(
        busy >= 2,
        "stall hook must spread items over executors: {:?}",
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
    let _stall = StallWindow::open();
    for workers in [8usize, 0] {
        let got = surfaces(&EngineConfig::with_workers(workers).with_trace(true), mode);
        assert_eq!(
            reference, got,
            "random-mode surface diverged under forced stealing at workers={workers}"
        );
    }
}
