//! Plane-separation contract for the wall-clock telemetry plane: the
//! logical report — race reports, span trace, metrics registry — is
//! byte-identical with telemetry fully on and fully off, at every worker
//! count. Telemetry is write-only observation; it must never perturb what
//! the checker reports.

use std::sync::Arc;

use jaaru::obs::telemetry::{start_reporter, ReporterConfig, Telemetry};
use jaaru::obs::to_chrome_json;
use jaaru::{Engine, EngineConfig, ExecMode};
use yashme::json::run_json;
use yashme::{YashmeConfig, YashmeDetector};

/// Every deterministic surface of a run, rendered to bytes: the run JSON
/// (elapsed excluded — wall clock is the one legitimately nondeterministic
/// field), the Chrome trace export, and the metrics registry.
fn surfaces(report: &yashme::RunReport) -> (String, Option<String>, String) {
    (
        run_json("CCEH", report, false).render(),
        report.trace().map(to_chrome_json),
        report.metrics().to_json().render(),
    )
}

/// Runs CCEH twice under `engine` — once plain, once with every telemetry
/// feature active (enabled handle, background reporter writing JSONL) —
/// and returns both reports plus the telemetry handle.
fn plain_vs_observed(
    mode: ExecMode,
    engine: &EngineConfig,
    tag: &str,
) -> (yashme::RunReport, yashme::RunReport, Arc<Telemetry>) {
    let program = recipe::cceh::program();
    let plain = yashme::check(&program, mode, YashmeConfig::default(), engine);
    let tel = Arc::new(Telemetry::new());
    let jsonl =
        std::env::temp_dir().join(format!("yashme-tel-eq-{}-{tag}.jsonl", std::process::id()));
    let reporter = start_reporter(
        &tel,
        ReporterConfig {
            jsonl: Some(Box::new(
                std::fs::File::create(&jsonl).expect("create the JSONL file"),
            )),
            label: "telemetry-equivalence".to_owned(),
            ..ReporterConfig::default()
        },
    );
    let observed = Engine::run_observed(
        &program,
        mode,
        &|| Box::new(YashmeDetector::with_defaults()),
        engine,
        &tel,
    );
    drop(reporter);
    let text = std::fs::read_to_string(&jsonl).expect("reporter wrote its JSONL file");
    let _ = std::fs::remove_file(&jsonl);
    assert!(
        !text.is_empty() && text.lines().all(|l| l.starts_with('{') && l.ends_with('}')),
        "JSONL snapshots are one object per line: {text:?}"
    );
    (plain, observed, tel)
}

#[test]
fn model_check_reports_identical_at_workers_1_8_auto() {
    for workers in [1usize, 8, 0] {
        let engine = EngineConfig::with_workers(workers).with_trace(true);
        let (plain, observed, tel) =
            plain_vs_observed(ExecMode::model_check(), &engine, &format!("mc-{workers}"));
        assert_eq!(
            surfaces(&plain),
            surfaces(&observed),
            "telemetry changed the logical report at workers={workers}"
        );
        assert!(
            plain.trace().is_some(),
            "trace surface must participate in the comparison"
        );
        assert!(tel.coverage() > 0.0, "telemetry observed the run");
    }
}

#[test]
fn random_mode_reports_identical_with_telemetry_on() {
    for workers in [1usize, 8] {
        let engine = EngineConfig::with_workers(workers).with_trace(true);
        let (plain, observed, _) = plain_vs_observed(
            ExecMode::random(20, bench::HARNESS_SEED),
            &engine,
            &format!("rnd-{workers}"),
        );
        assert_eq!(
            surfaces(&plain),
            surfaces(&observed),
            "telemetry changed the random-mode report at workers={workers}"
        );
    }
}

#[test]
fn disabled_handle_is_the_plain_path() {
    let program = recipe::cceh::program();
    let engine = EngineConfig::with_workers(2).with_trace(true);
    let plain = yashme::check(
        &program,
        ExecMode::model_check(),
        YashmeConfig::default(),
        &engine,
    );
    let observed = Engine::run_observed(
        &program,
        ExecMode::model_check(),
        &|| Box::new(YashmeDetector::with_defaults()),
        &engine,
        Telemetry::off(),
    );
    assert_eq!(surfaces(&plain), surfaces(&observed));
}

#[test]
fn profile_attributes_nearly_all_wall_time_to_named_phases() {
    let program = recipe::cceh::program();
    let tel = Arc::new(Telemetry::new());
    let _ = Engine::run_observed(
        &program,
        ExecMode::model_check(),
        &|| Box::new(YashmeDetector::with_defaults()),
        &EngineConfig::sequential(),
        &tel,
    );
    let coverage = tel.coverage();
    assert!(
        coverage >= 0.95,
        "named phases must cover >= 95% of the run's wall time, got {coverage:.3}"
    );
    let profile = tel.render_profile();
    assert!(profile.contains("profile-run"), "{profile}");
    assert!(profile.contains("coverage"), "{profile}");
}

#[test]
fn prometheus_exposition_reflects_the_run() {
    let program = recipe::cceh::program();
    let tel = Arc::new(Telemetry::new());
    let report = Engine::run_observed(
        &program,
        ExecMode::model_check(),
        &|| Box::new(YashmeDetector::with_defaults()),
        &EngineConfig::with_workers(2),
        &tel,
    );
    let prom = tel.to_prometheus();
    for metric in [
        "yashme_events_total",
        "yashme_executions_total",
        "yashme_phase_seconds_total",
        "yashme_crash_points_done_total",
        "yashme_wall_seconds_total",
    ] {
        assert!(prom.contains(metric), "missing {metric} in:\n{prom}");
    }
    // The telemetry counter tracks *physical* executions; equivalence
    // pruning means the report's logical count can exceed it, but the
    // plane must have seen at least one and never more than the report.
    let executions: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("yashme_executions_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("executions counter present");
    assert!(
        executions > 0 && executions <= report.executions() as u64,
        "physical executions {executions} vs logical {}",
        report.executions()
    );
}
