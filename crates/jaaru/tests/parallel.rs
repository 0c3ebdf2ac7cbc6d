//! The parallel crash-point exploration engine: worker pools must produce
//! byte-identical reports to sequential runs, for every mode.

use jaaru::obs::Telemetry;
use jaaru::{Atomicity, Ctx, Engine, EngineConfig, ExecMode, Program, RaceReport};
use yashme::YashmeDetector;

/// A small multi-store program with several crash points and a racy store,
/// so model checking has real fan-out to distribute.
fn racy_program() -> Program {
    Program::new("racy")
        .pre_crash(|ctx: &mut Ctx| {
            let base = ctx.root();
            for i in 0..6u64 {
                ctx.store_u64(base + i * 8, i + 1, Atomicity::Plain, "slot");
                ctx.clflush(base + i * 8);
                ctx.sfence();
            }
            ctx.store_u64(base + 64, 7, Atomicity::Plain, "tail");
            ctx.clflush(base + 64);
        })
        .post_crash(|ctx: &mut Ctx| {
            let base = ctx.root();
            for i in 0..6u64 {
                let _ = ctx.load_u64(base + i * 8, Atomicity::Plain);
            }
            let _ = ctx.load_u64(base + 64, Atomicity::Plain);
        })
}

fn detector_factory() -> Box<dyn jaaru::EventSink> {
    Box::new(YashmeDetector::with_defaults())
}

fn fingerprint(races: &[RaceReport]) -> Vec<(jaaru::ReportKind, &'static str)> {
    races.iter().map(|r| (r.kind(), r.label())).collect()
}

#[test]
fn model_check_reports_identical_across_worker_counts() {
    let program = racy_program();
    let seq = Engine::run_observed(
        &program,
        ExecMode::model_check(),
        &detector_factory,
        &EngineConfig::with_workers(1),
        Telemetry::off(),
    );
    for workers in [2, 8] {
        let par = Engine::run_observed(
            &program,
            ExecMode::model_check(),
            &detector_factory,
            &EngineConfig::with_workers(workers),
            Telemetry::off(),
        );
        assert_eq!(
            fingerprint(seq.races()),
            fingerprint(par.races()),
            "workers={workers}"
        );
        assert_eq!(seq.executions(), par.executions(), "workers={workers}");
        assert_eq!(seq.crash_points(), par.crash_points(), "workers={workers}");
    }
}

#[test]
fn random_mode_reports_identical_across_worker_counts() {
    let program = racy_program();
    let seq = Engine::run_observed(
        &program,
        ExecMode::random(12, 42),
        &detector_factory,
        &EngineConfig::with_workers(1),
        Telemetry::off(),
    );
    let par = Engine::run_observed(
        &program,
        ExecMode::random(12, 42),
        &detector_factory,
        &EngineConfig::with_workers(8),
        Telemetry::off(),
    );
    assert_eq!(fingerprint(seq.races()), fingerprint(par.races()));
    assert_eq!(seq.executions(), par.executions());
    assert_eq!(seq.crash_points(), par.crash_points());
}

#[test]
fn schedule_exploration_identical_across_worker_counts() {
    // Two racing threads create several branch points; wave-parallel BFS
    // must visit the same schedules as the sequential queue.
    let program = Program::new("branchy").pre_crash(|ctx: &mut Ctx| {
        let a = ctx.root();
        let h1 = ctx.spawn(move |t: &mut Ctx| {
            t.store_u64(a, 1, Atomicity::Plain, "a");
            let _ = t.load_u64(a + 8, Atomicity::Plain);
        });
        let h2 = ctx.spawn(move |t: &mut Ctx| {
            t.store_u64(a + 8, 2, Atomicity::Plain, "b");
            let _ = t.load_u64(a, Atomicity::Plain);
        });
        ctx.join(h1);
        ctx.join(h2);
    });
    let explore = |workers| {
        let report = Engine::run_observed(
            &program,
            ExecMode::Explore {
                crash_target: None,
                max_runs: 40,
            },
            &|| Box::new(jaaru::NullSink),
            &EngineConfig::with_workers(workers),
            Telemetry::off(),
        );
        (report.races().to_vec(), report.executions())
    };
    let (seq_reports, seq_runs) = explore(1);
    let (par_reports, par_runs) = explore(8);
    assert_eq!(seq_runs, par_runs);
    assert_eq!(fingerprint(&seq_reports), fingerprint(&par_reports));
}

#[test]
fn auto_worker_count_resolves_to_cpu_count() {
    let auto = EngineConfig::with_workers(0).resolved_workers();
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    assert_eq!(auto, cpus);
    assert_eq!(EngineConfig::default().resolved_workers(), 1);
}

/// Wall-clock throughput smoke test. Ignored by default: it needs a
/// multi-core host (CI containers here expose a single CPU, where a worker
/// pool cannot beat sequential) and a quiet machine.
/// Run with: `cargo test --release -p jaaru -- --ignored`.
#[test]
#[ignore = "requires a multi-core host; run explicitly with -- --ignored"]
fn parallel_model_check_is_faster_on_multicore() {
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    if cpus < 2 {
        eprintln!("skipping throughput assertion: only {cpus} CPU(s) available");
        return;
    }
    let program = racy_program();
    let time = |workers: usize| {
        let start = std::time::Instant::now();
        for _ in 0..20 {
            let _ = Engine::run_observed(
                &program,
                ExecMode::model_check(),
                &detector_factory,
                &EngineConfig::with_workers(workers),
                Telemetry::off(),
            );
        }
        start.elapsed()
    };
    let sequential = time(1);
    let parallel = time(cpus.min(4));
    assert!(
        parallel < sequential,
        "parallel ({parallel:?}) should beat sequential ({sequential:?}) on {cpus} CPUs"
    );
}
