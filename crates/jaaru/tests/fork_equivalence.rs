//! Differential tests for checkpoint/fork crash-point exploration: the
//! `RunReport` — races, stats, metrics, `--json` rendering, and span
//! traces — must be byte-identical between fork mode and full
//! re-execution, at every worker count, on the real benchmark suite and
//! on randomized programs.

use bench::workload::crashprune_workload;
use bench::{evaluation_suite, SuiteMode, HARNESS_SEED};
use jaaru::obs::Telemetry;
use jaaru::{Atomicity, Ctx, Engine, EngineConfig, ExecMode, ModelCheckConfig, Program, RunReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yashme::json::run_json;
use yashme::YashmeConfig;

/// Worker counts every comparison runs at: sequential, a small pool, and
/// one-per-CPU.
const WORKER_COUNTS: [usize; 3] = [1, 8, 0];

/// The full comparison surface of one run: the elapsed-free `--json`
/// document (races with provenance, labels, executions, crash points,
/// panics, dedup hits, metrics) plus the raw stats debug rendering.
fn fingerprint(name: &str, report: &RunReport) -> String {
    format!(
        "{}\n{:?}\n{:?}",
        run_json(name, report, false).render(),
        report.stats(),
        report.races(),
    )
}

fn check(program: &Program, mode: ExecMode, engine: &EngineConfig) -> RunReport {
    yashme::check(program, mode, YashmeConfig::default(), engine)
}

#[test]
fn fork_matches_full_on_the_evaluation_suite() {
    for entry in evaluation_suite() {
        let mode = match entry.mode {
            SuiteMode::ModelCheck => ExecMode::model_check(),
            // Trimmed execution budget: equivalence needs identical runs,
            // not the paper's full detection budget.
            SuiteMode::Random(_) => ExecMode::random(5, HARNESS_SEED),
        };
        let program = (entry.program)();
        let baseline = check(&program, mode, &EngineConfig::sequential().with_fork(false));
        let want = fingerprint(entry.name, &baseline);
        for workers in WORKER_COUNTS {
            let fork = check(&program, mode, &EngineConfig::with_workers(workers));
            assert_eq!(
                fingerprint(entry.name, &fork),
                want,
                "{}: fork/workers={workers} diverged from full/sequential",
                entry.name
            );
            if matches!(entry.mode, SuiteMode::ModelCheck) {
                assert!(
                    fork.fork_stats().snapshots > 0,
                    "{}: fork mode should actually engage",
                    entry.name
                );
                assert_eq!(
                    fork.fork_stats().resumed_runs,
                    fork.executions() as u64 - 1,
                    "{}: every non-profile run should resume from a snapshot",
                    entry.name
                );
            }
            let full = check(
                &program,
                mode,
                &EngineConfig::with_workers(workers).with_fork(false),
            );
            assert_eq!(
                fingerprint(entry.name, &full),
                want,
                "{}: full/workers={workers} diverged from full/sequential",
                entry.name
            );
        }
    }
}

#[test]
fn fork_executes_strictly_fewer_events_on_a_crash_dense_log() {
    // An append log with two crash points per record and no scrub rounds:
    // full re-execution replays an O(records) prefix at each crash point,
    // fork mode executes the prefix once and replays only the suffixes.
    let program = crashprune_workload(32, 0);
    let mode = ExecMode::model_check();
    let fork = check(
        &program,
        mode,
        &EngineConfig::sequential().with_prune(false),
    );
    let full = check(&program, mode, &EngineConfig::sequential().with_fork(false));
    assert_eq!(
        fingerprint("crashlog", &fork),
        fingerprint("crashlog", &full)
    );
    assert!(fork.fork_stats().snapshots > 0, "fork mode should engage");
    // Logical stats are identical (checked above); what fork mode saves is
    // the prefix it never re-executes.
    let physical = fork.stats().events() - fork.fork_stats().prefix_events_skipped;
    assert!(
        physical < full.stats().events(),
        "fork {physical} events vs full {}",
        full.stats().events()
    );
}

#[test]
#[ignore = "wall-clock comparison; run explicitly with -- --ignored on an idle host"]
fn fork_is_faster_in_wall_clock() {
    let program = crashprune_workload(192, 0);
    let mode = ExecMode::model_check();
    let timed = |engine: &EngineConfig| {
        let start = std::time::Instant::now();
        check(&program, mode, engine);
        start.elapsed()
    };
    let fork_time = timed(&EngineConfig::sequential());
    let full_time = timed(&EngineConfig::sequential().with_fork(false));
    assert!(
        fork_time < full_time,
        "fork {fork_time:?} should beat full {full_time:?}"
    );
}

/// One operation of the randomized-program language. Offsets are 8-byte
/// slots inside the root region.
#[derive(Debug, Clone, Copy)]
enum Op {
    Store { slot: u64, val: u64, release: bool },
    Load { slot: u64, acquire: bool },
    Clflush { slot: u64 },
    Clwb { slot: u64 },
    Sfence,
    Mfence,
    Cas { slot: u64, expected: u64, new: u64 },
    FetchAdd { slot: u64, delta: u64 },
}

const SLOTS: u64 = 24;

fn random_ops(rng: &mut StdRng, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let slot = rng.gen_range(0..SLOTS);
            match rng.gen_range(0..10u32) {
                0..=2 => Op::Store {
                    slot,
                    val: rng.gen_range(1..1000),
                    release: rng.gen_range(0..2) == 0,
                },
                3 => Op::Load {
                    slot,
                    acquire: rng.gen_range(0..2) == 0,
                },
                4..=5 => Op::Clflush { slot },
                6 => Op::Clwb { slot },
                7 => Op::Sfence,
                8 => Op::Mfence,
                9 if slot % 2 == 0 => Op::Cas {
                    slot,
                    expected: 0,
                    new: rng.gen_range(1..100),
                },
                _ => Op::FetchAdd {
                    slot,
                    delta: rng.gen_range(1..5),
                },
            }
        })
        .collect()
}

fn apply(ctx: &mut Ctx, ops: &[Op]) {
    let base = ctx.root();
    for op in ops {
        match *op {
            Op::Store { slot, val, release } => {
                let atom = if release {
                    Atomicity::ReleaseAcquire
                } else {
                    Atomicity::Plain
                };
                ctx.store_u64(base + slot * 8, val, atom, "rand.slot");
            }
            Op::Load { slot, acquire } => {
                let atom = if acquire {
                    Atomicity::ReleaseAcquire
                } else {
                    Atomicity::Plain
                };
                let _ = ctx.load_u64(base + slot * 8, atom);
            }
            Op::Clflush { slot } => ctx.clflush(base + slot * 8),
            Op::Clwb { slot } => ctx.clwb(base + slot * 8),
            Op::Sfence => ctx.sfence(),
            Op::Mfence => ctx.mfence(),
            Op::Cas {
                slot,
                expected,
                new,
            } => {
                let _ = ctx.cas_u64(base + slot * 8, expected, new, "rand.cas");
            }
            Op::FetchAdd { slot, delta } => {
                let _ = ctx.fetch_add_u64(base + slot * 8, delta, "rand.faa");
            }
        }
    }
}

/// A randomized program in the style of the `mem_ref_model` op language:
/// a pre-crash phase of random store/flush/fence/CAS traffic (plus one
/// spawned thread for scheduler coverage), a recovery phase that also
/// mutates and flushes, and a final phase that scans every slot.
fn random_program(seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let pre = random_ops(&mut rng, 28);
    let spawned = random_ops(&mut rng, 6);
    let recovery = random_ops(&mut rng, 10);
    Program::new("randomized")
        .pre_crash(move |ctx: &mut Ctx| {
            let child_ops = spawned.clone();
            let h = ctx.spawn(move |ctx2: &mut Ctx| apply(ctx2, &child_ops));
            apply(ctx, &pre);
            ctx.join(h);
        })
        .phase(move |ctx: &mut Ctx| apply(ctx, &recovery))
        .phase(|ctx: &mut Ctx| {
            let base = ctx.root();
            for slot in 0..SLOTS {
                let _ = ctx.load_u64(base + slot * 8, Atomicity::Plain);
            }
        })
}

#[test]
fn fork_matches_full_on_randomized_programs() {
    for seed in 0..6u64 {
        let program = random_program(seed);
        let baseline = check(
            &program,
            ExecMode::model_check(),
            &EngineConfig::sequential().with_fork(false),
        );
        let want = fingerprint("randomized", &baseline);
        for workers in WORKER_COUNTS {
            let fork = check(
                &program,
                ExecMode::model_check(),
                &EngineConfig::with_workers(workers),
            );
            assert_eq!(
                fingerprint("randomized", &fork),
                want,
                "seed {seed} workers {workers}"
            );
        }
    }
}

#[test]
fn fork_matches_full_with_crash_in_recovery() {
    let mode = ExecMode::ModelCheck(ModelCheckConfig {
        crash_in_recovery: true,
    });
    for seed in [1u64, 4] {
        let program = random_program(seed);
        let baseline = check(&program, mode, &EngineConfig::sequential().with_fork(false));
        let want = fingerprint("randomized", &baseline);
        for workers in [1usize, 8] {
            let fork = check(&program, mode, &EngineConfig::with_workers(workers));
            assert_eq!(
                fingerprint("randomized", &fork),
                want,
                "seed {seed} workers {workers}"
            );
            assert!(fork.fork_stats().snapshots > 0);
        }
    }
}

#[test]
fn fork_matches_full_with_tracing() {
    let program = random_program(2);
    let trace_cfg = |workers: usize, fork: bool| {
        EngineConfig::with_workers(workers)
            .with_trace(true)
            .with_fork(fork)
    };
    let baseline = check(&program, ExecMode::model_check(), &trace_cfg(1, false));
    let want_trace = obs::to_chrome_json(baseline.trace().expect("trace"));
    let want = fingerprint("randomized", &baseline);
    for workers in [1usize, 8] {
        let fork = check(&program, ExecMode::model_check(), &trace_cfg(workers, true));
        assert_eq!(fingerprint("randomized", &fork), want, "workers {workers}");
        assert_eq!(
            obs::to_chrome_json(fork.trace().expect("trace")),
            want_trace,
            "span trace must be byte-identical in fork mode (workers {workers})"
        );
    }
}

#[test]
fn unforkable_sink_falls_back_to_full_replay() {
    // A sink that keeps the default `fork_sink` (None): the engine must
    // quietly fall back to one full re-execution per crash point and still
    // produce the exact no-fork report.
    struct PlainSink;
    impl jaaru::EventSink for PlainSink {}

    let program = random_program(3);
    let run = |config: &EngineConfig| {
        Engine::run_observed(
            &program,
            ExecMode::model_check(),
            &|| Box::new(PlainSink),
            config,
            Telemetry::off(),
        )
    };
    let fork = run(&EngineConfig::sequential());
    let full = run(&EngineConfig::sequential().with_fork(false));
    assert_eq!(
        fork.metrics().to_json().render(),
        full.metrics().to_json().render()
    );
    assert_eq!(format!("{:?}", fork.stats()), format!("{:?}", full.stats()));
    assert_eq!(fork.fork_stats().snapshots, 0, "no snapshot could be kept");
    assert_eq!(fork.fork_stats().resumed_runs, 0);
}
