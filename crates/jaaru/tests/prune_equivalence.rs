//! Differential tests for crash-state equivalence pruning: the
//! `RunReport` — races, stats, metrics, `--json` rendering, and span
//! traces — must be byte-identical between pruned and exhaustive
//! suffix resumption, at every worker count, on the real benchmark suite
//! and on randomized programs. Mirrors `fork_equivalence.rs`, which pins
//! the same contract for fork mode against full re-execution.

use bench::workload::crashprune_workload;
use bench::{evaluation_suite, SuiteMode, HARNESS_SEED};
use jaaru::{Atomicity, Ctx, EngineConfig, ExecMode, ModelCheckConfig, Program, RunReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yashme::json::run_json;
use yashme::YashmeConfig;

/// Worker counts every comparison runs at: sequential, a small pool, and
/// one-per-CPU.
const WORKER_COUNTS: [usize; 3] = [1, 8, 0];

/// The full comparison surface of one run: the elapsed-free `--json`
/// document (races with provenance, labels, executions, crash points,
/// panics, dedup hits, metrics) plus the raw stats and race debug
/// renderings.
fn fingerprint(name: &str, report: &RunReport) -> String {
    format!(
        "{}\n{:?}\n{:?}",
        run_json(name, report, false).render(),
        report.stats(),
        report.races(),
    )
}

/// Simulated events this run physically executed: the logical event total
/// minus prefix events inherited from snapshots and minus suffix events
/// attributed to skipped class members rather than executed.
fn physical_events(report: &RunReport) -> u64 {
    report.stats().events()
        - report.fork_stats().prefix_events_skipped
        - report.prune_stats().events_attributed
}

fn check(program: &Program, mode: ExecMode, engine: &EngineConfig) -> RunReport {
    yashme::check(program, mode, YashmeConfig::default(), engine)
}

#[test]
fn pruned_matches_exhaustive_on_the_evaluation_suite() {
    for entry in evaluation_suite() {
        let mode = match entry.mode {
            SuiteMode::ModelCheck => ExecMode::model_check(),
            // Trimmed execution budget: equivalence needs identical runs,
            // not the paper's full detection budget.
            SuiteMode::Random(_) => ExecMode::random(5, HARNESS_SEED),
        };
        let program = (entry.program)();
        let exhaustive = check(
            &program,
            mode,
            &EngineConfig::sequential().with_prune(false),
        );
        let want = fingerprint(entry.name, &exhaustive);
        for workers in WORKER_COUNTS {
            let pruned = check(&program, mode, &EngineConfig::with_workers(workers));
            assert_eq!(
                fingerprint(entry.name, &pruned),
                want,
                "{}: pruned/workers={workers} diverged from exhaustive/sequential",
                entry.name
            );
            if matches!(entry.mode, SuiteMode::ModelCheck) {
                // The attribution contract: skipped members still count as
                // resumed runs, so the fork accounting is mode-invariant.
                assert_eq!(
                    pruned.fork_stats().resumed_runs,
                    pruned.executions() as u64 - 1,
                    "{}: every non-profile run resumed or attributed",
                    entry.name
                );
            }
        }
    }
}

#[test]
fn pruned_matches_exhaustive_on_the_crashprune_workload() {
    // The workload built to exercise pruning: redundant scrub passes give
    // guaranteed multi-member classes.
    let program = crashprune_workload(24, 4);
    let exhaustive = check(
        &program,
        ExecMode::model_check(),
        &EngineConfig::sequential().with_prune(false),
    );
    let full = check(
        &program,
        ExecMode::model_check(),
        &EngineConfig::sequential().with_fork(false),
    );
    let want = fingerprint("crashprune", &exhaustive);
    let exhaustive_resumed = exhaustive.fork_stats().resumed_runs;
    assert_eq!(
        fingerprint("crashprune", &full),
        want,
        "fork-off full replay is the ground truth both must match"
    );
    for workers in WORKER_COUNTS {
        let pruned = check(
            &program,
            ExecMode::model_check(),
            &EngineConfig::with_workers(workers),
        );
        assert_eq!(
            fingerprint("crashprune", &pruned),
            want,
            "workers {workers}"
        );
        let p = pruned.prune_stats();
        assert!(p.suffixes_skipped > 0, "pruning should actually engage");
        assert!(
            (p.representatives as usize) < pruned.crash_points(),
            "fewer representatives ({}) than crash points ({})",
            p.representatives,
            pruned.crash_points()
        );
        // Four scrub rounds give 10 crash points but 2 classes per record,
        // so pruning must resume at least 4x fewer suffixes and execute
        // strictly fewer events than exhaustive resumption.
        let resumed = pruned.fork_stats().resumed_runs - p.suffixes_skipped;
        assert!(
            resumed * 4 <= exhaustive_resumed,
            "pruned {resumed} resumed vs exhaustive {exhaustive_resumed}"
        );
        assert!(
            physical_events(&pruned) < physical_events(&exhaustive),
            "pruned {} events vs exhaustive {}",
            physical_events(&pruned),
            physical_events(&exhaustive)
        );
    }
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
                // A flush-heavy mix relative to `fork_equivalence.rs`: the
                // redundant re-flushes are what produce multi-member
                // classes for pruning to collapse.
                4..=6 => Op::Clflush { slot },
                7 => Op::Clwb { slot },
                8 => Op::Sfence,
                9 if slot % 3 == 0 => Op::Mfence,
                9 if slot % 3 == 1 => Op::Cas {
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

/// A randomized program in the style of `fork_equivalence.rs`: a pre-crash
/// phase of random store/flush/fence/CAS traffic (plus one spawned thread
/// for scheduler coverage), a recovery phase that also mutates and
/// flushes, and a final phase that scans every slot.
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
fn pruned_matches_exhaustive_on_randomized_programs() {
    for seed in 0..6u64 {
        let program = random_program(seed);
        let exhaustive = check(
            &program,
            ExecMode::model_check(),
            &EngineConfig::sequential().with_prune(false),
        );
        let want = fingerprint("randomized", &exhaustive);
        for workers in WORKER_COUNTS {
            let pruned = check(
                &program,
                ExecMode::model_check(),
                &EngineConfig::with_workers(workers),
            );
            assert_eq!(
                fingerprint("randomized", &pruned),
                want,
                "seed {seed} workers {workers}"
            );
        }
    }
}

#[test]
fn pruned_matches_exhaustive_with_crash_in_recovery() {
    let mode = ExecMode::ModelCheck(ModelCheckConfig {
        crash_in_recovery: true,
    });
    for seed in [1u64, 4] {
        let program = random_program(seed);
        let exhaustive = check(
            &program,
            mode,
            &EngineConfig::sequential().with_prune(false),
        );
        let want = fingerprint("randomized", &exhaustive);
        for workers in [1usize, 8] {
            let pruned = check(&program, mode, &EngineConfig::with_workers(workers));
            assert_eq!(
                fingerprint("randomized", &pruned),
                want,
                "seed {seed} workers {workers}"
            );
        }
    }
}

#[test]
fn pruned_matches_exhaustive_with_tracing() {
    // The tracing sink folds its virtual span clock into the crash-state
    // fingerprint, so two crash points only share a class when no span
    // landed between them — in which case the representative's suffix
    // spans are the member's suffix spans verbatim and the merged trace
    // stays byte-identical.
    let program = random_program(2);
    let cfg = |workers: usize, prune: bool| {
        EngineConfig::with_workers(workers)
            .with_trace(true)
            .with_prune(prune)
    };
    let exhaustive = check(&program, ExecMode::model_check(), &cfg(1, false));
    let want_trace = obs::to_chrome_json(exhaustive.trace().expect("trace"));
    let want = fingerprint("randomized", &exhaustive);
    for workers in [1usize, 8] {
        let pruned = check(&program, ExecMode::model_check(), &cfg(workers, true));
        assert_eq!(
            fingerprint("randomized", &pruned),
            want,
            "workers {workers}"
        );
        assert_eq!(
            obs::to_chrome_json(pruned.trace().expect("trace")),
            want_trace,
            "span trace must be byte-identical under pruning (workers {workers})"
        );
    }
}

#[test]
fn paranoid_mode_verifies_every_attribution() {
    // Paranoid mode executes every skipped member's suffix anyway and
    // panics if its outcome diverges from the attributed one — so merely
    // completing these runs proves the attribution rule on programs with
    // guaranteed multi-member classes.
    let heavy = crashprune_workload(12, 3);
    let paranoid = EngineConfig::sequential().with_prune_paranoid(true);
    let report = check(&heavy, ExecMode::model_check(), &paranoid);
    assert!(report.prune_stats().suffixes_skipped > 0);
    assert_eq!(
        fingerprint("crashprune", &report),
        fingerprint(
            "crashprune",
            &check(&heavy, ExecMode::model_check(), &EngineConfig::sequential())
        ),
        "paranoid mode must not change the report"
    );
    for seed in [0u64, 3] {
        let program = random_program(seed);
        let _ = check(&program, ExecMode::model_check(), &paranoid);
    }
}

/// Builds a single-phase program from `ops` with a post-crash scan.
fn straightline(ops: Vec<Op>) -> Program {
    Program::new("straightline")
        .pre_crash(move |ctx: &mut Ctx| apply(ctx, &ops))
        .post_crash(|ctx: &mut Ctx| {
            let base = ctx.root();
            for slot in 0..2u64 {
                let _ = ctx.load_u64(base + slot * 8, Atomicity::Plain);
            }
        })
}

fn classes_and_points(program: &Program) -> (u64, usize) {
    let report = check(
        program,
        ExecMode::model_check(),
        &EngineConfig::sequential(),
    );
    (report.prune_stats().classes, report.crash_points())
}

#[test]
fn state_changing_events_split_classes() {
    let store = |slot| Op::Store {
        slot,
        val: 7,
        release: false,
    };
    // A committed store between two crash points always splits them:
    // store; clflush (pt); sfence (pt); store; clflush (pt); sfence (pt)
    // — every point sees a distinct crash state.
    let (classes, points) = classes_and_points(&straightline(vec![
        store(0),
        Op::Clflush { slot: 0 },
        Op::Sfence,
        store(1),
        Op::Clflush { slot: 1 },
        Op::Sfence,
    ]));
    assert_eq!(points, 4);
    assert_eq!(
        classes, 4,
        "a store between points must split their classes"
    );

    // An effective (floor-raising) flush between two points splits them;
    // the redundant re-flush that follows does not.
    let (classes, points) = classes_and_points(&straightline(vec![
        store(0),
        Op::Clflush { slot: 0 },
        Op::Clflush { slot: 0 },
        Op::Clflush { slot: 0 },
    ]));
    assert_eq!(points, 3);
    assert_eq!(
        classes, 2,
        "the first flush splits; redundant re-flushes collapse"
    );

    // An effective fence (draining a pending clwb) splits the points
    // before and after it; the clwb itself — invisible at a crash until
    // fenced — does not.
    let (classes, points) = classes_and_points(&straightline(vec![
        store(0),
        Op::Clwb { slot: 0 },
        Op::Sfence,
        Op::Clflush { slot: 0 },
    ]));
    assert_eq!(points, 3);
    assert_eq!(
        classes, 2,
        "clwb leaves the crash state unchanged until the fence commits it"
    );
}
