//! Differential tests for streaming epoch GC: the `RunReport` — races,
//! stats, metrics, `--json` rendering, and span traces — must be
//! byte-identical between GC-on and GC-off runs, at every worker count, on
//! the real benchmark suite and on randomized programs. Mirrors
//! `prune_equivalence.rs` and `fork_equivalence.rs`, which pin the same
//! contract for the other physical strategies.
//!
//! GC is aggressive here (`gc_every(1)`: a mark-sweep pass after every
//! committed store) so retirement happens constantly even on small
//! programs — the maximally hostile schedule for any "GC changed a
//! report" bug. The complementary unit tests live in `jaaru::mem`
//! (`gc_never_retires_an_unpersisted_store` et al.); these tests pin the
//! end-to-end contract, and the soak plateau test pins the bounded-memory
//! claim GC exists for.

use bench::{evaluation_suite, SuiteMode, HARNESS_SEED};
use jaaru::obs::telemetry::Telemetry;
use jaaru::{
    Atomicity, Ctx, Engine, EngineConfig, ExecMode, PersistencePolicy, Program, RunReport,
    SchedPolicy,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yashme::json::run_json;
use yashme::{YashmeConfig, YashmeDetector};

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

fn check(program: &Program, mode: ExecMode, engine: &EngineConfig) -> RunReport {
    yashme::check(program, mode, YashmeConfig::default(), engine)
}

/// GC at its most aggressive: a pass after every commit.
fn gc_hot(workers: usize) -> EngineConfig {
    EngineConfig::with_workers(workers).with_gc_every(1)
}

#[test]
fn gc_matches_unbounded_on_the_evaluation_suite() {
    for entry in evaluation_suite() {
        let mode = match entry.mode {
            SuiteMode::ModelCheck => ExecMode::model_check(),
            // Trimmed execution budget: equivalence needs identical runs,
            // not the paper's full detection budget.
            SuiteMode::Random(_) => ExecMode::random(5, HARNESS_SEED),
        };
        let program = (entry.program)();
        let unbounded = check(&program, mode, &EngineConfig::sequential().with_gc(false));
        let want = fingerprint(entry.name, &unbounded);
        for workers in WORKER_COUNTS {
            let streamed = check(&program, mode, &gc_hot(workers));
            assert_eq!(
                fingerprint(entry.name, &streamed),
                want,
                "{}: gc/workers={workers} diverged from unbounded/sequential",
                entry.name
            );
        }
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
                // Store-and-flush heavy: overwrites of already-persisted
                // slots are exactly what retirement feeds on, and loads of
                // retired-then-reused addresses are the readback hazard.
                0..=3 => Op::Store {
                    slot,
                    val: rng.gen_range(1..1000),
                    release: rng.gen_range(0..2) == 0,
                },
                4 => Op::Load {
                    slot,
                    acquire: rng.gen_range(0..2) == 0,
                },
                5..=6 => Op::Clflush { slot },
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

/// A randomized program in the style of the sibling equivalence suites: a
/// pre-crash phase of random store/flush/fence/CAS traffic (plus one
/// spawned thread for scheduler coverage), a recovery phase that also
/// mutates and flushes, and a final phase that scans every slot — the
/// scans force post-crash loads of addresses whose history GC may have
/// retired.
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
fn gc_matches_unbounded_on_randomized_programs() {
    for seed in 0..6u64 {
        let program = random_program(seed);
        let unbounded = check(
            &program,
            ExecMode::model_check(),
            &EngineConfig::sequential().with_gc(false),
        );
        let want = fingerprint("randomized", &unbounded);
        for workers in WORKER_COUNTS {
            let streamed = check(&program, ExecMode::model_check(), &gc_hot(workers));
            assert_eq!(
                fingerprint("randomized", &streamed),
                want,
                "seed {seed} workers {workers}"
            );
        }
    }
}

#[test]
fn gc_actually_retires_state_on_these_programs() {
    // Guard against the equivalence suite passing vacuously: with a pass
    // per commit, the randomized programs must see real retirement work.
    let mut retired = 0;
    for seed in 0..6u64 {
        let report = check(&random_program(seed), ExecMode::model_check(), &gc_hot(1));
        let g = report.gc_stats();
        assert!(g.passes > 0, "seed {seed}: no GC pass ran");
        retired += g.events_retired + g.flushes_retired + g.line_entries_retired;
    }
    assert!(retired > 0, "no program retired anything — vacuous suite");
}

#[test]
fn gc_matches_unbounded_with_tracing() {
    // The span trace rides the same event stream; retirement must neither
    // tick the virtual span clock nor reorder spans.
    let program = random_program(2);
    let cfg = |workers: usize, gc: bool| {
        let c = EngineConfig::with_workers(workers).with_trace(true);
        if gc {
            c.with_gc_every(1)
        } else {
            c.with_gc(false)
        }
    };
    let unbounded = check(&program, ExecMode::model_check(), &cfg(1, false));
    let want_trace = obs::to_chrome_json(unbounded.trace().expect("trace"));
    let want = fingerprint("randomized", &unbounded);
    for workers in [1usize, 8] {
        let streamed = check(&program, ExecMode::model_check(), &cfg(workers, true));
        assert_eq!(
            fingerprint("randomized", &streamed),
            want,
            "workers {workers}"
        );
        assert_eq!(
            obs::to_chrome_json(streamed.trace().expect("trace")),
            want_trace,
            "span trace must be byte-identical under GC (workers {workers})"
        );
    }
}

#[test]
fn paranoid_mode_runs_an_ungc_shadow_in_lockstep() {
    // Paranoid mode drives an un-GC'd shadow detector from the same event
    // stream and panics at drain time if the reports differ — so merely
    // completing these runs proves the retired state never fed a report.
    let paranoid = EngineConfig::sequential()
        .with_gc_every(1)
        .with_gc_paranoid(true);
    for seed in [0u64, 2, 5] {
        let report = check(&random_program(seed), ExecMode::model_check(), &paranoid);
        assert_eq!(
            fingerprint("randomized", &report),
            fingerprint(
                "randomized",
                &check(
                    &random_program(seed),
                    ExecMode::model_check(),
                    &EngineConfig::sequential().with_gc(false),
                )
            ),
            "seed {seed}: paranoid mode must not change the report"
        );
    }
}

#[test]
fn gc_matches_unbounded_on_the_soak_traffic() {
    // The workload the streaming mode exists for: zipfian multi-client
    // traffic over the memcached port, shrunk to test scale.
    let cfg = apps::traffic::TrafficConfig {
        clients: 2,
        ops_per_client: 400,
        keys: 32,
        batch: 16,
        ..apps::traffic::TrafficConfig::default()
    };
    let program = apps::traffic::soak_program(cfg);
    let mode = ExecMode::random(3, HARNESS_SEED);
    let unbounded = check(&program, mode, &EngineConfig::sequential().with_gc(false));
    let want = fingerprint("soak", &unbounded);
    for workers in [1usize, 8] {
        let streamed = check(&program, mode, &gc_hot(workers));
        assert_eq!(fingerprint("soak", &streamed), want, "workers {workers}");
    }
}

#[test]
fn gc_keeps_peak_live_events_flat_as_the_soak_trace_grows() {
    // The bounded-memory claim: with GC on, a 12x longer soak session must
    // not grow the peak number of live event-table slots. Scale matters —
    // at 40,000 ops the peak is flat (~1.03x), while below ~24,000 ops
    // warm-up still dominates it and the ratio climbs past the bound.
    let soak = |total_ops: u64| {
        let cfg = apps::traffic::TrafficConfig {
            clients: 4,
            ops_per_client: total_ops / 4,
            keys: 256,
            ..apps::traffic::TrafficConfig::default()
        };
        let run = Engine::run_single_observed(
            &apps::traffic::soak_program(cfg),
            SchedPolicy::RandomChoice,
            PersistencePolicy::Random,
            HARNESS_SEED,
            None,
            Box::new(YashmeDetector::new(YashmeConfig::default())),
            &EngineConfig::default(),
            Telemetry::off(),
        );
        (run.stats.events(), run.gc.peak_live_events)
    };
    let (small_events, small_peak) = soak(40_000 / 12);
    let (full_events, full_peak) = soak(40_000);
    let event_growth = full_events as f64 / small_events.max(1) as f64;
    let peak_growth = full_peak as f64 / small_peak.max(1) as f64;
    // The peak gauge is only kept while GC runs; a zero peak means the run
    // was not bounded at all, not that it was bounded perfectly.
    assert!(
        small_peak > 0 && event_growth >= 10.0 && peak_growth <= 1.5,
        "events {small_events} -> {full_events} ({event_growth:.2}x), \
         peak live events {small_peak} -> {full_peak} ({peak_growth:.2}x)"
    );
}
