//! Differential tests for streaming epoch GC: the `RunReport` — races,
//! stats, metrics, `--json` rendering, and span traces — must be
//! byte-identical between GC-on and GC-off runs, at every worker count, on
//! the real benchmark suite and the soak traffic. Mirrors
//! `prune_equivalence.rs` and `fork_equivalence.rs`, which pin the same
//! contract for the other physical strategies; randomized programs go
//! through the whole strategy matrix in `strategy_matrix.rs`.
//!
//! GC is aggressive here (`gc_every(1)`: a mark-sweep pass after every
//! committed store) so retirement happens constantly even on small
//! programs — the maximally hostile schedule for any "GC changed a
//! report" bug. The complementary unit tests live in `jaaru::mem`
//! (`gc_never_retires_an_unpersisted_store` et al.); these tests pin the
//! end-to-end contract, and the soak plateau test pins the bounded-memory
//! claim GC exists for.

mod common;

use bench::{evaluation_suite, SuiteMode, HARNESS_SEED};
use common::{check, fingerprint, random_program, STORE_HEAVY, WORKER_COUNTS};
use jaaru::obs::telemetry::Telemetry;
use jaaru::{Engine, EngineConfig, ExecMode, PersistencePolicy, SchedPolicy};
use yashme::{YashmeConfig, YashmeDetector};

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

#[test]
fn gc_actually_retires_state_on_these_programs() {
    // Guard against the equivalence suite passing vacuously: with a pass
    // per commit, the randomized programs must see real retirement work.
    let mut retired = 0;
    for seed in 0..6u64 {
        let report = check(
            &random_program(&STORE_HEAVY, seed),
            ExecMode::model_check(),
            &gc_hot(1),
        );
        let g = report.gc_stats();
        assert!(g.passes > 0, "seed {seed}: no GC pass ran");
        retired += g.events_retired + g.flushes_retired + g.line_entries_retired;
    }
    assert!(retired > 0, "no program retired anything — vacuous suite");
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
        let report = check(
            &random_program(&STORE_HEAVY, seed),
            ExecMode::model_check(),
            &paranoid,
        );
        assert_eq!(
            fingerprint("randomized", &report),
            fingerprint(
                "randomized",
                &check(
                    &random_program(&STORE_HEAVY, seed),
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
