//! The strategy matrix: every randomized program, under every combination
//! of the engine's physical strategies — fork × capture policy × GC ×
//! workers × tracing — must produce a report (and, traced, a span trace)
//! byte-identical to the all-off sequential reference: full re-execution,
//! no pruning, no GC, one worker. The per-strategy suites
//! (`fork_equivalence.rs`, `prune_equivalence.rs`, `gc_equivalence.rs`)
//! keep the evaluation-suite comparisons and the special-purpose checks.

mod common;

use common::{check, fingerprint, random_program, Mix, MIXES, WORKER_COUNTS};
use jaaru::{EngineConfig, ExecMode, ModelCheckConfig, PruneStats};

/// How the profile run captures snapshots, set through the prune flags.
const CAPTURES: [(&str, bool, bool); 3] = [
    // (name, prune, prune_paranoid)
    ("representatives", true, false),
    ("every-point", false, false),
    ("paranoid", true, true),
];

/// GC off, a pass after every commit, and that plus the un-GC'd shadow
/// detector in lockstep.
const GC_MODES: [(&str, bool, bool); 3] = [
    // (name, gc, gc_paranoid)
    ("off", false, false),
    ("every-1", true, false),
    ("paranoid", true, true),
];

fn run_matrix(mode: ExecMode, seeds: &[u64]) {
    for mix in &MIXES {
        for &seed in seeds {
            check_program(mix, seed, mode);
        }
    }
}

fn check_program(mix: &Mix, seed: u64, mode: ExecMode) {
    let program = random_program(mix, seed);
    for trace in [false, true] {
        let reference = check(
            &program,
            mode,
            &EngineConfig::sequential()
                .with_fork(false)
                .with_prune(false)
                .with_gc(false)
                .with_trace(trace),
        );
        let want = fingerprint("randomized", &reference);
        let want_trace = reference.trace().map(obs::to_chrome_json);
        for fork in [false, true] {
            for (capture, prune, paranoid) in CAPTURES {
                for (gc_mode, gc, gc_paranoid) in GC_MODES {
                    for workers in WORKER_COUNTS {
                        let config = EngineConfig::with_workers(workers)
                            .with_fork(fork)
                            .with_prune(prune)
                            .with_prune_paranoid(paranoid)
                            .with_gc(gc)
                            .with_gc_every(1)
                            .with_gc_paranoid(gc_paranoid)
                            .with_trace(trace);
                        let at = format!(
                            "{} seed {seed}: fork={fork} capture={capture} gc={gc_mode} \
                             workers={workers} trace={trace}",
                            mix.name
                        );
                        let report = check(&program, mode, &config);
                        assert_eq!(fingerprint("randomized", &report), want, "{at}");
                        assert_eq!(
                            report.trace().map(obs::to_chrome_json),
                            want_trace,
                            "{at}: span trace"
                        );
                        if fork {
                            assert!(report.fork_stats().snapshots > 0, "{at}: fork engaged");
                            assert_eq!(
                                report.fork_stats().resumed_runs,
                                report.executions() as u64 - 1,
                                "{at}: every non-profile run resumed or attributed"
                            );
                        }
                        let pruned = *report.prune_stats();
                        if fork && prune {
                            assert!(pruned.classes > 0, "{at}: pruning engaged");
                        } else {
                            assert_eq!(pruned, PruneStats::default(), "{at}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn every_strategy_matches_the_reference_on_randomized_programs() {
    run_matrix(ExecMode::model_check(), &[0, 1, 2, 3, 4, 5]);
}

#[test]
fn every_strategy_matches_the_reference_with_crash_in_recovery() {
    let mode = ExecMode::ModelCheck(ModelCheckConfig {
        crash_in_recovery: true,
    });
    run_matrix(mode, &[1, 4]);
}
