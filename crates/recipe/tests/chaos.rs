//! Chaos testing: under random schedules, random persistence cuts, and
//! crashes at every point, recovery code may read torn pointers and
//! garbage — the engine must capture any resulting panic as a symptom
//! (§7.2's segfault/assertion-failure classes) and keep exploring, and the
//! detector must keep producing only known race labels.

use std::collections::BTreeSet;

use jaaru::{Engine, EngineConfig, ExecMode, PersistencePolicy, SchedPolicy};
use yashme::{YashmeConfig, YashmeDetector};

#[test]
fn random_mode_survives_every_benchmark() {
    for spec in recipe::all_benchmarks() {
        let report = yashme::check(
            &(spec.program)(),
            ExecMode::random(30, 99),
            YashmeConfig::default(),
            &EngineConfig::default(),
        );
        // Whatever garbage recovery read, every reported *race* label must
        // be one of the benchmark's known racy fields.
        let known: BTreeSet<&str> = spec.expected_races.iter().copied().collect();
        for label in report.race_labels() {
            assert!(
                known.contains(label),
                "{}: unexpected race label {label}",
                spec.name
            );
        }
    }
}

#[test]
fn floor_only_crashes_never_hang_or_fail_the_engine() {
    // The adversarial persistence policy loses every unflushed store; the
    // recovery paths must still terminate (guarded pointer walks).
    for spec in recipe::all_benchmarks() {
        for seed in 0..5 {
            let run = Engine::run_single(
                &(spec.program)(),
                SchedPolicy::RandomChoice,
                PersistencePolicy::FloorOnly,
                seed,
                None,
                Box::new(YashmeDetector::with_defaults()),
            );
            // Panics (if any) were captured as symptoms, not propagated.
            let _ = run.panics;
        }
    }
}

#[test]
fn mid_crash_injection_at_every_point_is_survivable() {
    // Model checking already injects everywhere with FullCache; here we
    // re-drive the crash sweep under the *random* persistence policy so
    // recovery sees partially persisted lines.
    let program = recipe::fastfair::program();
    let profile = Engine::run_single(
        &program,
        SchedPolicy::Deterministic,
        PersistencePolicy::Random,
        7,
        None,
        Box::new(jaaru::NullSink),
    );
    let points = profile.points[0];
    assert!(points > 10, "the driver has many crash points");
    for t in 0..points {
        let run = Engine::run_single(
            &program,
            SchedPolicy::Deterministic,
            PersistencePolicy::Random,
            7,
            Some((0, t)),
            Box::new(YashmeDetector::with_defaults()),
        );
        let _ = run.reports;
    }
}
