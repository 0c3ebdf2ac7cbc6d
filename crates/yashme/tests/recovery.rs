//! Multi-crash scenarios: persistency races in recovery code.
//!
//! §6: "a persistency race in the recovery procedure would require two
//! crashes: one to get into the recovery procedure and a second to reveal a
//! bug in the recovery procedure." The execution stack (`exec`, `prev`)
//! exists precisely for this; these tests exercise it end to end.

use jaaru::{Atomicity, Ctx, EngineConfig, ExecMode, ModelCheckConfig, Program};
use yashme::YashmeConfig;

/// Phase 0 writes data and a dirty flag; phase 1 (recovery) repairs and
/// writes a racy `repair_epoch`; phase 2 (second recovery) reads it.
fn recovery_race_program() -> Program {
    Program::new("recovery-race")
        .pre_crash(|ctx: &mut Ctx| {
            let data = ctx.root();
            let dirty = ctx.root_slot(1);
            ctx.store_u64(data, 42, Atomicity::Plain, "data");
            ctx.clflush(data);
            ctx.store_u64(dirty, 1, Atomicity::Plain, "dirty_flag");
            ctx.clflush(dirty);
            ctx.sfence();
        })
        .phase(|ctx: &mut Ctx| {
            // First recovery: repair and log the repair epoch — with a
            // non-atomic store that is flushed *after* further work, the
            // recovery-code bug.
            let dirty = ctx.root_slot(1);
            let epoch = ctx.root_slot(2);
            if ctx.load_u64(dirty, Atomicity::Plain) == 1 {
                let e = ctx.load_u64(epoch, Atomicity::Plain);
                ctx.store_u64(epoch, e + 1, Atomicity::Plain, "repair_epoch");
                ctx.store_u64(dirty, 0, Atomicity::Plain, "dirty_flag");
                ctx.clflush(dirty);
                ctx.clflush(epoch);
                ctx.sfence();
            }
        })
        .phase(|ctx: &mut Ctx| {
            // Second recovery observes the racy repair epoch.
            let epoch = ctx.root_slot(2);
            let _ = ctx.load_u64(epoch, Atomicity::Plain);
        })
}

#[test]
fn recovery_race_spans_executions_one_and_two() {
    let report = yashme::model_check(&recovery_race_program());
    let repair: Vec<_> = report
        .true_races()
        .filter(|r| r.label() == "repair_epoch")
        .collect();
    assert!(!repair.is_empty(), "{report}");
    for r in &repair {
        assert_eq!(r.store_exec(), 1, "the racy store is in the recovery run");
        assert_eq!(r.load_exec(), 2, "observed by the second recovery run");
    }
}

#[test]
fn crash_in_recovery_enumerates_phase1_points() {
    let base = yashme::model_check(&recovery_race_program());
    let deep = yashme::check(
        &recovery_race_program(),
        ExecMode::ModelCheck(ModelCheckConfig {
            crash_in_recovery: true,
        }),
        YashmeConfig::default(),
        &EngineConfig::default(),
    );
    assert!(
        deep.executions() > base.executions(),
        "recovery crash points add executions: {} vs {}",
        deep.executions(),
        base.executions()
    );
    // The recovery race is found either way (prefix expansion covers the
    // end-of-phase crash), and the deeper exploration never loses it.
    assert!(base.race_labels().contains(&"repair_epoch"));
    assert!(deep.race_labels().contains(&"repair_epoch"));
}

#[test]
fn three_phase_state_carries_across_both_crashes() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    let seen = Arc::new(AtomicU64::new(0));
    let s = seen.clone();
    let program = Program::new("chain")
        .pre_crash(|ctx: &mut Ctx| {
            let x = ctx.root();
            ctx.store_u64(x, 1, Atomicity::Plain, "x");
            ctx.clflush(x);
            ctx.sfence();
        })
        .phase(|ctx: &mut Ctx| {
            let x = ctx.root();
            let v = ctx.load_u64(x, Atomicity::Plain);
            ctx.store_u64(x, v * 10, Atomicity::Plain, "x");
            ctx.clflush(x);
            ctx.sfence();
        })
        .phase(move |ctx: &mut Ctx| {
            let x = ctx.root();
            s.store(ctx.load_u64(x, Atomicity::Plain), Ordering::SeqCst);
        });
    jaaru::Engine::run_single(
        &program,
        jaaru::SchedPolicy::Deterministic,
        jaaru::PersistencePolicy::FloorOnly,
        0,
        None,
        Box::new(jaaru::NullSink),
    );
    assert_eq!(seen.load(Ordering::SeqCst), 10);
}
