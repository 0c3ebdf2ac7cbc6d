//! The engine's quiet panic hook silences exactly the panics raised inside
//! simulated tasks. Panic hooks are process-global, so this file holds one
//! test and nothing else installs a hook in its process.

use std::panic::catch_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

use jaaru::{Atomicity, Ctx, Engine, NullSink, PersistencePolicy, Program, SchedPolicy};

/// Panics that reached the hook installed before the engine's.
static REACHED: AtomicUsize = AtomicUsize::new(0);

#[test]
fn only_panics_inside_simulated_tasks_are_silenced() {
    std::panic::set_hook(Box::new(|_| {
        REACHED.fetch_add(1, Ordering::SeqCst);
    }));

    let program = Program::new("panicky")
        .pre_crash(|ctx: &mut Ctx| {
            let h = ctx.spawn(|_: &mut Ctx| panic!("child symptom"));
            ctx.join(h);
            ctx.store_u64(ctx.root(), 1, Atomicity::Plain, "x");
            ctx.clflush(ctx.root());
            ctx.sfence();
        })
        .post_crash(|_: &mut Ctx| panic!("main symptom"));
    // Crash-free, then with an injected crash: the crash unwinds the inline
    // main task (and any waiting child) with the engine's own payload.
    for target in [None, Some((0, 0)), Some((0, 1))] {
        let run = Engine::run_single(
            &program,
            SchedPolicy::Deterministic,
            PersistencePolicy::FullCache,
            0,
            target,
            Box::new(NullSink),
        );
        assert_eq!(run.panics, ["child symptom", "main symptom"], "{target:?}");
        assert_eq!(REACHED.load(Ordering::SeqCst), 0, "{target:?}");
    }

    // The same thread, outside any task: the previous hook sees the panic.
    assert!(catch_unwind(|| panic!("not a task")).is_err());
    assert_eq!(REACHED.load(Ordering::SeqCst), 1);
}
