//! Targeted wake-ups in the task scheduler: a handoff unparks only the new
//! token holder, so a lost wake-up would hang a run instead of failing it.
//! Every run here goes through a watchdog that turns a hang into a test
//! failure. Programs cover ping-pong handoffs, crashes before a spawned
//! child first runs and while children wait, joins on finished children and
//! nested spawns; each runs under every scheduling policy with a crash
//! injected at every point.
//!
//! The file also pins where tasks run: a phase's main task on the thread
//! that runs the engine, a `Ctx::spawn` child on a thread of its own.

#![allow(
    clippy::disallowed_types,
    reason = "sets of OS thread ids, outside the simulator"
)]

use std::collections::HashSet;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId as OsThreadId;
use std::time::Duration;

use jaaru::obs::Telemetry;
use jaaru::{
    Atomicity, Ctx, Engine, EngineConfig, ExecMode, NullSink, PersistencePolicy, Program,
    SchedPolicy, SingleRun,
};

/// How long one run may take before it counts as hung.
const WATCHDOG: Duration = Duration::from_secs(60);

/// Runs `f` on a helper thread and fails the test if it does not finish
/// within [`WATCHDOG`] (a lost wake-up parks every task for good). The
/// helper is detached on purpose: a hung run can never be joined.
fn watchdog<R: Send + 'static>(what: String, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(r) => r,
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: hung for {WATCHDOG:?}"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{what}: the run panicked"),
    }
}

/// One store, flushed and fenced: two crash points.
fn persist(ctx: &mut Ctx, slot: u64, value: u64) {
    let addr = ctx.root_slot(slot);
    ctx.store_u64(addr, value, Atomicity::Plain, "slot");
    ctx.clflush(addr);
    ctx.sfence();
}

/// A recovery phase that reads every slot the pre-crash phases write.
fn recover(ctx: &mut Ctx) {
    for slot in 0..8 {
        let _ = ctx.load_u64(ctx.root_slot(slot), Atomicity::Plain);
    }
}

/// `tasks` tasks (the main task and `tasks - 1` children) ping-ponging the
/// token through `sched_yield`, with a crash point in every round.
fn ping_pong(tasks: u64) -> Program {
    Program::new(format!("ping-pong-{tasks}"))
        .pre_crash(move |ctx: &mut Ctx| {
            let children: Vec<_> = (1..tasks)
                .map(|t| {
                    ctx.spawn(move |c: &mut Ctx| {
                        for round in 0..3 {
                            c.sched_yield();
                            persist(c, t, round);
                        }
                    })
                })
                .collect();
            for round in 0..3 {
                ctx.sched_yield();
                persist(ctx, 0, round);
            }
            for h in children {
                ctx.join(h);
            }
        })
        .post_crash(recover)
}

/// A spawn immediately followed by a crash point: the crash fires before
/// the child has ever held the token.
fn crash_before_child_runs() -> Program {
    Program::new("crash-before-child-runs")
        .pre_crash(|ctx: &mut Ctx| {
            let h = ctx.spawn(|c: &mut Ctx| persist(c, 1, 1));
            ctx.crash_point();
            persist(ctx, 0, 1);
            ctx.join(h);
        })
        .post_crash(recover)
}

/// `join` on a child that finished long before.
fn join_finished_child() -> Program {
    Program::new("join-finished-child")
        .pre_crash(|ctx: &mut Ctx| {
            let h = ctx.spawn(|c: &mut Ctx| persist(c, 1, 1));
            for round in 0..6 {
                ctx.sched_yield();
                if round % 2 == 0 {
                    persist(ctx, 0, round);
                }
            }
            ctx.join(h);
            persist(ctx, 2, 1);
        })
        .post_crash(recover)
}

/// A child that spawns and joins a grandchild; the recovery phase spawns
/// too.
fn nested_spawn() -> Program {
    Program::new("nested-spawn")
        .pre_crash(|ctx: &mut Ctx| {
            let h = ctx.spawn(|c: &mut Ctx| {
                let g = c.spawn(|g: &mut Ctx| persist(g, 2, 1));
                persist(c, 1, 1);
                c.join(g);
            });
            persist(ctx, 0, 1);
            ctx.join(h);
        })
        .post_crash(|ctx: &mut Ctx| {
            let h = ctx.spawn(recover);
            recover(ctx);
            ctx.join(h);
        })
}

/// Crash points in the main task while two children poll for a flag, so
/// every crash lands with children parked in their wait slots.
fn crash_while_children_wait() -> Program {
    Program::new("crash-while-children-wait")
        .pre_crash(|ctx: &mut Ctx| {
            let flag = ctx.root_slot(7);
            let children: Vec<_> = (1..3)
                .map(|t| {
                    ctx.spawn(move |c: &mut Ctx| {
                        while c.load_acquire_u64(flag) == 0 {
                            c.sched_yield();
                        }
                        persist(c, t, 1);
                    })
                })
                .collect();
            for round in 0..3 {
                persist(ctx, 0, round);
            }
            ctx.store_release_u64(flag, 1, "flag");
            for h in children {
                ctx.join(h);
            }
        })
        .post_crash(recover)
}

fn programs() -> Vec<Program> {
    let mut programs: Vec<Program> = (2..=4).map(ping_pong).collect();
    programs.extend([
        crash_before_child_runs(),
        join_finished_child(),
        nested_spawn(),
        crash_while_children_wait(),
    ]);
    programs
}

/// One run of `program` under `policy` and `seed`, behind the watchdog.
fn run(
    program: &Program,
    policy: SchedPolicy,
    seed: u64,
    target: Option<(usize, usize)>,
) -> SingleRun {
    let p = program.clone();
    let persistence = match policy {
        SchedPolicy::RandomChoice => PersistencePolicy::Random,
        _ => PersistencePolicy::FullCache,
    };
    watchdog(
        format!("{} {policy:?} seed {seed} crash {target:?}", program.name()),
        move || Engine::run_single(&p, policy, persistence, seed, target, Box::new(NullSink)),
    )
}

/// Every `(phase, point)` crash target of a crash-free run.
fn targets(points: &[usize]) -> Vec<(usize, usize)> {
    points
        .iter()
        .enumerate()
        .flat_map(|(phase, &n)| (0..n).map(move |point| (phase, point)))
        .collect()
}

/// Runs `program` crash-free, then once per crash point of that run, and
/// checks that every run finished every phase without a recorded panic.
fn sweep(program: &Program, policy: SchedPolicy, seed: u64) {
    let clean = run(program, policy, seed, None);
    assert!(
        clean.panics.is_empty(),
        "{}: {:?}",
        program.name(),
        clean.panics
    );
    assert!(clean.points[0] > 0, "{} has crash points", program.name());
    for target in targets(&clean.points) {
        let crashed = run(program, policy, seed, Some(target));
        let name = program.name();
        assert_eq!(crashed.points.len(), 2, "{name} {target:?}");
        assert!(
            crashed.panics.is_empty(),
            "{name} {target:?}: {:?}",
            crashed.panics
        );
    }
}

#[test]
fn deterministic_runs_never_hang_with_a_crash_at_every_point() {
    for program in programs() {
        sweep(&program, SchedPolicy::Deterministic, 0);
    }
}

#[test]
fn random_schedules_never_hang_with_a_crash_at_every_point() {
    for program in programs() {
        for seed in 0..200 {
            sweep(&program, SchedPolicy::RandomChoice, seed);
        }
    }
}

#[test]
fn scripted_schedules_never_hang_with_a_crash_at_every_point() {
    for program in programs() {
        let clean = run(&program, SchedPolicy::Deterministic, 0, None);
        for target in std::iter::once(None).chain(targets(&clean.points).into_iter().map(Some)) {
            let p = program.clone();
            let schedules = watchdog(
                format!("{} scripted crash {target:?}", program.name()),
                move || {
                    let mode = ExecMode::Explore {
                        crash_target: target,
                        max_runs: 40,
                    };
                    Engine::run_observed(
                        &p,
                        mode,
                        &|| Box::new(NullSink),
                        &EngineConfig::sequential(),
                        Telemetry::off(),
                    )
                    .executions()
                },
            );
            if target.is_none() {
                assert!(schedules > 1, "{}: every program branches", program.name());
            }
        }
    }
}

#[test]
fn main_tasks_run_on_the_calling_thread_and_children_on_their_own() {
    let mains: Arc<Mutex<HashSet<OsThreadId>>> = Arc::default();
    let children: Arc<Mutex<HashSet<OsThreadId>>> = Arc::default();
    let (m0, m1, c0) = (mains.clone(), mains.clone(), children.clone());
    let program = Program::new("where-tasks-run")
        .pre_crash(move |ctx: &mut Ctx| {
            m0.lock().unwrap().insert(std::thread::current().id());
            let c = c0.clone();
            let h = ctx.spawn(move |t: &mut Ctx| {
                c.lock().unwrap().insert(std::thread::current().id());
                persist(t, 1, 1);
            });
            persist(ctx, 0, 1);
            ctx.join(h);
        })
        .post_crash(move |ctx: &mut Ctx| {
            m1.lock().unwrap().insert(std::thread::current().id());
            recover(ctx);
        });
    // Model checking covers the profile run, resumed suffixes and (with
    // fork off) full re-executions.
    for config in [
        EngineConfig::sequential(),
        EngineConfig::sequential().with_fork(false),
    ] {
        let report = Engine::run_observed(
            &program,
            ExecMode::model_check(),
            &|| Box::new(NullSink),
            &config,
            Telemetry::off(),
        );
        assert!(report.executions() > 1, "crash points were explored");
    }
    let here = std::thread::current().id();
    assert_eq!(*mains.lock().unwrap(), HashSet::from([here]));
    let children = children.lock().unwrap();
    assert!(!children.is_empty());
    assert!(
        !children.contains(&here),
        "a spawned child has its own thread"
    );
}

/// The message of [`child_panics_while_main_joins`]'s panic.
const CHILD_PANIC: &str = "child panics holding the token";

/// The message of [`main_panics_while_child_parked`]'s panic.
const MAIN_PANIC: &str = "main panics holding the token";

/// A recovery phase with two crash points of its own, so a run's second
/// `points` entry shows that it ran.
fn recover_and_persist(ctx: &mut Ctx) {
    recover(ctx);
    persist(ctx, 3, 1);
}

/// A spawned child raises a real (non-crash) panic while it holds the
/// token; the main task is waiting for it in `join`.
fn child_panics_while_main_joins() -> Program {
    Program::new("child-panics-while-main-joins")
        .pre_crash(|ctx: &mut Ctx| {
            let h = ctx.spawn(|c: &mut Ctx| {
                persist(c, 1, 1);
                panic!("{CHILD_PANIC}");
            });
            ctx.join(h);
            persist(ctx, 0, 1);
        })
        .post_crash(recover_and_persist)
}

/// The main task raises a real panic while a spawned child, polling for a
/// flag the main task never sets, is parked waiting for the token. The
/// child gives up after a bounded number of polls, so the run can finish.
fn main_panics_while_child_parked() -> Program {
    Program::new("main-panics-while-child-parked")
        .pre_crash(|ctx: &mut Ctx| {
            let flag = ctx.root_slot(7);
            let _child = ctx.spawn(move |c: &mut Ctx| {
                for _ in 0..16 {
                    if c.load_acquire_u64(flag) != 0 {
                        break;
                    }
                    c.sched_yield();
                }
                persist(c, 1, 1);
            });
            persist(ctx, 0, 1);
            panic!("{MAIN_PANIC}");
        })
        .post_crash(recover_and_persist)
}

/// Runs `program`, whose pre-crash phase panics with `message` once,
/// crash-free and then with a crash at every point of that run. Every run
/// must finish and still run the recovery phase. A crashed run repeats the
/// crash-free one up to its crash, so a crash in the pre-crash phase
/// records the panic exactly when the crash-free run panicked before that
/// point: the phase's crash points before the panic record none, and
/// every later one records it exactly once. Both programs reach a crash
/// point after the panic in every schedule swept (the main task's persist
/// after `join`, the child's persist after its polls), so the later ones
/// must exist. A crash in the recovery phase comes after the panic and
/// records it once.
fn panic_sweep(program: &Program, message: &str, policy: SchedPolicy, seed: u64) {
    let name = program.name();
    let clean = run(program, policy, seed, None);
    assert_eq!(clean.panics, [message], "{name} {policy:?} seed {seed}");
    assert_eq!(clean.points.len(), 2, "{name}");
    let mut panicked = false;
    for target in targets(&clean.points) {
        let crashed = run(program, policy, seed, Some(target));
        let what = format!("{name} {policy:?} seed {seed} crash {target:?}");
        assert!(
            crashed.panics.iter().all(|m| m == message),
            "{what}: {:?}",
            crashed.panics
        );
        assert_eq!(crashed.points.len(), 2, "{what}");
        match target {
            (0, _) => {
                assert_eq!(crashed.points[1], clean.points[1], "{what}");
                if panicked {
                    assert_eq!(crashed.panics.len(), 1, "{what}: lost or repeated");
                } else {
                    assert!(crashed.panics.len() <= 1, "{what}: {:?}", crashed.panics);
                    panicked = crashed.panics.len() == 1;
                }
            }
            _ => assert_eq!(crashed.panics, [message], "{what}"),
        }
    }
    assert!(
        panicked,
        "{name} {policy:?} seed {seed}: no crash followed the panic"
    );
}

#[test]
fn real_panics_while_holding_the_token_never_hang_and_are_recorded_once() {
    let programs = [
        (child_panics_while_main_joins(), CHILD_PANIC),
        (main_panics_while_child_parked(), MAIN_PANIC),
    ];
    for (program, message) in &programs {
        panic_sweep(program, message, SchedPolicy::Deterministic, 0);
        panic_sweep(program, message, SchedPolicy::Scripted, 0);
        for seed in 0..50 {
            panic_sweep(program, message, SchedPolicy::RandomChoice, seed);
        }
    }
}
