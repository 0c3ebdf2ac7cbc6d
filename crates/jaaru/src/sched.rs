//! Token-passing cooperative scheduler.
//!
//! The engine serializes simulated threads: exactly one holds the *token*
//! and runs benchmark code; everyone else blocks. Every memory operation is
//! a scheduling point, so the scheduler fully controls the interleaving —
//! deterministic round-robin in model-checking mode ("Yashme controls
//! multithreaded scheduling to regenerate the same execution", §6) and
//! seeded-random in random mode. Crash injection simply marks the run
//! crashed; every task unwinds with [`CrashUnwind`] at its next scheduling
//! point.
//!
//! A phase's main task runs inline on the thread that runs the phase; only
//! [`Ctx::spawn`](crate::Ctx::spawn) children get OS threads of their own.
//! Each task parks in its own wait slot (its OS thread), and a handoff
//! unparks exactly the new token holder. A yield that keeps the token
//! makes no system call. The phase host is woken once, when the last task
//! finishes; crash injection is the one broadcast.

use std::thread::Thread;

use parking_lot::Mutex;
use pmem::Forkable;
use rand::rngs::StdRng;
use rand::Rng;
use vclock::ThreadId;

use crate::mem::{ExecStats, MemState};
use crate::sink::EventSink;

/// Panic payload used to unwind simulated threads at a crash.
pub(crate) struct CrashUnwind;

/// Scheduling policy for picking the next runnable task and for store-buffer
/// eviction timing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Deterministic: round-robin task choice, full store-buffer drain at
    /// every scheduling point.
    Deterministic,
    /// Seeded-random task choice and partial, randomized buffer eviction.
    RandomChoice,
    /// Scripted: task choices replayed from an explicit script (exhaustive
    /// schedule exploration); full store-buffer drain at every scheduling
    /// point so schedules are the only branch points. Off-script choices
    /// default to the first candidate and every choice is logged.
    Scripted,
}

/// State of one simulated task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TaskState {
    Runnable,
    Finished,
}

/// Scheduler bookkeeping (token, liveness, wait slots).
pub(crate) struct Sched {
    token: ThreadId,
    /// Task states indexed by [`ThreadId`]: ids are dense, handed out by
    /// `MemState::register_thread`, and every id is registered here.
    tasks: Vec<TaskState>,
    /// Number of `Runnable` entries in `tasks`.
    active: usize,
    /// Wait slots, indexed like `tasks`: the OS thread hosting each live
    /// task, which a handoff to that task unparks. `None` before the task
    /// first runs and after it finishes.
    threads: Vec<Option<Thread>>,
    /// The phase host, recorded only while it waits for `active == 0`.
    host: Option<Thread>,
    pub crashed: bool,
    pub policy: SchedPolicy,
    /// Scripted mode: the candidate index to pick at each branch point.
    pub script: Vec<usize>,
    /// Scripted mode: cursor into `script`.
    pub cursor: usize,
    /// Scripted mode: `(chosen index, candidate count)` per branch point.
    pub choice_log: Vec<(usize, usize)>,
}

impl Sched {
    fn new(policy: SchedPolicy) -> Self {
        Sched {
            token: ThreadId::MAIN,
            tasks: Vec::new(),
            active: 0,
            threads: Vec::new(),
            host: None,
            crashed: false,
            policy,
            script: Vec::new(),
            cursor: 0,
            choice_log: Vec::new(),
        }
    }

    pub fn register(&mut self, tid: ThreadId) {
        assert_eq!(tid.as_usize(), self.tasks.len(), "thread ids are dense");
        self.tasks.push(TaskState::Runnable);
        self.threads.push(None);
        self.active += 1;
        if self.active == 1 {
            self.token = tid;
        }
    }

    pub fn is_finished(&self, tid: ThreadId) -> bool {
        self.tasks.get(tid.as_usize()) == Some(&TaskState::Finished)
    }

    /// The `n`-th runnable task in candidate order: ascending ids, starting
    /// just after `from` and wrapping around to end with `from` itself.
    fn nth_runnable_after(&self, from: ThreadId, n: usize) -> ThreadId {
        let len = self.tasks.len();
        (from.as_usize() + 1..from.as_usize() + 1 + len)
            .map(|i| i % len)
            .filter(|&i| self.tasks[i] == TaskState::Runnable)
            .nth(n)
            .map(|i| ThreadId::new(i as u32))
            .expect("`active` counts the runnable tasks")
    }

    fn pick_next(&mut self, from: ThreadId, rng: &mut StdRng) -> Option<ThreadId> {
        let count = self.active;
        if count == 0 {
            return None;
        }
        let idx = match self.policy {
            SchedPolicy::Deterministic => 0,
            SchedPolicy::RandomChoice => rng.gen_range(0..count),
            // Branch points with a single candidate are not logged: they
            // carry no exploration choice.
            SchedPolicy::Scripted if count == 1 => 0,
            SchedPolicy::Scripted => {
                let idx = self
                    .script
                    .get(self.cursor)
                    .copied()
                    .unwrap_or(0)
                    .min(count - 1);
                self.cursor += 1;
                self.choice_log.push((idx, count));
                idx
            }
        };
        Some(self.nth_runnable_after(from, idx))
    }

    /// Passes the token to `next`; returns the wait slot to unpark.
    fn hand_to(&mut self, next: ThreadId) -> Option<Thread> {
        self.token = next;
        self.threads[next.as_usize()].clone()
    }
}

impl Forkable for Sched {
    /// Captures the scheduler as seen by a post-crash resumption.
    ///
    /// A snapshot is taken *at* a crash point, and a resumed run starts where
    /// the corresponding full run stands after its injected crash: every
    /// prefix task has unwound (`Finished`, `active == 0`) and the run is
    /// marked crashed. The token is deliberately not carried over — with no
    /// active task it is unobservable, and the next phase's `register` resets
    /// it when `active` goes 0 → 1. No task is live, so every wait slot is
    /// empty.
    fn fork(&mut self) -> Self {
        Sched {
            token: self.token,
            tasks: self.tasks.iter().map(|_| TaskState::Finished).collect(),
            active: 0,
            threads: vec![None; self.tasks.len()],
            host: None,
            crashed: true,
            policy: self.policy,
            script: self.script.clone(),
            cursor: self.cursor,
            choice_log: self.choice_log.clone(),
        }
    }
}

/// Crash-injection control: counts crash points and triggers at the target.
#[derive(Debug, Clone, Default)]
pub(crate) struct CrashCtl {
    /// Crash points seen so far in the current phase.
    pub seen: usize,
    /// Inject a crash when `seen` reaches this index (phase-local).
    pub target: Option<usize>,
}

impl CrashCtl {
    /// Registers one crash point; returns `true` if the crash fires here.
    fn hit(&mut self) -> bool {
        let fire = self.target == Some(self.seen);
        self.seen += 1;
        fire
    }
}

/// A captured resume point: the full simulator state at one crash point of
/// the profiling run, from which the engine replays only the post-crash
/// continuation.
pub(crate) struct Snapshot {
    /// Phase index the crash point lies in.
    pub phase: usize,
    /// Phase-local crash-point index (`CrashCtl::seen` at capture).
    pub point: usize,
    pub mem: MemState,
    pub sink: Box<dyn EventSink>,
    pub sched: Sched,
    pub rng: StdRng,
    pub panics: Vec<String>,
}

/// Per-crash-point observation from the profiling run, recorded whether or
/// not a [`Snapshot`] was captured for the point.
///
/// `fingerprint` identifies the point's *crash-state equivalence class*: it
/// folds together the memory system's rolling crash-state hash, the sink's
/// fingerprint token (detector state that feeds reports), accumulated panic
/// count, and the phase. Two consecutive points with equal fingerprints
/// produce byte-identical post-crash results, so the engine resumes only
/// one of them. `stats` is the operation-counter prefix at the point,
/// needed to attribute a representative's suffix work to skipped members;
/// `cov` is the coverage-plane prefix snapshot, attributed the same way.
#[derive(Debug, Clone)]
pub(crate) struct PointRecord {
    pub phase: usize,
    pub point: usize,
    pub fingerprint: u64,
    pub stats: ExecStats,
    pub cov: obs::SiteTable,
}

/// What the profiling run's [`SnapshotLog`] captures at each crash point of
/// the targeted phases. Every state records a [`PointRecord`] per point —
/// the coverage plane's crash-space cartography is derived from the record
/// stream whatever the resume strategy — and they differ only in which
/// points also get a [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Capture {
    /// No snapshots: every crash target is re-executed in full (fork off).
    Records,
    /// A snapshot at the first point of each crash-state equivalence class
    /// (pruning): the class's representative.
    Representatives,
    /// A snapshot at every point (fork without pruning): every class
    /// member is executed and cross-checked against its attribution.
    EveryPoint,
}

/// Snapshot collection plugged into the profiling run's [`Core`].
///
/// Capture happens inside [`Shared::crash_point`], *before* the point is
/// counted — exactly the state a full run with `crash_target == point`
/// would have reached, since the deterministic pre-crash schedule is
/// bit-reproducible.
pub(crate) struct SnapshotLog {
    /// Points are observed only in phases `0..capture_phases` (the phases
    /// crash targets are injected into).
    pub capture_phases: usize,
    pub capture: Capture,
    /// Current phase index, maintained by the engine's phase prologue.
    pub phase: usize,
    pub snaps: Vec<Snapshot>,
    /// One record per crash point in the capture phases, snapshot or not.
    pub records: Vec<PointRecord>,
    /// `(phase, fingerprint)` of the most recent point, for the
    /// representative check.
    last: Option<(usize, u64)>,
    /// Set when the sink cannot fork; no further snapshot is captured and
    /// the engine falls back to full re-execution.
    pub unsupported: bool,
}

impl SnapshotLog {
    pub fn new(capture_phases: usize, capture: Capture) -> Self {
        SnapshotLog {
            capture_phases,
            capture,
            phase: 0,
            snaps: Vec::new(),
            records: Vec::new(),
            last: None,
            unsupported: false,
        }
    }
}

/// Everything shared between simulated tasks and the engine host.
pub(crate) struct Core {
    pub mem: MemState,
    pub sink: Box<dyn EventSink>,
    pub sched: Sched,
    pub crash: CrashCtl,
    pub rng: StdRng,
    /// Panic messages from simulated-task code (post-crash symptoms).
    pub panics: Vec<String>,
    /// Snapshot collection, installed only for a model-checking profile run.
    pub snaplog: Option<SnapshotLog>,
}

/// The shared handle: a mutex-protected [`Core`]. Blocked tasks park on
/// their OS threads; the wait slots live in [`Sched`], under the same lock
/// as the token, so a handoff and the new holder's token check never race.
pub(crate) struct Shared {
    pub core: Mutex<Core>,
}

impl Shared {
    pub fn new(mem: MemState, sink: Box<dyn EventSink>, policy: SchedPolicy, rng: StdRng) -> Self {
        Shared {
            core: Mutex::new(Core {
                mem,
                sink,
                sched: Sched::new(policy),
                crash: CrashCtl::default(),
                rng,
                panics: Vec::new(),
                snaplog: None,
            }),
        }
    }

    /// Rebuilds a shared handle around an already-populated core (resuming
    /// from a [`Snapshot`]).
    pub fn from_parts(core: Core) -> Self {
        Shared {
            core: Mutex::new(core),
        }
    }

    /// Runs `f` with the core locked. The caller must hold the token.
    pub fn with_core<R>(&self, f: impl FnOnce(&mut Core) -> R) -> R {
        let mut core = self.core.lock();
        f(&mut core)
    }

    /// A task's first action: records the calling OS thread as `tid`'s wait
    /// slot, then blocks until `tid` holds the token. A phase's main task
    /// holds it from registration on and does not block.
    ///
    /// # Panics
    ///
    /// Unwinds with [`CrashUnwind`] if a crash is injected while waiting.
    pub fn enter_task(&self, tid: ThreadId) {
        self.core.lock().sched.threads[tid.as_usize()] = Some(std::thread::current());
        self.wait_turn(tid);
    }

    /// Parks until `tid` holds the token. The token is re-checked under the
    /// lock after every wake-up, so a spurious or stale unpark is harmless,
    /// and a handoff made before the park leaves the unpark token set, so
    /// it is not lost.
    fn wait_turn(&self, tid: ThreadId) {
        loop {
            let core = self.core.lock();
            if core.sched.crashed {
                drop(core);
                std::panic::panic_any(CrashUnwind);
            }
            if core.sched.token == tid {
                return;
            }
            drop(core);
            std::thread::park();
        }
    }

    /// A scheduling point for task `tid`: performs buffer evictions per
    /// policy and picks the next token holder. Keeping the token returns at
    /// once; a handoff unparks the new holder and blocks until the token
    /// returns.
    ///
    /// # Panics
    ///
    /// Unwinds with [`CrashUnwind`] if a crash has been injected.
    pub fn yield_now(&self, tid: ThreadId) {
        let mut guard = self.core.lock();
        if guard.sched.crashed {
            drop(guard);
            std::panic::panic_any(CrashUnwind);
        }
        Self::do_evictions(&mut guard);
        let core = &mut *guard;
        let wake = match core.sched.pick_next(tid, &mut core.rng) {
            Some(next) if next != tid => core.sched.hand_to(next),
            _ => return,
        };
        drop(guard);
        if let Some(thread) = wake {
            thread.unpark();
        }
        self.wait_turn(tid);
    }

    /// Buffer evictions at a scheduling point.
    fn do_evictions(core: &mut Core) {
        let Core {
            mem,
            sink,
            sched,
            rng,
            ..
        } = core;
        match sched.policy {
            SchedPolicy::Deterministic | SchedPolicy::Scripted => mem.drain_all_sbs(sink.as_mut()),
            SchedPolicy::RandomChoice => {
                for i in 0..mem.thread_count() {
                    let t = ThreadId::new(i as u32);
                    let len = mem.sb_len(t);
                    if len == 0 {
                        continue;
                    }
                    // Evict a random number of entries, choosing among the
                    // legally evictable positions each step (this is where
                    // clwb-overtaking-store reordering is explored).
                    for _ in 0..rng.gen_range(0..=len) {
                        let positions = mem.evictable(t);
                        let pos = positions[rng.gen_range(0..positions.len())];
                        mem.evict_one(sink.as_mut(), t, pos);
                    }
                }
            }
        }
    }

    /// Registers a crash point at task `tid`'s current position; if the
    /// injection target is here, marks the run crashed and unwinds.
    pub fn crash_point(&self, tid: ThreadId) {
        let mut core = self.core.lock();
        if core.sched.crashed {
            drop(core);
            std::panic::panic_any(CrashUnwind);
        }
        Self::maybe_snapshot(&mut core);
        if core.crash.hit() {
            if core.sched.policy == SchedPolicy::Deterministic {
                // Commit recently executed stores so the crash lands in the
                // store→flush window rather than losing the stores outright.
                let Core { mem, sink, .. } = &mut *core;
                mem.drain_all_sbs(sink.as_mut());
            }
            core.sched.crashed = true;
            let exec = core.mem.exec_id();
            core.sink.on_crash(exec);
            // The one broadcast: every waiting task wakes and unwinds.
            for (i, thread) in core.sched.threads.iter().enumerate() {
                match thread {
                    Some(thread) if i != tid.as_usize() => thread.unpark(),
                    _ => {}
                }
            }
            drop(core);
            std::panic::panic_any(CrashUnwind);
        }
    }

    /// Captures a [`Snapshot`] at the current crash point, if the core's
    /// snapshot log wants one.
    ///
    /// Must run before [`CrashCtl::hit`] counts the point: the captured
    /// state is then exactly what a full run targeting this point sees when
    /// its injected crash fires.
    fn maybe_snapshot(core: &mut Core) {
        let Core {
            mem,
            sink,
            sched,
            crash,
            rng,
            panics,
            snaplog,
        } = core;
        let Some(log) = snaplog else { return };
        if log.phase >= log.capture_phases {
            return;
        }
        // The point's class fingerprint: everything that determines the
        // observable result of resuming from here. Both components are O(1)
        // reads of rolling hashes, so this costs nothing per point.
        let fp = {
            let mut f = pmem::Fp64::new();
            f.absorb(log.phase as u64);
            f.absorb(mem.fingerprint());
            f.absorb(sink.fingerprint_token());
            f.absorb(panics.len() as u64);
            f.value()
        };
        log.records.push(PointRecord {
            phase: log.phase,
            point: crash.seen,
            fingerprint: fp,
            stats: mem.stats,
            cov: mem.cov.clone(),
        });
        let fresh = log.last != Some((log.phase, fp));
        log.last = Some((log.phase, fp));
        let wanted = match log.capture {
            Capture::Records => false,
            // Same class as the previous point: its representative snapshot
            // is already captured. Skipping `mem.fork()` here is the
            // profiling-run half of the pruning win.
            Capture::Representatives => fresh,
            Capture::EveryPoint => true,
        };
        if !wanted || log.unsupported {
            return;
        }
        // Telemetry (wall-clock plane): time the capture itself — the
        // copy-on-write forks below are the snapshot cost the profile
        // attributes to `snapshot-capture`.
        let tel = mem.telemetry().filter(|t| t.enabled());
        let t0 = tel.as_ref().map(|_| std::time::Instant::now());
        match sink.fork_sink() {
            Some(fsink) => log.snaps.push(Snapshot {
                phase: log.phase,
                point: crash.seen,
                mem: mem.fork(),
                sink: fsink,
                sched: sched.fork(),
                rng: rng.clone(),
                panics: panics.clone(),
            }),
            None => log.unsupported = true,
        }
        if let (Some(tel), Some(t0)) = (tel, t0) {
            tel.add_phase(obs::WallPhase::SnapshotCapture, t0.elapsed());
        }
    }

    /// Marks task `tid` finished and hands the token onward, unparking the
    /// new holder, or the phase host if `tid` was the last live task.
    /// Called by the task wrapper as its last action (also after a crash
    /// unwind).
    pub fn finish_task(&self, tid: ThreadId) {
        let mut guard = self.core.lock();
        let Core { sched, rng, .. } = &mut *guard;
        sched.tasks[tid.as_usize()] = TaskState::Finished;
        sched.threads[tid.as_usize()] = None;
        sched.active -= 1;
        let wake = if sched.active == 0 {
            sched.host.take()
        } else if sched.token == tid {
            let next = sched.pick_next(tid, rng).expect("a task is runnable");
            sched.hand_to(next)
        } else {
            None
        };
        drop(guard);
        if let Some(thread) = wake {
            thread.unpark();
        }
    }

    /// Blocks the phase host until every task has finished or unwound. The
    /// host parks only while tasks are live, and the finish that takes
    /// `active` to zero unparks it.
    pub fn wait_all_tasks(&self) {
        loop {
            let mut core = self.core.lock();
            if core.sched.active == 0 {
                return;
            }
            core.sched.host = Some(std::thread::current());
            drop(core);
            std::thread::park();
        }
    }
}
