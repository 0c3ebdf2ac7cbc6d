//! The execution engine: drives programs through crash-separated phases in
//! model-checking, random, or schedule-exploration mode.
//!
//! Crash-point exploration is embarrassingly parallel: every injected crash
//! target is an independent simulated run with its own [`MemState`] and
//! sink. [`EngineConfig::workers`] bounds a scoped fan-out ([`crate::pool`])
//! that spreads those runs over the calling thread and up to `workers - 1`
//! threads living only for the batch, while keeping the aggregated
//! [`RunReport`] byte-identical to a sequential run: per-run results are
//! merged in crash-target order and the de-duplicated reports are stably
//! sorted by `(kind, label)` regardless of worker count.

use std::sync::Arc;
use std::time::Instant;

use obs::telemetry::{Count, Telemetry, WallPhase};
use pmem::{FastMap, FastSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::ctx::{install_quiet_panic_hook, run_task};
use crate::mem::MemState;
use crate::persist::PersistencePolicy;
use crate::pool;
use crate::report::{ForkStats, GcStats, PruneStats, RaceReport, RunReport};
use crate::sched::{
    Capture, Core, CrashCtl, PointRecord, SchedPolicy, Shared, Snapshot, SnapshotLog,
};
use crate::sink::{EventSink, SpanTraceSink};
use crate::Program;

/// Configuration of model-checking mode: systematic crash injection before
/// every flush/fence point of the pre-crash phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelCheckConfig {
    /// Also enumerate crash points inside the recovery (phase 1) — finds
    /// bugs in recovery code at the cost of more executions.
    pub crash_in_recovery: bool,
}

/// Configuration of random mode.
#[derive(Debug, Clone, Copy)]
pub struct RandomConfig {
    /// Number of random executions to run.
    pub executions: usize,
    /// Seed for schedules, eviction timing, crash placement, and persistence
    /// cuts.
    pub seed: u64,
}

impl Default for RandomConfig {
    fn default() -> Self {
        RandomConfig {
            executions: 20,
            seed: 0xCA5E ^ 0x9E37_79B9,
        }
    }
}

/// The engine's operating mode: the paper's two (§4: "Yashme has two modes
/// of operation"), `ModelCheck` and `Random`, plus one extension,
/// `Explore`.
#[derive(Debug, Clone, Copy)]
pub enum ExecMode {
    /// Explore an injected crash before every flush/fence point.
    ModelCheck(ModelCheckConfig),
    /// Random schedules, eviction timing, and crash placement.
    Random(RandomConfig),
    /// Exhaustive schedule exploration, an extension beyond the paper's
    /// Yashme, which "does not exhaustively explore the space of
    /// schedules" (§6): one run per distinct thread interleaving,
    /// breadth-first over the branch points where more than one task is
    /// runnable, each crashing at `crash_target` (`(phase, point)`; `None`
    /// runs every phase to its end) into the full cache. Stops after
    /// `max_runs` schedules.
    ///
    /// The frontier runs in waves of up to [`EngineConfig::workers`]
    /// schedules taken from the front of the queue, and each schedule's
    /// alternatives enqueue in schedule order, so the schedules run — and
    /// the report — are the same at every worker count. There is no
    /// crash-point fan-out, so fork and pruning have nothing to act on.
    Explore {
        /// The injected crash of every schedule.
        crash_target: Option<(usize, usize)>,
        /// The bound on the number of schedules run.
        max_runs: usize,
    },
}

impl ExecMode {
    /// Model checking with default configuration.
    pub fn model_check() -> Self {
        ExecMode::ModelCheck(ModelCheckConfig::default())
    }

    /// Random mode with `executions` runs from `seed`.
    pub fn random(executions: usize, seed: u64) -> Self {
        ExecMode::Random(RandomConfig { executions, seed })
    }
}

/// Engine-level execution configuration, orthogonal to [`ExecMode`].
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Number of worker threads exploring crash points concurrently.
    ///
    /// `1` (the default) runs strictly sequentially on the calling thread.
    /// `0` means "auto": one worker per available CPU. A fan-out runs on
    /// the calling thread plus at most `workers - 1` scoped threads that
    /// end with it, so no batch ever gets more executors than this. Each
    /// simulated run executes its phases' main tasks on the worker running
    /// it and serializes any [`Ctx::spawn`](crate::Ctx::spawn) children
    /// (each on an OS thread of its own) through the scheduler token, so
    /// `workers` bounds *total* runnable concurrency, not just top-level
    /// fan-out: at most `workers` OS threads make progress at any instant
    /// no matter how many tasks each simulated run spawns.
    pub workers: usize,
    /// Record a deterministic span trace of every run (off by default).
    ///
    /// When on, each run's sink is wrapped in a
    /// [`SpanTraceSink`](crate::SpanTraceSink) and the per-run buffers are
    /// merged — in run order, so the result is identical at every worker
    /// count — into [`RunReport::trace`](crate::RunReport::trace). When
    /// off, sinks are used unwrapped and no trace state is allocated.
    pub trace: bool,
    /// Checkpoint/fork crash-point exploration (on by default).
    ///
    /// In model-checking mode the engine runs the deterministic pre-crash
    /// schedule once, captures a copy-on-write snapshot of the full
    /// simulator state at every crash point, and resumes only the
    /// post-crash continuation from each snapshot — O(prefix + Σ suffixes)
    /// instead of O(points × full run). The aggregated [`RunReport`] is
    /// byte-identical either way; switch off via `--no-fork` to compare
    /// or to debug a full re-execution.
    pub fork: bool,
    /// Crash-state equivalence pruning (on by default; effective only with
    /// `fork` in model-checking mode).
    ///
    /// The profiling run keeps a rolling fingerprint of everything a crash
    /// would materialize — persisted image, committed cache state, and the
    /// detector state feeding reports. Consecutive crash points with equal
    /// fingerprints (separated only by effect-free events such as redundant
    /// re-flushes of persisted lines) yield byte-identical post-crash
    /// results, so the engine resumes one *representative* suffix per
    /// equivalence class and attributes its outcome to the other members.
    /// The aggregated [`RunReport`] stays byte-identical to exhaustive
    /// exploration; switch off via `--no-prune`. Exhaustive resumption
    /// executes every class member and asserts each outcome equals the one
    /// pruning would have attributed to it, so `--no-prune` checks the
    /// attribution rule on every run.
    pub prune: bool,
    /// Streaming epoch GC (on by default).
    ///
    /// Every [`gc_every`](EngineConfig::gc_every) committed stores the
    /// memory system retires state no future event can observe: store
    /// events below the fully-persisted frontier leave the event table
    /// (their slots are reused), drained line-log entries materialize into
    /// the image eagerly, spent flush events are dropped, and the sink is
    /// told via [`EventSink::on_stores_retired`] so detectors can shed
    /// their `flushmap` entries too. Memory then scales with *live* state
    /// rather than trace length, which is what makes multi-million-event
    /// soak runs possible. Reports, traces, and fingerprints are
    /// byte-identical with GC on or off; switch off via `--no-gc` to
    /// compare.
    pub gc: bool,
    /// Commits between streaming-GC mark-sweep passes (default 4096).
    ///
    /// Retirement work is proportional to live state, so a larger period
    /// amortizes better but holds garbage longer; the floor-raise
    /// materialization that *bounds* memory is eager and independent of
    /// this knob.
    pub gc_every: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 1,
            trace: false,
            fork: true,
            prune: true,
            gc: true,
            gc_every: 4096,
        }
    }
}

impl EngineConfig {
    /// Strictly sequential execution (the default).
    pub fn sequential() -> Self {
        EngineConfig::default()
    }

    /// A pool of `workers` threads; `0` selects one per available CPU.
    pub fn with_workers(workers: usize) -> Self {
        EngineConfig {
            workers,
            ..EngineConfig::default()
        }
    }

    /// Returns a copy with span tracing switched on or off.
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Returns a copy with checkpoint/fork exploration switched on or off.
    pub fn with_fork(mut self, fork: bool) -> Self {
        self.fork = fork;
        self
    }

    /// Returns a copy with crash-state equivalence pruning switched on or
    /// off.
    pub fn with_prune(mut self, prune: bool) -> Self {
        self.prune = prune;
        self
    }

    /// Returns a copy with streaming epoch GC switched on or off.
    pub fn with_gc(mut self, gc: bool) -> Self {
        self.gc = gc;
        self
    }

    /// Returns a copy with the GC mark-sweep period set to `every` commits
    /// (clamped to at least 1).
    pub fn with_gc_every(mut self, every: u32) -> Self {
        self.gc_every = every.max(1);
        self
    }

    /// The effective pool size: `workers`, with `0` resolved to the number
    /// of available CPUs.
    pub fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            self.workers
        }
    }
}

/// Outcome of one (multi-phase) simulated run.
#[derive(Debug, Default)]
pub struct SingleRun {
    /// Detector reports drained after the run.
    pub reports: Vec<RaceReport>,
    /// Benchmark panic messages (crash symptoms).
    pub panics: Vec<String>,
    /// Crash points seen per phase.
    pub points: Vec<usize>,
    /// Operation counters across all phases.
    pub stats: crate::mem::ExecStats,
    /// Coverage plane: per-site counters accumulated alongside `stats`.
    pub cov: obs::SiteTable,
    /// Span trace of the run, when the sink recorded one
    /// ([`EngineConfig::trace`]).
    pub trace: Option<obs::TraceBuf>,
    /// Checkpoint/fork bookkeeping (zero for full re-executions).
    pub fork: ForkStats,
    /// Streaming-GC bookkeeping and live-state gauges (zero with GC off).
    pub gc: GcStats,
}

/// Builds a fresh event sink for each simulated run. `Sync` because the
/// fan-out invokes it from several threads at once.
pub type SinkFactory<'a> = &'a (dyn Fn() -> Box<dyn EventSink> + Sync);

/// Parameters of one simulated run: what [`Engine::run_inner`] builds a
/// run from.
#[derive(Debug, Clone)]
struct RunSpec {
    policy: SchedPolicy,
    persistence: PersistencePolicy,
    seed: u64,
    crash_target: Option<(usize, usize)>,
    /// [`SchedPolicy::Scripted`]: the candidate index to pick at each
    /// branch point (empty otherwise).
    script: Vec<usize>,
}

impl RunSpec {
    fn new(
        policy: SchedPolicy,
        persistence: PersistencePolicy,
        seed: u64,
        crash_target: Option<(usize, usize)>,
    ) -> Self {
        RunSpec {
            policy,
            persistence,
            seed,
            crash_target,
            script: Vec::new(),
        }
    }

    /// A model-checking run: the deterministic schedule, crashing into
    /// [`MODEL_CHECK_PERSISTENCE`].
    fn model_check(crash_target: Option<(usize, usize)>) -> Self {
        RunSpec::new(
            SchedPolicy::Deterministic,
            MODEL_CHECK_PERSISTENCE,
            0,
            crash_target,
        )
    }
}

/// How model checking materializes a crash. Suffixes resumed from
/// snapshots replay the injected crash themselves, so they must use the
/// same policy as the full runs they stand in for.
const MODEL_CHECK_PERSISTENCE: PersistencePolicy = PersistencePolicy::FullCache;

/// Merges per-run outcomes in run order: stats, trace lanes, de-duplicated
/// reports, panics, fork counters, and the execution count all absorb
/// through one path, so every mode accounts its runs (including the
/// profiling run) identically.
#[derive(Default)]
struct RunAccumulator {
    /// The first report per `(kind, label)` key, in run order.
    races: Vec<RaceReport>,
    seen: FastSet<(crate::ReportKind, crate::event::Label)>,
    /// Reports dropped because their `(kind, label)` was already present —
    /// surfaced as the `engine.dedup_hits` metric.
    dedup_hits: u64,
    panics: Vec<String>,
    executions: usize,
    /// The first absorbed run's crash-point total: the profiling run's in
    /// model checking and random mode, the empty script's in exploration.
    crash_points: usize,
    stats: crate::mem::ExecStats,
    cov: obs::SiteTable,
    fork: ForkStats,
    prune: PruneStats,
    gc: GcStats,
    /// Trace lanes fill in run order (profile first, then crash targets)
    /// — never in worker-completion order — so the merged trace is
    /// byte-identical at every worker count.
    trace: Option<obs::RunTrace>,
}

impl RunAccumulator {
    fn new(trace: bool) -> Self {
        RunAccumulator {
            trace: trace.then(obs::RunTrace::new),
            ..RunAccumulator::default()
        }
    }

    fn absorb_run(&mut self, run: &SingleRun) {
        if self.executions == 0 {
            self.crash_points = run.points.iter().sum();
        }
        self.executions += 1;
        self.stats.absorb(&run.stats);
        self.cov.absorb(&run.cov);
        self.fork.absorb(&run.fork);
        self.gc.absorb(&run.gc);
        if let Some(t) = self.trace.as_mut() {
            t.push_run(run.trace.clone().unwrap_or_default());
        }
        for report in &run.reports {
            if self.seen.insert((report.kind(), report.label())) {
                self.races.push(report.clone());
            } else {
                self.dedup_hits += 1;
            }
        }
        self.panics.extend_from_slice(&run.panics);
    }

    /// Absorbs a skipped member's attributed outcome, after its
    /// representative's run: counter arithmetic, a count of dedup hits
    /// and, when there are any, copies of the representative's panic
    /// messages and trace lane. No run is built for it.
    fn absorb_member(&mut self, m: &Attributed<'_>) {
        self.executions += 1;
        m.add_counters(&mut self.stats, &mut self.cov);
        self.fork.absorb(&m.fork());
        if let Some(t) = self.trace.as_mut() {
            t.push_run(m.rep.trace.clone().unwrap_or_default());
        }
        // The representative's run was merged first, so the key of every
        // report the member inherits is already present: each is a hit.
        self.dedup_hits += m.rep.reports.len() as u64;
        self.panics.extend_from_slice(&m.rep.panics);
    }
}

/// What a class's representative did after its crash point: the suffix
/// counters every skipped member of the class inherits on top of its own
/// prefix. Computed once per class with members.
struct ClassDelta {
    stats: crate::mem::ExecStats,
    cov: obs::SiteTable,
}

impl ClassDelta {
    fn new(rep: &SingleRun, rep_rec: &PointRecord) -> Self {
        ClassDelta {
            stats: rep.stats.minus(&rep_rec.stats),
            cov: rep.cov.minus(&rep_rec.cov),
        }
    }
}

/// The outcome of a skipped class member, attributed from its
/// representative's executed run: the one definition that pruning absorbs
/// ([`RunAccumulator::absorb_member`]) and exhaustive resumption's
/// attribution check materializes ([`Attributed::materialize`]).
///
/// Everything observable is inherited: by class construction no event
/// between the two crash points changed the materialized crash state or
/// the detector's report-relevant state, so the member's post-crash
/// continuation is the representative's. Only the operation counters
/// differ — the member's prefix counted more (effect-free) events — so its
/// stats and coverage are its own recorded prefix plus the class delta,
/// exactly what a full run targeting the member counts.
struct Attributed<'a> {
    rep: &'a SingleRun,
    delta: &'a ClassDelta,
    member: &'a PointRecord,
}

impl Attributed<'_> {
    /// Adds the member's operation counters and coverage to `stats` and
    /// `cov`: its recorded prefix, then the class delta.
    fn add_counters(&self, stats: &mut crate::mem::ExecStats, cov: &mut obs::SiteTable) {
        stats.absorb(&self.member.stats);
        stats.absorb(&self.delta.stats);
        cov.absorb(&self.member.cov);
        cov.absorb(&self.delta.cov);
    }

    /// The member's fork bookkeeping: one resumed run whose prefix is the
    /// member's and whose suffix is the representative's. Physical GC work
    /// happened once, in the representative's run, and is not attributed
    /// again.
    fn fork(&self) -> ForkStats {
        ForkStats {
            resumed_runs: 1,
            prefix_events_skipped: self.member.stats.events(),
            suffix_events: self.rep.fork.suffix_events,
            ..ForkStats::default()
        }
    }

    /// The member's outcome as a run of its own, for the attribution check.
    fn materialize(&self) -> SingleRun {
        let mut points = self.rep.points.clone();
        points[self.member.phase] = self.member.point + 1;
        let mut run = SingleRun {
            reports: self.rep.reports.clone(),
            panics: self.rep.panics.clone(),
            points,
            trace: self.rep.trace.clone(),
            fork: self.fork(),
            ..SingleRun::default()
        };
        self.add_counters(&mut run.stats, &mut run.cov);
        run
    }
}

/// The execution engine.
///
/// See the crate docs for an end-to-end example; the highest-level entry
/// point is [`Engine::run_observed`].
#[derive(Debug)]
pub struct Engine;

impl Engine {
    /// Runs `program` under `mode`, creating a detector per simulated run
    /// via `sink_factory`, and aggregates de-duplicated reports. The report
    /// is identical for every `config.workers` value.
    ///
    /// Wall-clock telemetry is published to `tel` ([`Telemetry::off`] for
    /// none). Telemetry is the write-only second observability plane: the
    /// engine reports phase timings, worker utilization, and progress
    /// counters into it but never reads it back, so the returned [`RunReport`] (and
    /// everything derived from it — traces, metrics, `--json`) is
    /// byte-identical whether `tel` is enabled or [`Telemetry::off`].
    pub fn run_observed(
        program: &Program,
        mode: ExecMode,
        sink_factory: SinkFactory<'_>,
        config: &EngineConfig,
        tel: &Arc<Telemetry>,
    ) -> RunReport {
        let start = Instant::now();
        let workers = config.resolved_workers();
        let mut acc = RunAccumulator::new(config.trace);
        let mut cartography = obs::Cartography::default();

        match mode {
            ExecMode::ModelCheck(cfg) => {
                // Profiling run: no injected crash (every phase runs to its
                // end-of-phase crash); counts the crash points per phase and
                // records each point of the targeted phases, capturing
                // snapshots per the capture policy — the deterministic
                // schedule makes each snapshot exactly the state a full run
                // with that crash target reaches at its injection point.
                let capture = if !config.fork {
                    Capture::Records
                } else if config.prune {
                    Capture::Representatives
                } else {
                    Capture::EveryPoint
                };
                let capture_phases = 1 + usize::from(cfg.crash_in_recovery);
                // The phase also covers turning the profile into the plan
                // below (absorbing it, the targets, the cartography and the
                // classes), so no step of the run falls between phases.
                let profile_phase = tel.time(WallPhase::ProfileRun);
                let (profile, _, log) = Self::run_inner(
                    program,
                    &RunSpec::model_check(None),
                    Self::make_sink(sink_factory, config),
                    Some(SnapshotLog::new(capture_phases, capture)),
                    config,
                    tel,
                );
                tel.add(Count::Executions, 1);
                acc.absorb_run(&profile);
                let profile_points = profile.points;
                let log = log.expect("the profile run keeps its snapshot log");

                // One crash target per recorded point, in target order.
                let targets: Vec<(usize, usize)> =
                    log.records.iter().map(|r| (r.phase, r.point)).collect();
                tel.add(Count::CrashPointsTotal, targets.len() as u64);
                cartography = Self::build_cartography(&profile_points, &log);
                // Resume from snapshots when the profiling run captured a
                // usable set — one per class, or one per point; otherwise
                // (fork disabled, or the sink cannot fork) fall back to one
                // full re-execution per target.
                let classes = Self::class_ranges(&log.records);
                let wanted = match log.capture {
                    Capture::Records => None,
                    Capture::Representatives => Some(classes.len()),
                    Capture::EveryPoint => Some(targets.len()),
                };
                drop(profile_phase);
                if !log.unsupported && wanted == Some(log.snaps.len()) {
                    acc.fork.snapshots += log.snaps.len() as u64;
                    if config.prune {
                        acc.prune.classes += classes.len() as u64;
                        acc.prune.representatives += classes.len() as u64;
                    }
                    Self::resume_classes(
                        program,
                        log,
                        &classes,
                        &profile_points,
                        workers,
                        &mut acc,
                        tel,
                    );
                } else {
                    let specs = targets
                        .into_iter()
                        .map(|t| RunSpec::model_check(Some(t)))
                        .collect();
                    Self::absorb_batch(program, specs, sink_factory, config, tel, &mut acc, true);
                }
            }
            ExecMode::Random(cfg) => {
                // One profiling run estimates the crash-point count; it is a
                // full simulated run and its reports, panics, and execution
                // count all land in the aggregate like any other run.
                let random = |seed, crash_target| {
                    RunSpec::new(
                        SchedPolicy::RandomChoice,
                        PersistencePolicy::Random,
                        seed,
                        crash_target,
                    )
                };
                // As in model checking, the phase covers drawing the plan.
                let profile_phase = tel.time(WallPhase::ProfileRun);
                let (profile, _, _) = Self::run_inner(
                    program,
                    &random(cfg.seed, None),
                    Self::make_sink(sink_factory, config),
                    None,
                    config,
                    tel,
                );
                tel.add(Count::Executions, 1);
                let est = profile.points.first().copied().unwrap_or(0);
                acc.absorb_run(&profile);
                // Seeds and crash targets are drawn up front so the
                // schedule of draws — and hence every run — is identical
                // however the runs are distributed over workers.
                let mut top_rng = StdRng::seed_from_u64(cfg.seed);
                let specs: Vec<RunSpec> = (0..cfg.executions)
                    .map(|e| {
                        let seed_e = cfg
                            .seed
                            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(e as u64 + 1));
                        let target = if est > 0 {
                            let t = top_rng.gen_range(0..=est);
                            (t < est).then_some((0usize, t))
                        } else {
                            None
                        };
                        random(seed_e, target)
                    })
                    .collect();
                drop(profile_phase);
                Self::absorb_batch(program, specs, sink_factory, config, tel, &mut acc, false);
            }
            ExecMode::Explore {
                crash_target,
                max_runs,
            } => {
                // Breadth-first over branch points: alternatives at *early*
                // branch points diverge most, so they are explored first
                // under a bound.
                let mut pending = std::collections::VecDeque::from([Vec::<usize>::new()]);
                while acc.executions < max_runs && !pending.is_empty() {
                    let wave_len = pending.len().min(workers).min(max_runs - acc.executions);
                    let wave: Vec<Vec<usize>> = pending.drain(..wave_len).collect();
                    let specs = wave
                        .iter()
                        .map(|script| RunSpec {
                            script: script.clone(),
                            ..RunSpec::new(
                                SchedPolicy::Scripted,
                                PersistencePolicy::FullCache,
                                0,
                                crash_target,
                            )
                        })
                        .collect();
                    let logs = Self::absorb_batch(
                        program,
                        specs,
                        sink_factory,
                        config,
                        tel,
                        &mut acc,
                        false,
                    );
                    for (script, log) in wave.iter().zip(logs) {
                        // Branch: every not-yet-tried alternative at or past
                        // the forced prefix spawns a new script.
                        for i in script.len()..log.len() {
                            let (chosen, n) = log[i];
                            for alt in chosen + 1..n {
                                let mut next: Vec<usize> =
                                    log[..i].iter().map(|&(c, _)| c).collect();
                                next.push(alt);
                                pending.push_back(next);
                            }
                        }
                    }
                }
            }
        }

        let _merge = tel.time(WallPhase::Merge);
        let RunAccumulator {
            mut races,
            dedup_hits,
            panics,
            executions,
            crash_points,
            stats,
            cov,
            fork,
            prune,
            gc,
            trace,
            ..
        } = acc;
        let elapsed = start.elapsed();
        tel.add_total(elapsed);
        // A stable sort by `(kind, label)` makes the order independent of
        // worker count and merge order.
        races.sort_by_key(|r| (r.kind(), r.label()));
        // Coverage plane bundle: the accumulated site table, the
        // cartography, and the labels the final report's persistency races
        // name (sorted + deduplicated — they drive the `raced` verdicts).
        let mut raced_labels: Vec<String> = races
            .iter()
            .filter(|r| r.kind() == crate::report::ReportKind::PersistencyRace)
            .map(|r| r.label().to_owned())
            .collect();
        raced_labels.sort();
        raced_labels.dedup();
        let coverage = obs::CoverageReport {
            sites: cov,
            cartography,
            raced_labels,
        };
        RunReport::new(
            dedup_hits,
            races,
            executions,
            crash_points,
            panics,
            elapsed,
            stats,
            coverage,
            fork,
            prune,
            gc,
            trace,
        )
    }

    /// The memory system's GC period under `config`: `Some(commits)` when
    /// streaming GC is on, `None` otherwise.
    fn gc_period(config: &EngineConfig) -> Option<u64> {
        config.gc.then_some(config.gc_every.max(1) as u64)
    }

    /// Partitions profiled crash points into crash-state equivalence
    /// classes: maximal runs of consecutive points with equal
    /// `(phase, fingerprint)`. Returns `(start, len)` pairs over `records`.
    /// Cartography, pruning and exhaustive resumption's attribution check
    /// all share this one partition.
    ///
    /// Only consecutive points can share a class: the fingerprint is a
    /// rolling hash, so any state-changing event between two points
    /// separates them for good.
    fn class_ranges(records: &[PointRecord]) -> Vec<(usize, usize)> {
        let mut classes: Vec<(usize, usize)> = Vec::new();
        for (i, r) in records.iter().enumerate() {
            match classes.last_mut() {
                Some((start, len))
                    if records[*start].phase == r.phase
                        && records[*start].fingerprint == r.fingerprint =>
                {
                    *len += 1;
                }
                _ => classes.push((i, 1)),
            }
        }
        classes
    }

    /// Derives the crash-space cartography from the profiling run's point
    /// records: per targeted phase, how many crash points the program
    /// offered, how many distinct crash-state equivalence classes they fell
    /// into (`explored` — what pruning resumes, and what exhaustive
    /// resumption covers redundantly), and the class-size histogram.
    ///
    /// Everything is computed from the record stream and the fingerprint
    /// structure, both of which are strategy-independent, so the chart is
    /// byte-identical across fork/prune/GC on/off and every worker count.
    fn build_cartography(profile_points: &[usize], log: &SnapshotLog) -> obs::Cartography {
        let classes = Self::class_ranges(&log.records);
        let phases = (0..log.capture_phases.min(profile_points.len()))
            .map(|p| {
                let points = profile_points[p] as u64;
                let mut sizes: FastMap<u64, u64> = FastMap::default();
                let mut explored = 0u64;
                for &(start, len) in &classes {
                    if log.records[start].phase == p {
                        explored += 1;
                        *sizes.entry(len as u64).or_insert(0) += 1;
                    }
                }
                let mut class_sizes: Vec<(u64, u64)> = sizes.into_iter().collect();
                class_sizes.sort_unstable();
                obs::PhaseChart {
                    phase: p,
                    points,
                    explored,
                    prunable: points - explored,
                    class_sizes,
                }
            })
            .collect();
        obs::Cartography { phases }
    }

    /// Class resumption: resumes one suffix per class from its snapshot and
    /// attributes the outcome to every other member, absorbing results in
    /// exact crash-target order so the aggregated report is byte-identical
    /// to one full re-execution per crash point.
    ///
    /// Under [`Capture::EveryPoint`] (fork without pruning) every member
    /// suffix is executed as well: each executed member is asserted equal
    /// to its [`Attributed`] outcome, materialized, and the executed run is
    /// what the accumulator absorbs — so the report is the exhaustive one
    /// and the `prune.*` counters stay zero.
    fn resume_classes(
        program: &Program,
        log: SnapshotLog,
        classes: &[(usize, usize)],
        profile_points: &[usize],
        workers: usize,
        acc: &mut RunAccumulator,
        tel: &Arc<Telemetry>,
    ) {
        let SnapshotLog {
            snaps,
            records,
            capture,
            ..
        } = log;
        // Snapshot k is class k's representative, or under
        // `EveryPoint` point k — either way the resumed runs come back in
        // class order, representative first. Earlier crash points have
        // longer suffixes, so the longest runs are taken first.
        let every_point = capture == Capture::EveryPoint;
        let runs = {
            let _t = tel.time(WallPhase::SuffixResume);
            pool::run_batch(snaps, workers, tel, |snap| {
                let run = Self::resume_run(program, snap, profile_points);
                // Every physically resumed suffix completes one crash point.
                tel.add(Count::SuffixesResumed, 1);
                tel.add(Count::CrashPointsDone, 1);
                tel.add(Count::Executions, 1);
                run
            })
        };
        let _merge = tel.time(WallPhase::Merge);
        let mut runs = runs.into_iter();
        for &(start, len) in classes {
            let rep = runs.next().expect("one run per class");
            let rep_rec = &records[start];
            let members = &records[start + 1..start + len];
            if !every_point {
                // Attribution completes the members' crash points; under
                // `EveryPoint` each member was resumed (and counted) above.
                acc.prune.suffixes_skipped += members.len() as u64;
                acc.prune.events_attributed += rep.fork.suffix_events * members.len() as u64;
                tel.add(Count::CrashPointsDone, members.len() as u64);
                tel.add(Count::SuffixesPruned, members.len() as u64);
                acc.absorb_run(&rep);
                if !members.is_empty() {
                    let delta = ClassDelta::new(&rep, rep_rec);
                    for member in members {
                        acc.absorb_member(&Attributed {
                            rep: &rep,
                            delta: &delta,
                            member,
                        });
                    }
                }
                continue;
            }
            let delta = ClassDelta::new(&rep, rep_rec);
            let executed: Vec<SingleRun> = members
                .iter()
                .map(|member| {
                    let actual = runs.next().expect("every member was resumed");
                    let attributed = Attributed {
                        rep: &rep,
                        delta: &delta,
                        member,
                    };
                    assert_eq!(
                        Self::run_fingerprint(&actual),
                        Self::run_fingerprint(&attributed.materialize()),
                        "attributed outcome for crash point (phase {}, point {}) \
                         diverges from its executed run",
                        member.phase,
                        member.point,
                    );
                    actual
                })
                .collect();
            acc.absorb_run(&rep);
            for run in &executed {
                acc.absorb_run(run);
            }
        }
    }

    /// Comparison key for the attribution check: everything the
    /// accumulator folds into the logical report — reports, panics, crash
    /// points, operation counters — excluding physical strategy counters
    /// (fork bookkeeping) and traces (a traced run ticks its virtual clock
    /// on every event, which already makes each point its own class).
    fn run_fingerprint(run: &SingleRun) -> String {
        format!(
            "{:?}|{:?}|{:?}|{:?}|{}",
            run.reports,
            run.panics,
            run.points,
            run.stats,
            run.cov.canonical()
        )
    }

    /// Builds the per-run sink: the factory's sink, wrapped in a
    /// [`SpanTraceSink`] when tracing is on.
    fn make_sink(sink_factory: SinkFactory<'_>, config: &EngineConfig) -> Box<dyn EventSink> {
        let sink = sink_factory();
        if config.trace {
            Box::new(SpanTraceSink::new(sink))
        } else {
            sink
        }
    }

    /// Runs every phase of `program` once with the given scheduling policy,
    /// persistence policy, seed, and optional `(phase, point)` crash
    /// target, under default engine configuration (streaming GC on).
    pub fn run_single(
        program: &Program,
        policy: SchedPolicy,
        persistence: PersistencePolicy,
        seed: u64,
        crash_target: Option<(usize, usize)>,
        sink: Box<dyn EventSink>,
    ) -> SingleRun {
        Self::run_single_observed(
            program,
            policy,
            persistence,
            seed,
            crash_target,
            sink,
            &EngineConfig::default(),
            Telemetry::off(),
        )
    }

    /// [`Engine::run_single`] with explicit engine configuration,
    /// publishing wall-clock telemetry to `tel` (see
    /// [`Engine::run_observed`] for the plane contract). The whole run is
    /// attributed to the full-run phase.
    #[allow(clippy::too_many_arguments)]
    pub fn run_single_observed(
        program: &Program,
        policy: SchedPolicy,
        persistence: PersistencePolicy,
        seed: u64,
        crash_target: Option<(usize, usize)>,
        sink: Box<dyn EventSink>,
        config: &EngineConfig,
        tel: &Arc<Telemetry>,
    ) -> SingleRun {
        let start = Instant::now();
        let (run, _, _) = {
            let _t = tel.time(WallPhase::FullRun);
            Self::run_inner(
                program,
                &RunSpec::new(policy, persistence, seed, crash_target),
                sink,
                None,
                config,
                tel,
            )
        };
        tel.add(Count::Executions, 1);
        tel.add_total(start.elapsed());
        run
    }

    /// Runs `specs` as one batch and absorbs the outcomes in spec order,
    /// returning each run's branch-choice log (which only exploration
    /// reads). The specs fan out over [`pool::run_batch`]; each run builds
    /// a private sink, so runs never share mutable state. `count_points`
    /// marks each run as one completed crash point on the progress
    /// counters.
    fn absorb_batch(
        program: &Program,
        specs: Vec<RunSpec>,
        sink_factory: SinkFactory<'_>,
        config: &EngineConfig,
        tel: &Arc<Telemetry>,
        acc: &mut RunAccumulator,
        count_points: bool,
    ) -> Vec<Vec<(usize, usize)>> {
        let runs = {
            let _t = tel.time(WallPhase::FullRun);
            pool::run_batch(specs, config.resolved_workers(), tel, |spec| {
                let sink = Self::make_sink(sink_factory, config);
                let (run, log, _) = Self::run_inner(program, &spec, sink, None, config, tel);
                tel.add(Count::Executions, 1);
                tel.add(Count::CrashPointsDone, u64::from(count_points));
                (run, log)
            })
        };
        let _t = tel.time(WallPhase::Merge);
        runs.into_iter()
            .map(|(run, log)| {
                acc.absorb_run(&run);
                log
            })
            .collect()
    }

    /// Builds and runs one simulated run from `spec` under `config`'s GC
    /// settings: returns the branch-point choice log and (when a `snaplog`
    /// was installed) the snapshot log alongside the outcome.
    fn run_inner(
        program: &Program,
        spec: &RunSpec,
        sink: Box<dyn EventSink>,
        snaplog: Option<SnapshotLog>,
        config: &EngineConfig,
        tel: &Arc<Telemetry>,
    ) -> (SingleRun, Vec<(usize, usize)>, Option<SnapshotLog>) {
        install_quiet_panic_hook();
        let mut mem = MemState::new(program.compiler(), program.heap_bytes());
        if let Some(every) = Self::gc_period(config) {
            mem.enable_gc(every);
        }
        if tel.enabled() {
            mem.set_telemetry(Arc::clone(tel));
        }
        let rng = StdRng::seed_from_u64(spec.seed);
        let shared = Arc::new(Shared::new(mem, sink, spec.policy, rng));
        shared.with_core(|core| {
            core.sched.script = spec.script.clone();
            core.snaplog = snaplog;
        });
        let mut points = Vec::with_capacity(program.phases().len());

        for (i, phase) in program.phases().iter().enumerate() {
            let target = match spec.crash_target {
                Some((p, idx)) if p == i => Some(idx),
                _ => None,
            };
            Self::exec_phase(&shared, phase, i, target, spec.persistence, &mut points);
        }

        Self::finish_run(&shared, points)
    }

    /// Runs one phase against the shared core: prologue (crash-control
    /// reset, execution-start event), the main task on the calling thread,
    /// and epilogue (crash-point accounting, end-of-phase power loss, image
    /// materialization).
    fn exec_phase(
        shared: &Arc<Shared>,
        body: &crate::program::PhaseFn,
        index: usize,
        crash_target: Option<usize>,
        persistence: PersistencePolicy,
        points: &mut Vec<usize>,
    ) {
        shared.with_core(|core| {
            core.crash.seen = 0;
            core.crash.target = crash_target;
            core.sched.crashed = false;
            if let Some(log) = core.snaplog.as_mut() {
                log.phase = index;
            }
            let exec = core.mem.exec_id();
            core.sink.on_execution_start(exec);
        });
        let tid = shared.with_core(|core| {
            let t = core.mem.register_thread(None);
            core.sched.register(t, std::thread::current());
            t
        });
        // The main task runs inline; the host then waits out any children.
        run_task(shared, tid, Shared::enter_task, |ctx| body(ctx));
        shared.wait_all_tasks();
        shared.with_core(|core| {
            points.push(core.crash.seen);
            if !core.sched.crashed {
                // End-of-phase power loss.
                let exec = core.mem.exec_id();
                core.sink.on_crash(exec);
            }
            let Core { mem, rng, .. } = core;
            mem.crash(persistence, rng);
        });
    }

    /// Drains the core into a [`SingleRun`] after the last phase.
    fn finish_run(
        shared: &Arc<Shared>,
        points: Vec<usize>,
    ) -> (SingleRun, Vec<(usize, usize)>, Option<SnapshotLog>) {
        shared.with_core(|core| {
            core.mem.tel_flush();
            let (cow_clones, cow_bytes) = core.mem.cow_stats();
            // Fold the sink's live-state gauges (detector flushmap residency)
            // into the memory system's GC stats; gauges merge by max so the
            // aggregate across runs reports the worst resident footprint.
            let mut gc = GcStats::default();
            if core.mem.gc_enabled() {
                gc = core.mem.gc_stats();
                gc.fold_gauges(&core.sink.live_gauges());
            }
            (
                SingleRun {
                    reports: core.sink.drain_reports(),
                    panics: std::mem::take(&mut core.panics),
                    points,
                    stats: core.mem.stats,
                    cov: std::mem::take(&mut core.mem.cov),
                    trace: core.sink.drain_trace(),
                    fork: ForkStats {
                        cow_clones,
                        cow_bytes,
                        ..ForkStats::default()
                    },
                    gc,
                },
                std::mem::take(&mut core.sched.choice_log),
                core.snaplog.take(),
            )
        })
    }

    /// Resumes a post-crash continuation from one snapshot of the profiling
    /// run: replays the injected-crash tail (store-buffer drain, crash
    /// event, image materialization) exactly as a full run targeting this
    /// crash point performs it inside its crash handler, then runs the
    /// remaining phases. The prefix — every event before the crash point —
    /// is never re-executed; its effects (and its logical operation counts,
    /// carried in the snapshot's `MemState::stats`) ride along from the
    /// snapshot, which is what keeps the aggregated report byte-identical
    /// to full re-execution.
    fn resume_run(program: &Program, snap: Snapshot, profile_points: &[usize]) -> SingleRun {
        install_quiet_panic_hook();
        let Snapshot {
            phase,
            point,
            mem,
            sink,
            sched,
            rng,
            panics,
        } = snap;
        let prefix_events = mem.stats.events();
        let shared = Arc::new(Shared::from_parts(Core {
            mem,
            sink,
            sched,
            crash: CrashCtl::default(),
            rng,
            panics,
            snaplog: None,
        }));
        // Phases before the crashed phase ran to completion in the prefix.
        let mut points: Vec<usize> = profile_points[..phase].to_vec();
        shared.with_core(|core| {
            let Core { mem, sink, rng, .. } = core;
            mem.drain_all_sbs(sink.as_mut());
            sink.on_crash(mem.exec_id());
            mem.crash(MODEL_CHECK_PERSISTENCE, rng);
        });
        // The injected crash counts its own point before firing.
        points.push(point + 1);
        for (i, body) in program.phases().iter().enumerate().skip(phase + 1) {
            Self::exec_phase(&shared, body, i, None, MODEL_CHECK_PERSISTENCE, &mut points);
        }
        let (mut run, _, _) = Self::finish_run(&shared, points);
        run.fork.resumed_runs = 1;
        run.fork.prefix_events_skipped = prefix_events;
        run.fork.suffix_events = run.stats.events().saturating_sub(prefix_events);
        run
    }
}
