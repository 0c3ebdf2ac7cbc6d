//! Wall-clock telemetry: the engine's *second* observability plane.
//!
//! The trace/metrics plane ([`crate::span`], [`crate::metrics`]) is stamped
//! with a **virtual** clock and is part of the logical report: it must be
//! byte-identical at every worker count and with every physical strategy
//! (fork, pruning, GC) toggled. This module is the opposite plane: **real
//! time** for humans and dashboards — phase timers, worker utilization,
//! progress counters, throughput time series — and therefore inherently
//! nondeterministic.
//!
//! The contract that keeps the two planes apart:
//!
//! 1. Telemetry is **write-only** from the engine's point of view: nothing
//!    in the engine, the memory system, or a detector ever *reads* a
//!    telemetry value to make a decision. Reports, traces, metrics, and
//!    `--json` output are byte-identical with telemetry on or off (enforced
//!    by `telemetry_equivalence.rs` in the bench crate).
//! 2. Telemetry output goes to **stderr or side files**, never stdout, so
//!    machine-readable stdout (e.g. `yashme --json`) can never interleave
//!    with a heartbeat line.
//! 3. A disabled [`Telemetry`] (the default everywhere) is a handful of
//!    untaken branches — no timestamps, no locks, no allocation.
//!
//! [`Telemetry`] is shared by `Arc`: the coordinator, every pool worker,
//! and the background [`Reporter`] thread update and sample it through
//! atomics. Phase attribution is two-layer: the *top-level* phases
//! ([`WallPhase::top_level`]) are disjoint segments of the coordinator's
//! own timeline and sum to ≈100% of a run's wall time ([`Telemetry::
//! coverage`]); nested phases (snapshot capture, GC passes) time work that
//! happens *inside* a top-level segment and are reported indented,
//! excluded from the coverage sum so nothing is counted twice.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use crate::json::Json;

/// A named wall-clock phase of the exploration engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WallPhase {
    /// The profiling run: the deterministic pre-crash schedule that counts
    /// crash points (and, in fork mode, captures snapshots).
    ProfileRun,
    /// Resuming post-crash suffixes from snapshots (fork mode).
    SuffixResume,
    /// Full re-executions: fallback model checking and random-mode runs.
    FullRun,
    /// Merging per-run outcomes into the aggregated report.
    Merge,
    /// Copy-on-write snapshot capture at a crash point (inside the
    /// profiling run).
    SnapshotCapture,
    /// One streaming-GC mark-sweep pass (inside whichever run it hit).
    GcPass,
}

impl WallPhase {
    /// Every phase, top-level first.
    pub const ALL: [WallPhase; 6] = [
        WallPhase::ProfileRun,
        WallPhase::SuffixResume,
        WallPhase::FullRun,
        WallPhase::Merge,
        WallPhase::SnapshotCapture,
        WallPhase::GcPass,
    ];

    /// Stable name used in the profile tree, JSONL snapshots, and
    /// Prometheus labels.
    pub fn name(self) -> &'static str {
        match self {
            WallPhase::ProfileRun => "profile-run",
            WallPhase::SuffixResume => "suffix-resume",
            WallPhase::FullRun => "full-run",
            WallPhase::Merge => "merge",
            WallPhase::SnapshotCapture => "snapshot-capture",
            WallPhase::GcPass => "gc-pass",
        }
    }

    /// Top-level phases are disjoint segments of the coordinator timeline;
    /// their sum over a run is the covered wall time. Nested phases happen
    /// inside a top-level segment and don't count toward coverage.
    pub fn top_level(self) -> bool {
        !matches!(self, WallPhase::SnapshotCapture | WallPhase::GcPass)
    }

    fn index(self) -> usize {
        match self {
            WallPhase::ProfileRun => 0,
            WallPhase::SuffixResume => 1,
            WallPhase::FullRun => 2,
            WallPhase::Merge => 3,
            WallPhase::SnapshotCapture => 4,
            WallPhase::GcPass => 5,
        }
    }
}

/// Per-phase accumulator: total nanoseconds and occurrence count.
#[derive(Debug, Default)]
struct PhaseSlot {
    nanos: AtomicU64,
    count: AtomicU64,
}

/// Busy/idle accounting for one worker-pool thread across one fan-out.
///
/// `idle` is queue-stall time: how long the worker sat blocked on the work
/// queue (including the final wait that ends with queue closure).
#[derive(Debug, Clone, Copy)]
pub struct WorkerStat {
    /// Time spent executing jobs.
    pub busy: Duration,
    /// Time spent blocked on the work queue.
    pub idle: Duration,
    /// Jobs completed.
    pub jobs: u64,
}

/// Counters of the suite-global work-stealing scheduler.
///
/// `jobs` and `batches` are deterministic functions of the engine
/// configuration (chunking derives from profile-run cost estimates);
/// `steals` and `queue_depth` depend on thread timing, which is why all
/// four live in this plane and never in the deterministic metrics
/// registry or `--json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// Individual jobs submitted (one per crash-point suffix, run spec, …).
    pub jobs: u64,
    /// Cost-bucketed chunks those jobs were batched into.
    pub batches: u64,
    /// Chunks executed by a lane other than their home lane.
    pub steals: u64,
    /// High-water mark of chunks queued at submission time.
    pub queue_depth: u64,
}

impl SchedCounters {
    /// Counter-wise difference (`queue_depth` is a gauge: the later
    /// high-water mark wins), for per-benchmark deltas of a shared handle.
    pub fn minus(&self, earlier: &SchedCounters) -> SchedCounters {
        SchedCounters {
            jobs: self.jobs.saturating_sub(earlier.jobs),
            batches: self.batches.saturating_sub(earlier.batches),
            steals: self.steals.saturating_sub(earlier.steals),
            queue_depth: self.queue_depth,
        }
    }
}

/// One point of the ring-buffer time series.
#[derive(Debug, Clone)]
pub struct TelemetrySample {
    /// Offset from telemetry start.
    pub at: Duration,
    /// Simulated events published so far (all runs, all workers).
    pub events: u64,
    /// Instantaneous event rate since the previous sample (events per
    /// second; total-average when this is the first sample).
    pub events_per_s: u64,
    /// Crash points completed (resumed, re-executed, or attributed).
    pub crash_points_done: u64,
    /// Crash points discovered by profiling (0 until profiling finishes,
    /// and in modes without systematic crash points).
    pub crash_points_total: u64,
    /// Post-crash suffixes physically resumed from snapshots.
    pub suffixes_resumed: u64,
    /// Crash points answered by class attribution instead of execution.
    pub suffixes_pruned: u64,
    /// Live event-table slots (gauge; last published value).
    pub live_slots: u64,
    /// Streaming-GC mark-sweep passes completed.
    pub gc_passes: u64,
    /// Simulated executions completed.
    pub executions: u64,
    /// Naive remaining-time estimate from crash-point progress.
    pub eta: Option<Duration>,
}

/// Ring-buffer state behind one mutex: the series plus the previous
/// sample's cursor for rate computation.
#[derive(Debug)]
struct Ring {
    samples: VecDeque<TelemetrySample>,
    cap: usize,
    last_events: u64,
    last_at: Duration,
}

/// The wall-clock telemetry plane. See the module docs for the contract.
pub struct Telemetry {
    enabled: bool,
    start: Instant,
    phases: [PhaseSlot; 6],
    /// Total engine wall time (sum over engine runs), set by the engine at
    /// the end of each run; the denominator of [`Telemetry::coverage`].
    total_nanos: AtomicU64,
    events: AtomicU64,
    executions: AtomicU64,
    crash_points_total: AtomicU64,
    crash_points_done: AtomicU64,
    suffixes_resumed: AtomicU64,
    suffixes_pruned: AtomicU64,
    live_slots: AtomicU64,
    sched_jobs: AtomicU64,
    sched_batches: AtomicU64,
    sched_steals: AtomicU64,
    sched_queue_depth: AtomicU64,
    workers: Mutex<Vec<WorkerStat>>,
    ring: Mutex<Ring>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.enabled)
            .field("events", &self.events.load(Ordering::Relaxed))
            .field("executions", &self.executions.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// An enabled telemetry plane starting its clock now.
    pub fn new() -> Self {
        Self::with_enabled(true)
    }

    /// A disabled instance: every recording call is an untaken branch.
    pub fn disabled() -> Self {
        Self::with_enabled(false)
    }

    fn with_enabled(enabled: bool) -> Self {
        Telemetry {
            enabled,
            start: Instant::now(),
            phases: Default::default(),
            total_nanos: AtomicU64::new(0),
            events: AtomicU64::new(0),
            executions: AtomicU64::new(0),
            crash_points_total: AtomicU64::new(0),
            crash_points_done: AtomicU64::new(0),
            suffixes_resumed: AtomicU64::new(0),
            suffixes_pruned: AtomicU64::new(0),
            live_slots: AtomicU64::new(0),
            sched_jobs: AtomicU64::new(0),
            sched_batches: AtomicU64::new(0),
            sched_steals: AtomicU64::new(0),
            sched_queue_depth: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
            ring: Mutex::new(Ring {
                samples: VecDeque::new(),
                cap: 1024,
                last_events: 0,
                last_at: Duration::ZERO,
            }),
        }
    }

    /// The process-wide disabled instance, for call sites that always pass
    /// a telemetry handle.
    pub fn off() -> &'static Arc<Telemetry> {
        static OFF: OnceLock<Arc<Telemetry>> = OnceLock::new();
        OFF.get_or_init(|| Arc::new(Telemetry::disabled()))
    }

    /// Whether this instance records anything.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    // ------------------------------------------------------------------
    // Recording (engine side).
    // ------------------------------------------------------------------

    /// Starts timing `phase`; the elapsed time is attributed when the
    /// returned guard drops. Free when disabled.
    pub fn time(&self, phase: WallPhase) -> PhaseTimer<'_> {
        PhaseTimer {
            tel: self,
            phase,
            start: self.enabled.then(Instant::now),
        }
    }

    /// Attributes `elapsed` to `phase` directly (one occurrence).
    pub fn add_phase(&self, phase: WallPhase, elapsed: Duration) {
        if !self.enabled {
            return;
        }
        let slot = &self.phases[phase.index()];
        slot.nanos
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        slot.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds one engine run's wall time to the coverage denominator.
    pub fn add_total(&self, elapsed: Duration) {
        if self.enabled {
            self.total_nanos
                .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Publishes `n` freshly executed simulated events.
    pub fn add_events(&self, n: u64) {
        if self.enabled && n > 0 {
            self.events.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one completed simulated execution.
    pub fn execution_done(&self) {
        if self.enabled {
            self.executions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds `n` crash points to the progress denominator (profiling done).
    pub fn add_points_total(&self, n: u64) {
        if self.enabled {
            self.crash_points_total.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Marks `n` crash points completed (resumed, re-executed, or
    /// attributed).
    pub fn add_points_done(&self, n: u64) {
        if self.enabled {
            self.crash_points_done.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Records one post-crash suffix physically resumed from a snapshot.
    pub fn suffix_resumed(&self) {
        if self.enabled {
            self.suffixes_resumed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records `n` crash points answered by equivalence-class attribution.
    pub fn add_pruned(&self, n: u64) {
        if self.enabled && n > 0 {
            self.suffixes_pruned.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Updates the live event-table slot gauge.
    pub fn set_live_slots(&self, n: u64) {
        if self.enabled {
            self.live_slots.store(n, Ordering::Relaxed);
        }
    }

    /// Records one worker's busy/idle split for a finished fan-out.
    pub fn record_worker(&self, stat: WorkerStat) {
        if self.enabled {
            self.workers.lock().expect("worker stats").push(stat);
        }
    }

    /// Records one scheduler batch: `jobs` items bucketed into `chunks`
    /// cost-balanced chunks, with `depth` chunks queued at submission.
    pub fn add_sched_batch(&self, jobs: u64, chunks: u64, depth: u64) {
        if self.enabled {
            self.sched_jobs.fetch_add(jobs, Ordering::Relaxed);
            self.sched_batches.fetch_add(chunks, Ordering::Relaxed);
            self.sched_queue_depth.fetch_max(depth, Ordering::Relaxed);
        }
    }

    /// Records `n` chunks executed away from their home lane.
    pub fn add_sched_steals(&self, n: u64) {
        if self.enabled && n > 0 {
            self.sched_steals.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The scheduler counters recorded so far.
    pub fn sched_counters(&self) -> SchedCounters {
        SchedCounters {
            jobs: self.sched_jobs.load(Ordering::Relaxed),
            batches: self.sched_batches.load(Ordering::Relaxed),
            steals: self.sched_steals.load(Ordering::Relaxed),
            queue_depth: self.sched_queue_depth.load(Ordering::Relaxed),
        }
    }

    // ------------------------------------------------------------------
    // Sampling and export (reporter / front-end side).
    // ------------------------------------------------------------------

    fn phase_nanos(&self, phase: WallPhase) -> u64 {
        self.phases[phase.index()].nanos.load(Ordering::Relaxed)
    }

    fn phase_count(&self, phase: WallPhase) -> u64 {
        self.phases[phase.index()].count.load(Ordering::Relaxed)
    }

    /// A snapshot of the counters right now, with the event rate computed
    /// against the previous recorded sample. Does not touch the ring.
    pub fn sample(&self) -> TelemetrySample {
        let ring = self.ring.lock().expect("telemetry ring");
        self.sample_against(&ring)
    }

    fn sample_against(&self, ring: &Ring) -> TelemetrySample {
        let at = self.start.elapsed();
        let events = self.events.load(Ordering::Relaxed);
        let delta_e = events.saturating_sub(ring.last_events);
        let delta_t = at.saturating_sub(ring.last_at);
        let window = if ring.last_at.is_zero() { at } else { delta_t };
        let window_events = if ring.last_at.is_zero() {
            events
        } else {
            delta_e
        };
        let events_per_s = if window.as_nanos() == 0 {
            0
        } else {
            ((window_events as u128 * 1_000_000_000) / window.as_nanos()) as u64
        };
        let done = self.crash_points_done.load(Ordering::Relaxed);
        let total = self.crash_points_total.load(Ordering::Relaxed);
        let eta = (done > 0 && total > done).then(|| {
            Duration::from_nanos(
                ((at.as_nanos() * u128::from(total - done)) / u128::from(done)) as u64,
            )
        });
        TelemetrySample {
            at,
            events,
            events_per_s,
            crash_points_done: done,
            crash_points_total: total,
            suffixes_resumed: self.suffixes_resumed.load(Ordering::Relaxed),
            suffixes_pruned: self.suffixes_pruned.load(Ordering::Relaxed),
            live_slots: self.live_slots.load(Ordering::Relaxed),
            gc_passes: self.phase_count(WallPhase::GcPass),
            executions: self.executions.load(Ordering::Relaxed),
            eta,
        }
    }

    /// Takes a sample and appends it to the ring-buffer time series
    /// (evicting the oldest point past capacity).
    pub fn sample_and_record(&self) -> TelemetrySample {
        let mut ring = self.ring.lock().expect("telemetry ring");
        let sample = self.sample_against(&ring);
        ring.last_events = sample.events;
        ring.last_at = sample.at;
        if ring.samples.len() >= ring.cap {
            ring.samples.pop_front();
        }
        ring.samples.push_back(sample.clone());
        sample
    }

    /// The recorded time series, oldest first.
    pub fn samples(&self) -> Vec<TelemetrySample> {
        self.ring
            .lock()
            .expect("telemetry ring")
            .samples
            .iter()
            .cloned()
            .collect()
    }

    /// The recorded worker busy/idle stats.
    pub fn worker_stats(&self) -> Vec<WorkerStat> {
        self.workers.lock().expect("worker stats").clone()
    }

    /// Fraction of total engine wall time attributed to top-level phases
    /// (`0.0` when no run has finished).
    pub fn coverage(&self) -> f64 {
        let total = self.total_nanos.load(Ordering::Relaxed);
        if total == 0 {
            return 0.0;
        }
        let covered: u64 = WallPhase::ALL
            .iter()
            .filter(|p| p.top_level())
            .map(|&p| self.phase_nanos(p))
            .sum();
        covered as f64 / total as f64
    }

    /// One stderr heartbeat line, e.g.
    /// `[yashme] 12.3s | 42/160 crash points | 963 pruned | 528103 ev/s | ETA 8.2s`.
    pub fn heartbeat_line(&self, label: &str, s: &TelemetrySample) -> String {
        let mut line = format!("[{label}] {:.1?}", s.at);
        if s.crash_points_total > 0 {
            let _ = write!(
                line,
                " | {}/{} crash points",
                s.crash_points_done, s.crash_points_total
            );
        }
        if s.suffixes_pruned > 0 {
            let _ = write!(line, " | {} pruned", s.suffixes_pruned);
        }
        if s.suffixes_resumed > 0 {
            let _ = write!(line, " | {} resumed", s.suffixes_resumed);
        }
        let _ = write!(line, " | {} ev/s", s.events_per_s);
        if s.live_slots > 0 {
            let _ = write!(line, " | {} live slots", s.live_slots);
        }
        if let Some(eta) = s.eta {
            let _ = write!(line, " | ETA {eta:.1?}");
        }
        line
    }

    /// One JSONL snapshot document (no trailing newline). All values are
    /// integers: the virtual-plane JSON writer has no floats, and this
    /// plane follows the same discipline for easy diffing.
    pub fn jsonl_line(&self, s: &TelemetrySample) -> String {
        Json::obj([
            ("t_ms", Json::from(s.at.as_millis() as u64)),
            ("events", Json::from(s.events)),
            ("events_per_s", Json::from(s.events_per_s)),
            ("crash_points_done", Json::from(s.crash_points_done)),
            ("crash_points_total", Json::from(s.crash_points_total)),
            ("suffixes_resumed", Json::from(s.suffixes_resumed)),
            ("suffixes_pruned", Json::from(s.suffixes_pruned)),
            ("live_slots", Json::from(s.live_slots)),
            ("gc_passes", Json::from(s.gc_passes)),
            ("executions", Json::from(s.executions)),
            (
                "eta_ms",
                s.eta
                    .map_or(Json::Null, |d| Json::from(d.as_millis() as u64)),
            ),
        ])
        .render()
    }

    /// Prometheus text-format exposition of the final counters.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let secs = |n: u64| n as f64 / 1e9;
        out.push_str("# HELP yashme_phase_seconds_total Wall-clock seconds attributed to each engine phase.\n");
        out.push_str("# TYPE yashme_phase_seconds_total counter\n");
        for phase in WallPhase::ALL {
            let _ = writeln!(
                out,
                "yashme_phase_seconds_total{{phase=\"{}\"}} {:.6}",
                phase.name(),
                secs(self.phase_nanos(phase))
            );
        }
        out.push_str("# HELP yashme_phase_count_total Occurrences of each engine phase.\n");
        out.push_str("# TYPE yashme_phase_count_total counter\n");
        for phase in WallPhase::ALL {
            let _ = writeln!(
                out,
                "yashme_phase_count_total{{phase=\"{}\"}} {}",
                phase.name(),
                self.phase_count(phase)
            );
        }
        let counters: [(&str, &str, u64); 6] = [
            (
                "yashme_events_total",
                "Simulated events executed.",
                self.events.load(Ordering::Relaxed),
            ),
            (
                "yashme_executions_total",
                "Simulated executions completed.",
                self.executions.load(Ordering::Relaxed),
            ),
            (
                "yashme_crash_points_done_total",
                "Crash points completed.",
                self.crash_points_done.load(Ordering::Relaxed),
            ),
            (
                "yashme_suffixes_resumed_total",
                "Post-crash suffixes resumed from snapshots.",
                self.suffixes_resumed.load(Ordering::Relaxed),
            ),
            (
                "yashme_suffixes_pruned_total",
                "Crash points answered by equivalence-class attribution.",
                self.suffixes_pruned.load(Ordering::Relaxed),
            ),
            (
                "yashme_wall_seconds_total",
                "Engine run wall seconds.",
                0, // rendered separately below as a float
            ),
        ];
        for (name, help, value) in &counters[..5] {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        let (name, help, _) = counters[5];
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(
            out,
            "{name} {:.6}",
            secs(self.total_nanos.load(Ordering::Relaxed))
        );
        out.push_str("# HELP yashme_crash_points Crash points discovered by profiling.\n");
        out.push_str("# TYPE yashme_crash_points gauge\n");
        let _ = writeln!(
            out,
            "yashme_crash_points {}",
            self.crash_points_total.load(Ordering::Relaxed)
        );
        out.push_str("# HELP yashme_live_slots Live event-table slots (last published).\n");
        out.push_str("# TYPE yashme_live_slots gauge\n");
        let _ = writeln!(
            out,
            "yashme_live_slots {}",
            self.live_slots.load(Ordering::Relaxed)
        );
        let sched = self.sched_counters();
        out.push_str(
            "# HELP yashme_sched_jobs_total Jobs submitted to the work-stealing scheduler.\n",
        );
        out.push_str("# TYPE yashme_sched_jobs_total counter\n");
        let _ = writeln!(out, "yashme_sched_jobs_total {}", sched.jobs);
        out.push_str(
            "# HELP yashme_sched_batches_total Cost-bucketed chunks submitted to the scheduler.\n",
        );
        out.push_str("# TYPE yashme_sched_batches_total counter\n");
        let _ = writeln!(out, "yashme_sched_batches_total {}", sched.batches);
        out.push_str(
            "# HELP yashme_sched_steals_total Chunks executed away from their home lane.\n",
        );
        out.push_str("# TYPE yashme_sched_steals_total counter\n");
        let _ = writeln!(out, "yashme_sched_steals_total {}", sched.steals);
        out.push_str(
            "# HELP yashme_sched_queue_depth High-water mark of queued chunks at submission.\n",
        );
        out.push_str("# TYPE yashme_sched_queue_depth gauge\n");
        let _ = writeln!(out, "yashme_sched_queue_depth {}", sched.queue_depth);
        out.push_str(
            "# HELP yashme_worker_busy_seconds_total Seconds each pool worker spent in jobs.\n",
        );
        out.push_str("# TYPE yashme_worker_busy_seconds_total counter\n");
        out.push_str(
            "# HELP yashme_worker_idle_seconds_total Seconds each pool worker spent queue-stalled.\n",
        );
        out.push_str("# TYPE yashme_worker_idle_seconds_total counter\n");
        for (i, w) in self.worker_stats().iter().enumerate() {
            let _ = writeln!(
                out,
                "yashme_worker_busy_seconds_total{{worker=\"{i}\"}} {:.6}",
                w.busy.as_secs_f64()
            );
            let _ = writeln!(
                out,
                "yashme_worker_idle_seconds_total{{worker=\"{i}\"}} {:.6}",
                w.idle.as_secs_f64()
            );
        }
        out
    }

    /// The post-run self-profile tree (for `--profile`), rendered in the
    /// same indent style as `--details`.
    pub fn render_profile(&self) -> String {
        let total = self.total_nanos.load(Ordering::Relaxed);
        let pct = |n: u64| {
            if total == 0 {
                0.0
            } else {
                100.0 * n as f64 / total as f64
            }
        };
        let dur = |n: u64| format!("{:.3?}", Duration::from_nanos(n));
        let mut out = String::from("self-profile (wall clock):\n");
        let _ = writeln!(
            out,
            "  {:<20} {:>12} {:>7} {:>9}",
            "phase", "wall", "share", "count"
        );
        let mut covered = 0u64;
        for phase in WallPhase::ALL.iter().filter(|p| p.top_level()) {
            let nanos = self.phase_nanos(*phase);
            let count = self.phase_count(*phase);
            if count == 0 {
                continue;
            }
            covered += nanos;
            let _ = writeln!(
                out,
                "  {:<20} {:>12} {:>6.1}% {:>9}",
                phase.name(),
                dur(nanos),
                pct(nanos),
                count
            );
        }
        let unattributed = total.saturating_sub(covered);
        let _ = writeln!(
            out,
            "  {:<20} {:>12} {:>6.1}%",
            "unattributed",
            dur(unattributed),
            pct(unattributed)
        );
        let _ = writeln!(
            out,
            "  {:<20} {:>12}  (coverage {:.1}%)",
            "total",
            dur(total),
            100.0 * self.coverage()
        );
        let nested: Vec<WallPhase> = WallPhase::ALL
            .iter()
            .copied()
            .filter(|p| !p.top_level() && self.phase_count(*p) > 0)
            .collect();
        if !nested.is_empty() {
            out.push_str("  nested (inside the phases above):\n");
            for phase in nested {
                let _ = writeln!(
                    out,
                    "    {:<18} {:>12} {:>6.1}% {:>9}",
                    phase.name(),
                    dur(self.phase_nanos(phase)),
                    pct(self.phase_nanos(phase)),
                    self.phase_count(phase)
                );
            }
        }
        let workers = self.worker_stats();
        if !workers.is_empty() {
            let busy: Duration = workers.iter().map(|w| w.busy).sum();
            let idle: Duration = workers.iter().map(|w| w.idle).sum();
            let jobs: u64 = workers.iter().map(|w| w.jobs).sum();
            let occupied = busy.as_secs_f64() + idle.as_secs_f64();
            let util = if occupied == 0.0 {
                0.0
            } else {
                100.0 * busy.as_secs_f64() / occupied
            };
            let _ = writeln!(
                out,
                "  workers: {} pool thread(s), {jobs} job(s); busy {:.3?}, queue-stalled {:.3?} ({util:.1}% busy)",
                workers.len(),
                busy,
                idle
            );
        }
        let sched = self.sched_counters();
        if sched.batches > 0 {
            let _ = writeln!(
                out,
                "  sched: {} job(s) in {} chunk(s), {} stolen; peak queue {}",
                sched.jobs, sched.batches, sched.steals, sched.queue_depth
            );
        }
        out
    }
}

/// Timer guard returned by [`Telemetry::time`]; attributes the elapsed
/// time on drop.
#[must_use]
pub struct PhaseTimer<'a> {
    tel: &'a Telemetry,
    phase: WallPhase,
    start: Option<Instant>,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        if let Some(t0) = self.start {
            self.tel.add_phase(self.phase, t0.elapsed());
        }
    }
}

/// Configuration of the background [`Reporter`] thread.
#[derive(Debug, Clone)]
pub struct ReporterConfig {
    /// Sampling interval (default one second).
    pub interval: Duration,
    /// Print a heartbeat line to stderr per sample.
    pub progress: bool,
    /// Append one JSONL snapshot per sample to this file.
    pub jsonl: Option<std::path::PathBuf>,
    /// Label in the heartbeat prefix (`[label] ...`).
    pub label: String,
}

impl Default for ReporterConfig {
    fn default() -> Self {
        ReporterConfig {
            interval: Duration::from_secs(1),
            progress: false,
            jsonl: None,
            label: "yashme".to_owned(),
        }
    }
}

/// Handle for the background sampling thread; stops and joins on drop,
/// emitting one final sample so short runs still produce output.
pub struct Reporter {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Reporter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reporter")
            .field("running", &self.handle.is_some())
            .finish()
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Spawns the periodic sampling thread: every `interval` it records a
/// sample into the ring buffer and emits the configured outputs (stderr
/// heartbeat, JSONL line). Returns an inert handle when `tel` is disabled.
pub fn start_reporter(tel: &Arc<Telemetry>, config: ReporterConfig) -> Reporter {
    let stop = Arc::new(AtomicBool::new(false));
    if !tel.enabled() {
        return Reporter { stop, handle: None };
    }
    let tel = Arc::clone(tel);
    let flag = Arc::clone(&stop);
    let handle = std::thread::Builder::new()
        .name("yashme-telemetry".to_owned())
        .spawn(move || {
            let mut jsonl = config.jsonl.as_ref().map(|path| {
                std::fs::File::create(path)
                    .map(std::io::BufWriter::new)
                    .unwrap_or_else(|e| panic!("telemetry jsonl {}: {e}", path.display()))
            });
            let mut emit = |tel: &Telemetry| {
                let sample = tel.sample_and_record();
                if config.progress {
                    eprintln!("{}", tel.heartbeat_line(&config.label, &sample));
                }
                if let Some(out) = jsonl.as_mut() {
                    let _ = writeln!(out, "{}", tel.jsonl_line(&sample));
                    let _ = out.flush();
                }
            };
            let tick = Duration::from_millis(25).min(config.interval);
            let mut since_emit = Duration::ZERO;
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(tick);
                since_emit += tick;
                if since_emit >= config.interval {
                    since_emit = Duration::ZERO;
                    emit(&tel);
                }
            }
            // Final sample on shutdown: short runs get at least one line,
            // and the series always ends with the finished counters.
            emit(&tel);
        })
        .expect("spawn telemetry reporter");
    Reporter {
        stop,
        handle: Some(handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_records_nothing() {
        let tel = Telemetry::disabled();
        tel.add_phase(WallPhase::ProfileRun, Duration::from_secs(1));
        tel.add_events(10);
        tel.add_total(Duration::from_secs(1));
        {
            let _t = tel.time(WallPhase::Merge);
        }
        let s = tel.sample();
        assert_eq!(s.events, 0);
        assert_eq!(tel.coverage(), 0.0);
        assert_eq!(tel.phase_nanos(WallPhase::ProfileRun), 0);
    }

    #[test]
    fn coverage_counts_only_top_level_phases() {
        let tel = Telemetry::new();
        tel.add_phase(WallPhase::ProfileRun, Duration::from_millis(40));
        tel.add_phase(WallPhase::SuffixResume, Duration::from_millis(50));
        tel.add_phase(WallPhase::SnapshotCapture, Duration::from_millis(30));
        tel.add_total(Duration::from_millis(100));
        let cov = tel.coverage();
        assert!((cov - 0.9).abs() < 1e-9, "coverage {cov}");
    }

    #[test]
    fn sample_rates_use_the_previous_ring_point() {
        let tel = Telemetry::new();
        tel.add_events(1000);
        let first = tel.sample_and_record();
        assert_eq!(first.events, 1000);
        tel.add_events(500);
        let second = tel.sample_and_record();
        assert_eq!(second.events, 1500);
        assert_eq!(tel.samples().len(), 2);
    }

    #[test]
    fn eta_needs_progress_and_remaining_work() {
        let tel = Telemetry::new();
        assert!(tel.sample().eta.is_none());
        tel.add_points_total(10);
        assert!(tel.sample().eta.is_none(), "no points done yet");
        tel.add_points_done(4);
        assert!(tel.sample().eta.is_some());
        tel.add_points_done(6);
        assert!(tel.sample().eta.is_none(), "finished");
    }

    #[test]
    fn jsonl_line_is_one_object_with_stable_keys() {
        let tel = Telemetry::new();
        tel.add_events(42);
        let line = tel.jsonl_line(&tel.sample());
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(!line.contains('\n'));
        for key in [
            "t_ms",
            "events",
            "events_per_s",
            "crash_points_done",
            "crash_points_total",
            "suffixes_resumed",
            "suffixes_pruned",
            "live_slots",
            "gc_passes",
            "executions",
            "eta_ms",
        ] {
            assert!(line.contains(&format!("\"{key}\":")), "missing {key}");
        }
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let tel = Telemetry::new();
        tel.add_phase(WallPhase::ProfileRun, Duration::from_millis(5));
        tel.add_events(100);
        tel.record_worker(WorkerStat {
            busy: Duration::from_millis(3),
            idle: Duration::from_millis(1),
            jobs: 2,
        });
        for line in tel.to_prometheus().lines() {
            assert!(!line.is_empty());
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP ") || line.starts_with("# TYPE "));
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("metric line");
            assert!(
                name.chars().next().unwrap().is_ascii_lowercase(),
                "bad name {name:?}"
            );
            assert!(value.parse::<f64>().is_ok(), "bad value {value:?}");
        }
    }

    #[test]
    fn profile_tree_reports_coverage_and_workers() {
        let tel = Telemetry::new();
        tel.add_phase(WallPhase::ProfileRun, Duration::from_millis(60));
        tel.add_phase(WallPhase::Merge, Duration::from_millis(35));
        tel.add_phase(WallPhase::GcPass, Duration::from_millis(2));
        tel.add_total(Duration::from_millis(100));
        tel.record_worker(WorkerStat {
            busy: Duration::from_millis(50),
            idle: Duration::from_millis(10),
            jobs: 7,
        });
        let tree = tel.render_profile();
        assert!(tree.contains("profile-run"));
        assert!(tree.contains("merge"));
        assert!(tree.contains("gc-pass"));
        assert!(tree.contains("unattributed"));
        assert!(tree.contains("coverage 95.0%"));
        assert!(tree.contains("7 job(s)"));
    }

    #[test]
    fn reporter_emits_a_final_sample_on_drop() {
        let tel = Arc::new(Telemetry::new());
        tel.add_events(10);
        let reporter = start_reporter(
            &tel,
            ReporterConfig {
                interval: Duration::from_secs(60),
                ..ReporterConfig::default()
            },
        );
        drop(reporter);
        assert!(!tel.samples().is_empty(), "final sample recorded");
    }

    #[test]
    fn disabled_reporter_spawns_no_thread() {
        let tel = Arc::new(Telemetry::disabled());
        let reporter = start_reporter(&tel, ReporterConfig::default());
        drop(reporter);
        assert!(tel.samples().is_empty());
    }
}
