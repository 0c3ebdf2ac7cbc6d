//! Wall-clock telemetry: the engine's *second* observability plane.
//!
//! The trace/metrics plane ([`crate::span`], [`crate::metrics`]) is stamped
//! with a **virtual** clock and is part of the logical report: it must be
//! byte-identical at every worker count and with every physical strategy
//! (fork, pruning, GC) toggled. This module is the opposite plane: **real
//! time** for humans and dashboards — phase timers, worker utilization,
//! progress counts, throughput time series — and therefore inherently
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
//! This plane owns *time* (phase wall time, the run's wall total, executor
//! busy/idle) and the fan-out's scheduling facts. Its other [`Count`]s are
//! live progress: each one's final value is an exact expression over the
//! report's own counters (`telemetry_counts.rs` in the bench crate pins
//! every identity), so they are physical work counts, not a second owner.
//!
//! [`Telemetry`] is shared by `Arc`: the coordinator, every pool worker,
//! and the background [`Reporter`] thread update it through atomics. Each
//! of its three renderings reads one [`TelemetrySample`]: the Prometheus
//! exposition (`--prom-out`, the one machine rendering, which walks the
//! one count table), the `--profile` table (the one human table) and the
//! heartbeat line (the live view).
//! Phase attribution is two-layer: the *top-level* phases
//! ([`WallPhase::top_level`]) are disjoint segments of the coordinator's
//! own timeline and sum to ≈100% of a run's wall time ([`Telemetry::
//! coverage`]); nested phases (snapshot capture, GC passes) time work that
//! happens *inside* a top-level segment and are reported indented,
//! excluded from the coverage sum so nothing is counted twice.

use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A named wall-clock phase of the exploration engine. Declaration order
/// is the order of every rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WallPhase {
    /// The profiling run: the deterministic pre-crash schedule that counts
    /// crash points (and, in fork mode, captures snapshots), and turning
    /// its outcome into the plan of crash targets.
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

    /// Stable name used in the profile tree and the Prometheus labels.
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
}

/// A count of the telemetry plane. Declaration order indexes [`COUNTS`]
/// and is the order of the Prometheus families.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Count {
    /// Simulated events executed (a resumed suffix's inherited prefix and
    /// an attributed crash point execute none).
    Events,
    /// Simulated executions physically run.
    Executions,
    /// Crash points completed: resumed, re-executed, or attributed.
    CrashPointsDone,
    /// Crash points discovered by profiling (0 in random mode).
    CrashPointsTotal,
    /// Post-crash suffixes resumed from snapshots.
    SuffixesResumed,
    /// Crash points answered by class attribution instead of execution.
    SuffixesPruned,
    /// Live event-table slots (a gauge: the last published value).
    LiveSlots,
    /// Jobs (items) run by fan-outs.
    SchedJobs,
    /// Fan-outs: one per batch of jobs, at every worker count.
    SchedBatches,
}

impl Count {
    /// Number of counts.
    pub const N: usize = Count::SchedBatches as usize + 1;
}

/// The count table, in [`Count`] order: the Prometheus family's name,
/// type and help text.
#[rustfmt::skip]
const COUNTS: [(&str, &str, &str); Count::N] = [
    ("yashme_events_total", "counter", "Simulated events executed."),
    ("yashme_executions_total", "counter", "Simulated executions completed."),
    ("yashme_crash_points_done_total", "counter", "Crash points completed."),
    ("yashme_crash_points", "gauge", "Crash points discovered by profiling."),
    ("yashme_suffixes_resumed_total", "counter", "Post-crash suffixes resumed from snapshots."),
    ("yashme_suffixes_pruned_total", "counter", "Crash points answered by equivalence-class attribution."),
    ("yashme_live_slots", "gauge", "Live event-table slots (last published)."),
    ("yashme_sched_jobs_total", "counter", "Jobs run by fan-outs."),
    ("yashme_sched_batches_total", "counter", "Fan-outs (batches of jobs) run."),
];

/// Busy/idle accounting of one executor slot, summed over every fan-out.
///
/// Slot 0 is the thread that called the engine; slots `1..` are the scoped
/// threads a parallel fan-out spawns, so the number of slots is the largest
/// executor count any fan-out used. `idle` is the time an executor had no
/// item left while others were still finishing theirs.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStat {
    /// Time spent executing jobs.
    pub busy: Duration,
    /// Time spent out of work before the fan-out ended.
    pub idle: Duration,
    /// Jobs (items) completed.
    pub jobs: u64,
}

/// Counts of the fan-out.
///
/// `jobs` and `batches` are deterministic functions of the program and the
/// exploration strategy, the same at every worker count, but they count
/// the engine's work layout rather than anything simulated, so they live
/// in this plane and never in the deterministic metrics registry or
/// `--json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedCounters {
    /// [`Count::SchedJobs`].
    pub jobs: u64,
    /// [`Count::SchedBatches`].
    pub batches: u64,
    /// Always 0: executors take items from one shared queue, nothing is
    /// stolen. Kept for the benchmark's `pool.steals` column.
    pub steals: u64,
}

/// The whole plane at one instant; every rendering reads one of these.
#[derive(Debug, Clone)]
pub struct TelemetrySample {
    /// Offset from telemetry start.
    pub at: Duration,
    /// Every count, indexed by [`Count`].
    pub counts: [u64; Count::N],
    /// `(nanos, occurrences)` per phase, in [`WallPhase::ALL`] order.
    pub phases: [(u64, u64); 6],
    /// Total engine wall time in nanoseconds (sum over engine runs).
    pub total_nanos: u64,
    /// Busy/idle stats, one per executor slot.
    pub workers: Vec<WorkerStat>,
    /// Event rate since the previous recorded sample (total average when
    /// there is none), in events per second.
    pub events_per_s: u64,
}

/// The previous recorded sample's position, for rate computation.
#[derive(Debug, Default)]
struct Cursor {
    last_events: u64,
    last_at: Duration,
}

/// The wall-clock telemetry plane. See the module docs for the contract.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    start: Instant,
    counts: [AtomicU64; Count::N],
    /// `(nanos, occurrences)` per phase, in [`WallPhase::ALL`] order.
    phases: [[AtomicU64; 2]; 6],
    /// Total engine wall time (sum over engine runs), set by the engine at
    /// the end of each run; the denominator of [`Telemetry::coverage`].
    total_nanos: AtomicU64,
    workers: Mutex<Vec<WorkerStat>>,
    cursor: Mutex<Cursor>,
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
            counts: Default::default(),
            phases: Default::default(),
            total_nanos: AtomicU64::new(0),
            workers: Mutex::default(),
            cursor: Mutex::default(),
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

    /// Adds `n` to `count`.
    #[inline]
    pub fn add(&self, count: Count, n: u64) {
        if self.enabled {
            self.counts[count as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Sets the gauge `count` to `n`.
    #[inline]
    pub fn set(&self, count: Count, n: u64) {
        if self.enabled {
            self.counts[count as usize].store(n, Ordering::Relaxed);
        }
    }

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
        if self.enabled {
            let [nanos, count] = &self.phases[phase as usize];
            nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
            count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds one engine run's wall time to the coverage denominator.
    pub fn add_total(&self, elapsed: Duration) {
        if self.enabled {
            self.total_nanos
                .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        }
    }

    /// Adds one executor's busy/idle split and job count from a finished
    /// fan-out to executor slot `slot` (0 = the calling thread).
    pub fn record_worker(&self, slot: usize, stat: WorkerStat) {
        if self.enabled {
            let mut workers = self.workers.lock().expect("worker stats");
            if workers.len() <= slot {
                workers.resize(slot + 1, WorkerStat::default());
            }
            let w = &mut workers[slot];
            w.busy += stat.busy;
            w.idle += stat.idle;
            w.jobs += stat.jobs;
        }
    }

    // ------------------------------------------------------------------
    // Sampling (reporter / front-end side).
    // ------------------------------------------------------------------

    /// A sample of the plane right now, with the event rate computed
    /// against the previous recorded sample. Does not move the cursor.
    pub fn sample(&self) -> TelemetrySample {
        let cursor = self.cursor.lock().expect("telemetry cursor");
        self.sample_against(&cursor)
    }

    /// Takes a sample and moves the cursor to it, so the next sample's
    /// rate covers the window since this one.
    pub fn sample_and_record(&self) -> TelemetrySample {
        let mut cursor = self.cursor.lock().expect("telemetry cursor");
        let sample = self.sample_against(&cursor);
        cursor.last_events = sample.count(Count::Events);
        cursor.last_at = sample.at;
        sample
    }

    fn sample_against(&self, cursor: &Cursor) -> TelemetrySample {
        let at = self.start.elapsed();
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let counts = self.counts.each_ref().map(load);
        let events = counts[Count::Events as usize];
        let (window, window_events) = if cursor.last_at.is_zero() {
            (at, events)
        } else {
            (
                at.saturating_sub(cursor.last_at),
                events.saturating_sub(cursor.last_events),
            )
        };
        TelemetrySample {
            at,
            counts,
            phases: self.phases.each_ref().map(|[n, c]| (load(n), load(c))),
            total_nanos: load(&self.total_nanos),
            workers: self.worker_stats(),
            events_per_s: match window.as_nanos() {
                0 => 0,
                w => (u128::from(window_events) * 1_000_000_000 / w) as u64,
            },
        }
    }

    /// The recorded busy/idle stats, one per executor slot.
    pub fn worker_stats(&self) -> Vec<WorkerStat> {
        self.workers.lock().expect("worker stats").clone()
    }

    /// The fan-out counts recorded so far.
    pub fn sched_counters(&self) -> SchedCounters {
        let load = |c: Count| self.counts[c as usize].load(Ordering::Relaxed);
        SchedCounters {
            jobs: load(Count::SchedJobs),
            batches: load(Count::SchedBatches),
            steals: 0,
        }
    }

    /// [`TelemetrySample::coverage`] of a sample taken now.
    pub fn coverage(&self) -> f64 {
        self.sample().coverage()
    }

    /// [`TelemetrySample::to_prometheus`] of a sample taken now.
    pub fn to_prometheus(&self) -> String {
        self.sample().to_prometheus()
    }

    /// [`TelemetrySample::render_profile`] of a sample taken now.
    pub fn render_profile(&self) -> String {
        self.sample().render_profile()
    }
}

impl TelemetrySample {
    /// The value of `count`.
    pub fn count(&self, count: Count) -> u64 {
        self.counts[count as usize]
    }

    /// `(nanos, occurrences)` of `phase`.
    pub fn phase(&self, phase: WallPhase) -> (u64, u64) {
        self.phases[phase as usize]
    }

    /// Naive remaining-time estimate from crash-point progress.
    pub fn eta(&self) -> Option<Duration> {
        let done = self.count(Count::CrashPointsDone);
        let total = self.count(Count::CrashPointsTotal);
        (done > 0 && total > done).then(|| {
            let nanos = self.at.as_nanos() * u128::from(total - done) / u128::from(done);
            Duration::from_nanos(nanos as u64)
        })
    }

    fn covered_nanos(&self) -> u64 {
        WallPhase::ALL
            .iter()
            .filter(|p| p.top_level())
            .map(|&p| self.phase(p).0)
            .sum()
    }

    /// Fraction of total engine wall time attributed to top-level phases
    /// (`0.0` when no run has finished).
    pub fn coverage(&self) -> f64 {
        match self.total_nanos {
            0 => 0.0,
            total => self.covered_nanos() as f64 / total as f64,
        }
    }

    /// One stderr heartbeat line, e.g.
    /// `[yashme] 12.3s | 42/160 crash points | 963 pruned | 528103 ev/s | ETA 8.2s`.
    pub fn heartbeat_line(&self, label: &str) -> String {
        let mut line = format!("[{label}] {:.1?}", self.at);
        let total = self.count(Count::CrashPointsTotal);
        if total > 0 {
            let done = self.count(Count::CrashPointsDone);
            let _ = write!(line, " | {done}/{total} crash points");
        }
        for (count, what) in [
            (Count::SuffixesPruned, "pruned"),
            (Count::SuffixesResumed, "resumed"),
        ] {
            if self.count(count) > 0 {
                let _ = write!(line, " | {} {what}", self.count(count));
            }
        }
        let _ = write!(line, " | {} ev/s", self.events_per_s);
        if self.count(Count::LiveSlots) > 0 {
            let _ = write!(line, " | {} live slots", self.count(Count::LiveSlots));
        }
        if let Some(eta) = self.eta() {
            let _ = write!(line, " | ETA {eta:.1?}");
        }
        line
    }

    /// Prometheus text-format exposition: per-phase seconds and
    /// occurrences, every count family, the wall total, and per-executor
    /// busy/idle seconds.
    pub fn to_prometheus(&self) -> String {
        type Series = Vec<(String, String)>;
        let secs = |n: u64| format!("{:.6}", n as f64 / 1e9);
        let one = |value: String| vec![(String::new(), value)];
        let by_phase = |value: &dyn Fn((u64, u64)) -> String| -> Series {
            let series =
                |p: WallPhase| (format!("{{phase=\"{}\"}}", p.name()), value(self.phase(p)));
            WallPhase::ALL.into_iter().map(series).collect()
        };
        let by_worker = |value: fn(&WorkerStat) -> Duration| -> Series {
            let series = |(i, w)| {
                (
                    format!("{{worker=\"{i}\"}}"),
                    secs(value(w).as_nanos() as u64),
                )
            };
            self.workers.iter().enumerate().map(series).collect()
        };
        let mut families = vec![
            (
                "yashme_phase_seconds_total",
                "counter",
                "Wall-clock seconds attributed to each engine phase.",
                by_phase(&|(nanos, _)| secs(nanos)),
            ),
            (
                "yashme_phase_count_total",
                "counter",
                "Occurrences of each engine phase.",
                by_phase(&|(_, count)| count.to_string()),
            ),
        ];
        let counts = COUNTS.iter().zip(self.counts);
        families
            .extend(counts.map(|(&(name, kind, help), v)| (name, kind, help, one(v.to_string()))));
        families.extend([
            (
                "yashme_wall_seconds_total",
                "counter",
                "Engine run wall seconds.",
                one(secs(self.total_nanos)),
            ),
            (
                "yashme_worker_busy_seconds_total",
                "counter",
                "Seconds each executor slot spent in jobs.",
                by_worker(|w| w.busy),
            ),
            (
                "yashme_worker_idle_seconds_total",
                "counter",
                "Seconds each executor slot spent out of work.",
                by_worker(|w| w.idle),
            ),
        ]);
        let mut out = String::new();
        for (name, kind, help, series) in families {
            let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
            for (labels, value) in series {
                let _ = writeln!(out, "{name}{labels} {value}");
            }
        }
        out
    }

    /// The post-run self-profile tree (for `--profile`), rendered in the
    /// same indent style as `--details`.
    ///
    /// Top-level phases run on the coordinator, so their shares are of the
    /// wall total. Nested phases are summed over every executor, so their
    /// shares are of the summed thread time: the wall total plus the busy
    /// time of executor slots 1 and up.
    pub fn render_profile(&self) -> String {
        let total = self.total_nanos;
        let helpers: Duration = self.workers.iter().skip(1).map(|w| w.busy).sum();
        let threads = total + helpers.as_nanos() as u64;
        let share = |n: u64, of: u64| match of {
            0 => 0.0,
            t => 100.0 * n as f64 / t as f64,
        };
        let dur = |n: u64| format!("{:.3?}", Duration::from_nanos(n));
        let mut out = String::from("self-profile (wall clock):\n");
        let _ = writeln!(
            out,
            "  {:<20} {:>12} {:>7} {:>9}",
            "phase", "wall", "share", "count"
        );
        // Nested rows indent two more columns inside the same field widths.
        let row = |out: &mut String, indent: usize, p: WallPhase, of: u64| {
            let (nanos, count) = self.phase(p);
            let (name, wall, share) = (p.name(), dur(nanos), share(nanos, of));
            let width = 22 - indent;
            let _ = writeln!(
                out,
                "{:indent$}{name:<width$} {wall:>12} {share:>6.1}% {count:>9}",
                ""
            );
        };
        let (top, nested): (Vec<WallPhase>, Vec<WallPhase>) = WallPhase::ALL
            .into_iter()
            .filter(|&p| self.phase(p).1 > 0)
            .partition(|p| p.top_level());
        for p in top {
            row(&mut out, 2, p, total);
        }
        let unattributed = total.saturating_sub(self.covered_nanos());
        let _ = writeln!(
            out,
            "  {:<20} {:>12} {:>6.1}%\n  {:<20} {:>12}  (coverage {:.1}%)",
            "unattributed",
            dur(unattributed),
            share(unattributed, total),
            "total",
            dur(total),
            100.0 * self.coverage()
        );
        if !nested.is_empty() {
            let _ = writeln!(
                out,
                "  nested (inside the phases above; share of {} summed thread time):",
                dur(threads)
            );
        }
        for p in nested {
            row(&mut out, 4, p, threads);
        }
        if !self.workers.is_empty() {
            let busy: Duration = self.workers.iter().map(|w| w.busy).sum();
            let idle: Duration = self.workers.iter().map(|w| w.idle).sum();
            let jobs: u64 = self.workers.iter().map(|w| w.jobs).sum();
            let occupied = (busy + idle).as_secs_f64();
            let util = if occupied == 0.0 {
                0.0
            } else {
                100.0 * busy.as_secs_f64() / occupied
            };
            let batches = match self.count(Count::SchedBatches) {
                0 => String::new(),
                c => format!(" in {c} batch(es)"),
            };
            let _ = writeln!(
                out,
                "  workers: {} thread(s), {jobs} job(s){batches}; busy {busy:.3?}, idle {idle:.3?} ({util:.1}% busy)",
                self.workers.len(),
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
pub struct ReporterConfig {
    /// Sampling interval (default one second).
    pub interval: Duration,
    /// Where one heartbeat line per sample goes (`yashme --progress` passes
    /// stderr); `None` starts no reporter.
    pub progress: Option<Box<dyn std::io::Write + Send>>,
    /// Label in the heartbeat prefix (`[label] ...`).
    pub label: String,
}

impl Default for ReporterConfig {
    fn default() -> Self {
        ReporterConfig {
            interval: Duration::from_secs(1),
            progress: None,
            label: "yashme".to_owned(),
        }
    }
}

/// Handle for the background sampling thread. Dropping it ends the
/// thread's wait at once (the channel disconnects), and the thread emits
/// one final sample, so short runs still produce output, before it is
/// joined.
#[derive(Debug)]
pub struct Reporter {
    stop: Option<mpsc::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for Reporter {
    fn drop(&mut self) {
        drop(self.stop.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Spawns the periodic sampling thread: every `interval` it takes a
/// sample and writes its heartbeat line. Returns an inert handle, with no
/// thread, when `tel` is disabled or no heartbeat writer is configured.
pub fn start_reporter(tel: &Arc<Telemetry>, config: ReporterConfig) -> Reporter {
    let (true, Some(mut out)) = (tel.enabled(), config.progress) else {
        return Reporter {
            stop: None,
            handle: None,
        };
    };
    let tel = Arc::clone(tel);
    let (stop, stopped) = mpsc::channel::<()>();
    let handle = std::thread::Builder::new()
        .name("yashme-telemetry".to_owned())
        .spawn(move || {
            loop {
                // Only a timeout keeps sampling; a disconnect is the
                // shutdown, which still emits the finished counts.
                let last = stopped.recv_timeout(config.interval) != Err(RecvTimeoutError::Timeout);
                let sample = tel.sample_and_record();
                let _ = writeln!(out, "{}", sample.heartbeat_line(&config.label));
                let _ = out.flush();
                if last {
                    break;
                }
            }
        })
        .expect("spawn telemetry reporter");
    Reporter {
        stop: Some(stop),
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
        tel.add(Count::Events, 10);
        tel.set(Count::LiveSlots, 3);
        tel.add_total(Duration::from_secs(1));
        {
            let _t = tel.time(WallPhase::Merge);
        }
        let s = tel.sample();
        assert_eq!(s.counts, [0; Count::N]);
        assert_eq!(s.phases, [(0, 0); 6]);
        assert_eq!(tel.coverage(), 0.0);
    }

    #[test]
    fn counts_add_and_gauges_set() {
        let tel = Telemetry::new();
        tel.add(Count::Executions, 2);
        tel.add(Count::Executions, 3);
        tel.set(Count::LiveSlots, 9);
        tel.set(Count::LiveSlots, 4);
        tel.add(Count::SchedJobs, 14);
        tel.add(Count::SchedBatches, 5);
        let s = tel.sample();
        assert_eq!(s.count(Count::Executions), 5);
        assert_eq!(s.count(Count::LiveSlots), 4);
        let sched = tel.sched_counters();
        assert_eq!((sched.jobs, sched.batches, sched.steals), (14, 5, 0));
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
    fn sample_rates_use_the_previous_recorded_sample() {
        let tel = Telemetry::new();
        tel.add(Count::Events, 1000);
        let first = tel.sample_and_record();
        assert_eq!(first.count(Count::Events), 1000);
        tel.add(Count::Events, 500);
        let peek = tel.sample();
        assert_eq!(peek.count(Count::Events), 1500);
        assert_eq!(
            tel.cursor.lock().unwrap().last_events,
            1000,
            "a plain sample leaves the cursor where it was"
        );
        let second = tel.sample_and_record();
        assert_eq!(second.count(Count::Events), 1500);
        let cursor = tel.cursor.lock().unwrap();
        assert_eq!((cursor.last_events, cursor.last_at), (1500, second.at));
    }

    #[test]
    fn eta_needs_progress_and_remaining_work() {
        let tel = Telemetry::new();
        assert!(tel.sample().eta().is_none());
        tel.add(Count::CrashPointsTotal, 10);
        assert!(tel.sample().eta().is_none(), "no points done yet");
        tel.add(Count::CrashPointsDone, 4);
        assert!(tel.sample().eta().is_some());
        tel.add(Count::CrashPointsDone, 6);
        assert!(tel.sample().eta().is_none(), "finished");
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let tel = Telemetry::new();
        tel.add_phase(WallPhase::ProfileRun, Duration::from_millis(5));
        tel.add(Count::Events, 100);
        for slot in [0, 1] {
            tel.record_worker(
                slot,
                WorkerStat {
                    busy: Duration::from_millis(3),
                    idle: Duration::from_millis(1),
                    jobs: 2,
                },
            );
        }
        let prom = tel.to_prometheus();
        let mut family = "";
        for line in prom.lines() {
            assert!(!line.is_empty());
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                family = rest.split(' ').next().unwrap();
                continue;
            }
            if line.starts_with('#') {
                assert!(line.starts_with("# HELP "));
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("metric line");
            assert!(
                name.split('{').next() == Some(family),
                "{name:?} outside its family {family:?}"
            );
            assert!(value.parse::<f64>().is_ok(), "bad value {value:?}");
        }
        for (name, _, _) in COUNTS {
            assert!(prom.contains(&format!("\n{name} ")), "missing {name}");
        }
        assert!(prom.contains("\nyashme_events_total 100\n"), "{prom}");
        assert!(prom.contains("yashme_phase_count_total{phase=\"profile-run\"} 1\n"));
        assert!(prom.contains("yashme_worker_idle_seconds_total{worker=\"1\"} 0.001000\n"));
    }

    #[test]
    fn profile_tree_reports_coverage_and_workers() {
        let tel = Telemetry::new();
        tel.add_phase(WallPhase::ProfileRun, Duration::from_millis(60));
        tel.add_phase(WallPhase::Merge, Duration::from_millis(35));
        tel.add_phase(WallPhase::GcPass, Duration::from_millis(2));
        tel.add_total(Duration::from_millis(100));
        for slot in [0, 1, 0] {
            tel.record_worker(
                slot,
                WorkerStat {
                    busy: Duration::from_millis(50),
                    idle: Duration::from_millis(10),
                    jobs: 7,
                },
            );
        }
        tel.add(Count::SchedJobs, 14);
        tel.add(Count::SchedBatches, 5);
        let tree = tel.render_profile();
        assert!(tree.contains("profile-run"));
        assert!(tree.contains("merge"));
        assert!(tree.contains("gc-pass"));
        assert!(tree.contains("unattributed"));
        assert!(tree.contains("coverage 95.0%"));
        assert!(
            tree.contains("workers: 2 thread(s), 21 job(s) in 5 batch(es);"),
            "{tree}"
        );
    }

    #[test]
    fn nested_shares_are_of_summed_thread_time() {
        // Two executors: nested GC time summed over both exceeds the
        // coordinator's wall total, but not the summed thread time.
        let tel = Telemetry::new();
        tel.add_total(Duration::from_millis(100));
        tel.add_phase(WallPhase::ProfileRun, Duration::from_millis(30));
        tel.add_phase(WallPhase::SuffixResume, Duration::from_millis(60));
        tel.add_phase(WallPhase::GcPass, Duration::from_millis(150));
        for slot in [0, 1] {
            tel.record_worker(
                slot,
                WorkerStat {
                    busy: Duration::from_millis(90),
                    idle: Duration::from_millis(10),
                    jobs: 3,
                },
            );
        }
        let tree = tel.render_profile();
        assert!(tree.contains("summed thread time"), "{tree}");
        let shares: Vec<f64> = tree
            .split_whitespace()
            .filter_map(|w| w.strip_suffix('%')?.parse().ok())
            .collect();
        assert!(shares.len() >= 4, "{tree}");
        assert!(shares.iter().all(|&s| s <= 100.0), "{tree}");
        // 150 ms of 190 ms summed thread time.
        assert!(tree.contains(" 78.9%"), "{tree}");
    }

    /// A heartbeat destination the test can read back.
    #[derive(Clone, Default)]
    struct Lines(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for Lines {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Lines {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    #[test]
    fn reporter_emits_a_final_sample_on_drop_without_waiting_out_the_interval() {
        let tel = Arc::new(Telemetry::new());
        tel.add(Count::Events, 10);
        tel.add(Count::CrashPointsTotal, 8);
        tel.add(Count::CrashPointsDone, 3);
        tel.add(Count::SuffixesPruned, 2);
        let out = Lines::default();
        let reporter = start_reporter(
            &tel,
            ReporterConfig {
                interval: Duration::from_secs(60),
                progress: Some(Box::new(out.clone())),
                label: "unit".to_owned(),
            },
        );
        let t0 = Instant::now();
        drop(reporter);
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "drop waited out the interval"
        );
        let text = out.text();
        assert_eq!(text.lines().count(), 1, "one final sample: {text:?}");
        assert!(text.starts_with("[unit] "), "{text:?}");
        assert!(
            text.contains(" | 3/8 crash points | 2 pruned | "),
            "{text:?}"
        );
        assert_eq!(tel.cursor.lock().unwrap().last_events, 10);
    }

    #[test]
    fn reporter_spawns_no_thread_when_disabled_or_without_outputs() {
        let out = Lines::default();
        let disabled = start_reporter(
            &Arc::new(Telemetry::disabled()),
            ReporterConfig {
                progress: Some(Box::new(out.clone())),
                ..ReporterConfig::default()
            },
        );
        let silent = start_reporter(&Arc::new(Telemetry::new()), ReporterConfig::default());
        for reporter in [disabled, silent] {
            assert!(reporter.handle.is_none() && reporter.stop.is_none());
        }
        assert!(out.text().is_empty());
    }
}
