//! Race reports and per-run summaries.

use std::fmt;
use std::time::Duration;

use obs::{MetricsRegistry, RunTrace};
use pmem::Addr;
use px86::Atomicity;
use vclock::{Clock, ThreadId, VectorClock};

use crate::event::{ExecId, Label};
use crate::mem::ExecStats;

/// The kind of a detector report. Ordered so aggregated reports can be
/// sorted deterministically by `(kind, label)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReportKind {
    /// A persistency race per Definition 5.1 / Theorem 1.
    PersistencyRace,
    /// A true persistency race whose loaded value only feeds a checksum
    /// validation, so the program discards the inconsistent data (§7.5).
    BenignChecksum,
    /// The post-crash execution panicked (the analogue of the paper's
    /// segfault/assertion-failure symptoms, §7.2).
    PostCrashPanic,
}

impl ReportKind {
    /// Stable kebab-case identifier used by machine-readable exports.
    pub fn slug(self) -> &'static str {
        match self {
            ReportKind::PersistencyRace => "persistency-race",
            ReportKind::BenignChecksum => "benign-checksum",
            ReportKind::PostCrashPanic => "post-crash-panic",
        }
    }
}

impl fmt::Display for ReportKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReportKind::PersistencyRace => "persistency race",
            ReportKind::BenignChecksum => "benign (checksum-validated) race",
            ReportKind::PostCrashPanic => "post-crash panic",
        })
    }
}

/// The evidence trail behind one race report: everything needed to render
/// the store → (missing) flush/fence → crash → load timeline that produced
/// the finding (`yashme --explain`).
///
/// Filled in by the detector at detection time, where the store event, the
/// observing load, the consistent prefix `CVpre`, and the store's recorded
/// (but ineffective) flushes are all in hand.
#[derive(Debug, Clone)]
pub struct RaceProvenance {
    /// The racing store's vector clock (`CV_s`).
    pub store_cv: VectorClock,
    /// Bytes the store writes.
    pub store_len: u64,
    /// Language-level atomicity of the store (always tearable for races).
    pub store_atomicity: Atomicity,
    /// Flushes recorded as happening-after the store that were *not*
    /// effective — in prefix mode, flushes outside the consistent prefix —
    /// as `(flushing thread, that thread's clock at the flush)`. Empty
    /// means nothing ever flushed the store's line after the store.
    pub ineffective_flushes: Vec<(ThreadId, Clock)>,
    /// The consistent prefix `CVpre` of the store's execution at detection
    /// time: how much of the pre-crash execution the post-crash reads had
    /// pinned down.
    pub cv_pre: VectorClock,
    /// Thread performing the post-crash load.
    pub load_thread: ThreadId,
    /// First byte the load reads.
    pub load_addr: Addr,
    /// Bytes the load reads.
    pub load_len: u64,
    /// Label of the loading site ("" when the benchmark gave none).
    pub load_label: Label,
    /// Whether the load sat in a checksum-validation scope (§7.5).
    pub validated: bool,
}

/// One detector finding.
#[derive(Debug, Clone)]
pub struct RaceReport {
    kind: ReportKind,
    label: Label,
    addr: Addr,
    store_exec: ExecId,
    load_exec: ExecId,
    store_thread: ThreadId,
    detail: String,
    provenance: Option<Box<RaceProvenance>>,
}

impl RaceReport {
    /// Creates a report.
    pub fn new(
        kind: ReportKind,
        label: Label,
        addr: Addr,
        store_exec: ExecId,
        load_exec: ExecId,
        store_thread: ThreadId,
        detail: impl Into<String>,
    ) -> Self {
        RaceReport {
            kind,
            label,
            addr,
            store_exec,
            load_exec,
            store_thread,
            detail: detail.into(),
            provenance: None,
        }
    }

    /// Attaches the evidence trail used by explain-mode rendering.
    pub fn with_provenance(mut self, provenance: RaceProvenance) -> Self {
        self.provenance = Some(Box::new(provenance));
        self
    }

    /// The evidence trail behind the report, when the detector recorded it.
    pub fn provenance(&self) -> Option<&RaceProvenance> {
        self.provenance.as_deref()
    }

    /// The report kind.
    pub fn kind(&self) -> ReportKind {
        self.kind
    }

    /// The racy store's source label (field name).
    pub fn label(&self) -> Label {
        self.label
    }

    /// Address of the racing store.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Execution containing the racing store.
    pub fn store_exec(&self) -> ExecId {
        self.store_exec
    }

    /// Execution containing the race-observing load.
    pub fn load_exec(&self) -> ExecId {
        self.load_exec
    }

    /// Thread that performed the racing store.
    pub fn store_thread(&self) -> ThreadId {
        self.store_thread
    }

    /// Human-readable explanation.
    pub fn detail(&self) -> &str {
        &self.detail
    }
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: store to `{}` at {} by {} (execution {}) observed by execution {}: {}",
            self.kind,
            self.label,
            self.addr,
            self.store_thread,
            self.store_exec,
            self.load_exec,
            self.detail
        )
    }
}

obs::counter_block! {
    /// Counters describing the checkpoint/fork exploration of a run: how
    /// many snapshots were taken, how many runs resumed from one, the
    /// copy-on-write traffic those runs caused, and how much simulated work
    /// the fork skipped.
    ///
    /// Kept out of [`RunReport::metrics`] and `--json`, like every
    /// physical-strategy block: they differ between fork mode and full
    /// re-execution (and, for COW counts, between worker counts, since
    /// whichever side of a shared slab mutates first pays the clone), while
    /// the logical [`RunReport`] stays byte-identical across all of those.
    pub struct ForkStats {
        /// Snapshots captured by the profiling run (0 when fork mode is off
        /// or fell back to full re-execution).
        snapshots: sum "fork.snapshots",
        /// Runs resumed from a snapshot instead of re-executing the prefix.
        resumed_runs: sum "fork.resumed_runs",
        /// Copy-on-write clones of shared line slabs / buffer queues.
        cow_clones: sum "fork.cow_clones",
        /// Bytes copied by those clones.
        cow_bytes: sum "fork.cow_bytes",
        /// Simulated events that resumed runs did *not* re-execute (the
        /// summed prefix work fork mode saved).
        prefix_events_skipped: sum "fork.prefix_events_skipped",
        /// Simulated events resumed runs actually executed past their
        /// snapshot.
        suffix_events: sum "fork.suffix_events",
    }
}

obs::counter_block! {
    /// Counters describing crash-state equivalence pruning: how crash
    /// points grouped into classes, how many representative suffixes
    /// actually ran, and how much attributed (not executed) work the
    /// skipped members represent. Physical-strategy counters like
    /// [`ForkStats`], surfaced through [`RunReport::prune_stats`] only.
    pub struct PruneStats {
        /// Distinct `(phase, fingerprint)` equivalence classes among the
        /// crash points of the profiling run (0 when pruning was off or
        /// inactive).
        classes: sum "prune.classes",
        /// Representative suffixes actually resumed — one per class.
        representatives: sum "prune.representatives",
        /// Class members whose suffix was *not* executed; their results
        /// were attributed from the representative.
        suffixes_skipped: sum "prune.suffixes_skipped",
        /// Simulated suffix events credited to skipped members without
        /// being executed (the work pruning saved on top of fork mode).
        events_attributed: sum "prune.events_attributed",
    }
}

obs::counter_block! {
    /// Counters and gauges describing streaming GC: how much history was
    /// retired, and how big the live state actually stayed.
    /// Physical-strategy counters like [`ForkStats`], surfaced through
    /// [`RunReport::gc_stats`] only; all zeros when GC was off. Residency
    /// gauges merge by maximum: each parallel run has its own live set, and
    /// the honest aggregate of "how big did it get" is the worst run.
    pub struct GcStats {
        /// Mark-sweep passes run.
        passes: sum "gc.passes",
        /// Store events retired (table slot freed for reuse).
        events_retired: sum "gc.events_retired",
        /// Flush events dropped after their single read (plus buffer
        /// casualties cleared at crashes).
        flushes_retired: sum "gc.flushes_retired",
        /// Committed-store log entries drained into the image as the
        /// persistence floor rose.
        line_entries_retired: sum "gc.line_entries_retired",
        /// Store events resident at the end of the run.
        live_events: max "gc.live_events",
        /// High-water mark of resident store events — the bounded-memory
        /// headline number.
        peak_live_events: max "gc.peak_live_events",
        /// Event-table slots handed out again after retirement.
        slots_reused: sum "gc.slots_reused",
        /// Detector flushmap entries resident at the end of the run.
        flushmap_live: max "gc.flushmap_live",
        /// High-water mark of detector flushmap entries.
        flushmap_peak: max "gc.flushmap_peak",
    }
}

impl GcStats {
    /// Folds a sink's live-state gauges (`(metric name, value)` pairs from
    /// [`EventSink::live_gauges`](crate::EventSink::live_gauges)) into the
    /// fields of the same metric name. Panics on a name no field has.
    pub(crate) fn fold_gauges(&mut self, gauges: &[(&'static str, u64)]) {
        for &(name, value) in gauges {
            let reading = GcStats::from_metric(name, value)
                .unwrap_or_else(|| panic!("unknown live gauge `{name}`"));
            self.absorb(&reading);
        }
    }
}

/// Summary of a whole engine run (one or many executions).
#[derive(Debug, Default)]
pub struct RunReport {
    races: Vec<RaceReport>,
    executions: usize,
    crash_points: usize,
    post_crash_panics: Vec<String>,
    elapsed: Duration,
    stats: ExecStats,
    coverage: obs::CoverageReport,
    fork: ForkStats,
    prune: PruneStats,
    gc: GcStats,
    dedup_hits: u64,
    trace: Option<RunTrace>,
}

impl RunReport {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        dedup_hits: u64,
        races: Vec<RaceReport>,
        executions: usize,
        crash_points: usize,
        post_crash_panics: Vec<String>,
        elapsed: Duration,
        stats: ExecStats,
        coverage: obs::CoverageReport,
        fork: ForkStats,
        prune: PruneStats,
        gc: GcStats,
        trace: Option<RunTrace>,
    ) -> Self {
        RunReport {
            races,
            executions,
            crash_points,
            post_crash_panics,
            elapsed,
            stats,
            coverage,
            fork,
            prune,
            gc,
            dedup_hits,
            trace,
        }
    }

    /// All reports, de-duplicated and sorted by `(kind, label)` — a
    /// deterministic order independent of engine worker count.
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// Reports of kind [`ReportKind::PersistencyRace`] only.
    pub fn true_races(&self) -> impl Iterator<Item = &RaceReport> {
        self.races
            .iter()
            .filter(|r| r.kind == ReportKind::PersistencyRace)
    }

    /// Distinct labels of true persistency races, the unit the paper counts.
    pub fn race_labels(&self) -> Vec<Label> {
        self.true_races().map(RaceReport::label).collect()
    }

    /// Number of complete (pre-crash + post-crash) executions simulated.
    pub fn executions(&self) -> usize {
        self.executions
    }

    /// Number of distinct crash points discovered in the program.
    pub fn crash_points(&self) -> usize {
        self.crash_points
    }

    /// Panic messages from post-crash benchmark code (crash symptoms).
    pub fn post_crash_panics(&self) -> &[String] {
        &self.post_crash_panics
    }

    /// Wall-clock duration of the run.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Simulated-operation counters summed over every execution of the run,
    /// including the load-resolution breakdown (bytes served by bypass /
    /// cache / image, candidate stores scanned).
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// The coverage plane: per-site counters/verdicts and the crash-space
    /// cartography accumulated over the whole run. Part of the logical
    /// report surface — byte-identical across worker counts and fork/prune/
    /// GC strategy choices (see `obs::coverage`).
    pub fn coverage(&self) -> &obs::CoverageReport {
        &self.coverage
    }

    /// The coverage plane rendered as its stable-field-order JSON document.
    pub fn coverage_json(&self) -> obs::Json {
        obs::coverage_json(&self.coverage)
    }

    /// Reports dropped by `(kind, label)` de-duplication during the merge.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits
    }

    /// The merged span trace, when the run executed with
    /// [`EngineConfig::trace`](crate::EngineConfig) on.
    pub fn trace(&self) -> Option<&RunTrace> {
        self.trace.as_ref()
    }

    /// The run's metrics registry: every [`ExecStats`] counter under its
    /// canonical [`obs::names`] key, engine-level counters (executions,
    /// crash points, dedup hits, surviving reports), and — when tracing
    /// was on — the trace's event and span totals, read from the
    /// [`RunTrace`] itself.
    ///
    /// Everything here is derived from deterministic inputs, so the
    /// registry (and its JSON export) is identical at every worker count.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        for (_, name, value) in self.stats.counters() {
            m.add(name, value);
        }
        m.add(obs::names::ENGINE_EXECUTIONS, self.executions as u64);
        m.add(obs::names::ENGINE_CRASH_POINTS, self.crash_points as u64);
        m.add(obs::names::ENGINE_DEDUP_HITS, self.dedup_hits);
        m.add(obs::names::ENGINE_REPORTS, self.races.len() as u64);
        if let Some(trace) = &self.trace {
            m.add(obs::names::TRACE_EVENTS, trace.event_count());
            m.add(obs::names::TRACE_SPANS, trace.span_count() as u64);
        }
        m
    }

    /// Physical-strategy counters from checkpoint/fork exploration.
    pub fn fork_stats(&self) -> &ForkStats {
        &self.fork
    }

    /// Physical-strategy counters from crash-state equivalence pruning.
    pub fn prune_stats(&self) -> &PruneStats {
        &self.prune
    }

    /// Physical-strategy streaming-GC counters and live-state gauges.
    pub fn gc_stats(&self) -> &GcStats {
        &self.gc
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} report(s) over {} execution(s), {} crash point(s), {:?}:",
            self.races.len(),
            self.executions,
            self.crash_points,
            self.elapsed
        )?;
        for r in &self.races {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(kind: ReportKind, label: Label) -> RaceReport {
        RaceReport::new(kind, label, Addr(0x10), 0, 1, ThreadId::MAIN, "detail")
    }

    #[test]
    fn metric_names_are_unique() {
        use obs::names::*;
        let mut names = vec![
            ENGINE_EXECUTIONS,
            ENGINE_CRASH_POINTS,
            ENGINE_DEDUP_HITS,
            ENGINE_REPORTS,
            TRACE_EVENTS,
            TRACE_SPANS,
        ];
        let blocks: [Vec<_>; 4] = [
            ExecStats::default().counters().into_iter().collect(),
            ForkStats::default().counters().into_iter().collect(),
            PruneStats::default().counters().into_iter().collect(),
            GcStats::default().counters().into_iter().collect(),
        ];
        names.extend(blocks.iter().flatten().map(|c| c.1));
        let set: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len(), "{names:?}");
    }

    #[test]
    fn live_gauges_fold_by_maximum_under_their_own_names() {
        let mut gc = GcStats {
            passes: 3,
            flushmap_peak: 9,
            ..GcStats::default()
        };
        gc.fold_gauges(&[("gc.flushmap_live", 4), ("gc.flushmap_peak", 7)]);
        let expected = GcStats {
            passes: 3,
            flushmap_live: 4,
            flushmap_peak: 9,
            ..GcStats::default()
        };
        assert_eq!(gc, expected);
    }

    #[test]
    #[should_panic(expected = "unknown live gauge `detector.flushmap_live`")]
    fn an_unknown_live_gauge_panics_naming_it() {
        GcStats::default().fold_gauges(&[("detector.flushmap_live", 1)]);
    }

    #[test]
    fn events_are_the_ops_counters() {
        let s = ExecStats {
            stores_executed: 1,
            stores_committed: 2,
            loads: 4,
            flushes: 8,
            fences: 16,
            cas_ops: 32,
            crashes: 64,
            bytes_from_bypass: 1000,
            bytes_from_cache: 1000,
            bytes_from_image: 1000,
            candidate_stores_scanned: 1000,
        };
        assert_eq!(s.events(), 127);
    }

    #[test]
    fn display_mentions_label_and_kind() {
        let r = report(ReportKind::PersistencyRace, "Pair.key");
        let s = r.to_string();
        assert!(s.contains("Pair.key"));
        assert!(s.contains("persistency race"));
    }

    #[test]
    fn run_report_filters_true_races() {
        let rr = RunReport::new(
            0,
            vec![
                report(ReportKind::PersistencyRace, "a"),
                report(ReportKind::BenignChecksum, "b"),
                report(ReportKind::PersistencyRace, "c"),
            ],
            3,
            5,
            vec![],
            Duration::from_millis(1),
            ExecStats::default(),
            obs::CoverageReport::default(),
            ForkStats::default(),
            PruneStats::default(),
            GcStats::default(),
            None,
        );
        assert_eq!(rr.race_labels(), vec!["a", "c"]);
        assert_eq!(rr.races().len(), 3);
        assert_eq!(rr.executions(), 3);
        assert!(rr.to_string().contains("benign"));
    }
}
