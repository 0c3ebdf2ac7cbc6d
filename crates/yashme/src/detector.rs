//! The persistency-race detection algorithm (§6, Figures 8 and 9).

use std::collections::hash_map::Entry;

use jaaru::{EventId, EventSink, ExecId, FlushEvent, LoadInfo, RaceReport, ReportKind, StoreEvent};
use pmem::{CacheLineId, FastMap, FastSet};
use vclock::{Clock, ThreadId, VectorClock};

use crate::config::YashmeConfig;

/// One entry of `flushmap`: a flush (or clwb-completing fence) that
/// happens-after a store, identified by the flushing thread and that
/// thread's clock at the flush — the `⟨τ, σ⟩` pairs of §6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FlushRecord {
    thread: ThreadId,
    clock: Clock,
}

/// One `flushmap` entry: every record of one store, in push order. An entry
/// exists only once a first record is pushed, so it is never empty; most
/// stores only ever get that one record, which is kept inline. Only a second
/// record (a later flush the first does not already cover, e.g. from another
/// thread) moves the entry onto the heap.
#[derive(Clone)]
enum FlushRecords {
    One(FlushRecord),
    Many(Vec<FlushRecord>),
}

/// Prints the plain list of records, whichever variant holds them.
impl std::fmt::Debug for FlushRecords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl FlushRecords {
    /// The records in push order.
    fn as_slice(&self) -> &[FlushRecord] {
        match self {
            FlushRecords::One(r) => std::slice::from_ref(r),
            FlushRecords::Many(v) => v,
        }
    }

    fn push(&mut self, record: FlushRecord) {
        match self {
            FlushRecords::One(first) => *self = FlushRecords::Many(vec![*first, record]),
            FlushRecords::Many(v) => v.push(record),
        }
    }
}

/// Typical number of distinct stores a run's `flushmap` tracks; sizing the
/// map up front keeps the hot `record_flush` path from rehashing.
const FLUSHMAP_CAPACITY: usize = 64;
/// Typical number of distinct cache lines in `lastflush`.
const LASTFLUSH_CAPACITY: usize = 16;

/// Per-execution detector state: the maps of §6.
#[derive(Debug, Clone)]
struct ExecDetState {
    /// `flushmap`: store → flushes that happen-after it. A store with an
    /// *effective* record is persisted; effectiveness depends on the mode
    /// (prefix: the record must lie inside `CVpre`; baseline: any record).
    flushmap: FastMap<EventId, FlushRecords>,
    /// `lastflush`: cache line → clock-vector lower bound for when the line
    /// was written back, raised by post-crash reads of atomic stores.
    lastflush: FastMap<CacheLineId, VectorClock>,
    /// `CVpre`: how much of this execution later executions have observed —
    /// the consistent-prefix clock vector (§5.1).
    cv_pre: VectorClock,
}

impl Default for ExecDetState {
    fn default() -> Self {
        ExecDetState {
            flushmap: FastMap::with_capacity_and_hasher(FLUSHMAP_CAPACITY, Default::default()),
            lastflush: FastMap::with_capacity_and_hasher(LASTFLUSH_CAPACITY, Default::default()),
            cv_pre: VectorClock::default(),
        }
    }
}

/// The Yashme persistency-race detector.
///
/// Plugs into the execution engine as a [`jaaru::EventSink`] and implements
/// the algorithms of Fig. 8 (populating `flushmap` at `clflush` commit and
/// `clwb`+fence) and Fig. 9 (race-checking loads that read pre-crash
/// stores). See the crate docs for usage; most callers go through
/// [`crate::model_check`] / [`crate::check`].
#[derive(Debug, Clone)]
pub struct YashmeDetector {
    config: YashmeConfig,
    states: FastMap<ExecId, ExecDetState>,
    reports: Vec<RaceReport>,
    /// Labels already reported, to bound report volume per run. Hashed:
    /// the race check consults this once per candidate store, so a linear
    /// scan would make report-heavy runs quadratic.
    reported: FastSet<(ReportKind, &'static str)>,
    /// Rolling token over detector state changes, reported through
    /// [`EventSink::fingerprint_token`] so the engine's crash-state
    /// equivalence pruning splits classes whenever detector state that can
    /// influence later reports diverges: actually-recorded flush records,
    /// `CVpre`/`lastflush` raises, emitted reports, and execution starts.
    /// Events the detector provably ignores (duplicate flush records caught
    /// by the `already` suppression, joins that raise nothing) leave it
    /// unchanged.
    token: pmem::Fp64,
    /// Stores currently tracked in some execution's `flushmap`. With
    /// streaming GC this is the detector's live-state gauge: retirement
    /// ([`EventSink::on_stores_retired`]) decrements it, so on a
    /// well-flushed workload it plateaus instead of growing with the trace.
    flushmap_live: u64,
    /// High-water mark of `flushmap_live`.
    flushmap_peak: u64,
}

impl YashmeDetector {
    /// Creates a detector with the given configuration.
    pub fn new(config: YashmeConfig) -> Self {
        YashmeDetector {
            config,
            states: FastMap::default(),
            reports: Vec::new(),
            reported: FastSet::default(),
            token: pmem::Fp64::new(),
            flushmap_live: 0,
            flushmap_peak: 0,
        }
    }

    /// Creates a detector with the paper's default configuration.
    pub fn with_defaults() -> Self {
        YashmeDetector::new(YashmeConfig::default())
    }

    /// The detector's configuration.
    pub fn config(&self) -> YashmeConfig {
        self.config
    }

    fn state(&mut self, exec: ExecId) -> &mut ExecDetState {
        self.states.entry(exec).or_default()
    }

    /// `Evict_SB(clflush)` / `Evict_FB` common path: record `flush_record`
    /// for every line store that happens-before `hb_cv`, unless an existing
    /// record already happens-before `effective_cv`.
    fn record_flush(
        &mut self,
        exec: ExecId,
        line_stores: &[&StoreEvent],
        hb_cv: &VectorClock,
        effective_cv: &VectorClock,
        flush_record: FlushRecord,
    ) {
        let state = self.states.entry(exec).or_default();
        for store in line_stores {
            // Condition (1): the store happens before the flush.
            if store.clock > hb_cv.get(store.thread) {
                continue;
            }
            match state.flushmap.entry(store.id) {
                Entry::Occupied(e) => {
                    let records = e.into_mut();
                    // Condition (2): no recorded flush already happens
                    // before the point that makes this one effective.
                    let already = records
                        .as_slice()
                        .iter()
                        .any(|r| r.clock <= effective_cv.get(r.thread));
                    if already {
                        continue;
                    }
                    records.push(flush_record);
                }
                Entry::Vacant(v) => {
                    self.flushmap_live += 1;
                    self.flushmap_peak = self.flushmap_peak.max(self.flushmap_live);
                    v.insert(FlushRecords::One(flush_record));
                }
            }
            self.token.absorb(2);
            self.token.absorb(store.id);
            self.token.absorb(flush_record.thread.as_usize() as u64);
            self.token.absorb(flush_record.clock);
        }
    }

    /// The race check of Fig. 9 (`Load_NonAtomic`) applied to one candidate
    /// store.
    fn check_candidate(&mut self, load: &LoadInfo, store: &StoreEvent) {
        if !store.atomicity.is_tearable() {
            return; // condition (1) of Definition 5.1: store must be plain
        }
        if store.exec >= load.exec {
            return; // only pre-crash stores race with post-crash loads
        }
        if self.config.suppressed_labels.contains(&store.label) {
            return; // developer annotation (§7.5 future work)
        }
        let prefix = self.config.prefix_expansion;
        let eadr = self.config.eadr;
        let state = self.state(store.exec);
        let line = store.line();
        // Condition (2): the line is known (via a later atomic store the
        // post-crash execution read) to have been written back after this
        // store completed.
        if let Some(lf) = state.lastflush.get(&line) {
            if store.clock <= lf.get(store.thread) {
                return;
            }
        }
        // eADR (§7.5): a store that left the store buffer is persistent.
        // If any consistent prefix event of the storing thread postdates
        // the store, TSO's FIFO buffer drained it before that event became
        // observable, so the store fully persisted.
        if eadr && state.cv_pre.get(store.thread) > store.clock {
            return;
        }
        // Conditions (3)/(4): an effective flush happens-after the store.
        // Entries are never empty, so in baseline mode any entry suffices.
        if let Some(records) = state.flushmap.get(&store.id) {
            let flushed = !prefix
                || records
                    .as_slice()
                    .iter()
                    .any(|r| r.clock <= state.cv_pre.get(r.thread));
            if flushed {
                return;
            }
        }
        // Persistency race. A load inside a checksum-validation scope still
        // observed a true race ("although these are still true persistency
        // races by definition", §7.5); it is reported apart as benign.
        let kind = if load.validated {
            ReportKind::BenignChecksum
        } else {
            ReportKind::PersistencyRace
        };
        if !self.reported.insert((kind, store.label)) {
            return;
        }
        self.token.absorb(3);
        self.token
            .absorb(pmem::fingerprint::hash_bytes(store.label.as_bytes()));
        self.token.absorb(store.id);
        let detail = format!(
            "non-atomic {}-byte store could be torn or invented by the compiler; \
             no consistent prefix of execution {} flushes it before the \
             post-crash load at {} (execution {})",
            store.len(),
            store.exec,
            load.addr,
            load.exec,
        );
        // Evidence trail for explain mode: the store's clock vector, every
        // recorded-but-ineffective flush, and the consistent prefix that
        // failed to cover them — captured here, where they are all in hand.
        let state = self.state(store.exec);
        let provenance = jaaru::RaceProvenance {
            store_cv: store.cv.clone(),
            store_len: store.len(),
            store_atomicity: store.atomicity,
            ineffective_flushes: state
                .flushmap
                .get(&store.id)
                .map(|records| {
                    records
                        .as_slice()
                        .iter()
                        .map(|r| (r.thread, r.clock))
                        .collect()
                })
                .unwrap_or_default(),
            cv_pre: state.cv_pre.clone(),
            load_thread: load.thread,
            load_addr: load.addr,
            load_len: load.len,
            load_label: load.label,
            validated: load.validated,
        };
        self.reports.push(
            RaceReport::new(
                kind,
                store.label,
                store.addr,
                store.exec,
                load.exec,
                store.thread,
                detail,
            )
            .with_provenance(provenance),
        );
    }
}

impl EventSink for YashmeDetector {
    fn on_execution_start(&mut self, exec: ExecId) {
        self.states.entry(exec).or_default();
        self.token.absorb(1);
        self.token.absorb(exec as u64);
    }

    fn on_clflush_committed(&mut self, flush: &FlushEvent, line_stores: &[&StoreEvent]) {
        // A committed clflush persists the line contents unconditionally;
        // the flush is effective at its own commit (hb and effectiveness are
        // both the flush's clock vector).
        let record = FlushRecord {
            thread: flush.thread,
            clock: flush.clock,
        };
        self.record_flush(flush.exec, line_stores, &flush.cv, &flush.cv, record);
    }

    fn on_clwb_fenced(
        &mut self,
        clwb: &FlushEvent,
        fence_cv: &VectorClock,
        line_stores: &[&StoreEvent],
    ) {
        // The store must happen-before the *clwb*; the persist effect takes
        // hold at the *fence* (conditions (1) and (2) of §4.1's clwb rule).
        let record = FlushRecord {
            thread: clwb.thread,
            clock: fence_cv.get(clwb.thread),
        };
        self.record_flush(clwb.exec, line_stores, &clwb.cv, fence_cv, record);
    }

    fn on_pre_exec_read(
        &mut self,
        load: &LoadInfo,
        chosen: &[&StoreEvent],
        candidates: &[&StoreEvent],
    ) {
        // Race-check every candidate store the load could have read (§6
        // "Implementation": Yashme checks all candidate stores).
        for store in candidates {
            self.check_candidate(load, store);
        }
        // Then update per-execution prefix state from the stores actually
        // read (Fig. 9's trailing CVpre/lastflush updates). Joins that
        // raise nothing are state no-ops and leave the pruning token alone.
        for store in chosen {
            let is_atomic_read = load.atomicity.is_acquire() && store.atomicity.is_release();
            let line = store.line();
            let state = self.states.entry(store.exec).or_default();
            if is_atomic_read {
                let lf = state.lastflush.entry(line).or_default();
                if !store.cv.leq(lf) {
                    lf.join(&store.cv);
                    self.token.absorb(4);
                    self.token.absorb(store.id);
                }
            }
            if !store.cv.leq(&state.cv_pre) {
                state.cv_pre.join(&store.cv);
                self.token.absorb(5);
                self.token.absorb(store.id);
            }
        }
    }

    fn on_stores_retired(&mut self, retired: &[EventId]) {
        // The engine guarantees a retired store can never again appear as a
        // load candidate, so its `flushmap` records are unreachable by
        // `check_candidate` — dropping them changes no future report. The
        // pruning token is deliberately left alone: GC is a physical
        // strategy and must not perturb crash-state equivalence classes.
        for state in self.states.values_mut() {
            for id in retired {
                if state.flushmap.remove(id).is_some() {
                    self.flushmap_live -= 1;
                }
            }
        }
    }

    fn live_gauges(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("gc.flushmap_live", self.flushmap_live),
            ("gc.flushmap_peak", self.flushmap_peak),
        ]
    }

    fn drain_reports(&mut self) -> Vec<RaceReport> {
        std::mem::take(&mut self.reports)
    }

    fn fork_sink(&self) -> Option<Box<dyn EventSink>> {
        // All detector state is per-execution maps plus the report/dedup
        // accumulators — a deep clone resumes exactly where the prefix
        // stopped, so checkpoint/fork exploration is fully supported.
        Some(Box::new(self.clone()))
    }

    fn fingerprint_token(&self) -> u64 {
        self.token.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::Atomicity;
    use pmem::Addr;

    fn store_event(
        id: EventId,
        exec: ExecId,
        addr: u64,
        atomicity: Atomicity,
        clock: Clock,
        label: &'static str,
    ) -> StoreEvent {
        let thread = ThreadId::MAIN;
        StoreEvent {
            id,
            exec,
            thread,
            cv: VectorClock::singleton(thread, clock),
            clock,
            atomicity,
            addr: Addr(addr),
            bytes: [0u8; 8][..].into(),
            invented: false,
            label,
        }
    }

    fn flush_event(id: EventId, exec: ExecId, addr: u64, clock: Clock) -> FlushEvent {
        let thread = ThreadId::MAIN;
        FlushEvent {
            id,
            exec,
            thread,
            cv: VectorClock::singleton(thread, clock),
            clock,
            kind: jaaru::FlushKind::Clflush,
            addr: Addr(addr),
            label: "",
        }
    }

    fn load_info(exec: ExecId, addr: u64) -> LoadInfo {
        LoadInfo {
            exec,
            thread: ThreadId::MAIN,
            addr: Addr(addr),
            len: 8,
            atomicity: Atomicity::Plain,
            label: "",
            validated: false,
        }
    }

    #[test]
    fn unflushed_plain_store_races() {
        let mut d = YashmeDetector::with_defaults();
        d.on_execution_start(0);
        let s = store_event(1, 0, 0x1000, Atomicity::Plain, 1, "x");
        d.on_store_executed(&s);
        d.on_store_committed(&s);
        d.on_crash(0);
        d.on_execution_start(1);
        d.on_pre_exec_read(&load_info(1, 0x1000), &[&s], &[&s]);
        let reports = d.drain_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind(), ReportKind::PersistencyRace);
        assert_eq!(reports[0].label(), "x");
    }

    #[test]
    fn atomic_store_never_races() {
        let mut d = YashmeDetector::with_defaults();
        let s = store_event(1, 0, 0x1000, Atomicity::ReleaseAcquire, 1, "x");
        d.on_pre_exec_read(&load_info(1, 0x1000), &[&s], &[&s]);
        assert!(d.drain_reports().is_empty());
    }

    #[test]
    fn flush_observed_in_prefix_suppresses_race() {
        // store (clock 1) → clflush (clock 2); post-crash execution reads a
        // *later* store (clock 3), pulling the flush into the prefix.
        let mut d = YashmeDetector::with_defaults();
        let s = store_event(1, 0, 0x1000, Atomicity::Plain, 1, "x");
        let f = flush_event(2, 0, 0x1000, 2);
        d.on_clflush_committed(&f, &[&s]);
        let later = store_event(3, 0, 0x1008, Atomicity::Plain, 3, "y");
        // Reading `later` first forces CVpre past the flush.
        d.on_pre_exec_read(&load_info(1, 0x1008), &[&later], &[]);
        d.on_pre_exec_read(&load_info(1, 0x1000), &[&s], &[&s]);
        let reports = d.drain_reports();
        // `y` itself races (unflushed) but `x` must not.
        assert!(reports.iter().all(|r| r.label() != "x"), "{reports:?}");
    }

    #[test]
    fn flush_outside_prefix_is_ignored_in_prefix_mode() {
        // Figure 6(a): the flush committed pre-crash, but nothing the
        // post-crash execution read forces it into the prefix.
        let mut d = YashmeDetector::with_defaults();
        let s = store_event(1, 0, 0x1000, Atomicity::Plain, 1, "x");
        let f = flush_event(2, 0, 0x1000, 2);
        d.on_clflush_committed(&f, &[&s]);
        d.on_pre_exec_read(&load_info(1, 0x1000), &[&s], &[&s]);
        let reports = d.drain_reports();
        assert_eq!(reports.len(), 1, "prefix mode detects the race");
    }

    #[test]
    fn baseline_mode_accepts_any_precrash_flush() {
        let mut d = YashmeDetector::new(YashmeConfig::baseline());
        let s = store_event(1, 0, 0x1000, Atomicity::Plain, 1, "x");
        let f = flush_event(2, 0, 0x1000, 2);
        d.on_clflush_committed(&f, &[&s]);
        d.on_pre_exec_read(&load_info(1, 0x1000), &[&s], &[&s]);
        assert!(d.drain_reports().is_empty(), "baseline misses the race");
    }

    #[test]
    fn coherence_via_release_store_suppresses_race() {
        // Figure 5(a): x=1 (plain) hb y_rel=1 (release, same line); the
        // post-crash execution reads y first, then x.
        let mut d = YashmeDetector::with_defaults();
        let x = store_event(1, 0, 0x1000, Atomicity::Plain, 1, "x");
        let mut y = store_event(2, 0, 0x1008, Atomicity::ReleaseAcquire, 2, "y");
        y.cv = VectorClock::singleton(ThreadId::MAIN, 2);
        let mut load_y = load_info(1, 0x1008);
        load_y.atomicity = Atomicity::ReleaseAcquire;
        d.on_pre_exec_read(&load_y, &[&y], &[&y]);
        d.on_pre_exec_read(&load_info(1, 0x1000), &[&x], &[&x]);
        assert!(d.drain_reports().is_empty());
    }

    #[test]
    fn coherence_does_not_cover_concurrent_store() {
        // A release store on the same line that does NOT happen-after the
        // plain store gives no coherence guarantee.
        let mut d = YashmeDetector::with_defaults();
        let t1 = ThreadId::new(1);
        let x = StoreEvent {
            id: 1,
            exec: 0,
            thread: t1,
            cv: VectorClock::singleton(t1, 5),
            clock: 5,
            atomicity: Atomicity::Plain,
            addr: Addr(0x1000),
            bytes: [0u8; 8][..].into(),
            invented: false,
            label: "x",
        };
        let y = store_event(2, 0, 0x1008, Atomicity::ReleaseAcquire, 2, "y");
        let mut load_y = load_info(1, 0x1008);
        load_y.atomicity = Atomicity::ReleaseAcquire;
        d.on_pre_exec_read(&load_y, &[&y], &[&y]);
        d.on_pre_exec_read(&load_info(1, 0x1000), &[&x], &[&x]);
        let reports = d.drain_reports();
        assert_eq!(reports.len(), 1, "concurrent store still races");
    }

    #[test]
    fn clwb_record_uses_fence_clock() {
        let mut d = YashmeDetector::with_defaults();
        let s = store_event(1, 0, 0x1000, Atomicity::Plain, 1, "x");
        let mut clwb = flush_event(2, 0, 0x1000, 2);
        clwb.kind = jaaru::FlushKind::Clwb;
        let fence_cv = VectorClock::singleton(ThreadId::MAIN, 4);
        d.on_clwb_fenced(&clwb, &fence_cv, &[&s]);
        // A read that pulls clock 4 into the prefix makes the flush
        // effective.
        let later = store_event(3, 0, 0x2000, Atomicity::Plain, 5, "z");
        d.on_pre_exec_read(&load_info(1, 0x2000), &[&later], &[]);
        d.on_pre_exec_read(&load_info(1, 0x1000), &[&s], &[&s]);
        let reports = d.drain_reports();
        assert!(reports.iter().all(|r| r.label() != "x"), "{reports:?}");
    }

    #[test]
    fn checksum_scope_downgrades_to_benign() {
        let mut d = YashmeDetector::with_defaults();
        let s = store_event(1, 0, 0x1000, Atomicity::Plain, 1, "x");
        let mut li = load_info(1, 0x1000);
        li.validated = true;
        d.on_pre_exec_read(&li, &[&s], &[&s]);
        let reports = d.drain_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].kind(), ReportKind::BenignChecksum);
    }

    #[test]
    fn retirement_drops_flushmap_entries_without_touching_the_token() {
        let mut d = YashmeDetector::with_defaults();
        let s = store_event(1, 0, 0x1000, Atomicity::Plain, 1, "x");
        let f = flush_event(2, 0, 0x1000, 2);
        d.on_clflush_committed(&f, &[&s]);
        assert_eq!(
            d.live_gauges(),
            vec![("gc.flushmap_live", 1), ("gc.flushmap_peak", 1)]
        );
        let token = d.fingerprint_token();
        d.on_stores_retired(&[1]);
        assert_eq!(d.fingerprint_token(), token, "GC must not perturb pruning");
        assert_eq!(d.live_gauges()[0].1, 0, "entry retired");
        assert_eq!(d.live_gauges()[1].1, 1, "peak survives retirement");
    }

    #[test]
    fn duplicate_labels_reported_once() {
        let mut d = YashmeDetector::with_defaults();
        let s1 = store_event(1, 0, 0x1000, Atomicity::Plain, 1, "x");
        let s2 = store_event(2, 0, 0x2000, Atomicity::Plain, 2, "x");
        d.on_pre_exec_read(&load_info(1, 0x1000), &[&s1], &[&s1]);
        d.on_pre_exec_read(&load_info(1, 0x2000), &[&s2], &[&s2]);
        assert_eq!(d.drain_reports().len(), 1);
    }
}
