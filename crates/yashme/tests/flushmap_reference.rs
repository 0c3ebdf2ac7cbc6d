//! Pins the detector's Fig. 8 loop against a reference copy.
//!
//! `reference::YashmeDetector` keeps a plain `Vec<FlushRecord>` per
//! `flushmap` entry, as the detector did before entries kept their first
//! record inline. `Lockstep` feeds one event stream to both and, after
//! every callback, asserts equal whole states (their `Debug` text), equal
//! pruning tokens, equal live gauges and equal drained reports (provenance
//! included). The figure programs and random two-thread flush programs run
//! through it under the prefix, baseline and eADR configurations, with
//! fork, pruning and GC both on and off.

mod common;

use jaaru::obs::Telemetry;
use jaaru::{
    Atomicity, Ctx, Engine, EngineConfig, EventId, EventSink, ExecId, ExecMode, FlushEvent,
    FlushKind, LoadInfo, Program, RaceReport, StoreEvent,
};
use pmem::Addr;
use proptest::prelude::*;
use vclock::{Clock, ThreadId, VectorClock};
use yashme::{YashmeConfig, YashmeDetector};

/// The detector as it was before `flushmap` entries kept their first
/// record inline. Its types carry the live detector's names, field order
/// and map capacities, so the two print the same `Debug` text exactly when
/// their states are equal.
mod reference {
    use std::collections::hash_map::Entry;

    use jaaru::{
        EventId, EventSink, ExecId, FlushEvent, LoadInfo, RaceReport, ReportKind, StoreEvent,
    };
    use pmem::{CacheLineId, FastMap, FastSet};
    use vclock::{Clock, ThreadId, VectorClock};
    use yashme::YashmeConfig;

    #[derive(Debug, Clone, Copy)]
    struct FlushRecord {
        thread: ThreadId,
        clock: Clock,
    }

    #[derive(Debug, Clone)]
    struct ExecDetState {
        flushmap: FastMap<EventId, Vec<FlushRecord>>,
        lastflush: FastMap<CacheLineId, VectorClock>,
        cv_pre: VectorClock,
    }

    impl Default for ExecDetState {
        fn default() -> Self {
            ExecDetState {
                flushmap: FastMap::with_capacity_and_hasher(64, Default::default()),
                lastflush: FastMap::with_capacity_and_hasher(16, Default::default()),
                cv_pre: VectorClock::default(),
            }
        }
    }

    /// The reference detector: Fig. 8 and Fig. 9 with a `Vec` per `flushmap`
    /// entry.
    #[derive(Debug, Clone)]
    pub struct YashmeDetector {
        config: YashmeConfig,
        states: FastMap<ExecId, ExecDetState>,
        reports: Vec<RaceReport>,
        reported: FastSet<(ReportKind, &'static str)>,
        token: pmem::Fp64,
        flushmap_live: u64,
        flushmap_peak: u64,
    }

    impl YashmeDetector {
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
                if store.clock > hb_cv.get(store.thread) {
                    continue;
                }
                let records = match state.flushmap.entry(store.id) {
                    Entry::Occupied(e) => e.into_mut(),
                    Entry::Vacant(v) => {
                        self.flushmap_live += 1;
                        self.flushmap_peak = self.flushmap_peak.max(self.flushmap_live);
                        v.insert(Vec::new())
                    }
                };
                let already = records
                    .iter()
                    .any(|r| r.clock <= effective_cv.get(r.thread));
                if !already {
                    records.push(flush_record);
                    self.token.absorb(2);
                    self.token.absorb(store.id);
                    self.token.absorb(flush_record.thread.as_usize() as u64);
                    self.token.absorb(flush_record.clock);
                }
            }
        }

        fn check_candidate(&mut self, load: &LoadInfo, store: &StoreEvent) {
            if !store.atomicity.is_tearable()
                || store.exec >= load.exec
                || self.config.suppressed_labels.contains(&store.label)
            {
                return;
            }
            let prefix = self.config.prefix_expansion;
            let eadr = self.config.eadr;
            let state = self.states.entry(store.exec).or_default();
            if let Some(lf) = state.lastflush.get(&store.line()) {
                if store.clock <= lf.get(store.thread) {
                    return;
                }
            }
            if eadr && state.cv_pre.get(store.thread) > store.clock {
                return;
            }
            if let Some(records) = state.flushmap.get(&store.id) {
                let flushed = if prefix {
                    records
                        .iter()
                        .any(|r| r.clock <= state.cv_pre.get(r.thread))
                } else {
                    !records.is_empty()
                };
                if flushed {
                    return;
                }
            }
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
            let state = &self.states[&store.exec];
            let provenance = jaaru::RaceProvenance {
                store_cv: store.cv.clone(),
                store_len: store.len(),
                store_atomicity: store.atomicity,
                ineffective_flushes: state
                    .flushmap
                    .get(&store.id)
                    .map(|records| records.iter().map(|r| (r.thread, r.clock)).collect())
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
            for store in candidates {
                self.check_candidate(load, store);
            }
            for store in chosen {
                let is_atomic_read = load.atomicity.is_acquire() && store.atomicity.is_release();
                let state = self.states.entry(store.exec).or_default();
                if is_atomic_read {
                    let lf = state.lastflush.entry(store.line()).or_default();
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
            Some(Box::new(self.clone()))
        }

        fn fingerprint_token(&self) -> u64 {
            self.token.value()
        }
    }
}

/// The detector and the reference, fed the same events and compared after
/// each one. Reports drained from the detector during the comparison are
/// held back until the engine drains this sink.
///
/// Callbacks can run on simulated task threads, where the engine records a
/// panic as a program symptom instead of failing the test. So a comparison
/// only records the first divergence; the engine's report drain at the end
/// of the run, on the calling thread, panics with it.
#[derive(Clone)]
struct Lockstep {
    live: YashmeDetector,
    reference: reference::YashmeDetector,
    reports: Vec<RaceReport>,
    divergence: Option<String>,
}

impl Lockstep {
    fn new(config: YashmeConfig) -> Self {
        Lockstep {
            live: YashmeDetector::new(config),
            reference: reference::YashmeDetector::new(config),
            reports: Vec::new(),
            divergence: None,
        }
    }

    fn compare(&mut self, after: &str) {
        let live = self.live.drain_reports();
        let reference = self.reference.drain_reports();
        let checks = [
            (
                "detector state",
                format!("{:?}", self.live),
                format!("{:?}", self.reference),
            ),
            (
                "pruning token",
                self.live.fingerprint_token().to_string(),
                self.reference.fingerprint_token().to_string(),
            ),
            (
                "live gauges",
                format!("{:?}", self.live.live_gauges()),
                format!("{:?}", self.reference.live_gauges()),
            ),
            ("reports", format!("{live:?}"), format!("{reference:?}")),
        ];
        for (what, live, reference) in checks {
            if live != reference && self.divergence.is_none() {
                self.divergence = Some(format!(
                    "{what} diverged after {after}\n   live: {live}\n    ref: {reference}"
                ));
            }
        }
        self.reports.extend(live);
    }
}

impl EventSink for Lockstep {
    fn on_execution_start(&mut self, exec: ExecId) {
        self.live.on_execution_start(exec);
        self.reference.on_execution_start(exec);
        self.compare("on_execution_start");
    }

    fn on_store_executed(&mut self, store: &StoreEvent) {
        self.live.on_store_executed(store);
        self.reference.on_store_executed(store);
        self.compare("on_store_executed");
    }

    fn on_store_committed(&mut self, store: &StoreEvent) {
        self.live.on_store_committed(store);
        self.reference.on_store_committed(store);
        self.compare("on_store_committed");
    }

    fn on_clflush_committed(&mut self, flush: &FlushEvent, line_stores: &[&StoreEvent]) {
        self.live.on_clflush_committed(flush, line_stores);
        self.reference.on_clflush_committed(flush, line_stores);
        self.compare("on_clflush_committed");
    }

    fn on_clwb_fenced(
        &mut self,
        clwb: &FlushEvent,
        fence_cv: &VectorClock,
        line_stores: &[&StoreEvent],
    ) {
        self.live.on_clwb_fenced(clwb, fence_cv, line_stores);
        self.reference.on_clwb_fenced(clwb, fence_cv, line_stores);
        self.compare("on_clwb_fenced");
    }

    fn on_crash(&mut self, exec: ExecId) {
        self.live.on_crash(exec);
        self.reference.on_crash(exec);
        self.compare("on_crash");
    }

    fn on_pre_exec_read(
        &mut self,
        load: &LoadInfo,
        chosen: &[&StoreEvent],
        candidates: &[&StoreEvent],
    ) {
        self.live.on_pre_exec_read(load, chosen, candidates);
        self.reference.on_pre_exec_read(load, chosen, candidates);
        self.compare("on_pre_exec_read");
    }

    fn on_stores_retired(&mut self, retired: &[EventId]) {
        self.live.on_stores_retired(retired);
        self.reference.on_stores_retired(retired);
        self.compare("on_stores_retired");
    }

    fn live_gauges(&self) -> Vec<(&'static str, u64)> {
        self.live.live_gauges()
    }

    fn drain_reports(&mut self) -> Vec<RaceReport> {
        self.compare("the run");
        if let Some(divergence) = &self.divergence {
            panic!("{divergence}");
        }
        std::mem::take(&mut self.reports)
    }

    fn fork_sink(&self) -> Option<Box<dyn EventSink>> {
        Some(Box::new(self.clone()))
    }

    fn fingerprint_token(&self) -> u64 {
        self.live.fingerprint_token()
    }
}

const CONFIGS: [fn() -> YashmeConfig; 3] = [
    YashmeConfig::default,
    YashmeConfig::baseline,
    YashmeConfig::eadr,
];

/// Fork, pruning and GC on (GC at its most hostile period), then all off.
fn engines() -> [EngineConfig; 2] {
    [
        EngineConfig::default().with_gc_every(1),
        EngineConfig::sequential()
            .with_fork(false)
            .with_prune(false)
            .with_gc(false),
    ]
}

/// Runs `program` through a `Lockstep` per simulated run under every
/// configuration and engine setting; the comparison panics on divergence.
/// Returns the total number of races so callers can check the programs
/// exercise the report path.
fn replay(program: &Program, mode: ExecMode) -> usize {
    let mut races = 0;
    for config in CONFIGS {
        for engine in engines() {
            let report = Engine::run_observed(
                program,
                mode,
                &|| Box::new(Lockstep::new(config())),
                &engine,
                Telemetry::off(),
            );
            races += report.races().len();
        }
    }
    races
}

#[test]
fn figure_programs_replay_identically_through_both_detectors() {
    let mut races = 0;
    for program in common::all() {
        races += replay(&program, ExecMode::model_check());
        races += replay(&program, ExecMode::random(6, 7));
    }
    assert!(races > 0, "the figure programs report races");
}

const SLOTS: u64 = 12;

/// Static labels (race labels are `&'static str`). Slots 0..8 share the
/// first cache line; 8..12 share the second.
const LABELS: [&str; SLOTS as usize] = [
    "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11",
];

#[derive(Debug, Clone, Copy)]
enum Op {
    Store { slot: u64, release: bool },
    Load { slot: u64 },
    Clflush { slot: u64 },
    Clwb { slot: u64 },
    Sfence,
    Mfence,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..SLOTS, any::<bool>()).prop_map(|(slot, release)| Op::Store { slot, release }),
        1 => (0..SLOTS).prop_map(|slot| Op::Load { slot }),
        2 => (0..SLOTS).prop_map(|slot| Op::Clflush { slot }),
        2 => (0..SLOTS).prop_map(|slot| Op::Clwb { slot }),
        1 => Just(Op::Sfence),
        1 => Just(Op::Mfence),
    ]
}

fn run_op(ctx: &mut Ctx, op: Op, value: u64) {
    match op {
        Op::Store { slot, release } => {
            let addr = ctx.root_slot(slot);
            if release {
                ctx.store_release_u64(addr, value, LABELS[slot as usize]);
            } else {
                ctx.store_u64(addr, value, Atomicity::Plain, LABELS[slot as usize]);
            }
        }
        Op::Load { slot } => {
            let _ = ctx.load_acquire_u64(ctx.root_slot(slot));
        }
        Op::Clflush { slot } => ctx.clflush(ctx.root_slot(slot)),
        Op::Clwb { slot } => ctx.clwb(ctx.root_slot(slot)),
        Op::Sfence => ctx.sfence(),
        Op::Mfence => ctx.mfence(),
    }
}

/// The main thread runs `before`, spawns a child running `child`, runs
/// `after` concurrently with it, and joins. The child's flushes cover the
/// main thread's `before` stores but not its `after` flushes, so a line
/// flushed by both threads gets a second, cross-thread `flushmap` record.
fn two_thread_program(before: Vec<Op>, child: Vec<Op>, after: Vec<Op>) -> Program {
    Program::new("lockstep")
        .pre_crash(move |ctx: &mut Ctx| {
            for (i, &op) in before.iter().enumerate() {
                run_op(ctx, op, i as u64 + 1);
            }
            let child = child.clone();
            let h = ctx.spawn(move |t: &mut Ctx| {
                for (i, &op) in child.iter().enumerate() {
                    run_op(t, op, 100 + i as u64);
                }
            });
            for (i, &op) in after.iter().enumerate() {
                run_op(ctx, op, 200 + i as u64);
            }
            ctx.join(h);
        })
        .post_crash(|ctx: &mut Ctx| {
            for slot in 0..SLOTS {
                let addr = ctx.root_slot(slot);
                if slot % 3 == 0 {
                    let _ = ctx.load_acquire_u64(addr);
                } else {
                    let _ = ctx.load_u64(addr, Atomicity::Plain);
                }
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_two_thread_flush_programs_replay_identically(
        before in proptest::collection::vec(arb_op(), 0..8),
        child in proptest::collection::vec(arb_op(), 0..8),
        after in proptest::collection::vec(arb_op(), 0..8),
        seed in 0u64..1000,
    ) {
        let program = two_thread_program(before, child, after);
        replay(&program, ExecMode::model_check());
        replay(&program, ExecMode::random(4, seed));
    }
}

fn store(id: EventId, thread: ThreadId, clock: Clock) -> StoreEvent {
    StoreEvent {
        id,
        exec: 0,
        thread,
        cv: VectorClock::singleton(thread, clock),
        clock,
        atomicity: Atomicity::Plain,
        addr: Addr(0x1000),
        bytes: [0u8; 8][..].into(),
        invented: false,
        label: "x",
    }
}

fn clflush(id: EventId, thread: ThreadId, cv: VectorClock) -> FlushEvent {
    FlushEvent {
        id,
        exec: 0,
        thread,
        clock: cv.get(thread),
        cv,
        kind: FlushKind::Clflush,
        addr: Addr(0x1000),
        label: "",
    }
}

fn load(exec: ExecId) -> LoadInfo {
    LoadInfo {
        exec,
        thread: ThreadId::MAIN,
        addr: Addr(0x1000),
        len: 8,
        atomicity: Atomicity::Plain,
        label: "",
        validated: false,
    }
}

/// T0 stores x at clock 1 and clflushes it at clock 3. T1, which saw x
/// (its clock vector holds T0 at 2) but not T0's flush, clflushes x at
/// clock 1: the first record does not cover the second, so x's `flushmap`
/// entry spills to two records. Returns the detector after a post-crash
/// read of x, with `extra` first read to raise `CVpre`.
fn spilled(config: YashmeConfig, extra: Option<StoreEvent>) -> Lockstep {
    let (t0, t1) = (ThreadId::MAIN, ThreadId::new(1));
    let x = store(1, t0, 1);
    let mut t1_cv = VectorClock::singleton(t0, 2);
    t1_cv.join(&VectorClock::singleton(t1, 1));
    let mut d = Lockstep::new(config);
    d.on_execution_start(0);
    d.on_clflush_committed(&clflush(2, t0, VectorClock::singleton(t0, 3)), &[&x]);
    d.on_clflush_committed(&clflush(3, t1, t1_cv), &[&x]);
    d.on_crash(0);
    d.on_execution_start(1);
    if let Some(extra) = &extra {
        d.on_pre_exec_read(&load(1), &[extra], &[]);
    }
    d.on_pre_exec_read(&load(1), &[&x], &[&x]);
    d
}

#[test]
fn a_cross_thread_flush_the_first_record_misses_spills_to_a_second_record() {
    let (t0, t1) = (ThreadId::MAIN, ThreadId::new(1));
    // Prefix mode, nothing read first: CVpre covers neither record.
    let reports = spilled(YashmeConfig::default(), None).drain_reports();
    assert_eq!(reports.len(), 1, "{reports:?}");
    let provenance = reports[0].provenance().expect("race provenance");
    assert_eq!(provenance.ineffective_flushes, vec![(t0, 3), (t1, 1)]);
    let explain = yashme::render::render_explain("spill", 1, &reports[0]);
    assert!(
        explain.contains("2 flush(es) happen-after the store (T0@3, T1@1)"),
        "{explain}"
    );
    // Baseline mode: any record persists the store.
    assert!(spilled(YashmeConfig::baseline(), None)
        .drain_reports()
        .is_empty());
    // Prefix mode, after reading a T1 store that postdates T1's flush:
    // only the *second* record lies inside CVpre, and it is enough.
    let later = StoreEvent {
        id: 4,
        addr: Addr(0x2000),
        label: "y",
        ..store(4, t1, 2)
    };
    let reports = spilled(YashmeConfig::default(), Some(later)).drain_reports();
    assert!(
        reports.iter().all(|r| r.label() != "x"),
        "the spilled record must count: {reports:?}"
    );
    // The gauges count the store once, however many records it holds.
    let mut d = spilled(YashmeConfig::default(), None);
    d.drain_reports();
    assert_eq!(
        d.live_gauges(),
        vec![("gc.flushmap_live", 1), ("gc.flushmap_peak", 1)]
    );
}
