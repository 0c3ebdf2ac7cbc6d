//! Shared by the differential suites: one randomized-program generator,
//! parameterized by its op mix, plus the comparison surface, the worker
//! counts every comparison runs at, and the GC shadow sink that checks
//! streaming GC run by run.

// Each test crate that declares `mod common;` uses a different subset.
#![allow(dead_code)]

use jaaru::obs::{Telemetry, TraceBuf};
use jaaru::{
    Atomicity, Ctx, Engine, EngineConfig, EventId, EventSink, ExecId, ExecMode, FlushEvent,
    LoadInfo, Program, RaceReport, RunReport, StoreEvent,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vclock::VectorClock;
use yashme::json::run_json;
use yashme::{YashmeConfig, YashmeDetector};

/// Worker counts every comparison runs at: sequential, a small pool, and
/// one-per-CPU.
pub const WORKER_COUNTS: [usize; 3] = [1, 8, 0];

/// The full comparison surface of one run: the elapsed-free `--json`
/// document (races with provenance, labels, executions, crash points,
/// panics, dedup hits, metrics) plus the raw stats and race debug
/// renderings.
pub fn fingerprint(name: &str, report: &RunReport) -> String {
    format!(
        "{}\n{:?}\n{:?}",
        run_json(name, report, false).render(),
        report.stats(),
        report.races(),
    )
}

pub fn check(program: &Program, mode: ExecMode, engine: &EngineConfig) -> RunReport {
    yashme::check(program, mode, YashmeConfig::default(), engine)
}

/// [`check`] with every run's detector inside a [`GcShadowSink`], so any
/// report that streaming GC changes panics at the run's report drain.
pub fn check_shadowed(program: &Program, mode: ExecMode, engine: &EngineConfig) -> RunReport {
    let detector =
        || -> Box<dyn EventSink> { Box::new(YashmeDetector::new(YashmeConfig::default())) };
    Engine::run_observed(
        program,
        mode,
        &|| Box::new(GcShadowSink::new(detector(), detector())),
        engine,
        Telemetry::off(),
    )
}

/// The GC oracle: a second, never-retired copy of the sink runs in
/// lockstep with the primary.
///
/// Both halves receive the identical event stream; only the primary
/// receives [`EventSink::on_stores_retired`]. At every report drain the two
/// are asserted identical, so any retirement of state the detector still
/// needed shows up as a panic at the first divergence instead of a silently
/// missing race.
pub struct GcShadowSink {
    primary: Box<dyn EventSink>,
    shadow: Box<dyn EventSink>,
}

impl GcShadowSink {
    /// Wraps a primary (GC-aware) sink and an un-GC'd shadow copy.
    pub fn new(primary: Box<dyn EventSink>, shadow: Box<dyn EventSink>) -> Self {
        GcShadowSink { primary, shadow }
    }
}

impl EventSink for GcShadowSink {
    fn on_execution_start(&mut self, exec: ExecId) {
        self.primary.on_execution_start(exec);
        self.shadow.on_execution_start(exec);
    }

    fn on_store_executed(&mut self, store: &StoreEvent) {
        self.primary.on_store_executed(store);
        self.shadow.on_store_executed(store);
    }

    fn on_store_committed(&mut self, store: &StoreEvent) {
        self.primary.on_store_committed(store);
        self.shadow.on_store_committed(store);
    }

    fn on_clflush_committed(&mut self, flush: &FlushEvent, line_stores: &[&StoreEvent]) {
        self.primary.on_clflush_committed(flush, line_stores);
        self.shadow.on_clflush_committed(flush, line_stores);
    }

    fn on_clwb_fenced(
        &mut self,
        clwb: &FlushEvent,
        fence_cv: &VectorClock,
        line_stores: &[&StoreEvent],
    ) {
        self.primary.on_clwb_fenced(clwb, fence_cv, line_stores);
        self.shadow.on_clwb_fenced(clwb, fence_cv, line_stores);
    }

    fn on_crash(&mut self, exec: ExecId) {
        self.primary.on_crash(exec);
        self.shadow.on_crash(exec);
    }

    fn on_pre_exec_read(
        &mut self,
        load: &LoadInfo,
        chosen: &[&StoreEvent],
        candidates: &[&StoreEvent],
    ) {
        self.primary.on_pre_exec_read(load, chosen, candidates);
        self.shadow.on_pre_exec_read(load, chosen, candidates);
    }

    fn on_stores_retired(&mut self, retired: &[EventId]) {
        // The whole point: the shadow never learns about retirement.
        self.primary.on_stores_retired(retired);
    }

    fn live_gauges(&self) -> Vec<(&'static str, u64)> {
        self.primary.live_gauges()
    }

    fn drain_reports(&mut self) -> Vec<RaceReport> {
        let primary = self.primary.drain_reports();
        let shadow = self.shadow.drain_reports();
        assert_eq!(
            format!("{primary:?}"),
            format!("{shadow:?}"),
            "GC shadow: retired detector state changed the reports"
        );
        primary
    }

    fn drain_trace(&mut self) -> Option<TraceBuf> {
        let primary = self.primary.drain_trace();
        let _ = self.shadow.drain_trace();
        primary
    }

    fn fork_sink(&self) -> Option<Box<dyn EventSink>> {
        let primary = self.primary.fork_sink()?;
        let shadow = self.shadow.fork_sink()?;
        Some(Box::new(GcShadowSink { primary, shadow }))
    }

    fn fingerprint_token(&self) -> u64 {
        // Primary only: the shadow's state is byte-equal by construction
        // (that is what the shadow asserts), so folding it in would only
        // double-hash the same information.
        self.primary.fingerprint_token()
    }
}

/// One operation of the randomized-program language. Offsets are 8-byte
/// slots inside the root region.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Store { slot: u64, val: u64, release: bool },
    Load { slot: u64, acquire: bool },
    Clflush { slot: u64 },
    Clwb { slot: u64 },
    Sfence,
    Mfence,
    Cas { slot: u64, expected: u64, new: u64 },
    FetchAdd { slot: u64, delta: u64 },
}

/// The kind of operation a roll draws; its operands are drawn after.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    Store,
    Load,
    Clflush,
    Clwb,
    Sfence,
    Mfence,
    Cas,
    FetchAdd,
}

/// An op mix: each op draws a slot, then a roll in `0..10`. Rolls `0..9`
/// pick `rolls[roll]`; roll 9 picks `tail[slot % tail.len()]`.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub name: &'static str,
    rolls: [Kind; 9],
    tail: &'static [Kind],
}

use Kind::*;

/// Every op kind at a moderate rate: the fork suite's mix.
pub const BALANCED: Mix = Mix {
    name: "balanced",
    rolls: [
        Store, Store, Store, Load, Clflush, Clflush, Clwb, Sfence, Mfence,
    ],
    tail: &[Cas, FetchAdd],
};

/// Flush-heavy: the redundant re-flushes are what produce multi-member
/// classes for pruning to collapse.
pub const FLUSH_HEAVY: Mix = Mix {
    name: "flush-heavy",
    rolls: [
        Store, Store, Store, Load, Clflush, Clflush, Clflush, Clwb, Sfence,
    ],
    tail: &[Mfence, Cas, FetchAdd],
};

/// Store-and-flush heavy: overwrites of already-persisted slots are exactly
/// what GC retirement feeds on, and loads of retired-then-reused addresses
/// are the readback hazard.
pub const STORE_HEAVY: Mix = Mix {
    name: "store-heavy",
    rolls: [
        Store, Store, Store, Store, Load, Clflush, Clflush, Clwb, Sfence,
    ],
    tail: &[Mfence, Cas, FetchAdd],
};

pub const MIXES: [Mix; 3] = [BALANCED, FLUSH_HEAVY, STORE_HEAVY];

pub const SLOTS: u64 = 24;

pub fn random_ops(mix: &Mix, rng: &mut StdRng, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| {
            let slot = rng.gen_range(0..SLOTS);
            let roll = rng.gen_range(0..10u32);
            let kind = match mix.rolls.get(roll as usize) {
                Some(&kind) => kind,
                None => mix.tail[(slot % mix.tail.len() as u64) as usize],
            };
            match kind {
                Store => Op::Store {
                    slot,
                    val: rng.gen_range(1..1000),
                    release: rng.gen_range(0..2) == 0,
                },
                Load => Op::Load {
                    slot,
                    acquire: rng.gen_range(0..2) == 0,
                },
                Clflush => Op::Clflush { slot },
                Clwb => Op::Clwb { slot },
                Sfence => Op::Sfence,
                Mfence => Op::Mfence,
                Cas => Op::Cas {
                    slot,
                    expected: 0,
                    new: rng.gen_range(1..100),
                },
                FetchAdd => Op::FetchAdd {
                    slot,
                    delta: rng.gen_range(1..5),
                },
            }
        })
        .collect()
}

pub fn apply(ctx: &mut Ctx, ops: &[Op]) {
    let base = ctx.root();
    for op in ops {
        match *op {
            Op::Store { slot, val, release } => {
                let atom = if release {
                    Atomicity::ReleaseAcquire
                } else {
                    Atomicity::Plain
                };
                ctx.store_u64(base + slot * 8, val, atom, "rand.slot");
            }
            Op::Load { slot, acquire } => {
                let atom = if acquire {
                    Atomicity::ReleaseAcquire
                } else {
                    Atomicity::Plain
                };
                let _ = ctx.load_u64(base + slot * 8, atom);
            }
            Op::Clflush { slot } => ctx.clflush(base + slot * 8),
            Op::Clwb { slot } => ctx.clwb(base + slot * 8),
            Op::Sfence => ctx.sfence(),
            Op::Mfence => ctx.mfence(),
            Op::Cas {
                slot,
                expected,
                new,
            } => {
                let _ = ctx.cas_u64(base + slot * 8, expected, new, "rand.cas");
            }
            Op::FetchAdd { slot, delta } => {
                let _ = ctx.fetch_add_u64(base + slot * 8, delta, "rand.faa");
            }
        }
    }
}

/// A randomized program: a pre-crash phase of random store/flush/fence/CAS
/// traffic (plus one spawned thread for scheduler coverage), a recovery
/// phase that also mutates and flushes, and a final phase that scans every
/// slot — the scans force post-crash loads of addresses whose history GC
/// may have retired.
pub fn random_program(mix: &Mix, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let pre = random_ops(mix, &mut rng, 28);
    let spawned = random_ops(mix, &mut rng, 6);
    let recovery = random_ops(mix, &mut rng, 10);
    Program::new("randomized")
        .pre_crash(move |ctx: &mut Ctx| {
            let child_ops = spawned.clone();
            let h = ctx.spawn(move |ctx2: &mut Ctx| apply(ctx2, &child_ops));
            apply(ctx, &pre);
            ctx.join(h);
        })
        .phase(move |ctx: &mut Ctx| apply(ctx, &recovery))
        .phase(|ctx: &mut Ctx| {
            let base = ctx.root();
            for slot in 0..SLOTS {
                let _ = ctx.load_u64(base + slot * 8, Atomicity::Plain);
            }
        })
}
