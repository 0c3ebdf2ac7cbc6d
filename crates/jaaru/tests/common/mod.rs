//! Shared by the differential suites: one randomized-program generator,
//! parameterized by its op mix, plus the comparison surface and the worker
//! counts every comparison runs at.

// Each test crate that declares `mod common;` uses a different subset.
#![allow(dead_code)]

use jaaru::{Atomicity, Ctx, EngineConfig, ExecMode, Program, RunReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use yashme::json::run_json;
use yashme::YashmeConfig;

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
