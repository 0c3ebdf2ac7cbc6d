//! Parameterized workload generators for scaling studies.
//!
//! The paper's drivers are fixed example applications; these generators
//! scale the same operation mixes (inserts, lookups, deletes) so Criterion
//! can measure how model-checking cost grows with workload size, and how
//! random-mode detection rate grows with the execution budget.

use jaaru::{Atomicity, Ctx, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use recipe::cceh::Cceh;
use recipe::fastfair::FastFair;

/// A scalable key-value workload description.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Number of keys inserted.
    pub inserts: usize,
    /// Number of lookups after the insert phase.
    pub lookups: usize,
    /// Number of deletions after the lookups.
    pub deletes: usize,
    /// Key-generation seed.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A small default mix.
    pub fn small() -> Self {
        WorkloadConfig {
            inserts: 4,
            lookups: 4,
            deletes: 1,
            seed: 1,
        }
    }

    /// Scales the mix by `factor`.
    pub fn scaled(factor: usize) -> Self {
        WorkloadConfig {
            inserts: 4 * factor,
            lookups: 4 * factor,
            deletes: factor,
            seed: 1,
        }
    }

    fn keys(&self) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.inserts)
            .map(|_| rng.gen_range(100u64..100_000) * 2 + 1) // odd, nonzero
            .collect()
    }
}

/// A CCEH workload: create, insert, delete, crash, recover + lookups.
pub fn cceh_workload(cfg: WorkloadConfig) -> Program {
    let keys = cfg.keys();
    let post_keys = keys.clone();
    Program::new("CCEH-workload")
        .with_heap_bytes(1 << 24)
        .pre_crash(move |ctx: &mut Ctx| {
            let table = Cceh::create(ctx);
            for (i, &k) in keys.iter().enumerate() {
                table.insert(ctx, k, (i as u64 + 1) * 10);
            }
            for &k in keys.iter().take(cfg.lookups) {
                let _ = table.get(ctx, k);
            }
            for &k in keys.iter().take(cfg.deletes) {
                table.remove(ctx, k);
            }
        })
        .post_crash(move |ctx: &mut Ctx| {
            if let Some(table) = Cceh::open(ctx) {
                for &k in &post_keys {
                    let _ = table.get(ctx, k);
                }
            }
        })
}

/// A FAST_FAIR workload with the same shape.
pub fn fastfair_workload(cfg: WorkloadConfig) -> Program {
    let keys = cfg.keys();
    let post_keys = keys.clone();
    Program::new("FastFair-workload")
        .with_heap_bytes(1 << 24)
        .pre_crash(move |ctx: &mut Ctx| {
            let tree = FastFair::create(ctx);
            for (i, &k) in keys.iter().enumerate().take(8) {
                // The single-split port holds at most 2 leaves.
                tree.insert(ctx, k, (i as u64 + 1) * 10);
            }
            for &k in keys.iter().take(cfg.lookups.min(8)) {
                let _ = tree.search(ctx, k);
            }
        })
        .post_crash(move |ctx: &mut Ctx| {
            let tree = FastFair::open(ctx);
            for &k in post_keys.iter().take(8) {
                let _ = tree.search(ctx, k);
            }
            let _ = tree.recovery_scan(ctx);
        })
}

/// A redundancy-heavy append-log workload for the equivalence-pruning
/// benchmark: every record is stored, flushed, and fenced — two crash
/// points per record — and then followed by `scrub_rounds` *redundant*
/// re-flush passes (`clflush` + `sfence` of the already-persisted slot —
/// the belt-and-braces scrubbing pattern defensive PM code emits).
///
/// Every scrub instruction is a crash point, yet none changes what a crash
/// would materialize, so the `2 + 2 * scrub_rounds` crash points per
/// record collapse into exactly 2 crash-state equivalence classes (the
/// store→flush window and the persisted state): with pruning the engine
/// resumes ~2 suffixes per record instead of `2 + 2 * scrub_rounds`. The
/// tail record stays unflushed so the post-crash scan has a persistency
/// race to find.
pub fn crashprune_workload(records: usize, scrub_rounds: usize) -> Program {
    Program::new("crashprune")
        .pre_crash(move |ctx: &mut Ctx| {
            let base = ctx.root();
            for i in 0..records as u64 {
                let slot = base + (i % 8) * 8;
                ctx.store_u64(slot, i + 1, Atomicity::Plain, "log.record");
                ctx.clflush(slot);
                ctx.sfence();
                for _ in 0..scrub_rounds {
                    ctx.clflush(slot);
                    ctx.sfence();
                }
            }
            let tail = base + 64;
            ctx.store_u64(tail, records as u64, Atomicity::Plain, "log.tail");
            // No flush before the crash: the tail store may be read
            // post-crash without ever having been persisted.
        })
        .post_crash(move |ctx: &mut Ctx| {
            let base = ctx.root();
            for i in 0..8u64 {
                let _ = ctx.load_u64(base + i * 8, Atomicity::Plain);
            }
            let _ = ctx.load_u64(base + 64, Atomicity::Plain);
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_deterministic_per_seed() {
        assert_eq!(
            WorkloadConfig::small().keys(),
            WorkloadConfig::small().keys()
        );
        let other = WorkloadConfig {
            seed: 2,
            ..WorkloadConfig::small()
        };
        assert_ne!(WorkloadConfig::small().keys(), other.keys());
    }

    #[test]
    fn scaled_workloads_have_more_crash_points() {
        let small = yashme::model_check(&cceh_workload(WorkloadConfig::scaled(1)));
        let large = yashme::model_check(&cceh_workload(WorkloadConfig::scaled(3)));
        assert!(
            large.crash_points() > small.crash_points(),
            "{} vs {}",
            large.crash_points(),
            small.crash_points()
        );
        // Same races either way — scaling the workload does not invent
        // or lose bug classes.
        assert_eq!(small.race_labels(), large.race_labels());
    }

    #[test]
    fn generated_cceh_workload_finds_the_cceh_races() {
        let report = yashme::model_check(&cceh_workload(WorkloadConfig::small()));
        assert!(report.race_labels().contains(&"Pair.key (pair.h)"));
        assert!(report.race_labels().contains(&"Pair.value (pair.h)"));
    }

    #[test]
    fn generated_fastfair_workload_runs_clean() {
        let report = yashme::model_check(&fastfair_workload(WorkloadConfig::small()));
        assert!(report.post_crash_panics().is_empty(), "{report}");
    }

    #[test]
    fn crashprune_workload_collapses_scrub_points_into_two_classes_per_record() {
        let records = 8;
        let scrub = 3;
        let report = yashme::model_check(&crashprune_workload(records, scrub));
        let p = report.prune_stats();
        // 2 + 2 * scrub crash points per record, exactly 2 classes each.
        assert_eq!(report.crash_points(), records * (2 + 2 * scrub));
        assert_eq!(p.classes, 2 * records as u64);
        assert_eq!(p.representatives, p.classes);
        assert_eq!(p.suffixes_skipped, report.crash_points() as u64 - p.classes);
        // The unflushed tail is still caught.
        assert!(report.race_labels().contains(&"log.tail"));
    }
}
