//! The crash-dense workload generator, shared by yashbench and the fork
//! and pruning equivalence suites.

use jaaru::{Atomicity, Ctx, Program};

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
