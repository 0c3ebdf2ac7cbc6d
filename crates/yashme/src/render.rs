//! Rendering of race reports in the paper's table styles, plus the
//! explain-mode provenance timeline.

use std::fmt::Write as _;

use jaaru::obs::Phase;
use jaaru::{RaceReport, ReportKind, RunReport, SiteKind};

/// Renders Table 3 / Table 4 style rows: `# <tab> Benchmark <tab> Root
/// Cause of Bug`, one row per de-duplicated true race, numbering
/// continuing from `first_index`.
///
/// Returns the rendered rows and the next free index.
pub fn render_race_rows(
    benchmark: &str,
    report: &RunReport,
    first_index: usize,
) -> (String, usize) {
    let mut out = String::new();
    let mut idx = first_index;
    for label in report.race_labels() {
        writeln!(out, "{idx}\t{benchmark}\t{label}").expect("write to string");
        idx += 1;
    }
    (out, idx)
}

/// Renders the Figure 11/12-style detail for one report: the store site
/// with address, execution, and thread.
pub fn render_detail(benchmark: &str, report: &RaceReport) -> String {
    format!(
        "[{}] write to {} at address {} (execution {}, thread {}) — {}",
        benchmark,
        report.label(),
        report.addr(),
        report.store_exec(),
        report.store_thread(),
        report.detail(),
    )
}

/// Renders a summary block: counts by kind plus crash symptoms.
pub fn render_summary(report: &RunReport) -> String {
    let races = report
        .races()
        .iter()
        .filter(|r| r.kind() == ReportKind::PersistencyRace)
        .count();
    let benign = report
        .races()
        .iter()
        .filter(|r| r.kind() == ReportKind::BenignChecksum)
        .count();
    let mut out = String::new();
    writeln!(
        out,
        "{races} persistency race(s), {benign} benign checksum report(s), \
         {} post-crash panic(s) over {} execution(s) ({} crash point(s), {:?})",
        report.post_crash_panics().len(),
        report.executions(),
        report.crash_points(),
        report.elapsed(),
    )
    .expect("write to string");
    out
}

/// Renders `metrics:`, every counter of [`RunReport::metrics`] (the same
/// source as `--json`'s `metrics` object, so the two cannot drift), then
/// `strategy:`, the fork, prune and GC blocks under their declared metric
/// names, each only when one of its fields is non-zero. The strategy
/// counters describe how the run was computed, not what it found, so they
/// differ between strategies; the block is absent when fork, prune and GC
/// were all off.
pub fn render_stats(report: &RunReport) -> String {
    let m = report.metrics();
    let mut out = String::new();
    writeln!(out, "metrics:").expect("write to string");
    for (name, value) in m.counters() {
        writeln!(out, "  {name} = {value}").expect("write to string");
    }
    let blocks: [Vec<_>; 3] = [
        report.fork_stats().counters().into_iter().collect(),
        report.prune_stats().counters().into_iter().collect(),
        report.gc_stats().counters().into_iter().collect(),
    ];
    let strategy: Vec<_> = blocks
        .into_iter()
        .filter(|block| block.iter().any(|c| c.2 != 0))
        .flatten()
        .collect();
    if !strategy.is_empty() {
        writeln!(out, "strategy:").expect("write to string");
    }
    for (_, name, value) in strategy {
        writeln!(out, "  {name} = {value}").expect("write to string");
    }
    out
}

/// Renders the coverage plane (`yashme --coverage`): per-site verdicts
/// with their counter breakdown, the attribution summary, and the
/// crash-space cartography. Everything here comes from the logical report
/// surface, so the table is byte-identical across worker counts and
/// fork/prune/GC strategy choices.
pub fn render_coverage(report: &RunReport) -> String {
    let cov = report.coverage();
    let summary = cov.summary();
    let mut out = String::new();
    writeln!(
        out,
        "coverage: {} site(s) — {} raced, {} clean, {} unexercised; \
         {}/1000 of store/flush/fence ops attributed to named sites; \
         {} persisted line(s) touched",
        summary.sites,
        summary.raced_sites,
        summary.clean_sites,
        summary.unexercised_sites,
        summary.attributed_permille(),
        summary.lines_touched,
    )
    .expect("write to string");
    writeln!(
        out,
        "  {:<6} {:<32} {:<11} {:>9}  breakdown",
        "kind", "label", "verdict", "executed",
    )
    .expect("write to string");
    for (kind, label, s) in cov.sites.sorted() {
        let shown = if label.is_empty() {
            "(anonymous)"
        } else {
            label
        };
        let verdict = cov.verdict_for(label, &s);
        let breakdown = match kind {
            SiteKind::Store => format!("committed {}, persisted {}", s.committed, s.persisted),
            SiteKind::Flush => format!(
                "effective {}, redundant {}, uncommitted {}",
                s.effective,
                s.redundant,
                s.executed - s.effective - s.redundant,
            ),
            SiteKind::Fence => format!("draining {}, empty {}", s.draining, s.empty),
            SiteKind::Load => format!("observed pre-crash state {}", s.pre_crash),
        };
        writeln!(
            out,
            "  {:<6} {:<32} {:<11} {:>9}  {breakdown}",
            kind.name(),
            shown,
            verdict.name(),
            s.executed,
        )
        .expect("write to string");
    }
    for p in &cov.cartography.phases {
        writeln!(
            out,
            "  crash-space phase {}: {} point(s) — {} distinct crash state(s) \
             explored, {} prunable duplicate(s)",
            p.phase, p.points, p.explored, p.prunable,
        )
        .expect("write to string");
    }
    out
}

/// Renders the provenance timeline behind one report (`yashme --explain`):
/// the racing store, its missing or ineffective flush/fence, the injected
/// crash, the post-crash load that observed the store, and the detection
/// verdict — each step tagged with the [`Phase`] it belongs to, annotated
/// with the vector clocks the detector compared.
///
/// Reports carried without provenance (e.g. post-crash panics) fall back to
/// the one-line [`render_detail`] form.
pub fn render_explain(benchmark: &str, index: usize, report: &RaceReport) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "race #{index} [{benchmark}]: {} on `{}`",
        report.kind(),
        report.label()
    )
    .expect("write to string");
    let Some(p) = report.provenance() else {
        writeln!(out, "  {}", render_detail(benchmark, report)).expect("write to string");
        return out;
    };
    let step = |out: &mut String, phase: Phase, text: &str| {
        writeln!(out, "  [{:>15}] {text}", phase.name()).expect("write to string");
    };
    step(
        &mut out,
        Phase::PreCrashExec,
        &format!(
            "execution {}: {} stores {} {} byte(s) to `{}` at {}, cv {}",
            report.store_exec(),
            report.store_thread(),
            p.store_len,
            p.store_atomicity,
            report.label(),
            report.addr(),
            p.store_cv,
        ),
    );
    if p.ineffective_flushes.is_empty() {
        step(
            &mut out,
            Phase::PreCrashExec,
            "no flush: no clflush or clwb+fence happens-after the store",
        );
    } else {
        let flushes: Vec<String> = p
            .ineffective_flushes
            .iter()
            .map(|(t, c)| format!("{t}@{c}"))
            .collect();
        step(
            &mut out,
            Phase::PreCrashExec,
            &format!(
                "{} flush(es) happen-after the store ({}) but none lies \
                 inside the consistent prefix",
                flushes.len(),
                flushes.join(", "),
            ),
        );
    }
    step(
        &mut out,
        Phase::CrashInjection,
        &format!(
            "injected crash ends execution {} with the store unpersisted",
            report.store_exec()
        ),
    );
    step(
        &mut out,
        Phase::PostCrashExec,
        &format!(
            "execution {}: {} loads {} byte(s) at {}{}{}",
            report.load_exec(),
            p.load_thread,
            p.load_len,
            p.load_addr,
            if p.load_label.is_empty() {
                String::new()
            } else {
                format!(" (`{}`)", p.load_label)
            },
            if p.validated {
                ", inside a checksum-validation scope"
            } else {
                ""
            },
        ),
    );
    step(
        &mut out,
        Phase::Detection,
        &format!(
            "no flush inside the consistent prefix CVpre {} persists the \
             store (cv {}) => the load may observe a torn value",
            p.cv_pre, p.store_cv,
        ),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaaru::{Atomicity, Ctx, Program};

    fn sample_report() -> RunReport {
        let program = Program::new("sample")
            .pre_crash(|ctx: &mut Ctx| {
                let x = ctx.root();
                ctx.store_u64(x, 1, Atomicity::Plain, "field.a");
                ctx.store_u64(x + 8, 2, Atomicity::Plain, "field.b");
            })
            .post_crash(|ctx: &mut Ctx| {
                let x = ctx.root();
                let _ = ctx.load_u64(x, Atomicity::Plain);
                let _ = ctx.load_u64(x + 8, Atomicity::Plain);
            });
        crate::model_check(&program)
    }

    #[test]
    fn stats_report_load_resolution_sources() {
        let report = sample_report();
        let stats = render_stats(&report);
        let s = report.stats();
        for line in [
            format!("  ops.loads = {}\n", s.loads),
            format!("  load.bytes_from_bypass = {}\n", s.bytes_from_bypass),
            format!("  load.bytes_from_cache = {}\n", s.bytes_from_cache),
            format!("  load.bytes_from_image = {}\n", s.bytes_from_image),
            format!(
                "  load.candidate_stores_scanned = {}\n",
                s.candidate_stores_scanned
            ),
        ] {
            assert!(stats.contains(&line), "{line:?} missing from:\n{stats}");
        }
        // The post-crash loads of persisted slots are served by the image.
        assert!(s.bytes_from_image > 0);
        assert!(s.loads > 0);
    }

    #[test]
    fn rows_are_numbered_consecutively() {
        let report = sample_report();
        let (rows, next) = render_race_rows("Sample", &report, 5);
        assert_eq!(next, 7);
        assert!(rows.contains("5\tSample\t"));
        assert!(rows.contains("6\tSample\t"));
        assert!(rows.contains("field.a"));
        assert!(rows.contains("field.b"));
    }

    #[test]
    fn detail_names_store_site() {
        let report = sample_report();
        let detail = render_detail("Sample", &report.races()[0]);
        assert!(detail.contains("[Sample]"));
        assert!(detail.contains("execution 0"));
        assert!(detail.contains("T0"));
    }

    #[test]
    fn summary_counts_kinds() {
        let report = sample_report();
        let s = render_summary(&report);
        assert!(s.contains("2 persistency race(s)"));
        assert!(s.contains("0 benign"));
    }
}
