//! The coverage plane: per-site persistency verdicts and crash-space
//! cartography, measured on the deterministic virtual clock.
//!
//! This is the third observability plane. The span/metrics plane (PR 3)
//! records *how* a run executed and the wall-clock telemetry plane (PR 8)
//! records *how long* it took; this plane records *how much was checked* —
//! which static store/flush/fence/load sites were exercised and with what
//! verdict, and how much of the crash-state space was explored or pruned.
//!
//! Everything here lives on the logical side of the determinism contract:
//! a [`SiteTable`] accumulates alongside `ExecStats` (absorb / minus /
//! prune attribution follow the identical flow), and the exported JSON is
//! byte-identical across worker counts and fork/prune/GC strategy choices.
//! Nothing in this module feeds back into the state fingerprint or the
//! detector token — observing coverage never changes what gets pruned.

use std::collections::HashMap;

use crate::json::Json;

/// What kind of static program site a counter row describes.
///
/// The discriminant order is the canonical export order (stores first,
/// loads last), so derived `Ord` is load-bearing for byte-stable output.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SiteKind {
    /// A store / memset / memcpy / CAS write site.
    Store,
    /// A `clflush` / `clflushopt` / `clwb` site.
    Flush,
    /// An `sfence` / `mfence` site.
    Fence,
    /// A load site (read from persistent memory).
    Load,
}

impl SiteKind {
    /// Lower-case name used in JSON and tables.
    pub fn name(self) -> &'static str {
        match self {
            SiteKind::Store => "store",
            SiteKind::Flush => "flush",
            SiteKind::Fence => "fence",
            SiteKind::Load => "load",
        }
    }
}

/// Interned handle for a `(kind, label)` site within one [`SiteTable`].
///
/// Ids are table-local insertion indices: stable within a run (the op
/// stream is deterministic) but not across tables — merging goes through
/// labels, never through raw ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteId(pub u32);

/// Per-site counters. All fields are monotone event counts on the virtual
/// clock; which fields a site uses depends on its [`SiteKind`]:
///
/// - stores: `executed` / `committed` / `persisted` (line-chunk granular);
/// - flushes: `executed` / `effective` (raised a persisted-line floor) /
///   `redundant` (committed without changing any persisted prefix) —
///   `executed - effective - redundant` is the *ineffective* residue,
///   flushes that executed but never committed before a crash cut them;
/// - fences: `executed` / `draining` (retired at least one buffered entry)
///   / `empty`;
/// - loads: `executed` / `pre_crash` (observed at least one byte of
///   pre-crash provenance, i.e. ran against a recovered image).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SiteStats {
    /// Ops executed at this site (store chunks, flush ops, fences, loads).
    pub executed: u64,
    /// Store chunks globally committed (drained from every store buffer).
    pub committed: u64,
    /// Store chunks that reached the persisted prefix of their line.
    pub persisted: u64,
    /// Flush commits that raised a persisted-line floor.
    pub effective: u64,
    /// Flush commits that changed no persisted prefix.
    pub redundant: u64,
    /// Fences that retired at least one buffered entry.
    pub draining: u64,
    /// Fences that found every buffer already empty.
    pub empty: u64,
    /// Loads that observed pre-crash state through the recovered image.
    pub pre_crash: u64,
}

impl SiteStats {
    /// Adds `other` into `self`, field-wise.
    pub fn absorb(&mut self, other: &SiteStats) {
        self.executed += other.executed;
        self.committed += other.committed;
        self.persisted += other.persisted;
        self.effective += other.effective;
        self.redundant += other.redundant;
        self.draining += other.draining;
        self.empty += other.empty;
        self.pre_crash += other.pre_crash;
    }

    /// Field-wise difference `self - earlier`; counters are monotone, so a
    /// later snapshot always dominates an earlier one of the same run.
    pub fn minus(&self, earlier: &SiteStats) -> SiteStats {
        SiteStats {
            executed: self.executed - earlier.executed,
            committed: self.committed - earlier.committed,
            persisted: self.persisted - earlier.persisted,
            effective: self.effective - earlier.effective,
            redundant: self.redundant - earlier.redundant,
            draining: self.draining - earlier.draining,
            empty: self.empty - earlier.empty,
            pre_crash: self.pre_crash - earlier.pre_crash,
        }
    }
}

/// The per-site outcome after a full checking run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The site never executed: the suite has a coverage hole here.
    Unexercised,
    /// The site executed and no persistency race was reported against it.
    Clean,
    /// A persistency race in the final report names this site's label.
    Raced,
}

impl Verdict {
    /// Lower-case name used in JSON and tables.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Unexercised => "unexercised",
            Verdict::Clean => "clean",
            Verdict::Raced => "raced",
        }
    }
}

/// Verdict transition function: `unexercised → clean → raced` as evidence
/// accumulates. `raced` dominates (a raced site is still raced no matter
/// how many clean executions it also had); `clean` requires execution.
pub fn verdict(executed: u64, raced: bool) -> Verdict {
    if raced {
        Verdict::Raced
    } else if executed > 0 {
        Verdict::Clean
    } else {
        Verdict::Unexercised
    }
}

/// Accumulator for per-site counters plus the persisted-line heatmap.
///
/// Follows the `ExecStats` flow exactly: lives in the memory model during
/// execution, is snapshotted per crash point, absorbed across runs, and
/// attributed to pruned class members as `member + (rep_total - rep_prefix)`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SiteTable {
    /// `(kind, label) -> index into entries`.
    index: HashMap<(SiteKind, &'static str), u32>,
    /// Sites in first-execution order.
    entries: Vec<(SiteKind, &'static str, SiteStats)>,
    /// Persisted-line touch heatmap: line base address → number of
    /// flush-driven persisted-floor raises that touched the line.
    heat: HashMap<u64, u64>,
}

impl SiteTable {
    /// Interns `(kind, label)` and returns its id.
    pub fn site(&mut self, kind: SiteKind, label: &'static str) -> SiteId {
        if let Some(&i) = self.index.get(&(kind, label)) {
            return SiteId(i);
        }
        let i = u32::try_from(self.entries.len()).expect("site count fits u32");
        self.index.insert((kind, label), i);
        self.entries.push((kind, label, SiteStats::default()));
        SiteId(i)
    }

    /// Interns the site and returns its mutable counters in one step.
    pub fn record(&mut self, kind: SiteKind, label: &'static str) -> &mut SiteStats {
        let SiteId(i) = self.site(kind, label);
        &mut self.entries[i as usize].2
    }

    /// Counts one flush-driven persisted-floor raise touching `line`.
    pub fn touch_line(&mut self, line: u64) {
        *self.heat.entry(line).or_insert(0) += 1;
    }

    /// Number of interned sites.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no site has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Adds every site and heatmap count of `other` into `self`.
    pub fn absorb(&mut self, other: &SiteTable) {
        for (kind, label, stats) in &other.entries {
            self.record(*kind, label).absorb(stats);
        }
        for (line, n) in &other.heat {
            *self.heat.entry(*line).or_insert(0) += n;
        }
    }

    /// Difference `self - earlier` for prune attribution: the counters a
    /// representative run accumulated after the `earlier` snapshot was
    /// taken. Both tables come from the same deterministic run, so every
    /// site of `earlier` is present in `self` with dominating counters.
    pub fn minus(&self, earlier: &SiteTable) -> SiteTable {
        let mut out = SiteTable::default();
        for (kind, label, stats) in &self.entries {
            let base = earlier
                .index
                .get(&(*kind, label))
                .map(|&i| earlier.entries[i as usize].2)
                .unwrap_or_default();
            *out.record(*kind, label) = stats.minus(&base);
        }
        for (line, n) in &self.heat {
            let base = earlier.heat.get(line).copied().unwrap_or(0);
            if n - base > 0 {
                out.heat.insert(*line, n - base);
            }
        }
        out
    }

    /// Sites sorted by `(kind, label)` — the canonical export order.
    pub fn sorted(&self) -> Vec<(SiteKind, &'static str, SiteStats)> {
        let mut rows = self.entries.clone();
        rows.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        rows
    }

    /// Heatmap sorted by line base address.
    pub fn heat_sorted(&self) -> Vec<(u64, u64)> {
        let mut rows: Vec<(u64, u64)> = self.heat.iter().map(|(&l, &n)| (l, n)).collect();
        rows.sort_unstable();
        rows
    }

    /// Canonical single-line rendering for paranoid cross-checks: every
    /// site and heatmap entry in sorted order. Two tables with equal
    /// logical content render identically regardless of insertion order.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (kind, label, s) in self.sorted() {
            let _ = write!(
                out,
                "{}:{}={},{},{},{},{},{},{},{};",
                kind.name(),
                label,
                s.executed,
                s.committed,
                s.persisted,
                s.effective,
                s.redundant,
                s.draining,
                s.empty,
                s.pre_crash,
            );
        }
        for (line, n) in self.heat_sorted() {
            let _ = write!(out, "@{line:x}={n};");
        }
        out
    }
}

/// Crash-space exploration shape for one phase of the model-check sweep.
///
/// All fields are derived from the profiling run's crash-point stream and
/// fingerprint structure, which are strategy-independent: `explored` is
/// the number of *distinct crash states* (equivalence classes) among the
/// points — what pruning resumes when on, and what exhaustive
/// resumption covers redundantly when off — so the chart is byte-identical
/// whether or not fork/prune/GC actually ran.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PhaseChart {
    /// Phase index (0 = pre-crash execution, 1 = first recovery, ...).
    pub phase: usize,
    /// Crash points the phase offered.
    pub points: u64,
    /// Distinct crash-state equivalence classes among the points.
    pub explored: u64,
    /// Points whose crash state duplicated an earlier class.
    pub prunable: u64,
    /// Class-size histogram: `(class size, number of classes)`, sorted.
    pub class_sizes: Vec<(u64, u64)>,
}

/// Crash-space cartography for a whole run: one chart per phase.
/// Random-mode runs draw points instead of enumerating them, so their
/// cartography is empty.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Cartography {
    /// Per-phase exploration charts.
    pub phases: Vec<PhaseChart>,
}

/// Everything the coverage plane knows after a run, bundled for export.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CoverageReport {
    /// Per-site counters and the persisted-line heatmap.
    pub sites: SiteTable,
    /// Crash-space exploration charts.
    pub cartography: Cartography,
    /// Labels named by persistency races in the final report (sorted,
    /// deduplicated) — these drive the `raced` verdict.
    pub raced_labels: Vec<String>,
}

/// Schema version stamped into every coverage JSON document.
pub const COVERAGE_SCHEMA_VERSION: u64 = 1;

/// A site's verdict under this report: `raced` if a reported race names
/// its label, else `clean`/`unexercised` by execution count.
impl CoverageReport {
    /// Verdict for one site row.
    pub fn verdict_for(&self, label: &str, stats: &SiteStats) -> Verdict {
        let raced = self.raced_labels.iter().any(|l| l == label);
        verdict(stats.executed, raced)
    }

    /// Summary counters used by the JSON export, the human table, and the
    /// CI gate. Attribution is measured over store/flush/fence executions
    /// only (loads are observational); `anonymous` means an empty label.
    pub fn summary(&self) -> CoverageSummary {
        let mut s = CoverageSummary::default();
        for (kind, label, stats) in self.sites.sorted() {
            s.sites += 1;
            match self.verdict_for(label, &stats) {
                Verdict::Raced => s.raced_sites += 1,
                Verdict::Clean => s.clean_sites += 1,
                Verdict::Unexercised => s.unexercised_sites += 1,
            }
            if kind == SiteKind::Load {
                continue;
            }
            s.attributable_ops += stats.executed;
            if label.is_empty() {
                s.anonymous_ops += stats.executed;
            }
        }
        s.lines_touched = self.sites.heat_sorted().len() as u64;
        s
    }

    /// Folds another report into this one for suite-level aggregation:
    /// the site tables absorb, raced labels union (kept sorted and
    /// deduplicated). The cartography is dropped — crash-space phases are
    /// per-program and do not sum meaningfully across a suite.
    pub fn absorb_suite(&mut self, other: &CoverageReport) {
        self.sites.absorb(&other.sites);
        for label in &other.raced_labels {
            if !self.raced_labels.contains(label) {
                self.raced_labels.push(label.clone());
            }
        }
        self.raced_labels.sort();
    }
}

/// Aggregate numbers for the gate and the table header.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CoverageSummary {
    /// Total interned sites.
    pub sites: u64,
    /// Sites with a `raced` verdict.
    pub raced_sites: u64,
    /// Sites with a `clean` verdict.
    pub clean_sites: u64,
    /// Sites with an `unexercised` verdict.
    pub unexercised_sites: u64,
    /// Executed store/flush/fence ops (the attribution denominator).
    pub attributable_ops: u64,
    /// Of those, ops at sites with an empty label.
    pub anonymous_ops: u64,
    /// Distinct persisted lines touched by effective flushes.
    pub lines_touched: u64,
}

impl CoverageSummary {
    /// Permille of store/flush/fence ops attributed to a named site.
    /// Integer arithmetic keeps the rendering byte-stable.
    pub fn attributed_permille(&self) -> u64 {
        if self.attributable_ops == 0 {
            return 1000;
        }
        (self.attributable_ops - self.anonymous_ops) * 1000 / self.attributable_ops
    }
}

/// Builds the stable-field-order coverage JSON document. Field order is
/// fixed, every number is an integer, and all collections are sorted, so
/// the rendering is byte-identical for logically equal reports.
pub fn coverage_json(report: &CoverageReport) -> Json {
    let summary = report.summary();
    let sites = report.sites.sorted().into_iter().map(|(kind, label, s)| {
        Json::obj([
            ("kind", kind.name().into()),
            ("label", label.into()),
            ("verdict", report.verdict_for(label, &s).name().into()),
            ("executed", s.executed.into()),
            ("committed", s.committed.into()),
            ("persisted", s.persisted.into()),
            ("effective", s.effective.into()),
            ("redundant", s.redundant.into()),
            ("draining", s.draining.into()),
            ("empty", s.empty.into()),
            ("pre_crash", s.pre_crash.into()),
        ])
    });
    let phases = report.cartography.phases.iter().map(|p| {
        Json::obj([
            ("phase", p.phase.into()),
            ("points", p.points.into()),
            ("explored", p.explored.into()),
            ("prunable", p.prunable.into()),
            (
                "class_sizes",
                Json::arr(
                    p.class_sizes
                        .iter()
                        .map(|&(size, count)| Json::arr([size.into(), count.into()])),
                ),
            ),
        ])
    });
    let heat = report
        .sites
        .heat_sorted()
        .into_iter()
        .map(|(line, n)| Json::arr([line.into(), n.into()]));
    Json::obj([
        ("schema_version", COVERAGE_SCHEMA_VERSION.into()),
        (
            "summary",
            Json::obj([
                ("sites", summary.sites.into()),
                ("raced_sites", summary.raced_sites.into()),
                ("clean_sites", summary.clean_sites.into()),
                ("unexercised_sites", summary.unexercised_sites.into()),
                ("attributable_ops", summary.attributable_ops.into()),
                ("anonymous_ops", summary.anonymous_ops.into()),
                ("attributed_permille", summary.attributed_permille().into()),
                ("lines_touched", summary.lines_touched.into()),
            ]),
        ),
        (
            "raced_labels",
            Json::arr(report.raced_labels.iter().map(|l| l.as_str().into())),
        ),
        ("sites", Json::arr(sites)),
        (
            "cartography",
            Json::obj([("phases", Json::arr(phases)), ("heatmap", Json::arr(heat))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_transitions() {
        // unexercised → clean → raced as evidence accumulates.
        assert_eq!(verdict(0, false), Verdict::Unexercised);
        assert_eq!(verdict(1, false), Verdict::Clean);
        assert_eq!(verdict(5, true), Verdict::Raced);
        // raced dominates even without a recorded execution in this
        // table (e.g. the racing execution was attributed elsewhere).
        assert_eq!(verdict(0, true), Verdict::Raced);
    }

    #[test]
    fn interning_is_stable_and_merging_goes_by_label() {
        let mut t = SiteTable::default();
        let a = t.site(SiteKind::Store, "s1");
        let b = t.site(SiteKind::Flush, "f1");
        assert_eq!(t.site(SiteKind::Store, "s1"), a);
        assert_ne!(a, b);
        t.record(SiteKind::Store, "s1").executed += 3;

        let mut other = SiteTable::default();
        // Different insertion order; absorb must merge by (kind, label).
        other.record(SiteKind::Flush, "f1").executed += 2;
        other.record(SiteKind::Store, "s1").executed += 1;
        t.absorb(&other);
        let rows = t.sorted();
        assert_eq!(
            rows[0],
            (
                SiteKind::Store,
                "s1",
                SiteStats {
                    executed: 4,
                    ..SiteStats::default()
                }
            )
        );
        assert_eq!(rows[1].2.executed, 2);
    }

    #[test]
    fn minus_then_absorb_reconstructs_prune_attribution() {
        // rep prefix snapshot, then rep total; member = member_prefix +
        // (total - prefix) must equal what a full member run would count.
        let mut prefix = SiteTable::default();
        prefix.record(SiteKind::Store, "s").executed = 2;
        prefix.touch_line(64);
        let mut total = prefix.clone();
        total.record(SiteKind::Store, "s").executed = 5;
        total.record(SiteKind::Fence, "f").draining = 1;
        total.record(SiteKind::Fence, "f").executed = 1;
        total.touch_line(64);
        total.touch_line(128);

        let delta = total.minus(&prefix);
        let mut member = prefix.clone();
        member.absorb(&delta);
        assert_eq!(member.canonical(), total.canonical());
    }

    #[test]
    fn canonical_is_insertion_order_independent() {
        let mut a = SiteTable::default();
        a.record(SiteKind::Store, "x").executed = 1;
        a.record(SiteKind::Store, "a").executed = 2;
        let mut b = SiteTable::default();
        b.record(SiteKind::Store, "a").executed = 2;
        b.record(SiteKind::Store, "x").executed = 1;
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn redundant_flush_shows_in_summary_and_json() {
        let mut report = CoverageReport::default();
        {
            let s = report.sites.record(SiteKind::Flush, "log.flush");
            s.executed = 4;
            s.effective = 1;
            s.redundant = 3;
        }
        report.sites.record(SiteKind::Store, "log.write").executed = 4;
        report.raced_labels = vec!["log.write".to_owned()];
        let json = coverage_json(&report).render();
        assert!(json.contains("\"redundant\":3"), "{json}");
        assert!(json.contains("\"verdict\":\"raced\""), "{json}");
        assert!(json.contains("\"attributed_permille\":1000"), "{json}");
        let summary = report.summary();
        assert_eq!(summary.raced_sites, 1);
        assert_eq!(summary.clean_sites, 1);
    }

    #[test]
    fn anonymous_ops_lower_attribution() {
        let mut report = CoverageReport::default();
        report.sites.record(SiteKind::Flush, "").executed = 1;
        report.sites.record(SiteKind::Store, "s").executed = 3;
        // Loads never enter the attribution denominator.
        report.sites.record(SiteKind::Load, "").executed = 100;
        let summary = report.summary();
        assert_eq!(summary.attributable_ops, 4);
        assert_eq!(summary.anonymous_ops, 1);
        assert_eq!(summary.attributed_permille(), 750);
    }
}
