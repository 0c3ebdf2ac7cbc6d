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

crate::counter_block! {
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
    pub struct SiteStats {
        /// Ops executed at this site (store chunks, flush ops, fences, loads).
        executed: sum "site.executed",
        /// Store chunks globally committed (drained from every store buffer).
        committed: sum "site.committed",
        /// Store chunks that reached the persisted prefix of their line.
        persisted: sum "site.persisted",
        /// Flush commits that raised a persisted-line floor.
        effective: sum "site.effective",
        /// Flush commits that changed no persisted prefix.
        redundant: sum "site.redundant",
        /// Fences that retired at least one buffered entry.
        draining: sum "site.draining",
        /// Fences that found every buffer already empty.
        empty: sum "site.empty",
        /// Loads that observed pre-crash state through the recovered image.
        pre_crash: sum "site.pre_crash",
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
    /// Address-keyed front of `index`; never cloned or compared.
    cache: SiteCache,
}

/// A label's identity as the cache sees it: its address, its length and
/// the site kind. Equal `&'static str` pointers and lengths mean equal
/// text, so a hit is exact; equal text at another address merely misses
/// and falls back to the content-keyed index, which maps it to the same
/// site.
type CacheKey = (usize, usize, SiteKind);

/// Slots of the direct-mapped [`SiteCache`] (a power of two).
const CACHE_SLOTS: usize = 128;

/// A direct-mapped cache from [`CacheKey`] to site index, so interning a
/// site per simulated event costs a multiply and a compare instead of
/// hashing the label's text. It is a pure accelerator: a clone starts
/// empty (crash-point snapshots clone the table and must not carry it),
/// and equality ignores it.
#[derive(Default)]
struct SiteCache {
    /// Empty until the first lookup, then `CACHE_SLOTS` entries.
    slots: Vec<Option<(CacheKey, u32)>>,
}

impl SiteCache {
    fn slot(&mut self, key: CacheKey) -> &mut Option<(CacheKey, u32)> {
        if self.slots.is_empty() {
            self.slots = vec![None; CACHE_SLOTS];
        }
        let (ptr, len, kind) = key;
        let h = (ptr as u64 ^ (len as u64) << 48 ^ kind as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        &mut self.slots[(h >> (64 - CACHE_SLOTS.trailing_zeros())) as usize]
    }
}

impl Clone for SiteCache {
    fn clone(&self) -> Self {
        SiteCache::default()
    }
}

impl PartialEq for SiteCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for SiteCache {}

impl std::fmt::Debug for SiteCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SiteCache")
    }
}

impl SiteTable {
    /// Interns `(kind, label)` and returns its id.
    pub fn site(&mut self, kind: SiteKind, label: &'static str) -> SiteId {
        let key = (label.as_ptr() as usize, label.len(), kind);
        let slot = self.cache.slot(key);
        if let Some((k, i)) = *slot {
            if k == key {
                return SiteId(i);
            }
        }
        let i = match self.index.get(&(kind, label)) {
            Some(&i) => i,
            None => {
                let i = u32::try_from(self.entries.len()).expect("site count fits u32");
                self.index.insert((kind, label), i);
                self.entries.push((kind, label, SiteStats::default()));
                i
            }
        };
        *slot = Some((key, i));
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
    /// taken. Both tables come from the same deterministic run, so the
    /// sites of `earlier` are, in order, a prefix of the sites of `self`
    /// (sites are numbered in first-execution order), with dominating
    /// counters; entries pair by position.
    pub fn minus(&self, earlier: &SiteTable) -> SiteTable {
        debug_assert!(earlier.entries.len() <= self.entries.len());
        let mut out = SiteTable::default();
        for (i, (kind, label, stats)) in self.entries.iter().enumerate() {
            let base = earlier.entries.get(i).map_or_else(SiteStats::default, |e| {
                debug_assert!(e.0 == *kind && e.1 == *label, "earlier is not a prefix");
                e.2
            });
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

    /// Canonical single-line rendering for the engine's attribution check
    /// under exhaustive resumption: every
    /// site and heatmap entry in sorted order. Two tables with equal
    /// logical content render identically regardless of insertion order.
    pub fn canonical(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (kind, label, s) in self.sorted() {
            let _ = write!(out, "{}:{}=", kind.name(), label);
            for (_, _, v) in s.counters() {
                let _ = write!(out, "{v},");
            }
            out.push(';');
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
        let head = [
            ("kind", kind.name().into()),
            ("label", label.into()),
            ("verdict", report.verdict_for(label, &s).name().into()),
        ];
        let counts = s.counters().into_iter().map(|(f, _, v)| (f, v.into()));
        Json::obj(head.into_iter().chain(counts))
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
    fn equal_text_at_another_address_shares_the_site() {
        let mut t = SiteTable::default();
        let literal: &'static str = "node.next";
        let leaked: &'static str = Box::leak(literal.to_owned().into_boxed_str());
        assert_ne!(literal.as_ptr(), leaked.as_ptr());
        let a = t.site(SiteKind::Store, literal);
        assert_eq!(t.site(SiteKind::Store, leaked), a);
        // Both stay exact on repeat lookups, whichever is cached.
        assert_eq!(t.site(SiteKind::Store, literal), a);
        assert_eq!(t.site(SiteKind::Store, leaked), a);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn one_address_under_two_kinds_is_two_sites() {
        let mut t = SiteTable::default();
        let label: &'static str = "log.tail";
        let store = t.site(SiteKind::Store, label);
        let flush = t.site(SiteKind::Flush, label);
        assert_ne!(store, flush);
        assert_eq!(t.site(SiteKind::Store, label), store);
        assert_eq!(t.site(SiteKind::Flush, label), flush);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn clones_start_with_an_empty_cache_and_compare_equal() {
        let mut t = SiteTable::default();
        t.record(SiteKind::Store, "s").executed = 2;
        t.record(SiteKind::Load, "l").pre_crash = 1;
        t.touch_line(64);
        assert!(!t.cache.slots.is_empty());
        let c = t.clone();
        assert!(c.cache.slots.is_empty(), "the cache must not ride along");
        assert_eq!(c, t);
        assert_eq!(c.sorted(), t.sorted());
        assert_eq!(c.canonical(), t.canonical());
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
