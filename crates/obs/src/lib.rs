//! # obs — observability core for the exploration engine
//!
//! The paper's evaluation (§7, Tables 3–5) is a story about *where model
//! checking time goes* and *why each race was reported*. This crate is the
//! substrate for answering both questions:
//!
//! * [`TraceBuf`] — a per-run span/instant buffer stamped with a **virtual
//!   clock** (engine events, not wall time). Each simulated run owns its
//!   buffer outright, so recording is lock-free, and because a run's event
//!   stream is deterministic, so is its trace.
//! * [`RunTrace`] — buffers from many runs merged **in run order** onto one
//!   lane per run. The merged trace is byte-identical however the runs were
//!   distributed over a worker pool, the same discipline the engine uses
//!   for report merging. Its run, span and event totals are computed from
//!   the lanes alone; nothing else keeps a copy.
//! * [`MetricsRegistry`] — named counters with deterministic (sorted-key)
//!   export.
//! * [`chrome`] — export of a [`RunTrace`] as Chrome trace-event JSON,
//!   loadable in Perfetto / `chrome://tracing`.
//! * [`json`] — a minimal stable-field-order JSON writer (the workspace's
//!   vendored `serde` is a no-op stub, so JSON is written by hand).
//! * [`telemetry`] — the **second plane**: wall-clock phase timers, worker
//!   utilization, and throughput time series for humans and dashboards.
//!   Explicitly nondeterministic and write-only; it never feeds back into
//!   the virtual-clock plane above (see the module docs for the contract).
//! * [`coverage`] — the **third plane**: per-site persistency verdicts
//!   (stores/flushes/fences/loads keyed by static label) and crash-space
//!   cartography, measured on the virtual clock and exported byte-identical
//!   across worker counts and fork/prune/GC strategy choices.
//!
//! `obs` depends on nothing above the standard library; `jaaru` layers the
//! engine wiring ([`SpanTraceSink`](../jaaru/sink) and trace collection) on
//! top.
//!
//! # Determinism rules
//!
//! 1. Timestamps are *virtual*: a run's clock ticks once per engine event
//!    delivered to its sink. Wall time never enters a trace.
//! 2. Lanes are per logical *run* (crash target), not per OS worker: a
//!    worker pool assigns runs to threads nondeterministically, so a
//!    per-worker lane split would change with `--workers`. Per-run lanes
//!    make the trace a pure function of the program. Run `i` is lane
//!    `i + 1`; tid 0 carries only the process name.
//! 3. Merges happen in run order; exports sort events by
//!    `(lane, start, name)` and counters by name.

pub mod chrome;
pub mod coverage;
pub mod json;
pub mod metrics;
pub mod span;
pub mod telemetry;

pub use chrome::{to_chrome_json, write_chrome_json};
pub use coverage::{
    coverage_json, Cartography, CoverageReport, CoverageSummary, PhaseChart, SiteId, SiteKind,
    SiteStats, SiteTable, Verdict,
};
pub use json::Json;
pub use metrics::MetricsRegistry;
pub use span::{Phase, RunTrace, Span, SpanInstant, TraceBuf};
pub use telemetry::{
    start_reporter, Count, Reporter, ReporterConfig, Telemetry, TelemetrySample, WallPhase,
    WorkerStat,
};

/// Canonical metric names, shared by the engine's registry and the
/// human-readable `--details` rendering so the two can never drift apart.
pub mod names {
    /// Instruction-level store events created (post-lowering chunks).
    pub const OPS_STORES_EXECUTED: &str = "ops.stores_executed";
    /// Store events that took effect on the cache.
    pub const OPS_STORES_COMMITTED: &str = "ops.stores_committed";
    /// Loads performed.
    pub const OPS_LOADS: &str = "ops.loads";
    /// `clflush`/`clwb` instructions executed.
    pub const OPS_FLUSHES: &str = "ops.flushes";
    /// `sfence`/`mfence` instructions executed.
    pub const OPS_FENCES: &str = "ops.fences";
    /// Locked CAS operations executed.
    pub const OPS_CAS: &str = "ops.cas";
    /// Crashes (executions pushed on the stack).
    pub const OPS_CRASHES: &str = "ops.crashes";
    /// Load bytes served by store-buffer bypass.
    pub const LOAD_BYTES_FROM_BYPASS: &str = "load.bytes_from_bypass";
    /// Load bytes served by the current execution's cache.
    pub const LOAD_BYTES_FROM_CACHE: &str = "load.bytes_from_cache";
    /// Load bytes served by the persistent image.
    pub const LOAD_BYTES_FROM_IMAGE: &str = "load.bytes_from_image";
    /// Prior-execution candidate stores scanned during load resolution.
    pub const LOAD_CANDIDATE_STORES_SCANNED: &str = "load.candidate_stores_scanned";
    /// Complete (pre-crash + post-crash) executions simulated.
    pub const ENGINE_EXECUTIONS: &str = "engine.executions";
    /// Distinct crash points discovered in the program.
    pub const ENGINE_CRASH_POINTS: &str = "engine.crash_points";
    /// Reports dropped by `(kind, label)` de-duplication during merge.
    pub const ENGINE_DEDUP_HITS: &str = "engine.dedup_hits";
    /// De-duplicated reports that survived the merge.
    pub const ENGINE_REPORTS: &str = "engine.reports";
    /// Engine events delivered to traced sinks (virtual-clock ticks),
    /// summed over every run lane.
    pub const TRACE_EVENTS: &str = "trace.events";
    /// Spans recorded across all run lanes.
    pub const TRACE_SPANS: &str = "trace.spans";
    /// Detector flushmap entries resident at the end of the run.
    pub const DETECTOR_FLUSHMAP_LIVE: &str = "detector.flushmap_live";
    /// High-water mark of detector flushmap entries.
    pub const DETECTOR_FLUSHMAP_PEAK: &str = "detector.flushmap_peak";
}

#[cfg(test)]
mod tests {
    #[test]
    fn metric_names_are_unique() {
        let names = [
            super::names::OPS_STORES_EXECUTED,
            super::names::OPS_STORES_COMMITTED,
            super::names::OPS_LOADS,
            super::names::OPS_FLUSHES,
            super::names::OPS_FENCES,
            super::names::OPS_CAS,
            super::names::OPS_CRASHES,
            super::names::LOAD_BYTES_FROM_BYPASS,
            super::names::LOAD_BYTES_FROM_CACHE,
            super::names::LOAD_BYTES_FROM_IMAGE,
            super::names::LOAD_CANDIDATE_STORES_SCANNED,
            super::names::ENGINE_EXECUTIONS,
            super::names::ENGINE_CRASH_POINTS,
            super::names::ENGINE_DEDUP_HITS,
            super::names::ENGINE_REPORTS,
            super::names::TRACE_EVENTS,
            super::names::TRACE_SPANS,
            super::names::DETECTOR_FLUSHMAP_LIVE,
            super::names::DETECTOR_FLUSHMAP_PEAK,
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }
}
