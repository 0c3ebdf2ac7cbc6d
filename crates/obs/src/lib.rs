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
//! * [`counter_block!`] — the one declaration of a block of `u64` counters:
//!   each field's doc, merge rule and metric name, from which the struct,
//!   field-wise `absorb`/`minus` and the `counters()` walk are generated.
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
mod counters;
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

/// Canonical names of the engine-level and trace counters in the run's
/// metrics registry. Counter blocks name their own fields in their
/// [`counter_block!`] declarations.
pub mod names {
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
}
