//! # Yashme — detecting persistency races
//!
//! A reproduction of *Yashme: Detecting Persistency Races* (Gorjiara, Xu,
//! Demsky — ASPLOS 2022).
//!
//! A **persistency race** exists when a load in a post-crash execution reads
//! from a *non-atomic* store of the pre-crash execution that was not
//! persistency-ordered before the load (Definition 5.1): no `clflush`
//! happens-after it, no `clwb`+fence happens-after it, and the post-crash
//! execution did not first read a later atomic release store on the same
//! cache line. Because compilers may tear non-atomic stores into several
//! store instructions (or invent stores), such a load can observe a
//! partially persisted value.
//!
//! The detector's key idea (§4.2) is **prefix expansion**: rather than
//! requiring the injected crash to land in the narrow window between a store
//! and its flush, Yashme checks races against every *consistent prefix* of
//! the pre-crash execution — the prefix that happens-before the stores the
//! post-crash execution has actually read. A flush that committed before the
//! crash but is not forced into that prefix can be ignored, because some
//! pre-crash execution exists that stops before the flush yet yields the
//! same post-crash reads (Theorem 1).
//!
//! # Quick start
//!
//! The classic example (the paper's Figure 1): a non-atomic 64-bit store
//! that is flushed, but whose flush is not observed by the post-crash
//! execution.
//!
//! ```
//! use jaaru::{Atomicity, Ctx, Program};
//!
//! let program = Program::new("figure1")
//!     .pre_crash(|ctx: &mut Ctx| {
//!         let val = ctx.root();
//!         ctx.store_u64(val, 0x1234_5678_1234_5678, Atomicity::Plain, "pmobj->val");
//!         ctx.clflush(val); // flush *after* the store — a crash in between races
//!     })
//!     .post_crash(|ctx: &mut Ctx| {
//!         let val = ctx.root();
//!         if ctx.load_u64(val, Atomicity::Plain) != 0 {
//!             // would print a possibly-torn value
//!         }
//!     });
//!
//! let report = yashme::model_check(&program);
//! assert_eq!(report.race_labels(), vec!["pmobj->val"]);
//! ```
//!
//! # Architecture
//!
//! * [`YashmeDetector`] implements [`jaaru::EventSink`]: the execution
//!   engine reports stores, flush commits, fences, crashes, and post-crash
//!   reads; the detector maintains `flushmap`, `lastflush`, and `CVpre`
//!   (§6) and emits [`RaceReport`]s.
//! * [`YashmeConfig`] selects prefix mode (the paper's contribution) or
//!   baseline mode (races detected only when the crash physically landed in
//!   the store→flush window), the comparison of Table 5.
//! * [`model_check`] is the quickstart: paper defaults on the sequential
//!   engine. [`check`] is the general entry point: any [`ExecMode`], any
//!   [`YashmeConfig`], and an explicit [`EngineConfig`] (worker pool,
//!   fork/prune/GC strategy). Engine configuration comes only from that
//!   argument; the aggregated report is identical for every worker count.

mod config;
mod detector;
pub mod json;
pub mod render;

pub use config::YashmeConfig;
pub use detector::YashmeDetector;

pub use jaaru::{EngineConfig, PruneStats, RaceProvenance, RaceReport, ReportKind, RunReport};

use jaaru::{Engine, ExecMode, Program};

/// Model-checks `program`: a crash is injected before every flush/fence
/// point of the pre-crash phase (§6), with prefix expansion enabled, on the
/// default (sequential) engine.
pub fn model_check(program: &Program) -> RunReport {
    check(
        program,
        ExecMode::model_check(),
        YashmeConfig::default(),
        &EngineConfig::default(),
    )
}

/// Runs `program` under `mode` with a fresh detector (configured by
/// `config`) per simulated run, on the engine configured by `engine`. The
/// aggregated report is identical for every worker count and fork/prune/GC
/// setting.
///
/// For wall-clock telemetry, call [`jaaru::Engine::run_observed`] with a
/// [`YashmeDetector`] factory directly.
pub fn check(
    program: &Program,
    mode: ExecMode,
    config: YashmeConfig,
    engine: &EngineConfig,
) -> RunReport {
    Engine::run_observed(
        program,
        mode,
        &|| Box::new(YashmeDetector::new(config)),
        engine,
        jaaru::obs::Telemetry::off(),
    )
}
