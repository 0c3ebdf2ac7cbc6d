//! Jaaru-style model-checking execution engine for simulated
//! persistent-memory programs.
//!
//! The paper builds Yashme on the Jaaru open-source model-checking
//! infrastructure, which "uses an LLVM compiler frontend to automatically
//! instrument programs", "implements a simulation framework for persistent
//! memory", and "supports injecting crashes between executions" (§6). This
//! crate is that infrastructure, re-built in Rust with the instrumented
//! program replaced by a programming API ([`Ctx`]):
//!
//! * [`Program`] — a named list of crash-separated phases (pre-crash,
//!   post-crash recovery, ...);
//! * [`Ctx`] — the per-thread operation surface: loads, stores (lowered
//!   through the compiler model, so they may tear), `memset`/`memcpy`,
//!   `clflush`/`clwb`, `sfence`/`mfence`, CAS, spawn/join;
//! * [`Engine`] — runs a program in model-checking mode (a crash injected
//!   before every flush/fence point), random mode (random schedules,
//!   eviction timing, and crash placement) or, beyond the paper, exhaustive
//!   schedule exploration, simulating the Px86sim storage system and
//!   reporting events to a pluggable [`EventSink`]. Three entry points:
//!   [`Engine::run_observed`] (a whole [`ExecMode`] run) and
//!   [`Engine::run_single`]/[`Engine::run_single_observed`] (one simulated
//!   run). Each takes its [`EngineConfig`] explicitly (or uses
//!   [`EngineConfig::default`]). The environment is read once, for one test
//!   hook: `YASHME_SCHED_STALL_MS` sets the fan-out's per-item stall
//!   ([`pool::set_stall_ms`]) on first use;
//! * [`RaceReport`]/[`RunReport`] — detector findings (filled in by the
//!   `yashme` crate's sink; [`NullSink`] gives plain-Jaaru behaviour).
//!
//! # Examples
//!
//! Running a trivially racy program with no detector attached (the engine
//! still simulates buffers, crashes, and candidate reads):
//!
//! ```
//! use jaaru::{Atomicity, Ctx, Engine, NullSink, PersistencePolicy, Program, SchedPolicy};
//!
//! let program = Program::new("demo")
//!     .pre_crash(|ctx: &mut Ctx| {
//!         let a = ctx.root(); // fixed root slot recovery can find again
//!         ctx.store_u64(a, 42, Atomicity::Plain, "x");
//!         ctx.clflush(a);
//!     })
//!     .post_crash(|ctx: &mut Ctx| {
//!         let a = ctx.root();
//!         let _ = ctx.load_u64(a, Atomicity::Plain);
//!     });
//! let outcome = Engine::run_single(
//!     &program,
//!     SchedPolicy::RandomChoice,
//!     PersistencePolicy::Random,
//!     1,
//!     None,
//!     Box::new(NullSink),
//! );
//! assert_eq!(outcome.points, vec![1, 0]); // one crash point: the clflush
//! ```

mod ctx;
mod engine;
mod event;
mod id_table;
mod mem;
mod persist;
pub mod pool;
mod program;
mod report;
mod sched;
mod sink;

pub use ctx::{Ctx, JoinHandle};
pub use engine::{
    Engine, EngineConfig, ExecMode, ModelCheckConfig, RandomConfig, SingleRun, SinkFactory,
};
pub use event::{EventId, ExecId, FlushEvent, FlushKind, Label, LoadInfo, StoreBytes, StoreEvent};
pub use mem::{ExecStats, LoadOutcome, MemState, ROOT_REGION_BYTES};
pub use obs::coverage::{
    coverage_json, Cartography, CoverageReport, CoverageSummary, PhaseChart, SiteKind, SiteStats,
    SiteTable, Verdict,
};
pub use persist::PersistencePolicy;
pub use program::{PhaseFn, Program};
pub use report::{
    ForkStats, GcStats, PruneStats, RaceProvenance, RaceReport, ReportKind, RunReport,
};
pub use sched::SchedPolicy;
pub use sink::{EventSink, NullSink, SpanTraceSink};

// Re-exported so downstream crates get the full vocabulary from one place.
pub use obs;
pub use px86::Atomicity;
