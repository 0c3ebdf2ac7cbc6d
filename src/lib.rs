//! # yashme-repro — a reproduction of *Yashme: Detecting Persistency Races*
//!
//! This is the facade crate for a full Rust reproduction of the ASPLOS 2022
//! paper by Gorjiara, Xu, and Demsky. It re-exports every subsystem:
//!
//! * [`vclock`] — vector clocks and sequence numbers,
//! * [`pmem`] — the simulated persistent-memory address space,
//! * [`px86`] — the Px86sim store-buffer / flush-buffer model (Table 1),
//! * [`compiler_model`] — the store-optimization (tearing / memset / memcpy)
//!   compiler model (Table 2),
//! * [`jaaru`] — the model-checking execution engine with crash injection,
//! * [`yashme`] — the persistency-race detector itself,
//! * [`recipe`], [`pmdk`], [`apps`] — Rust ports of the paper's benchmarks
//!   (Tables 3–5).
//!
//! See `examples/quickstart.rs` for the paper's Figure 1 reproduced end to
//! end, and the `bench` crate's `table1`..`table5` binaries for the
//! evaluation tables.
//!
//! # Examples
//!
//! ```
//! use yashme_repro::prelude::*;
//!
//! // A single-threaded program that stores, then flushes; the flush is not
//! // forced into any consistent prefix by the post-crash reads, so the
//! // store races — the classic persistency race of Figure 1.
//! let program = Program::new("fig1")
//!     .pre_crash(|ctx: &mut Ctx| {
//!         let x = ctx.root();
//!         ctx.store_u64(x, 0x1234_5678_1234_5678, Atomicity::Plain, "pmobj->val");
//!         ctx.clflush(x);
//!     })
//!     .post_crash(|ctx: &mut Ctx| {
//!         let x = ctx.root();
//!         let _ = ctx.load_u64(x, Atomicity::Plain);
//!     });
//!
//! let report = yashme::model_check(&program);
//! assert_eq!(report.race_labels(), vec!["pmobj->val"]);
//! ```

pub use apps;
pub use compiler_model;
pub use jaaru;
pub use pmdk;
pub use pmem;
pub use px86;
pub use recipe;
pub use vclock;
pub use yashme;

/// Convenient glob-import surface for examples and tests.
pub mod prelude {
    pub use jaaru::{
        Atomicity, Ctx, Engine, EngineConfig, ExecMode, PersistencePolicy, Program, RandomConfig,
        SchedPolicy,
    };
    pub use pmem::{Addr, CacheLineId, PmAllocator, CACHE_LINE_SIZE};
    pub use vclock::{ThreadId, VectorClock};
    pub use yashme::{RaceReport, ReportKind, RunReport, YashmeConfig, YashmeDetector};
}
