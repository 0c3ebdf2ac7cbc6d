//! Extension benchmarks beyond the paper's suite: persistent data
//! structures written the way a downstream user would, checked with
//! Yashme, and then *fixed* the way the paper prescribes (§7.2: replace
//! racing non-atomic stores with atomic release stores — free on x86).
//!
//! Each structure comes in two variants selected by [`Variant`]:
//!
//! * [`Variant::Racy`] — publish pointers/indices are plain stores, the
//!   natural first draft; Yashme flags them.
//! * [`Variant::Fixed`] — the same stores made atomic release stores (and
//!   read with acquire loads); Yashme reports nothing.

pub mod pqueue;
pub mod pskiplist;
pub mod pstack;

use jaaru::Program;

/// One extension benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Extra {
    /// Name as `yashme --list` prints it.
    pub name: &'static str,
    /// Builds the driver program.
    pub program: fn() -> Program,
}

/// The extension programs `yashme --all` runs after the paper's suite, in
/// its order and all in model-checking mode: each structure's racy and
/// fixed variant, then PMDK's `pmemlog` example.
pub fn suite() -> Vec<Extra> {
    let extra = |name, program| Extra { name, program };
    vec![
        extra("x-skiplist", || pskiplist::program(Variant::Racy)),
        extra("x-skiplist-fixed", || pskiplist::program(Variant::Fixed)),
        extra("x-queue", || pqueue::program(Variant::Racy)),
        extra("x-queue-fixed", || pqueue::program(Variant::Fixed)),
        extra("x-stack", || pstack::program(Variant::Racy)),
        extra("x-stack-fixed", || pstack::program(Variant::Fixed)),
        extra("x-pmemlog", pmdk::plog::program),
    ]
}

/// Which store discipline a structure uses for its publish fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Plain (non-atomic) publish stores: has persistency races.
    Racy,
    /// Atomic release publish stores: race-free.
    Fixed,
}

impl Variant {
    pub(crate) fn atomicity(self) -> jaaru::Atomicity {
        match self {
            Variant::Racy => jaaru::Atomicity::Plain,
            Variant::Fixed => jaaru::Atomicity::ReleaseAcquire,
        }
    }
}

/// Runs `program` once, with no detector, on the random schedule and
/// persistence cut drawn from `seed`: drives a unit test's own assertions.
#[cfg(test)]
pub(crate) fn run_once(program: &Program, seed: u64) -> jaaru::SingleRun {
    jaaru::Engine::run_single(
        program,
        jaaru::SchedPolicy::RandomChoice,
        jaaru::PersistencePolicy::Random,
        seed,
        None,
        Box::new(jaaru::NullSink),
    )
}
