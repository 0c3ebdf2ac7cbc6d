//! Mini-PMDK: a reproduction of the PMDK subsystems the paper's evaluation
//! depends on (§7.1).
//!
//! PMDK (the Persistent Memory Development Kit) is Intel's library suite for
//! PM programming. The paper tests the example data structures distributed
//! with PMDK — BTree, CTree, RBTree, Hashmap-atomic, and Hashmap-TX — and
//! finds one new persistency race in the library itself: a non-atomic store
//! to the unused-entry pointer of the undo log (`ulog.c`, Table 4 bug #1).
//!
//! This crate rebuilds the relevant layers:
//!
//! * [`pool`] — a pool with a checksum-validated header (the checksum reads
//!   are the source of the paper's benign race reports, §7.5);
//! * [`libpmem`] — the low-level flush API (`pmem_persist` = `clwb` per
//!   line + `sfence`), used directly by memcached-pmem;
//! * [`ulog`] — the undo log, with the racy `used` pointer;
//! * [`tx`] — `libpmemobj`-style transactions: snapshot via
//!   [`tx::Tx::add_range`], modify in place, commit persists;
//! * the five example data structures, each with a driver `program()`.

pub mod btree;
pub mod ctree;
pub mod hashmap_atomic;
pub mod hashmap_tx;
pub mod libpmem;
pub mod plog;
pub mod pool;
pub mod rbtree;
pub mod tx;
pub mod ulog;

use jaaru::Program;

/// The label of the PMDK persistency race (Table 4 bug #1).
pub const ULOG_RACE_LABEL: &str = "ulog_entry ptr (ulog.c)";

/// One PMDK example benchmark.
pub struct PmdkBenchmark {
    /// Name as printed in Table 5.
    pub name: &'static str,
    /// Builds the driver program.
    pub program: fn() -> Program,
}

impl std::fmt::Debug for PmdkBenchmark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmdkBenchmark")
            .field("name", &self.name)
            .finish()
    }
}

/// The five example data structures in the paper's Table 5 order.
pub fn all_benchmarks() -> Vec<PmdkBenchmark> {
    vec![
        PmdkBenchmark {
            name: "Btree",
            program: btree::program,
        },
        PmdkBenchmark {
            name: "Ctree",
            program: ctree::program,
        },
        PmdkBenchmark {
            name: "RBtree",
            program: rbtree::program,
        },
        PmdkBenchmark {
            name: "hashmap-atomic",
            program: hashmap_atomic::program,
        },
        PmdkBenchmark {
            name: "hashmap-tx",
            program: hashmap_tx::program,
        },
    ]
}

/// Runs `program` once, with no detector, on the random schedule and
/// persistence cut drawn from `seed`: drives a unit test's own assertions.
#[cfg(test)]
pub(crate) fn run_once(program: &jaaru::Program, seed: u64) -> jaaru::SingleRun {
    jaaru::Engine::run_single(
        program,
        jaaru::SchedPolicy::RandomChoice,
        jaaru::PersistencePolicy::Random,
        seed,
        None,
        Box::new(jaaru::NullSink),
    )
}
