//! Rust ports of the persistent-memory index benchmarks the paper evaluates
//! (§7.1): CCEH, FAST_FAIR, and the RECIPE suite (P-ART, P-BwTree, P-CLHT,
//! P-Masstree). P-HOT is excluded, as in the paper.
//!
//! Each port preserves the store/flush/fence *patterns* and the racy fields
//! of the original C++ code — e.g. CCEH's `Segment::Insert` writes `value`,
//! issues `mfence`, then writes the non-atomic `key` that commits the
//! insertion (Figure 3), and `CCEH::Get` reads both fields back post-crash
//! (Figure 10). The Table 3 race labels name those fields.
//!
//! Every benchmark module exposes:
//!
//! * a data structure operating through [`jaaru::Ctx`] on simulated PM,
//! * `program()` — the insertion/deletion/lookup driver the detector runs,
//! * `source_profile()` — the mem-op profile of its initialization and
//!   copy-heavy code for the Table 2b study,
//! * `EXPECTED_RACES` — the Table 3 root-cause labels.
//!
//! [`all_benchmarks`] returns the registry the evaluation harness iterates.

pub mod cceh;
pub mod fastfair;
pub mod part;
pub mod pbwtree;
pub mod pclht;
pub mod pmasstree;
pub(crate) mod util;

use compiler_model::SourceProfile;
use jaaru::Program;

/// One benchmark's entry in the evaluation registry.
pub struct BenchmarkSpec {
    /// Name as printed in the paper's tables.
    pub name: &'static str,
    /// Builds the driver program (insert/delete/lookup + recovery reads).
    pub program: fn() -> Program,
    /// The Table 2b source profile.
    pub profile: fn() -> SourceProfile,
    /// Root-cause labels of the races Table 3 reports for this benchmark.
    pub expected_races: &'static [&'static str],
}

impl std::fmt::Debug for BenchmarkSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BenchmarkSpec")
            .field("name", &self.name)
            .field("expected_races", &self.expected_races)
            .finish()
    }
}

/// The full RECIPE-family registry in the paper's table order.
pub fn all_benchmarks() -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec {
            name: "CCEH",
            program: cceh::program,
            profile: cceh::source_profile,
            expected_races: cceh::EXPECTED_RACES,
        },
        BenchmarkSpec {
            name: "Fast_Fair",
            program: fastfair::program,
            profile: fastfair::source_profile,
            expected_races: fastfair::EXPECTED_RACES,
        },
        BenchmarkSpec {
            name: "P-ART",
            program: part::program,
            profile: part::source_profile,
            expected_races: part::EXPECTED_RACES,
        },
        BenchmarkSpec {
            name: "P-BwTree",
            program: pbwtree::program,
            profile: pbwtree::source_profile,
            expected_races: pbwtree::EXPECTED_RACES,
        },
        BenchmarkSpec {
            name: "P-CLHT",
            program: pclht::program,
            profile: pclht::source_profile,
            expected_races: pclht::EXPECTED_RACES,
        },
        BenchmarkSpec {
            name: "P-Masstree",
            program: pmasstree::program,
            profile: pmasstree::source_profile,
            expected_races: pmasstree::EXPECTED_RACES,
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
