//! Robustness: exploring crash points *inside the recovery phase*
//! (`crash_in_recovery`) must not change the Table 3 results — the index
//! benchmarks' recovery paths are read-only, so no new racy stores appear —
//! while strictly exploring more executions.

use std::collections::BTreeSet;

use jaaru::{EngineConfig, ExecMode, ModelCheckConfig};
use yashme::YashmeConfig;

#[test]
fn recovery_exploration_preserves_table3_races() {
    for spec in recipe::all_benchmarks() {
        let base = yashme::model_check(&(spec.program)());
        let deep = yashme::check(
            &(spec.program)(),
            ExecMode::ModelCheck(ModelCheckConfig {
                crash_in_recovery: true,
            }),
            YashmeConfig::default(),
            &EngineConfig::default(),
        );
        let base_labels: BTreeSet<&str> = base.race_labels().into_iter().collect();
        let deep_labels: BTreeSet<&str> = deep.race_labels().into_iter().collect();
        // Recovery-phase crashes cut the post-crash execution short, which
        // can only reduce the reads performed in a given execution — but the
        // full-length execution is still explored, so nothing is lost.
        assert!(
            base_labels.is_subset(&deep_labels) && deep_labels.is_subset(&base_labels),
            "{}: recovery exploration changed the race set\nbase: {base_labels:?}\ndeep: {deep_labels:?}",
            spec.name
        );
        assert!(
            deep.executions() >= base.executions(),
            "{}: deeper exploration should not run fewer executions",
            spec.name
        );
    }
}
