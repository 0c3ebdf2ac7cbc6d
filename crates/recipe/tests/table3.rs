//! Table 3 reproduction: model-checking each RECIPE-family benchmark must
//! find exactly the paper's root-cause race labels.

use std::collections::BTreeSet;

fn check(name: &str) {
    let spec = recipe::all_benchmarks()
        .into_iter()
        .find(|b| b.name == name)
        .expect("benchmark registered");
    let report = yashme::model_check(&(spec.program)());
    let found: BTreeSet<&str> = report.race_labels().into_iter().collect();
    let expected: BTreeSet<&str> = spec.expected_races.iter().copied().collect();
    assert_eq!(
        found, expected,
        "{name}: races found by model checking differ from Table 3\n{report}"
    );
}

#[test]
fn cceh_races_match_table3() {
    check("CCEH");
}

#[test]
fn fast_fair_races_match_table3() {
    check("Fast_Fair");
}

#[test]
fn fast_fair_recovery_scan_survives_every_crash_point() {
    // The program's post-crash phase searches every key and then walks the
    // whole leaf chain (`recovery_scan`); model checking crashes it at
    // every flush and fence, and no recovered tree may make it panic.
    let report = yashme::model_check(&recipe::fastfair::program());
    assert!(report.crash_points() > 0);
    assert!(report.post_crash_panics().is_empty(), "{report}");
}

#[test]
fn p_art_races_match_table3() {
    check("P-ART");
}

#[test]
fn p_bwtree_races_match_table3() {
    check("P-BwTree");
}

#[test]
fn p_clht_races_match_table3() {
    check("P-CLHT");
}

#[test]
fn p_masstree_races_match_table3() {
    check("P-Masstree");
}

#[test]
fn total_races_match_paper_count() {
    // "we found a total of 19 persistency races in the persistent memory
    // indexes" (§3.2).
    let total: usize = recipe::all_benchmarks()
        .iter()
        .map(|b| b.expected_races.len())
        .sum();
    assert_eq!(total, 19);
}

#[test]
fn table2b_rows_match_paper() {
    // (name, #src-op, #asm-op) as printed in Table 2b.
    let expected = [
        ("CCEH", 6, 33),
        ("Fast_Fair", 1, 4),
        ("P-ART", 17, 8),
        ("P-BwTree", 6, 15),
        ("P-CLHT", 0, 0),
        ("P-Masstree", 3, 14),
    ];
    let cfg = compiler_model::CompilerConfig::clang_o3_x86();
    for (name, src, asm) in expected {
        let spec = recipe::all_benchmarks()
            .into_iter()
            .find(|b| b.name == name)
            .unwrap();
        let profile = (spec.profile)();
        assert_eq!(profile.source_counts().total(), src, "{name} #src-op");
        assert_eq!(profile.asm_counts(&cfg).total(), asm, "{name} #asm-op");
    }
}
