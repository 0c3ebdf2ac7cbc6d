//! Every bench binary rejects an argument it does not know: exit status 2
//! and one `unknown argument` line on stderr, before any output — so a
//! typo such as `--no-frok` never silently runs the default configuration.

use std::process::Command;

/// Each binary with one argument list it accepts up to a trailing typo.
const BINS: [(&str, &str, &[&str]); 7] = [
    ("table1", env!("CARGO_BIN_EXE_table1"), &["--out", "t.txt"]),
    ("table2", env!("CARGO_BIN_EXE_table2"), &["--out", "t.txt"]),
    (
        "table3",
        env!("CARGO_BIN_EXE_table3"),
        &["--json", "--coverage", "--coverage-out", "c.json"],
    ),
    ("table4", env!("CARGO_BIN_EXE_table4"), &["--json"]),
    ("table5", env!("CARGO_BIN_EXE_table5"), &["--json"]),
    ("sweep", env!("CARGO_BIN_EXE_sweep"), &[]),
    ("seedscan", env!("CARGO_BIN_EXE_seedscan"), &[]),
];

#[test]
fn unknown_arguments_exit_2_before_any_work() {
    for (name, exe, accepted) in BINS {
        for bad in ["--no-frok", "--prune-paranoid", "--gc-paranoid", "stray"] {
            let out = Command::new(exe)
                .args(["--workers", "2", "--no-gc"])
                .args(accepted)
                .arg(bad)
                .output()
                .expect("run the bench binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {bad}: {stderr}");
            assert_eq!(stderr, format!("unknown argument {bad:?}\n"), "{name}");
            assert!(
                out.stdout.is_empty(),
                "{name} {bad}: output before the check"
            );
        }
    }
}

#[test]
fn a_valued_flag_without_its_value_exits_2() {
    for (name, exe, flag) in [
        ("table1", env!("CARGO_BIN_EXE_table1"), "--out"),
        ("table3", env!("CARGO_BIN_EXE_table3"), "--coverage-out"),
    ] {
        let out = Command::new(exe).arg(flag).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
        assert_eq!(stderr, format!("{flag} needs a value\n"), "{name}");
        assert!(out.stdout.is_empty(), "{name}");
    }
}
