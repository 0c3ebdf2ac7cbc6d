//! The `yashme` binary's stderr: one message for an output path it cannot
//! write, an argument it does not know or a flag value that is missing or
//! malformed, and nothing at all on a normal run.

use std::process::Command;

#[test]
fn unwritable_output_paths_exit_2_with_one_message() {
    let missing_dir = std::env::temp_dir().join(format!("yashme-missing-{}", std::process::id()));
    let path = missing_dir.join("out");
    for (flag, what) in [
        ("--telemetry-out", "telemetry"),
        ("--prom-out", "prometheus metrics"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_yashme"))
            .args(["-b", "CCEH", flag])
            .arg(&path)
            .output()
            .expect("run yashme");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("writing {what} to {}: ", path.display())),
            "{flag}: {stderr}"
        );
    }
    assert!(!missing_dir.exists());
}

#[test]
fn injected_crashes_leave_stderr_empty() {
    // Every injected crash unwinds a simulated task; the engine's quiet
    // panic hook must keep those unwinds off stderr.
    for args in [&["-b", "CCEH"][..], &["--all"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_yashme"))
            .args(args)
            .output()
            .expect("run yashme");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: races are found");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[test]
fn retired_and_misspelled_flags_exit_2() {
    for flag in ["--prune-paranoid", "--gc-paranoid", "--no-frok"] {
        let out = Command::new(env!("CARGO_BIN_EXE_yashme"))
            .args(["--all", flag])
            .output()
            .expect("run yashme");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.starts_with(&format!("unknown argument {flag:?}\n")),
            "{flag}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{flag}: ran before rejecting");
    }
}

#[test]
fn valued_flags_given_last_exit_2_with_one_line() {
    for flag in [
        "--benchmark",
        "--mode",
        "--executions",
        "--seed",
        "--trace-out",
        "--metrics-out",
        "--coverage-out",
        "--telemetry-out",
        "--prom-out",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_yashme"))
            .args(["--all", flag])
            .output()
            .expect("run yashme");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert_eq!(stderr, format!("{flag} needs a value\n"), "{flag}");
        assert!(out.stdout.is_empty(), "{flag}: ran before rejecting");
    }
    for flag in ["--executions", "--seed"] {
        let out = Command::new(env!("CARGO_BIN_EXE_yashme"))
            .args(["--all", flag, "many"])
            .output()
            .expect("run yashme");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(stderr.starts_with(&format!("bad {flag}: ")), "{stderr}");
        assert_eq!(stderr.lines().count(), 1, "{stderr}");
    }
}
