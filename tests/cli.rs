//! The `yashme` binary's stderr: one message for an output path it cannot
//! write, an argument it does not know or a flag value that is missing or
//! malformed, and nothing at all on a normal run.

use std::process::Command;

#[test]
fn unwritable_output_paths_exit_2_with_one_message() {
    let missing_dir = std::env::temp_dir().join(format!("yashme-missing-{}", std::process::id()));
    let path = missing_dir.join("out");
    // A writable companion output alongside: the Prometheus and coverage
    // files are written only once the runs end, so it stays empty only if
    // no run started before the unwritable path was rejected.
    let written = std::env::temp_dir().join(format!("yashme-cli-{}.out", std::process::id()));
    let (suite, one) = (&["--all", "--json"][..], &["-b", "CCEH"][..]);
    for (scope, flag, what) in [
        (suite, "--prom-out", "prometheus metrics"),
        (suite, "--coverage-out", "coverage"),
        (one, "--trace-out", "chrome trace"),
    ] {
        let companion = match flag {
            "--prom-out" => "--coverage-out",
            _ => "--prom-out",
        };
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_yashme"));
        cmd.args(scope).arg(flag).arg(&path);
        cmd.arg(companion).arg(&written);
        let out = cmd.output().expect("run yashme");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag}: {stderr}");
        assert!(
            stderr.starts_with(&format!("writing {what} to {}: ", path.display())),
            "{flag}: {stderr}"
        );
        assert_eq!(stderr.lines().count(), 1, "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: printed a report");
        let text = std::fs::read_to_string(&written).unwrap_or_default();
        assert!(text.is_empty(), "{flag}: a run started: {text:?}");
        let _ = std::fs::remove_file(&written);
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
    for flag in [
        "--prune-paranoid",
        "--gc-paranoid",
        "--metrics-out",
        "--telemetry-out",
        "--gc-every",
        "--no-frok",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_yashme"))
            .args(["--all", flag])
            .output()
            .expect("run yashme");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert_eq!(stderr, format!("unknown argument {flag:?}\n"), "{flag}");
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
        "--coverage-out",
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
