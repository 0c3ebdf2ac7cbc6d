//! The `yashme` binary's handling of output paths it cannot write.

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
