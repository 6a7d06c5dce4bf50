//! End-to-end exit-code tests for the `probe-check` binary. The unit
//! tests in `check.rs` cover the validation logic; these pin the CLI
//! contract CI depends on — in particular that an *empty* metrics
//! snapshot (`{}`) exits non-zero instead of silently passing.

use std::path::PathBuf;
use std::process::{Command, Output};

fn probe_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_probe-check")).args(args).output().expect("spawn probe-check")
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = std::env::temp_dir().join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn empty_metrics_file_fails() {
    let path = write_temp("probe_check_cli_empty.json", "{}");
    let out = probe_check(&["--metrics", path.to_str().unwrap()]);
    assert!(!out.status.success(), "probe-check must fail on a 0-metric snapshot");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("empty metrics snapshot"), "stderr: {err}");
}

#[test]
fn populated_metrics_pass_and_missing_expect_fails() {
    let path = write_temp("probe_check_cli_live.json", r#"{"engine":{"reads":3}}"#);
    let path = path.to_str().unwrap().to_owned();

    let out = probe_check(&["--metrics", &path, "--expect", "engine.reads"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("engine.reads = 3"));

    let out = probe_check(&["--metrics", &path, "--expect", "engine.absent"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("engine.absent"));
}

#[test]
fn expect_without_metrics_is_a_usage_error() {
    let out = probe_check(&["--expect", "engine.reads"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--expect"), "stderr: {err}");
}

#[test]
fn usage_errors_exit_2_and_name_the_flag() {
    for (args, want) in [
        (&["--bogus"][..], "unknown flag '--bogus'"),
        (&["--metrics"], "flag '--metrics' requires a value"),
        (&["stray.json"], "unexpected argument 'stray.json'"),
        (&[], "nothing to check"),
    ] {
        let out = probe_check(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(want), "{args:?}: {err}");
    }
    for help in ["--help", "-h"] {
        assert_eq!(probe_check(&[help]).status.code(), Some(0), "{help} is not an error");
    }
}

#[test]
fn equals_form_reads_like_the_spaced_form() {
    let path = write_temp("probe_check_cli_equals.json", r#"{"engine":{"reads":3}}"#);
    let metrics = format!("--metrics={}", path.display());
    let out = probe_check(&[&metrics, "--expect=engine.reads"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("engine.reads = 3"));
}
