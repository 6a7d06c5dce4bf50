//! Integration tests for the `sc-verify` binary: its output over the
//! shipped corpus, pinned byte for byte, and its exit codes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Every flag set the pin covers; each runs over the whole corpus.
const FLAG_SETS: &[&[&str]] = &[
    &[],
    &["--json"],
    &["--sarif"],
    &["--proofs"],
    &["--protect", "0xC0000000:0xC0001000"],
    &["--out-base", "0x1000"],
];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `programs/*.sasm` and the lint fixtures, relative to the repository
/// root so the printed paths do not depend on the checkout.
fn corpus() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(repo_root().join("programs"))
        .expect("programs/ exists")
        .map(|e| format!("programs/{}", e.expect("read programs/").file_name().to_string_lossy()))
        .collect();
    files.sort();
    files.push("crates/sc-lint/tests/fixtures/clean.sasm".into());
    files.push("crates/sc-lint/tests/fixtures/leaky.sasm".into());
    files
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sc-verify"))
        .current_dir(repo_root())
        .args(args)
        .output()
        .expect("spawn sc-verify")
}

#[test]
fn corpus_output_matches_pin() {
    let files = corpus();
    let mut got = String::new();
    for flags in FLAG_SETS {
        let args: Vec<&str> =
            flags.iter().copied().chain(files.iter().map(String::as_str)).collect();
        let out = run(&args);
        got.push_str(&format!("$ sc-verify {}\nexit {:?}\n", flags.join(" "), out.status.code()));
        got.push_str(&String::from_utf8_lossy(&out.stdout));
    }
    let want = include_str!("data/cli_pin.txt");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of the pinned transcript", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "transcript length");
}

#[test]
fn help_exits_zero() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: sc-verify"));
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["--bogus", "programs/tc_plan0.sasm"][..],
        &["--json", "--sarif", "programs/tc_plan0.sasm"],
        &[],
    ] {
        assert_eq!(run(args).status.code(), Some(2), "args {args:?}");
    }
}

#[test]
fn missing_file_exits_two_and_the_rest_still_print() {
    let out = run(&["programs/no-such-file.sasm", "programs/tc_plan0.sasm"]);
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("programs/tc_plan0.sasm: VERIFIED"), "stdout: {stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("no-such-file.sasm"));
}

#[test]
fn writeback_that_wraps_the_address_space_is_rejected() {
    let out = run(&["--out-base", "0xffffffffffffff00", "programs/tc_plan0.sasm"]);
    assert_eq!(out.status.code(), Some(0));
    let out = run(&[
        "--out-base",
        "0xffffffffffffff00",
        "--protect",
        "0x0:0x1000",
        "programs/tc_plan0.sasm",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REJECTED") && stdout.contains("SC-S310"), "stdout: {stdout}");
}
