//! Integration tests for the `sc-lint` binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> String {
    let p: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "fixtures", name].iter().collect();
    p.to_str().expect("utf-8 fixture path").to_string()
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sc-lint")).args(args).output().expect("spawn sc-lint")
}

#[test]
fn clean_file_exits_zero() {
    let out = run(&[&fixture("clean.sasm")]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok"), "stdout: {stdout}");
}

#[test]
fn leaky_file_reports_human_diagnostics_and_exits_one() {
    let out = run(&[&fixture("leaky.sasm")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[SC-E003]"), "stdout: {stdout}");
    assert!(stdout.contains("warning[SC-W201]"), "stdout: {stdout}");
    assert!(stdout.contains("error(s)"), "stdout: {stdout}");
}

#[test]
fn json_output_is_machine_readable() {
    let out = run(&["--json", &fixture("leaky.sasm")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "stdout: {stdout}");
    assert!(stdout.contains("\"code\":\"SC-E003\""), "stdout: {stdout}");
    assert!(stdout.contains("\"name\":\"leak-at-end\""), "stdout: {stdout}");
    assert!(stdout.contains("\"errors\":1"), "stdout: {stdout}");
}

#[test]
fn no_leaks_flag_accepts_fragments_but_deny_warnings_still_gates() {
    // Without the leak check the file has only the dead-stream warning...
    let out = run(&["--no-leaks", &fixture("leaky.sasm")]);
    assert_eq!(out.status.code(), Some(0));
    // ...which --deny-warnings promotes to a failure.
    let out = run(&["--no-leaks", "--deny-warnings", &fixture("leaky.sasm")]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn max_streams_tightens_the_pressure_model() {
    // clean.sasm holds 2 streams live; capacity 1 must flag it.
    let out = run(&["--max-streams", "1", &fixture("clean.sasm")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SC-E005"), "stdout: {stdout}");
    // With --virtualized the same finding is a note, not an error.
    let out = run(&["--max-streams", "1", "--virtualized", &fixture("clean.sasm")]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("note[SC-E005]"), "stdout: {stdout}");
}

#[test]
fn missing_file_and_bad_flags_exit_two() {
    let out = run(&[&fixture("no-such-file.sasm")]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_prints_usage_and_exit_codes_on_stdout_and_exits_zero() {
    // A help request is not a usage error: stdout + exit 0.
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: sc-lint"), "stdout: {stdout}");
    assert!(stdout.contains("exit status"), "help documents the exit codes");
    assert!(stdout.contains("2  usage"), "stdout: {stdout}");
}

/// Every flag set the corpus pin covers; each runs over the whole corpus.
const FLAG_SETS: &[&[&str]] = &[
    &[],
    &["--json"],
    &["--sarif"],
    &["--virtualized", "--max-streams", "8"],
    &["--no-perf", "--no-leaks"],
    &["--deny-warnings"],
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

fn run_at_root(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sc-lint"))
        .current_dir(repo_root())
        .args(args)
        .output()
        .expect("spawn sc-lint")
}

#[test]
fn corpus_output_matches_pin() {
    let files = corpus();
    let mut got = String::new();
    for flags in FLAG_SETS {
        let args: Vec<&str> =
            flags.iter().copied().chain(files.iter().map(String::as_str)).collect();
        let out = run_at_root(&args);
        got.push_str(&format!("$ sc-lint {}\nexit {:?}\n", flags.join(" "), out.status.code()));
        got.push_str(&String::from_utf8_lossy(&out.stdout));
    }
    let want = include_str!("data/cli_pin.txt");
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "line {} of the pinned transcript", n + 1);
    }
    assert_eq!(got.lines().count(), want.lines().count(), "transcript length");
}

#[test]
fn json_and_sarif_together_exit_two() {
    let out = run(&["--json", "--sarif", &fixture("clean.sasm")]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_file_exits_two_and_the_rest_still_print() {
    let out = run(&[&fixture("no-such-file.sasm"), &fixture("clean.sasm")]);
    assert_eq!(out.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("clean.sasm: ok"), "stdout: {stdout}");
}
