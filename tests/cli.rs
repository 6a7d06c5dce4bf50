//! Integration tests for the `sc-lint`, `sc-verify` and `sc-cost`
//! binaries: their output over the shipped corpus, pinned byte for byte
//! in `tests/data/cli_pin/`, and their exit codes. Every command runs
//! from the repository root, so the printed paths do not depend on the
//! checkout.

use std::path::Path;
use std::process::{Command, Output};

/// Each analyzer, the flag sets its pinned transcript covers (each runs
/// over the whole corpus), and the transcript.
const TOOLS: [(&str, &[&[&str]], &str); 3] = [
    (
        "sc-lint",
        &[
            &[],
            &["--json"],
            &["--sarif"],
            &["--virtualized", "--max-streams", "8"],
            &["--no-perf", "--no-leaks"],
            &["--deny-warnings"],
        ],
        include_str!("data/cli_pin/sc-lint.txt"),
    ),
    (
        "sc-verify",
        &[
            &[],
            &["--json"],
            &["--sarif"],
            &["--proofs"],
            &["--protect", "0xC0000000:0xC0001000"],
            &["--out-base", "0x1000"],
        ],
        include_str!("data/cli_pin/sc-verify.txt"),
    ),
    (
        "sc-cost",
        &[
            &[],
            &["--json"],
            &["--sarif"],
            &["--proofs", "--regions"],
            &["--tiny"],
            &["--sus", "1"],
            &["--require-bounded"],
        ],
        include_str!("data/cli_pin/sc-cost.txt"),
    ),
];

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn fixture(name: &str) -> String {
    format!("crates/sc-lint/tests/fixtures/{name}")
}

/// Run `tool` with `args` from the repository root.
fn run(tool: &str, args: &[&str]) -> Output {
    let bin = match tool {
        "sc-lint" => env!("CARGO_BIN_EXE_sc-lint"),
        "sc-verify" => env!("CARGO_BIN_EXE_sc-verify"),
        "sc-cost" => env!("CARGO_BIN_EXE_sc-cost"),
        _ => unreachable!("not an analyzer: {tool}"),
    };
    let out = Command::new(bin).current_dir(repo_root()).args(args).output();
    out.unwrap_or_else(|e| panic!("spawn {tool}: {e}"))
}

/// `programs/*.sasm` and the lint fixtures, relative to the repository
/// root.
fn corpus() -> Vec<String> {
    let mut files: Vec<String> = std::fs::read_dir(repo_root().join("programs"))
        .expect("programs/ exists")
        .map(|e| format!("programs/{}", e.expect("read programs/").file_name().to_string_lossy()))
        .collect();
    files.sort();
    files.push(fixture("clean.sasm"));
    files.push(fixture("leaky.sasm"));
    files
}

/// One transcript section: the command line `tool shown`, then the exit
/// status and stdout of running `tool args` over the corpus.
fn section(tool: &str, shown: &[&str], args: &[&str]) -> String {
    let files = corpus();
    let argv: Vec<&str> = args.iter().copied().chain(files.iter().map(String::as_str)).collect();
    let out = run(tool, &argv);
    let stdout = String::from_utf8_lossy(&out.stdout);
    format!("$ {tool} {}\nexit {:?}\n{stdout}", shown.join(" "), out.status.code())
}

/// The section of `tool`'s pinned transcript for `flags`.
fn pinned_section(tool: &str, flags: &[&str]) -> &'static str {
    let (_, _, pin) = TOOLS.into_iter().find(|(t, ..)| *t == tool).expect("an analyzer");
    let header = format!("$ {tool} {}\n", flags.join(" "));
    let start = pin.find(&header).unwrap_or_else(|| panic!("no pinned section {header}"));
    let end = pin[start + 1..].find("\n$ ").map_or(pin.len(), |at| start + at + 2);
    &pin[start..end]
}

#[test]
fn corpus_output_matches_pin() {
    for (tool, flag_sets, want) in TOOLS {
        let got: String = flag_sets.iter().map(|flags| section(tool, flags, flags)).collect();
        for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            assert_eq!(g, w, "line {} of {tool}'s pinned transcript", n + 1);
        }
        assert_eq!(got.lines().count(), want.lines().count(), "{tool} transcript length");
    }
}

#[test]
fn equals_form_prints_the_pinned_output() {
    for (tool, spaced, equals) in [
        (
            "sc-lint",
            &["--virtualized", "--max-streams", "8"][..],
            &["--virtualized", "--max-streams=8"][..],
        ),
        (
            "sc-verify",
            &["--protect", "0xC0000000:0xC0001000"],
            &["--protect=0xC0000000:0xC0001000"],
        ),
        ("sc-verify", &["--out-base", "0x1000"], &["--out-base=0x1000"]),
        ("sc-cost", &["--sus", "1"], &["--sus=1"]),
    ] {
        assert_eq!(section(tool, spaced, equals), pinned_section(tool, spaced), "{equals:?}");
    }
}

#[test]
fn clean_file_exits_zero() {
    let out = run("sc-lint", &[&fixture("clean.sasm")]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok"), "stdout: {stdout}");
}

#[test]
fn leaky_file_reports_human_diagnostics_and_exits_one() {
    let out = run("sc-lint", &[&fixture("leaky.sasm")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("error[SC-E003]"), "stdout: {stdout}");
    assert!(stdout.contains("warning[SC-W201]"), "stdout: {stdout}");
    assert!(stdout.contains("error(s)"), "stdout: {stdout}");
}

#[test]
fn json_output_is_machine_readable() {
    let out = run("sc-lint", &["--json", &fixture("leaky.sasm")]);
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
    let out = run("sc-lint", &["--no-leaks", &fixture("leaky.sasm")]);
    assert_eq!(out.status.code(), Some(0));
    // ...which --deny-warnings promotes to a failure.
    let out = run("sc-lint", &["--no-leaks", "--deny-warnings", &fixture("leaky.sasm")]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn max_streams_tightens_the_pressure_model() {
    // clean.sasm holds 2 streams live; capacity 1 must flag it.
    let out = run("sc-lint", &["--max-streams", "1", &fixture("clean.sasm")]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("SC-E005"), "stdout: {stdout}");
    // With --virtualized the same finding is a note, not an error.
    let out = run("sc-lint", &["--max-streams", "1", "--virtualized", &fixture("clean.sasm")]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("note[SC-E005]"), "stdout: {stdout}");
    // A capacity of 0 is a count like any other.
    let out = run("sc-lint", &["--max-streams=0", &fixture("clean.sasm")]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("SC-E005"));
}

#[test]
fn missing_file_and_bad_flags_exit_two() {
    let out = run("sc-lint", &[&fixture("no-such-file.sasm")]);
    assert_eq!(out.status.code(), Some(2));
    let out = run("sc-lint", &["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run("sc-lint", &[]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_prints_usage_and_exit_codes_on_stdout_and_exits_zero() {
    // A help request is not a usage error: stdout + exit 0.
    let out = run("sc-lint", &["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("usage: sc-lint"), "stdout: {stdout}");
    assert!(stdout.contains("exit status"), "help documents the exit codes");
    assert!(stdout.contains("2  usage"), "stdout: {stdout}");
}

#[test]
fn help_exits_zero() {
    for (tool, ..) in TOOLS {
        let out = run(tool, &["--help"]);
        assert_eq!(out.status.code(), Some(0));
        assert!(String::from_utf8_lossy(&out.stdout).contains(&format!("usage: {tool}")));
        let short = run(tool, &["-h"]);
        assert_eq!((short.status.code(), short.stdout), (Some(0), out.stdout), "{tool} -h");
    }
}

#[test]
fn json_and_sarif_together_exit_two() {
    let out = run("sc-lint", &["--json", "--sarif", &fixture("clean.sasm")]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn usage_errors_exit_two() {
    for (tool, ..) in TOOLS {
        for args in [
            &["--bogus", "programs/tc_plan0.sasm"][..],
            &["--json", "--sarif", "programs/tc_plan0.sasm"],
            &[],
        ] {
            assert_eq!(run(tool, args).status.code(), Some(2), "{tool} {args:?}");
        }
    }
}

#[test]
fn bad_flags_exit_two_naming_the_flag() {
    let file = "programs/tc_plan0.sasm";
    for (tool, args, named) in [
        ("sc-lint", &["--max-streams", "8", "--max-streams", "1", file][..], "--max-streams given"),
        ("sc-lint", &["--max-streams", "-1", file], "--max-streams expects"),
        ("sc-lint", &["--sarif", "--json", file], "--json and --sarif are mutually exclusive"),
        ("sc-verify", &["--protect", "0x2000:0x1000", file], "--protect expects"),
        ("sc-verify", &["--protect=0x1000", file], "--protect expects"),
        ("sc-verify", &["--out-base", "0xzz", file], "--out-base expects"),
        ("sc-cost", &["--tiny", "--sus", "4", file], "--tiny and --sus are mutually exclusive"),
        ("sc-cost", &["--sus", "4", "--tiny", file], "--tiny and --sus are mutually exclusive"),
        ("sc-cost", &["--sus", "0", file], "--sus expects a positive integer"),
        ("sc-cost", &["--sus", "2", "--sus", "4", file], "--sus given more than once"),
    ] {
        let out = run(tool, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{tool} {args:?}: {stderr}");
        assert!(stderr.contains(named), "{tool} {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{tool} {args:?}");
    }
}

#[test]
fn missing_file_exits_two_and_the_rest_still_print() {
    let (clean, tc) = (fixture("clean.sasm"), "programs/tc_plan0.sasm");
    for (tool, missing, present, printed) in [
        ("sc-lint", fixture("no-such-file.sasm"), clean.as_str(), "clean.sasm: ok"),
        ("sc-verify", "programs/no-such-file.sasm".into(), tc, "programs/tc_plan0.sasm: VERIFIED"),
        ("sc-cost", "programs/no-such-file.sasm".into(), tc, "programs/tc_plan0.sasm: BOUNDED"),
    ] {
        // `-` is a file operand like any other, not an unknown flag.
        for missing in [missing.as_str(), "-"] {
            let out = run(tool, &[missing, present]);
            assert_eq!(out.status.code(), Some(2));
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(stdout.contains(printed), "{tool} stdout: {stdout}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.starts_with(&format!("{missing}: ")), "{tool} stderr: {stderr}");
            assert!(!stderr.contains("unknown"), "{tool} stderr: {stderr}");
        }
    }
}

#[test]
fn writeback_that_wraps_the_address_space_is_rejected() {
    let out = run("sc-verify", &["--out-base", "0xffffffffffffff00", "programs/tc_plan0.sasm"]);
    assert_eq!(out.status.code(), Some(0));
    let out = run(
        "sc-verify",
        &["--out-base", "0xffffffffffffff00", "--protect", "0x0:0x1000", "programs/tc_plan0.sasm"],
    );
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REJECTED") && stdout.contains("SC-S310"), "stdout: {stdout}");
}

#[test]
fn json_escapes_the_file_path() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sc-cost-json-path");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let file = dir.join("we\"ird\\name.sasm");
    std::fs::copy(repo_root().join("programs/tc_plan0.sasm"), &file).expect("copy program");
    let path = file.to_str().expect("utf-8 path");
    let out = run("sc-cost", &["--json", path]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let doc = sc_probe::json::parse(stdout.trim()).expect("one JSON object per file");
    assert_eq!(doc.get("file").and_then(|v| v.as_str()), Some(path));
}
