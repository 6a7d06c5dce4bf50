//! The `scsim` front end refuses malformed arguments before it builds a
//! dataset or simulates anything: a `--cores` value that is not a
//! positive integer, a flag the subcommand does not take, a flag with no
//! value, and an unknown `--dataflow` exit 2 with a message.

use std::process::{Command, Output};

fn scsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_scsim")).args(args).output().expect("scsim runs")
}

fn mine(cores: &str) -> Output {
    scsim(&["mine", "--pattern", "0-1,1-2,0-2", "--graph", "C", "--cores", cores])
}

#[test]
fn cores_must_be_a_positive_integer() {
    for bad in ["x", "0", "-1"] {
        let out = mine(bad);
        assert_eq!(out.status.code(), Some(2), "--cores {bad}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: --cores expects a positive integer, got '{bad}'")),
            "--cores {bad}: {stderr}"
        );
        assert!(!stderr.contains("graph:"), "--cores {bad} built the graph: {stderr}");
        assert!(out.stdout.is_empty(), "--cores {bad} printed a result");
    }
}

#[test]
fn two_cores_run_and_say_so() {
    let out = mine("2");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("2 core(s)"), "{stdout}");
}

#[test]
fn unknown_dataflow_exits_before_building_the_matrix() {
    let out = scsim(&["spmspm", "--matrix", "C", "--dataflow", "bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown dataflow `bogus`"), "{stderr}");
    assert!(!stderr.contains("matrix:"), "built the matrix first: {stderr}");
}

/// Assert that `args` exit 2 naming `want`, before a graph is built or
/// anything is printed.
fn refused(args: &[&str], want: &str) {
    let out = scsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(want), "{args:?}: {stderr}");
    assert!(!stderr.contains("graph:"), "{args:?} built the graph: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
}

#[test]
fn unknown_and_valueless_flags_are_refused() {
    let mine = ["mine", "--pattern", "0-1,1-2,0-2", "--graph", "C"];
    refused(&[&mine[..], &["--core", "6"]].concat(), "unknown flag '--core'");
    refused(&[&mine[..], &["--cores"]].concat(), "flag '--cores' requires a value");
    refused(&[&mine[..], &["--trace=yes"]].concat(), "--trace takes no value");
    // `--cores` belongs to `mine`, not to `app`.
    refused(&["app", "--app", "T", "--graph", "C", "--cores", "2"], "unknown flag '--cores'");
    refused(&["datasets", "--graph", "C"], "unknown flag '--graph'");
}

#[test]
fn equals_form_selects_the_same_run() {
    let spaced = mine("2");
    let joined = scsim(&["mine", "--pattern=0-1,1-2,0-2", "--graph=C", "--cores=2"]);
    assert_eq!(joined.status.code(), Some(0), "{}", String::from_utf8_lossy(&joined.stderr));
    assert_eq!(joined.stdout, spaced.stdout);
}
