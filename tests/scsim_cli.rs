//! The `scsim` front end refuses malformed arguments before it builds a
//! dataset or simulates anything: a `--cores` value that is not a
//! positive integer, and an unknown `--dataflow`, exit 2 with a message.

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
