//! Every bench binary refuses a command line it does not understand
//! before it builds a dataset or prints a table: an unknown flag, a flag
//! the binary would not read, and a `--datasets` or `--matrices` tag
//! that names no Table 4 graph or Table 5 matrix, exit 2 with a message
//! naming the flag. A flag a binary accepts changes what it prints.

use std::process::Command;

const BINS: [(&str, &str); 12] = [
    ("ablations", env!("CARGO_BIN_EXE_ablations")),
    ("datasets_report", env!("CARGO_BIN_EXE_datasets_report")),
    ("fig07_accels", env!("CARGO_BIN_EXE_fig07_accels")),
    ("fig08_cpu_speedup", env!("CARGO_BIN_EXE_fig08_cpu_speedup")),
    ("fig09_10_breakdown", env!("CARGO_BIN_EXE_fig09_10_breakdown")),
    ("fig11_gpu", env!("CARGO_BIN_EXE_fig11_gpu")),
    ("fig12_sus", env!("CARGO_BIN_EXE_fig12_sus")),
    ("fig13_bandwidth", env!("CARGO_BIN_EXE_fig13_bandwidth")),
    ("fig14_lengths", env!("CARGO_BIN_EXE_fig14_lengths")),
    ("fig15_tensor", env!("CARGO_BIN_EXE_fig15_tensor")),
    ("fig16_tensor_accels", env!("CARGO_BIN_EXE_fig16_tensor_accels")),
    ("multicore", env!("CARGO_BIN_EXE_multicore")),
];

/// Run `bin` with `args` and return its stdout, asserting exit 0.
fn stdout(name: &str, bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().unwrap_or_else(|e| panic!("{name}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{name} {args:?}: {stderr}");
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Run `bin` with `args` and assert it exits 2 naming `flag`, with
/// nothing on stdout.
fn refused(name: &str, bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output().unwrap_or_else(|e| panic!("{name}: {e}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(stderr.contains(flag), "{name} {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{name} {args:?} printed:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

fn tensor(name: &str) -> bool {
    matches!(name, "fig15_tensor" | "fig16_tensor_accels")
}

#[test]
fn every_bin_refuses_unknown_flags_and_graph_tags() {
    for (name, bin) in BINS {
        refused(name, bin, &["--no-such-flag"], "unknown flag '--no-such-flag'");
        if tensor(name) {
            // The tensor bins sweep no graph.
            refused(name, bin, &["--datasets", "C"], "unknown flag '--datasets'");
        } else {
            refused(name, bin, &["--datasets", "Q"], "--datasets expects");
            refused(name, bin, &["--datasets=C,Q"], "--datasets expects");
        }
    }
}

#[test]
fn tensor_bins_refuse_unknown_matrix_tags() {
    for (name, bin) in BINS {
        if tensor(name) {
            refused(name, bin, &["--matrices", "Z"], "--matrices expects");
        } else {
            // Only the tensor bins take --matrices.
            refused(name, bin, &["--matrices", "C"], "unknown flag '--matrices'");
        }
    }
}

#[test]
fn fig09_10_refuses_a_scheduler_it_would_not_run() {
    let (name, bin) = BINS[4];
    assert_eq!(name, "fig09_10_breakdown");
    // Only the dynamic leg exists, and only it runs on several cores.
    refused(name, bin, &["--sched", "both"], "--sched expects dynamic, got 'both'");
    refused(name, bin, &["--sched=static"], "--sched expects dynamic, got 'static'");
    refused(name, bin, &["--cores", "4"], "--cores requires --sched");
    refused(name, bin, &["--datasets", "C", "--cores=4"], "--cores requires --sched");
}

#[test]
fn fig09_10_runs_the_dynamic_leg_on_the_cores_asked_for() {
    let (name, bin) = BINS[4];
    let out = stdout(name, bin, &["--datasets", "C", "--sched", "dynamic", "--cores", "2"]);
    assert!(out.contains("# Multicore (dynamic)"), "{out}");
    let rows = out.lines().filter_map(|l| l.split_whitespace().next());
    let cores: Vec<&str> = rows.filter(|row| row.starts_with("C/core")).collect();
    assert_eq!(cores, ["C/core0", "C/core1"]);
}

#[test]
fn datasets_report_lists_only_the_named_graphs_in_table_4() {
    let (name, bin) = BINS[1];
    assert_eq!(name, "datasets_report");
    let out = stdout(name, bin, &["--datasets", "E,C"]);
    let table4 = out.split("# Table 4").nth(1).and_then(|t| t.split("# Table 5").next());
    let rows: Vec<&str> = table4
        .expect("a Table 4 section")
        .lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(rows, ["C", "E"], "Table 4 order:\n{out}");
}
