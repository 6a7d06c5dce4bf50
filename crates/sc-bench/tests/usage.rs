//! Every bench binary refuses a command line it does not understand
//! before it builds a dataset or prints a table: an unknown flag, and a
//! `--datasets` or `--matrices` tag that names no Table 4 graph or
//! Table 5 matrix, exit 2 with a message naming the flag.

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

#[test]
fn every_bin_refuses_unknown_flags_and_graph_tags() {
    for (name, bin) in BINS {
        refused(name, bin, &["--no-such-flag"], "unknown flag '--no-such-flag'");
        refused(name, bin, &["--datasets", "Q"], "--datasets expects");
        refused(name, bin, &["--datasets=C,Q"], "--datasets expects");
    }
}

#[test]
fn tensor_bins_refuse_unknown_matrix_tags() {
    let tensor = |name: &str| matches!(name, "fig15_tensor" | "fig16_tensor_accels");
    for (name, bin) in BINS {
        if tensor(name) {
            refused(name, bin, &["--matrices", "Z"], "--matrices expects");
        } else {
            // Only the tensor bins take --matrices.
            refused(name, bin, &["--matrices", "C"], "unknown flag '--matrices'");
        }
    }
}
