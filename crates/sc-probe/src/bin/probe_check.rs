//! `probe-check` — validate probe output files from the command line.
//!
//! ```text
//! probe-check --trace out.trace.json --metrics out.metrics.json
//! probe-check --metrics out.metrics.json --expect engine.reads
//! probe-check --metrics out.metrics.json --expect gpm.chunks=12
//! ```
//!
//! `--expect PATH` requires the dotted path to resolve to a numeric
//! leaf; `--expect PATH=VALUE` additionally requires it to equal VALUE.
//! Unsatisfied expectations are reported in one line naming every
//! missing/mismatched metric.
//!
//! Exits 1 (printing the first violation) if any file fails its
//! structural validator; CI's probe-smoke job gates on this. A metrics
//! snapshot with zero leaf metrics is a failure: a probe that recorded
//! nothing means the run was not observed at all. A usage error (an
//! unknown flag, a missing value, nothing to check) exits 2.

use std::process::ExitCode;

use sc_probe::args::{self, Flag};

fn main() -> ExitCode {
    let flags = [
        Flag::repeated("--trace"),
        Flag::repeated("--metrics"),
        Flag::repeated("--expect"),
        Flag::switch("--help"),
        Flag::switch("-h"),
    ];
    let a = match args::parse(std::env::args().skip(1), &flags) {
        Ok(a) => a,
        Err(e) => return usage(&e),
    };
    if a.switch("--help") || a.switch("-h") {
        return usage("");
    }
    let (traces, metrics, expects) =
        (a.values("--trace"), a.values("--metrics"), a.values("--expect"));
    if traces.is_empty() && metrics.is_empty() {
        return usage("nothing to check");
    }
    if metrics.is_empty() && !expects.is_empty() {
        return usage("--expect needs at least one --metrics file to check against");
    }

    let report = sc_probe::check::check_probe_files(&traces, &metrics, &expects);
    for line in &report.passed {
        println!("{line}");
    }
    for line in &report.failures {
        eprintln!("{line}");
    }
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Print `err` (none for `--help`) and the usage line; a usage error
/// exits 2.
fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: probe-check [--trace FILE]... [--metrics FILE]... [--expect DOTTED.PATH[=VALUE]]..."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
