//! `sc-lint` CLI: lint `.sasm` stream-assembly files.
//!
//! ```text
//! sc-lint [OPTIONS] FILE...
//!   --json            machine-readable output (one JSON object per file)
//!   --sarif           SARIF 2.1.0 output (one log per file)
//!   --deny-warnings   exit non-zero on warnings, not just errors
//!   --max-streams N   stream-register capacity (default 16)
//!   --virtualized     model SMT virtualization (pressure becomes a note)
//!   --no-perf         skip the SC-W2xx performance lints
//!   --no-leaks        skip SC-E003 (lint program fragments)
//! ```
//!
//! Exit status: 0 clean, 1 diagnostics at or above the gate severity,
//! 2 usage/IO/parse errors.

use sc_lint::{lint, LintConfig};
use sc_probe::args::{self, Flag};
use sparsecore_repro::analyzer::{self, Format};
use std::process::ExitCode;

const USAGE: &str = "usage: sc-lint [--json|--sarif] [--deny-warnings] [--max-streams N] [--virtualized] [--no-perf] [--no-leaks] FILE...\n\
     \n\
     exit status:\n\
     \x20 0  clean (no diagnostics at or above the gate severity)\n\
     \x20 1  diagnostics found (errors, or warnings with --deny-warnings)\n\
     \x20 2  usage, IO, or parse error";

const FLAGS: &[Flag] = &[
    Flag::switch("--deny-warnings"),
    Flag::value("--max-streams").checked(args::count),
    Flag::switch("--virtualized"),
    Flag::switch("--no-perf"),
    Flag::switch("--no-leaks"),
];

fn main() -> ExitCode {
    analyzer::run(USAGE, FLAGS, |args| {
        let deny_warnings = args.switch("--deny-warnings");
        let defaults = LintConfig::default();
        let config = LintConfig {
            stream_registers: args.parsed("--max-streams").unwrap_or(defaults.stream_registers),
            virtualization: args.switch("--virtualized"),
            perf_lints: !args.switch("--no-perf"),
            check_leaks: !args.switch("--no-leaks"),
            ..defaults
        };
        move |path, program, format| {
            let report = lint(program, &config);
            let (errors, warnings, _) = report.counts();
            match format {
                Format::Json => println!("{}", report.to_json()),
                Format::Sarif => println!("{}", report.to_sarif(path)),
                Format::Text if report.is_empty() => {
                    println!("{path}: ok ({} instructions)", program.len())
                }
                Format::Text => {
                    for d in report.diagnostics() {
                        println!("{path}: {d}");
                    }
                    println!("{path}: {errors} error(s), {warnings} warning(s)");
                }
            }
            errors > 0 || (deny_warnings && warnings > 0)
        }
    })
}
