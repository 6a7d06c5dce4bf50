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

use sc_isa::Program;
use sc_lint::cli::{Format, Tool};
use sc_lint::{lint, LintConfig};
use std::process::ExitCode;

struct Lint {
    deny_warnings: bool,
    config: LintConfig,
}

impl Tool for Lint {
    fn usage(&self) -> &'static str {
        "usage: sc-lint [--json|--sarif] [--deny-warnings] [--max-streams N] [--virtualized] [--no-perf] [--no-leaks] FILE...\n\
         \n\
         exit status:\n\
         \x20 0  clean (no diagnostics at or above the gate severity)\n\
         \x20 1  diagnostics found (errors, or warnings with --deny-warnings)\n\
         \x20 2  usage, IO, or parse error"
    }

    fn flag(&mut self, flag: &str, args: &mut dyn Iterator<Item = String>) -> Result<bool, String> {
        match flag {
            "--deny-warnings" => self.deny_warnings = true,
            "--virtualized" => self.config.virtualization = true,
            "--no-perf" => self.config.perf_lints = false,
            "--no-leaks" => self.config.check_leaks = false,
            "--max-streams" => {
                let n = args.next().ok_or("--max-streams needs a value")?;
                self.config.stream_registers =
                    n.parse().map_err(|_| format!("invalid --max-streams value: {n}"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn file(&self, path: &str, program: &Program, format: Format) -> bool {
        let report = lint(program, &self.config);
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
        errors > 0 || (self.deny_warnings && warnings > 0)
    }
}

fn main() -> ExitCode {
    sc_lint::cli::run(Lint { deny_warnings: false, config: LintConfig::default() })
}
