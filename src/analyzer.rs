//! The command-line front end the `sc-lint`, `sc-verify` and `sc-cost`
//! binaries share.
//!
//! Each analyzer declares its own flags as [`Flag`]s; [`run`] parses
//! them with `sc_probe::args` beside `--json`, `--sarif` and `--help`,
//! reads and assembles each file operand (`-` included), and turns the
//! outcome into the shared exit status: 0 when every file passes, 1 when
//! some file fails the analyzer's gate, 2 on a usage, IO or parse error.
//! A file that cannot be read or parsed does not stop the others.

use sc_isa::Program;
use sc_probe::args::{self, Args, Flag};
use std::process::ExitCode;

/// Output format, chosen by `--json` or `--sarif`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable lines.
    Text,
    /// One JSON object per file.
    Json,
    /// One SARIF 2.1.0 log per file.
    Sarif,
}

/// The flags every analyzer takes besides its own.
const COMMON: [Flag; 4] = [
    Flag::switch("--json").excluding("--sarif"),
    Flag::switch("--sarif"),
    Flag::switch("--help"),
    Flag::switch("-h"),
];

/// Run one analyzer over the process arguments and return the exit
/// status. `usage` is printed for `--help` (on stdout) and after a usage
/// error (on stderr). `analyzer` builds the per-file check from the
/// parsed flags; the check prints one file's report in the chosen format
/// and returns `true` when the file fails the analyzer's gate.
pub fn run<F>(usage: &str, own: &[Flag], analyzer: impl FnOnce(&Args) -> F) -> ExitCode
where
    F: Fn(&str, &Program, Format) -> bool,
{
    let flags: Vec<Flag> = COMMON.iter().chain(own).copied().collect();
    let args = match args::parse_with_operands(std::env::args().skip(1), &flags) {
        Ok(args) if args.switch("--help") || args.switch("-h") => {
            println!("{usage}");
            return ExitCode::SUCCESS;
        }
        Ok(args) if args.operands().is_empty() => return usage_error("no input files", usage),
        Ok(args) => args,
        Err(e) => return usage_error(&e, usage),
    };
    let format = if args.switch("--json") {
        Format::Json
    } else if args.switch("--sarif") {
        Format::Sarif
    } else {
        Format::Text
    };
    let check = analyzer(&args);

    let mut gate_hit = false;
    let mut io_failed = false;
    for path in args.operands() {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                io_failed = true;
                continue;
            }
        };
        match sc_isa::parse_program(&text) {
            Ok(program) => gate_hit |= check(path, &program, format),
            Err(e) => {
                eprintln!("{path}: parse error: {e}");
                io_failed = true;
            }
        }
    }

    if io_failed {
        ExitCode::from(2)
    } else if gate_hit {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn usage_error(msg: &str, usage: &str) -> ExitCode {
    eprintln!("error: {msg}\n{usage}");
    ExitCode::from(2)
}
