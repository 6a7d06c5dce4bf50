//! The command-line front-end the `sc-lint`, `sc-verify` and `sc-cost`
//! binaries share.
//!
//! The front-end parses `--json`, `--sarif`, `--help` and the file
//! list, hands every other flag to the [`Tool`], reads and assembles
//! each file, and turns the outcome into the shared exit status: 0 when
//! every file passes, 1 when some file fails the tool's gate, 2 on a
//! usage, IO or parse error. A file that cannot be read or parsed does
//! not stop the others.

use crate::report::push_json_string;
use sc_isa::Program;
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

/// What one analyzer binary adds to the front-end: its own flags, and
/// how it analyzes and prints one file.
pub trait Tool {
    /// Usage text, printed for `--help` and after usage errors.
    fn usage(&self) -> &'static str;

    /// Take one of the tool's own flags, reading its value from `args`
    /// if it has one. `Ok(false)` when `flag` is not the tool's.
    ///
    /// # Errors
    ///
    /// A message for a missing or malformed value.
    fn flag(&mut self, flag: &str, args: &mut dyn Iterator<Item = String>) -> Result<bool, String>;

    /// Analyze one assembled file and print its report in `format`.
    /// Returns `true` when the file fails the tool's gate.
    fn file(&self, path: &str, program: &Program, format: Format) -> bool;
}

/// `s` as a JSON string literal, quotes included.
pub fn json_string(s: &str) -> String {
    let mut out = String::new();
    push_json_string(&mut out, s);
    out
}

/// Run `tool` over the process arguments and return the exit status.
pub fn run(mut tool: impl Tool) -> ExitCode {
    let (format, files) = match parse_args(&mut tool, std::env::args().skip(1)) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{}", tool.usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };

    let mut gate_hit = false;
    let mut io_failed = false;
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{path}: {e}");
                io_failed = true;
                continue;
            }
        };
        match sc_isa::parse_program(&text) {
            Ok(program) => gate_hit |= tool.file(path, &program, format),
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

/// The output format and the files, or `None` when `--help` was asked
/// for (a help request is not a usage error).
fn parse_args(
    tool: &mut impl Tool,
    mut args: impl Iterator<Item = String>,
) -> Result<Option<(Format, Vec<String>)>, String> {
    let (mut json, mut sarif) = (false, false);
    let mut files = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--sarif" => sarif = true,
            "--help" | "-h" => return Ok(None),
            f if !f.starts_with('-') => files.push(f.to_string()),
            flag => {
                if !tool.flag(flag, &mut args)? {
                    return Err(format!("unknown option: {flag}\n{}", tool.usage()));
                }
            }
        }
    }
    if files.is_empty() {
        return Err(tool.usage().to_string());
    }
    let format = match (json, sarif) {
        (true, true) => {
            return Err(format!("--json and --sarif are mutually exclusive\n{}", tool.usage()))
        }
        (true, false) => Format::Json,
        (false, true) => Format::Sarif,
        (false, false) => Format::Text,
    };
    Ok(Some((format, files)))
}
