//! `sc-verify` CLI: prove sanitizer invariants of `.sasm` stream
//! programs ahead of execution.
//!
//! ```text
//! sc-verify [OPTIONS] FILE...
//!   --json            machine-readable output (one JSON object per file)
//!   --sarif           SARIF 2.1.0 output (one log per file)
//!   --proofs          list the discharged proof obligations per file
//!   --protect LO:HI   declare [LO, HI) read-only (repeatable; hex or dec)
//!   --out-base ADDR   output-allocator base (default 0xC0000000)
//!   --max-streams N   stream-register capacity (default 16)
//!   --virtualized     model SMT virtualization (pressure becomes a note)
//! ```
//!
//! Exit status: 0 every file VERIFIED, 1 at least one file REJECTED,
//! 2 usage/IO/parse errors (BenchCli's exit-2 convention).

use sc_isa::Program;
use sc_lint::cli::{Format, Tool};
use sc_verify::{verify_program, Interval, VerifyConfig};
use std::process::ExitCode;

struct Verify {
    proofs: bool,
    config: VerifyConfig,
}

/// Parse `0x`-prefixed hex or decimal.
fn parse_addr(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("invalid address: {s}"))
}

impl Tool for Verify {
    fn usage(&self) -> &'static str {
        "usage: sc-verify [--json|--sarif] [--proofs] [--protect LO:HI]... [--out-base ADDR] [--max-streams N] [--virtualized] FILE...\n\
         \n\
         exit status:\n\
         \x20 0  every file VERIFIED (all proof obligations discharged)\n\
         \x20 1  at least one file REJECTED (findings at error severity)\n\
         \x20 2  usage, IO, or parse error"
    }

    fn flag(&mut self, flag: &str, args: &mut dyn Iterator<Item = String>) -> Result<bool, String> {
        match flag {
            "--proofs" => self.proofs = true,
            "--virtualized" => self.config.virtualization = true,
            "--protect" => {
                let v = args.next().ok_or("--protect needs LO:HI")?;
                let (lo, hi) = v
                    .split_once(':')
                    .ok_or_else(|| format!("--protect expects LO:HI, got: {v}"))?;
                let (lo, hi) = (parse_addr(lo)?, parse_addr(hi)?);
                if lo >= hi {
                    return Err(format!("--protect range is empty: {v}"));
                }
                self.config.protected.push(Interval::new(lo, hi));
            }
            "--out-base" => {
                let v = args.next().ok_or("--out-base needs a value")?;
                self.config.out_alloc_base = parse_addr(&v)?;
            }
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
        let verdict = verify_program(program, &self.config);
        match format {
            Format::Json => println!("{}", verdict.report.to_json()),
            Format::Sarif => println!("{}", verdict.report.to_sarif_with_driver(path, "sc-verify")),
            Format::Text => {
                println!(
                    "{path}: {} ({} instructions, peak pressure {}, scratchpad <= {} B)",
                    verdict.status(),
                    program.len(),
                    verdict.max_pressure,
                    verdict.scratch_peak,
                );
                for d in verdict.report.diagnostics() {
                    println!("{path}: {d}");
                }
                if self.proofs {
                    for p in &verdict.proofs {
                        let codes: Vec<&str> = p.subsumes.iter().map(|c| c.as_str()).collect();
                        println!("{path}: proven: {} [{}]", p.obligation, codes.join(", "));
                    }
                }
            }
        }
        !verdict.verified()
    }
}

fn main() -> ExitCode {
    sc_lint::cli::run(Verify { proofs: false, config: VerifyConfig::paper() })
}
