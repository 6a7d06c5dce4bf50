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

use sc_probe::args::{self, ensure, Flag};
use sc_verify::{verify_program, Interval, VerifyConfig};
use sparsecore_repro::analyzer::{self, Format};
use std::process::ExitCode;

const USAGE: &str = "usage: sc-verify [--json|--sarif] [--proofs] [--protect LO:HI]... [--out-base ADDR] [--max-streams N] [--virtualized] FILE...\n\
     \n\
     exit status:\n\
     \x20 0  every file VERIFIED (all proof obligations discharged)\n\
     \x20 1  at least one file REJECTED (findings at error severity)\n\
     \x20 2  usage, IO, or parse error";

const FLAGS: &[Flag] = &[
    Flag::switch("--proofs"),
    Flag::repeated("--protect").checked(|v| range(v).map(|_| ())),
    Flag::value("--out-base")
        .checked(|v| ensure(address(v).is_some(), "a hex (0x...) or decimal address")),
    Flag::value("--max-streams").checked(args::count),
    Flag::switch("--virtualized"),
];

/// `0x`-prefixed hex or decimal.
fn address(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// `LO:HI`, two addresses with `LO < HI`.
fn range(v: &str) -> Result<Interval, String> {
    let what = "LO:HI, two hex or decimal addresses with LO < HI";
    let (lo, hi) = v.split_once(':').ok_or(what)?;
    match (address(lo), address(hi)) {
        (Some(lo), Some(hi)) if lo < hi => Ok(Interval::new(lo, hi)),
        _ => Err(what.into()),
    }
}

fn main() -> ExitCode {
    analyzer::run(USAGE, FLAGS, |args| {
        let proofs = args.switch("--proofs");
        let checked = "passed its check";
        let defaults = VerifyConfig::paper();
        let config = VerifyConfig {
            stream_registers: args.parsed("--max-streams").unwrap_or(defaults.stream_registers),
            virtualization: args.switch("--virtualized"),
            out_alloc_base: args
                .value("--out-base")
                .map_or(defaults.out_alloc_base, |v| address(v).expect(checked)),
            protected: args.values("--protect").iter().map(|v| range(v).expect(checked)).collect(),
            ..defaults
        };
        move |path, program, format| {
            let verdict = verify_program(program, &config);
            match format {
                Format::Json => println!("{}", verdict.report.to_json()),
                Format::Sarif => {
                    println!("{}", verdict.report.to_sarif_with_driver(path, "sc-verify"))
                }
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
                    if proofs {
                        for p in &verdict.proofs {
                            let codes: Vec<&str> = p.subsumes.iter().map(|c| c.as_str()).collect();
                            println!("{path}: proven: {} [{}]", p.obligation, codes.join(", "));
                        }
                    }
                }
            }
            !verdict.verified()
        }
    })
}
