//! `sc-cost` CLI: derive sound cycle/footprint/traffic bounds for
//! `.sasm` stream programs ahead of execution.
//!
//! ```text
//! sc-cost [OPTIONS] FILE...
//!   --json             machine-readable output (one JSON object per file)
//!   --sarif            SARIF 2.1.0 output (one log per file)
//!   --proofs           list the discharged cost obligations per file
//!   --regions          print per-region bounds
//!   --sus N            analyze for an N-SU config (default: paper, 4)
//!   --tiny             analyze for the tiny test config (not with --sus)
//!   --require-bounded  treat a missing finite upper bound as a failure
//! ```
//!
//! Exit status: 0 every file analyzed (and BOUNDED if required), 1 at
//! least one file failed the bound requirement, 2 usage/IO/parse errors
//! (BenchCli's exit-2 convention).

use sc_cost::cost_program;
use sc_probe::args::{self, Flag};
use sparsecore::SparseCoreConfig;
use sparsecore_repro::analyzer::{self, Format};
use std::process::ExitCode;

const USAGE: &str = "usage: sc-cost [--json|--sarif] [--proofs] [--regions] [--sus N] [--tiny] [--require-bounded] FILE...\n\
     \n\
     exit status:\n\
     \x20 0  every file analyzed (all BOUNDED when --require-bounded)\n\
     \x20 1  at least one file has no finite upper bound (--require-bounded)\n\
     \x20 2  usage, IO, or parse error";

const FLAGS: &[Flag] = &[
    Flag::switch("--proofs"),
    Flag::switch("--regions"),
    Flag::value("--sus").checked(args::positive),
    Flag::switch("--tiny").excluding("--sus"),
    Flag::switch("--require-bounded"),
];

fn main() -> ExitCode {
    analyzer::run(USAGE, FLAGS, |args| {
        let (proofs, regions) = (args.switch("--proofs"), args.switch("--regions"));
        let require_bounded = args.switch("--require-bounded");
        let config = match args.parsed("--sus") {
            Some(n) => SparseCoreConfig::with_sus(n),
            None if args.switch("--tiny") => SparseCoreConfig::tiny(),
            None => SparseCoreConfig::paper(),
        };
        move |path, program, format| {
            let verdict = cost_program(program, &config);
            let c = &verdict.cost;
            match format {
                Format::Json => {
                    let mut file = String::new();
                    sc_probe::json::write_str(&mut file, path);
                    println!(
                        "{{\"file\": {file}, \"status\": \"{}\", \"config_digest\": {}, \
                         \"cycles_lower\": {}, \"cycles_upper\": {}, \"traffic_lower\": {}, \
                         \"traffic_upper\": {}, \"footprint_bytes\": {}, \"max_pressure\": {}, \
                         \"regions\": {}, \"diagnostics\": {}}}",
                        verdict.status(),
                        c.params.config_digest,
                        c.cycles.lower,
                        c.cycles.upper.map_or("null".into(), |u| u.to_string()),
                        c.traffic_bytes.lower,
                        c.traffic_bytes.upper.map_or("null".into(), |u| u.to_string()),
                        c.footprint_bytes,
                        c.max_pressure,
                        c.regions.len(),
                        verdict.report.len(),
                    )
                }
                Format::Sarif => {
                    println!("{}", verdict.report.to_sarif_with_driver(path, "sc-cost"))
                }
                Format::Text => {
                    println!(
                        "{path}: {} ({} instructions, cycles {}, traffic [{}, {}] B, footprint {} B)",
                        verdict.status(),
                        program.len(),
                        c.cycles,
                        c.traffic_bytes.lower,
                        c.traffic_bytes.upper.map_or("unbounded".into(), |u| u.to_string()),
                        c.footprint_bytes,
                    );
                    if regions {
                        for r in &c.regions {
                            println!(
                                "{path}: region [{}..{}]: cycles {}, peak pressure {}",
                                r.first, r.last, r.cycles, r.peak_pressure
                            );
                        }
                    }
                    for d in verdict.report.diagnostics() {
                        println!("{path}: {d}");
                    }
                    if proofs {
                        for p in &verdict.proofs {
                            let codes: Vec<&str> = p.subsumes.iter().map(|c| c.as_str()).collect();
                            println!(
                                "{path}: established: {} [{}]",
                                p.obligation,
                                codes.join(", ")
                            );
                        }
                    }
                }
            }
            require_bounded && !verdict.bounded()
        }
    })
}
