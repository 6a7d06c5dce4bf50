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
//!   --tiny             analyze for the tiny test config
//!   --require-bounded  treat a missing finite upper bound as a failure
//! ```
//!
//! Exit status: 0 every file analyzed (and BOUNDED if required), 1 at
//! least one file failed the bound requirement, 2 usage/IO/parse errors
//! (BenchCli's exit-2 convention).

use sc_cost::cost_program;
use sc_isa::Program;
use sc_lint::cli::{json_string, Format, Tool};
use sparsecore::SparseCoreConfig;
use std::process::ExitCode;

struct Cost {
    proofs: bool,
    regions: bool,
    require_bounded: bool,
    config: SparseCoreConfig,
}

impl Tool for Cost {
    fn usage(&self) -> &'static str {
        "usage: sc-cost [--json|--sarif] [--proofs] [--regions] [--sus N] [--tiny] [--require-bounded] FILE...\n\
         \n\
         exit status:\n\
         \x20 0  every file analyzed (all BOUNDED when --require-bounded)\n\
         \x20 1  at least one file has no finite upper bound (--require-bounded)\n\
         \x20 2  usage, IO, or parse error"
    }

    fn flag(&mut self, flag: &str, args: &mut dyn Iterator<Item = String>) -> Result<bool, String> {
        match flag {
            "--proofs" => self.proofs = true,
            "--regions" => self.regions = true,
            "--require-bounded" => self.require_bounded = true,
            "--tiny" => self.config = SparseCoreConfig::tiny(),
            "--sus" => {
                let n = args.next().ok_or("--sus needs a value")?;
                let n: usize = n.parse().map_err(|_| format!("invalid --sus value: {n}"))?;
                if n == 0 {
                    return Err("--sus must be positive".into());
                }
                self.config = SparseCoreConfig::with_sus(n);
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn file(&self, path: &str, program: &Program, format: Format) -> bool {
        let verdict = cost_program(program, &self.config);
        let c = &verdict.cost;
        match format {
            Format::Json => println!(
                "{{\"file\": {}, \"status\": \"{}\", \"config_digest\": {}, \
                 \"cycles_lower\": {}, \"cycles_upper\": {}, \"traffic_lower\": {}, \
                 \"traffic_upper\": {}, \"footprint_bytes\": {}, \"max_pressure\": {}, \
                 \"regions\": {}, \"diagnostics\": {}}}",
                json_string(path),
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
            ),
            Format::Sarif => println!("{}", verdict.report.to_sarif_with_driver(path, "sc-cost")),
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
                if self.regions {
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
                if self.proofs {
                    for p in &verdict.proofs {
                        let codes: Vec<&str> = p.subsumes.iter().map(|c| c.as_str()).collect();
                        println!("{path}: established: {} [{}]", p.obligation, codes.join(", "));
                    }
                }
            }
        }
        self.require_bounded && !verdict.bounded()
    }
}

fn main() -> ExitCode {
    sc_lint::cli::run(Cost {
        proofs: false,
        regions: false,
        require_bounded: false,
        config: SparseCoreConfig::paper(),
    })
}
