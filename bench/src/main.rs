//! `sc-perfbench [--workload W] [--seed S] [--seconds N] [--trace 0|1]
//! [--bins DIR] [--write-expected]`
//!
//! Run from the repository root (`bench/run.sh` builds and calls it).
//! With `--workload`, runs that workload and prints every metric as
//! `name value unit`, then one JSON result line. Without it, runs each
//! workload in its own child process, one after another.
//! `--write-expected` regenerates the workload's seed-0 pins instead.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use sc_perfbench::{parse_args, repo_root, run_workload, write_expected, Paths, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sc-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main(args: &[String]) -> Result<ExitCode, String> {
    let (workload, settings, bins, write) = parse_args(args)?;
    let root = repo_root()?;
    let paths = Paths { bins: bins.unwrap_or_else(|| PathBuf::from("target/release")), root };
    let Some(w) = workload else {
        // One process per workload, so each one's peak RSS is its own.
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut ok = true;
        for w in Workload::ALL {
            let status = Command::new(&exe)
                .args(args)
                .args(["--workload", w.name()])
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            ok &= status.success();
        }
        return Ok(if ok { ExitCode::SUCCESS } else { ExitCode::FAILURE });
    };
    if write {
        write_expected(w, &paths)?;
        eprintln!("wrote {}", paths.expected(w).display());
        return Ok(ExitCode::SUCCESS);
    }
    let outcome = run_workload(w, settings, &paths)?;
    for f in &outcome.failures {
        eprintln!("FAILED {f}");
    }
    let results = paths.out().join("results.json");
    outcome.write_results(&results, settings.seed, settings.seconds, settings.trace)?;
    for line in outcome.metric_lines() {
        println!("{line}");
    }
    println!("{}", outcome.result_line());
    Ok(ExitCode::SUCCESS)
}
