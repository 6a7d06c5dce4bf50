//! `sc-report` — inspect, compare, and gate on run-record registries.
//!
//! ```text
//! sc-report verify <path>...                         validate record files
//! sc-report compare --baseline <path> --candidate <path>
//!                   [--wall-tol <frac>] [--strict-wall]
//! sc-report scoreboard --registry <path>... --reference <file>
//!                      [--markdown <file>] [--gate]
//! sc-report tightness --registry <path>... [--max <ratio>] [--require]
//! sc-report trend --registry <path>... [--out <file>]
//! sc-report host --registry <path>... [--baseline <path>...]
//!                [--max-wall-regress <pct>] [--max-rss-kb <kb>] [--require]
//! sc-report explain --baseline <path> --candidate <path> [--top <n>]
//! sc-report html --registry <path>... [--spans <file>] [--reference <file>]
//!                [--bench-json <file>] --out <file>
//! ```
//!
//! Paths may be single record files or registry directories (every
//! `*.json` directly inside). Exit status: 0 = PASS, 1 = verdict FAIL /
//! gate violation, 2 = usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use sc_probe::args::{self, ensure, Args, Flag};
use sc_report::{compare, load_paths, scoreboard, trend, CompareOptions, Reference, RunRecord};

fn main() -> ExitCode {
    let (cmd, argv) = args::subcommand(std::env::args().skip(1));
    let result = match cmd.as_deref() {
        Some("verify") => cmd_verify(argv),
        Some("compare") => cmd_compare(argv),
        Some("scoreboard") => cmd_scoreboard(argv),
        Some("tightness") => cmd_tightness(argv),
        Some("trend") => cmd_trend(argv),
        Some("host") => cmd_host(argv),
        Some("explain") => cmd_explain(argv),
        Some("html") => cmd_html(argv),
        Some("--help" | "-h" | "help") => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => return usage(&format!("unknown subcommand '{other}'")),
        None => return usage("missing subcommand"),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => usage(&e),
    }
}

const USAGE: &str = "\
usage: sc-report <verify|compare|scoreboard|tightness|trend|host|explain|html> [options]

  verify <path>...
      Parse every record file reachable from each path and re-serialize
      each record, requiring an exact round trip (the golden-schema check).

  compare --baseline <path> --candidate <path> [--wall-tol <frac>] [--strict-wall]
      Regression verdict: exact on modeled cycles / checksums / cycle
      attribution, median-of-N within a tolerance band on wall-clock
      (default --wall-tol 0.5 = +50%). Exits 1 on FAIL.

  scoreboard --registry <path>... --reference <file> [--markdown <file>] [--gate]
      Paper-fidelity scoreboard vs results/paper_reference.json. With
      --gate, exits 1 when any figure drifts beyond its budget.

  tightness --registry <path>... [--max <ratio>] [--require]
      Cost-gate verdict over records from benches run with --cost: any
      recorded bound violation fails, and a worst upper/simulated
      tightness ratio above the budget fails (default --max 16.0).
      --require also fails when no record carries a cost section.

  trend --registry <path>... [--out <file>]
      Cross-commit trajectory; --out merges the fresh points into the
      BENCH_sc.json document (one point per git SHA, append order
      stable, re-recorded SHAs replaced in place).

  host --registry <path>... [--baseline <path>...]
       [--max-wall-regress <pct>] [--max-rss-kb <kb>] [--require]
      Host-perf view of a registry recorded with --host: wall split by
      phase, peak RSS, allocator pressure, records/s. Budget gates exit
      1 on violation: total wall may exceed the --baseline registry's
      by at most --max-wall-regress percent (default 100), and no
      record may exceed --max-rss-kb peak RSS (default 4194304 = 4 GiB).
      --require also fails when no record carries a host section.

  explain --baseline <path> --candidate <path> [--top <n>]
      Rank the cycle delta between two registries by (workload x stall
      cause) from the records' 5-bin attribution (default --top 10).
      Also printed automatically when a compare fails.

  html --registry <path>... [--spans <file>] [--reference <file>]
       [--bench-json <file>] --out <file>
      Write a single self-contained HTML dashboard: attribution treemap
      from the registry, per-core span timelines from a bench --spans
      document, fidelity scoreboard from the reference file, and trend
      sparklines from BENCH_sc.json.

Paths may be record files or registry directories (results/runs, results/golden).
";

fn usage(msg: &str) -> ExitCode {
    eprintln!("sc-report: {msg}");
    eprint!("{USAGE}");
    ExitCode::from(2)
}

/// The records of every path given to the repeated flag `flag`.
fn registry_records(a: &Args, flag: &str) -> Result<Vec<RunRecord>, String> {
    let paths: Vec<PathBuf> = a.values(flag).iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        return Err(format!("missing {flag} <path>"));
    }
    load_paths(&paths)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn cmd_verify(argv: Vec<String>) -> Result<bool, String> {
    let paths: Vec<PathBuf> =
        args::parse_with_operands(argv, &[])?.operands().iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        return Err("verify needs at least one record file or registry directory".into());
    }
    let records = load_paths(&paths)?;
    let mut bad = 0usize;
    for r in &records {
        if let Err(e) = r.round_trip() {
            eprintln!("FAIL: {}: {e}", r.key());
            bad += 1;
        }
    }
    println!(
        "verify: {} records across {} paths, {} round-trip failures",
        records.len(),
        paths.len(),
        bad
    );
    Ok(bad == 0)
}

fn cmd_compare(argv: Vec<String>) -> Result<bool, String> {
    let a = args::parse(
        argv,
        &[
            Flag::repeated("--baseline"),
            Flag::repeated("--candidate"),
            Flag::value("--wall-tol")
                .checked(|v| ensure(v.parse::<f64>().is_ok_and(|t| t >= 0.0), "a fraction >= 0")),
            Flag::switch("--strict-wall"),
        ],
    )?;
    let baseline = registry_records(&a, "--baseline")?;
    let candidate = registry_records(&a, "--candidate")?;
    let opts = CompareOptions {
        wall_tolerance: a.parsed("--wall-tol").unwrap_or(CompareOptions::default().wall_tolerance),
        strict_wall: a.switch("--strict-wall"),
    };
    let verdict = compare(&baseline, &candidate, opts);
    print!("{}", verdict.render());
    if !verdict.pass() {
        // The causal follow-up CI wants on every red gate: where did
        // the cycles move? Top contributors by (workload x stall cause).
        print!("{}", sc_report::explain_render(&baseline, &candidate, 10));
    }
    Ok(verdict.pass())
}

fn cmd_explain(argv: Vec<String>) -> Result<bool, String> {
    let a = args::parse(
        argv,
        &[
            Flag::repeated("--baseline"),
            Flag::repeated("--candidate"),
            Flag::value("--top").checked(|v| ensure(v.parse::<usize>().is_ok(), "a count")),
        ],
    )?;
    let baseline = registry_records(&a, "--baseline")?;
    let candidate = registry_records(&a, "--candidate")?;
    let top = a.parsed("--top").unwrap_or(10);
    print!("{}", sc_report::explain_render(&baseline, &candidate, top));
    Ok(true)
}

fn cmd_html(argv: Vec<String>) -> Result<bool, String> {
    let a = args::parse(
        argv,
        &[
            Flag::repeated("--registry"),
            Flag::repeated("--spans"),
            Flag::value("--reference"),
            Flag::value("--bench-json"),
            Flag::value("--out"),
        ],
    )?;
    let records = registry_records(&a, "--registry")?;
    let mut dash = sc_report::Dashboard { records, ..Default::default() };
    for path in a.values("--spans") {
        let doc = read(&path)?;
        dash.spans.extend(sc_probe::spans::parse_doc(&doc).map_err(|e| format!("{path}: {e}"))?);
    }
    if let Some(ref_path) = a.value("--reference") {
        let reference =
            Reference::parse(&read(ref_path)?).map_err(|e| format!("{ref_path}: {e}"))?;
        dash.scores = scoreboard(&dash.records, &reference);
    }
    dash.trend = match a.value("--bench-json") {
        Some(path) => trend::parse_bench_json(&read(path)?).map_err(|e| format!("{path}: {e}"))?,
        // No trajectory file: derive a single-point trend from the
        // registry itself so the section still renders.
        None => trend::trend(&dash.records),
    };
    let out = a.value("--out").ok_or("missing --out <file>")?;
    std::fs::write(out, sc_report::html_render(&dash)).map_err(|e| format!("{out}: {e}"))?;
    println!(
        "wrote {out} ({} records, {} span workloads, {} figures, {} trend points)",
        dash.records.len(),
        dash.spans.len(),
        dash.scores.len(),
        dash.trend.len()
    );
    Ok(true)
}

fn cmd_scoreboard(argv: Vec<String>) -> Result<bool, String> {
    let a = args::parse(
        argv,
        &[
            Flag::repeated("--registry"),
            Flag::value("--reference"),
            Flag::value("--markdown"),
            Flag::switch("--gate"),
        ],
    )?;
    let records = registry_records(&a, "--registry")?;
    let ref_path = a.value("--reference").ok_or("missing --reference <file>")?;
    let reference = Reference::parse(&read(ref_path)?).map_err(|e| format!("{ref_path}: {e}"))?;
    let scores = scoreboard(&records, &reference);
    print!("{}", scoreboard::render_text(&scores));
    if let Some(md_path) = a.value("--markdown") {
        std::fs::write(md_path, scoreboard::render_markdown(&scores))
            .map_err(|e| format!("{md_path}: {e}"))?;
    }
    let over_budget = scores.iter().filter(|s| !s.within_budget()).count();
    if a.switch("--gate") && over_budget > 0 {
        eprintln!("scoreboard gate: {over_budget} figure(s) outside budget");
        return Ok(false);
    }
    Ok(true)
}

fn cmd_tightness(argv: Vec<String>) -> Result<bool, String> {
    let a = args::parse(
        argv,
        &[
            Flag::repeated("--registry"),
            Flag::value("--max").checked(|v| {
                let ok = v.parse::<f64>().is_ok_and(|m| m.is_finite() && m >= 1.0);
                ensure(ok, "a ratio >= 1.0 (tightness is upper/simulated)")
            }),
            Flag::switch("--require"),
        ],
    )?;
    let records = registry_records(&a, "--registry")?;
    let max_ratio = a.parsed("--max").unwrap_or(16.0);
    let rows = sc_report::tightness::summarize(&records);
    print!("{}", sc_report::tightness::render_text(&rows, max_ratio));
    if a.switch("--require") && rows.is_empty() {
        eprintln!("tightness: --require set but no record carries a cost section (benches run without --cost?)");
        return Ok(false);
    }
    Ok(sc_report::tightness::pass(&rows, max_ratio))
}

fn cmd_trend(argv: Vec<String>) -> Result<bool, String> {
    let a = args::parse(argv, &[Flag::repeated("--registry"), Flag::value("--out")])?;
    let records = registry_records(&a, "--registry")?;
    let points = trend::trend(&records);
    print!("{}", trend::render_text(&points));
    if let Some(out) = a.value("--out") {
        let merged = write_bench_json(out, points)?;
        println!("wrote {out} ({merged} trajectory points)");
    }
    Ok(true)
}

/// Merge fresh trend points into the `BENCH_sc.json` document at `out`
/// (accumulating one point per git SHA) and write it back. Returns the
/// merged point count.
fn write_bench_json(out: &str, fresh: Vec<sc_report::TrendPoint>) -> Result<usize, String> {
    let existing = match std::fs::read_to_string(out) {
        Ok(doc) => trend::parse_bench_json(&doc).map_err(|e| format!("{out}: {e}"))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{out}: {e}")),
    };
    let merged = sc_report::merge_points(existing, fresh);
    std::fs::write(out, trend::render_bench_json(&merged)).map_err(|e| format!("{out}: {e}"))?;
    Ok(merged.len())
}

fn cmd_host(argv: Vec<String>) -> Result<bool, String> {
    let a = args::parse(
        argv,
        &[
            Flag::repeated("--registry"),
            Flag::repeated("--baseline"),
            Flag::value("--max-wall-regress").checked(|v| {
                let ok = v.parse::<f64>().is_ok_and(|p| p.is_finite() && p >= 0.0);
                ensure(ok, "a finite percentage >= 0")
            }),
            Flag::value("--max-rss-kb").checked(|v| ensure(v.parse::<u64>().is_ok(), "kilobytes")),
            Flag::switch("--require"),
        ],
    )?;
    let records = registry_records(&a, "--registry")?;
    let baseline = a.value("--baseline").map(|_| registry_records(&a, "--baseline")).transpose()?;
    let defaults = sc_report::HostGateOptions::default();
    let opts = sc_report::HostGateOptions {
        max_wall_regress_pct: a
            .parsed("--max-wall-regress")
            .unwrap_or(defaults.max_wall_regress_pct),
        max_rss_kb: a.parsed("--max-rss-kb").unwrap_or(defaults.max_rss_kb),
        require_host: a.switch("--require"),
    };
    let rows = sc_report::host_summarize(&records);
    print!("{}", sc_report::host::render(&rows, &sc_report::host::total_row(&records)));
    let (pass, findings) = sc_report::host_gate(&records, baseline.as_deref(), &opts);
    for f in &findings {
        eprintln!("host gate: {f}");
    }
    Ok(pass)
}
