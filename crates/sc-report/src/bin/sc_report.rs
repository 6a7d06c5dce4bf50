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

use sc_report::{compare, load_paths, scoreboard, trend, CompareOptions, Reference, RunRecord};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage("missing subcommand");
    };
    let result = match cmd.as_str() {
        "verify" => cmd_verify(rest),
        "compare" => cmd_compare(rest),
        "scoreboard" => cmd_scoreboard(rest),
        "tightness" => cmd_tightness(rest),
        "trend" => cmd_trend(rest),
        "host" => cmd_host(rest),
        "explain" => cmd_explain(rest),
        "html" => cmd_html(rest),
        "--help" | "-h" | "help" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => return usage(&format!("unknown subcommand '{other}'")),
    };
    match result {
        Ok(pass) => {
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => usage(&e),
    }
}

const USAGE: &str = "\
usage: sc-report <verify|compare|scoreboard|tightness|trend> [options]

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

/// Parsed `--flag [value]` occurrences, in argv order.
type ParsedFlags = Vec<(String, String)>;

/// Split flag-style args: returns (registry paths, flag values) where
/// `flags` maps each recognized `--flag` to whether it takes a value.
fn parse_flags(
    args: &[String],
    flags: &[(&str, bool)],
) -> Result<(Vec<PathBuf>, ParsedFlags), String> {
    let mut positional = Vec::new();
    let mut parsed = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some((name, takes_value)) = flags.iter().find(|(n, _)| n == a) {
            let value = if *takes_value {
                it.next().ok_or(format!("{name} needs a value"))?.clone()
            } else {
                String::new()
            };
            parsed.push((name.to_string(), value));
        } else if a.starts_with("--") {
            return Err(format!("unknown flag '{a}'"));
        } else {
            positional.push(PathBuf::from(a));
        }
    }
    Ok((positional, parsed))
}

fn flag_value<'a>(parsed: &'a [(String, String)], name: &str) -> Option<&'a str> {
    parsed.iter().rev().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

fn flag_values<'a>(parsed: &'a [(String, String)], name: &str) -> Vec<&'a str> {
    parsed.iter().filter(|(n, _)| n == name).map(|(_, v)| v.as_str()).collect()
}

fn cmd_verify(args: &[String]) -> Result<bool, String> {
    let (paths, _) = parse_flags(args, &[])?;
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

fn registry_records(parsed: &[(String, String)], flag: &str) -> Result<Vec<RunRecord>, String> {
    let paths: Vec<PathBuf> = flag_values(parsed, flag).iter().map(PathBuf::from).collect();
    if paths.is_empty() {
        return Err(format!("missing {flag} <path>"));
    }
    load_paths(&paths)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let (positional, parsed) = parse_flags(
        args,
        &[
            ("--baseline", true),
            ("--candidate", true),
            ("--wall-tol", true),
            ("--strict-wall", false),
        ],
    )?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument '{}'", positional[0].display()));
    }
    let baseline = registry_records(&parsed, "--baseline")?;
    let candidate = registry_records(&parsed, "--candidate")?;
    let mut opts = CompareOptions::default();
    if let Some(tol) = flag_value(&parsed, "--wall-tol") {
        opts.wall_tolerance = tol.parse::<f64>().map_err(|e| format!("--wall-tol '{tol}': {e}"))?;
        if opts.wall_tolerance < 0.0 {
            return Err("--wall-tol must be >= 0".into());
        }
    }
    opts.strict_wall = flag_value(&parsed, "--strict-wall").is_some();
    let verdict = compare(&baseline, &candidate, opts);
    print!("{}", verdict.render());
    if !verdict.pass() {
        // The causal follow-up CI wants on every red gate: where did
        // the cycles move? Top contributors by (workload x stall cause).
        print!("{}", sc_report::explain_render(&baseline, &candidate, 10));
    }
    Ok(verdict.pass())
}

fn cmd_explain(args: &[String]) -> Result<bool, String> {
    let (positional, parsed) =
        parse_flags(args, &[("--baseline", true), ("--candidate", true), ("--top", true)])?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument '{}'", positional[0].display()));
    }
    let baseline = registry_records(&parsed, "--baseline")?;
    let candidate = registry_records(&parsed, "--candidate")?;
    let mut top = 10usize;
    if let Some(t) = flag_value(&parsed, "--top") {
        top = t.parse().map_err(|e| format!("--top '{t}': {e}"))?;
    }
    print!("{}", sc_report::explain_render(&baseline, &candidate, top));
    Ok(true)
}

fn cmd_html(args: &[String]) -> Result<bool, String> {
    let (positional, parsed) = parse_flags(
        args,
        &[
            ("--registry", true),
            ("--spans", true),
            ("--reference", true),
            ("--bench-json", true),
            ("--out", true),
        ],
    )?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument '{}'", positional[0].display()));
    }
    let records = registry_records(&parsed, "--registry")?;
    let mut dash = sc_report::Dashboard { records, ..Default::default() };
    for path in flag_values(&parsed, "--spans") {
        let doc = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        dash.spans.extend(sc_report::parse_spans_doc(&doc).map_err(|e| format!("{path}: {e}"))?);
    }
    if let Some(ref_path) = flag_value(&parsed, "--reference") {
        let doc = std::fs::read_to_string(ref_path).map_err(|e| format!("{ref_path}: {e}"))?;
        let reference = Reference::parse(&doc).map_err(|e| format!("{ref_path}: {e}"))?;
        dash.scores = scoreboard(&dash.records, &reference);
    }
    dash.trend = match flag_value(&parsed, "--bench-json") {
        Some(path) => {
            let doc = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            sc_report::parse_bench_json(&doc).map_err(|e| format!("{path}: {e}"))?
        }
        // No trajectory file: derive a single-point trend from the
        // registry itself so the section still renders.
        None => trend::trend(&dash.records),
    };
    let out = flag_value(&parsed, "--out").ok_or("missing --out <file>")?;
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

fn cmd_scoreboard(args: &[String]) -> Result<bool, String> {
    let (positional, parsed) = parse_flags(
        args,
        &[("--registry", true), ("--reference", true), ("--markdown", true), ("--gate", false)],
    )?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument '{}'", positional[0].display()));
    }
    let records = registry_records(&parsed, "--registry")?;
    let ref_path = flag_value(&parsed, "--reference").ok_or("missing --reference <file>")?;
    let doc = std::fs::read_to_string(ref_path).map_err(|e| format!("{ref_path}: {e}"))?;
    let reference = Reference::parse(&doc).map_err(|e| format!("{ref_path}: {e}"))?;
    let scores = scoreboard(&records, &reference);
    print!("{}", scoreboard::render_text(&scores));
    if let Some(md_path) = flag_value(&parsed, "--markdown") {
        std::fs::write(md_path, scoreboard::render_markdown(&scores))
            .map_err(|e| format!("{md_path}: {e}"))?;
    }
    let gate = flag_value(&parsed, "--gate").is_some();
    let over_budget = scores.iter().filter(|s| !s.within_budget()).count();
    if gate && over_budget > 0 {
        eprintln!("scoreboard gate: {over_budget} figure(s) outside budget");
        return Ok(false);
    }
    Ok(true)
}

fn cmd_tightness(args: &[String]) -> Result<bool, String> {
    let (positional, parsed) =
        parse_flags(args, &[("--registry", true), ("--max", true), ("--require", false)])?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument '{}'", positional[0].display()));
    }
    let records = registry_records(&parsed, "--registry")?;
    let mut max_ratio = 16.0;
    if let Some(m) = flag_value(&parsed, "--max") {
        max_ratio = m.parse::<f64>().map_err(|e| format!("--max '{m}': {e}"))?;
        if !max_ratio.is_finite() || max_ratio < 1.0 {
            return Err("--max must be >= 1.0 (tightness is upper/simulated)".into());
        }
    }
    let rows = sc_report::tightness::summarize(&records);
    print!("{}", sc_report::tightness::render_text(&rows, max_ratio));
    if flag_value(&parsed, "--require").is_some() && rows.is_empty() {
        eprintln!("tightness: --require set but no record carries a cost section (benches run without --cost?)");
        return Ok(false);
    }
    Ok(sc_report::tightness::pass(&rows, max_ratio))
}

fn cmd_trend(args: &[String]) -> Result<bool, String> {
    let (positional, parsed) = parse_flags(args, &[("--registry", true), ("--out", true)])?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument '{}'", positional[0].display()));
    }
    let records = registry_records(&parsed, "--registry")?;
    let points = trend::trend(&records);
    print!("{}", trend::render_text(&points));
    if let Some(out) = flag_value(&parsed, "--out") {
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
        Ok(doc) => sc_report::parse_bench_json(&doc).map_err(|e| format!("{out}: {e}"))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{out}: {e}")),
    };
    let merged = sc_report::merge_points(existing, fresh);
    std::fs::write(out, trend::render_bench_json(&merged)).map_err(|e| format!("{out}: {e}"))?;
    Ok(merged.len())
}

fn cmd_host(args: &[String]) -> Result<bool, String> {
    let (positional, parsed) = parse_flags(
        args,
        &[
            ("--registry", true),
            ("--baseline", true),
            ("--max-wall-regress", true),
            ("--max-rss-kb", true),
            ("--require", false),
        ],
    )?;
    if !positional.is_empty() {
        return Err(format!("unexpected argument '{}'", positional[0].display()));
    }
    let records = registry_records(&parsed, "--registry")?;
    let baseline = if flag_values(&parsed, "--baseline").is_empty() {
        None
    } else {
        Some(registry_records(&parsed, "--baseline")?)
    };
    let mut opts = sc_report::HostGateOptions::default();
    if let Some(pct) = flag_value(&parsed, "--max-wall-regress") {
        opts.max_wall_regress_pct =
            pct.parse::<f64>().map_err(|e| format!("--max-wall-regress '{pct}': {e}"))?;
        if !opts.max_wall_regress_pct.is_finite() || opts.max_wall_regress_pct < 0.0 {
            return Err("--max-wall-regress must be a finite percentage >= 0".into());
        }
    }
    if let Some(kb) = flag_value(&parsed, "--max-rss-kb") {
        opts.max_rss_kb = kb.parse::<u64>().map_err(|e| format!("--max-rss-kb '{kb}': {e}"))?;
    }
    opts.require_host = flag_value(&parsed, "--require").is_some();
    let rows = sc_report::host_summarize(&records);
    print!("{}", sc_report::host::render(&rows, &sc_report::host::total_row(&records)));
    let (pass, findings) = sc_report::host_gate(&records, baseline.as_deref(), &opts);
    for f in &findings {
        eprintln!("host gate: {f}");
    }
    Ok(pass)
}
