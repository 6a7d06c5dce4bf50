//! The `figures` workload: one pass of the golden record matrix — the
//! twelve bench bins with the arguments `scripts/bench_record.sh` gives
//! them, at `--jobs 1`, followed by its three `sc-report` gates. The
//! argument table is workload data copied from that script, so the
//! matrix measured here stays fixed when the script changes.
//!
//! Every pass writes into a fresh directory that is removed afterwards,
//! so no state carries between passes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use sc_host::Phase;
use sc_probe::json::{self, Value};
use sc_report::RunRecord;

use crate::check::hex;

/// `(bin, arguments before --jobs/--record)`, in the script's order.
pub const BINS: [(&str, &[&str]); 12] = [
    ("fig07_accels", &["--datasets", "E", "--cost", "--host"]),
    ("fig08_cpu_speedup", &["--datasets", "C,E", "--skip-fsm", "--cost", "--host"]),
    ("fig09_10_breakdown", &["--datasets", "C", "--cost", "--host"]),
    ("fig11_gpu", &["--datasets", "E", "--cost", "--host"]),
    ("fig12_sus", &["--datasets", "E", "--cost", "--host"]),
    ("fig13_bandwidth", &["--datasets", "E", "--cost", "--host"]),
    ("fig14_lengths", &["--datasets", "E", "--cost", "--host"]),
    ("fig15_tensor", &["--matrices", "C,E", "--cost", "--host"]),
    ("fig16_tensor_accels", &["--matrices", "C,E", "--cost", "--host"]),
    ("ablations", &["--datasets", "E", "--cost", "--host"]),
    (
        "multicore",
        &[
            "--datasets",
            "E",
            "--sched",
            "both",
            "--chunk",
            "8",
            "--tensor",
            "--sanitize",
            "--cost",
            "--host",
        ],
    ),
    ("datasets_report", &["--host"]),
];

/// The `sc-report` gates run on the registry directory, which is
/// appended as the last argument of `verify` and after `--registry`.
const GATES: [&[&str]; 3] =
    [&["verify"], &["tightness", "--require", "--registry"], &["host", "--require", "--registry"]];

/// No single pass may run past this, so a hung child cannot hold the run.
const PASS_DEADLINE: Duration = Duration::from_secs(150);

/// The exact, deterministic fields of one record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactRecord {
    /// Emitting bin.
    pub bench: String,
    /// Workload id within the bin.
    pub workload: String,
    /// `SparseCoreConfig` digest.
    pub config_digest: u64,
    /// Functional checksum.
    pub checksum: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Comparison cycles, when recorded.
    pub baseline_cycles: Option<u64>,
    /// Cycle attribution bins.
    pub attr: [u64; 5],
}

impl ExactRecord {
    /// The exact fields of `r`.
    pub fn of(r: &RunRecord) -> Self {
        ExactRecord {
            bench: r.bench.clone(),
            workload: r.workload.clone(),
            config_digest: r.config_digest,
            checksum: r.checksum,
            cycles: r.cycles,
            baseline_cycles: r.baseline_cycles,
            attr: r.attr,
        }
    }

    /// The registry key (`bench::workload::digest`).
    pub fn key(&self) -> String {
        format!("{}::{}::{}", self.bench, self.workload, sc_report::hex(self.config_digest))
    }
}

/// Read `expected/figures.json`.
///
/// # Errors
///
/// Missing file or malformed content.
pub fn load_expected(path: &Path) -> Result<Vec<ExactRecord>, String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = json::parse(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    let recs = v.get("records").and_then(Value::as_arr).ok_or("expected file has no 'records'")?;
    recs.iter()
        .map(|r| {
            let s = |k: &str| {
                r.get(k).and_then(Value::as_str).map(str::to_string).ok_or(format!("no '{k}'"))
            };
            let n = |k: &str| r.get(k).and_then(Value::as_f64).map(|x| x as u64);
            let attr: Vec<u64> = r
                .get("attr")
                .and_then(Value::as_arr)
                .ok_or("no 'attr'")?
                .iter()
                .filter_map(|x| x.as_f64().map(|x| x as u64))
                .collect();
            Ok(ExactRecord {
                bench: s("bench")?,
                workload: s("workload")?,
                config_digest: r.get("config_digest").and_then(hex).ok_or("no 'config_digest'")?,
                checksum: r.get("checksum").and_then(hex).ok_or("no 'checksum'")?,
                cycles: n("cycles").ok_or("no 'cycles'")?,
                baseline_cycles: n("baseline_cycles"),
                attr: attr.try_into().map_err(|_| "'attr' needs five bins".to_string())?,
            })
        })
        .collect()
}

/// The file form of [`load_expected`]'s input.
pub fn render_expected(records: &[ExactRecord]) -> String {
    let mut out = String::from("{\"workload\":\"figures\",\"seed\":0,\"records\":[\n");
    for (i, r) in records.iter().enumerate() {
        let base = r.baseline_cycles.map_or("null".to_string(), |b| b.to_string());
        let attr: Vec<String> = r.attr.iter().map(u64::to_string).collect();
        let _ = writeln!(
            out,
            "{{\"bench\":\"{}\",\"workload\":\"{}\",\"config_digest\":\"{}\",\"checksum\":\"{}\",\
             \"cycles\":{},\"baseline_cycles\":{base},\"attr\":[{}]}}{}",
            r.bench,
            r.workload,
            sc_report::hex(r.config_digest),
            sc_report::hex(r.checksum),
            r.cycles,
            attr.join(","),
            if i + 1 == records.len() { "" } else { "," }
        );
    }
    out.push_str("]}\n");
    out
}

/// What one pass produced.
#[derive(Debug, Clone)]
pub struct FigPass {
    /// Wall time of the twelve bins and the gates.
    pub wall_ns: u64,
    /// Every record the bins wrote.
    pub records: Vec<RunRecord>,
    /// Bins that exited nonzero, could not be read, or timed out.
    pub failed_bins: Vec<String>,
    /// Gates that failed.
    pub failed_gates: Vec<String>,
}

/// Run `cmd` to completion by `deadline`; `Ok(false)` when it exited
/// nonzero or was killed at the deadline.
fn run_child(mut cmd: Command, stderr_to: &Path, deadline: Instant) -> Result<bool, String> {
    let err = File::create(stderr_to).map_err(|e| format!("{}: {e}", stderr_to.display()))?;
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(err)
        .spawn()
        .map_err(|e| format!("cannot start {cmd:?}: {e}"))?;
    loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            return Ok(status.success());
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Ok(false);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn tail(path: &Path) -> String {
    let s = std::fs::read_to_string(path).unwrap_or_default();
    let lines: Vec<&str> = s.lines().collect();
    lines[lines.len().saturating_sub(5)..].join("\n")
}

/// Run one pass in the fresh directory `dir` (removed afterwards).
///
/// # Errors
///
/// A bin that cannot be started (not built), or I/O on `dir`.
pub fn run_pass(bins: &Path, dir: &Path) -> Result<FigPass, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let deadline = Instant::now() + PASS_DEADLINE;
    let t0 = Instant::now();
    let mut failed_bins = Vec::new();
    for (bin, args) in BINS {
        let mut cmd = Command::new(bins.join(bin));
        cmd.args(args).args(["--jobs", "1", "--record"]).arg(dir.join(format!("{bin}.json")));
        let log = dir.join(format!("{bin}.stderr"));
        if !run_child(cmd, &log, deadline)? {
            eprintln!("figures: {bin} failed:\n{}", tail(&log));
            failed_bins.push(bin.to_string());
        }
    }
    let mut failed_gates = Vec::new();
    for gate in GATES {
        let mut cmd = Command::new(bins.join("sc-report"));
        cmd.args(gate).arg(dir);
        let log = dir.join(format!("gate-{}.stderr", gate[0]));
        if !run_child(cmd, &log, deadline)? {
            eprintln!("figures: sc-report {} failed:\n{}", gate[0], tail(&log));
            failed_gates.push(gate[0].to_string());
        }
    }
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut records = Vec::new();
    for (bin, _) in BINS {
        let path = dir.join(format!("{bin}.json"));
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|d| sc_report::parse_record_file(&d))
        {
            Ok(mut r) => records.append(&mut r),
            Err(e) => {
                eprintln!("figures: {}: {e}", path.display());
                if !failed_bins.iter().any(|b| b == bin) {
                    failed_bins.push(bin.to_string());
                }
            }
        }
    }
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(FigPass { wall_ns, records, failed_bins, failed_gates })
}

impl FigPass {
    /// Failures against the pinned records: one per expected record that
    /// is missing, differs, or came from a failed bin; every record fails
    /// when a gate fails.
    pub fn check(&self, expected: &[ExactRecord], pass: usize) -> Vec<String> {
        let got: BTreeMap<String, ExactRecord> =
            self.records.iter().map(|r| (r.key(), ExactRecord::of(r))).collect();
        expected
            .iter()
            .filter_map(|e| {
                let why = if !self.failed_gates.is_empty() {
                    format!("gate failed: {}", self.failed_gates.join(", "))
                } else if self.failed_bins.contains(&e.bench) {
                    "bin failed".to_string()
                } else {
                    match got.get(&e.key()) {
                        None => "missing".to_string(),
                        Some(g) if g != e => {
                            format!("got cycles {} checksum {:#x}", g.cycles, g.checksum)
                        }
                        Some(_) => return None,
                    }
                };
                Some(format!("pass {pass} {}/{}: {why}", e.bench, e.workload))
            })
            .collect()
    }

    /// Σ of one host phase over every record, in seconds.
    pub fn phase_s(&self, p: Phase) -> f64 {
        self.records.iter().filter_map(|r| r.host.as_ref()).map(|h| h.get(p)).sum::<f64>() / 1e3
    }

    /// Largest `peak_rss_kb` over the records, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.records.iter().filter_map(|r| r.host.as_ref()?.peak_rss_kb).max().unwrap_or(0) as f64
            / 1024.0
    }

    /// Σ record wall, in ms.
    pub fn record_ms(&self) -> f64 {
        self.records.iter().map(|r| r.wall_ms).sum()
    }

    /// Records whose (config digest, checksum, cycles) triple an earlier
    /// record already produced — work a memo would skip.
    pub fn repeats(&self) -> usize {
        let mut seen = BTreeSet::new();
        self.records
            .iter()
            .filter(|r| !seen.insert((r.config_digest, r.checksum, r.cycles)))
            .count()
    }

    /// Σ record wall per bin, in seconds.
    pub fn bin_walls_s(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            *out.entry(r.bench.clone()).or_insert(0.0) += r.wall_ms / 1e3;
        }
        out
    }
}

/// Where a pass writes: a fresh directory under `out`.
pub fn pass_dir(out: &Path, pass: usize) -> PathBuf {
    out.join(format!("figures-{}-{pass}", std::process::id()))
}
