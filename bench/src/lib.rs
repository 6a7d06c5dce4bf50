//! Host-performance benchmark for the SparseCore reproduction.
//!
//! Four workloads, each run in its own single-threaded process as a
//! closed loop with one client:
//!
//! * `gpm` — Figure 8's nine apps on graphs C, G and E, CPU baseline and
//!   4-SU SparseCore;
//! * `dse` — the nine apps on E at 1–16 SUs (Figure 12), SparseCore only;
//! * `tensor` — Figure 15's spmspm, TTV and TTM set on both backends;
//! * `figures` — one pass of the golden record matrix through the bench
//!   bins and `sc-report` gates.
//!
//! End-to-end metrics come from untraced passes only. Per-layer metrics
//! come from one separate traced pass (`Timed<B>` around every backend
//! call) plus layer microbenchmarks. See `README.md` for the metric
//! definitions and what each should move.

pub mod check;
pub mod figures;
pub mod ledger;
pub mod micro;
pub mod report;
pub mod suite;
pub mod timed;

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sc_graph::Dataset;
use sc_host::Phase;
use sc_probe::json::{self, Value};

use check::Expected;
use ledger::{Ledger, Spans};
use micro::{Micro, MicroInputs};
use report::{collect, median, obj, Outcome, END_TO_END, PER_LAYER};
use suite::{Pass, Suite};

/// Fewest untraced passes of an in-process workload, whatever
/// `--seconds` says: the median needs three.
pub const MIN_PASSES: usize = 3;
/// Fewest set-up samples behind `setup_s`.
pub const MIN_SETUPS: usize = 5;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 8 on C, G, E, both backends.
    Gpm,
    /// Figure 12 on E, SparseCore only.
    Dse,
    /// Figure 15's tensor set, both backends.
    Tensor,
    /// The golden record matrix through the bench bins.
    Figures,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] =
        [Workload::Gpm, Workload::Dse, Workload::Tensor, Workload::Figures];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Gpm => "gpm",
            Workload::Dse => "dse",
            Workload::Tensor => "tensor",
            Workload::Figures => "figures",
        }
    }

    /// Look a workload up by name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The run list of an in-process workload (`None` for `figures`).
    pub fn suite(self) -> Option<Suite> {
        match self {
            Workload::Gpm => Some(Suite::gpm()),
            Workload::Dse => Some(Suite::dse()),
            Workload::Tensor => Some(Suite::tensor()),
            Workload::Figures => None,
        }
    }

    /// The figure bin whose golden records this workload's runs match.
    fn golden_bench(self) -> &'static str {
        match self {
            Workload::Gpm => "fig08_cpu_speedup",
            Workload::Dse => "fig12_sus",
            Workload::Tensor => "fig15_tensor",
            Workload::Figures => "",
        }
    }
}

/// Where the benchmark reads and writes, relative to the repository root.
#[derive(Debug, Clone)]
pub struct Paths {
    /// The repository root.
    pub root: PathBuf,
    /// The root workspace's release bins (`figures` runs them).
    pub bins: PathBuf,
}

impl Paths {
    /// `bench/expected/<workload>.json`.
    pub fn expected(&self, w: Workload) -> PathBuf {
        self.root.join("bench/expected").join(format!("{}.json", w.name()))
    }
    /// `bench/out`.
    pub fn out(&self) -> PathBuf {
        self.root.join("bench/out")
    }
    /// `results/golden`.
    pub fn golden(&self) -> PathBuf {
        self.root.join("results/golden")
    }
}

/// A run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Settings {
    /// Input seed (`figures` always uses seed 0).
    pub seed: u64,
    /// Least time the untraced passes measure.
    pub seconds: u64,
    /// Report per-layer metrics from a traced pass instead of the
    /// end-to-end ones.
    pub trace: bool,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Run one workload and gather everything it reports.
///
/// # Errors
///
/// The workload could not run (a missing bin or expected file, I/O).
/// Failed operations are not errors: they are counted in the outcome.
pub fn run_workload(w: Workload, s: Settings, paths: &Paths) -> Result<Outcome, String> {
    match w.suite() {
        Some(suite) => run_in_process(w, &suite, s, paths),
        None => run_figures(s, paths),
    }
}

/// Untraced passes until `seconds` have passed (at least [`MIN_PASSES`]).
fn timed_passes(suite: &Suite, seed: u64, seconds: u64) -> Vec<Pass> {
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < MIN_PASSES || start.elapsed() < Duration::from_secs(seconds) {
        passes.push(suite.run_pass(seed, passes.is_empty(), None));
    }
    passes
}

/// Work a memo keyed on (machine, checksum, cycles) would skip.
fn run_repeats(suite: &Suite, pass: &Pass) -> usize {
    let mut seen = BTreeSet::new();
    suite
        .runs
        .iter()
        .zip(&pass.runs)
        .filter(|(r, o)| !seen.insert((r.side.digest(), o.checksum, o.cycles)))
        .count()
}

fn run_in_process(
    w: Workload,
    suite: &Suite,
    s: Settings,
    paths: &Paths,
) -> Result<Outcome, String> {
    let expected = if s.seed == 0 { Some(Expected::load(&paths.expected(w))?) } else { None };
    let passes = timed_passes(suite, s.seed, s.seconds);
    let mut setups: Vec<f64> = passes.iter().map(|p| secs(p.setup.total_ns())).collect();
    while setups.len() < MIN_SETUPS {
        setups.push(secs(suite.setup(s.seed, None).1.total_ns()));
    }
    let rss_mb = sc_host::rss::peak_rss_kb().unwrap_or(0) as f64 / 1024.0;
    let walls: Vec<f64> = passes.iter().map(|p| secs(p.wall_ns)).collect();

    let mut details = BTreeMap::from([("passes".to_string(), Value::Num(passes.len() as f64))]);
    let traced = s.trace.then(|| {
        let (inputs, _) = suite.setup(s.seed, None);
        let micro_in = if suite.graphs.is_empty() {
            MicroInputs::from_matrices(inputs.matrices())
        } else {
            MicroInputs::from_graphs(inputs.graphs())
        };
        drop(inputs);
        traced_layers(suite, &passes, s.seed, &micro_in, paths, w.name())
    });
    let mut all: Vec<&Pass> = passes.iter().collect();
    let metrics = match &traced {
        None => collect(
            &END_TO_END,
            BTreeMap::from([("wall_s", walls), ("setup_s", setups), ("peak_rss_mb", vec![rss_mb])]),
        ),
        Some((pass, samples, ledger_details)) => {
            all.push(pass);
            details.insert("ledger".into(), ledger_details.clone());
            collect(&PER_LAYER, samples.clone())
        }
    };
    let (attempted, failures) = check::check_passes(suite, &all, expected.as_ref(), s.seed);
    let speedups = gpm_tensor_speedups(w, suite, &passes[0]);
    details.insert("speedup_info".into(), speedup_info(w.golden_bench(), &speedups, paths));
    Ok(Outcome { workload: w.name(), attempted, failures, metrics, details: Value::Obj(details) })
}

/// The traced pass, its per-layer metric samples, and the ledger
/// breakdown; writes `bench/out/<workload>.trace.json`.
fn traced_layers(
    suite: &Suite,
    passes: &[Pass],
    seed: u64,
    micro_in: &MicroInputs,
    paths: &Paths,
    name: &str,
) -> (Pass, BTreeMap<&'static str, Vec<f64>>, Value) {
    let mut spans = Spans::new();
    let pass = suite.run_pass(seed, false, Some(&mut spans));
    let ledger = Ledger::from_pass(suite, &pass);
    let micro = micro::run(micro_in);
    let untraced = median(&passes.iter().map(|p| secs(p.wall_ns)).collect::<Vec<_>>());
    let mut samples = layer_samples(&ledger, &micro);
    samples.insert("trace.overhead_pct", vec![(secs(pass.wall_ns) / untraced - 1.0) * 100.0]);
    samples.insert(
        "harness.outside_ms",
        passes
            .iter()
            .map(|p| p.wall_ns.saturating_sub(p.runs.iter().map(|r| r.wall_ns).sum()) as f64 / 1e6)
            .collect(),
    );
    insert_runs(&mut samples, suite.runs.len(), run_repeats(suite, &passes[0]));
    let details = ledger_details(&ledger, &micro);
    write_trace(paths, name, &spans);
    (pass, samples, details)
}

fn insert_runs(samples: &mut BTreeMap<&'static str, Vec<f64>>, runs: usize, repeats: usize) {
    samples.insert("runs.count", vec![runs as f64]);
    samples.insert("runs.repeat", vec![repeats as f64]);
    samples.insert("runs.distinct_ratio", vec![(runs - repeats) as f64 / runs.max(1) as f64]);
}

fn layer_samples(ledger: &Ledger, micro: &Micro) -> BTreeMap<&'static str, Vec<f64>> {
    let mut samples: BTreeMap<&'static str, Vec<f64>> =
        ledger.metrics(micro).into_iter().map(|(k, v)| (k, vec![v])).collect();
    samples.extend(micro.samples.iter().map(|(k, v)| (*k, v.clone())));
    samples
}

/// Print the host-cost reconciliation and return it for `results.json`.
fn ledger_details(ledger: &Ledger, micro: &Micro) -> Value {
    let m = ledger.metrics(micro);
    let (pred_cpu, pred_sc) = ledger.predicted_ns(micro);
    for (side, measured, predicted, residual) in [
        ("cpu", m["cpu.sim_ms"], pred_cpu / 1e6, m["ledger.cpu_residual_pct"]),
        ("sc", m["sc.sim_ms"], pred_sc / 1e6, m["ledger.sc_residual_pct"]),
    ] {
        eprintln!(
            "ledger {side}: measured {measured:.1} ms, predicted {predicted:.1} ms (Σ counts × ns/op), residual {residual:+.1}%"
        );
    }
    obj([
        ("calls", ledger.breakdown()),
        (
            "predicted_ms",
            obj([("cpu", Value::Num(pred_cpu / 1e6)), ("sc", Value::Num(pred_sc / 1e6))]),
        ),
    ])
}

fn write_trace(paths: &Paths, name: &str, spans: &Spans) {
    let out = paths.out();
    let path = out.join(format!("{name}.trace.json"));
    if let Err(e) =
        std::fs::create_dir_all(&out).and_then(|_| std::fs::write(&path, spans.to_chrome_json()))
    {
        eprintln!("cannot write {}: {e}", path.display());
    }
}

/// `(golden-style workload id, speedup)` pairs of the in-process runs:
/// CPU over SparseCore cycles per app or kernel and dataset, or — for
/// `dse` — 1-SU over n-SU cycles.
fn gpm_tensor_speedups(w: Workload, suite: &Suite, pass: &Pass) -> Vec<(String, f64)> {
    let cycles: BTreeMap<&str, u64> =
        suite.runs.iter().zip(&pass.runs).map(|(r, o)| (r.name.as_str(), o.cycles)).collect();
    let mut out = Vec::new();
    for r in &suite.runs {
        let sp = match w {
            Workload::Dse if !r.name.ends_with("/su1") => cycles
                .get(format!("{}/su1", r.group).as_str())
                .map(|b| (r.name.clone(), *b, cycles[r.name.as_str()])),
            _ if r.name.ends_with("/sc") => cycles
                .get(format!("{}/cpu", r.group).as_str())
                .map(|b| (r.group.clone(), *b, cycles[r.name.as_str()])),
            _ => None,
        };
        if let Some((id, base, c)) = sp {
            out.push((id, base as f64 / c.max(1) as f64));
        }
    }
    out
}

fn gmean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len().max(1) as f64).exp()
}

/// Print each simulated speedup geomean beside the matching
/// `results/paper_reference.json` entry, or as unvalidated. Not gated.
fn speedup_info(bench: &str, speedups: &[(String, f64)], paths: &Paths) -> Value {
    let refs = std::fs::read_to_string(paths.root.join("results/paper_reference.json"))
        .ok()
        .and_then(|d| json::parse(&d).ok())
        .and_then(|v| v.get("figures").and_then(Value::as_obj).cloned())
        .unwrap_or_default();
    let mut out = BTreeMap::new();
    let mut matched = vec![false; speedups.len()];
    for (key, e) in &refs {
        if e.get("bench").and_then(Value::as_str) != Some(bench) {
            continue;
        }
        let prefix = e.get("workload_prefix").and_then(Value::as_str).unwrap_or("");
        let mut xs = Vec::new();
        for (i, (id, s)) in speedups.iter().enumerate() {
            if id.starts_with(prefix) {
                xs.push(*s);
                matched[i] = true;
            }
        }
        let reference = e.get("reference_gmean").and_then(Value::as_f64);
        if let (false, Some(r)) = (xs.is_empty(), reference) {
            let g = gmean(&xs);
            eprintln!(
                "info: {key}: speedup gmean {g:.3} vs reference {r} (gap {:+.1}%)",
                (g / r - 1.0) * 100.0
            );
            out.insert(key.clone(), obj([("gmean", Value::Num(g)), ("reference", Value::Num(r))]));
        }
    }
    let rest: Vec<f64> =
        speedups.iter().zip(&matched).filter(|(_, m)| !**m).map(|((_, s), _)| *s).collect();
    if !rest.is_empty() {
        let g = gmean(&rest);
        eprintln!(
            "info: {bench}: {} speedups without a reference entry: gmean {g:.3} (unvalidated)",
            rest.len()
        );
        out.insert("unvalidated".into(), obj([("gmean", Value::Num(g))]));
    }
    Value::Obj(out)
}

fn run_figures(s: Settings, paths: &Paths) -> Result<Outcome, String> {
    let expected = figures::load_expected(&paths.expected(Workload::Figures))?;
    let out = paths.out();
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed() < Duration::from_secs(s.seconds) {
        passes.push(figures::run_pass(&paths.bins, &figures::pass_dir(&out, passes.len()))?);
    }
    let mut failures = Vec::new();
    for (i, p) in passes.iter().enumerate() {
        failures.extend(p.check(&expected, i));
    }
    let mut attempted = (expected.len() * passes.len()) as u64;
    let last = passes.last().expect("at least one pass");
    let mut details = BTreeMap::from([
        ("passes".to_string(), Value::Num(passes.len() as f64)),
        (
            "bin_wall_s".to_string(),
            Value::Obj(last.bin_walls_s().into_iter().map(|(k, v)| (k, Value::Num(v))).collect()),
        ),
        (
            "phase_s".to_string(),
            Value::Obj(
                Phase::ALL
                    .iter()
                    .map(|p| (p.name().to_string(), Value::Num(last.phase_s(*p))))
                    .collect(),
            ),
        ),
    ]);
    let mut info = BTreeMap::new();
    for (bin, _) in figures::BINS {
        let own: Vec<(String, f64)> = last
            .records
            .iter()
            .filter(|r| r.bench == bin)
            .filter_map(|r| Some((r.workload.clone(), r.speedup()?)))
            .collect();
        if !own.is_empty() {
            info.insert(bin.to_string(), speedup_info(bin, &own, paths));
        }
    }
    details.insert("speedup_info".into(), Value::Obj(info));

    let metrics = if s.trace {
        let slice = Suite::figures_slice();
        let untraced = timed_passes(&slice, 0, 0);
        // The microbenchmarks draw on the graphs most of the bins use.
        let graphs = [suite::graph(Dataset::Citeseer, 0), suite::graph(Dataset::EmailEuCore, 0)];
        let micro_in = MicroInputs::from_graphs(graphs.iter());
        let (pass, mut samples, ledger) =
            traced_layers(&slice, &untraced, 0, &micro_in, paths, "figures");
        let (replayed, f) = check::check_passes(&slice, &[&untraced[0], &pass], None, 0);
        attempted += replayed;
        failures.extend(f.into_iter().map(|f| format!("replay {f}")));
        // Run counts and the time outside runs come from the bins' own
        // registries, not from the replay.
        insert_runs(&mut samples, last.records.len(), last.repeats());
        samples.insert(
            "harness.outside_ms",
            passes.iter().map(|p| p.wall_ns as f64 / 1e6 - p.record_ms()).collect(),
        );
        details.insert("ledger".into(), ledger);
        collect(&PER_LAYER, samples)
    } else {
        collect(
            &END_TO_END,
            BTreeMap::from([
                ("wall_s", passes.iter().map(|p| secs(p.wall_ns)).collect()),
                ("setup_s", passes.iter().map(|p| p.phase_s(Phase::Generate)).collect()),
                ("peak_rss_mb", passes.iter().map(|p| p.peak_rss_mb()).collect()),
            ]),
        )
    };
    Ok(Outcome { workload: "figures", attempted, failures, metrics, details: Value::Obj(details) })
}

/// Regenerate `bench/expected/<workload>.json` from one seed-0 pass, and
/// check it against the golden registries it overlaps.
///
/// # Errors
///
/// The pass could not run, the file could not be written, or the new
/// pins disagree with `results/golden`.
pub fn write_expected(w: Workload, paths: &Paths) -> Result<(), String> {
    let path = paths.expected(w);
    let doc = match w.suite() {
        Some(suite) => {
            let pass = suite.run_pass(0, false, None);
            let e = Expected::from_pass(&suite, &pass);
            let bad = golden_mismatches(w, &e, paths)?;
            if !bad.is_empty() {
                return Err(format!("pins disagree with results/golden:\n{}", bad.join("\n")));
            }
            e.render(w.name(), &suite)
        }
        None => {
            let pass = figures::run_pass(&paths.bins, &figures::pass_dir(&paths.out(), 0))?;
            let got: Vec<figures::ExactRecord> =
                pass.records.iter().map(figures::ExactRecord::of).collect();
            let golden = golden_records(paths)?;
            if got != golden {
                return Err(format!(
                    "the figures pass ({} records) differs from results/golden ({} distinct records)",
                    got.len(),
                    golden.len()
                ));
            }
            figures::render_expected(&got)
        }
    };
    std::fs::write(&path, doc).map_err(|e| format!("{}: {e}", path.display()))
}

/// Distinct exact records of `results/golden`, in registry order
/// (repeated records must agree exactly).
///
/// # Errors
///
/// Unreadable registry, or two records with one key but different
/// exact fields.
pub fn golden_records(paths: &Paths) -> Result<Vec<figures::ExactRecord>, String> {
    let mut out: Vec<figures::ExactRecord> = Vec::new();
    for (bin, _) in figures::BINS {
        let path = paths.golden().join(format!("{bin}.json"));
        let doc = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        for r in sc_report::parse_record_file(&doc)? {
            let e = figures::ExactRecord::of(&r);
            match out.iter().find(|x| x.key() == e.key()) {
                Some(x) if *x != e => {
                    return Err(format!("golden repeats of {} disagree", e.key()))
                }
                Some(_) => {}
                None => out.push(e),
            }
        }
    }
    Ok(out)
}

/// Pins of `e` that contradict a golden record of the same run. Errors
/// if no pin overlaps the golden registry at all (a broken mapping).
///
/// # Errors
///
/// Unreadable golden registry, or no overlap.
pub fn golden_mismatches(w: Workload, e: &Expected, paths: &Paths) -> Result<Vec<String>, String> {
    let path = paths.golden().join(format!("{}.json", w.golden_bench()));
    let doc = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut bad = Vec::new();
    let mut overlap = 0;
    for r in sc_report::parse_record_file(&doc)? {
        let sc_name =
            if w == Workload::Dse { r.workload.clone() } else { format!("{}/sc", r.workload) };
        if let Some(&(checksum, cycles)) = e.runs.get(&sc_name) {
            overlap += 1;
            if (checksum, cycles) != (r.checksum, r.cycles) {
                bad.push(format!(
                    "{sc_name}: pinned {checksum:#x}/{cycles}, golden {:#x}/{}",
                    r.checksum, r.cycles
                ));
            }
        }
        if let (Some(&(_, cycles)), Some(base)) =
            (e.runs.get(&format!("{}/cpu", r.workload)), r.baseline_cycles)
        {
            overlap += 1;
            if cycles != base {
                bad.push(format!("{}/cpu: pinned {cycles}, golden baseline {base}", r.workload));
            }
        }
    }
    if overlap == 0 {
        return Err(format!("no {} pin overlaps {}", w.name(), path.display()));
    }
    Ok(bad)
}

/// Parse `--flag value` arguments.
///
/// # Errors
///
/// Unknown flags, missing values, or values out of range.
pub fn parse_args(
    args: &[String],
) -> Result<(Option<Workload>, Settings, Option<PathBuf>, bool), String> {
    let mut w = None;
    let mut s = Settings { seed: 0, seconds: 10, trace: false };
    let mut bins = None;
    let mut write = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let v = val()?;
                w = Some(Workload::parse(v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => s.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                s.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s.seconds > 120 {
                    return Err("--seconds must be at most 120".into());
                }
            }
            "--trace" => {
                s.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--bins" => bins = Some(PathBuf::from(val()?)),
            "--write-expected" => write = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok((w, s, bins, write))
}

/// The repository root, found from the working directory.
///
/// # Errors
///
/// When the working directory is not the root of a checkout.
pub fn repo_root() -> Result<PathBuf, String> {
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    if cwd.join("bench/Cargo.toml").is_file() && cwd.join("Cargo.toml").is_file() {
        Ok(cwd)
    } else {
        Err(format!("{} is not the repository root", cwd.display()))
    }
}
