//! Shared experiment harness for the figure-regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (see DESIGN.md's experiment index). This library
//! holds the common plumbing: running an application on every backend,
//! per-(app, dataset) sampling strides that keep the sweeps tractable,
//! geometric means, and plain-text table rendering for EXPERIMENTS.md.

use sc_gpm::exec::{ScalarBackend, SetBackend, StreamBackend};
use sc_gpm::App;
use sc_graph::{CsrGraph, Dataset};
use sc_host::Phase;
use sc_kernels::InnerOptions;
use sc_probe::{Attribution, Probe};
use sc_tensor::MatrixDataset;
use sparsecore::{Engine, SparseCoreConfig};

pub mod cli;
pub use cli::BenchCli;

/// One (backend, app, dataset) measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Estimated embedding count (exact when `stride == 1`).
    pub count: u64,
    /// Simulated cycles, scaled by the sampling stride.
    pub cycles: u64,
    /// The outer-loop sampling stride used.
    pub stride: usize,
    /// The stream engine's cycle attribution after `finish`, not scaled
    /// by the stride: its bins sum to `cycles / stride`. Empty for the
    /// CPU baseline.
    pub attr: Attribution,
}

/// The sampling stride for an (app, dataset) pair: 1 (exact) for the
/// small graphs and cheap apps, larger for the combinations whose full
/// enumeration would take minutes of host time. Strides scale the
/// reported cycles back up and both backends use the same stride, but
/// the speedup ratios are not unbiased: ROADMAP item 1 lists the
/// measured errors.
pub fn stride_for(app: App, d: Dataset) -> usize {
    use Dataset::*;
    let heavy_app =
        matches!(app, App::Clique4 | App::Clique4NoNested | App::Clique5 | App::Clique5NoNested);
    let medium_app = matches!(app, App::TailedTriangle | App::ThreeMotif | App::ThreeChain);
    match d {
        Citeseer | Gnutella08 => 1,
        EmailEuCore | BitcoinAlpha => {
            if heavy_app {
                4
            } else {
                1
            }
        }
        Haverford76 => {
            if heavy_app {
                8
            } else {
                1
            }
        }
        WikiVote => {
            if heavy_app {
                16
            } else if medium_app {
                2
            } else {
                1
            }
        }
        Mico => {
            if heavy_app {
                16
            } else if medium_app {
                4
            } else {
                2
            }
        }
        Youtube | Patent => {
            if heavy_app {
                16
            } else {
                4
            }
        }
        LiveJournal => {
            if heavy_app {
                32
            } else if medium_app {
                8
            } else {
                4
            }
        }
    }
}

/// Run `app` on the scalar CPU baseline with the given stride.
pub fn run_cpu(g: &CsrGraph, app: App, stride: usize) -> Measurement {
    let mut backend = ScalarBackend::new(g);
    let count = app.count(g, &mut backend, stride);
    let cycles = backend.finish() * stride as u64;
    Measurement { count, cycles, stride, attr: Attribution::default() }
}

/// Run `app` on SparseCore with the given configuration and stride,
/// with `probe` attached to the engine (pass [`Probe::off`] when the run
/// is not observed), and return the measurement, which carries the
/// engine's cycle attribution, and the backend for stats inspection.
/// After the run the engine's gauges (cycle attribution, breakdown,
/// memory-system state) are snapshotted into the probe and its span logs
/// submitted: counters and trace events accumulate across runs sharing
/// one probe, while gauges reflect the latest run.
pub fn run_sparsecore<'g>(
    g: &'g CsrGraph,
    app: App,
    cfg: SparseCoreConfig,
    stride: usize,
    probe: &Probe,
) -> (Measurement, StreamBackend<'g>) {
    let mut engine = Engine::new(cfg);
    engine.set_probe(probe.clone());
    let mut backend = StreamBackend::with_engine(g, engine, app.uses_nested());
    let count = app.count(g, &mut backend, stride);
    let cycles = backend.finish() * stride as u64;
    backend.engine().probe_snapshot();
    backend.engine().submit_spans(0);
    let attr = backend.engine().attribution();
    (Measurement { count, cycles, stride, attr }, backend)
}

/// Check the stream programs the given GPM apps' compiled plans emit,
/// under `--verify` and `--cost` (see [`BenchCli::check_programs`]).
/// The programs are the symbolic inner-loop bodies of
/// [`sc_gpm::Plan::emit_program`]: checking them proves the free
/// discipline, register pressure, writeback bounds and cycle bounds of
/// the loop the stream executor drives, before any graph is built.
pub fn check_gpm_plans(cli: &BenchCli, apps: &[App]) {
    cli.check_programs(&SparseCoreConfig::paper(), || {
        let mut programs = Vec::new();
        for &app in apps {
            for (i, plan) in app.plans().iter().enumerate() {
                programs.push((format!("{app}/plan{i}"), plan.emit_program()));
            }
        }
        programs
    });
}

/// Check the instruction traces of the tensor kernels on two small
/// fixtures, under `--verify` and `--cost`. The tensor kernels drive the
/// engine directly rather than emitting a program up front, so the
/// checkable artifact is a recorded trace: each kernel runs on a tiny
/// input with tracing on.
pub fn check_tensor_fixtures(cli: &BenchCli) {
    use sc_kernels::{gustavson, ttv, StreamTensorBackend};
    use sc_tensor::{CsfTensor, CsrMatrix};

    fn traced(kernel: impl FnOnce(&mut StreamTensorBackend)) -> sc_isa::Program {
        let mut backend = StreamTensorBackend::new();
        backend.engine_mut().record_trace();
        kernel(&mut backend);
        backend.take_lint_checked_trace().0
    }
    // `StreamTensorBackend::new` runs the paper configuration.
    cli.check_programs(&SparseCoreConfig::paper(), || {
        let a = CsrMatrix::from_triplets(
            3,
            3,
            &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (2, 0, 4.0), (2, 2, 5.0)],
        );
        let b =
            CsrMatrix::from_triplets(3, 3, &[(0, 1, 1.0), (1, 2, 2.0), (2, 0, 3.0), (2, 1, 4.0)]);
        let t = CsfTensor::from_entries(
            [2, 2, 3],
            &[(0, 0, 0, 1.0), (0, 1, 2, 2.0), (1, 0, 1, 3.0), (1, 1, 0, 4.0)],
        );
        vec![
            ("gustavson/3x3".into(), traced(|be| drop(gustavson(&a, &b, be)))),
            ("ttv/2x2x3".into(), traced(|be| drop(ttv(&t, &[1.0, 2.0, 3.0], be)))),
        ]
    });
}

/// Under `--cost`, re-run `app` on `g` with instruction tracing,
/// statically analyze the traced program with `sc-cost`, and assert
/// every stream length the engine observed falls inside the static
/// length hull (no-op without the flag). This is Figure 14's soundness
/// tie-in: the measured CDF's support must be contained in the interval
/// the abstract length domain derives for the very instructions that
/// produced it. An unbounded hull (⊤, as `S_NESTINTER`'s symbolic
/// lengths give) proves nothing and counts as a violation. Counted as
/// one `--cost` obligation.
pub fn cost_check_lengths(cli: &BenchCli, g: &CsrGraph, app: App, cfg: SparseCoreConfig) {
    if !cli.costing() {
        return;
    }
    let _scope = cli.phase(Phase::Verify);
    let mut engine = Engine::new(cfg);
    engine.record_trace();
    let mut backend = StreamBackend::with_engine(g, engine, app.uses_nested());
    app.count(g, &mut backend, 1);
    backend.finish();
    let observed = (backend.engine().stats().lengths.min(), backend.engine().stats().lengths.max());
    let trace = backend.engine_mut().take_trace();
    let hull = sc_cost::analyze_cost(&trace, &cfg).length_hull;
    let label = format!("{app}/lengths");
    match observed {
        _ if hull.hi >= sc_isa::Interval::len_top().hi => {
            cli.cost_check(&label, false, &format!("static hull {hull} is unbounded"));
        }
        (Some(min), Some(max)) => {
            let inside = |l: u32| hull.contains(&sc_isa::Interval::exact(u64::from(l)));
            cli.cost_check(
                &label,
                inside(min) && inside(max),
                &format!("observed lengths [{min}, {max}] within static hull {hull}"),
            );
        }
        _ => cli.cost_check(&label, false, "traced run observed no stream lengths"),
    }
}

/// Deterministic skewed spmspm workload for the adaptive-dataflow
/// series: the top half of `A`'s rows are dense (inner-friendly — long
/// rows amortize the per-column stream setups across the block), the
/// bottom half have a single nonzero each (Gustavson-friendly — only
/// the one named `B` row is ever touched). Blocks aligned to the halves
/// give a per-block chooser something a single global dataflow cannot
/// match.
pub fn skewed_spmspm(m: usize, n: usize) -> (sc_tensor::CsrMatrix, sc_tensor::CsrMatrix) {
    let mut t = Vec::new();
    let half = m / 2;
    for i in 0..half {
        for j in (0..n).step_by(2) {
            t.push((i as u32, j as u32, 1.0 + (i + j) as f64 * 0.01));
        }
    }
    for i in half..m {
        t.push((i as u32, ((i * 7) % n) as u32, 2.0));
    }
    let a = sc_tensor::CsrMatrix::from_triplets(m, n, &t);
    let b = sc_tensor::generators::random_matrix(n, n, n * n / 4, 99);
    (a, b)
}

/// The `--matrices C,E,F` filter over the Table 5 matrices, or all of
/// them when the flag is absent.
pub fn matrix_filter(cli: &BenchCli) -> Vec<MatrixDataset> {
    let all = MatrixDataset::ALL.into_iter();
    match cli.value("--matrices") {
        Some(list) => {
            let wanted: Vec<&str> = list.split(',').collect();
            all.filter(|m| wanted.contains(&m.tag())).collect()
        }
        None => all.collect(),
    }
}

/// Inner product visits all m*n pairs; sample rows on the large matrices.
pub fn inner_opts(m: MatrixDataset) -> InnerOptions {
    let stride = match m.spec().dim {
        d if d > 9000 => 64,
        d if d > 4000 => 32,
        d if d > 2000 => 16,
        d if d > 1500 => 8,
        _ => 4,
    };
    InnerOptions { row_sample: Some(stride) }
}

/// Sampling stride for the merge dataflows: 1 (exact) except on the
/// flop-heavy scaled matrices, whose rows/columns are sampled with the
/// same stride on every backend. The ratios are not unbiased; ROADMAP
/// item 1 lists the measured sampling errors.
pub fn merge_stride(m: MatrixDataset) -> usize {
    match m {
        MatrixDataset::Tsopf => 16,
        MatrixDataset::Gridgena | MatrixDataset::Ex19 => 4,
        _ => 1,
    }
}

/// Geometric mean of a non-empty slice (1.0 for an empty one).
pub fn gmean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Render a plain-text table: header row then aligned columns.
pub fn render_table(header: &[String], rows: &[Vec<String>]) -> String {
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Enable the invariant sanitizer when `--sanitize` is on the command
/// line. Sets `SC_SANITIZE=1` — read once by `sparsecore`'s config
/// constructors — so this must run before the first
/// `SparseCoreConfig` is built; call it first in every bench `main`.
pub fn init_sanitize(args: &[String]) {
    if args.iter().any(|a| a == "--sanitize") {
        std::env::set_var("SC_SANITIZE", "1");
        println!("# sanitizer: ON (--sanitize -> SC_SANITIZE=1)\n");
    }
}

/// Parse a `--datasets C,E,W` style CLI filter against Table 4 tags;
/// `None` means "no filter".
pub fn dataset_filter(args: &[String]) -> Option<Vec<Dataset>> {
    let pos = args.iter().position(|a| a == "--datasets")?;
    let list = args.get(pos + 1)?;
    let wanted: Vec<&str> = list.split(',').collect();
    Some(Dataset::ALL.into_iter().filter(|d| wanted.contains(&d.tag())).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gmean_basics() {
        assert!((gmean(&[4.0, 1.0]) - 2.0).abs() < 1e-12);
        assert_eq!(gmean(&[]), 1.0);
        assert!((gmean(&[8.0]) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn render_table_aligns() {
        let t = render_table(
            &["app".into(), "speedup".into()],
            &[vec!["T".into(), "13.5".into()], vec!["4C".into(), "7.2".into()]],
        );
        assert!(t.contains("app"));
        assert!(t.lines().count() == 4);
    }

    #[test]
    fn strides_are_sane() {
        for app in App::FIG8 {
            for d in Dataset::ALL {
                let s = stride_for(app, d);
                assert!((1..=32).contains(&s));
            }
        }
        // Small graphs with cheap apps are exact.
        assert_eq!(stride_for(App::Triangle, Dataset::Citeseer), 1);
    }

    #[test]
    fn sampled_run_is_consistent() {
        let g = Dataset::Citeseer.build();
        let exact = run_cpu(&g, App::Triangle, 1);
        assert_eq!(exact.count, App::Triangle.run_reference(&g));
        let sampled = run_cpu(&g, App::Triangle, 4);
        // The estimate should land within a factor ~2 on this graph.
        let ratio = sampled.count.max(1) as f64 / exact.count.max(1) as f64;
        assert!((0.3..3.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn every_fig8_plan_program_verifies_clean() {
        let cli = BenchCli::from_args(vec!["prog".into(), "--verify".into()]);
        check_gpm_plans(&cli, &App::FIG8);
        let (checked, rejected) = cli.verify_counts();
        assert!(checked >= App::FIG8.len(), "checked {checked}");
        assert_eq!(rejected, 0, "a shipped plan program was rejected");
    }

    #[test]
    fn tensor_kernel_traces_verify_clean() {
        let cli = BenchCli::from_args(vec!["prog".into(), "--verify".into()]);
        check_tensor_fixtures(&cli);
        assert_eq!(cli.verify_counts(), (2, 0));
    }

    #[test]
    fn every_fig8_plan_program_is_cost_sound() {
        let cli = BenchCli::from_args(vec!["prog".into(), "--cost".into()]);
        check_gpm_plans(&cli, &App::FIG8);
        let (checked, violated) = cli.cost_counts();
        assert!(checked >= App::FIG8.len(), "checked {checked}");
        assert_eq!(violated, 0, "a shipped plan program violated its static cost bounds");
    }

    #[test]
    fn tensor_kernel_traces_are_cost_sound() {
        let cli = BenchCli::from_args(vec!["prog".into(), "--cost".into()]);
        check_tensor_fixtures(&cli);
        assert_eq!(cli.cost_counts(), (2, 0));
    }

    #[test]
    fn traced_lengths_stay_inside_the_static_hull() {
        let cli = BenchCli::from_args(vec!["prog".into(), "--cost".into()]);
        let g = Dataset::Citeseer.build();
        cost_check_lengths(&cli, &g, App::TriangleNoNested, SparseCoreConfig::paper());
        assert_eq!(cli.cost_counts(), (1, 0), "observed length outside the static hull");
    }

    #[test]
    fn an_unbounded_length_hull_is_a_violation() {
        // S_NESTINTER's symbolic lengths widen T's static hull to the
        // whole length domain, which contains every observation and so
        // proves nothing.
        let mut cli = BenchCli::from_args(vec!["prog".into(), "--cost".into()]);
        cli.capture_output();
        let g = Dataset::Citeseer.build();
        cost_check_lengths(&cli, &g, App::Triangle, SparseCoreConfig::paper());
        assert_eq!(cli.cost_counts(), (1, 1), "{}", cli.captured_output());
        assert!(cli.captured_output().contains("T/lengths: VIOLATION"));
    }

    #[test]
    fn dataset_filter_parses() {
        let args: Vec<String> = vec!["prog".into(), "--datasets".into(), "E,W".into()];
        let f = dataset_filter(&args).unwrap();
        assert_eq!(f.len(), 2);
        assert!(dataset_filter(&["prog".to_string()]).is_none());
    }
}
