//! Figure 16: flexibility vs specialization for spmspm.
//!
//! Geometric-mean speedups over SparseCore-with-inner-product for:
//! ExTensor (inner), SparseCore-outer, OuterSPACE (outer),
//! SparseCore-Gustavson, Gamma (Gustavson) — one computation unit each.
//! Expected shape (paper): a better algorithm on SparseCore beats a
//! specialized accelerator running a worse algorithm, while each
//! specialized design beats SparseCore on its own dataflow (5.2x / 3.1x /
//! 2.4x).
//!
//! Usage: `cargo run --release -p sc-bench --bin fig16_tensor_accels
//! [--matrices C,E,F]`

use sc_accel::{ExTensorBackend, GammaBackend, OuterSpaceBackend};
use sc_bench::{gmean, inner_opts, matrix_filter, merge_stride, render_table, BenchCli, MATRICES};
use sc_host::Phase;
use sc_kernels::{
    adaptive, gustavson_sampled, inner_product, outer_product_sampled, AdaptiveOptions,
    StreamTensorBackend,
};
use sc_probe::Attribution;
use sparsecore::{Engine, SparseCoreConfig};

fn main() {
    let cli = BenchCli::parse_with(&[MATRICES]);
    sc_bench::check_tensor_fixtures(&cli);
    let matrices = matrix_filter(&cli);
    let cfg = SparseCoreConfig::paper_one_su();
    // Per-worker engines keep what they report under `--metrics` or
    // `--trace` item-local under a parallel sweep.
    let mk_engine = |w: &BenchCli| {
        let mut e = Engine::new(cfg);
        e.set_probe(w.probe());
        e
    };

    let per_matrix = cli.sweep(&matrices, |w, m| {
        let a = w.in_phase(Phase::Generate, || m.build());
        let acsc = w.in_phase(Phase::Generate, || a.to_csc());
        let opts = inner_opts(*m);
        // Baseline: SparseCore inner product.
        let sim = w.phase(Phase::Simulate);
        let sc_inner_run =
            inner_product(&a, &acsc, &mut StreamTensorBackend::with_engine(mk_engine(w)), opts);
        let sc_inner = sc_inner_run.cycles;
        let stride = merge_stride(*m);
        let ext = inner_product(&a, &acsc, &mut ExTensorBackend::new(), opts).cycles;
        let sc_outer_run = outer_product_sampled(
            &acsc,
            &a,
            &mut StreamTensorBackend::with_engine(mk_engine(w)),
            stride,
        );
        let sc_outer = sc_outer_run.cycles;
        let osp = outer_product_sampled(&acsc, &a, &mut OuterSpaceBackend::new(), stride).cycles;
        let sc_gus_run =
            gustavson_sampled(&a, &a, &mut StreamTensorBackend::with_engine(mk_engine(w)), stride);
        let sc_gus = sc_gus_run.cycles;
        let gam = gustavson_sampled(&a, &a, &mut GammaBackend::new(), stride).cycles;
        // Flexibility taken one step further: SparseCore picking its own
        // dataflow per row block from the static cost model.
        let adapt_opts = AdaptiveOptions { block_rows: 8, block_sample: opts.row_sample };
        let sc_adapt_run =
            adaptive(&a, &a, &mut StreamTensorBackend::with_engine(mk_engine(w)), &cfg, adapt_opts);
        let sc_adapt = sc_adapt_run.result.cycles;
        drop(sim);

        // SparseCore-side runs become records; the inner-product run is
        // everyone's comparison point, matching the figure's baseline.
        let tag = m.tag();
        w.record(
            &format!("inner/{tag}"),
            Some(&cfg),
            sc_inner_run.c.nnz() as u64,
            sc_inner,
            None,
            Attribution::default(),
        );
        w.record(
            &format!("outer/{tag}"),
            Some(&cfg),
            sc_outer_run.c.nnz() as u64,
            sc_outer,
            Some(sc_inner),
            Attribution::default(),
        );
        w.record(
            &format!("gustavson/{tag}"),
            Some(&cfg),
            sc_gus_run.c.nnz() as u64,
            sc_gus,
            Some(sc_inner),
            Attribution::default(),
        );
        w.record(
            &format!("adaptive/{tag}"),
            Some(&cfg),
            sc_adapt_run.result.c.nnz() as u64,
            sc_adapt,
            Some(sc_inner),
            Attribution::default(),
        );

        let base = sc_inner.max(1) as f64;
        eprintln!(
            "  {}: sc-inner={sc_inner} extensor={ext} sc-outer={sc_outer} outerspace={osp} sc-gus={sc_gus} gamma={gam} sc-adaptive={sc_adapt}",
            m.tag()
        );
        [ext, sc_outer, osp, sc_gus, gam, sc_adapt].map(|c| base / c.max(1) as f64)
    });
    let mut sp = vec![Vec::new(); 6];
    for speedups in &per_matrix {
        for (i, &s) in speedups.iter().enumerate() {
            sp[i].push(s);
        }
    }

    println!("# Figure 16: gmean speedup over SparseCore inner-product (1 unit each)\n");
    let labels = [
        "ExTensor (inner)",
        "SparseCore outer",
        "OuterSPACE (outer)",
        "SparseCore gustavson",
        "Gamma (gustavson)",
        "SparseCore adaptive",
    ];
    let rows: Vec<Vec<String>> = labels
        .iter()
        .zip(&sp)
        .map(|(l, xs)| vec![l.to_string(), format!("{:.2}", gmean(xs))])
        .collect();
    println!("{}", render_table(&["design".to_string(), "gmean speedup".to_string()], &rows));
    println!("\n(paper: specialized beats SparseCore per dataflow — 5.2x inner,");
    println!(" 3.1x outer, 2.4x Gustavson — while better algorithms on");
    println!(" SparseCore beat specialized designs running worse ones)");
    cli.write_probe_outputs();
}
