//! Figure 15: tensor-computation speedups over the CPU baseline.
//!
//! (a) spmspm `A*A` under the three dataflows on the eleven Table 5
//! matrices; (b) TTV and TTM on the two Table 5 tensors. One SU per the
//! paper's tensor evaluation. Expected shape: inner product gains most
//! (paper avg 6.9x), then TTM 4.49x, Gustavson 2.78x, TTV 2.44x, outer
//! product 1.88x; TSOPF towers above the other matrices.
//!
//! A third panel (not in the paper) reports the cost-model-driven
//! adaptive dataflow chooser: spmspm with the dataflow picked per row
//! block from `sc-cost`'s static estimates, plus a measured oracle on a
//! skewed synthetic workload bounding the chooser's regret.
//!
//! Usage: `cargo run --release -p sc-bench --bin fig15_tensor
//! [--matrices C,E,F] [--skip-tensors]`

use sc_bench::{gmean, inner_opts, matrix_filter, merge_stride, render_table, BenchCli, MATRICES};
use sc_host::Phase;
use sc_kernels::{
    adaptive, adaptive_oracle, gustavson, gustavson_sampled, inner_product, outer_product,
    outer_product_sampled, ttm_sampled, ttv_sampled, AdaptiveOptions, InnerOptions,
    ScalarTensorBackend, StreamTensorBackend,
};
use sc_probe::args::Flag;
use sc_probe::Attribution;
use sc_tensor::TensorDataset;
use sparsecore::{Engine, SparseCoreConfig};

fn main() {
    let cli = BenchCli::parse_with(&[MATRICES, Flag::switch("--skip-tensors")]);
    sc_bench::check_tensor_fixtures(&cli);
    let matrices = matrix_filter(&cli);
    let skip_tensors = cli.flag("--skip-tensors");
    let cfg = SparseCoreConfig::paper_one_su();
    // Each sweep worker builds engines against its own probe, so what
    // they report under `--metrics` or `--trace` stays item-local.
    let mk_engine = |w: &BenchCli| {
        let mut e = Engine::new(cfg);
        e.set_probe(w.probe());
        e
    };

    println!("# Figure 15(a): spmspm A*A speedup over CPU, per dataflow\n");
    let header = vec![
        "matrix".to_string(),
        "inner".to_string(),
        "outer".to_string(),
        "gustavson".to_string(),
    ];
    let panel_a = cli.sweep(&matrices, |w, &m| {
        let a = w.in_phase(Phase::Generate, || m.build());
        let acsc = w.in_phase(Phase::Generate, || a.to_csc());
        let opts = inner_opts(m);

        let sim = w.phase(Phase::Simulate);
        let cpu_in = inner_product(&a, &acsc, &mut ScalarTensorBackend::new(), opts);
        let sc_in =
            inner_product(&a, &acsc, &mut StreamTensorBackend::with_engine(mk_engine(w)), opts);
        let s_in = cpu_in.cycles as f64 / sc_in.cycles.max(1) as f64;

        let stride = merge_stride(m);
        let cpu_out = outer_product_sampled(&acsc, &a, &mut ScalarTensorBackend::new(), stride);
        let sc_out = outer_product_sampled(
            &acsc,
            &a,
            &mut StreamTensorBackend::with_engine(mk_engine(w)),
            stride,
        );
        let s_out = cpu_out.cycles as f64 / sc_out.cycles.max(1) as f64;

        let cpu_gus = gustavson_sampled(&a, &a, &mut ScalarTensorBackend::new(), stride);
        let sc_gus =
            gustavson_sampled(&a, &a, &mut StreamTensorBackend::with_engine(mk_engine(w)), stride);
        let s_gus = cpu_gus.cycles as f64 / sc_gus.cycles.max(1) as f64;
        drop(sim);

        // Product nnz is the functional checksum: both sides must build
        // the same C, and the regression gate exact-compares it.
        let tag = m.tag();
        w.record(
            &format!("inner/{tag}"),
            Some(&cfg),
            sc_in.c.nnz() as u64,
            sc_in.cycles,
            Some(cpu_in.cycles),
            Attribution::default(),
        );
        w.record(
            &format!("outer/{tag}"),
            Some(&cfg),
            sc_out.c.nnz() as u64,
            sc_out.cycles,
            Some(cpu_out.cycles),
            Attribution::default(),
        );
        w.record(
            &format!("gustavson/{tag}"),
            Some(&cfg),
            sc_gus.c.nnz() as u64,
            sc_gus.cycles,
            Some(cpu_gus.cycles),
            Attribution::default(),
        );
        eprintln!("  {}: inner {s_in:.2} outer {s_out:.2} gustavson {s_gus:.2}", m.tag());
        (s_in, s_out, s_gus)
    });
    let mut rows = Vec::new();
    let (mut sp_in, mut sp_out, mut sp_gus) = (Vec::new(), Vec::new(), Vec::new());
    for (m, &(s_in, s_out, s_gus)) in matrices.iter().zip(&panel_a) {
        sp_in.push(s_in);
        sp_out.push(s_out);
        sp_gus.push(s_gus);
        rows.push(vec![
            m.tag().to_string(),
            format!("{s_in:.2}"),
            format!("{s_out:.2}"),
            format!("{s_gus:.2}"),
        ]);
    }
    rows.push(vec![
        "gmean".to_string(),
        format!("{:.2}", gmean(&sp_in)),
        format!("{:.2}", gmean(&sp_out)),
        format!("{:.2}", gmean(&sp_gus)),
    ]);
    println!("{}", render_table(&header, &rows));
    println!("(paper: avg 6.9x inner, 1.88x outer, 2.78x Gustavson; TSOPF highest)\n");

    println!("# Figure 15(c): adaptive per-block dataflow chooser\n");
    let header = vec![
        "matrix".to_string(),
        "speedup".to_string(),
        "blocks inner/outer/gustavson".to_string(),
    ];
    let mut rows = cli.sweep(&matrices, |w, &m| {
        let a = w.in_phase(Phase::Generate, || m.build());
        // Block sampling at the inner-product stride keeps the chooser's
        // worst case (all blocks pick inner) as cheap as panel (a).
        let opts = AdaptiveOptions { block_rows: 8, block_sample: inner_opts(m).row_sample };
        let cpu = w.in_phase(Phase::Simulate, || {
            adaptive(&a, &a, &mut ScalarTensorBackend::new(), &cfg, opts)
        });
        let sc = w.in_phase(Phase::Simulate, || {
            adaptive(&a, &a, &mut StreamTensorBackend::with_engine(mk_engine(w)), &cfg, opts)
        });
        let s = cpu.result.cycles as f64 / sc.result.cycles.max(1) as f64;
        w.record(
            &format!("adaptive/{}", m.tag()),
            Some(&cfg),
            sc.result.c.nnz() as u64,
            sc.result.cycles,
            Some(cpu.result.cycles),
            Attribution::default(),
        );
        let [ci, co, cg] = sc.chosen_counts();
        eprintln!("  {}: adaptive {s:.2} (blocks {ci}/{co}/{cg})", m.tag());
        vec![m.tag().to_string(), format!("{s:.2}"), format!("{ci}/{co}/{cg}")]
    });

    // Skewed synthetic: half dense rows (inner wins), half single-nonzero
    // rows (Gustavson wins). The per-block chooser must beat every fixed
    // dataflow here, and the measured oracle bounds its regret.
    let (sa, sb) = cli.in_phase(Phase::Generate, || sc_bench::skewed_spmspm(32, 32));
    let sbcsc = cli.in_phase(Phase::Generate, || sb.to_csc());
    let sacsc = cli.in_phase(Phase::Generate, || sa.to_csc());
    let skew_sim = cli.phase(Phase::Simulate);
    let fixed = [
        inner_product(
            &sa,
            &sbcsc,
            &mut StreamTensorBackend::with_engine(mk_engine(&cli)),
            InnerOptions::default(),
        )
        .cycles,
        outer_product(&sacsc, &sb, &mut StreamTensorBackend::with_engine(mk_engine(&cli))).cycles,
        gustavson(&sa, &sb, &mut StreamTensorBackend::with_engine(mk_engine(&cli))).cycles,
    ];
    let opts = AdaptiveOptions { block_rows: 16, block_sample: None };
    let ad = adaptive(&sa, &sb, &mut StreamTensorBackend::with_engine(mk_engine(&cli)), &cfg, opts);
    let or = adaptive_oracle(
        &sa,
        &sb,
        &mut StreamTensorBackend::with_engine(mk_engine(&cli)),
        || StreamTensorBackend::with_engine(Engine::new(cfg)),
        opts,
    );
    let (worst, best) = (*fixed.iter().max().unwrap(), *fixed.iter().min().unwrap());
    assert!(
        ad.result.cycles <= worst && ad.result.cycles < best,
        "adaptive chooser regressed on skew32: adaptive {} vs fixed {fixed:?}",
        ad.result.cycles
    );
    assert!(
        or.result.cycles <= ad.result.cycles,
        "oracle {} above adaptive {} on skew32",
        or.result.cycles,
        ad.result.cycles
    );
    drop(skew_sim);
    cli.record(
        "adaptive/skew32",
        Some(&cfg),
        ad.result.c.nnz() as u64,
        ad.result.cycles,
        Some(best),
        Attribution::default(),
    );
    cli.record(
        "oracle/skew32",
        Some(&cfg),
        or.result.c.nnz() as u64,
        or.result.cycles,
        Some(ad.result.cycles),
        Attribution::default(),
    );
    rows.push(vec![
        "skew32 (vs best fixed)".to_string(),
        format!("{:.2}", best as f64 / ad.result.cycles.max(1) as f64),
        {
            let [ci, co, cg] = ad.chosen_counts();
            format!("{ci}/{co}/{cg}")
        },
    ]);
    println!("{}", render_table(&header, &rows));
    println!(
        "(skew32: fixed inner/outer/gustavson = {}/{}/{} cycles; adaptive = {}; oracle = {})\n",
        fixed[0], fixed[1], fixed[2], ad.result.cycles, or.result.cycles
    );

    if !skip_tensors {
        println!("# Figure 15(b): TTV and TTM speedup over CPU\n");
        let rows = cli.sweep(&TensorDataset::ALL, |w, &t| {
            let a = w.in_phase(Phase::Generate, || t.build());
            let d2 = a.dims()[2];
            // Fiber sampling keeps the dense-operand dots tractable; both
            // backends use the same stride. Factor rank 8.
            let stride = 16usize;
            let v: Vec<f64> = (0..d2).map(|i| 0.5 + (i % 17) as f64 * 0.1).collect();
            let sim = w.phase(Phase::Simulate);
            let cpu_ttv = ttv_sampled(&a, &v, &mut ScalarTensorBackend::new(), stride);
            let sc_ttv =
                ttv_sampled(&a, &v, &mut StreamTensorBackend::with_engine(mk_engine(w)), stride);
            let s_ttv = cpu_ttv.cycles as f64 / sc_ttv.cycles.max(1) as f64;

            let b: Vec<Vec<f64>> = (0..8)
                .map(|k| (0..d2).map(|l| ((k * 7 + l) % 13) as f64 * 0.1 + 0.5).collect())
                .collect();
            let cpu_ttm = ttm_sampled(&a, &b, &mut ScalarTensorBackend::new(), stride);
            let sc_ttm =
                ttm_sampled(&a, &b, &mut StreamTensorBackend::with_engine(mk_engine(w)), stride);
            let s_ttm = cpu_ttm.cycles as f64 / sc_ttm.cycles.max(1) as f64;
            drop(sim);

            // Dense outputs: hash the f64 bit patterns (exact arithmetic
            // reproducibility, not approximate closeness).
            let ttv_sum =
                sc_report::fnv1a(sc_ttv.z.iter().flatten().flat_map(|x| x.to_bits().to_le_bytes()));
            let ttm_sum = sc_report::fnv1a(
                sc_ttm.z.iter().flatten().flatten().flat_map(|x| x.to_bits().to_le_bytes()),
            );
            w.record(
                &format!("ttv/{}", t.tag()),
                Some(&cfg),
                ttv_sum,
                sc_ttv.cycles,
                Some(cpu_ttv.cycles),
                Attribution::default(),
            );
            w.record(
                &format!("ttm/{}", t.tag()),
                Some(&cfg),
                ttm_sum,
                sc_ttm.cycles,
                Some(cpu_ttm.cycles),
                Attribution::default(),
            );

            eprintln!("  {}: ttv {s_ttv:.2} ttm {s_ttm:.2}", t.tag());
            vec![t.tag().to_string(), format!("{s_ttv:.2}"), format!("{s_ttm:.2}")]
        });
        println!("{}", render_table(&["tensor".into(), "TTV".into(), "TTM".into()], &rows));
        println!("(paper: avg 2.44x TTV, 4.49x TTM)");
    }
    cli.write_probe_outputs();
}
