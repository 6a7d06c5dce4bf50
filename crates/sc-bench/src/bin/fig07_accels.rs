//! Figure 7: SparseCore speedup over FlexMiner and TrieJax (plus the
//! Section 6.3.1 GRAMER comparison with `--gramer`).
//!
//! Per the paper's fairness rule, every design gets one computation unit:
//! one SparseCore SU vs one FlexMiner PE vs one TrieJax thread. TrieJax
//! appears only for the clique apps (it supports edge-induced patterns
//! only); its numbers are in orders of magnitude, as in the paper's
//! log-scale panels.
//!
//! Usage: `cargo run --release -p sc-bench --bin fig07_accels
//! [--datasets E,F,W] [--gramer]`

use sc_accel::{gramer, triejax, FlexMinerModel};
use sc_bench::{gmean, render_table, run_sparsecore, stride_for, BenchCli};
use sc_gpm::exec::SetBackend;
use sc_gpm::App;
use sc_graph::Dataset;
use sc_host::Phase;
use sparsecore::SparseCoreConfig;

fn main() {
    let cli = BenchCli::parse_with(&[("--gramer", false)]);
    sc_bench::check_gpm_plans(&cli, &App::FIG8);
    let datasets = cli.datasets(&[
        Dataset::EmailEuCore,
        Dataset::Haverford76,
        Dataset::WikiVote,
        Dataset::Mico,
        Dataset::Youtube,
    ]);
    let with_gramer = cli.flag("--gramer");

    println!("# Figure 7: SparseCore (1 SU) speedup over FlexMiner (1 PE)\n");
    let header: Vec<String> = std::iter::once("app".to_string())
        .chain(datasets.iter().map(|d| d.tag().to_string()))
        .chain(["gmean".to_string()])
        .collect();
    let fm_cells: Vec<(App, Dataset)> =
        App::FIG7.iter().flat_map(|&app| datasets.iter().map(move |&d| (app, d))).collect();
    let fm_speedups = cli.sweep(&fm_cells, |w, &(app, d)| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let stride = stride_for(app, d);
        let cfg = SparseCoreConfig::paper_one_su();
        let sc = w.in_phase(Phase::Simulate, || run_sparsecore(&g, app, cfg, stride, &w.probe()).0);
        let sim = w.phase(Phase::Simulate);
        let mut fm = FlexMinerModel::new(&g);
        let fm_count = app.count(&g, &mut fm, stride);
        let fm_cycles = fm.finish() * stride as u64;
        drop(sim);
        assert_eq!(sc.count, fm_count, "{app} on {d}");
        w.record(
            &format!("fm/{app}/{}", d.tag()),
            Some(&cfg),
            sc.count,
            sc.cycles,
            Some(fm_cycles),
            sc.attr,
        );
        let speedup = fm_cycles as f64 / sc.cycles.max(1) as f64;
        eprintln!(
            "  {app} on {}: flexminer={fm_cycles} sc={} speedup={speedup:.2}",
            d.tag(),
            sc.cycles
        );
        speedup
    });
    let mut rows = Vec::new();
    let mut fm_speedups_all = Vec::new();
    for (i, app) in App::FIG7.iter().enumerate() {
        let speedups = &fm_speedups[i * datasets.len()..(i + 1) * datasets.len()];
        let mut row = vec![app.tag().to_string()];
        row.extend(speedups.iter().map(|s| format!("{s:.2}")));
        row.push(format!("{:.2}", gmean(speedups)));
        fm_speedups_all.extend_from_slice(speedups);
        rows.push(row);
    }
    println!("{}", render_table(&header, &rows));
    println!(
        "overall gmean speedup over FlexMiner: {:.2}x (paper: avg 2.7x, up to 14.8x)\n",
        gmean(&fm_speedups_all)
    );

    println!("# Figure 7 (log-scale panels): SparseCore speedup over TrieJax (cliques)\n");
    let cliques = [(App::Triangle, 3), (App::Clique4, 4), (App::Clique5, 5)];
    let tj_cells: Vec<(App, usize, Dataset)> =
        cliques.iter().flat_map(|&(app, k)| datasets.iter().map(move |&d| (app, k, d))).collect();
    let tj_all = cli.sweep(&tj_cells, |w, &(app, k, d)| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let stride = stride_for(app, d).max(4); // TrieJax enumerates k! per clique
        let cfg = SparseCoreConfig::paper_one_su();
        let sc = w.in_phase(Phase::Simulate, || run_sparsecore(&g, app, cfg, stride, &w.probe()).0);
        // TrieJax model runs unsampled per start vertex internally;
        // subsample by running on the same stride via cycle scaling.
        let tj = w.in_phase(Phase::Simulate, || triejax::count_cliques(&g, k));
        let exact = w.in_phase(Phase::Simulate, || run_sparsecore(&g, app, cfg, 1, &w.probe()).0);
        assert_eq!(
            tj.embeddings,
            exact.count * triejax::factorial(k),
            "{app} on {d}: TrieJax embeddings should be k! x cliques"
        );
        // The bins are the stride-1 check run's, not `sc`'s: a known
        // defect kept until the bins are re-pinned (ROADMAP item 2).
        w.record(
            &format!("tj/{app}/{}", d.tag()),
            Some(&cfg),
            sc.count,
            sc.cycles,
            Some(tj.cycles),
            exact.attr,
        );
        let speedup = tj.cycles as f64 / (sc.cycles.max(1)) as f64;
        eprintln!(
            "  {app} on {}: triejax={} sc={} speedup={speedup:.1}",
            d.tag(),
            tj.cycles,
            sc.cycles
        );
        speedup
    });
    let mut rows = Vec::new();
    for (i, (app, _)) in cliques.iter().enumerate() {
        let speedups = &tj_all[i * datasets.len()..(i + 1) * datasets.len()];
        let mut row = vec![app.tag().to_string()];
        row.extend(speedups.iter().map(|s| format!("{s:.1}")));
        row.push(String::new());
        rows.push(row);
    }
    println!("{}", render_table(&header, &rows));
    println!(
        "gmean speedup over TrieJax: {:.1}x (paper: avg 3651.2x, up to 43912.3x; log scale)\n",
        gmean(&tj_all)
    );

    if with_gramer {
        println!("# Section 6.3.1: SparseCore speedup over GRAMER (triangle)\n");
        let rows = cli.sweep(&datasets, |w, &d| {
            let g = w.in_phase(Phase::Generate, || d.build());
            let cfg = SparseCoreConfig::paper_one_su();
            let sc = w.in_phase(Phase::Simulate, || {
                run_sparsecore(&g, App::Triangle, cfg, 1, &w.probe()).0
            });
            let gr = w.in_phase(Phase::Simulate, || gramer::mine_clique(&g, 3));
            w.record(
                &format!("gramer/T/{}", d.tag()),
                Some(&cfg),
                sc.count,
                sc.cycles,
                Some(gr.cycles),
                sc.attr,
            );
            let speedup = gr.cycles as f64 / sc.cycles.max(1) as f64;
            vec![d.tag().to_string(), format!("{}", gr.candidates), format!("{speedup:.1}")]
        });
        println!(
            "{}",
            render_table(&["graph".into(), "gramer candidates".into(), "speedup".into()], &rows)
        );
        println!("(paper: avg 40.1x, up to 181.8x)");
    }
    cli.write_probe_outputs();
}
