//! Figure 11: SparseCore vs GPU implementations (log scale).
//!
//! SparseCore at 1 GHz against the analytic K40m model, with and without
//! symmetry breaking on the GPU side. Expected shape: SparseCore leads by
//! orders of magnitude; symmetry breaking also helps the GPU (the massive
//! parallelism cannot offset the redundant enumeration).
//!
//! Usage: `cargo run --release -p sc-bench --bin fig11_gpu
//! [--datasets B,E,F,W]`

use sc_accel::gpu::{estimate, GpuConfig};
use sc_bench::{render_table, run_sparsecore, stride_for, BenchCli, DATASETS};
use sc_gpm::App;
use sc_graph::Dataset;
use sc_host::Phase;
use sparsecore::SparseCoreConfig;

fn main() {
    let cli = BenchCli::parse_with(&[DATASETS]);
    sc_bench::check_gpm_plans(&cli, &App::FIG8);
    let datasets = cli.datasets(&[
        Dataset::BitcoinAlpha,
        Dataset::EmailEuCore,
        Dataset::Haverford76,
        Dataset::WikiVote,
    ]);
    let apps = [
        App::Triangle,
        App::Clique4,
        App::Clique5,
        App::TailedTriangle,
        App::ThreeChain,
        App::ThreeMotif,
    ];

    println!("# Figure 11: SparseCore speedup vs GPU (log scale in the paper)\n");
    let header = vec![
        "app/graph".to_string(),
        "sc cycles".to_string(),
        "gpu w/o brk".to_string(),
        "gpu w/ brk".to_string(),
        "speedup w/o".to_string(),
        "speedup w/".to_string(),
    ];
    let cells: Vec<(App, Dataset)> =
        apps.iter().flat_map(|&app| datasets.iter().map(move |&d| (app, d))).collect();
    let rows = cli.sweep(&cells, |w, &(app, d)| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let stride = stride_for(app, d);
        let cfg = SparseCoreConfig::paper();
        let sc = w.in_phase(Phase::Simulate, || run_sparsecore(&g, app, cfg, stride, &w.probe()).0);
        let gpu_with = w.in_phase(Phase::Simulate, || estimate(&g, app, GpuConfig::k40m(), true));
        let gpu_without =
            w.in_phase(Phase::Simulate, || estimate(&g, app, GpuConfig::k40m(), false));
        w.record(
            &format!("{app}/{}", d.tag()),
            Some(&cfg),
            sc.count,
            sc.cycles,
            Some(gpu_with.cycles_at_1ghz),
            sc.attr,
        );
        vec![
            format!("{app}/{}", d.tag()),
            format!("{}", sc.cycles),
            format!("{}", gpu_without.cycles_at_1ghz),
            format!("{}", gpu_with.cycles_at_1ghz),
            format!("{:.0}", gpu_without.cycles_at_1ghz as f64 / sc.cycles.max(1) as f64),
            format!("{:.0}", gpu_with.cycles_at_1ghz as f64 / sc.cycles.max(1) as f64),
        ]
    });
    println!("{}", render_table(&header, &rows));
    println!("\n(paper: SparseCore outperforms both GPU variants significantly;");
    println!(" symmetry breaking helps the GPU too)");
    cli.write_probe_outputs();
}
