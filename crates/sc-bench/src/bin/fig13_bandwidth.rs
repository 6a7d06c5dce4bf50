//! Figure 13: varying the aggregate S-Cache + scratchpad bandwidth
//! (2, 4, 8, 16, 32, 64 elements/cycle).
//!
//! Expected shape (paper): gains saturate around 32 elements/cycle; the
//! nested-intersection apps benefit most because they keep the most
//! intersections in flight.
//!
//! Usage: `cargo run --release -p sc-bench --bin fig13_bandwidth
//! [--datasets B,E,F,W]`

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
    let bws = [2u64, 4, 8, 16, 32, 64];

    println!("# Figure 13: speedup vs 2 elements/cycle as bandwidth grows\n");
    let header: Vec<String> = std::iter::once("app/graph".to_string())
        .chain(bws.iter().map(|b| format!("{b}/cyc")))
        .collect();
    let cells: Vec<(App, Dataset)> =
        App::FIG8.iter().flat_map(|&app| datasets.iter().map(move |&d| (app, d))).collect();
    let rows = cli.sweep(&cells, |w, &(app, d)| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let stride = stride_for(app, d);
        let probe = w.probe();
        let mut row = vec![format!("{app}/{}", d.tag())];
        // The first point, 2 elements/cycle, is the baseline of the row.
        let mut base = None;
        for &bw in &bws {
            let cfg = SparseCoreConfig::with_bandwidth(bw);
            let m = w.in_phase(Phase::Simulate, || run_sparsecore(&g, app, cfg, stride, &probe).0);
            let base = *base.get_or_insert(m);
            assert_eq!(m.count, base.count);
            w.record(
                &format!("{app}/{}/bw{bw}", d.tag()),
                Some(&cfg),
                m.count,
                m.cycles,
                Some(base.cycles),
                m.attr,
            );
            row.push(format!("{:.2}", base.cycles as f64 / m.cycles.max(1) as f64));
        }
        row
    });
    println!("{}", render_table(&header, &rows));
    println!("\n(paper: diminishing returns beyond ~32 elements/cycle;");
    println!(" nested-instruction apps T/4C/5C benefit most)");
    cli.write_probe_outputs();
}
