//! Figure 12: varying the number of Stream Units (1, 2, 4, 8, 16).
//!
//! Expected shape (paper): gains up to ~4 SUs, then diminishing returns —
//! the nested-intersection apps (T, 4C, 5C) scale best because the
//! translator keeps many intersections in flight.
//!
//! Usage: `cargo run --release -p sc-bench --bin fig12_sus
//! [--datasets B,E,F,W]`

use sc_bench::{render_table, run_sparsecore, stride_for, BenchCli};
use sc_gpm::plan::Induced;
use sc_gpm::{count_multicore, App, Pattern, Plan, DEFAULT_CHUNK};
use sc_graph::Dataset;
use sc_host::Phase;
use sc_probe::Probe;
use sparsecore::{chunks, Partition, SparseCoreConfig};

fn main() {
    let cli = BenchCli::parse();
    sc_bench::check_gpm_plans(&cli, &App::FIG8);
    let datasets = cli.datasets(&[
        Dataset::BitcoinAlpha,
        Dataset::EmailEuCore,
        Dataset::Haverford76,
        Dataset::WikiVote,
    ]);
    let sus = [1usize, 2, 4, 8, 16];

    println!("# Figure 12: speedup vs 1 SU as the number of SUs grows\n");
    let header: Vec<String> = std::iter::once("app/graph".to_string())
        .chain(sus.iter().map(|n| format!("{n} SU")))
        .collect();
    let cells: Vec<(App, Dataset)> =
        App::FIG8.iter().flat_map(|&app| datasets.iter().map(move |&d| (app, d))).collect();
    let rows = cli.sweep(&cells, |w, &(app, d)| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let stride = stride_for(app, d);
        let probe = w.probe();
        let mut row = vec![format!("{app}/{}", d.tag())];
        // The first point, one SU, is the baseline of the whole row.
        let mut base = None;
        for &n in &sus {
            let cfg = SparseCoreConfig::with_sus(n);
            let m = w.in_phase(Phase::Simulate, || run_sparsecore(&g, app, cfg, stride, &probe).0);
            let base = *base.get_or_insert(m);
            assert_eq!(m.count, base.count);
            w.record(
                &format!("{app}/{}/su{n}", d.tag()),
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
    println!("\n(paper: improvements up to 4 SUs, then significantly less benefit)");

    // SU scaling composes with multicore: rerun triangle counting on six
    // dynamically-scheduled cores at 1 and 4 SUs. Not part of the golden
    // record matrix — the multicore bin owns those records.
    println!("\n# SUs x six dynamically-scheduled cores (triangle counting)\n");
    let plan = cli
        .in_phase(Phase::Emit, || Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex));
    let rows = cli.sweep(&datasets, |w, &d| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let partition = Partition::Dynamic(chunks(g.num_vertices(), DEFAULT_CHUNK));
        let six_cores = |sus| {
            let cfg = SparseCoreConfig::with_sus(sus);
            w.in_phase(Phase::Simulate, || {
                count_multicore(&g, &plan, cfg, true, 6, &partition, Probe::off()).0
            })
        };
        let (base, wide) = (six_cores(1), six_cores(4));
        assert_eq!(base.count, wide.count);
        vec![
            d.tag().to_string(),
            format!("{:.2}", base.cycles as f64 / wide.cycles.max(1) as f64),
            format!("{:.2}", wide.imbalance()),
        ]
    });
    println!(
        "{}",
        render_table(
            &["graph".to_string(), "4SU/1SU speedup".to_string(), "imbalance".to_string()],
            &rows
        )
    );
    cli.write_probe_outputs();
}
