//! Figure 14: the distribution of stream lengths.
//!
//! Left panel: CDFs across applications on email-eu-core. Right panel:
//! triangle counting across all ten graphs (lengths above 500 cut, as in
//! the paper). Expected shape: clique apps see shorter streams (their
//! operands are prior intersection results); larger-max-degree datasets
//! have longer tails.
//!
//! Usage: `cargo run --release -p sc-bench --bin fig14_lengths
//! [--sanitize] [--verify] [--cost] [--trace t.json] [--metrics m.json]`
//!
//! Under `--cost`, a traced run of triangle counting with explicit
//! loops (TS) on email-eu-core is additionally checked against the
//! static length hull: every stream length the engine observed must fall
//! inside the interval `sc-cost`'s abstract length domain derives for
//! the traced instructions. TS, not T: `S_NESTINTER`'s symbolic lengths
//! make T's hull unbounded, which the check counts as a violation.

use sc_bench::{render_table, run_sparsecore, stride_for, BenchCli};
use sc_gpm::App;
use sc_graph::Dataset;
use sc_host::Phase;
use sparsecore::SparseCoreConfig;

const POINTS: [u32; 9] = [0, 5, 10, 25, 50, 100, 200, 300, 500];

fn cdf_row(label: String, backend_stats: &sparsecore::LengthHistogram) -> Vec<String> {
    let mut row = vec![label];
    for p in POINTS {
        row.push(format!("{:.2}", backend_stats.cdf_at(p)));
    }
    row.push(format!("{:.1}", backend_stats.mean()));
    row
}

fn main() {
    let cli = BenchCli::parse();
    sc_bench::check_gpm_plans(&cli, &App::FIG8);
    let euc = cli.in_phase(Phase::Generate, || Dataset::EmailEuCore.build());
    sc_bench::cost_check_lengths(&cli, &euc, App::TriangleNoNested, SparseCoreConfig::paper());
    let header: Vec<String> = std::iter::once("series".to_string())
        .chain(POINTS.iter().map(|p| format!("<={p}")))
        .chain(["mean".to_string()])
        .collect();

    println!("# Figure 14 (left): stream-length CDFs by application on email-eu-core\n");
    let apps = [
        App::Triangle,
        App::ThreeMotif,
        App::ThreeChain,
        App::Clique4,
        App::Clique5,
        App::TailedTriangle,
    ];
    let g = &euc;
    let rows = cli.sweep(&apps, |w, &app| {
        let stride = stride_for(app, Dataset::EmailEuCore);
        let cfg = SparseCoreConfig::paper();
        let (m, backend) =
            w.in_phase(Phase::Simulate, || run_sparsecore(g, app, cfg, stride, &w.probe()));
        w.record(&format!("cdf/{}", app.tag()), Some(&cfg), m.count, m.cycles, None, m.attr);
        cdf_row(app.tag().to_string(), &backend.engine().stats().lengths)
    });
    println!("{}", render_table(&header, &rows));

    println!("\n# Figure 14 (right): triangle-counting stream-length CDFs by dataset\n");
    let rows = cli.sweep(&Dataset::ALL, |w, &d| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let stride = stride_for(App::Triangle, d);
        let cfg = SparseCoreConfig::paper();
        let (m, backend) = w.in_phase(Phase::Simulate, || {
            run_sparsecore(&g, App::Triangle, cfg, stride, &w.probe())
        });
        w.record(&format!("tc/{}", d.tag()), Some(&cfg), m.count, m.cycles, None, m.attr);
        cdf_row(d.tag().to_string(), &backend.engine().stats().lengths)
    });
    println!("{}", render_table(&header, &rows));
    println!("\n(paper: clique apps skew short; high-max-degree graphs have long tails)");
    cli.write_probe_outputs();
}
