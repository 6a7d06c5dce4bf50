//! Figures 9 and 10: execution-cycle breakdowns for the CPU baseline and
//! SparseCore.
//!
//! Figure 9 uses the scalar core's model buckets (Cache, Mispred.,
//! Other, Intersection). Figure 10 reports from `sc-probe`'s live
//! cycle-attribution profiler: every cycle the stream engine's clock
//! advances is binned at the `Core::advance` choke point into
//! {SU compare, S-Cache refill, memory stall, translator, scalar
//! overlap}, so the bins sum to the total modeled cycles *by
//! construction* — asserted per run below, and covered by
//! `sparsecore`'s `probe_attribution_conserves_engine_cycles` test.
//!
//! Expected shape (paper): mispredict dominates the CPU's
//! intersection-heavy apps and nearly vanishes on SparseCore, whose
//! cycles shift toward SU compare and scalar-overlap work.
//!
//! With `--sched dynamic` an extra section runs triangle counting on
//! dynamically-scheduled multicore and extends the conservation law to
//! every core: each core's five attribution bins must sum to that
//! core's own simulated completion clock (asserted per core, both
//! inside the scheduler and from the span snapshots here).
//!
//! Usage: `cargo run --release -p sc-bench --bin fig09_10_breakdown
//! [--datasets C,E,W] [--sched dynamic] [--cores N] [--verify]
//! [--trace t.json] [--metrics m.json]`

use sc_bench::{render_table, run_sparsecore, stride_for, BenchCli};
use sc_gpm::exec::{ScalarBackend, SetBackend};
use sc_gpm::{count_multicore, App, DEFAULT_CHUNK};
use sc_graph::Dataset;
use sc_host::Phase;
use sc_probe::{AttrBin, Probe, ProbeLevel};
use sparsecore::{chunks, Partition, SparseCoreConfig};

fn main() {
    let cli = BenchCli::parse_with(&[("--sched", true), ("--cores", true)]);
    sc_bench::check_gpm_plans(&cli, &App::FIG8);
    let datasets = cli.datasets(&[
        Dataset::Gnutella08,
        Dataset::Citeseer,
        Dataset::BitcoinAlpha,
        Dataset::EmailEuCore,
        Dataset::Haverford76,
        Dataset::WikiVote,
    ]);
    let apps = [
        App::ThreeChain,
        App::ThreeMotif,
        App::TriangleNoNested,
        App::Triangle,
        App::Clique4,
        App::Clique5,
        App::TailedTriangle,
    ];

    println!("# Figure 9: CPU baseline cycle breakdown\n");
    let header = vec![
        "app/graph".to_string(),
        "cache%".to_string(),
        "mispred%".to_string(),
        "other%".to_string(),
        "intersect%".to_string(),
    ];
    let cells: Vec<(App, Dataset)> =
        apps.iter().flat_map(|&app| datasets.iter().map(move |&d| (app, d))).collect();
    let rows = cli.sweep(&cells, |w, &(app, d)| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let stride = stride_for(app, d);
        let sim = w.phase(Phase::Simulate);
        let mut b = ScalarBackend::new(&g);
        app.count(&g, &mut b, stride);
        b.finish();
        drop(sim);
        let [c, m, o, i] = b.core().breakdown().fractions();
        vec![
            format!("{app}/{}", d.tag()),
            format!("{:.1}", c * 100.0),
            format!("{:.1}", m * 100.0),
            format!("{:.1}", o * 100.0),
            format!("{:.1}", i * 100.0),
        ]
    });
    println!("{}", render_table(&header, &rows));

    println!("\n# Figure 10: SparseCore cycle attribution (sc-probe, five bins)\n");
    let header: Vec<String> = std::iter::once("app/graph".to_string())
        .chain(AttrBin::ALL.iter().map(|bin| format!("{}%", bin.name())))
        .chain(["cycles".to_string()])
        .collect();
    let rows = cli.sweep(&cells, |w, &(app, d)| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let stride = stride_for(app, d);
        let cfg = SparseCoreConfig::paper();
        let (m, b) =
            w.in_phase(Phase::Simulate, || run_sparsecore(&g, app, cfg, stride, &w.probe()));
        // The figure reports the engine's own clock, before stride scaling.
        let cycles = m.cycles / stride as u64;
        let attr = b.engine().attribution();
        assert_eq!(
            attr.total(),
            cycles,
            "attribution must conserve modeled cycles ({app}/{})",
            d.tag()
        );
        w.record(&format!("{app}/{}", d.tag()), Some(&cfg), m.count, cycles, None, attr);
        let fr = attr.fractions();
        let mut row = vec![format!("{app}/{}", d.tag())];
        row.extend(fr.iter().map(|f| format!("{:.1}", f * 100.0)));
        row.push(cycles.to_string());
        row
    });
    println!("{}", render_table(&header, &rows));
    println!("\n(paper: CPU mispredict share is large in the set-operation apps;");
    println!(" SparseCore shifts cycles into the SU-compare/scalar-overlap bins.");
    println!(" Each row's five bins sum to its total modeled cycles — asserted.)");

    if cli.value("--sched") == Some("dynamic") {
        let cores: usize = cli
            .value("--cores")
            .map_or(6, |v| v.parse().expect("--cores is checked while parsing"));
        multicore_attribution(&cli, &datasets, cores);
    }
    cli.write_probe_outputs();
}

/// The multicore leg of the conservation law: run triangle counting on
/// dynamically-scheduled cores with span logging and check, per core,
/// that the five attribution bins sum to that core's simulated clock.
/// (The scheduler re-asserts the same law internally from the engines'
/// attribution registers; here it is re-proved from the span snapshots,
/// which carry the bins at site granularity.)
fn multicore_attribution(cli: &BenchCli, datasets: &[Dataset], cores: usize) {
    println!("\n# Multicore (dynamic): per-core cycle attribution conservation\n");
    let header: Vec<String> = ["graph/core".to_string()]
        .into_iter()
        .chain(AttrBin::ALL.iter().map(|bin| format!("{}%", bin.name())))
        .chain(["cycles".to_string()])
        .collect();
    let per_dataset = cli.sweep(datasets, |w, &d| {
        // An item-local probe with spans on, so the per-core bins are
        // observable even when the process-level probe is off (and no
        // sibling item can drain or dilute this dataset's snapshots).
        let probe = Probe::new(ProbeLevel::Metrics);
        probe.enable_spans();
        let g = w.in_phase(Phase::Generate, || d.build());
        let plan = &App::Triangle.plans()[0];
        let cfg = SparseCoreConfig::paper();
        let partition = Partition::Dynamic(chunks(g.num_vertices(), DEFAULT_CHUNK));
        let (run, _) = w.in_phase(Phase::Simulate, || {
            count_multicore(&g, plan, cfg, true, cores, &partition, probe.clone())
        });
        let snaps = probe.take_spans();
        assert_eq!(snaps.len(), cores, "{}: one span snapshot per core", d.tag());
        let mut dataset_rows = Vec::new();
        for snap in &snaps {
            let per_bin = snap.per_bin();
            assert_eq!(
                per_bin.iter().sum::<u64>(),
                run.per_core[snap.core],
                "{}/core{}: attribution bins must sum to the core's simulated clock",
                d.tag(),
                snap.core
            );
            let total = snap.total.max(1) as f64;
            let mut row = vec![format!("{}/core{}", d.tag(), snap.core)];
            row.extend(per_bin.iter().map(|&c| format!("{:.1}", c as f64 / total * 100.0)));
            row.push(snap.total.to_string());
            dataset_rows.push(row);
        }
        dataset_rows
    });
    let rows: Vec<Vec<String>> = per_dataset.into_iter().flatten().collect();
    println!("{}", render_table(&header, &rows));
    println!("\n(each core's five bins sum to that core's completion clock — asserted)");
}
