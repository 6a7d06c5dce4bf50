//! Figure 8: SparseCore speedup over the CPU baseline.
//!
//! Ten graphs x nine applications (TC, TM, TS, T, TT, 4C, 5C, 4CS, 5CS),
//! plus FSM on mico at two thresholds. SparseCore runs the paper's
//! default 4-SU configuration; both sides run the identical compiled
//! plans. Expected shape (paper): average ~13.5x, larger on denser
//! graphs, smaller for FSM.
//!
//! Usage: `cargo run --release -p sc-bench --bin fig08_cpu_speedup
//! [--datasets C,E,W] [--skip-fsm] [--verify] [--trace t.json] [--metrics m.json]`

use sc_bench::{gmean, render_table, run_cpu, run_sparsecore, stride_for, BenchCli};
use sc_gpm::exec::SetBackend;
use sc_gpm::fsm::{assign_labels, run_fsm};
use sc_gpm::{App, ScalarBackend, StreamBackend};
use sc_graph::Dataset;
use sc_host::Phase;
use sparsecore::{Engine, SparseCoreConfig};

fn main() {
    let cli = BenchCli::parse_with(&[("--skip-fsm", false)]);
    sc_bench::check_gpm_plans(&cli, &App::FIG8);
    let datasets = cli.datasets(&Dataset::ALL);
    let skip_fsm = cli.flag("--skip-fsm");

    println!("# Figure 8: SparseCore (4 SUs) speedup over CPU baseline\n");
    let header: Vec<String> = std::iter::once("app".to_string())
        .chain(datasets.iter().map(|d| d.tag().to_string()))
        .chain(["gmean".to_string()])
        .collect();

    // One sweep item per (app, graph) cell; speedups come back in the
    // same app-major order the table is assembled in.
    let cells: Vec<(App, Dataset)> =
        App::FIG8.iter().flat_map(|&app| datasets.iter().map(move |&d| (app, d))).collect();
    let speedups = cli.sweep(&cells, |w, &(app, d)| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let stride = stride_for(app, d);
        let cpu = w.in_phase(Phase::Simulate, || run_cpu(&g, app, stride));
        let cfg = SparseCoreConfig::paper();
        let sc = w.in_phase(Phase::Simulate, || run_sparsecore(&g, app, cfg, stride, &w.probe()).0);
        assert_eq!(cpu.count, sc.count, "count mismatch for {app} on {d} (stride {stride})");
        let workload = format!("{app}/{}", d.tag());
        w.record(&workload, Some(&cfg), sc.count, sc.cycles, Some(cpu.cycles), sc.attr);
        let speedup = cpu.cycles as f64 / sc.cycles.max(1) as f64;
        eprintln!(
            "  {app} on {}: cpu={} sc={} speedup={speedup:.2} (stride {stride}, count {})",
            d.tag(),
            cpu.cycles,
            sc.cycles,
            sc.count
        );
        speedup
    });
    let mut rows = Vec::new();
    let mut all_speedups = Vec::new();
    for (i, app) in App::FIG8.iter().enumerate() {
        let app_speedups = &speedups[i * datasets.len()..(i + 1) * datasets.len()];
        let mut row = vec![app.tag().to_string()];
        row.extend(app_speedups.iter().map(|s| format!("{s:.2}")));
        row.push(format!("{:.2}", gmean(app_speedups)));
        all_speedups.extend_from_slice(app_speedups);
        rows.push(row);
    }
    println!("{}", render_table(&header, &rows));
    println!(
        "overall gmean speedup: {:.2}x (paper: avg 13.5x, up to 64.4x)\n",
        gmean(&all_speedups)
    );

    if !skip_fsm {
        println!("# FSM on mico (MNI support thresholds)");
        let g = cli.in_phase(Phase::Generate, || Dataset::Mico.build());
        let labels = cli.in_phase(Phase::Generate, || assign_labels(&g, 4, 0x5eed));
        let thresholds = [1000u64, 2000];
        let rows = cli.sweep(&thresholds, |w, &threshold| {
            let sim = w.phase(Phase::Simulate);
            let mut cpu_b = ScalarBackend::new(&g);
            let cpu = run_fsm(&g, &labels, threshold, &mut cpu_b);
            let cfg = SparseCoreConfig::paper();
            let mut engine = Engine::new(cfg);
            engine.set_probe(w.probe());
            let mut sc_b = StreamBackend::with_engine(&g, engine, true);
            let sc = run_fsm(&g, &labels, threshold, &mut sc_b);
            assert_eq!(cpu.frequent, sc.frequent, "FSM result mismatch");
            let _ = (cpu_b.finish(), sc_b.finish());
            sc_b.engine().probe_snapshot();
            sc_b.engine().submit_spans(0);
            drop(sim);
            w.record(
                &format!("fsm/mico/{threshold}"),
                Some(&cfg),
                sc.frequent.len() as u64,
                sc.cycles,
                Some(cpu.cycles),
                sc_b.engine().attribution(),
            );
            vec![
                format!("{threshold}"),
                format!("{}", cpu.frequent.len()),
                format!("{}", cpu.cycles),
                format!("{}", sc.cycles),
                format!("{:.2}", cpu.cycles as f64 / sc.cycles.max(1) as f64),
            ]
        });
        println!(
            "{}",
            render_table(
                &[
                    "threshold".into(),
                    "frequent".into(),
                    "cpu".into(),
                    "sparsecore".into(),
                    "speedup".into()
                ],
                &rows
            )
        );
        println!("(paper: FSM gains are the smallest — support computation dominates)");
    }
    cli.write_probe_outputs();
}
