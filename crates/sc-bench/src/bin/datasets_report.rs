//! Tables 3, 4 and 5: applications, graphs, and matrices/tensors.
//!
//! Prints the workload inventory with both the paper-reported and the
//! generated (possibly scaled-down) statistics, so EXPERIMENTS.md can
//! record provenance per dataset.
//!
//! Usage: `cargo run --release -p sc-bench --bin datasets_report [--sanitize]`

use sc_bench::{render_table, BenchCli};
use sc_gpm::App;
use sc_graph::Dataset;
use sc_host::Phase;
use sc_probe::Attribution;
use sc_tensor::{MatrixDataset, TensorDataset};

fn main() {
    let cli = BenchCli::parse();
    sc_bench::check_gpm_plans(&cli, &App::FIG8);
    // A dataset report simulates nothing: its record holds a checksum.
    let record = |w: &BenchCli, workload: String, checksum: u64| {
        w.record(&workload, None, checksum, 0, None, Attribution::default());
    };
    println!("# Table 3: GPM applications\n");
    let rows: Vec<Vec<String>> = App::FIG8
        .iter()
        .map(|a| {
            vec![
                a.tag().to_string(),
                format!("{:?}", a),
                if a.uses_nested() { "S_NESTINTER".into() } else { "explicit".into() },
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["tag".into(), "application".into(), "inner loops".into()], &rows)
    );
    println!("plus FSM (frequent subgraph mining, MNI support, <=3 edges)\n");

    println!("# Table 4: graph datasets (generated vs paper)\n");
    let rows = cli.sweep(&Dataset::ALL, |w, &d| {
        let spec = d.spec();
        let g = w.in_phase(Phase::Generate, || d.build());
        // Edge count as the functional checksum: the generators are
        // deterministic, so any change means the workloads changed.
        record(w, format!("table4/{}", spec.tag), g.num_edges() as u64);
        vec![
            spec.tag.to_string(),
            spec.name.to_string(),
            format!("{}", g.num_vertices()),
            format!("{}", g.num_edges()),
            format!("{:.1}", g.avg_degree() / 2.0),
            format!("{}", g.max_degree()),
            format!("{}", spec.paper_vertices),
            format!("{}", spec.paper_edges),
            format!("1/{}", spec.scale_down),
        ]
    });
    println!(
        "{}",
        render_table(
            &[
                "tag".into(),
                "name".into(),
                "|V|".into(),
                "|E|".into(),
                "avgD".into(),
                "maxD".into(),
                "paper |V|".into(),
                "paper |E|".into(),
                "scale".into(),
            ],
            &rows
        )
    );

    println!("\n# Table 5: matrices and tensors (generated vs paper)\n");
    let rows = cli.sweep(&MatrixDataset::ALL, |w, &m| {
        let spec = m.spec();
        let built = w.in_phase(Phase::Generate, || m.build());
        record(w, format!("table5m/{}", spec.tag), built.nnz() as u64);
        vec![
            spec.tag.to_string(),
            spec.name.to_string(),
            format!("{0}x{0}", spec.dim),
            format!("{}", built.nnz()),
            format!("{:.4}%", built.density() * 100.0),
            format!("{:.1}", built.avg_row_nnz()),
            format!("{0}x{0}", spec.paper_dim),
            format!("{}", spec.paper_nnz),
            format!("1/{}", spec.scale_down),
        ]
    });
    println!(
        "{}",
        render_table(
            &[
                "tag".into(),
                "name".into(),
                "dims".into(),
                "nnz".into(),
                "density".into(),
                "nnz/row".into(),
                "paper dims".into(),
                "paper nnz".into(),
                "scale".into(),
            ],
            &rows
        )
    );

    let rows = cli.sweep(&TensorDataset::ALL, |w, &t| {
        let spec = t.spec();
        let built = w.in_phase(Phase::Generate, || t.build());
        record(w, format!("table5t/{}", spec.tag), built.nnz() as u64);
        vec![
            spec.tag.to_string(),
            spec.name.to_string(),
            format!("{:?}", spec.dims),
            format!("{}", built.nnz()),
            format!("{:.1}", built.avg_fiber_nnz()),
            format!("{:?}", spec.paper_dims),
            format!("{}", spec.paper_nnz),
            format!("1/{}", spec.scale_down),
        ]
    });
    println!(
        "{}",
        render_table(
            &[
                "tag".into(),
                "name".into(),
                "dims".into(),
                "nnz".into(),
                "nnz/fiber".into(),
                "paper dims".into(),
                "paper nnz".into(),
                "scale".into(),
            ],
            &rows
        )
    );
    cli.write_probe_outputs();
}
