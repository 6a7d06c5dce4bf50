//! Multi-core scaling (Table 2 lists six cores).
//!
//! Triangle counting partitioned across 1–6 SparseCore cores (private
//! engines, read-only graph sharing per paper Section 5.1) under both
//! partitioning strategies: static interleaving and the deterministic
//! dynamic chunk scheduler. Reports completion time (slowest core) and
//! load imbalance. With `--tensor`, also runs the multicore tensor path
//! (row-sharded Gustavson spmspm and fiber-sharded TTV).
//!
//! Usage: `cargo run --release -p sc-bench --bin multicore
//! [--datasets B,E,W] [--sched static|dynamic|both] [--chunk N]
//! [--tensor] [--trace t.json] [--metrics m.json]`

use sc_bench::{render_table, BenchCli, DATASETS};
use sc_gpm::plan::Induced;
use sc_gpm::{count_multicore, Pattern, Plan, DEFAULT_CHUNK};
use sc_graph::Dataset;
use sc_host::Phase;
use sc_kernels::{gustavson_multicore, ttv_multicore};
use sc_probe::args::{self, ensure, Flag};
use sc_probe::{Attribution, Probe};
use sc_tensor::{MatrixDataset, TensorDataset};
use sparsecore::{MultiCoreRun, Partition, SchedMode, SparseCoreConfig};

const CORES: [usize; 4] = [1, 2, 4, 6];

fn main() {
    let cli = BenchCli::parse_with(&[
        DATASETS,
        Flag::value("--sched").checked(|v| {
            ensure(matches!(v, "static" | "dynamic" | "both"), "static, dynamic or both")
        }),
        Flag::value("--chunk").checked(args::positive),
        Flag::switch("--tensor"),
    ]);
    let datasets = cli.datasets(&[
        Dataset::BitcoinAlpha,
        Dataset::EmailEuCore,
        Dataset::WikiVote,
        Dataset::Mico,
    ]);
    let modes = match cli.value("--sched") {
        None | Some("both") => vec![SchedMode::Static, SchedMode::Dynamic],
        Some(s) => vec![SchedMode::parse(s).expect("--sched is checked while parsing")],
    };
    let chunk = cli.parsed("--chunk").unwrap_or(DEFAULT_CHUNK);
    let plan = cli
        .in_phase(Phase::Emit, || Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex));
    cli.check_programs(&SparseCoreConfig::paper(), || {
        vec![("tc/plan".to_string(), plan.emit_program())]
    });

    println!("# Multi-core triangle counting: speedup vs 1 core (chunk={chunk})\n");
    // One sweep item per dataset: each worker builds its own graph,
    // proves its own partition plans, and records its mode/core matrix.
    let per_dataset = cli.sweep(&datasets, |w, &d| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let cfg = SparseCoreConfig::paper();
        let key = format!("tc/{}", d.tag());
        prove_partitions(w, &key, "static", g.num_vertices(), chunk);
        scaling_rows(w, d.tag(), &key, &modes, &cfg, |mode, cores, probe| {
            let partition = mode.partition(g.num_vertices(), chunk);
            let (run, report) = count_multicore(&g, &plan, cfg, true, cores, &partition, probe);
            (run.count, run, report)
        })
    });
    let rows: Vec<Vec<String>> = per_dataset.into_iter().flatten().collect();
    println!("{}", render_table(&header("graph"), &rows));
    println!("\n(static interleaving bounds hub-induced imbalance; the dynamic");
    println!(" chunk scheduler assigns work by simulated clock, so hub-heavy");
    println!(" chunks stop stalling the whole partition. Graph data is");
    println!(" read-only so private S-Caches need no coherence.)");

    if cli.flag("--tensor") {
        tensor_section(&cli, &modes, chunk);
    }
    cli.write_probe_outputs();
}

fn header(first: &str) -> Vec<String> {
    [first.to_string(), "sched".to_string()]
        .into_iter()
        .chain(CORES.iter().map(|c| format!("{c} cores")))
        .chain(["imbalance@6".to_string()])
        .collect()
}

/// Under `--verify`, prove the static `shards` at every core count and
/// the dynamic chunk plan over `total` work units disjoint before the
/// cores run them.
fn prove_partitions(w: &BenchCli, key: &str, shards: &str, total: usize, chunk: usize) {
    if !w.verifying() {
        return;
    }
    let _scope = w.phase(Phase::Verify);
    for &c in &CORES {
        w.verify_partition(&format!("{key}/c{c}/{shards}-shards"), &Partition::Static, c, total);
    }
    let plan = SchedMode::Dynamic.partition(total, chunk);
    w.verify_partition(&format!("{key}/dynamic-chunks"), &plan, 1, total);
}

/// The table rows of one workload: every `modes` x [`CORES`] run of
/// `run(mode, cores, probe)`, which returns the functional checksum, the
/// run, and the sanitizer's findings. Each run is recorded as
/// `{key}/c{cores}/{mode}` against the static one-core run: the first
/// recorded point, or an extra unobserved run when static runs were not
/// asked for.
fn scaling_rows(
    w: &BenchCli,
    label: &str,
    key: &str,
    modes: &[SchedMode],
    cfg: &SparseCoreConfig,
    run: impl Fn(SchedMode, usize, Probe) -> (u64, MultiCoreRun, sc_lint::Report),
) -> Vec<Vec<String>> {
    let simulate = |mode, cores, probe| w.in_phase(Phase::Simulate, || run(mode, cores, probe));
    let mut base = None;
    if modes.first() != Some(&SchedMode::Static) {
        let (checksum, run, _) = simulate(SchedMode::Static, 1, Probe::off());
        base = Some((checksum, run.cycles));
    }
    let mut rows = Vec::new();
    for &mode in modes {
        let mut row = vec![label.to_string(), mode.name().to_string()];
        let mut last_imbalance = 1.0;
        for &c in &CORES {
            let (checksum, run, report) = simulate(mode, c, w.probe());
            if !report.is_empty() {
                eprintln!("  sanitizer findings ({key} / {c} cores):\n{report}");
            }
            let (base_checksum, base_cycles) = *base.get_or_insert((checksum, run.cycles));
            assert_eq!(checksum, base_checksum, "{key}: partitioning changed the result");
            w.record(
                &format!("{key}/c{c}/{}", mode.name()),
                Some(cfg),
                checksum,
                run.cycles,
                Some(base_cycles),
                Attribution::default(),
            );
            row.push(format!("{:.2}", base_cycles as f64 / run.cycles.max(1) as f64));
            last_imbalance = run.imbalance();
        }
        row.push(format!("{last_imbalance:.2}"));
        rows.push(row);
    }
    rows
}

/// Multicore tensor path: row-sharded Gustavson spmspm `A*A` and
/// fiber-sharded TTV, both byte-exact against the serial kernels.
fn tensor_section(cli: &BenchCli, modes: &[SchedMode], chunk: usize) {
    let cfg = SparseCoreConfig::paper_one_su();
    sc_bench::check_tensor_fixtures(cli);
    println!("\n# Multi-core tensor kernels: speedup vs 1 core (chunk={chunk})\n");
    let matrices = [MatrixDataset::Circuit204, MatrixDataset::EmailEuCore];
    let spmspm_rows = cli.sweep(&matrices, |w, &m| {
        let a = w.in_phase(Phase::Generate, || m.build());
        let key = format!("spmspm/{}", m.tag());
        prove_partitions(w, &key, "row", a.rows(), chunk);
        scaling_rows(w, &key, &key, modes, &cfg, |mode, cores, probe| {
            let partition = mode.partition(a.rows(), chunk);
            let (r, run, report) = gustavson_multicore(&a, &a, cfg, cores, &partition, probe);
            (r.c.nnz() as u64, run, report)
        })
    });

    let tensors = [TensorDataset::ChicagoCrime];
    let ttv_rows = cli.sweep(&tensors, |w, &t| {
        let a = w.in_phase(Phase::Generate, || t.build());
        let key = format!("ttv/{}", t.tag());
        prove_partitions(w, &key, "fiber", a.num_fibers(), chunk);
        let v: Vec<f64> = (0..a.dims()[2]).map(|i| 0.5 + (i % 17) as f64 * 0.1).collect();
        scaling_rows(w, &key, &key, modes, &cfg, |mode, cores, probe| {
            let partition = mode.partition(a.num_fibers(), chunk);
            let (r, run, report) = ttv_multicore(&a, &v, cfg, cores, &partition, probe);
            let z = r.z.iter().flatten().flat_map(|x| x.to_bits().to_le_bytes());
            (sc_report::fnv1a(z), run, report)
        })
    });

    let rows: Vec<Vec<String>> = spmspm_rows.into_iter().chain(ttv_rows).flatten().collect();
    println!("{}", render_table(&header("kernel"), &rows));
    println!("\n(rows/fibers shard whole output cells, so the multicore tensor");
    println!(" results are byte-identical to the serial kernels)");
}
