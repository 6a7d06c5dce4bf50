//! Re-simulate three cells of the golden record matrix and require their
//! checksum, SparseCore cycles and CPU-baseline cycles to equal
//! `results/golden` exactly:
//!
//! * `fig08_cpu_speedup` `TC/C` and `4C/C`: `ScalarBackend` and
//!   `StreamBackend` under `SparseCoreConfig::paper()`;
//! * `fig15_tensor` `gustavson/C`: both tensor backends under
//!   `SparseCoreConfig::paper_one_su()`.
//!
//! These cells take the scalar core model through every per-event path
//! (ops, branches, loads, stores, the cache walk) on both backends, so a
//! host-side change that moves one simulated cycle fails here, in a plain
//! `cargo test`, without recording the matrix.

use std::path::Path;

use sc_gpm::App;
use sc_graph::Dataset;
use sc_kernels::{gustavson_sampled, ScalarTensorBackend, StreamTensorBackend};
use sc_report::RunRecord;
use sc_tensor::MatrixDataset;
use sparsecore::{Engine, SparseCoreConfig};

/// The golden record `workload` of `bench`.
fn golden(bench: &str, workload: &str) -> RunRecord {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("results/golden/{bench}.json"));
    sc_report::load_path(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
        .into_iter()
        .find(|r| r.bench == bench && r.workload == workload)
        .unwrap_or_else(|| panic!("{} holds no record {workload}", path.display()))
}

/// Assert a re-simulated cell equals its golden record.
fn assert_golden(
    bench: &str,
    workload: &str,
    cfg: &SparseCoreConfig,
    checksum: u64,
    cycles: u64,
    baseline_cycles: u64,
) {
    let want = golden(bench, workload);
    assert_eq!(want.config_digest, cfg.digest(), "{bench} {workload}: machine config");
    assert_eq!(
        (checksum, cycles, Some(baseline_cycles)),
        (want.checksum, want.cycles, want.baseline_cycles),
        "{bench} {workload}: (checksum, cycles, baseline cycles)"
    );
}

#[test]
fn gpm_cells_match_golden() {
    let g = Dataset::Citeseer.build();
    let cfg = SparseCoreConfig::paper();
    for app in [App::ThreeChain, App::Clique4] {
        let cpu = app.run_scalar(&g);
        let sc = app.run_stream(&g, cfg);
        assert_eq!(cpu.count, sc.count, "{app}: backends disagree");
        let workload = format!("{app}/{}", Dataset::Citeseer.tag());
        assert_golden("fig08_cpu_speedup", &workload, &cfg, sc.count, sc.cycles, cpu.cycles);
    }
}

#[test]
fn gustavson_cell_matches_golden() {
    let a = MatrixDataset::Circuit204.build();
    let cfg = SparseCoreConfig::paper_one_su();
    let cpu = gustavson_sampled(&a, &a, &mut ScalarTensorBackend::new(), 1);
    let sc = gustavson_sampled(&a, &a, &mut StreamTensorBackend::with_engine(Engine::new(cfg)), 1);
    assert_eq!(cpu.c.nnz(), sc.c.nnz(), "backends disagree");
    let workload = format!("gustavson/{}", MatrixDataset::Circuit204.tag());
    assert_golden("fig15_tensor", &workload, &cfg, sc.c.nnz() as u64, sc.cycles, cpu.cycles);
}
