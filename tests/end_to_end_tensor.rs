//! Cross-crate integration: tensor kernels over generated datasets,
//! checked against dense references and across backends/dataflows.

use sc_accel::{ExTensorBackend, GammaBackend, OuterSpaceBackend};
use sc_kernels::{
    gustavson, inner_product, outer_product, ttm, ttv, InnerOptions, ScalarTensorBackend,
    StreamTensorBackend,
};
use sc_tensor::dense::{dense_close, matmul_reference, ttm_reference, ttv_reference};
use sc_tensor::generators::{random_matrix, random_tensor};
use sc_tensor::MatrixDataset;
use sparsecore::{Engine, SparseCoreConfig};

#[test]
fn all_dataflows_and_backends_agree() {
    let a = random_matrix(20, 20, 120, 101);
    let b = random_matrix(20, 20, 120, 102);
    let expected = matmul_reference(&a, &b);
    let bcsc = b.to_csc();
    let acsc = a.to_csc();

    let runs: Vec<(&str, Vec<Vec<f64>>)> = vec![
        (
            "inner/cpu",
            inner_product(&a, &bcsc, &mut ScalarTensorBackend::new(), InnerOptions::default())
                .c
                .to_dense(),
        ),
        (
            "inner/sc",
            inner_product(&a, &bcsc, &mut StreamTensorBackend::new(), InnerOptions::default())
                .c
                .to_dense(),
        ),
        (
            "inner/extensor",
            inner_product(&a, &bcsc, &mut ExTensorBackend::new(), InnerOptions::default())
                .c
                .to_dense(),
        ),
        ("outer/cpu", outer_product(&acsc, &b, &mut ScalarTensorBackend::new()).c.to_dense()),
        ("outer/sc", outer_product(&acsc, &b, &mut StreamTensorBackend::new()).c.to_dense()),
        ("outer/outerspace", outer_product(&acsc, &b, &mut OuterSpaceBackend::new()).c.to_dense()),
        ("gustavson/cpu", gustavson(&a, &b, &mut ScalarTensorBackend::new()).c.to_dense()),
        ("gustavson/sc", gustavson(&a, &b, &mut StreamTensorBackend::new()).c.to_dense()),
        ("gustavson/gamma", gustavson(&a, &b, &mut GammaBackend::new()).c.to_dense()),
    ];
    for (name, got) in runs {
        assert!(dense_close(&got, &expected, 1e-9), "{name} mismatch");
    }
}

#[test]
fn ttv_and_ttm_match_references() {
    let t = random_tensor([10, 8, 30], 40, 400, 103);
    let v: Vec<f64> = (0..30).map(|i| 0.3 + i as f64 * 0.05).collect();
    let expected = ttv_reference(&t, &v);
    for z in [
        ttv(&t, &v, &mut ScalarTensorBackend::new()).z,
        ttv(&t, &v, &mut StreamTensorBackend::new()).z,
    ] {
        for i in 0..10 {
            for j in 0..8 {
                assert!((z[i][j] - expected[i][j]).abs() < 1e-9);
            }
        }
    }
    let b: Vec<Vec<f64>> =
        (0..4).map(|k| (0..30).map(|l| (k + l) as f64 * 0.1).collect()).collect();
    let expected = ttm_reference(&t, &b);
    let z = ttm(&t, &b, &mut StreamTensorBackend::new()).z;
    for i in 0..10 {
        for j in 0..8 {
            for k in 0..4 {
                assert!((z[i][j][k] - expected[i][j][k]).abs() < 1e-9);
            }
        }
    }
}

#[test]
fn dataset_matrix_products_self_consistent() {
    // A real Table 5 matrix: outer and Gustavson must produce identical
    // full products on both backends.
    let a = MatrixDataset::Laser.build();
    let acsc = a.to_csc();
    let outer = outer_product(&acsc, &a, &mut ScalarTensorBackend::new());
    let gus = gustavson(&a, &a, &mut ScalarTensorBackend::new());
    assert_eq!(outer.c.nnz(), gus.c.nnz());
    let gus_sc = gustavson(
        &a,
        &a,
        &mut StreamTensorBackend::with_engine(Engine::new(SparseCoreConfig::paper_one_su())),
    );
    assert_eq!(gus.c.nnz(), gus_sc.c.nnz());
}

#[test]
fn sanitized_gustavson_run_conserves_stats() {
    // Golden stats-conservation pin on a tensor workload: a full
    // Gustavson SpGEMM with the sanitizer on must finish with zero
    // findings and balanced engine counters.
    let a = random_matrix(20, 20, 120, 101);
    let b = random_matrix(20, 20, 120, 102);
    let config = SparseCoreConfig { sanitize: true, ..SparseCoreConfig::paper_one_su() };
    let mut backend = StreamTensorBackend::with_engine(Engine::new(config));
    assert!(backend.engine().sanitize_enabled());
    let run = gustavson(&a, &b, &mut backend);
    assert!(dense_close(&run.c.to_dense(), &matmul_reference(&a, &b), 1e-9));
    let report = backend.engine_mut().sanitizer_report();
    assert!(report.is_empty(), "sanitizer findings:\n{report}");
    let stats = backend.engine().stats();
    assert_eq!(stats.reads, stats.scratchpad_hits + stats.scratchpad_misses);
    assert!(stats.value_ops > 0, "Gustavson runs value merges");
}

#[test]
fn longer_rows_bigger_inner_speedup() {
    // Paper Section 6.9.1: TSOPF's long rows drive the largest speedup.
    let speedup = |rows: usize, nnz: usize| {
        let a = random_matrix(rows, rows, nnz, 104);
        let csc = a.to_csc();
        let opts = InnerOptions { row_sample: Some(2) };
        let cpu = inner_product(&a, &csc, &mut ScalarTensorBackend::new(), opts);
        let sc = inner_product(&a, &csc, &mut StreamTensorBackend::new(), opts);
        cpu.cycles as f64 / sc.cycles.max(1) as f64
    };
    let short_rows = speedup(60, 240); // 4 nnz/row
    let long_rows = speedup(60, 2400); // 40 nnz/row
    assert!(
        long_rows > short_rows,
        "long rows {long_rows:.2} should beat short rows {short_rows:.2}"
    );
}
