//! Pin every public tensor-kernel entry point, on both tensor backends,
//! against values captured from an earlier build.
//!
//! Each line of `tests/data/kernel_pin.txt` holds one run: the fixture,
//! the backend, the entry point and its parameters, then the simulated
//! cycles, the items simulated and a 64-bit FNV-1a digest of the output
//! (every stored index and value bit, and for the adaptive drivers the
//! block plan). A rewrite of a kernel must reproduce every line.
//!
//! The fixtures reach shapes the figure bins never run: rows and columns
//! with no entries, a non-square operand, and a row count (19) that none
//! of the adaptive block sizes divides. Strides cover 1, 3 and one larger
//! than the item count. SpMV and SpMSpV meet every operand shape
//! `S_VINTER` tells apart: a dense run of keys on either side, on both
//! sides, and on neither. `ttm` is not pinned: it charges the same fiber
//! body as `ttm_sampled` at stride 1, which
//! `exact_entry_points_equal_their_stride_one_form` checks.

use sc_accel::{ExTensorBackend, GammaBackend, OuterSpaceBackend};
use sc_kernels::{
    adaptive, adaptive_oracle, gustavson, gustavson_multicore, gustavson_sampled, inner_product,
    outer_product, outer_product_sampled, spmspv, spmv, ttm, ttm_sampled, ttv, ttv_multicore,
    ttv_sampled, AdaptiveOptions, AdaptiveResult, InnerOptions, ScalarTensorBackend, SpmspmResult,
    SpmvResult, StreamTensorBackend, TensorBackend, TtmResult, TtvResult,
};
use sc_probe::Probe;
use sc_tensor::{random_matrix, random_tensor, CsfTensor, CsrMatrix};
use sparsecore::{Engine, SchedMode, SparseCoreConfig};

/// FNV-1a, 64 bit, over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u64(x.to_bits());
        }
    }
}

fn matrix_digest(c: &CsrMatrix) -> Fnv {
    let mut h = Fnv::new();
    h.u64(c.rows() as u64);
    h.u64(c.cols() as u64);
    for i in 0..c.rows() {
        h.u64(c.row_nnz(i) as u64);
        for &j in c.row_indices(i) {
            h.u64(u64::from(j));
        }
        h.f64s(c.row_values(i));
    }
    h
}

fn spmspm_line(label: &str, r: &SpmspmResult) -> String {
    let h = matrix_digest(&r.c);
    format!("{label} cycles={} rows={} {:016x}\n", r.cycles, r.rows_simulated, h.0)
}

fn adaptive_line(label: &str, r: &AdaptiveResult) -> String {
    let mut h = matrix_digest(&r.result.c);
    for b in &r.plan {
        h.u64(b.rows.0 as u64);
        h.u64(b.rows.1 as u64);
        h.u64(b.dataflow as u64);
        h.f64s(&b.estimates);
    }
    let tags: Vec<&str> = r.plan.iter().map(|b| b.dataflow.tag()).collect();
    format!(
        "{label} cycles={} rows={} plan={} {:016x}\n",
        r.result.cycles,
        r.result.rows_simulated,
        tags.join(","),
        h.0
    )
}

fn ttv_line(label: &str, r: &TtvResult) -> String {
    let mut h = Fnv::new();
    for row in &r.z {
        h.f64s(row);
    }
    format!("{label} cycles={} {:016x}\n", r.cycles, h.0)
}

fn ttm_line(label: &str, r: &TtmResult) -> String {
    let mut h = Fnv::new();
    for cell in r.z.iter().flatten() {
        h.f64s(cell);
    }
    format!("{label} cycles={} {:016x}\n", r.cycles, h.0)
}

fn spmv_line(label: &str, r: &SpmvResult) -> String {
    let mut h = Fnv::new();
    h.f64s(&r.y);
    format!("{label} cycles={} {:016x}\n", r.cycles, h.0)
}

/// `random_matrix` with the listed rows and columns emptied.
fn holed(shape: [usize; 2], nnz: usize, seed: u64, rows: &[u32], cols: &[u32]) -> CsrMatrix {
    let m = random_matrix(shape[0], shape[1], nnz, seed);
    let mut t = Vec::new();
    for i in 0..m.rows() {
        for (&j, &v) in m.row_indices(i).iter().zip(m.row_values(i)) {
            if !rows.contains(&(i as u32)) && !cols.contains(&j) {
                t.push((i as u32, j, v));
            }
        }
    }
    CsrMatrix::from_triplets(shape[0], shape[1], &t)
}

/// The spmspm fixtures: `AB` is 19×13 times 13×17, `AA` a square 19×19
/// matrix times itself, the shape the figure bins run. Empty rows and
/// columns sit at both ends and in the middle: `A`'s empty column 3 meets
/// `B`'s empty row 3, `B`'s empty row 7 sits under a nonempty column of
/// `A`, and `A`'s empty column 12 meets a nonempty row of `B`.
fn matrices() -> Vec<(&'static str, CsrMatrix, CsrMatrix)> {
    let a = holed([19, 13], 80, 3, &[0, 5, 6, 18], &[3, 12]);
    let b = holed([13, 17], 70, 4, &[3, 7], &[0, 8, 16]);
    let s = holed([19, 19], 90, 5, &[0, 9, 10], &[2, 18]);
    vec![("AB", a, b), ("AA", s.clone(), s)]
}

/// A 6×5×12 tensor with 14 of its 30 fibers present, the dense vector
/// and a rank-3 factor matrix.
fn tensor() -> (CsfTensor, Vec<f64>, Vec<Vec<f64>>) {
    let t = random_tensor([6, 5, 12], 14, 60, 21);
    let v = (0..12).map(|i| 0.5 + i as f64 * 0.25).collect();
    let b = (0..3).map(|k| (0..12).map(|l| (k * 12 + l) as f64 * 0.1 + 1.0).collect()).collect();
    (t, v, b)
}

/// One SU, the tensor figures' configuration.
fn stream() -> StreamTensorBackend {
    StreamTensorBackend::with_engine(Engine::new(SparseCoreConfig::paper_one_su()))
}

/// Strides of 1, 3 and more than any fixture's item count.
const STRIDES: [usize; 3] = [1, 3, 100];

fn spmspm_runs<B: TensorBackend>(name: &str, mut new: impl FnMut() -> B) -> String {
    let mut out = String::new();
    for (fx, a, b) in matrices() {
        let (acsc, bcsc) = (a.to_csc(), b.to_csc());
        let label = |entry: &str| format!("spmspm {fx} {name} {entry}");
        for sample in [None, Some(1), Some(3), Some(100)] {
            let r = inner_product(&a, &bcsc, &mut new(), InnerOptions { row_sample: sample });
            out += &spmspm_line(&label(&format!("inner_product row_sample={sample:?}")), &r);
        }
        out += &spmspm_line(&label("outer_product"), &outer_product(&acsc, &b, &mut new()));
        out += &spmspm_line(&label("gustavson"), &gustavson(&a, &b, &mut new()));
        for s in STRIDES {
            let r = outer_product_sampled(&acsc, &b, &mut new(), s);
            out += &spmspm_line(&label(&format!("outer_product_sampled stride={s}")), &r);
            let r = gustavson_sampled(&a, &b, &mut new(), s);
            out += &spmspm_line(&label(&format!("gustavson_sampled stride={s}")), &r);
        }
    }
    out
}

fn tensor_runs<B: TensorBackend>(name: &str, mut new: impl FnMut() -> B) -> String {
    let (t, v, b) = tensor();
    let mut out = ttv_line(&format!("tensor {name} ttv"), &ttv(&t, &v, &mut new()));
    for s in STRIDES {
        let r = ttv_sampled(&t, &v, &mut new(), s);
        out += &ttv_line(&format!("tensor {name} ttv_sampled stride={s}"), &r);
        let r = ttm_sampled(&t, &b, &mut new(), s);
        out += &ttm_line(&format!("tensor {name} ttm_sampled stride={s}"), &r);
    }
    out
}

/// A 12×20 matrix for SpMV: empty rows (0, 5 and the last), one entry,
/// runs of two, six and all twenty consecutive columns, a run that ends
/// at the last column, and sparse rows.
fn spmv_matrix() -> CsrMatrix {
    let rows: [Vec<u32>; 12] = [
        vec![],
        (3..9).collect(),
        vec![0, 4, 7, 13, 19],
        vec![11],
        vec![5, 6],
        vec![],
        (0..20).collect(),
        vec![2, 3, 9, 10, 11, 17],
        (15..20).collect(),
        vec![1, 6, 8, 12],
        vec![0, 1],
        vec![],
    ];
    let mut t = Vec::new();
    for (i, cols) in rows.iter().enumerate() {
        for &j in cols {
            t.push((i as u32, j, 0.37 * f64::from(j) - 0.11 * i as f64 + 0.5));
        }
    }
    CsrMatrix::from_triplets(12, 20, &t)
}

/// The sparse `x` of SpMSpV, each against every row of `spmv_matrix`:
/// scattered keys, a run of consecutive keys (so a sparse row meets a
/// dense `x`, and a dense row a dense one), a run of two, one key, no key
/// and every key.
fn sparse_vectors() -> Vec<(&'static str, Vec<u32>)> {
    vec![
        ("scattered", vec![1, 4, 5, 8, 11, 16, 19]),
        ("run", (4..11).collect()),
        ("pair", vec![6, 7]),
        ("one", vec![8]),
        ("empty", vec![]),
        ("full", (0..20).collect()),
    ]
}

fn spmv_runs<B: TensorBackend>(name: &str, mut new: impl FnMut() -> B) -> String {
    let mut out = String::new();
    let (_, ab, _) = matrices().swap_remove(0);
    for (fx, a) in [("S", spmv_matrix()), ("AB", ab)] {
        let x: Vec<f64> = (0..a.cols()).map(|i| 0.5 + i as f64 * 0.25).collect();
        out += &spmv_line(&format!("spmv {fx} {name} spmv"), &spmv(&a, &x, &mut new()));
    }
    let a = spmv_matrix();
    for (xn, keys) in sparse_vectors() {
        let vals: Vec<f64> = keys.iter().map(|&k| 1.25 - 0.3 * f64::from(k)).collect();
        let r = spmspv(&a, &keys, &vals, &mut new());
        out += &spmv_line(&format!("spmv S {name} spmspv x={xn}"), &r);
    }
    out
}

fn adaptive_opts() -> Vec<AdaptiveOptions> {
    let mut opts = Vec::new();
    for block_rows in [3, 8, 64] {
        for block_sample in [None, Some(2)] {
            opts.push(AdaptiveOptions { block_rows, block_sample });
        }
    }
    opts
}

fn adaptive_runs<B: TensorBackend>(name: &str, mut new: impl FnMut() -> B) -> String {
    let cfg = SparseCoreConfig::paper_one_su();
    let mut out = String::new();
    for (fx, a, b) in matrices() {
        for o in adaptive_opts() {
            let params = format!("block_rows={} block_sample={:?}", o.block_rows, o.block_sample);
            let r = adaptive(&a, &b, &mut new(), &cfg, o);
            out += &adaptive_line(&format!("adaptive {fx} {name} adaptive {params}"), &r);
            let r = adaptive_oracle(&a, &b, &mut new(), &mut new, o);
            out += &adaptive_line(&format!("adaptive {fx} {name} adaptive_oracle {params}"), &r);
        }
    }
    out
}

fn accel_runs() -> String {
    let mut out = String::new();
    for (fx, a, b) in matrices() {
        let (acsc, bcsc) = (a.to_csc(), b.to_csc());
        for sample in [None, Some(3)] {
            let r = inner_product(
                &a,
                &bcsc,
                &mut ExTensorBackend::new(),
                InnerOptions { row_sample: sample },
            );
            out += &spmspm_line(
                &format!("accel {fx} extensor inner_product row_sample={sample:?}"),
                &r,
            );
        }
        let r = outer_product(&acsc, &b, &mut OuterSpaceBackend::new());
        out += &spmspm_line(&format!("accel {fx} outerspace outer_product"), &r);
        let r = gustavson(&a, &b, &mut GammaBackend::new());
        out += &spmspm_line(&format!("accel {fx} gamma gustavson"), &r);
        for s in STRIDES {
            let r = outer_product_sampled(&acsc, &b, &mut OuterSpaceBackend::new(), s);
            out += &spmspm_line(
                &format!("accel {fx} outerspace outer_product_sampled stride={s}"),
                &r,
            );
            let r = gustavson_sampled(&a, &b, &mut GammaBackend::new(), s);
            out += &spmspm_line(&format!("accel {fx} gamma gustavson_sampled stride={s}"), &r);
        }
    }
    out
}

fn multicore_runs() -> String {
    let cfg = SparseCoreConfig::paper();
    let (t, v, _) = tensor();
    let mut out = String::new();
    for mode in [SchedMode::Static, SchedMode::Dynamic] {
        for cores in 1..=3 {
            for (fx, a, b) in matrices() {
                let partition = mode.partition(a.rows(), 4);
                let (r, run, report) =
                    gustavson_multicore(&a, &b, cfg, cores, &partition, Probe::off());
                assert!(report.is_empty(), "{report}");
                let label = format!(
                    "multicore {fx} gustavson_multicore {mode} cores={cores} count={} per_core={:?}",
                    run.count, run.per_core
                );
                out += &spmspm_line(&label, &r);
            }
            let partition = mode.partition(t.num_fibers(), 4);
            let (r, run, report) = ttv_multicore(&t, &v, cfg, cores, &partition, Probe::off());
            assert!(report.is_empty(), "{report}");
            let label = format!(
                "multicore T ttv_multicore {mode} cores={cores} count={} per_core={:?}",
                run.count, run.per_core
            );
            out += &ttv_line(&label, &r);
        }
    }
    out
}

/// The pinned lines whose first word is `family`, in file order.
fn pinned(family: &str) -> String {
    include_str!("data/kernel_pin.txt")
        .lines()
        .filter(|l| l.split(' ').next() == Some(family))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn assert_pinned(family: &str, got: &str) {
    let want = pinned(family);
    assert!(!want.is_empty(), "no pinned lines for {family}");
    if got == want {
        return;
    }
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let at = g.iter().zip(&w).position(|(a, b)| a != b).unwrap_or(g.len().min(w.len()));
    panic!(
        "{family}: run differs from the pin at line {}:\n  got:  {}\n  want: {}",
        at + 1,
        g.get(at).unwrap_or(&"<end>"),
        w.get(at).unwrap_or(&"<end>"),
    );
}

#[test]
fn spmspm_entry_points_match_pin() {
    let got = spmspm_runs("cpu", ScalarTensorBackend::new) + &spmspm_runs("sc", stream);
    assert_pinned("spmspm", &got);
}

#[test]
fn tensor_entry_points_match_pin() {
    let got = tensor_runs("cpu", ScalarTensorBackend::new) + &tensor_runs("sc", stream);
    assert_pinned("tensor", &got);
}

#[test]
fn spmv_entry_points_match_pin() {
    let got = spmv_runs("cpu", ScalarTensorBackend::new) + &spmv_runs("sc", stream);
    assert_pinned("spmv", &got);
}

#[test]
fn adaptive_and_oracle_match_pin() {
    let got = adaptive_runs("cpu", ScalarTensorBackend::new) + &adaptive_runs("sc", stream);
    assert_pinned("adaptive", &got);
}

#[test]
fn accelerators_on_their_own_dataflows_match_pin() {
    assert_pinned("accel", &accel_runs());
}

#[test]
fn multicore_entry_points_match_pin() {
    assert_pinned("multicore", &multicore_runs());
}

/// Every exact entry point is its sampled form at stride 1: the same
/// product and cycles, and for inner product and Gustavson the same rows
/// simulated. The exact outer product reports its output rows, the
/// sampled one the columns of `A` it ran.
#[test]
fn exact_entry_points_equal_their_stride_one_form() {
    fn check<B: TensorBackend>(name: &str, mut new: impl FnMut() -> B) {
        for (fx, a, b) in matrices() {
            let (acsc, bcsc) = (a.to_csc(), b.to_csc());
            let one = InnerOptions { row_sample: Some(1) };
            assert_eq!(
                inner_product(&a, &bcsc, &mut new(), InnerOptions::default()),
                inner_product(&a, &bcsc, &mut new(), one),
                "{fx} {name} inner_product"
            );
            assert_eq!(
                gustavson(&a, &b, &mut new()),
                gustavson_sampled(&a, &b, &mut new(), 1),
                "{fx} {name} gustavson"
            );
            let exact = outer_product(&acsc, &b, &mut new());
            let sampled = outer_product_sampled(&acsc, &b, &mut new(), 1);
            assert_eq!(
                (exact.c, exact.cycles, exact.rows_simulated, sampled.rows_simulated),
                (sampled.c, sampled.cycles, a.rows(), a.cols()),
                "{fx} {name} outer_product"
            );
        }
        let (t, v, f) = tensor();
        assert_eq!(ttv(&t, &v, &mut new()), ttv_sampled(&t, &v, &mut new(), 1), "{name} ttv");
        assert_eq!(ttm(&t, &f, &mut new()), ttm_sampled(&t, &f, &mut new(), 1), "{name} ttm");
    }
    check("cpu", ScalarTensorBackend::new);
    check("sc", stream);
}
