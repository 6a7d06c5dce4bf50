//! Pin every dataset the reproduction generates, bit for bit, against
//! digests captured from an earlier build.
//!
//! A dataset is a pure function of its spec and seed: the figures, the
//! golden records and `bench/expected` all assume the same graphs,
//! matrices and tensors come out of every build. Each line of
//! `tests/data/dataset_pin.txt` holds the shape and a 64-bit FNV-1a
//! digest of one build:
//!
//! * `table4`: every `Dataset::ALL` graph;
//! * `table5m` / `table5c`: every `MatrixDataset::ALL` matrix and its
//!   `to_csc()`;
//! * `table5t`: every `TensorDataset::ALL` tensor;
//! * `bench-graph`, `bench-matrix` / `bench-csc` and `bench-tensor`: the
//!   generator entry points at the seeds `bench/` derives for `--seed 1`
//!   and `--seed 7`, on the datasets its workloads use;
//! * `uniform`: `uniform_graph` at a few shapes;
//! * `unsorted`: `CsrMatrix::from_triplets`, `CsfTensor::from_entries`,
//!   `CsrGraph::from_edges` and `CsrGraph::from_adjacency` on seeded
//!   unsorted input with duplicates, self-loops and signed zeros, where
//!   the order duplicates are summed in shows in the low bits.
//!
//! The digests cover every stored index and value bit, the derived
//! per-row, per-fiber and per-vertex offsets and the simulated layout.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_graph::{powerlaw_graph, uniform_graph, CsrGraph, Dataset, PowerLawConfig, VertexId};
use sc_tensor::{
    random_matrix, random_tensor, CscMatrix, CsfTensor, CsrMatrix, MatrixDataset, TensorDataset,
};

/// FNV-1a, 64 bit, over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn u32s(&mut self, xs: &[u32]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.bytes(&x.to_le_bytes());
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.u64(xs.len() as u64);
        for &x in xs {
            self.u64(x.to_bits());
        }
    }
}

fn graph_line(label: &str, g: &CsrGraph) -> String {
    let mut h = Fnv::new();
    let l = g.layout();
    for w in [g.num_vertices() as u64, l.index_base, l.edge_base, l.offset_base] {
        h.u64(w);
    }
    for v in g.vertices() {
        h.u32s(g.neighbors(v));
        h.u64(u64::from(g.csr_offset(v)));
        h.u64(g.edge_list_addr(v));
    }
    format!(
        "{label} v={} e={} dmax={} {:016x}\n",
        g.num_vertices(),
        g.num_edges(),
        g.max_degree(),
        h.0
    )
}

fn matrix_line(label: &str, m: &CsrMatrix) -> String {
    let mut h = Fnv::new();
    let l = m.layout();
    for w in [m.rows() as u64, m.cols() as u64, l.index_base, l.value_base] {
        h.u64(w);
    }
    for r in 0..m.rows() {
        h.u32s(m.row_indices(r));
        h.f64s(m.row_values(r));
        h.u64(m.row_index_addr(r));
        h.u64(m.row_value_addr(r));
    }
    format!("{label} {}x{} nnz={} {:016x}\n", m.rows(), m.cols(), m.nnz(), h.0)
}

fn csc_line(label: &str, c: &CscMatrix) -> String {
    let mut h = Fnv::new();
    h.u64(c.rows() as u64);
    h.u64(c.cols() as u64);
    for col in 0..c.cols() {
        h.u32s(c.col_indices(col));
        h.f64s(c.col_values(col));
        h.u64(c.col_index_addr(col));
        h.u64(c.col_value_addr(col));
    }
    format!("{label} {}x{} nnz={} {:016x}\n", c.rows(), c.cols(), c.nnz(), h.0)
}

fn tensor_line(label: &str, t: &CsfTensor) -> String {
    let mut h = Fnv::new();
    let l = t.layout();
    for w in t.dims() {
        h.u64(w as u64);
    }
    h.u64(l.index_base);
    h.u64(l.value_base);
    for (n, f) in t.fibers().enumerate() {
        h.u64(u64::from(f.i) << 32 | u64::from(f.j));
        h.u32s(&f.ks);
        h.f64s(&f.vals);
        h.u64(t.fiber_index_addr(n));
        h.u64(t.fiber_value_addr(n));
    }
    let [d0, d1, d2] = t.dims();
    format!("{label} {d0}x{d1}x{d2} fibers={} nnz={} {:016x}\n", t.num_fibers(), t.nnz(), h.0)
}

/// The generator seed `bench/` uses for a dataset's base seed at
/// benchmark seed `seed` (its `mix`; seed 0 is the base itself).
fn bench_seed(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The datasets the `bench/` workloads build, and the seeds pinned for
/// each beyond seed 0.
const BENCH_GRAPHS: [Dataset; 3] = [Dataset::Citeseer, Dataset::Gnutella08, Dataset::EmailEuCore];
const BENCH_MATRICES: [MatrixDataset; 2] = [MatrixDataset::Circuit204, MatrixDataset::EmailEuCore];
const BENCH_SEEDS: [u64; 2] = [1, 7];

fn table4() -> String {
    Dataset::ALL.iter().map(|&d| graph_line(&format!("table4 {}", d.tag()), &d.build())).collect()
}

fn table5_matrices() -> String {
    let mut out = String::new();
    for m in MatrixDataset::ALL {
        let a = m.build();
        out.push_str(&matrix_line(&format!("table5m {}", m.tag()), &a));
        out.push_str(&csc_line(&format!("table5c {}", m.tag()), &a.to_csc()));
    }
    out
}

fn table5_tensors() -> String {
    TensorDataset::ALL
        .iter()
        .map(|&t| tensor_line(&format!("table5t {}", t.tag()), &t.build()))
        .collect()
}

fn bench_seed_graphs() -> String {
    let mut out = String::new();
    for seed in BENCH_SEEDS {
        for d in BENCH_GRAPHS {
            let s = d.spec();
            let g = powerlaw_graph(PowerLawConfig {
                num_vertices: s.num_vertices,
                num_edges: s.num_edges,
                max_degree: s.max_degree,
                seed: bench_seed(0x5AC0_0000 + d as u64, seed),
            });
            out.push_str(&graph_line(&format!("bench-graph {seed} {}", d.tag()), &g));
        }
    }
    out
}

fn bench_seed_matrices() -> String {
    let mut out = String::new();
    for seed in BENCH_SEEDS {
        for m in BENCH_MATRICES {
            let s = m.spec();
            let a = random_matrix(s.dim, s.dim, s.nnz, bench_seed(0x7E45_0000 + m as u64, seed));
            out.push_str(&matrix_line(&format!("bench-matrix {seed} {}", m.tag()), &a));
            out.push_str(&csc_line(&format!("bench-csc {seed} {}", m.tag()), &a.to_csc()));
        }
    }
    out
}

fn bench_seed_tensors() -> String {
    let mut out = String::new();
    for seed in BENCH_SEEDS {
        for t in TensorDataset::ALL {
            let s = t.spec();
            let x = random_tensor(
                s.dims,
                s.num_fibers,
                s.nnz,
                bench_seed(0x7E45_5000 + t as u64, seed),
            );
            out.push_str(&tensor_line(&format!("bench-tensor {seed} {}", t.tag()), &x));
        }
    }
    out
}

fn uniform() -> String {
    [(3, 3, 0), (50, 100, 7), (100, 300, 42), (1000, 16_100, 0x5AC0_0001), (120, 1400, 23)]
        .iter()
        .map(|&(n, m, seed)| {
            graph_line(&format!("uniform n={n} m={m} seed={seed}"), &uniform_graph(n, m, seed))
        })
        .collect()
}

/// A value whose sum with others depends on the order it is added in;
/// every 16th draw is a signed zero.
fn messy_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0u32..16) {
        0 => -0.0,
        1 => 0.0,
        _ => rng.gen_range(-1.0..1.0) * 1e3f64.powi(rng.gen_range(0i32..5)),
    }
}

fn unsorted() -> String {
    let mut rng = StdRng::seed_from_u64(0xD5_2022);
    let mut out = String::new();

    // Few distinct coordinates, so most are repeated several times.
    let (rows, cols) = (40usize, 30usize);
    let triplets: Vec<(u32, u32, f64)> = (0..3000)
        .map(|_| {
            let r = rng.gen_range(0..rows as u32);
            let c = rng.gen_range(0..cols as u32 / 3) * 3;
            (r, c, messy_value(&mut rng))
        })
        .chain([(7, 1, -0.0), (39, 29, 0.0), (0, 0, -0.0), (0, 0, -0.0)])
        .collect();
    let m = CsrMatrix::from_triplets(rows, cols, &triplets);
    out.push_str(&matrix_line("unsorted from_triplets", &m));
    out.push_str(&csc_line("unsorted from_triplets.to_csc", &m.to_csc()));
    let reversed: Vec<_> = triplets.iter().rev().copied().collect();
    out.push_str(&matrix_line(
        "unsorted from_triplets reversed",
        &CsrMatrix::from_triplets(rows, cols, &reversed),
    ));
    out.push_str(&matrix_line(
        "unsorted from_triplets empty",
        &CsrMatrix::from_triplets(3, 0, &[]),
    ));

    let dims = [6usize, 5, 20];
    let entries: Vec<(u32, u32, u32, f64)> = (0..4000)
        .map(|_| {
            let i = rng.gen_range(0..dims[0] as u32);
            let j = rng.gen_range(0..dims[1] as u32 / 2) * 2;
            let k = rng.gen_range(0..dims[2] as u32 / 4) * 4;
            (i, j, k, messy_value(&mut rng))
        })
        .chain([(5, 4, 19, -0.0), (0, 1, 3, -0.0), (0, 1, 3, -0.0)])
        .collect();
    out.push_str(&tensor_line("unsorted from_entries", &CsfTensor::from_entries(dims, &entries)));
    let reversed: Vec<_> = entries.iter().rev().copied().collect();
    out.push_str(&tensor_line(
        "unsorted from_entries reversed",
        &CsfTensor::from_entries(dims, &reversed),
    ));
    out.push_str(&tensor_line("unsorted from_entries empty", &CsfTensor::from_entries(dims, &[])));

    let n = 200usize;
    let edges: Vec<(VertexId, VertexId)> = (0..3000)
        .map(|_| {
            let u = rng.gen_range(0..n as VertexId);
            // A narrow band of targets plus every 8th edge a self-loop.
            let v =
                if rng.gen_range(0u32..8) == 0 { u } else { rng.gen_range(0..n as VertexId / 4) };
            (u, v)
        })
        .collect();
    out.push_str(&graph_line("unsorted from_edges", &CsrGraph::from_edges(n, &edges)));
    out.push_str(&graph_line("unsorted from_edges empty", &CsrGraph::from_edges(4, &[])));
    let adjacency: Vec<Vec<VertexId>> = (0..n)
        .map(|_| (0..rng.gen_range(0..40)).map(|_| rng.gen_range(0..n as VertexId)).collect())
        .collect();
    out.push_str(&graph_line("unsorted from_adjacency", &CsrGraph::from_adjacency(adjacency)));
    out
}

/// The pinned lines whose first word is one of `families`, in file order.
fn pinned(families: &[&str]) -> String {
    include_str!("data/dataset_pin.txt")
        .lines()
        .filter(|l| l.split(' ').next().is_some_and(|f| families.contains(&f)))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn assert_pinned(families: &[&str], got: &str) {
    let want = pinned(families);
    assert!(!want.is_empty(), "no pinned lines for {families:?}");
    if got == want {
        return;
    }
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let at = g.iter().zip(&w).position(|(a, b)| a != b).unwrap_or(g.len().min(w.len()));
    panic!(
        "{families:?}: dataset differs from the pin at line {}:\n  got:  {}\n  want: {}",
        at + 1,
        g.get(at).unwrap_or(&"<end>"),
        w.get(at).unwrap_or(&"<end>"),
    );
}

#[test]
fn table4_graphs_match_pin() {
    assert_pinned(&["table4"], &table4());
}

#[test]
fn table5_matrices_and_their_csc_match_pin() {
    assert_pinned(&["table5m", "table5c"], &table5_matrices());
}

#[test]
fn table5_tensors_match_pin() {
    assert_pinned(&["table5t"], &table5_tensors());
}

#[test]
fn bench_seed_graphs_match_pin() {
    assert_pinned(&["bench-graph"], &bench_seed_graphs());
}

#[test]
fn bench_seed_matrices_match_pin() {
    assert_pinned(&["bench-matrix", "bench-csc"], &bench_seed_matrices());
}

#[test]
fn bench_seed_tensors_match_pin() {
    assert_pinned(&["bench-tensor"], &bench_seed_tensors());
}

#[test]
fn uniform_graphs_match_pin() {
    assert_pinned(&["uniform"], &uniform());
}

#[test]
fn constructors_on_unsorted_duplicate_input_match_pin() {
    assert_pinned(&["unsorted"], &unsorted());
}
