//! What one in-process pass runs, and the pass runner.
//!
//! A pass is a closed loop with one client: set up the workload's
//! datasets, then execute its simulation runs one after another. The
//! sampling strides and kernel options below are workload data copied
//! from the figure bins (Figures 8, 12 and 15), not imported from them,
//! so a rewrite of those bins cannot change what this benchmark measures.

use std::time::Instant;

use sc_cpu::CoreStats;
use sc_gpm::exec::{self, ScalarBackend, SetBackend, StreamBackend};
use sc_gpm::{App, Plan};
use sc_graph::{powerlaw_graph, CsrGraph, Dataset, PowerLawConfig};
use sc_kernels::{
    adaptive, gustavson_sampled, inner_product, outer_product_sampled, ttm_sampled, ttv_sampled,
    AdaptiveOptions, InnerOptions, ScalarTensorBackend, SpmspmResult, StreamTensorBackend,
    TensorBackend,
};
use sc_tensor::{
    random_matrix, random_tensor, CscMatrix, CsfTensor, CsrMatrix, MatrixDataset, MatrixLayout,
    TensorDataset,
};
use sparsecore::{Engine, SparseCoreConfig};

use crate::ledger::Spans;
use crate::timed::{Calls, Kind, Observed, Timed};

/// Inner-product row sampling for matrices C and E (dimension ≤ 1500).
pub const INNER_ROW_SAMPLE: usize = 4;
/// Outer-product and Gustavson stride for matrices C and E (exact).
pub const MERGE_STRIDE: usize = 1;
/// Adaptive chooser: rows per block, and every fourth block simulated.
pub const ADAPTIVE: AdaptiveOptions = AdaptiveOptions { block_rows: 8, block_sample: Some(4) };
/// TTV/TTM fiber sampling stride.
pub const FIBER_STRIDE: usize = 16;
/// TTM factor-matrix rank.
pub const TTM_RANK: usize = 8;
/// SU counts of the Figure 12 sweep.
pub const SU_SWEEP: [usize; 5] = [1, 2, 4, 8, 16];

/// GPM outer-loop sampling stride on the graphs the workloads use: exact
/// everywhere except the clique apps on E.
pub fn gpm_stride(app: App, d: Dataset) -> usize {
    let clique =
        matches!(app, App::Clique4 | App::Clique4NoNested | App::Clique5 | App::Clique5NoNested);
    match d {
        Dataset::EmailEuCore if clique => 4,
        Dataset::Citeseer | Dataset::Gnutella08 | Dataset::EmailEuCore => 1,
        other => panic!("no stride table entry for {other}"),
    }
}

/// Maps the benchmark seed onto a generator seed. Seed 0 reproduces the
/// dataset's own `build()` seed exactly.
pub fn mix(base: u64, seed: u64) -> u64 {
    base.wrapping_add(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Table 4 graph `d` at benchmark seed `seed` (seed 0 equals `d.build()`).
pub fn graph(d: Dataset, seed: u64) -> CsrGraph {
    let s = d.spec();
    powerlaw_graph(PowerLawConfig {
        num_vertices: s.num_vertices,
        num_edges: s.num_edges,
        max_degree: s.max_degree,
        seed: mix(0x5AC0_0000 + d as u64, seed),
    })
}

/// Table 5 matrix `m` at benchmark seed `seed` (seed 0 equals `m.build()`).
pub fn matrix(m: MatrixDataset, seed: u64) -> CsrMatrix {
    let s = m.spec();
    let mut a = random_matrix(s.dim, s.dim, s.nnz, mix(0x7E45_0000 + m as u64, seed));
    a.set_layout(MatrixLayout::region(m as u64));
    a
}

/// Table 5 tensor `t` at benchmark seed `seed` (seed 0 equals `t.build()`).
pub fn tensor(t: TensorDataset, seed: u64) -> CsfTensor {
    let s = t.spec();
    let mut x = random_tensor(s.dims, s.num_fibers, s.nnz, mix(0x7E45_5000 + t as u64, seed));
    x.set_layout(MatrixLayout::region(16 + t as u64));
    x
}

/// Which simulated machine a run uses.
// Run lists hold at most a few hundred of these; boxing the config would
// only cost the `Copy`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub enum Side {
    /// The CPU baseline (`ScalarBackend` / `ScalarTensorBackend`).
    Cpu,
    /// SparseCore with this configuration.
    Sc(SparseCoreConfig),
}

impl Side {
    /// The config digest identifying the machine (0 for the baseline).
    pub fn digest(&self) -> u64 {
        match self {
            Side::Cpu => 0,
            Side::Sc(cfg) => cfg.digest(),
        }
    }
}

/// The tensor kernels of Figure 15.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Inner-product spmspm `A·A`.
    Inner,
    /// Outer-product spmspm.
    Outer,
    /// Gustavson spmspm.
    Gustavson,
    /// Per-block adaptive dataflow.
    Adaptive,
    /// Tensor times vector.
    Ttv,
    /// Tensor times matrix.
    Ttm,
}

impl Kernel {
    fn tag(self) -> &'static str {
        match self {
            Kernel::Inner => "inner",
            Kernel::Outer => "outer",
            Kernel::Gustavson => "gustavson",
            Kernel::Adaptive => "adaptive",
            Kernel::Ttv => "ttv",
            Kernel::Ttm => "ttm",
        }
    }

    /// Does this kernel simulate its whole input (so its output can be
    /// checked against the dense reference)?
    pub fn unsampled(self) -> bool {
        matches!(self, Kernel::Outer | Kernel::Gustavson) && MERGE_STRIDE == 1
    }
}

/// What a run computes.
#[derive(Debug, Clone, Copy)]
pub enum Task {
    /// A GPM application on a graph, with an outer-loop sampling stride.
    Gpm(App, Dataset, usize),
    /// A spmspm kernel on a matrix.
    Spmspm(Kernel, MatrixDataset),
    /// TTV or TTM on a tensor.
    Tensor(Kernel, TensorDataset),
}

/// One simulation run: a task on one machine.
#[derive(Debug, Clone)]
pub struct Run {
    /// `<app or kernel>/<dataset>/<machine>`, e.g. `TC/E/su4`.
    pub name: String,
    /// `<app or kernel>/<dataset>`: runs in a group must agree on output.
    pub group: String,
    /// The task.
    pub task: Task,
    /// The machine.
    pub side: Side,
}

/// The in-process workloads' run lists.
#[derive(Debug, Clone)]
pub struct Suite {
    /// Graphs to generate.
    pub graphs: Vec<Dataset>,
    /// Matrices to generate.
    pub matrices: Vec<MatrixDataset>,
    /// Tensors to generate.
    pub tensors: Vec<TensorDataset>,
    /// GPM apps to compile.
    pub apps: Vec<App>,
    /// Runs, in execution order.
    pub runs: Vec<Run>,
}

fn gpm_runs(graphs: &[Dataset], sides: &[(&str, Side)]) -> Vec<Run> {
    let mut runs = Vec::new();
    for app in App::FIG8 {
        for &d in graphs {
            for (label, side) in sides {
                let group = format!("{app}/{}", d.tag());
                runs.push(Run {
                    name: format!("{group}/{label}"),
                    group,
                    task: Task::Gpm(app, d, gpm_stride(app, d)),
                    side: *side,
                });
            }
        }
    }
    runs
}

fn tensor_runs(matrices: &[MatrixDataset], tensors: &[TensorDataset]) -> Vec<Run> {
    let sides = [("cpu", Side::Cpu), ("sc", Side::Sc(SparseCoreConfig::paper_one_su()))];
    let mut tasks = Vec::new();
    for k in [Kernel::Inner, Kernel::Outer, Kernel::Gustavson, Kernel::Adaptive] {
        for &m in matrices {
            tasks.push((format!("{}/{}", k.tag(), m.tag()), Task::Spmspm(k, m)));
        }
    }
    for k in [Kernel::Ttv, Kernel::Ttm] {
        for &t in tensors {
            tasks.push((format!("{}/{}", k.tag(), t.tag()), Task::Tensor(k, t)));
        }
    }
    let mut runs = Vec::new();
    for (group, task) in tasks {
        for (label, side) in sides {
            runs.push(Run { name: format!("{group}/{label}"), group: group.clone(), task, side });
        }
    }
    runs
}

impl Suite {
    /// Figure 8: the nine apps on C, G and E, CPU baseline and 4-SU
    /// SparseCore.
    pub fn gpm() -> Suite {
        let graphs = vec![Dataset::Citeseer, Dataset::Gnutella08, Dataset::EmailEuCore];
        let sides = [("cpu", Side::Cpu), ("sc", Side::Sc(SparseCoreConfig::paper()))];
        Suite {
            runs: gpm_runs(&graphs, &sides),
            graphs,
            matrices: vec![],
            tensors: vec![],
            apps: App::FIG8.to_vec(),
        }
    }

    /// Figure 12: the nine apps on E at 1–16 SUs, SparseCore only.
    pub fn dse() -> Suite {
        let graphs = vec![Dataset::EmailEuCore];
        let labels: Vec<String> = SU_SWEEP.iter().map(|n| format!("su{n}")).collect();
        let sides: Vec<(&str, Side)> = SU_SWEEP
            .iter()
            .zip(&labels)
            .map(|(&n, l)| (l.as_str(), Side::Sc(SparseCoreConfig::with_sus(n))))
            .collect();
        Suite {
            runs: gpm_runs(&graphs, &sides),
            graphs,
            matrices: vec![],
            tensors: vec![],
            apps: App::FIG8.to_vec(),
        }
    }

    /// Figure 15: spmspm on C and E under four dataflows, TTV and TTM on
    /// Ch and U, CPU baseline and 1-SU SparseCore.
    pub fn tensor() -> Suite {
        let matrices = vec![MatrixDataset::Circuit204, MatrixDataset::EmailEuCore];
        let tensors = vec![TensorDataset::ChicagoCrime, TensorDataset::UberPickups];
        Suite {
            runs: tensor_runs(&matrices, &tensors),
            graphs: vec![],
            matrices,
            tensors,
            apps: vec![],
        }
    }

    /// The slice of the `figures` matrix replayed in-process for its layer
    /// split: the Figure 8 and Figure 15(a) cells on the C datasets.
    pub fn figures_slice() -> Suite {
        let graphs = vec![Dataset::Citeseer];
        let matrices = vec![MatrixDataset::Circuit204];
        let sides = [("cpu", Side::Cpu), ("sc", Side::Sc(SparseCoreConfig::paper()))];
        let mut runs = gpm_runs(&graphs, &sides);
        runs.extend(tensor_runs(&matrices, &[]));
        Suite { runs, graphs, matrices, tensors: vec![], apps: App::FIG8.to_vec() }
    }
}

/// A tensor with its dense TTV vector and TTM factor rows.
#[derive(Debug)]
struct TensorInput {
    id: TensorDataset,
    x: CsfTensor,
    v: Vec<f64>,
    factors: Vec<Vec<f64>>,
}

/// A dataset, its precomputed forms, and the compiled plans.
#[derive(Debug)]
pub struct Inputs {
    graphs: Vec<(Dataset, CsrGraph)>,
    plans: Vec<(App, Vec<Plan>)>,
    matrices: Vec<(MatrixDataset, CsrMatrix, CscMatrix)>,
    tensors: Vec<TensorInput>,
}

impl Inputs {
    /// Graph `d`.
    pub fn graph(&self, d: Dataset) -> &CsrGraph {
        &self.graphs.iter().find(|(x, _)| *x == d).expect("graph generated").1
    }
    /// Every generated graph.
    pub fn graphs(&self) -> impl Iterator<Item = &CsrGraph> {
        self.graphs.iter().map(|(_, g)| g)
    }
    /// Every generated matrix.
    pub fn matrices(&self) -> impl Iterator<Item = &CsrMatrix> {
        self.matrices.iter().map(|(_, a, _)| a)
    }
    fn plans(&self, app: App) -> &[Plan] {
        &self.plans.iter().find(|(a, _)| *a == app).expect("plans compiled").1
    }
    fn matrix(&self, m: MatrixDataset) -> (&CsrMatrix, &CscMatrix) {
        let (_, a, c) = self.matrices.iter().find(|(x, _, _)| *x == m).expect("matrix generated");
        (a, c)
    }
    fn tensor(&self, t: TensorDataset) -> &TensorInput {
        self.tensors.iter().find(|e| e.id == t).expect("tensor generated")
    }
}

/// Host time of one set-up, split by layer.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Dataset generators (`sc-graph`, `sc-tensor`).
    pub gen_ns: u64,
    /// Plan compilation, `to_csc`, and dense TTV/TTM operands.
    pub prep_ns: u64,
}

impl SetupTimes {
    /// Total set-up time.
    pub fn total_ns(&self) -> u64 {
        self.gen_ns + self.prep_ns
    }
}

/// Engine counters of one SparseCore run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineTotals {
    /// `S_READ` + `S_VREAD`.
    pub reads: u64,
    /// Set operations on SUs (each nested step counts).
    pub set_ops: u64,
    /// `S_NESTINTER` instructions.
    pub nested: u64,
    /// `S_VINTER` + `S_VMERGE`.
    pub value_ops: u64,
    /// Elements moved into SUs.
    pub elements_streamed: u64,
    /// Value loads through the hierarchy.
    pub value_loads: u64,
    /// Scratchpad hits on stream set-up.
    pub scratchpad_hits: u64,
    /// Scratchpad misses on stream set-up.
    pub scratchpad_misses: u64,
}

/// Per-call statistics of one traced run.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Host time of the executor or kernel call, backend calls included.
    pub exec_ns: u64,
    /// Backend calls by kind.
    pub calls: Calls,
    /// The core model's counters at the end of the run.
    pub core: CoreStats,
    /// L1 hits and misses of the core model's hierarchy.
    pub l1: (u64, u64),
    /// Engine counters (SparseCore runs only).
    pub engine: Option<EngineTotals>,
}

fn traced<B: Observed>(exec_ns: u64, t: &Timed<B>) -> Traced {
    let b = t.inner();
    let (l1, _, _) = b.model_core().mem().level_stats();
    Traced {
        exec_ns,
        calls: *t.calls(),
        core: *b.model_core().stats(),
        l1: (l1.hits, l1.misses),
        engine: b.engine_stats().map(|s| EngineTotals {
            reads: s.reads,
            set_ops: s.set_ops,
            nested: s.nested,
            value_ops: s.value_ops,
            elements_streamed: s.elements_streamed,
            value_loads: s.value_loads,
            scratchpad_hits: s.scratchpad_hits,
            scratchpad_misses: s.scratchpad_misses,
        }),
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunOut {
    /// Functional checksum as the golden registries define it: embedding
    /// count, product nnz, or an FNV hash of a dense output.
    pub checksum: u64,
    /// FNV hash of the output values' bits (the count for GPM).
    pub value_hash: u64,
    /// Simulated cycles, stride-scaled.
    pub cycles: u64,
    /// Host wall time of the run, backend construction included.
    pub wall_ns: u64,
    /// The product matrix, kept for the reference check of unsampled
    /// spmspm runs.
    pub product: Option<CsrMatrix>,
    /// Call statistics (traced passes only).
    pub traced: Option<Traced>,
}

/// The result of one pass.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host wall time of the pass: set-up plus every run.
    pub wall_ns: u64,
    /// Set-up split.
    pub setup: SetupTimes,
    /// One entry per `Suite::runs` entry, same order.
    pub runs: Vec<RunOut>,
}

fn ns_since(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

fn count_app<B: SetBackend>(g: &CsrGraph, plans: &[Plan], b: &mut B, stride: usize) -> (u64, u64) {
    let mut count = 0;
    for plan in plans {
        count += exec::count_sampled(g, plan, b, stride).0;
    }
    (count, b.finish() * stride as u64)
}

fn drive_gpm<B: SetBackend + Observed>(
    b: B,
    g: &CsrGraph,
    plans: &[Plan],
    stride: usize,
    trace: bool,
) -> ((u64, u64), Option<Traced>) {
    if !trace {
        let mut b = b;
        return (count_app(g, plans, &mut b, stride), None);
    }
    let mut t = Timed::new(b);
    let t0 = Instant::now();
    let out = count_app(g, plans, &mut t, stride);
    let exec_ns = ns_since(t0);
    (out, Some(traced(exec_ns, &t)))
}

/// The outputs a tensor kernel reports.
struct KernelOut {
    checksum: u64,
    value_hash: u64,
    cycles: u64,
    product: Option<CsrMatrix>,
}

/// FNV-1a of a CSR matrix's column indices and value bits.
pub fn matrix_hash(c: &CsrMatrix) -> u64 {
    sc_report::fnv1a((0..c.rows()).flat_map(|r| {
        let idx = c.row_indices(r).iter().flat_map(|k| k.to_le_bytes());
        let val = c.row_values(r).iter().flat_map(|v| v.to_bits().to_le_bytes());
        idx.chain(val).collect::<Vec<u8>>()
    }))
}

fn dense_hash<'a>(xs: impl Iterator<Item = &'a f64>) -> u64 {
    sc_report::fnv1a(xs.flat_map(|x| x.to_bits().to_le_bytes()))
}

fn spmspm_out(r: SpmspmResult, keep: bool) -> KernelOut {
    KernelOut {
        checksum: r.c.nnz() as u64,
        value_hash: matrix_hash(&r.c),
        cycles: r.cycles,
        product: keep.then_some(r.c),
    }
}

fn kernel<B: TensorBackend>(task: Task, inputs: &Inputs, b: &mut B, keep: bool) -> KernelOut {
    let cfg = SparseCoreConfig::paper_one_su();
    match task {
        Task::Spmspm(k, m) => {
            let (a, acsc) = inputs.matrix(m);
            let keep = keep && k.unsampled();
            let r = match k {
                Kernel::Inner => {
                    inner_product(a, acsc, b, InnerOptions { row_sample: Some(INNER_ROW_SAMPLE) })
                }
                Kernel::Outer => outer_product_sampled(acsc, a, b, MERGE_STRIDE),
                Kernel::Gustavson => gustavson_sampled(a, a, b, MERGE_STRIDE),
                Kernel::Adaptive => adaptive(a, a, b, &cfg, ADAPTIVE).result,
                Kernel::Ttv | Kernel::Ttm => unreachable!("tensor kernel on a matrix"),
            };
            spmspm_out(r, keep)
        }
        Task::Tensor(Kernel::Ttv, t) => {
            let ti = inputs.tensor(t);
            let r = ttv_sampled(&ti.x, &ti.v, b, FIBER_STRIDE);
            let h = dense_hash(r.z.iter().flatten());
            KernelOut { checksum: h, value_hash: h, cycles: r.cycles, product: None }
        }
        Task::Tensor(Kernel::Ttm, t) => {
            let ti = inputs.tensor(t);
            let r = ttm_sampled(&ti.x, &ti.factors, b, FIBER_STRIDE);
            let h = dense_hash(r.z.iter().flatten().flatten());
            KernelOut { checksum: h, value_hash: h, cycles: r.cycles, product: None }
        }
        Task::Tensor(..) | Task::Gpm(..) => unreachable!("not a tensor task: {task:?}"),
    }
}

fn drive_tensor<B: TensorBackend + Observed>(
    b: B,
    task: Task,
    inputs: &Inputs,
    keep: bool,
    trace: bool,
) -> (KernelOut, Option<Traced>) {
    if !trace {
        let mut b = b;
        return (kernel(task, inputs, &mut b, keep), None);
    }
    let mut t = Timed::new(b);
    let t0 = Instant::now();
    let out = kernel(task, inputs, &mut t, keep);
    let exec_ns = ns_since(t0);
    (out, Some(traced(exec_ns, &t)))
}

impl Suite {
    /// Generate the datasets and compile the plans. Spans are recorded
    /// when `spans` is given.
    pub fn setup(&self, seed: u64, mut spans: Option<&mut Spans>) -> (Inputs, SetupTimes) {
        let mut times = SetupTimes::default();
        let mut graphs = Vec::new();
        for &d in &self.graphs {
            let t0 = Instant::now();
            let g = graph(d, seed);
            record(&mut times.gen_ns, &mut spans, &format!("gen graph {}", d.tag()), t0);
            graphs.push((d, g));
        }
        let mut matrices = Vec::new();
        for &m in &self.matrices {
            let t0 = Instant::now();
            let a = matrix(m, seed);
            record(&mut times.gen_ns, &mut spans, &format!("gen matrix {}", m.tag()), t0);
            let t0 = Instant::now();
            let c = a.to_csc();
            record(&mut times.prep_ns, &mut spans, &format!("to_csc {}", m.tag()), t0);
            matrices.push((m, a, c));
        }
        let mut tensors = Vec::new();
        for &t in &self.tensors {
            let t0 = Instant::now();
            let x = tensor(t, seed);
            record(&mut times.gen_ns, &mut spans, &format!("gen tensor {}", t.tag()), t0);
            let t0 = Instant::now();
            let d2 = x.dims()[2];
            let v: Vec<f64> = (0..d2).map(|i| 0.5 + (i % 17) as f64 * 0.1).collect();
            let factors = (0..TTM_RANK)
                .map(|k| (0..d2).map(|l| ((k * 7 + l) % 13) as f64 * 0.1 + 0.5).collect())
                .collect();
            record(&mut times.prep_ns, &mut spans, &format!("operands {}", t.tag()), t0);
            tensors.push(TensorInput { id: t, x, v, factors });
        }
        let t0 = Instant::now();
        let plans = self.apps.iter().map(|&a| (a, a.plans())).collect();
        if !self.apps.is_empty() {
            record(&mut times.prep_ns, &mut spans, "compile plans", t0);
        }
        (Inputs { graphs, plans, matrices, tensors }, times)
    }

    /// Run one pass. `keep` retains unsampled products for the reference
    /// check; `spans` turns on tracing (per-call timing and spans).
    pub fn run_pass(&self, seed: u64, keep: bool, mut spans: Option<&mut Spans>) -> Pass {
        let t0 = Instant::now();
        let (inputs, setup) = self.setup(seed, spans.as_deref_mut());
        if let Some(s) = spans.as_deref_mut() {
            s.push_done("setup", t0, &[]);
        }
        let runs = self
            .runs
            .iter()
            .map(|r| self.run_one(r, &inputs, keep, spans.as_deref_mut()))
            .collect();
        if let Some(s) = spans {
            s.push_done("pass", t0, &[]);
        }
        Pass { wall_ns: ns_since(t0), setup, runs }
    }

    fn run_one(&self, r: &Run, inputs: &Inputs, keep: bool, spans: Option<&mut Spans>) -> RunOut {
        let trace = spans.is_some();
        let t0 = Instant::now();
        let (out, traced) = match r.task {
            Task::Gpm(app, d, stride) => {
                let g = inputs.graph(d);
                let plans = inputs.plans(app);
                let ((count, cycles), traced) = match r.side {
                    Side::Cpu => drive_gpm(ScalarBackend::new(g), g, plans, stride, trace),
                    Side::Sc(cfg) => drive_gpm(
                        StreamBackend::with_engine(g, Engine::new(cfg), app.uses_nested()),
                        g,
                        plans,
                        stride,
                        trace,
                    ),
                };
                (KernelOut { checksum: count, value_hash: count, cycles, product: None }, traced)
            }
            Task::Spmspm(..) | Task::Tensor(..) => match r.side {
                Side::Cpu => drive_tensor(ScalarTensorBackend::new(), r.task, inputs, keep, trace),
                Side::Sc(cfg) => drive_tensor(
                    StreamTensorBackend::with_engine(Engine::new(cfg)),
                    r.task,
                    inputs,
                    keep,
                    trace,
                ),
            },
        };
        let wall_ns = ns_since(t0);
        if let Some(s) = spans {
            let mut args: Vec<(String, f64)> = Vec::new();
            if let Some(t) = &traced {
                let backend_ns: u64 = t.calls.iter().map(|c| c.ns).sum();
                args.push(("exec_self_ns".into(), t.exec_ns.saturating_sub(backend_ns) as f64));
                for (kind, c) in Kind::ALL.iter().zip(&t.calls) {
                    if c.calls > 0 {
                        args.push((format!("{}.calls", kind.name()), c.calls as f64));
                        args.push((format!("{}.ns", kind.name()), c.ns as f64));
                    }
                }
                // The executor call ends where the run ends (only the
                // backend's construction precedes it).
                let start = wall_ns.saturating_sub(t.exec_ns);
                s.push_at(&format!("sim {}", r.name), t0, start, t.exec_ns, &args);
            }
            s.push_done(&format!("run {}", r.name), t0, &[]);
        }
        RunOut {
            checksum: out.checksum,
            value_hash: out.value_hash,
            cycles: out.cycles,
            wall_ns,
            product: out.product,
            traced,
        }
    }
}

fn record(acc: &mut u64, spans: &mut Option<&mut Spans>, name: &str, t0: Instant) {
    *acc += ns_since(t0);
    if let Some(s) = spans.as_deref_mut() {
        s.push_done(name, t0, &[]);
    }
}
