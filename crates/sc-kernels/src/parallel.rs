//! Multicore tensor kernels (row-sharded spmspm, fiber-sharded TTV).
//!
//! The paper's multicore model (Table 2: six cores, Section 5.1:
//! read-only operand sharing without coherence) applies to the tensor
//! kernels just as it does to GPM: Gustavson output rows and CSF fibers
//! are fully independent units of work, each touching a disjoint part of
//! the output, so sharding them across per-core engines produces results
//! *exactly* equal to the serial run — only the timing differs.
//!
//! The rows or fibers are split by a [`Partition`] — the static
//! interleave (core `c` of `n` takes rows `{c, c+n, ...}`) or a chunk
//! plan self-scheduled by simulated clock — and driven by
//! [`sparsecore::run_partition`]'s serial host loop, so repeated runs are
//! cycle-exact. The shared operands (both matrices, or the tensor) are
//! protected read-only on every core's engine via the `SC-S310`
//! mechanism, like `sc_gpm::protect_graph`.

use crate::backend::{StreamTensorBackend, TensorBackend};
use crate::spmspm::{gustavson_row, product, SpmspmResult};
use crate::tensor_ops::{ttv_fiber, TtvResult, DENSE_KEY_BASE, DENSE_VAL_BASE};
use crate::vstream::VStream;
use sc_probe::Probe;
use sc_tensor::{CsfTensor, CsrMatrix};
use sparsecore::{
    collect_cores, run_partition, Engine, Items, MultiCoreRun, Partition, SparseCoreConfig,
};

/// Declare a CSR matrix's index and value arrays read-only on `engine`
/// (`SC-S310`): parallel cores share the operands without coherence, so
/// a simulated write into them would be a cross-core hazard. No-op when
/// the engine's sanitizer is off.
pub fn protect_matrix(engine: &mut Engine, m: &CsrMatrix) {
    let l = m.layout();
    let nnz = m.nnz() as u64;
    engine.protect_range(l.index_base, l.index_base + nnz * 4);
    engine.protect_range(l.value_base, l.value_base + nnz * 8);
}

/// Declare a CSF tensor's index and value arrays read-only on `engine`
/// (`SC-S310`), like [`protect_matrix`].
pub fn protect_tensor(engine: &mut Engine, t: &CsfTensor) {
    let l = t.layout();
    let nnz = t.nnz() as u64;
    engine.protect_range(l.index_base, l.index_base + nnz * 4);
    engine.protect_range(l.value_base, l.value_base + nnz * 8);
}

/// Gustavson spmspm across `num_cores` SparseCore cores that share
/// `probe`, output rows split by `partition`. The product is exactly the
/// serial [`gustavson`] product (`SpmspmResult::cycles` is the slowest
/// core's clock); `MultiCoreRun::count` is the product's nonzero count.
/// The partition is verified before any core runs: a plan that fails
/// runs no row, and the report carries its findings. Otherwise the report
/// merges every core engine's sanitizer findings (empty when `sanitize`
/// is off — and on a healthy run). Per-core span logs are submitted in
/// core order, padded to the makespan.
///
/// [`gustavson`]: crate::spmspm::gustavson
///
/// # Panics
///
/// Panics on shape mismatch or zero `num_cores`.
pub fn gustavson_multicore(
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: SparseCoreConfig,
    num_cores: usize,
    partition: &Partition,
    probe: Probe,
) -> (SpmspmResult, MultiCoreRun, sc_lint::Report) {
    assert_eq!(a.cols(), b.rows(), "shape mismatch");
    let mut rows = Vec::new();
    let (per_core, report) = shard(
        num_cores,
        a.rows(),
        partition,
        |c| {
            let mut engine = core_engine(cfg, &probe, c);
            protect_matrix(&mut engine, a);
            protect_matrix(&mut engine, b);
            (StreamTensorBackend::with_engine(engine), ())
        },
        |(be, ()), items| rows.extend(items.map(|i| (i, gustavson_row(a, b, be, i)))),
        |_| {},
        0x420,
    );
    let c = product(a.rows(), b.cols(), &rows);
    let run = MultiCoreRun::new(c.nnz() as u64, per_core);
    (SpmspmResult { c, cycles: run.cycles, rows_simulated: rows.len() }, run, report)
}

/// TTV across `num_cores` SparseCore cores that share `probe`, fibers
/// split by `partition`. Every core loads its own copy of the dense
/// vector once (maximum priority, exactly as the serial kernel does) and
/// each fiber's output cell is written by the one core that owns the
/// fiber, so `z` is exactly the serial [`ttv`] output.
/// `MultiCoreRun::count` is the number of fibers processed. The plan
/// check, the report and the span logs are as in
/// [`gustavson_multicore`].
///
/// [`ttv`]: crate::tensor_ops::ttv
///
/// # Panics
///
/// Panics on shape mismatch or zero `num_cores`.
pub fn ttv_multicore(
    a: &CsfTensor,
    v: &[f64],
    cfg: SparseCoreConfig,
    num_cores: usize,
    partition: &Partition,
    probe: Probe,
) -> (TtvResult, MultiCoreRun, sc_lint::Report) {
    assert_eq!(v.len(), a.dims()[2], "vector length must match mode 2");
    let [d0, d1, _] = a.dims();
    let mut z = vec![vec![0.0; d1]; d0];
    let dense = VStream::from_dense(v, DENSE_KEY_BASE, DENSE_VAL_BASE);
    let mut fibers = 0;
    let (per_core, report) = shard(
        num_cores,
        a.num_fibers(),
        partition,
        |c| {
            let mut engine = core_engine(cfg, &probe, c);
            protect_tensor(&mut engine, a);
            let mut be = StreamTensorBackend::with_engine(engine);
            let hv = be.load(&dense, 8);
            (be, hv)
        },
        |(be, hv), items| {
            for n in items {
                let (i, j, acc) = ttv_fiber(a, n, hv, d1, be);
                z[i][j] = acc;
                fibers += 1;
            }
        },
        |(be, hv)| be.release(*hv),
        0x500,
    );
    let run = MultiCoreRun::new(fibers, per_core);
    (TtvResult { z, cycles: run.cycles }, run, report)
}

/// Core `core`'s engine: `cfg`, reporting to the shared `probe`, with
/// trace tracks of its own.
fn core_engine(cfg: SparseCoreConfig, probe: &Probe, core: usize) -> Engine {
    let mut engine = Engine::new(cfg);
    engine.set_probe(probe.for_core(core));
    engine
}

/// Run `total` work items on `num_cores` cores under `partition`, after
/// checking the plan ([`sc_verify::verify_partition`]). `new_core` builds
/// core `c` — its engine, and what it keeps loaded for the whole run —
/// and `run` executes items on a core. Each core ends with `end`, the
/// loop-exit branch at `loop_pc` and a final drain. Returns the per-core
/// clocks and the merged sanitizer report; a plan that fails builds no
/// core, and its findings are the report.
fn shard<S>(
    num_cores: usize,
    total: usize,
    partition: &Partition,
    new_core: impl FnMut(usize) -> (StreamTensorBackend, S),
    run: impl FnMut(&mut (StreamTensorBackend, S), Items),
    mut end: impl FnMut(&mut (StreamTensorBackend, S)),
    loop_pc: u64,
) -> (Vec<u64>, sc_lint::Report) {
    assert!(num_cores > 0, "need at least one core");
    let verdict = sc_verify::verify_partition(partition, num_cores, total);
    if !verdict.verified() {
        return (vec![0; num_cores], sc_lint::Report::new(verdict.findings));
    }
    let mut cores: Vec<_> = (0..num_cores).map(new_core).collect();
    let finish = |core: &mut (StreamTensorBackend, S)| {
        end(core);
        core.0.loop_branch(loop_pc, false);
        core.0.finish()
    };
    let sched = run_partition(&mut cores, total, partition, run, |(be, _)| be.finish(), finish);
    let report = collect_cores(cores.iter_mut().map(|(be, _)| be.engine_mut()), &sched);
    (sched.per_core, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StreamTensorBackend;
    use crate::spmspm::gustavson;
    use crate::tensor_ops::ttv;
    use sc_tensor::generators::{random_matrix, random_tensor};
    use sparsecore::SchedMode;

    fn spmspm(a: &CsrMatrix, b: &CsrMatrix, cores: usize, mode: SchedMode) -> SpmspmRun {
        let partition = mode.partition(a.rows(), 4);
        gustavson_multicore(a, b, SparseCoreConfig::paper(), cores, &partition, Probe::off())
    }

    fn tv(t: &CsfTensor, v: &[f64], cores: usize, mode: SchedMode) -> TtvRun {
        let partition = mode.partition(t.num_fibers(), 4);
        ttv_multicore(t, v, SparseCoreConfig::paper(), cores, &partition, Probe::off())
    }

    type SpmspmRun = (SpmspmResult, MultiCoreRun, sc_lint::Report);
    type TtvRun = (TtvResult, MultiCoreRun, sc_lint::Report);

    #[test]
    fn multicore_gustavson_equals_serial_exactly() {
        let a = random_matrix(24, 20, 140, 41);
        let b = random_matrix(20, 22, 130, 42);
        let serial = gustavson(&a, &b, &mut StreamTensorBackend::new());
        for mode in [SchedMode::Static, SchedMode::Dynamic] {
            for cores in [1, 2, 3, 6] {
                let (r, run, report) = spmspm(&a, &b, cores, mode);
                assert_eq!(r.c, serial.c, "{mode} {cores} cores");
                assert_eq!(run.count, serial.c.nnz() as u64);
                assert_eq!(run.per_core.len(), cores);
                assert!(report.is_empty(), "sanitizer findings:\n{report}");
            }
        }
    }

    #[test]
    fn multicore_ttv_equals_serial_exactly() {
        let t = random_tensor([8, 6, 24], 20, 120, 43);
        let v: Vec<f64> = (0..24).map(|i| 0.25 + i as f64 * 0.5).collect();
        let serial = ttv(&t, &v, &mut StreamTensorBackend::new());
        for mode in [SchedMode::Static, SchedMode::Dynamic] {
            for cores in [1, 2, 6] {
                let (r, run, report) = tv(&t, &v, cores, mode);
                assert_eq!(r.z, serial.z, "{mode} {cores} cores: bitwise-equal output");
                assert_eq!(run.count, t.num_fibers() as u64);
                assert!(report.is_empty(), "sanitizer findings:\n{report}");
            }
        }
    }

    #[test]
    fn repeated_multicore_runs_are_cycle_exact() {
        let a = random_matrix(18, 18, 110, 44);
        let b = random_matrix(18, 18, 110, 45);
        let (_, r1, _) = spmspm(&a, &b, 3, SchedMode::Dynamic);
        let (_, r2, _) = spmspm(&a, &b, 3, SchedMode::Dynamic);
        assert_eq!(r1, r2);
        let t = random_tensor([6, 5, 16], 12, 60, 46);
        let v = vec![1.5; 16];
        let (_, t1, _) = tv(&t, &v, 3, SchedMode::Dynamic);
        let (_, t2, _) = tv(&t, &v, 3, SchedMode::Dynamic);
        assert_eq!(t1, t2);
    }

    #[test]
    fn more_cores_cut_completion_time() {
        let a = random_matrix(30, 30, 260, 47);
        let b = random_matrix(30, 30, 260, 48);
        let (_, one, _) = spmspm(&a, &b, 1, SchedMode::Dynamic);
        let (_, six, _) = spmspm(&a, &b, 6, SchedMode::Dynamic);
        assert_eq!(one.count, six.count);
        assert!(six.cycles < one.cycles, "6 cores {} vs 1 core {}", six.cycles, one.cycles);
    }

    #[test]
    fn refused_plan_runs_no_row_and_no_fiber() {
        // A gap would drop rows 4 and 5, an overhang would run fibers
        // that do not exist: both plans are refused before any core is
        // built, so the probe sees nothing.
        use sparsecore::Chunk;
        let chunk = |index, start, end| Chunk { index, start, end };
        let a = random_matrix(12, 12, 60, 50);
        let gapped = Partition::Dynamic(vec![chunk(0, 0, 4), chunk(1, 6, 12)]);
        let probe = Probe::new(sc_probe::ProbeLevel::Trace);
        let cfg = SparseCoreConfig::paper();
        let (r, run, report) = gustavson_multicore(&a, &a, cfg, 2, &gapped, probe.clone());
        assert!(!report.is_empty(), "the gap is a finding");
        assert_eq!((run.count, run.cycles, run.per_core), (0, 0, vec![0, 0]));
        assert_eq!((r.c.nnz(), r.cycles, r.rows_simulated), (0, 0, 0));
        let t = random_tensor([4, 4, 8], 6, 30, 51);
        let v = vec![1.0; 8];
        let overhang = Partition::Dynamic(vec![chunk(0, 0, t.num_fibers() + 1)]);
        let (r, run, report) = ttv_multicore(&t, &v, cfg, 2, &overhang, probe.clone());
        assert!(report.has_errors());
        assert_eq!((run.count, run.cycles), (0, 0));
        assert!(r.z.iter().flatten().all(|&x| x == 0.0));
        assert_eq!((probe.metrics_json(), probe.trace_len()), ("{}".to_string(), 0));
    }

    #[test]
    fn sanitizer_flags_write_into_protected_operand() {
        // Redirect a core's output allocator into the shared matrix's
        // index array: must trip SC-S310, as the operands are shared
        // read-only across cores.
        let a = random_matrix(8, 8, 30, 49);
        let mut engine =
            Engine::new(SparseCoreConfig { sanitize: true, ..SparseCoreConfig::paper() });
        protect_matrix(&mut engine, &a);
        use sc_isa::{Bound, Priority, StreamId};
        engine.s_read(0x9000_0000, &[1, 2, 3], StreamId::new(0), Priority(0)).unwrap();
        engine.s_read(0x9100_0000, &[2, 3, 4], StreamId::new(1), Priority(0)).unwrap();
        engine.sabotage_redirect_out_alloc(a.layout().index_base);
        engine
            .s_inter(StreamId::new(0), StreamId::new(1), StreamId::new(2), Bound::none())
            .unwrap();
        let report = engine.sanitizer_report();
        assert!(
            report.diagnostics().iter().any(|d| d.code == sc_lint::LintCode::SanReadOnlyWrite),
            "expected SC-S310, got:\n{report}"
        );
    }
}
