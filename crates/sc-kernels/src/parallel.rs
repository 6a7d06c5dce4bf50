//! Multicore tensor kernels (row-sharded spmspm, fiber-sharded TTV).
//!
//! The paper's multicore model (Table 2: six cores, Section 5.1:
//! read-only operand sharing without coherence) applies to the tensor
//! kernels just as it does to GPM: Gustavson output rows and CSF fibers
//! are fully independent units of work, each touching a disjoint part of
//! the output, so sharding them across per-core engines produces results
//! *exactly* equal to the serial run — only the timing differs.
//!
//! Two policies are offered, mirroring `sc-gpm`: a static interleaved
//! partition (core `c` of `n` takes rows `{c, c+n, ...}`) and the
//! deterministic dynamic chunk scheduler of [`sparsecore::self_schedule`]
//! (the core with the lowest simulated clock claims the next contiguous
//! chunk). Both are driven by a serial host loop, so repeated runs are
//! cycle-exact. The shared operands (both matrices, or the tensor) are
//! protected read-only on every core's engine via the `SC-S310`
//! mechanism, like `sc_gpm::protect_graph`.

use crate::backend::{StreamTensorBackend, TensorBackend};
use crate::spmspm::{gustavson_row, rows_to_matrix, SpmspmResult};
use crate::tensor_ops::{ttv_fiber, TtvResult, DENSE_KEY_BASE, DENSE_VAL_BASE};
use crate::vstream::VStream;
use sc_tensor::{CsfTensor, CsrMatrix};
use sparsecore::{chunks, self_schedule, Engine, MultiCoreRun, SchedMode, SparseCoreConfig};

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

/// Debug-build gate: before a parallel driver hands `total` work items
/// (output rows, fibers) to the cores, statically prove the shard plan
/// writes disjoint index sets. Static interleaving gets the verifier's
/// residue-class proof; dynamic mode proves the chunk cut structurally.
/// Both always hold for the plans this module generates — the gate
/// exists to catch regressions in the sharding logic itself.
fn gate_shard_plan(mode: SchedMode, num_cores: usize, total: usize, chunk_size: usize) {
    if !cfg!(debug_assertions) {
        return;
    }
    match mode {
        SchedMode::Static => {
            let sets: Vec<sc_verify::Stride> = (0..num_cores)
                .map(|c| sc_verify::interleave_write_set(0, c, num_cores, total, 1))
                .collect();
            let v = sc_verify::verify_core_write_sets(&sets);
            assert!(
                v.verified(),
                "static shard plan failed the residue-disjointness proof: {:?}",
                v.findings
            );
        }
        SchedMode::Dynamic => {
            let v = sc_verify::verify_chunk_plan(&chunks(total, chunk_size), total);
            assert!(
                v.verified(),
                "dynamic chunk plan failed the disjointness proof: {:?}",
                v.findings
            );
        }
    }
}

/// Gustavson spmspm across `num_cores` SparseCore cores, output rows
/// sharded by `mode`. The product is exactly the serial [`gustavson`]
/// product (`SpmspmResult::cycles` is the slowest core's clock);
/// `MultiCoreRun::count` is the product's nonzero count. The report
/// merges every core engine's sanitizer findings (empty when `sanitize`
/// is off — and on a healthy run).
///
/// [`gustavson`]: crate::spmspm::gustavson
///
/// # Panics
///
/// Panics on shape mismatch, zero `num_cores`, or (in dynamic mode) zero
/// `chunk_size`.
pub fn gustavson_multicore(
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: SparseCoreConfig,
    num_cores: usize,
    mode: SchedMode,
    chunk_size: usize,
) -> (SpmspmResult, MultiCoreRun, sc_lint::Report) {
    gustavson_multicore_probed(a, b, cfg, num_cores, mode, chunk_size, sc_probe::Probe::off())
}

/// Like [`gustavson_multicore`], with an observability probe shared by
/// every core engine; per-core span logs are submitted in core order,
/// padded to the makespan ([`sc_probe::SpanSnapshot::pad_idle`]).
///
/// # Panics
///
/// Panics on shape mismatch, zero `num_cores`, or (in dynamic mode) zero
/// `chunk_size`.
pub fn gustavson_multicore_probed(
    a: &CsrMatrix,
    b: &CsrMatrix,
    cfg: SparseCoreConfig,
    num_cores: usize,
    mode: SchedMode,
    chunk_size: usize,
    probe: sc_probe::Probe,
) -> (SpmspmResult, MultiCoreRun, sc_lint::Report) {
    assert_eq!(a.cols(), b.rows(), "shape mismatch");
    assert!(num_cores > 0, "need at least one core");
    let m = a.rows();
    gate_shard_plan(mode, num_cores, m, chunk_size);
    let mut backends: Vec<StreamTensorBackend> = (0..num_cores)
        .map(|_| {
            let mut engine = Engine::new(cfg);
            engine.set_probe(probe.clone());
            protect_matrix(&mut engine, a);
            protect_matrix(&mut engine, b);
            StreamTensorBackend::with_engine(engine)
        })
        .collect();
    let mut rows: Vec<VStream> = (0..m).map(|_| VStream::empty()).collect();
    match mode {
        SchedMode::Static => {
            for (c, be) in backends.iter_mut().enumerate() {
                for i in (c..m).step_by(num_cores) {
                    rows[i] = gustavson_row(a, b, be, i);
                }
            }
        }
        SchedMode::Dynamic => {
            self_schedule(num_cores, &chunks(m, chunk_size), |core, ch| {
                let be = &mut backends[core];
                for (off, row) in rows[ch.start..ch.end].iter_mut().enumerate() {
                    *row = gustavson_row(a, b, be, ch.start + off);
                }
                be.finish()
            });
        }
    }
    let (per_core, report) = drain(&mut backends, 0x420);
    let c = rows_to_matrix(m, b.cols(), &rows);
    let run = fold(c.nnz() as u64, per_core);
    submit_core_spans(&backends, &probe, run.cycles);
    (SpmspmResult { c, cycles: run.cycles, rows_simulated: m }, run, report)
}

/// TTV across `num_cores` SparseCore cores, fibers sharded by `mode`.
/// Every core loads its own copy of the dense vector once (maximum
/// priority, exactly as the serial kernel does) and each fiber's output
/// cell is written by the one core that owns the fiber, so `z` is
/// exactly the serial [`ttv`] output. `MultiCoreRun::count` is the
/// number of fibers processed.
///
/// [`ttv`]: crate::tensor_ops::ttv
///
/// # Panics
///
/// Panics on shape mismatch, zero `num_cores`, or (in dynamic mode) zero
/// `chunk_size`.
pub fn ttv_multicore(
    a: &CsfTensor,
    v: &[f64],
    cfg: SparseCoreConfig,
    num_cores: usize,
    mode: SchedMode,
    chunk_size: usize,
) -> (TtvResult, MultiCoreRun, sc_lint::Report) {
    ttv_multicore_probed(a, v, cfg, num_cores, mode, chunk_size, sc_probe::Probe::off())
}

/// Like [`ttv_multicore`], with an observability probe shared by every
/// core engine; per-core span logs are submitted in core order, padded
/// to the makespan.
///
/// # Panics
///
/// Panics on shape mismatch, zero `num_cores`, or (in dynamic mode) zero
/// `chunk_size`.
pub fn ttv_multicore_probed(
    a: &CsfTensor,
    v: &[f64],
    cfg: SparseCoreConfig,
    num_cores: usize,
    mode: SchedMode,
    chunk_size: usize,
    probe: sc_probe::Probe,
) -> (TtvResult, MultiCoreRun, sc_lint::Report) {
    assert_eq!(v.len(), a.dims()[2], "vector length must match mode 2");
    assert!(num_cores > 0, "need at least one core");
    let [d0, d1, _] = a.dims();
    let mut z = vec![vec![0.0; d1]; d0];
    let dense = VStream::from_dense(v, DENSE_KEY_BASE, DENSE_VAL_BASE);
    let mut backends: Vec<StreamTensorBackend> = (0..num_cores)
        .map(|_| {
            let mut engine = Engine::new(cfg);
            engine.set_probe(probe.clone());
            protect_tensor(&mut engine, a);
            StreamTensorBackend::with_engine(engine)
        })
        .collect();
    let handles: Vec<<StreamTensorBackend as TensorBackend>::Handle> =
        backends.iter_mut().map(|be| be.load(&dense, 8)).collect();
    let nf = a.num_fibers();
    gate_shard_plan(mode, num_cores, nf, chunk_size);
    match mode {
        SchedMode::Static => {
            for (c, be) in backends.iter_mut().enumerate() {
                for n in (c..nf).step_by(num_cores) {
                    let (i, j, acc) = ttv_fiber(a, n, &handles[c], d1, be);
                    z[i][j] = acc;
                }
            }
        }
        SchedMode::Dynamic => {
            self_schedule(num_cores, &chunks(nf, chunk_size), |core, ch| {
                let be = &mut backends[core];
                for n in ch.start..ch.end {
                    let (i, j, acc) = ttv_fiber(a, n, &handles[core], d1, be);
                    z[i][j] = acc;
                }
                be.finish()
            });
        }
    }
    for (c, h) in handles.into_iter().enumerate() {
        backends[c].release(h);
    }
    let (per_core, report) = drain(&mut backends, 0x500);
    let run = fold(nf as u64, per_core);
    submit_core_spans(&backends, &probe, run.cycles);
    (TtvResult { z, cycles: run.cycles }, run, report)
}

/// Submit every backend engine's span log to the probe in core order,
/// padded with the end-of-run idle up to the makespan. No-op when spans
/// are off.
fn submit_core_spans(backends: &[StreamTensorBackend], probe: &sc_probe::Probe, makespan: u64) {
    for (c, be) in backends.iter().enumerate() {
        if let Some(mut snap) = be.engine().span_snapshot() {
            snap.pad_idle(makespan);
            probe.submit_spans(c, snap);
        }
    }
}

/// Per-core epilogue: the loop-exit branch, a final drain, and the
/// merged sanitizer report.
fn drain(backends: &mut [StreamTensorBackend], loop_pc: u64) -> (Vec<u64>, sc_lint::Report) {
    let mut per_core = Vec::with_capacity(backends.len());
    let mut diags = Vec::new();
    for be in backends.iter_mut() {
        be.loop_branch(loop_pc, false);
        per_core.push(be.finish());
        diags.extend(be.engine_mut().sanitizer_final_report().diagnostics().to_vec());
    }
    (per_core, sc_lint::Report::new(diags))
}

fn fold(count: u64, per_core: Vec<u64>) -> MultiCoreRun {
    let cycles = per_core.iter().copied().max().unwrap_or(0);
    MultiCoreRun { count, cycles, per_core }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::StreamTensorBackend;
    use crate::spmspm::gustavson;
    use crate::tensor_ops::ttv;
    use sc_tensor::generators::{random_matrix, random_tensor};

    #[test]
    fn multicore_gustavson_equals_serial_exactly() {
        let a = random_matrix(24, 20, 140, 41);
        let b = random_matrix(20, 22, 130, 42);
        let serial = gustavson(&a, &b, &mut StreamTensorBackend::new());
        for mode in [SchedMode::Static, SchedMode::Dynamic] {
            for cores in [1, 2, 3, 6] {
                let (r, run, report) =
                    gustavson_multicore(&a, &b, SparseCoreConfig::paper(), cores, mode, 4);
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
                let (r, run, report) =
                    ttv_multicore(&t, &v, SparseCoreConfig::paper(), cores, mode, 4);
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
        let (_, r1, _) =
            gustavson_multicore(&a, &b, SparseCoreConfig::paper(), 3, SchedMode::Dynamic, 4);
        let (_, r2, _) =
            gustavson_multicore(&a, &b, SparseCoreConfig::paper(), 3, SchedMode::Dynamic, 4);
        assert_eq!(r1, r2);
        let t = random_tensor([6, 5, 16], 12, 60, 46);
        let v = vec![1.5; 16];
        let (_, t1, _) = ttv_multicore(&t, &v, SparseCoreConfig::paper(), 3, SchedMode::Dynamic, 4);
        let (_, t2, _) = ttv_multicore(&t, &v, SparseCoreConfig::paper(), 3, SchedMode::Dynamic, 4);
        assert_eq!(t1, t2);
    }

    #[test]
    fn more_cores_cut_completion_time() {
        let a = random_matrix(30, 30, 260, 47);
        let b = random_matrix(30, 30, 260, 48);
        let (_, one, _) =
            gustavson_multicore(&a, &b, SparseCoreConfig::paper(), 1, SchedMode::Dynamic, 4);
        let (_, six, _) =
            gustavson_multicore(&a, &b, SparseCoreConfig::paper(), 6, SchedMode::Dynamic, 4);
        assert_eq!(one.count, six.count);
        assert!(six.cycles < one.cycles, "6 cores {} vs 1 core {}", six.cycles, one.cycles);
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
