//! Tensor-kernel backends: scalar CPU baseline vs SparseCore streams.

use crate::vstream::VStream;
use sc_cpu::{Core, CoreConfig, Region};
use sc_isa::{Priority, StreamId, ValueOp};
use sc_probe::Tally;
use sparsecore::{Engine, SparseCoreConfig};

/// Executes the two value-stream primitives tensor kernels need — the
/// sparse dot product (`S_VINTER` with MAC) and the scaled merge
/// (`S_VMERGE`) — with attached timing.
pub trait TensorBackend {
    /// Handle to a loaded stream.
    type Handle;

    /// Load a (key, value) stream. Higher `priority` marks streams the
    /// kernel reuses (scratchpad candidates).
    fn load(&mut self, s: &VStream, priority: u32) -> Self::Handle;
    /// Sparse dot product of two loaded streams.
    fn dot(&mut self, a: &Self::Handle, b: &Self::Handle) -> f64;
    /// Dot product of a sparse stream against a *dense* operand. On
    /// SparseCore this is still `S_VINTER` (the paper's TTV/TTM
    /// formulation); a scalar CPU instead gathers `dense[k]` per sparse
    /// element — the realistic TACO-generated baseline. Defaults to
    /// [`TensorBackend::dot`].
    fn gather_dot(&mut self, sparse: &Self::Handle, dense: &Self::Handle) -> f64 {
        self.dot(sparse, dense)
    }
    /// `scale_a * a + scale_b * b` as a fresh stream (written to memory).
    fn scaled_merge(
        &mut self,
        scale_a: f64,
        a: &Self::Handle,
        scale_b: f64,
        b: &Self::Handle,
    ) -> VStream;
    /// Release a handle.
    fn release(&mut self, h: Self::Handle);
    /// `n` scalar micro-ops (loop control, index arithmetic).
    fn ops(&mut self, n: u64);
    /// One loop branch with its real outcome.
    fn loop_branch(&mut self, pc: u64, taken: bool);
    /// A store of a result scalar.
    fn store_result(&mut self, addr: u64);
    /// Drain and return total cycles.
    fn finish(&mut self) -> u64;
}

// ---------------------------------------------------------------------
// Scalar baseline
// ---------------------------------------------------------------------

/// The CPU baseline: merge loops with per-element key and value loads
/// (the code of paper Figure 4(a)/(c)).
#[derive(Debug)]
pub struct ScalarTensorBackend {
    core: Core,
    streams: Vec<VStream>,
    free: Vec<usize>,
    out_alloc: u64,
}

impl ScalarTensorBackend {
    /// Paper-configuration CPU.
    pub fn new() -> Self {
        ScalarTensorBackend::with_core(Core::new(CoreConfig::paper()))
    }

    /// Custom core (tests).
    pub fn with_core(core: Core) -> Self {
        ScalarTensorBackend { core, streams: Vec::new(), free: Vec::new(), out_alloc: 0xD000_0000 }
    }

    /// The underlying core.
    pub fn core(&self) -> &Core {
        &self.core
    }

    fn slot(&mut self, s: VStream) -> usize {
        if let Some(i) = self.free.pop() {
            self.streams[i] = s;
            i
        } else {
            self.streams.push(s);
            self.streams.len() - 1
        }
    }
}

impl Default for ScalarTensorBackend {
    fn default() -> Self {
        ScalarTensorBackend::new()
    }
}

impl TensorBackend for ScalarTensorBackend {
    type Handle = usize;

    fn load(&mut self, s: &VStream, _priority: u32) -> usize {
        // Scalar code carries pointers; loading is free beyond the ops the
        // walk itself performs.
        self.core.ops(2);
        self.slot(s.clone())
    }

    fn dot(&mut self, a: &usize, b: &usize) -> f64 {
        let core = &mut self.core;
        let (sa, sb) = (&self.streams[*a], &self.streams[*b]);
        let (ak, av, abase, avbase) = (&sa.keys, &sa.vals, sa.key_addr, sa.val_addr);
        let (bk, bv, bbase, bvbase) = (&sb.keys, &sb.vals, sb.key_addr, sb.val_addr);
        let prev = core.set_region(Region::Intersection);
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0;
        loop {
            let exit = i >= ak.len() || j >= bk.len();
            core.branch(0x300, !exit);
            if exit {
                break;
            }
            let (x, y) = (ak[i], bk[j]);
            core.ops(2);
            let (lt, eq) = (x < y, x == y);
            core.branch(0x304, lt);
            if eq {
                // Value loads + MAC.
                core.load(avbase + i as u64 * 8);
                core.load(bvbase + j as u64 * 8);
                core.ops(2);
                acc += av[i] * bv[j];
            }
            // `a` steps on less-or-equal, `b` on greater-or-equal; the
            // advancing side's next key is loaded, `a`'s first on a match.
            i += usize::from(lt | eq);
            j += usize::from(!lt);
            core.load(if lt | eq { abase + i as u64 * 4 } else { bbase + j as u64 * 4 });
            if eq {
                core.load(bbase + j as u64 * 4);
            }
        }
        core.set_region(prev);
        acc
    }

    fn gather_dot(&mut self, sparse: &usize, dense: &usize) -> f64 {
        let core = &mut self.core;
        let (sp, de) = (&self.streams[*sparse], &self.streams[*dense]);
        let (kbase, vbase, dvbase) = (sp.key_addr, sp.val_addr, de.val_addr);
        let prev = core.set_region(Region::Intersection);
        let mut acc = 0.0;
        for (i, (k, v)) in sp.keys.iter().zip(&sp.vals).enumerate() {
            // Sequential key/value loads plus the gathered dense element.
            core.load(kbase + i as u64 * 4);
            core.load(vbase + i as u64 * 8);
            core.load(dvbase + u64::from(*k) * 8);
            core.ops(2); // MAC + index arithmetic
            core.branch(0x308, true); // loop branch (well predicted)
            acc += v * de.vals[*k as usize];
        }
        core.branch(0x308, false);
        core.set_region(prev);
        acc
    }

    fn scaled_merge(&mut self, sa: f64, a: &usize, sb: f64, b: &usize) -> VStream {
        let out_key = self.out_alloc;
        let out_val = self.out_alloc + 0x40_0000;
        self.out_alloc += 0x80_0000;
        let core = &mut self.core;
        let (a, b) = (&self.streams[*a], &self.streams[*b]);
        let (ak, av, abase, avbase) = (&a.keys, &a.vals, a.key_addr, a.val_addr);
        let (bk, bv, bbase, bvbase) = (&b.keys, &b.vals, b.key_addr, b.val_addr);
        let prev = core.set_region(Region::Intersection);
        let mut keys = Vec::with_capacity(ak.len() + bk.len());
        let mut vals = Vec::with_capacity(ak.len() + bk.len());
        let (mut i, mut j) = (0usize, 0usize);
        loop {
            let exit = i >= ak.len() && j >= bk.len();
            core.branch(0x310, !exit);
            if exit {
                break;
            }
            let x = ak.get(i).copied();
            let y = bk.get(j).copied();
            core.ops(2);
            let (k, v) = match (x, y) {
                (Some(x), Some(y)) if x == y => {
                    core.branch(0x314, false);
                    core.load(avbase + i as u64 * 8);
                    core.load(bvbase + j as u64 * 8);
                    core.ops(3);
                    i += 1;
                    j += 1;
                    core.load(abase + i as u64 * 4);
                    core.load(bbase + j as u64 * 4);
                    (x, sa * av[i - 1] + sb * bv[j - 1])
                }
                (Some(x), Some(y)) if x < y => {
                    core.branch(0x314, true);
                    core.load(avbase + i as u64 * 8);
                    core.ops(1);
                    i += 1;
                    core.load(abase + i as u64 * 4);
                    (x, sa * av[i - 1])
                }
                (Some(_), Some(_)) | (None, Some(_)) => {
                    core.branch(0x314, true);
                    core.load(bvbase + j as u64 * 8);
                    core.ops(1);
                    j += 1;
                    core.load(bbase + j as u64 * 4);
                    (bk[j - 1], sb * bv[j - 1])
                }
                (Some(x), None) => {
                    core.branch(0x314, true);
                    core.load(avbase + i as u64 * 8);
                    core.ops(1);
                    i += 1;
                    core.load(abase + i as u64 * 4);
                    (x, sa * av[i - 1])
                }
                (None, None) => unreachable!("exit checked"),
            };
            keys.push(k);
            vals.push(v);
            core.store(out_key + keys.len() as u64 * 4);
            core.store(out_val + vals.len() as u64 * 8);
        }
        core.set_region(prev);
        VStream { keys, vals, key_addr: out_key, val_addr: out_val }
    }

    fn release(&mut self, h: usize) {
        self.streams[h] = VStream::empty();
        self.free.push(h);
    }

    fn ops(&mut self, n: u64) {
        self.core.ops(n);
    }

    fn loop_branch(&mut self, pc: u64, taken: bool) {
        self.core.branch(pc, taken);
    }

    fn store_result(&mut self, addr: u64) {
        self.core.store(addr);
    }

    fn finish(&mut self) -> u64 {
        self.core.cycles()
    }
}

// ---------------------------------------------------------------------
// Stream backend
// ---------------------------------------------------------------------

/// The SparseCore backend: `S_VREAD` / `S_VINTER` / `S_VMERGE`.
#[derive(Debug)]
pub struct StreamTensorBackend {
    engine: Engine,
    free_ids: Vec<u32>,
    /// Bump allocator for merge-output intermediates (each gets a fresh
    /// region, so re-reading them exercises real cache capacity).
    out_alloc: u64,
    /// Loads, dots and merges issued, exported at `finish`.
    tally: Tally<3>,
}

const LOADS: usize = 0;
const DOTS: usize = 1;
const MERGES: usize = 2;

impl StreamTensorBackend {
    /// Paper configuration.
    pub fn new() -> Self {
        StreamTensorBackend::with_engine(Engine::new(SparseCoreConfig::paper()))
    }

    /// Custom engine (one-SU accelerator comparisons, sweeps).
    pub fn with_engine(engine: Engine) -> Self {
        let n = engine.config().num_stream_registers() as u32;
        StreamTensorBackend {
            engine,
            free_ids: (0..n).rev().collect(),
            out_alloc: 0x20_0000_0000,
            tally: Tally::new(["kernel.loads", "kernel.dots", "kernel.merges"]),
        }
    }

    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access (enable tracing, virtualization, ...).
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Stop tracing and return the recorded instruction trace together
    /// with its `sc-lint` report, checked against this backend's engine
    /// model (register count, virtualization). Debug builds assert the
    /// trace is free of error-level findings — the kernels in this crate
    /// must emit lint-clean instruction streams.
    ///
    /// Call after the kernel has released every handle; enable recording
    /// first with `engine_mut().record_trace()`.
    pub fn take_lint_checked_trace(&mut self) -> (sc_isa::Program, sc_lint::Report) {
        let trace = self.engine.take_trace();
        let config = sc_lint::LintConfig::default()
            .stream_registers(self.engine.config().num_stream_registers())
            .virtualization(self.engine.virtualization_enabled());
        let report = sc_lint::lint(&trace, &config);
        debug_assert!(
            report.error_free(),
            "kernel emitted a trace with lint errors:\n{report}\ntrace:\n{trace}"
        );
        (trace, report)
    }

    fn alloc(&mut self) -> StreamId {
        StreamId::new(self.free_ids.pop().expect("stream registers exhausted"))
    }
}

impl Default for StreamTensorBackend {
    fn default() -> Self {
        StreamTensorBackend::new()
    }
}

impl TensorBackend for StreamTensorBackend {
    type Handle = StreamId;

    fn load(&mut self, s: &VStream, priority: u32) -> StreamId {
        let sid = self.alloc();
        self.tally.add(LOADS);
        self.engine
            .s_vread(s.key_addr, &s.keys, s.val_addr, &s.vals, sid, Priority(priority))
            .expect("register allocated");
        sid
    }

    fn dot(&mut self, a: &StreamId, b: &StreamId) -> f64 {
        self.tally.add(DOTS);
        self.engine.s_vinter(*a, *b, ValueOp::Mac).expect("live streams")
    }

    fn scaled_merge(&mut self, sa: f64, a: &StreamId, sb: f64, b: &StreamId) -> VStream {
        self.tally.add(MERGES);
        let out = self.alloc();
        self.engine.s_vmerge(sa, sb, *a, *b, out).expect("live streams");
        let keys = self.engine.stream_keys(out).expect("output live").to_vec();
        let vals =
            self.engine.stream_values(out).expect("output live").expect("value stream").to_vec();
        // The merge output is re-homed to a fresh kernel-managed region
        // (intermediates stream through memory; re-reads pay real cache
        // capacity behaviour).
        let key_addr = self.out_alloc;
        let val_addr = self.out_alloc + 0x40_0000;
        self.out_alloc += 0x80_0000;
        self.engine.s_free(out).expect("output live");
        self.free_ids.push(out.raw());
        VStream { keys, vals, key_addr, val_addr }
    }

    fn release(&mut self, h: StreamId) {
        self.engine.s_free(h).expect("live stream");
        self.free_ids.push(h.raw());
    }

    fn ops(&mut self, n: u64) {
        self.engine.core_mut().ops(n);
    }

    fn loop_branch(&mut self, pc: u64, taken: bool) {
        self.engine.core_mut().branch(pc, taken);
    }

    fn store_result(&mut self, addr: u64) {
        self.engine.core_mut().store(addr);
    }

    fn finish(&mut self) -> u64 {
        let cycles = self.engine.finish();
        self.tally.export(self.engine.probe());
        cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ab() -> (VStream, VStream) {
        (
            VStream {
                keys: vec![1, 3, 7],
                vals: vec![45.0, 21.0, 13.0],
                key_addr: 0x1000,
                val_addr: 0x2000,
            },
            VStream {
                keys: vec![2, 5, 7],
                vals: vec![14.0, 36.0, 2.0],
                key_addr: 0x3000,
                val_addr: 0x4000,
            },
        )
    }

    #[test]
    fn scalar_dot_matches_paper_example() {
        let (a, b) = ab();
        let mut be = ScalarTensorBackend::new();
        let (ha, hb) = (be.load(&a, 0), be.load(&b, 0));
        assert_eq!(be.dot(&ha, &hb), 26.0);
        assert!(be.finish() > 0);
    }

    #[test]
    fn stream_dot_matches_scalar() {
        let (a, b) = ab();
        let mut sc = ScalarTensorBackend::new();
        let (ha, hb) = (sc.load(&a, 0), sc.load(&b, 0));
        let d1 = sc.dot(&ha, &hb);
        let mut st = StreamTensorBackend::new();
        let (ha, hb) = (st.load(&a, 0), st.load(&b, 0));
        let d2 = st.dot(&ha, &hb);
        assert_eq!(d1, d2);
    }

    #[test]
    fn scaled_merge_matches_both_backends() {
        let a =
            VStream { keys: vec![1, 3], vals: vec![4.0, 21.0], key_addr: 0x100, val_addr: 0x200 };
        let b =
            VStream { keys: vec![1, 5], vals: vec![1.0, 36.0], key_addr: 0x300, val_addr: 0x400 };
        let mut sc = ScalarTensorBackend::new();
        let (ha, hb) = (sc.load(&a, 0), sc.load(&b, 0));
        let m1 = sc.scaled_merge(2.0, &ha, 3.0, &hb);
        assert_eq!(m1.keys, vec![1, 3, 5]);
        assert_eq!(m1.vals, vec![11.0, 42.0, 108.0]);
        let mut st = StreamTensorBackend::new();
        let (ha, hb) = (st.load(&a, 0), st.load(&b, 0));
        let m2 = st.scaled_merge(2.0, &ha, 3.0, &hb);
        assert_eq!(m1.keys, m2.keys);
        assert_eq!(m1.vals, m2.vals);
    }

    #[test]
    fn merge_with_empty_is_scaled_copy() {
        let a =
            VStream { keys: vec![2, 4], vals: vec![1.0, 2.0], key_addr: 0x100, val_addr: 0x200 };
        let e = VStream::empty();
        let mut sc = ScalarTensorBackend::new();
        let (ha, he) = (sc.load(&a, 0), sc.load(&e, 0));
        let m = sc.scaled_merge(3.0, &ha, 1.0, &he);
        assert_eq!(m.keys, vec![2, 4]);
        assert_eq!(m.vals, vec![3.0, 6.0]);
    }

    #[test]
    fn handles_recycle() {
        let (a, b) = ab();
        let mut st = StreamTensorBackend::new();
        for _ in 0..40 {
            let ha = st.load(&a, 0);
            let hb = st.load(&b, 0);
            st.dot(&ha, &hb);
            st.release(ha);
            st.release(hb);
        }
        assert_eq!(st.free_ids.len(), 16);
    }
}
