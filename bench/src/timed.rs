//! `Timed<B>`: a transparent wrapper that times every call into a GPM
//! [`SetBackend`] or a tensor [`TensorBackend`], aggregated by call kind.
//!
//! Per-call spans would cost more than the calls they measure (a GPM
//! pass makes millions), so each call only adds its duration and the
//! core-model counters it moved to its kind's running totals. The wrapper
//! forwards every call unchanged, so wrapped runs produce the same
//! counts and cycles as unwrapped ones (a test checks this).

use std::time::Instant;

use sc_cpu::{Core, CoreStats};
use sc_gpm::exec::{ScalarBackend, SetBackend, StreamBackend};
use sc_isa::Key;
use sc_kernels::{ScalarTensorBackend, StreamTensorBackend, TensorBackend, VStream};
use sparsecore::EngineStats;

/// What a backend call does, as far as the layer ledger is concerned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `edge_list*` / tensor `load`: stream set-up.
    Read,
    /// GPM set operations (`intersect*`, `subtract*`).
    SetOp,
    /// `nested_count` (`S_NESTINTER`).
    Nested,
    /// `fetch` and `bounded_len`: element reads from a live set.
    Fetch,
    /// Tensor `dot` / `gather_dot`.
    Dot,
    /// Tensor `scaled_merge`.
    Merge,
    /// Loop control, scalar ops, result stores and `list_contains`: work
    /// only the scalar core model does, on either backend.
    Ctl,
    /// `release`.
    Release,
    /// `finish`.
    Finish,
}

impl Kind {
    /// Every kind, in index order.
    pub const ALL: [Kind; 9] = [
        Kind::Read,
        Kind::SetOp,
        Kind::Nested,
        Kind::Fetch,
        Kind::Dot,
        Kind::Merge,
        Kind::Ctl,
        Kind::Release,
        Kind::Finish,
    ];

    /// Stable name used in results and trace files.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::SetOp => "setop",
            Kind::Nested => "nested",
            Kind::Fetch => "fetch",
            Kind::Dot => "dot",
            Kind::Merge => "merge",
            Kind::Ctl => "ctl",
            Kind::Release => "release",
            Kind::Finish => "finish",
        }
    }
}

/// Running totals for one call kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KindStats {
    /// Calls made.
    pub calls: u64,
    /// Host nanoseconds spent inside them.
    pub ns: u64,
    /// Core-model counters the calls advanced.
    pub core: CoreStats,
}

/// Per-kind totals, indexed by `Kind as usize`.
pub type Calls = [KindStats; Kind::ALL.len()];

/// Adds `b` to `a`, field by field.
pub fn add_core(a: &mut CoreStats, b: &CoreStats) {
    a.uops += b.uops;
    a.branches += b.branches;
    a.mispredicts += b.mispredicts;
    a.loads += b.loads;
    a.stores += b.stores;
}

fn core_delta(after: &CoreStats, before: &CoreStats) -> CoreStats {
    CoreStats {
        uops: after.uops - before.uops,
        branches: after.branches - before.branches,
        mispredicts: after.mispredicts - before.mispredicts,
        loads: after.loads - before.loads,
        stores: after.stores - before.stores,
    }
}

/// Read access to the simulated state a backend carries, so the ledger
/// can attribute core-model work to call kinds and collect engine totals.
pub trait Observed {
    /// The scalar core model (the whole baseline, or SparseCore's core).
    fn model_core(&self) -> &Core;
    /// The stream engine's counters; `None` for the CPU baseline.
    fn engine_stats(&self) -> Option<&EngineStats>;
}

impl Observed for ScalarBackend<'_> {
    fn model_core(&self) -> &Core {
        self.core()
    }
    fn engine_stats(&self) -> Option<&EngineStats> {
        None
    }
}

impl Observed for StreamBackend<'_> {
    fn model_core(&self) -> &Core {
        self.engine().core()
    }
    fn engine_stats(&self) -> Option<&EngineStats> {
        Some(self.engine().stats())
    }
}

impl Observed for ScalarTensorBackend {
    fn model_core(&self) -> &Core {
        self.core()
    }
    fn engine_stats(&self) -> Option<&EngineStats> {
        None
    }
}

impl Observed for StreamTensorBackend {
    fn model_core(&self) -> &Core {
        self.engine().core()
    }
    fn engine_stats(&self) -> Option<&EngineStats> {
        Some(self.engine().stats())
    }
}

/// A backend whose every call is timed and attributed to a [`Kind`].
#[derive(Debug)]
pub struct Timed<B> {
    inner: B,
    calls: Calls,
}

impl<B: Observed> Timed<B> {
    /// Wrap `inner`.
    pub fn new(inner: B) -> Self {
        Timed { inner, calls: Calls::default() }
    }

    /// The wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Totals so far.
    pub fn calls(&self) -> &Calls {
        &self.calls
    }

    #[inline]
    fn time<R>(&mut self, kind: Kind, f: impl FnOnce(&mut B) -> R) -> R {
        let before = *self.inner.model_core().stats();
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        let delta = core_delta(self.inner.model_core().stats(), &before);
        let s = &mut self.calls[kind as usize];
        s.calls += 1;
        s.ns += ns;
        add_core(&mut s.core, &delta);
        r
    }
}

impl<B: SetBackend + Observed> SetBackend for Timed<B> {
    type Set = B::Set;

    fn edge_list(&mut self, v: Key) -> Self::Set {
        self.time(Kind::Read, |b| b.edge_list(v))
    }
    fn edge_list_bounded(&mut self, v: Key, bound: Option<Key>) -> Self::Set {
        self.time(Kind::Read, |b| b.edge_list_bounded(v, bound))
    }
    fn intersect(&mut self, a: &Self::Set, s: &Self::Set, bound: Option<Key>) -> Self::Set {
        self.time(Kind::SetOp, |b| b.intersect(a, s, bound))
    }
    fn intersect_count(&mut self, a: &Self::Set, s: &Self::Set, bound: Option<Key>) -> u64 {
        self.time(Kind::SetOp, |b| b.intersect_count(a, s, bound))
    }
    fn subtract(&mut self, a: &Self::Set, s: &Self::Set, bound: Option<Key>) -> Self::Set {
        self.time(Kind::SetOp, |b| b.subtract(a, s, bound))
    }
    fn subtract_count(&mut self, a: &Self::Set, s: &Self::Set, bound: Option<Key>) -> u64 {
        self.time(Kind::SetOp, |b| b.subtract_count(a, s, bound))
    }
    fn len(&self, s: &Self::Set) -> u64 {
        self.inner.len(s)
    }
    fn bounded_len(&mut self, s: &Self::Set, bound: Option<Key>) -> u64 {
        self.time(Kind::Fetch, |b| b.bounded_len(s, bound))
    }
    fn fetch(&mut self, s: &Self::Set, idx: u32) -> Key {
        self.time(Kind::Fetch, |b| b.fetch(s, idx))
    }
    fn list_contains(&mut self, v: Key, k: Key) -> bool {
        self.time(Kind::Ctl, |b| b.list_contains(v, k))
    }
    fn nested_count(&mut self, s: &Self::Set) -> Option<u64> {
        self.time(Kind::Nested, |b| b.nested_count(s))
    }
    fn supports_nested(&self) -> bool {
        self.inner.supports_nested()
    }
    fn release(&mut self, s: Self::Set) {
        self.time(Kind::Release, |b| b.release(s))
    }
    fn loop_branch(&mut self, pc: u64, taken: bool) {
        self.time(Kind::Ctl, |b| b.loop_branch(pc, taken))
    }
    fn ops(&mut self, n: u64) {
        self.time(Kind::Ctl, |b| b.ops(n))
    }
    fn finish(&mut self) -> u64 {
        self.time(Kind::Finish, |b| b.finish())
    }
}

impl<B: TensorBackend + Observed> TensorBackend for Timed<B> {
    type Handle = B::Handle;

    fn load(&mut self, s: &VStream, priority: u32) -> Self::Handle {
        self.time(Kind::Read, |b| b.load(s, priority))
    }
    fn dot(&mut self, a: &Self::Handle, h: &Self::Handle) -> f64 {
        self.time(Kind::Dot, |b| b.dot(a, h))
    }
    fn gather_dot(&mut self, sparse: &Self::Handle, dense: &Self::Handle) -> f64 {
        self.time(Kind::Dot, |b| b.gather_dot(sparse, dense))
    }
    fn scaled_merge(
        &mut self,
        scale_a: f64,
        a: &Self::Handle,
        scale_b: f64,
        h: &Self::Handle,
    ) -> VStream {
        self.time(Kind::Merge, |b| b.scaled_merge(scale_a, a, scale_b, h))
    }
    fn release(&mut self, h: Self::Handle) {
        self.time(Kind::Release, |b| b.release(h))
    }
    fn ops(&mut self, n: u64) {
        self.time(Kind::Ctl, |b| b.ops(n))
    }
    fn loop_branch(&mut self, pc: u64, taken: bool) {
        self.time(Kind::Ctl, |b| b.loop_branch(pc, taken))
    }
    fn store_result(&mut self, addr: u64) {
        self.time(Kind::Ctl, |b| b.store_result(addr))
    }
    fn finish(&mut self) -> u64 {
        self.time(Kind::Finish, |b| b.finish())
    }
}
