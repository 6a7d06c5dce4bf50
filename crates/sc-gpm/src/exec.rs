//! Plan execution over pluggable set-operation backends.
//!
//! The same enumeration algorithm (the compiled [`Plan`]) runs on two
//! backends, mirroring the paper's methodology where `InHouseAutomine`
//! (CPU) and the SparseCore compiler implement the *same* algorithm and
//! differ only in how set operations execute:
//!
//! * [`ScalarBackend`] — the CPU baseline: merge-based set operations with
//!   per-element loads and *real data-dependent branches* fed to the
//!   branch predictor (the tight-loop pattern of paper Section 2.2);
//! * [`StreamBackend`] — stream instructions on the SparseCore
//!   [`Engine`], optionally fusing the two innermost levels into
//!   `S_NESTINTER` when the plan allows.

use crate::plan::Plan;
use sc_cpu::Region;
use sc_graph::CsrGraph;
use sc_isa::{Bound, Key, Priority, StreamId, EOS};
use sc_probe::Tally;
use sparsecore::{Engine, NestedSource, SparseCoreConfig};

/// A backend executing sorted-set operations with attached timing.
pub trait SetBackend {
    /// Handle to a sorted set (a loaded edge list or an operation result).
    type Set;

    /// Load the full neighbor list of `v`.
    fn edge_list(&mut self, v: Key) -> Self::Set;
    /// Load the prefix of `N(v)` strictly below `bound` (uses the CSR
    /// offset array when `bound == v`).
    fn edge_list_bounded(&mut self, v: Key, bound: Option<Key>) -> Self::Set;
    /// Intersect, keeping keys below `bound`.
    fn intersect(&mut self, a: &Self::Set, b: &Self::Set, bound: Option<Key>) -> Self::Set;
    /// Count-only intersection.
    fn intersect_count(&mut self, a: &Self::Set, b: &Self::Set, bound: Option<Key>) -> u64;
    /// Subtract `b` from `a`, keeping keys below `bound`.
    fn subtract(&mut self, a: &Self::Set, b: &Self::Set, bound: Option<Key>) -> Self::Set;
    /// Count-only subtraction.
    fn subtract_count(&mut self, a: &Self::Set, b: &Self::Set, bound: Option<Key>) -> u64;
    /// Number of elements.
    fn len(&self, s: &Self::Set) -> u64;
    /// Number of elements strictly below `bound`.
    fn bounded_len(&mut self, s: &Self::Set, bound: Option<Key>) -> u64;
    /// Element at `idx`, or [`EOS`] past the end.
    fn fetch(&mut self, s: &Self::Set, idx: u32) -> Key;
    /// Membership test `k ∈ N(v)` (scalar-side binary search; used for
    /// the rare exclusion adjustments).
    fn list_contains(&mut self, v: Key, k: Key) -> bool;
    /// The `S_NESTINTER` fused form: `Σ_{x∈s} |s ∩ N(x)|_{<x}`.
    /// `None` when the backend has no such instruction.
    fn nested_count(&mut self, s: &Self::Set) -> Option<u64>;
    /// Does [`SetBackend::nested_count`] return `Some`?
    fn supports_nested(&self) -> bool {
        false
    }
    /// Release a set handle.
    fn release(&mut self, s: Self::Set);
    /// One loop-control branch with its real outcome.
    fn loop_branch(&mut self, pc: u64, taken: bool);
    /// `n` generic scalar micro-ops.
    fn ops(&mut self, n: u64);
    /// Drain outstanding work; total cycles.
    fn finish(&mut self) -> u64;
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

/// A candidate set at one recursion level.
enum Cand<S> {
    /// A materialized operation result (bound already applied).
    Owned(S),
    /// A borrowed single edge list with a bound applied at iteration time.
    ListRef(usize, Option<Key>),
}

/// Does level `l` read a single edge list (one connected operand)?
fn single_list(plan: &Plan, l: usize) -> bool {
    let level = &plan.levels()[l];
    level.connected.len() == 1 && level.disconnected.is_empty()
}

/// Which levels' edge lists must stay loaded for deeper levels: every
/// operand of every level, except the levels `S_NESTINTER` consumes — the
/// last level, and a single-list second-to-last level, which reads its
/// own bounded list.
fn lists_needed(plan: &Plan, use_nested: bool) -> Vec<bool> {
    let n = plan.levels().len();
    let mut needed = vec![false; n];
    for (l, level) in plan.levels().iter().enumerate() {
        if use_nested && (l == n - 1 || (l == n - 2 && single_list(plan, l))) {
            continue;
        }
        for &j in level.connected.iter().chain(&level.disconnected) {
            needed[j] = true;
        }
    }
    needed
}

/// Recursion context: the compiled plan, the current partial embedding,
/// and the loaded edge lists per level.
struct Ctx<'a, B: SetBackend> {
    plan: &'a Plan,
    needed: Vec<bool>,
    use_nested: bool,
    assigned: Vec<Key>,
    lists: Vec<Option<B::Set>>,
}

/// The shared outer-loop driver: enumerate from every start vertex the
/// iterator yields, charging the backend for the loop control either way.
///
/// Single-level plans still walk the loop — one taken branch and the
/// count-increment op per start vertex, plus the final not-taken exit —
/// so per-core cycles stay meaningful for a multicore partition instead
/// of silently reporting zero.
fn count_over<B: SetBackend>(
    plan: &Plan,
    backend: &mut B,
    vertices: impl Iterator<Item = Key>,
) -> u64 {
    let n = plan.levels().len();
    if n == 1 {
        // Every start vertex is itself an embedding; the walk is loop
        // control plus a count increment, and it must be charged.
        let mut total = 0;
        for _v0 in vertices {
            backend.loop_branch(0x10, true);
            backend.ops(1);
            total += 1;
        }
        backend.loop_branch(0x10, false);
        return total;
    }
    let use_nested = plan.nested_applicable() && backend.supports_nested();
    let needed = lists_needed(plan, use_nested);
    let mut ctx = Ctx::<B> {
        plan,
        needed,
        use_nested,
        assigned: vec![0; n],
        lists: (0..n).map(|_| None).collect(),
    };
    let mut total = 0;
    for v0 in vertices {
        ctx.assigned[0] = v0;
        backend.loop_branch(0x10, true);
        if ctx.needed[0] {
            ctx.lists[0] = Some(backend.edge_list(v0));
        }
        total += level_count(&mut ctx, backend, 1);
        if let Some(s) = ctx.lists[0].take() {
            backend.release(s);
        }
    }
    backend.loop_branch(0x10, false);
    total
}

/// Count the embeddings of `plan.pattern()` in `g` using `backend`.
///
/// Symmetry breaking makes each embedding counted exactly once.
pub fn count<B: SetBackend>(g: &CsrGraph, plan: &Plan, backend: &mut B) -> u64 {
    count_over(plan, backend, g.vertices())
}

/// Like [`count`], but only simulates every `stride`-th start vertex and
/// scales the cycle cost accordingly — the row-sampling idea the tensor
/// kernels use, applied to the enumeration's outer loop. Returns
/// `(scaled_count_estimate, exact_count_of_sampled_portion)`; callers
/// multiply the backend's cycles by `stride` themselves (the backend
/// object keeps only the sampled portion's cycles).
///
/// With `stride == 1` the estimate is exact and equals [`count`].
pub fn count_sampled<B: SetBackend>(
    g: &CsrGraph,
    plan: &Plan,
    backend: &mut B,
    stride: usize,
) -> (u64, u64) {
    let stride = stride.max(1);
    let sampled = count_over(plan, backend, g.vertices().step_by(stride));
    (sampled * stride as u64, sampled)
}

/// Count over the start vertices [`sparsecore::run_partition`] hands one
/// core — its residue class or one chunk. Returns their exact count (no scaling).
pub fn count_vertices<B: SetBackend>(
    plan: &Plan,
    backend: &mut B,
    vertices: impl Iterator<Item = usize>,
) -> u64 {
    count_over(plan, backend, vertices.map(|v| v as Key))
}

fn level_count<B: SetBackend>(ctx: &mut Ctx<'_, B>, b: &mut B, l: usize) -> u64 {
    let n = ctx.plan.levels().len();
    let level = &ctx.plan.levels()[l];
    let bound_val: Option<Key> = level.bounds.iter().map(|&j| ctx.assigned[j]).min();
    // Post-filter restrictions (the unbounded Figure 2(a) ablation): the
    // set operations run to completion and candidates >= the filter are
    // discarded afterwards, costing a branch per discarded candidate.
    let filter_val: Option<Key> = level.filters.iter().map(|&j| ctx.assigned[j]).min();
    let single = single_list(ctx.plan, l);

    if ctx.use_nested && l == n - 2 {
        // Fuse this level and the next into S_NESTINTER.
        let c = if single {
            b.edge_list_bounded(ctx.assigned[level.connected[0]], bound_val)
        } else {
            fold_set(ctx, b, l, bound_val)
        };
        let result = b.nested_count(&c).expect("backend advertised nested support");
        b.release(c);
        return result;
    }

    if l == n - 1 {
        // Count-only final level.
        let mut cnt = if single {
            let list = ctx.lists[level.connected[0]].as_ref().expect("list loaded");
            b.bounded_len(list, bound_val.or(filter_val))
        } else if filter_val.is_some() {
            // Unbounded ablation: run the full operations, materialize,
            // then count the filtered prefix — the discarded work is the
            // cost the bounded variant avoids.
            let c = fold_set(ctx, b, l, None);
            let kept = b.bounded_len(&c, filter_val);
            b.release(c);
            kept
        } else {
            match fold(ctx, b, l, bound_val, true) {
                Folded::Count(n) => n,
                Folded::Set(_) => unreachable!("a counting fold ends in a count"),
            }
        };
        // Exclusion adjustment: earlier vertices that survive the set
        // algebra and the bound must not be counted.
        for &j in &level.excludes {
            let vj = ctx.assigned[j];
            if bound_val.or(filter_val).is_some_and(|bv| vj >= bv) {
                continue;
            }
            if candidate_contains(ctx, b, l, vj) {
                cnt -= 1;
            }
        }
        return cnt;
    }

    // Intermediate level: build (or borrow) the candidate set, iterate.
    let cand = if single {
        Cand::ListRef(level.connected[0], bound_val)
    } else {
        Cand::Owned(fold_set(ctx, b, l, bound_val))
    };

    let mut total = 0;
    let mut idx = 0u32;
    loop {
        let key = match &cand {
            Cand::Owned(s) => b.fetch(s, idx),
            Cand::ListRef(j, _) => {
                let list = ctx.lists[*j].as_ref().expect("list loaded");
                b.fetch(list, idx)
            }
        };
        // The loop ends at the end of the set or, for a borrowed list, at
        // its bound.
        let more = key != EOS && !matches!(cand, Cand::ListRef(_, Some(bv)) if key >= bv);
        b.loop_branch(0x20 + l as u64, more);
        if !more {
            break;
        }
        idx += 1;
        // Post-filter discard (unbounded ablation): a data-dependent
        // branch per candidate — the "branches in the next loop level"
        // Figure 2 says bounded intersection eliminates.
        if let Some(fv) = filter_val {
            b.loop_branch(0x40 + l as u64, key >= fv);
            if key >= fv {
                continue;
            }
        }
        // Skip earlier assigned vertices that the algebra didn't remove.
        if level.excludes.iter().any(|&j| ctx.assigned[j] == key) {
            b.ops(level.excludes.len() as u64);
            continue;
        }
        b.ops(level.excludes.len() as u64 + 1);
        ctx.assigned[l] = key;
        if ctx.needed[l] {
            ctx.lists[l] = Some(b.edge_list(key));
        }
        total += level_count(ctx, b, l + 1);
        if let Some(s) = ctx.lists[l].take() {
            b.release(s);
        }
    }
    if let Cand::Owned(s) = cand {
        b.release(s);
    }
    total
}

/// The end of a level's fold: its candidate set, or its size when the
/// last step is a count-only (`.C`) operation.
enum Folded<S> {
    Set(S),
    Count(u64),
}

/// Fold level `l`'s operand lists left to right: the connected lists
/// intersect, then the disconnected lists subtract, every step bounded by
/// `bound`. Each step's result is made before the previous accumulator is
/// released. With `count`, the last step is the `.C` form, after which
/// the accumulator is released.
fn fold<B: SetBackend>(
    ctx: &Ctx<'_, B>,
    b: &mut B,
    l: usize,
    bound: Option<Key>,
    count: bool,
) -> Folded<B::Set> {
    let level = &ctx.plan.levels()[l];
    let list = |j: usize| ctx.lists[j].as_ref().expect("list loaded");
    let intersect = level.connected[1..].iter().map(|&j| (false, j));
    let mut steps = intersect.chain(level.disconnected.iter().map(|&j| (true, j))).peekable();
    let mut acc: Option<B::Set> = None;
    while let Some((subtract, j)) = steps.next() {
        let (lhs, rhs) = (acc.as_ref().unwrap_or_else(|| list(level.connected[0])), list(j));
        if count && steps.peek().is_none() {
            let n = match subtract {
                false => b.intersect_count(lhs, rhs, bound),
                true => b.subtract_count(lhs, rhs, bound),
            };
            if let Some(old) = acc {
                b.release(old);
            }
            return Folded::Count(n);
        }
        let next = match subtract {
            false => b.intersect(lhs, rhs, bound),
            true => b.subtract(lhs, rhs, bound),
        };
        if let Some(old) = acc.replace(next) {
            b.release(old);
        }
    }
    Folded::Set(acc.expect("at least two operands"))
}

/// [`fold`] into a materialized candidate set.
fn fold_set<B: SetBackend>(ctx: &Ctx<'_, B>, b: &mut B, l: usize, bound: Option<Key>) -> B::Set {
    match fold(ctx, b, l, bound, false) {
        Folded::Set(s) => s,
        Folded::Count(_) => unreachable!("a materializing fold ends in a set"),
    }
}

/// Would `k` appear in level `l`'s candidate set (ignoring the bound)?
fn candidate_contains<B: SetBackend>(ctx: &mut Ctx<'_, B>, b: &mut B, l: usize, k: Key) -> bool {
    let level = &ctx.plan.levels()[l];
    for &j in &level.connected {
        if !b.list_contains(ctx.assigned[j], k) {
            return false;
        }
    }
    for &j in &level.disconnected {
        if b.list_contains(ctx.assigned[j], k) {
            return false;
        }
    }
    true
}

// ---------------------------------------------------------------------
// Scalar-core steps both backends charge alike
// ---------------------------------------------------------------------

/// `k ∈ N(v)` by binary search on the scalar core: the index-entry load,
/// then per probe one element load, two ops and a branch at `pc`.
fn list_contains_charged(core: &mut sc_cpu::Core, g: &CsrGraph, v: Key, k: Key, pc: u64) -> bool {
    core.load_use(g.index_entry_addr(v));
    let (keys, base) = (g.neighbors(v), g.edge_list_addr(v));
    let (mut lo, mut hi) = (0usize, keys.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        core.load_use(base + mid as u64 * 4);
        core.ops(2);
        let go_right = keys[mid] < k;
        core.branch(pc, go_right);
        if keys[mid] == k {
            return true;
        }
        if go_right {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    false
}

/// The length of `N(v)`'s prefix strictly below `bound`, charged to the
/// scalar core: one CSR-offset load when `bound == v`, otherwise a binary
/// search of log2 dependent ops.
fn bounded_cut(core: &mut sc_cpu::Core, g: &CsrGraph, v: Key, bound: Option<Key>) -> usize {
    let list = g.neighbors(v);
    match bound {
        Some(bv) if bv == v => {
            core.load_use(g.offset_entry_addr(v));
            g.csr_offset(v) as usize
        }
        Some(bv) => {
            core.dependent_ops((list.len().max(2) as f64).log2().ceil() as u64);
            list.partition_point(|&x| x < bv)
        }
        None => list.len(),
    }
}

// ---------------------------------------------------------------------
// Scalar backend (CPU baseline)
// ---------------------------------------------------------------------

/// A set handle for the scalar backend: materialized keys plus their
/// simulated base address.
#[derive(Debug, Clone)]
pub struct ScalarSet {
    keys: Vec<Key>,
    base: u64,
}

/// The CPU baseline: merge-loop set operations on the out-of-order core
/// model, with per-element loads and real data-dependent branches.
#[derive(Debug)]
pub struct ScalarBackend<'g> {
    core: sc_cpu::Core,
    g: &'g CsrGraph,
    /// Rotating scratch region for operation results (real code reuses
    /// stack/heap buffers, which is what makes them cache-resident).
    temp_base: [u64; 2],
    temp_flip: usize,
}

impl<'g> ScalarBackend<'g> {
    /// Build a baseline CPU for `g` with the paper's core configuration.
    pub fn new(g: &'g CsrGraph) -> Self {
        ScalarBackend::with_core(g, sc_cpu::Core::new(sc_cpu::CoreConfig::paper()))
    }

    /// Build with a custom core (tests use the tiny configuration).
    pub fn with_core(g: &'g CsrGraph, core: sc_cpu::Core) -> Self {
        ScalarBackend { core, g, temp_base: [0xE000_0000, 0xE800_0000], temp_flip: 0 }
    }

    /// The underlying core (cycles, breakdown, statistics).
    pub fn core(&self) -> &sc_cpu::Core {
        &self.core
    }

    fn alloc_temp(&mut self) -> u64 {
        self.temp_flip ^= 1;
        self.temp_base[self.temp_flip]
    }

    /// The charged merge walk shared by all four set operations: mirrors
    /// the scalar code of paper Figure 4(a) — per step one element load,
    /// a data-dependent comparison branch, and pointer bookkeeping.
    fn charged_walk(
        &mut self,
        a: &ScalarSet,
        bset: &ScalarSet,
        bound: Option<Key>,
        subtract: bool,
        materialize: Option<u64>,
    ) -> (Vec<Key>, u64) {
        let prev = self.core.set_region(Region::Intersection);
        let (mut i, mut j) = (0usize, 0usize);
        let mut out = Vec::new();
        let mut count = 0u64;
        let a_keys = &a.keys;
        let b_keys = &bset.keys;
        // Initial element loads.
        if !a_keys.is_empty() {
            self.core.load(a.base);
        }
        if !b_keys.is_empty() {
            self.core.load(bset.base);
        }
        loop {
            // Loop-exit bounds check (well predicted until it fires).
            let exit = i >= a_keys.len() || (!subtract && j >= b_keys.len());
            self.core.branch(0x100, !exit);
            if exit {
                break;
            }
            let x = a_keys[i];
            if let Some(bv) = bound {
                let cut = match subtract {
                    true => x >= bv,
                    false => x.min(*b_keys.get(j).unwrap_or(&EOS)) >= bv,
                };
                self.core.branch(0x104, cut);
                if cut {
                    break;
                }
            }
            if subtract && j >= b_keys.len() {
                // Tail of a survives; copy it out.
                count += 1;
                if let Some(base) = materialize {
                    out.push(x);
                    self.core.store(base + out.len() as u64 * 4);
                }
                i += 1;
                self.core.load(a.base + i as u64 * 4);
                self.core.ops(1);
                continue;
            }
            let y = b_keys[j];
            // The three-way comparison: one data-dependent branch for
            // less-than plus an equality check. The host computes both
            // flags and advances without branching on them: `a` steps on
            // less-or-equal, `b` on greater-or-equal.
            self.core.ops(2);
            let (lt, eq) = (x < y, x == y);
            self.core.branch(0x108, lt);
            // Intersection keeps matches; subtraction keeps `a`'s smaller
            // elements and drops matches.
            let keep = if subtract { lt } else { eq };
            count += u64::from(keep);
            if let (true, Some(base)) = (keep, materialize) {
                out.push(x);
                self.core.store(base + out.len() as u64 * 4);
            }
            i += usize::from(lt | eq);
            j += usize::from(!lt);
            // The advancing side's next element; on a match `a`'s load
            // comes first, then `b`'s.
            let next = if lt | eq { a.base + i as u64 * 4 } else { bset.base + j as u64 * 4 };
            self.core.load(next);
            if eq {
                self.core.load(bset.base + j as u64 * 4);
            }
        }
        self.core.set_region(prev);
        (out, count)
    }
}

impl<'g> SetBackend for ScalarBackend<'g> {
    type Set = ScalarSet;

    fn edge_list(&mut self, v: Key) -> ScalarSet {
        // Vertex-array lookups for begin/end.
        self.core.load_use(self.g.index_entry_addr(v));
        self.core.ops(2);
        ScalarSet { keys: self.g.neighbors(v).to_vec(), base: self.g.edge_list_addr(v) }
    }

    fn edge_list_bounded(&mut self, v: Key, bound: Option<Key>) -> ScalarSet {
        self.core.load_use(self.g.index_entry_addr(v));
        let cut = bounded_cut(&mut self.core, self.g, v, bound);
        self.core.ops(2);
        ScalarSet { keys: self.g.neighbors(v)[..cut].to_vec(), base: self.g.edge_list_addr(v) }
    }

    fn intersect(&mut self, a: &ScalarSet, b: &ScalarSet, bound: Option<Key>) -> ScalarSet {
        let base = self.alloc_temp();
        let (keys, _) = self.charged_walk(a, b, bound, false, Some(base));
        ScalarSet { keys, base }
    }

    fn intersect_count(&mut self, a: &ScalarSet, b: &ScalarSet, bound: Option<Key>) -> u64 {
        self.charged_walk(a, b, bound, false, None).1
    }

    fn subtract(&mut self, a: &ScalarSet, b: &ScalarSet, bound: Option<Key>) -> ScalarSet {
        let base = self.alloc_temp();
        let (keys, _) = self.charged_walk(a, b, bound, true, Some(base));
        ScalarSet { keys, base }
    }

    fn subtract_count(&mut self, a: &ScalarSet, b: &ScalarSet, bound: Option<Key>) -> u64 {
        self.charged_walk(a, b, bound, true, None).1
    }

    fn len(&self, s: &ScalarSet) -> u64 {
        s.keys.len() as u64
    }

    fn bounded_len(&mut self, s: &ScalarSet, bound: Option<Key>) -> u64 {
        match bound {
            None => {
                self.core.ops(1);
                s.keys.len() as u64
            }
            Some(bv) => {
                let steps = (s.keys.len().max(2) as f64).log2().ceil() as u64;
                self.core.dependent_ops(steps * 2);
                s.keys.partition_point(|&x| x < bv) as u64
            }
        }
    }

    fn fetch(&mut self, s: &ScalarSet, idx: u32) -> Key {
        self.core.ops(1);
        match s.keys.get(idx as usize) {
            Some(&k) => {
                self.core.load(s.base + u64::from(idx) * 4);
                k
            }
            None => EOS,
        }
    }

    fn list_contains(&mut self, v: Key, k: Key) -> bool {
        list_contains_charged(&mut self.core, self.g, v, k, 0x120)
    }

    fn nested_count(&mut self, _s: &ScalarSet) -> Option<u64> {
        None
    }

    fn release(&mut self, _s: ScalarSet) {}

    fn loop_branch(&mut self, pc: u64, taken: bool) {
        self.core.branch(pc, taken);
    }

    fn ops(&mut self, n: u64) {
        self.core.ops(n);
    }

    fn finish(&mut self) -> u64 {
        self.core.cycles()
    }
}

// ---------------------------------------------------------------------
// Stream backend (SparseCore)
// ---------------------------------------------------------------------

/// A set handle on the stream backend: a live stream ID plus its length.
#[derive(Debug)]
pub struct StreamSet {
    sid: StreamId,
    len: u64,
}

/// Adapter exposing a CSR graph as the engine's nested-intersection
/// source (the role of the GFR registers).
#[derive(Debug, Clone, Copy)]
pub struct GraphSource<'g>(pub &'g CsrGraph);

impl NestedSource for GraphSource<'_> {
    fn keys(&self, v: Key) -> &[Key] {
        self.0.neighbors(v)
    }

    fn key_addr(&self, v: Key) -> u64 {
        self.0.edge_list_addr(v)
    }
}

/// The SparseCore backend: set operations become stream instructions on
/// the [`Engine`].
#[derive(Debug)]
pub struct StreamBackend<'g> {
    engine: Engine,
    g: &'g CsrGraph,
    free_ids: Vec<u32>,
    use_nested: bool,
    /// Edge lists read and `S_NESTINTER` calls, exported at `finish`.
    tally: Tally<2>,
}

const EDGE_LISTS: usize = 0;
const NESTED_CALLS: usize = 1;

impl<'g> StreamBackend<'g> {
    /// Build with the paper configuration, nested intersection enabled.
    pub fn new(g: &'g CsrGraph) -> Self {
        StreamBackend::with_engine(g, Engine::new(SparseCoreConfig::paper()), true)
    }

    /// Build over a custom engine; `use_nested` selects the `T`/`TS`
    /// style variants (with/without `S_NESTINTER`).
    pub fn with_engine(g: &'g CsrGraph, engine: Engine, use_nested: bool) -> Self {
        let n = engine.config().num_stream_registers() as u32;
        let tally = Tally::new(["gpm.edge_lists", "gpm.nested_calls"]);
        StreamBackend { engine, g, free_ids: (0..n).rev().collect(), use_nested, tally }
    }

    /// The underlying engine (cycles, breakdown, statistics).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable engine access.
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    fn alloc_sid(&mut self) -> StreamId {
        StreamId::new(self.free_ids.pop().expect("stream registers exhausted"))
    }

    fn priority_for(len: usize) -> Priority {
        // Longer (hotter) lists get higher scratchpad priority — the
        // compiler's reuse analysis in Section 4.2.
        Priority(32 - (len.max(1) as u32).leading_zeros())
    }
}

impl<'g> SetBackend for StreamBackend<'g> {
    type Set = StreamSet;

    fn edge_list(&mut self, v: Key) -> StreamSet {
        let sid = self.alloc_sid();
        let keys = self.g.neighbors(v);
        self.tally.add(EDGE_LISTS);
        self.engine
            .s_read(self.g.edge_list_addr(v), keys, sid, Self::priority_for(keys.len()))
            .expect("register allocated");
        StreamSet { sid, len: keys.len() as u64 }
    }

    fn edge_list_bounded(&mut self, v: Key, bound: Option<Key>) -> StreamSet {
        let cut = bounded_cut(self.engine.core_mut(), self.g, v, bound);
        let sid = self.alloc_sid();
        let keys = &self.g.neighbors(v)[..cut];
        self.engine
            .s_read(self.g.edge_list_addr(v), keys, sid, Self::priority_for(cut))
            .expect("register allocated");
        StreamSet { sid, len: cut as u64 }
    }

    fn intersect(&mut self, a: &StreamSet, b: &StreamSet, bound: Option<Key>) -> StreamSet {
        let out = self.alloc_sid();
        let len = self
            .engine
            .s_inter(a.sid, b.sid, out, bound.map_or(Bound::none(), Bound::below))
            .expect("valid operands");
        StreamSet { sid: out, len: u64::from(len) }
    }

    fn intersect_count(&mut self, a: &StreamSet, b: &StreamSet, bound: Option<Key>) -> u64 {
        self.engine
            .s_inter_c(a.sid, b.sid, bound.map_or(Bound::none(), Bound::below))
            .expect("valid operands")
    }

    fn subtract(&mut self, a: &StreamSet, b: &StreamSet, bound: Option<Key>) -> StreamSet {
        let out = self.alloc_sid();
        let len = self
            .engine
            .s_sub(a.sid, b.sid, out, bound.map_or(Bound::none(), Bound::below))
            .expect("valid operands");
        StreamSet { sid: out, len: u64::from(len) }
    }

    fn subtract_count(&mut self, a: &StreamSet, b: &StreamSet, bound: Option<Key>) -> u64 {
        self.engine
            .s_sub_c(a.sid, b.sid, bound.map_or(Bound::none(), Bound::below))
            .expect("valid operands")
    }

    fn len(&self, s: &StreamSet) -> u64 {
        s.len
    }

    fn bounded_len(&mut self, s: &StreamSet, bound: Option<Key>) -> u64 {
        match bound {
            None => {
                self.engine.core_mut().ops(1);
                s.len
            }
            Some(bv) => {
                // Scalar-side binary search over S_FETCHed elements.
                let keys = self.engine.stream_keys(s.sid).expect("live stream").to_vec();
                let (mut lo, mut hi) = (0usize, keys.len());
                while lo < hi {
                    let mid = (lo + hi) / 2;
                    let k = self.engine.s_fetch(s.sid, mid as u32).expect("live stream");
                    self.engine.core_mut().branch(0x140, k < bv);
                    if k < bv {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo as u64
            }
        }
    }

    fn fetch(&mut self, s: &StreamSet, idx: u32) -> Key {
        self.engine.s_fetch(s.sid, idx).expect("live stream")
    }

    fn list_contains(&mut self, v: Key, k: Key) -> bool {
        // The scalar core performs this rare check exactly as the CPU
        // baseline does.
        list_contains_charged(self.engine.core_mut(), self.g, v, k, 0x150)
    }

    fn nested_count(&mut self, s: &StreamSet) -> Option<u64> {
        if !self.use_nested {
            return None;
        }
        self.tally.add(NESTED_CALLS);
        let source = GraphSource(self.g);
        Some(self.engine.s_nestinter(s.sid, &source).expect("live stream"))
    }

    fn supports_nested(&self) -> bool {
        self.use_nested
    }

    fn release(&mut self, s: StreamSet) {
        self.engine.s_free(s.sid).expect("live stream");
        self.free_ids.push(s.sid.raw());
    }

    fn loop_branch(&mut self, pc: u64, taken: bool) {
        self.engine.core_mut().branch(pc, taken);
    }

    fn ops(&mut self, n: u64) {
        self.engine.core_mut().ops(n);
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
    use crate::pattern::Pattern;
    use crate::plan::Induced;

    fn small_graph() -> CsrGraph {
        // Two triangles sharing an edge, plus a tail: vertices 0-5.
        CsrGraph::from_edges(6, &[(0, 1), (1, 2), (0, 2), (1, 3), (2, 3), (3, 4), (2, 5), (3, 5)])
    }

    fn scalar(g: &CsrGraph) -> ScalarBackend<'_> {
        ScalarBackend::with_core(g, sc_cpu::Core::new(sc_cpu::CoreConfig::tiny()))
    }

    fn stream(g: &CsrGraph, nested: bool) -> StreamBackend<'_> {
        StreamBackend::with_engine(g, Engine::new(SparseCoreConfig::paper()), nested)
    }

    #[test]
    fn triangle_counts_agree_across_backends() {
        let g = small_graph();
        let expected = g.count_triangles_reference();
        let plan = Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex);
        assert_eq!(count(&g, &plan, &mut scalar(&g)), expected);
        assert_eq!(count(&g, &plan, &mut stream(&g, false)), expected);
        assert_eq!(count(&g, &plan, &mut stream(&g, true)), expected);
    }

    #[test]
    fn clique4_counts_agree() {
        // K5 has C(5,4)=5 4-cliques.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        let g = CsrGraph::from_edges(5, &edges);
        let plan = Plan::compile_default(&Pattern::clique(4), Induced::Edge);
        assert_eq!(count(&g, &plan, &mut scalar(&g)), 5);
        assert_eq!(count(&g, &plan, &mut stream(&g, true)), 5);
        assert_eq!(count(&g, &plan, &mut stream(&g, false)), 5);
    }

    #[test]
    fn single_level_plan_charges_the_walk() {
        // Regression: the old `n == 1` early return counted vertices
        // without touching the backend, so 1-level plans reported 0
        // per-core cycles and a degenerate imbalance().
        let g = small_graph();
        let plan = Plan::compile(&Pattern::clique(1), &[0], Induced::Vertex);
        let mut b = scalar(&g);
        assert_eq!(count(&g, &plan, &mut b), 6);
        assert!(b.finish() > 0, "1-level walk must charge cycles");
        let mut parts = 0;
        for c in 0..3 {
            let mut b = scalar(&g);
            parts += count_vertices(&plan, &mut b, (c..6).step_by(3));
            assert!(b.finish() > 0, "core {c} must report nonzero cycles");
        }
        assert_eq!(parts, 6);
        let mut sb = stream(&g, false);
        assert_eq!(count(&g, &plan, &mut sb), 6);
        assert!(sb.finish() > 0, "stream backend charges the walk too");
        // Sampling now reports the sampled portion, scaled.
        let mut b = scalar(&g);
        assert_eq!(count_sampled(&g, &plan, &mut b, 2), (6, 3));
    }

    #[test]
    fn range_counts_compose_to_the_full_count() {
        let g = small_graph();
        let plan = Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex);
        let full = count(&g, &plan, &mut scalar(&g));
        let split: u64 = [(0, 2), (2, 5), (5, 6), (6, 6)]
            .iter()
            .map(|&(lo, hi)| count_vertices(&plan, &mut scalar(&g), lo..hi))
            .sum();
        assert_eq!(split, full);
    }

    #[test]
    fn stream_backend_frees_all_registers() {
        let g = small_graph();
        let plan = Plan::compile(&Pattern::tailed_triangle(), &[0, 1, 2, 3], Induced::Vertex);
        let mut b = stream(&g, false);
        count(&g, &plan, &mut b);
        assert_eq!(b.free_ids.len(), 16, "all stream registers returned");
    }

    #[test]
    fn stream_faster_than_scalar_on_dense_graph() {
        // A denser random-ish graph where intersections dominate.
        let mut edges = Vec::new();
        for u in 0..60u32 {
            for v in (u + 1)..60 {
                if (u * 13 + v * 7) % 4 == 0 {
                    edges.push((u, v));
                }
            }
        }
        let g = CsrGraph::from_edges(60, &edges);
        let plan = Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex);
        let mut sb = ScalarBackend::new(&g);
        let c1 = count(&g, &plan, &mut sb);
        let scalar_cycles = sb.finish();
        let mut stb = stream(&g, true);
        let c2 = count(&g, &plan, &mut stb);
        let stream_cycles = stb.finish();
        assert_eq!(c1, c2);
        assert!(
            stream_cycles < scalar_cycles,
            "stream {stream_cycles} should beat scalar {scalar_cycles}"
        );
    }

    #[test]
    fn nested_faster_than_explicit_on_dense_graph() {
        // On a toy graph, nested's fixed costs are within noise of the
        // explicit loop; on a denser graph the eliminated scalar loop
        // machinery shows (the paper reports an average 1.65x).
        let mut edges = Vec::new();
        for u in 0..80u32 {
            for v in (u + 1)..80 {
                if (u * 13 + v * 7) % 4 == 0 {
                    edges.push((u, v));
                }
            }
        }
        let g = CsrGraph::from_edges(80, &edges);
        let plan = Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex);
        let mut with = stream(&g, true);
        let c1 = count(&g, &plan, &mut with);
        let t_with = with.finish();
        let mut without = stream(&g, false);
        let c2 = count(&g, &plan, &mut without);
        let t_without = without.finish();
        assert_eq!(c1, c2);
        assert!(t_with < t_without, "nested {t_with} vs explicit {t_without}");
    }
}

#[cfg(test)]
mod ablation_tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::plan::Induced;
    use sc_graph::generators::uniform_graph;

    #[test]
    fn unbounded_plan_counts_agree_with_bounded() {
        let g = uniform_graph(60, 500, 21);
        for (pattern, order, induced) in [
            (Pattern::triangle(), vec![0usize, 1, 2], Induced::Vertex),
            (Pattern::tailed_triangle(), vec![0, 1, 2, 3], Induced::Vertex),
            (Pattern::clique(4), vec![0, 1, 2, 3], Induced::Edge),
        ] {
            let bounded = Plan::compile(&pattern, &order, induced);
            let unbounded = Plan::compile_unbounded(&pattern, &order, induced);
            let mut b1 = ScalarBackend::new(&g);
            let mut b2 = ScalarBackend::new(&g);
            assert_eq!(count(&g, &bounded, &mut b1), count(&g, &unbounded, &mut b2), "{pattern}");
        }
    }

    #[test]
    fn bounded_intersection_is_faster() {
        // The Figure 2(b) claim: early termination reduces computation and
        // eliminates next-level branches.
        let g = uniform_graph(100, 1200, 22);
        let order = [0usize, 1, 2, 3];
        let pat = Pattern::tailed_triangle();
        let bounded = Plan::compile(&pat, &order, Induced::Vertex);
        let unbounded = Plan::compile_unbounded(&pat, &order, Induced::Vertex);

        let run = |plan: &Plan| {
            let mut b =
                StreamBackend::with_engine(&g, Engine::new(SparseCoreConfig::paper()), false);
            let n = count(&g, plan, &mut b);
            (n, b.finish())
        };
        let (n1, t_bounded) = run(&bounded);
        let (n2, t_unbounded) = run(&unbounded);
        assert_eq!(n1, n2);
        assert!(t_bounded < t_unbounded, "bounded {t_bounded} should beat unbounded {t_unbounded}");
    }
}
