//! Pin the GPM plan executor and FSM, on both GPM backends, against
//! values captured from an earlier build.
//!
//! Each `gpm` line of `tests/data/gpm_pin.txt` holds one run: the graph,
//! the app or plan, the backend, the stride, then the count, the cycles,
//! the number of `SetBackend` calls and a 64-bit FNV-1a digest of every
//! call with its arguments and results, in order. A rewrite of the
//! executor or of a backend must reproduce every line: the same calls in
//! the same order give the same simulation.
//!
//! The runs cover every `App::FIG8` app and the two `compile_unbounded`
//! plans (tailed triangle and three-chain, the Figure 2(a) ablation), on
//! Citeseer and on a small uniform graph, on the scalar backend and on
//! the stream backend with `S_NESTINTER` on and off, at strides 1 and 3.
//! `multicore` lines pin `count_multicore`'s count and per-core cycles,
//! and `fsm` lines pin FSM's frequent patterns, cycles and calls on the
//! uniform graph.

use sc_gpm::fsm::{assign_labels, run_fsm};
use sc_gpm::pattern::Pattern;
use sc_gpm::plan::{Induced, Plan};
use sc_gpm::{count_multicore, exec, App, ScalarBackend, SetBackend, StreamBackend};
use sc_graph::generators::uniform_graph;
use sc_graph::{CsrGraph, Dataset};
use sc_isa::Key;
use sc_probe::Probe;
use sparsecore::{Engine, SchedMode, SparseCoreConfig};
use std::cell::Cell;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a, 64 bit, of `words` (little-endian) folded into `h`.
fn fnv(h: u64, words: &[u64]) -> u64 {
    let mut h = h;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

fn bound(b: Option<Key>) -> u64 {
    b.map_or(u64::MAX, u64::from)
}

/// A set handle tagged with the order in which the backend made it.
struct Tagged<S>(u64, S);

/// A backend that forwards every call and folds the call, its arguments
/// and its results into a digest. Set handles enter the digest as their
/// creation index and their length.
struct Logged<B> {
    inner: B,
    digest: Cell<u64>,
    calls: Cell<u64>,
    next_id: u64,
}

impl<B: SetBackend> Logged<B> {
    fn new(inner: B) -> Self {
        Logged { inner, digest: Cell::new(FNV_OFFSET), calls: Cell::new(0), next_id: 0 }
    }

    fn log(&self, words: &[u64]) {
        self.digest.set(fnv(self.digest.get(), words));
        self.calls.set(self.calls.get() + 1);
    }

    /// Log a call that made the set `s`, and tag it.
    fn made(&mut self, op: u64, args: &[u64], s: B::Set) -> Tagged<B::Set> {
        let id = self.next_id;
        self.next_id += 1;
        self.log(&[&[op], args, &[id, self.inner.len(&s)]].concat());
        Tagged(id, s)
    }
}

impl<B: SetBackend> SetBackend for Logged<B> {
    type Set = Tagged<B::Set>;

    fn edge_list(&mut self, v: Key) -> Self::Set {
        let s = self.inner.edge_list(v);
        self.made(1, &[u64::from(v)], s)
    }
    fn edge_list_bounded(&mut self, v: Key, b: Option<Key>) -> Self::Set {
        let s = self.inner.edge_list_bounded(v, b);
        self.made(2, &[u64::from(v), bound(b)], s)
    }
    fn intersect(&mut self, a: &Self::Set, s: &Self::Set, b: Option<Key>) -> Self::Set {
        let r = self.inner.intersect(&a.1, &s.1, b);
        self.made(3, &[a.0, s.0, bound(b)], r)
    }
    fn intersect_count(&mut self, a: &Self::Set, s: &Self::Set, b: Option<Key>) -> u64 {
        let n = self.inner.intersect_count(&a.1, &s.1, b);
        self.log(&[4, a.0, s.0, bound(b), n]);
        n
    }
    fn subtract(&mut self, a: &Self::Set, s: &Self::Set, b: Option<Key>) -> Self::Set {
        let r = self.inner.subtract(&a.1, &s.1, b);
        self.made(5, &[a.0, s.0, bound(b)], r)
    }
    fn subtract_count(&mut self, a: &Self::Set, s: &Self::Set, b: Option<Key>) -> u64 {
        let n = self.inner.subtract_count(&a.1, &s.1, b);
        self.log(&[6, a.0, s.0, bound(b), n]);
        n
    }
    fn len(&self, s: &Self::Set) -> u64 {
        let n = self.inner.len(&s.1);
        self.log(&[7, s.0, n]);
        n
    }
    fn bounded_len(&mut self, s: &Self::Set, b: Option<Key>) -> u64 {
        let n = self.inner.bounded_len(&s.1, b);
        self.log(&[8, s.0, bound(b), n]);
        n
    }
    fn fetch(&mut self, s: &Self::Set, idx: u32) -> Key {
        let k = self.inner.fetch(&s.1, idx);
        self.log(&[9, s.0, u64::from(idx), u64::from(k)]);
        k
    }
    fn list_contains(&mut self, v: Key, k: Key) -> bool {
        let hit = self.inner.list_contains(v, k);
        self.log(&[10, u64::from(v), u64::from(k), u64::from(hit)]);
        hit
    }
    fn nested_count(&mut self, s: &Self::Set) -> Option<u64> {
        let n = self.inner.nested_count(&s.1);
        self.log(&[11, s.0, n.map_or(u64::MAX, |n| n)]);
        n
    }
    fn supports_nested(&self) -> bool {
        let yes = self.inner.supports_nested();
        self.log(&[12, u64::from(yes)]);
        yes
    }
    fn release(&mut self, s: Self::Set) {
        self.log(&[13, s.0]);
        self.inner.release(s.1);
    }
    fn loop_branch(&mut self, pc: u64, taken: bool) {
        self.log(&[14, pc, u64::from(taken)]);
        self.inner.loop_branch(pc, taken);
    }
    fn ops(&mut self, n: u64) {
        self.log(&[15, n]);
        self.inner.ops(n);
    }
    fn finish(&mut self) -> u64 {
        let cycles = self.inner.finish();
        self.log(&[16, cycles]);
        cycles
    }
}

fn line<B: SetBackend>(label: &str, inner: B, count: impl FnOnce(&mut Logged<B>) -> u64) -> String {
    let mut b = Logged::new(inner);
    let n = count(&mut b);
    let cycles = b.finish();
    format!("{label} count={n} cycles={cycles} calls={} {:016x}\n", b.calls.get(), b.digest.get())
}

/// The two plans of the unbounded (Figure 2(a)) ablation.
fn unbounded_plans() -> [(&'static str, Plan); 2] {
    let tt = Plan::compile_unbounded(&Pattern::tailed_triangle(), &[0, 1, 2, 3], Induced::Vertex);
    let tc = Plan::compile_unbounded(&Pattern::three_chain(), &[0, 1, 2], Induced::Vertex);
    [("TT-unbounded", tt), ("TC-unbounded", tc)]
}

/// Every FIG8 app and unbounded plan on `g` at strides 1 and 3, each on
/// a fresh backend from `new`.
fn gpm_runs<B: SetBackend>(fx: &str, g: &CsrGraph, name: &str, new: impl Fn() -> B) -> String {
    let mut out = String::new();
    for stride in [1, 3] {
        for app in App::FIG8 {
            let label = format!("gpm {fx} {app} {name} stride={stride}");
            out += &line(&label, new(), |b| app.count(g, b, stride));
        }
        for (tag, plan) in unbounded_plans() {
            let label = format!("gpm {fx} {tag} {name} stride={stride}");
            out += &line(&label, new(), |b| exec::count_sampled(g, &plan, b, stride).0);
        }
    }
    out
}

fn stream(g: &CsrGraph, nested: bool) -> StreamBackend<'_> {
    StreamBackend::with_engine(g, Engine::new(SparseCoreConfig::paper()), nested)
}

/// `gpm_runs` on the scalar backend and on the stream backend with
/// `S_NESTINTER` on and off.
fn all_backends(fx: &str, g: &CsrGraph) -> String {
    gpm_runs(fx, g, "cpu", || ScalarBackend::new(g))
        + &gpm_runs(fx, g, "sc-nested", || stream(g, true))
        + &gpm_runs(fx, g, "sc-explicit", || stream(g, false))
}

fn uniform() -> CsrGraph {
    uniform_graph(60, 500, 7)
}

fn multicore_runs() -> String {
    let g = uniform();
    let plan = Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex);
    let mut out = String::new();
    for mode in [SchedMode::Static, SchedMode::Dynamic] {
        for nested in [true, false] {
            let partition = mode.partition(g.num_vertices(), 8);
            let cfg = SparseCoreConfig::paper();
            let (run, report) =
                count_multicore(&g, &plan, cfg, nested, 3, &partition, Probe::off());
            assert!(report.is_empty(), "{report}");
            out += &format!(
                "multicore U T {mode} nested={nested} cores=3 count={} per_core={:?}\n",
                run.count, run.per_core
            );
        }
    }
    out
}

fn fsm_line<B: SetBackend>(name: &str, g: &CsrGraph, inner: B) -> String {
    let labels = assign_labels(g, 3, 1);
    let mut b = Logged::new(inner);
    let r = run_fsm(g, &labels, 4, &mut b);
    let mut h = FNV_OFFSET;
    for (p, support) in &r.frequent {
        h = fnv(h, &[*support]);
        h = fnv(h, &format!("{p:?}").bytes().map(u64::from).collect::<Vec<_>>());
    }
    format!(
        "fsm U {name} frequent={} {h:016x} cycles={} calls={} {:016x}\n",
        r.frequent.len(),
        r.cycles,
        b.calls.get(),
        b.digest.get()
    )
}

/// The pinned lines whose first two words are `family` and `fx`, in file
/// order.
fn pinned(family: &str, fx: &str) -> String {
    include_str!("data/gpm_pin.txt")
        .lines()
        .filter(|l| l.split(' ').take(2).eq([family, fx]))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn assert_pinned(family: &str, fx: &str, got: &str) {
    let want = pinned(family, fx);
    assert!(!want.is_empty(), "no pinned lines for {family} {fx}");
    if got == want {
        return;
    }
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let at = g.iter().zip(&w).position(|(a, b)| a != b).unwrap_or(g.len().min(w.len()));
    panic!(
        "{family} {fx}: run differs from the pin at line {}:\n  got:  {}\n  want: {}",
        at + 1,
        g.get(at).unwrap_or(&"<end>"),
        w.get(at).unwrap_or(&"<end>"),
    );
}

#[test]
fn gpm_on_citeseer_matches_pin() {
    assert_pinned("gpm", "C", &all_backends("C", &Dataset::Citeseer.build()));
}

#[test]
fn gpm_on_uniform_graph_matches_pin() {
    assert_pinned("gpm", "U", &all_backends("U", &uniform()));
}

#[test]
fn multicore_count_matches_pin() {
    assert_pinned("multicore", "U", &multicore_runs());
}

#[test]
fn fsm_matches_pin() {
    let g = uniform();
    let got = fsm_line("cpu", &g, ScalarBackend::new(&g))
        + &fsm_line("sc-nested", &g, stream(&g, true))
        + &fsm_line("sc-explicit", &g, stream(&g, false));
    assert_pinned("fsm", "U", &got);
}
