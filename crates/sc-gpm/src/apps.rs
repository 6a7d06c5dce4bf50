//! The paper's GPM applications (Table 3).
//!
//! Every application is a compiled [`Plan`] (or a combination of plans,
//! for 3-motif) run through the generic executor; `T`/`4C`/`5C` fuse
//! their innermost levels into `S_NESTINTER` on the stream backend, while
//! the `-S` variants (`TS`/`4CS`/`5CS`) disable that fusion — exactly the
//! with/without-nested comparison of paper Figure 8.

use crate::exec::{self, ScalarBackend, SetBackend, StreamBackend};
use crate::pattern::Pattern;
use crate::plan::{Induced, Plan};
use sc_graph::CsrGraph;
use sparsecore::{Engine, SparseCoreConfig};

/// One of the paper's applications (Table 3). The `-S` suffix denotes the
/// implementation without nested intersection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum App {
    /// Triangle counting with `S_NESTINTER` (T).
    Triangle,
    /// Triangle counting without nested intersection (TS).
    TriangleNoNested,
    /// Three-chain counting (TC) — vertex-induced.
    ThreeChain,
    /// Tailed-triangle counting (TT) — vertex-induced.
    TailedTriangle,
    /// 3-motif mining (TM): counts both 3-vertex shapes.
    ThreeMotif,
    /// 4-clique counting with nested intersection (4C).
    Clique4,
    /// 4-clique counting without nested intersection (4CS).
    Clique4NoNested,
    /// 5-clique counting with nested intersection (5C).
    Clique5,
    /// 5-clique counting without nested intersection (5CS).
    Clique5NoNested,
}

/// The result of running an app on one backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppRun {
    /// Total embeddings counted (for TM: the sum over shapes).
    pub count: u64,
    /// Total simulated cycles.
    pub cycles: u64,
}

impl App {
    /// The applications of Figure 8, in its panel order.
    pub const FIG8: [App; 9] = [
        App::ThreeChain,
        App::ThreeMotif,
        App::TriangleNoNested,
        App::Triangle,
        App::TailedTriangle,
        App::Clique4,
        App::Clique5,
        App::Clique4NoNested,
        App::Clique5NoNested,
    ];

    /// The applications of Figure 7 (accelerator comparison).
    pub const FIG7: [App; 6] = [
        App::ThreeChain,
        App::ThreeMotif,
        App::TailedTriangle,
        App::Triangle,
        App::Clique4,
        App::Clique5,
    ];

    /// The paper's abbreviation.
    pub fn tag(self) -> &'static str {
        match self {
            App::Triangle => "T",
            App::TriangleNoNested => "TS",
            App::ThreeChain => "TC",
            App::TailedTriangle => "TT",
            App::ThreeMotif => "TM",
            App::Clique4 => "4C",
            App::Clique4NoNested => "4CS",
            App::Clique5 => "5C",
            App::Clique5NoNested => "5CS",
        }
    }

    /// Does this app's stream implementation use `S_NESTINTER`?
    pub fn uses_nested(self) -> bool {
        matches!(self, App::Triangle | App::Clique4 | App::Clique5)
    }

    /// The plans this application runs (TM runs two).
    pub fn plans(self) -> Vec<Plan> {
        match self {
            App::Triangle | App::TriangleNoNested => {
                vec![Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex)]
            }
            App::ThreeChain => {
                vec![Plan::compile(&Pattern::three_chain(), &[0, 1, 2], Induced::Vertex)]
            }
            App::TailedTriangle => {
                vec![Plan::compile(&Pattern::tailed_triangle(), &[0, 1, 2, 3], Induced::Vertex)]
            }
            App::ThreeMotif => vec![
                Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex),
                Plan::compile(&Pattern::three_chain(), &[0, 1, 2], Induced::Vertex),
            ],
            App::Clique4 | App::Clique4NoNested => {
                vec![Plan::compile(&Pattern::clique(4), &[0, 1, 2, 3], Induced::Edge)]
            }
            App::Clique5 | App::Clique5NoNested => {
                vec![Plan::compile(&Pattern::clique(5), &[0, 1, 2, 3, 4], Induced::Edge)]
            }
        }
    }

    /// Count this app's embeddings on `backend`, simulating every
    /// `stride`-th start vertex of each plan and scaling the count by
    /// `stride` (exact at stride 1). The caller drains the backend and
    /// scales its cycles by the same stride.
    pub fn count<B: SetBackend>(self, g: &CsrGraph, backend: &mut B, stride: usize) -> u64 {
        let mut count = 0;
        for plan in self.plans() {
            count += exec::count_sampled(g, &plan, backend, stride).0;
        }
        count
    }

    /// Run on the scalar CPU baseline (paper: `InHouseAutomine`).
    pub fn run_scalar(self, g: &CsrGraph) -> AppRun {
        let mut backend = ScalarBackend::new(g);
        let count = self.count(g, &mut backend, 1);
        AppRun { count, cycles: backend.finish() }
    }

    /// Run on SparseCore with the given configuration.
    pub fn run_stream(self, g: &CsrGraph, cfg: SparseCoreConfig) -> AppRun {
        let mut backend = StreamBackend::with_engine(g, Engine::new(cfg), self.uses_nested());
        let count = self.count(g, &mut backend, 1);
        AppRun { count, cycles: backend.finish() }
    }

    /// Timing-free brute-force reference count (small graphs only; used
    /// by tests and the benches' self-checks).
    pub fn run_reference(self, g: &CsrGraph) -> u64 {
        self.plans().iter().map(|p| brute_force(p.pattern(), g, p.induced())).sum()
    }
}

impl std::fmt::Display for App {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.tag())
    }
}

/// Brute-force embedding count: enumerate all injective vertex mappings,
/// check edges (and non-edges for vertex-induced), divide by |Aut|.
pub fn brute_force(pattern: &Pattern, g: &CsrGraph, induced: Induced) -> u64 {
    let n = pattern.num_vertices();
    let mut assigned: Vec<u32> = Vec::with_capacity(n);
    let total = brute_rec(pattern, g, induced, &mut assigned);
    total / pattern.automorphisms().len() as u64
}

fn brute_rec(pattern: &Pattern, g: &CsrGraph, induced: Induced, assigned: &mut Vec<u32>) -> u64 {
    let l = assigned.len();
    if l == pattern.num_vertices() {
        return 1;
    }
    let mut total = 0;
    for v in g.vertices() {
        if assigned.contains(&v) {
            continue;
        }
        let ok = (0..l).all(|j| {
            let must = pattern.has_edge(j, l);
            let has = g.has_edge(assigned[j], v);
            match induced {
                Induced::Vertex => must == has,
                Induced::Edge => !must || has,
            }
        });
        if ok {
            assigned.push(v);
            total += brute_rec(pattern, g, induced, assigned);
            assigned.pop();
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_graph::generators::uniform_graph;

    fn test_graph() -> CsrGraph {
        uniform_graph(40, 160, 7)
    }

    #[test]
    fn all_apps_match_brute_force_scalar() {
        let g = test_graph();
        for app in App::FIG8 {
            let expected = app.run_reference(&g);
            let got = app.run_scalar(&g);
            assert_eq!(got.count, expected, "{app} scalar");
            assert!(got.cycles > 0, "{app} cycles");
        }
    }

    #[test]
    fn all_apps_match_brute_force_stream() {
        let g = test_graph();
        for app in App::FIG8 {
            let expected = app.run_reference(&g);
            let got = app.run_stream(&g, SparseCoreConfig::paper());
            assert_eq!(got.count, expected, "{app} stream");
        }
    }

    #[test]
    fn nested_and_non_nested_agree() {
        let g = test_graph();
        for (with, without) in [
            (App::Triangle, App::TriangleNoNested),
            (App::Clique4, App::Clique4NoNested),
            (App::Clique5, App::Clique5NoNested),
        ] {
            let a = with.run_stream(&g, SparseCoreConfig::paper());
            let b = without.run_stream(&g, SparseCoreConfig::paper());
            assert_eq!(a.count, b.count, "{with} vs {without}");
        }
    }

    #[test]
    fn triangle_matches_reference_counter() {
        let g = test_graph();
        assert_eq!(App::Triangle.run_reference(&g), g.count_triangles_reference());
    }

    #[test]
    fn three_motif_is_sum_of_shapes() {
        let g = test_graph();
        let tm = App::ThreeMotif.run_reference(&g);
        let t = App::Triangle.run_reference(&g);
        let tc = App::ThreeChain.run_reference(&g);
        assert_eq!(tm, t + tc);
    }

    #[test]
    fn stream_beats_scalar_on_every_app() {
        let g = uniform_graph(60, 500, 3);
        for app in [App::Triangle, App::Clique4, App::ThreeChain] {
            let s = app.run_scalar(&g);
            let st = app.run_stream(&g, SparseCoreConfig::paper());
            assert!(st.cycles < s.cycles, "{app}: stream {} vs scalar {}", st.cycles, s.cycles);
        }
    }

    #[test]
    fn tags_unique() {
        let tags: Vec<_> = App::FIG8.iter().map(|a| a.tag()).collect();
        let mut sorted = tags.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), tags.len());
    }
}
