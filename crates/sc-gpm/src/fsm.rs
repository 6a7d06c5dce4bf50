//! Frequent subgraph mining (FSM) with MNI support.
//!
//! Table 3's last application: discover all vertex-labeled patterns whose
//! *support* reaches a user threshold. Following the paper (and
//! Peregrine, which it cites), support is the minimum image-based (MNI)
//! metric — the minimum, over pattern vertices, of the number of distinct
//! graph vertices that position maps to across all embeddings — and
//! patterns are limited to at most three edges (edge, wedge, triangle,
//! 3-star and 4-path).
//!
//! The expensive part of FSM is exactly the part SparseCore does *not*
//! accelerate (per-embedding domain bookkeeping), which is why the paper
//! reports smaller FSM speedups (Section 6.3.2); the implementation
//! mirrors that: set operations run on the backend, domain insertion is
//! charged as scalar work.

use crate::exec::SetBackend;
use sc_graph::{CsrGraph, VertexId};
use std::collections::{HashMap, HashSet};

/// A deterministic vertex labeling for FSM on unlabeled datasets (the
/// paper's graphs carry labels only for mico-style datasets; we assign
/// `num_labels` pseudo-labels by hashing the vertex ID).
pub fn assign_labels(g: &CsrGraph, num_labels: u32, seed: u64) -> Vec<u32> {
    g.vertices()
        .map(|v| {
            let mut x = u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seed;
            x ^= x >> 33;
            x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
            x ^= x >> 33;
            (x % u64::from(num_labels)) as u32
        })
        .collect()
}

/// A labeled pattern shape with up to three edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LabeledPattern {
    /// A single edge with (smaller, larger) label pair.
    Edge(u32, u32),
    /// A wedge: center label, and the (sorted) leaf label pair.
    Wedge(u32, u32, u32),
    /// A triangle with sorted label triple.
    Triangle(u32, u32, u32),
    /// A 3-star: center label, then the sorted leaf label triple.
    Star3(u32, u32, u32, u32),
    /// A 4-path: the two inner labels (sorted as a canonical pair with
    /// their attached outer labels) and the two outer labels.
    /// Canonicalized so `(inner1, outer1) <= (inner2, outer2)`.
    Path4(u32, u32, u32, u32),
}

impl LabeledPattern {
    /// The number of pattern vertices, one MNI domain each.
    fn num_vertices(self) -> usize {
        match self {
            LabeledPattern::Edge(..) => 2,
            LabeledPattern::Wedge(..) | LabeledPattern::Triangle(..) => 3,
            LabeledPattern::Star3(..) | LabeledPattern::Path4(..) => 4,
        }
    }
}

/// Result of an FSM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FsmResult {
    /// Patterns meeting the support threshold, with their MNI support.
    pub frequent: Vec<(LabeledPattern, u64)>,
    /// Total simulated cycles.
    pub cycles: u64,
}

/// Per-pattern MNI domains: one set of distinct mapped vertices per
/// pattern position.
#[derive(Debug, Default)]
struct Domains {
    sets: Vec<HashSet<VertexId>>,
}

impl Domains {
    fn support(&self) -> u64 {
        self.sets.iter().map(HashSet::len).min().unwrap_or(0) as u64
    }
}

/// `p`'s domains, empty ones on first sight.
fn domains(map: &mut HashMap<LabeledPattern, Domains>, p: LabeledPattern) -> &mut Domains {
    map.entry(p).or_insert_with(|| Domains { sets: vec![HashSet::new(); p.num_vertices()] })
}

/// Run FSM over `g` with the given labels and MNI `threshold`, executing
/// the set operations on `backend`.
///
/// Mines edges, wedges, triangles, 3-stars and 4-paths (every connected
/// labeled shape with at most three edges), keyed in one map.
///
/// # Panics
///
/// Panics if `labels.len() != g.num_vertices()`.
pub fn run_fsm<B: SetBackend>(
    g: &CsrGraph,
    labels: &[u32],
    threshold: u64,
    backend: &mut B,
) -> FsmResult {
    assert_eq!(labels.len(), g.num_vertices(), "one label per vertex");
    let mut map: HashMap<LabeledPattern, Domains> = HashMap::new();

    for v in g.vertices() {
        backend.loop_branch(0x200, true);
        let lv = labels[v as usize];
        let nv = backend.edge_list(v);

        // Edges (count each once: u > v).
        let mut idx = 0u32;
        loop {
            let u = backend.fetch(&nv, idx);
            if u == sc_isa::EOS {
                backend.loop_branch(0x204, false);
                break;
            }
            backend.loop_branch(0x204, true);
            idx += 1;
            if u < v {
                continue;
            }
            let lu = labels[u as usize];
            backend.ops(4); // domain hashing cost
            let dom = domains(&mut map, LabeledPattern::Edge(lv.min(lu), lv.max(lu)));
            if lv <= lu {
                dom.sets[0].insert(v);
                dom.sets[1].insert(u);
            }
            if lu <= lv {
                dom.sets[0].insert(u);
                dom.sets[1].insert(v);
            }

            // Triangles rooted at this edge (w > u > v avoids recounts):
            // candidates = N(v) ∩ N(u).
            let nu = backend.edge_list(u);
            let tri = backend.intersect(&nv, &nu, None);
            let mut t = 0u32;
            loop {
                let w = backend.fetch(&tri, t);
                if w == sc_isa::EOS {
                    backend.loop_branch(0x208, false);
                    break;
                }
                backend.loop_branch(0x208, true);
                t += 1;
                if w < u {
                    continue;
                }
                let lw = labels[w as usize];
                let mut trip = [lv, lu, lw];
                trip.sort_unstable();
                backend.ops(6);
                let dom = domains(&mut map, LabeledPattern::Triangle(trip[0], trip[1], trip[2]));
                // For the sorted-label triple, all three vertices occupy
                // interchangeable positions per label slot; record each
                // vertex under every position its label can take.
                for (pos, &lab) in trip.iter().enumerate() {
                    for (&vtx, &vl) in [(v, lv), (u, lu), (w, lw)].iter().map(|p| (&p.0, &p.1)) {
                        if vl == lab {
                            dom.sets[pos].insert(vtx);
                        }
                    }
                }
            }
            backend.release(tri);
            backend.release(nu);
        }

        // Wedges centered at v: unordered pairs of distinct neighbors.
        let deg = backend.len(&nv);
        for i in 0..deg {
            let a = backend.fetch(&nv, i as u32);
            for j in (i + 1)..deg {
                let b = backend.fetch(&nv, j as u32);
                backend.ops(3);
                let (la, lb) = (labels[a as usize], labels[b as usize]);
                let dom = domains(&mut map, LabeledPattern::Wedge(lv, la.min(lb), la.max(lb)));
                dom.sets[0].insert(v);
                if la <= lb {
                    dom.sets[1].insert(a);
                    dom.sets[2].insert(b);
                }
                if lb <= la {
                    dom.sets[1].insert(b);
                    dom.sets[2].insert(a);
                }

                // 3-stars centered at v: extend the wedge by a third leaf.
                for k in (j + 1)..deg {
                    let c = backend.fetch(&nv, k as u32);
                    backend.ops(4);
                    let lc = labels[c as usize];
                    let mut leaves = [la, lb, lc];
                    leaves.sort_unstable();
                    let star = LabeledPattern::Star3(lv, leaves[0], leaves[1], leaves[2]);
                    let dom = domains(&mut map, star);
                    dom.sets[0].insert(v);
                    for (pos, &lab) in leaves.iter().enumerate() {
                        for &(vtx, vl) in &[(a, la), (b, lb), (c, lc)] {
                            if vl == lab {
                                dom.sets[pos + 1].insert(vtx);
                            }
                        }
                    }
                }
            }
        }

        // 4-paths with v as an inner vertex: leaf - v - u - leaf', where u
        // is a neighbor with u > v (each path discovered once from its
        // smaller inner vertex).
        let mut i = 0u32;
        loop {
            let u = backend.fetch(&nv, i);
            if u == sc_isa::EOS {
                backend.loop_branch(0x20c, false);
                break;
            }
            backend.loop_branch(0x20c, true);
            i += 1;
            if u <= v {
                continue;
            }
            let nu = backend.edge_list(u);
            let deg_u = backend.len(&nu);
            for pi in 0..deg {
                let p_leaf = backend.fetch(&nv, pi as u32);
                if p_leaf == u {
                    continue;
                }
                for qi in 0..deg_u {
                    let q_leaf = backend.fetch(&nu, qi as u32);
                    backend.ops(4);
                    if q_leaf == v || q_leaf == p_leaf {
                        continue;
                    }
                    let (lu, lp, lq) =
                        (labels[u as usize], labels[p_leaf as usize], labels[q_leaf as usize]);
                    // Canonical orientation: smaller (inner, outer) pair first.
                    let ((i1, o1, w1, x1), (i2, o2, w2, x2)) = if (lv, lp) <= (lu, lq) {
                        ((lv, lp, v, p_leaf), (lu, lq, u, q_leaf))
                    } else {
                        ((lu, lq, u, q_leaf), (lv, lp, v, p_leaf))
                    };
                    let dom = domains(&mut map, LabeledPattern::Path4(i1, i2, o1, o2));
                    dom.sets[0].insert(w1);
                    dom.sets[1].insert(w2);
                    dom.sets[2].insert(x1);
                    dom.sets[3].insert(x2);
                    // The mirrored mapping also realizes the pattern when
                    // the labeled halves coincide.
                    if (i1, o1) == (i2, o2) {
                        dom.sets[0].insert(w2);
                        dom.sets[1].insert(w1);
                        dom.sets[2].insert(x2);
                        dom.sets[3].insert(x1);
                    }
                }
            }
            backend.release(nu);
        }
        backend.release(nv);
    }
    backend.loop_branch(0x200, false);

    let mut frequent: Vec<(LabeledPattern, u64)> = map
        .iter()
        .map(|(&p, d)| (p, d.support()))
        .filter(|&(_, support)| support >= threshold)
        .collect();
    frequent.sort_unstable_by_key(|a| a.0);
    FsmResult { frequent, cycles: backend.finish() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ScalarBackend, StreamBackend};
    use sc_graph::generators::uniform_graph;
    use sparsecore::{Engine, SparseCoreConfig};

    #[test]
    fn labels_are_deterministic_and_in_range() {
        let g = uniform_graph(50, 100, 1);
        let a = assign_labels(&g, 4, 9);
        let b = assign_labels(&g, 4, 9);
        assert_eq!(a, b);
        assert!(a.iter().all(|&l| l < 4));
        assert_eq!(a.len(), 50);
    }

    #[test]
    fn single_triangle_domains() {
        // One triangle, all same label: every shape frequent at support 3
        // for vertices... edge domain = {0,1,2} on both ends -> support 3.
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let labels = vec![0, 0, 0];
        let mut b = ScalarBackend::new(&g);
        let r = run_fsm(&g, &labels, 3, &mut b);
        assert!(r.frequent.contains(&(LabeledPattern::Edge(0, 0), 3)));
        assert!(r.frequent.contains(&(LabeledPattern::Triangle(0, 0, 0), 3)));
        assert!(r.frequent.contains(&(LabeledPattern::Wedge(0, 0, 0), 3)));
    }

    #[test]
    fn threshold_filters() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let labels = vec![0, 0, 1];
        let mut b = ScalarBackend::new(&g);
        let r = run_fsm(&g, &labels, 2, &mut b);
        // Edge (0,0) appears once: support 2 (two distinct endpoints).
        assert!(r.frequent.iter().any(|(p, _)| *p == LabeledPattern::Edge(0, 0)));
        // Triangle (0,0,1): positions for label-1 slot can only be vertex
        // 2 -> support 1 < 2: filtered.
        assert!(!r.frequent.iter().any(|(p, _)| matches!(p, LabeledPattern::Triangle(..))));
    }

    #[test]
    fn scalar_and_stream_agree() {
        let g = uniform_graph(30, 90, 5);
        let labels = assign_labels(&g, 3, 1);
        let mut sb = ScalarBackend::new(&g);
        let a = run_fsm(&g, &labels, 5, &mut sb);
        let mut stb = StreamBackend::with_engine(&g, Engine::new(SparseCoreConfig::paper()), true);
        let b = run_fsm(&g, &labels, 5, &mut stb);
        assert_eq!(a.frequent, b.frequent);
        assert!(a.cycles > 0 && b.cycles > 0);
    }

    #[test]
    fn higher_threshold_never_grows_result() {
        let g = uniform_graph(40, 150, 2);
        let labels = assign_labels(&g, 2, 3);
        let mut b1 = ScalarBackend::new(&g);
        let lo = run_fsm(&g, &labels, 2, &mut b1);
        let mut b2 = ScalarBackend::new(&g);
        let hi = run_fsm(&g, &labels, 10, &mut b2);
        assert!(hi.frequent.len() <= lo.frequent.len());
        for (p, s) in &hi.frequent {
            assert!(*s >= 10);
            assert!(lo.frequent.iter().any(|(q, _)| q == p));
        }
    }
}
