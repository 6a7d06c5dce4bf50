//! Seeded synthetic graph generators.
//!
//! The paper's graphs (Table 4) come from SNAP / KONECT / the network
//! repository. Those files are not redistributable inside this
//! reproduction, so we generate graphs with *matched statistics*: vertex
//! count, undirected edge count, and maximum degree. The SparseCore
//! speedup trends the paper reports (Sections 6.3.2 and 6.6) are driven by
//! average degree and degree skew, both of which the power-law generator
//! controls directly.

use crate::csr::{CsrGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};

/// An exact set of undirected edges, each packed as `u << 32 | v` with
/// `u < v`.
type EdgeSet = HashSet<u64, BuildHasherDefault<FoldHasher>>;

/// One folded multiply per key: the set holds generator draws, so it
/// needs spread, not flood resistance, and the generators never read its
/// iteration order.
#[derive(Debug, Clone, Copy, Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let m = u128::from(self.0 ^ n) * 0x9e37_79b9_7f4a_7c15;
        self.0 = (m as u64) ^ (m >> 64) as u64;
    }
}

/// Record the undirected edge {u, v} (u != v) unless it was seen before.
fn insert_edge(
    seen: &mut EdgeSet,
    edges: &mut Vec<(VertexId, VertexId)>,
    u: VertexId,
    v: VertexId,
) {
    let (a, b) = if u < v { (u, v) } else { (v, u) };
    if seen.insert(u64::from(a) << 32 | u64::from(b)) {
        edges.push((a, b));
    }
}

/// Parameters for the power-law (Chung–Lu style) generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLawConfig {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Target number of undirected edges.
    pub num_edges: usize,
    /// Target maximum degree.
    pub max_degree: usize,
    /// RNG seed (generation is fully deterministic given the config).
    pub seed: u64,
}

/// Generate a uniform random graph: `num_edges` distinct undirected edges
/// chosen uniformly (Erdős–Rényi G(n, m) style).
///
/// # Panics
///
/// Panics if more edges are requested than distinct pairs exist.
pub fn uniform_graph(num_vertices: usize, num_edges: usize, seed: u64) -> CsrGraph {
    let n = num_vertices as u64;
    let max_pairs = n * (n - 1) / 2;
    assert!(
        (num_edges as u64) <= max_pairs,
        "cannot place {num_edges} edges among {num_vertices} vertices"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = EdgeSet::with_capacity_and_hasher(num_edges, Default::default());
    let mut edges = Vec::with_capacity(num_edges);
    while edges.len() < num_edges {
        let u = rng.gen_range(0..num_vertices) as VertexId;
        let v = rng.gen_range(0..num_vertices) as VertexId;
        if u != v {
            insert_edge(&mut seen, &mut edges, u, v);
        }
    }
    CsrGraph::from_edges(num_vertices, &edges)
}

/// Generate a power-law graph matching a target edge count and maximum
/// degree (Chung–Lu: endpoints sampled proportional to per-vertex target
/// degrees).
///
/// The target degree sequence is `d_i = clamp(c * (i+1)^(-alpha), 1,
/// max_degree)` with `alpha` solved so `d_0 = max_degree` and `c` solved so
/// the sequence sums to `2 * num_edges`. Duplicate and self edges are
/// rejected, so realized counts land close to (not exactly on) the target;
/// dataset tests assert the tolerance.
pub fn powerlaw_graph(config: PowerLawConfig) -> CsrGraph {
    let PowerLawConfig { num_vertices: n, num_edges: m, max_degree, seed } = config;
    assert!(n >= 2, "need at least two vertices");
    let target_sum = (2 * m) as f64;
    let dmax = (max_degree as f64).min(n as f64 - 1.0);

    let alpha = solve_alpha(n, target_sum, dmax);
    // `head_degree(alpha)` and the weights share one set of powers.
    let powers = powers(n, alpha);
    let c = target_sum / powers.iter().sum::<f64>();

    // Cumulative weights for endpoint sampling.
    let mut cum = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &p in &powers {
        acc += (c * p).clamp(1.0, dmax);
        cum.push(acc);
    }
    let cum = Cumulative::new(cum);

    let mut rng = StdRng::seed_from_u64(seed);
    let sample = |rng: &mut StdRng| -> VertexId {
        let x: f64 = rng.gen_range(0.0..cum.total());
        cum.partition_point(x) as VertexId
    };

    let mut seen = EdgeSet::with_capacity_and_hasher(m, Default::default());
    let mut edges = Vec::with_capacity(m);
    let mut attempts = 0u64;
    let max_attempts = (m as u64) * 50 + 10_000;
    while edges.len() < m && attempts < max_attempts {
        attempts += 1;
        let u = sample(&mut rng);
        let v = sample(&mut rng);
        if u != v {
            insert_edge(&mut seen, &mut edges, u, v);
        }
    }
    // Shuffle vertex IDs so degree is not monotone in vertex ID (real
    // datasets are not sorted by degree; symmetry-breaking behaviour
    // depends on the ID ordering).
    let mut perm: Vec<VertexId> = (0..n as VertexId).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let relabeled: Vec<(VertexId, VertexId)> =
        edges.iter().map(|&(u, v)| (perm[u as usize], perm[v as usize])).collect();
    CsrGraph::from_edges(n, &relabeled)
}

/// `(i + 1)^(-alpha)` for `i` in `0..n`.
fn powers(n: usize, alpha: f64) -> Vec<f64> {
    (0..n).map(|i| ((i + 1) as f64).powf(-alpha)).collect()
}

/// Solve for the power-law exponent by 60 bisection steps over [0, 3]:
/// with c fixed so that sum(d) = target_sum, the head degree c *
/// 1^(-alpha) should equal dmax. Larger alpha concentrates mass at the
/// head.
///
/// The loop stops early, with the same result, once a midpoint equals an
/// end that a comparison set (the initial bracket was never tested):
/// that step repeats the comparison's outcome and leaves (lo, hi) as they
/// are, and so would every later step.
fn solve_alpha(n: usize, target_sum: f64, dmax: f64) -> f64 {
    let head_degree = |alpha: f64| -> f64 {
        let sum: f64 = (0..n).map(|i| ((i + 1) as f64).powf(-alpha)).sum();
        target_sum / sum
    };
    let (mut lo, mut hi) = (0.0f64, 3.0f64);
    let (mut lo_tested, mut hi_tested) = (false, false);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if (mid == lo && lo_tested) || (mid == hi && hi_tested) {
            break;
        }
        if head_degree(mid) < dmax {
            (lo, lo_tested) = (mid, true);
        } else {
            (hi, hi_tested) = (mid, true);
        }
    }
    0.5 * (lo + hi)
}

/// Nondecreasing cumulative weights with a guide table over [0, total]
/// that narrows each search to a bracket.
///
/// `bucket` is monotone in x. For `bucket(x) == b`, every entry whose
/// bucket is below b is therefore <= x, and every entry whose bucket is
/// above b is > x: the partition point over the whole array lies in
/// `start[b]..=start[b + 1]`, where `start[b]` counts the entries whose
/// bucket is below b, and a search of that subslice finds it.
struct Cumulative {
    cum: Vec<f64>,
    start: Vec<u32>,
    scale: f64,
}

impl Cumulative {
    /// `cum` must be nondecreasing, with a positive, finite last entry.
    fn new(cum: Vec<f64>) -> Self {
        let n = cum.len();
        let mut c = Cumulative { scale: n as f64 / cum[n - 1], cum, start: vec![0; n + 1] };
        for i in 0..n {
            let b = c.bucket(c.cum[i]);
            c.start[b + 1] += 1;
        }
        for b in 0..n {
            c.start[b + 1] += c.start[b];
        }
        c
    }

    fn total(&self) -> f64 {
        self.cum[self.cum.len() - 1]
    }

    fn bucket(&self, x: f64) -> usize {
        ((x * self.scale) as usize).min(self.cum.len() - 1)
    }

    /// The number of entries `<= x`: `cum.partition_point(|&c| c <= x)`.
    fn partition_point(&self, x: f64) -> usize {
        let b = self.bucket(x);
        let (lo, hi) = (self.start[b] as usize, self.start[b + 1] as usize);
        lo + self.cum[lo..hi].partition_point(|&c| c <= x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_hits_exact_edge_count() {
        let g = uniform_graph(100, 300, 42);
        assert_eq!(g.num_vertices(), 100);
        assert_eq!(g.num_edges(), 300);
    }

    #[test]
    fn uniform_is_deterministic() {
        let a = uniform_graph(50, 100, 7);
        let b = uniform_graph(50, 100, 7);
        assert_eq!(a, b);
        let c = uniform_graph(50, 100, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn powerlaw_matches_targets_approximately() {
        let g = powerlaw_graph(PowerLawConfig {
            num_vertices: 2000,
            num_edges: 10_000,
            max_degree: 300,
            seed: 1,
        });
        assert_eq!(g.num_vertices(), 2000);
        let m = g.num_edges() as f64;
        assert!((m - 10_000.0).abs() / 10_000.0 < 0.05, "edges={m}");
        let dmax = g.max_degree() as f64;
        assert!((0.5..=1.6).contains(&(dmax / 300.0)), "max degree {dmax} too far from target 300");
    }

    #[test]
    fn powerlaw_is_deterministic() {
        let cfg = PowerLawConfig { num_vertices: 500, num_edges: 2000, max_degree: 100, seed: 3 };
        assert_eq!(powerlaw_graph(cfg), powerlaw_graph(cfg));
    }

    #[test]
    fn powerlaw_is_skewed() {
        let g = powerlaw_graph(PowerLawConfig {
            num_vertices: 1000,
            num_edges: 5000,
            max_degree: 200,
            seed: 9,
        });
        // Heavy tail: max degree well above the average.
        assert!(g.max_degree() as f64 > 5.0 * g.avg_degree());
    }

    #[test]
    fn powerlaw_ids_not_degree_sorted() {
        let g = powerlaw_graph(PowerLawConfig {
            num_vertices: 1000,
            num_edges: 5000,
            max_degree: 200,
            seed: 11,
        });
        // The highest-degree vertex should not be vertex 0 after the
        // relabeling shuffle (holds for this seed; guards the shuffle).
        let argmax = g.vertices().max_by_key(|&v| g.degree(v)).expect("non-empty");
        assert_ne!(argmax, 0);
    }

    #[test]
    #[should_panic(expected = "cannot place")]
    fn uniform_rejects_impossible() {
        uniform_graph(3, 10, 0);
    }

    /// The bisection as it ran before the early exit: all 60 steps.
    fn sixty_steps(n: usize, target_sum: f64, dmax: f64) -> f64 {
        let head_degree = |alpha: f64| -> f64 {
            let sum: f64 = (0..n).map(|i| ((i + 1) as f64).powf(-alpha)).sum();
            target_sum / sum
        };
        let (mut lo, mut hi) = (0.0f64, 3.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if head_degree(mid) < dmax {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn early_exit_bisection_matches_sixty_steps() {
        let mut cases: Vec<(usize, f64, f64)> = crate::Dataset::SMALL
            .iter()
            .map(|d| {
                let s = d.spec();
                let dmax = (s.max_degree as f64).min(s.num_vertices as f64 - 1.0);
                (s.num_vertices, (2 * s.num_edges) as f64, dmax)
            })
            .collect();
        // Heads out of reach on either side drive alpha to an initial,
        // untested end of the bracket.
        cases.extend([(50, 400.0, 1e9), (50, 400.0, 0.5), (2, 2.0, 1.0), (300, 9000.0, 299.0)]);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..40 {
            let n = rng.gen_range(2usize..400);
            let m = rng.gen_range(1usize..4 * n);
            let dmax = rng.gen_range(1.0..n as f64);
            cases.push((n, (2 * m) as f64, dmax));
        }
        for (n, target_sum, dmax) in cases {
            let (got, want) = (solve_alpha(n, target_sum, dmax), sixty_steps(n, target_sum, dmax));
            assert_eq!(got.to_bits(), want.to_bits(), "n {n} sum {target_sum} dmax {dmax}");
        }
    }

    proptest::proptest! {
        #[test]
        fn guide_table_search_equals_whole_array_search(
            weights in proptest::collection::vec(
                proptest::prop_oneof![1.0f64..2.0, 1.0f64..1e4, 0.001f64..0.01],
                1..300,
            ),
            xs in proptest::collection::vec(0.0f64..1.0, 0..40),
        ) {
            let mut cum = Vec::new();
            let mut acc = 0.0;
            for w in &weights {
                acc += w;
                cum.push(acc);
            }
            let whole = cum.clone();
            let guide = Cumulative::new(cum);
            let total = guide.total();
            // Every entry, its neighbours, the ends and points in between.
            let probes = whole
                .iter()
                .flat_map(|&c| [c.next_down(), c, c.next_up()])
                .chain([0.0, total, total.next_up()])
                .chain(xs.iter().map(|&u| u * total));
            for x in probes {
                let want = whole.partition_point(|&c| c <= x);
                proptest::prop_assert_eq!(guide.partition_point(x), want, "x {}", x);
            }
        }
    }
}
