//! Layer microbenchmarks: ns per call of the simulator's innermost
//! operations, on inputs taken from the workload's own datasets at the
//! run's seed — the CSR key-array address stream, the (N(u), N(v))
//! operand pairs of each edge (for matrices: row i with row k for each
//! nonzero (i, k)), and the merge-loop compare outcomes of those pairs.
//!
//! Each benchmark runs at least [`BATCHES`] batches of at least
//! [`BATCH`] each and reports the median batch's ns/op.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use sc_cpu::{Core, CoreConfig, Gshare};
use sc_graph::CsrGraph;
use sc_isa::{Bound, Key};
use sc_mem::cache::{Cache, CacheConfig};
use sc_mem::hierarchy::{HierarchyConfig, MemoryHierarchy};
use sc_mem::scache::{StreamCacheConfig, StreamCacheStorage};
use sc_probe::{Probe, ProbeLevel};
use sc_tensor::CsrMatrix;
use sparsecore::su::SuOp;
use sparsecore::SparseCoreConfig;

use crate::report::median;

/// Batches per microbenchmark.
pub const BATCHES: usize = 5;
/// Minimum wall time of one batch.
pub const BATCH: Duration = Duration::from_millis(10);
/// Input caps, so memory stays small on any dataset.
const MAX_PAIRS: usize = 1 << 16;
const MAX_ADDRS: usize = 1 << 18;
const MAX_OUTCOMES: usize = 1 << 20;
/// The scalar baseline's merge-compare branch site.
const MERGE_PC: u64 = 0x108;

/// The inputs every microbenchmark draws from.
#[derive(Debug, Default)]
pub struct MicroInputs {
    /// Sorted key lists with the simulated address of their first key.
    lists: Vec<(u64, Vec<Key>)>,
    /// Operand pairs, as indices into `lists`.
    pairs: Vec<(usize, usize)>,
    /// Key-array addresses, list by list.
    addrs: Vec<u64>,
    /// Merge-loop compare outcomes (`x < y`) of the pairs.
    outcomes: Vec<bool>,
}

impl MicroInputs {
    /// Inputs from graphs: neighbor lists, one pair per edge.
    pub fn from_graphs<'a>(graphs: impl IntoIterator<Item = &'a CsrGraph>) -> Self {
        let mut m = MicroInputs::default();
        for g in graphs {
            let first = m.lists.len();
            for v in g.vertices() {
                m.lists.push((g.edge_list_addr(v), g.neighbors(v).to_vec()));
            }
            for u in g.vertices() {
                for &v in g.neighbors(u).iter().filter(|&&v| v > u) {
                    m.pairs.push((first + u as usize, first + v as usize));
                }
            }
        }
        m.finish()
    }

    /// Inputs from square matrices: rows as lists, one (row i, row k)
    /// pair per nonzero (i, k).
    pub fn from_matrices<'a>(matrices: impl IntoIterator<Item = &'a CsrMatrix>) -> Self {
        let mut m = MicroInputs::default();
        for a in matrices {
            let first = m.lists.len();
            for r in 0..a.rows() {
                m.lists.push((a.row_index_addr(r), a.row_indices(r).to_vec()));
            }
            for r in 0..a.rows() {
                for &k in a.row_indices(r).iter().filter(|&&k| (k as usize) < a.rows()) {
                    m.pairs.push((first + r, first + k as usize));
                }
            }
        }
        m.finish()
    }

    fn finish(mut self) -> Self {
        if self.pairs.len() > MAX_PAIRS {
            let step = self.pairs.len().div_ceil(MAX_PAIRS);
            self.pairs = self.pairs.iter().step_by(step).copied().collect();
        }
        self.addrs = self
            .lists
            .iter()
            .flat_map(|(base, keys)| (0..keys.len() as u64).map(move |i| base + 4 * i))
            .take(MAX_ADDRS)
            .collect();
        'pairs: for &(p, q) in &self.pairs {
            let (a, b) = (&self.lists[p].1, &self.lists[q].1);
            let (mut i, mut j) = (0, 0);
            while i < a.len() && j < b.len() {
                if self.outcomes.len() == MAX_OUTCOMES {
                    break 'pairs;
                }
                self.outcomes.push(a[i] < b[j]);
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        self
    }

    fn pair(&self, p: (usize, usize)) -> (&[Key], &[Key]) {
        (&self.lists[p.0].1, &self.lists[p.1].1)
    }
}

/// Microbenchmark results: per-batch ns/op samples by metric name.
#[derive(Debug, Clone, Default)]
pub struct Micro {
    /// Samples (one per batch), by metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Micro {
    /// Median ns/op of `name` (0 when it was not measured).
    pub fn get(&self, name: &str) -> f64 {
        self.samples.get(name).map_or(0.0, |s| median(s))
    }
}

/// Time `sweep` (which returns the operations it performed) in batches.
fn batches(mut sweep: impl FnMut() -> u64) -> Vec<f64> {
    sweep(); // warm-up: fills caches and tables the batches then reuse
    (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            let mut ops = 0;
            while t0.elapsed() < BATCH {
                ops += sweep();
            }
            t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect()
}

/// Run every microbenchmark on `inp`.
pub fn run(inp: &MicroInputs) -> Micro {
    let mut s = BTreeMap::new();
    let addrs = &inp.addrs;

    let mut cache = Cache::new(CacheConfig::l1d());
    s.insert(
        "mem.cache_access_ns",
        batches(|| {
            for &a in addrs {
                black_box(cache.access(black_box(a)));
            }
            addrs.len() as u64
        }),
    );

    let mut mem = MemoryHierarchy::new(HierarchyConfig::paper());
    s.insert(
        "mem.hier_load_ns",
        batches(|| {
            for &a in addrs {
                black_box(mem.load(black_box(a)));
            }
            addrs.len() as u64
        }),
    );

    let scfg = StreamCacheConfig::paper();
    let mut sc = StreamCacheStorage::new(scfg);
    let half = scfg.subslot_keys();
    s.insert(
        "mem.scache_refill_ns",
        batches(|| {
            let mut calls = 0;
            for (i, (base, keys)) in inp.lists.iter().enumerate() {
                let slot = i % scfg.slots;
                sc.bind(slot, *base, keys.len());
                for k in (0..keys.len()).step_by(half) {
                    black_box(sc.refill_window(slot, black_box(k)));
                    calls += 1;
                }
                sc.release(slot);
            }
            calls
        }),
    );

    let mut gshare = Gshare::default_size();
    s.insert(
        "cpu.gshare_ns",
        batches(|| {
            for &t in &inp.outcomes {
                black_box(gshare.predict_and_update(MERGE_PC, black_box(t)));
            }
            inp.outcomes.len() as u64
        }),
    );

    let mut core = Core::new(CoreConfig::paper());
    s.insert(
        "cpu.core_ops_ns",
        batches(|| {
            for _ in 0..addrs.len() {
                core.ops(black_box(1));
            }
            addrs.len() as u64
        }),
    );
    s.insert(
        "cpu.core_load_ns",
        batches(|| {
            for &a in addrs {
                core.load(black_box(a));
            }
            addrs.len() as u64
        }),
    );

    let width = SparseCoreConfig::paper().su_buffer;
    let elems: u64 =
        inp.pairs.iter().map(|&p| (inp.pair(p).0.len() + inp.pair(p).1.len()) as u64).sum();
    s.insert(
        "su.simulate_ns_per_elem",
        batches(|| {
            for &p in &inp.pairs {
                let (a, b) = inp.pair(p);
                black_box(sparsecore::su::simulate(
                    SuOp::Intersect,
                    black_box(a),
                    b,
                    Bound::none(),
                    width,
                ));
            }
            elems
        }),
    );
    s.insert(
        "setops.intersect_ns_per_elem",
        batches(|| {
            for &p in &inp.pairs {
                let (a, b) = inp.pair(p);
                black_box(sparsecore::setops::intersect(black_box(a), b, Bound::none()));
            }
            elems
        }),
    );

    for (name, probe) in [
        ("probe.count_off_ns", Probe::off()),
        ("probe.count_on_ns", Probe::new(ProbeLevel::Metrics)),
    ] {
        let n = addrs.len() as u64;
        s.insert(
            name,
            batches(|| {
                for _ in 0..n {
                    black_box(&probe).count("engine.set_ops", black_box(1));
                }
                n
            }),
        );
    }
    Micro { samples: s }
}
