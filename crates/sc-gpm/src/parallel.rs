//! Multi-core pattern mining (the paper's Table 2 lists six cores).
//!
//! GPM parallelizes over start vertices: core `c` of `n` takes the
//! interleaved residue class `{c, c+n, c+2n, ...}` (interleaving balances
//! the hub-heavy work of power-law graphs far better than contiguous
//! blocks). Each core runs a private SparseCore engine — the paper's
//! Section 5.1 notes the graph data is read-only, so the S-Caches need no
//! coherence and cores share nothing hot. The run's completion time is
//! the slowest core's, which is how load imbalance shows up.

use crate::exec::{self, ScalarBackend, StreamBackend};
use crate::plan::Plan;
use sc_graph::CsrGraph;
use sparsecore::{Engine, SparseCoreConfig};

// The result type moved to the shared scheduler module in `sparsecore`
// (the tensor multicore path uses it too); re-exported here so existing
// `sc_gpm::parallel::MultiCoreRun` paths keep working.
pub use sparsecore::MultiCoreRun;

/// Declare the graph's three CSR arrays read-only on `engine` (paper
/// Section 5.1: parallel cores share the graph without coherence, so a
/// simulated write into it would be a cross-core hazard — `SC-S310`).
/// No-op when the engine's sanitizer is off.
pub fn protect_graph(engine: &mut Engine, g: &CsrGraph) {
    let l = g.layout();
    let nv = g.num_vertices() as u64;
    engine.protect_range(l.index_base, l.index_base + nv * 8);
    engine.protect_range(l.edge_base, l.edge_base + g.num_edge_entries() as u64 * 4);
    engine.protect_range(l.offset_base, l.offset_base + (nv + 1) * 4);
}

/// Run `plan` across `num_cores` SparseCore cores.
///
/// # Panics
///
/// Panics if `num_cores` is zero.
pub fn count_stream_parallel(
    g: &CsrGraph,
    plan: &Plan,
    cfg: SparseCoreConfig,
    use_nested: bool,
    num_cores: usize,
) -> MultiCoreRun {
    count_stream_parallel_sanitized(g, plan, cfg, use_nested, num_cores).0
}

/// Like [`count_stream_parallel`], but also collects each core engine's
/// sanitizer findings (with the graph's address ranges protected) into a
/// single merged report. The report is empty when the configuration has
/// `sanitize` off — and on a healthy run.
///
/// # Panics
///
/// Panics if `num_cores` is zero.
pub fn count_stream_parallel_sanitized(
    g: &CsrGraph,
    plan: &Plan,
    cfg: SparseCoreConfig,
    use_nested: bool,
    num_cores: usize,
) -> (MultiCoreRun, sc_lint::Report) {
    count_stream_parallel_probed(g, plan, cfg, use_nested, num_cores, sc_probe::Probe::off())
}

/// Like [`count_stream_parallel_sanitized`], but with an observability
/// probe attached: every core engine shares the one handle, so counters,
/// trace events and attribution from all cores land in a single registry
/// and tracer (the probe is internally synchronized). Each core also
/// contributes a `Track::Gpm` instant carrying its partition's count and
/// cycles, and `gpm.core_cycles` observations feed the load-imbalance
/// histogram.
///
/// # Panics
///
/// Panics if `num_cores` is zero.
pub fn count_stream_parallel_probed(
    g: &CsrGraph,
    plan: &Plan,
    cfg: SparseCoreConfig,
    use_nested: bool,
    num_cores: usize,
    probe: sc_probe::Probe,
) -> (MultiCoreRun, sc_lint::Report) {
    assert!(num_cores > 0, "need at least one core");
    type CoreResult = (u64, u64, Vec<sc_lint::Diagnostic>, Option<sc_probe::SpanSnapshot>);
    let results: Vec<CoreResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..num_cores)
            .map(|c| {
                let probe = probe.clone();
                scope.spawn(move || {
                    let mut engine = Engine::new(cfg);
                    engine.set_probe(probe.clone());
                    protect_graph(&mut engine, g);
                    let mut backend = StreamBackend::with_engine(g, engine, use_nested);
                    let n = exec::count_partition(g, plan, &mut backend, c, num_cores);
                    use crate::exec::SetBackend;
                    let cycles = backend.finish();
                    if probe.enabled() {
                        probe.observe("gpm.core_cycles", cycles);
                        if probe.tracing() {
                            probe.instant_at(
                                sc_probe::Track::Gpm,
                                "core_done",
                                cycles,
                                &[("core", c as u64), ("count", n), ("cycles", cycles)],
                            );
                        }
                    }
                    let spans = backend.engine().span_snapshot();
                    let diags = backend.engine_mut().sanitizer_final_report();
                    (n, cycles, diags.diagnostics().to_vec(), spans)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("core thread")).collect()
    });
    let mut diags = Vec::new();
    let mut counts = Vec::with_capacity(results.len());
    let mut spans = Vec::with_capacity(results.len());
    for (n, t, d, s) in results {
        counts.push((n, t));
        diags.extend(d);
        spans.push(s);
    }
    let run = fold(counts);
    // Submit per-core span logs in core order, padded to the makespan
    // (threads finish in host order, but submission order here is the
    // deterministic core order the dashboard and diff rely on).
    for (c, snap) in spans.into_iter().enumerate() {
        if let Some(mut snap) = snap {
            snap.pad_idle(run.cycles);
            probe.submit_spans(c, snap);
        }
    }
    (run, sc_lint::Report::new(diags))
}

/// Run `plan` across `num_cores` baseline CPU cores.
///
/// # Panics
///
/// Panics if `num_cores` is zero.
pub fn count_scalar_parallel(g: &CsrGraph, plan: &Plan, num_cores: usize) -> MultiCoreRun {
    assert!(num_cores > 0, "need at least one core");
    let results: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..num_cores)
            .map(|c| {
                scope.spawn(move || {
                    let mut backend = ScalarBackend::new(g);
                    let n = exec::count_partition(g, plan, &mut backend, c, num_cores);
                    use crate::exec::SetBackend;
                    (n, backend.finish())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("core thread")).collect()
    });
    fold(results)
}

fn fold(results: Vec<(u64, u64)>) -> MultiCoreRun {
    let count = results.iter().map(|(n, _)| n).sum();
    let per_core: Vec<u64> = results.iter().map(|(_, t)| *t).collect();
    let cycles = per_core.iter().copied().max().unwrap_or(0);
    MultiCoreRun { count, cycles, per_core }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use crate::plan::Induced;
    use crate::App;
    use sc_graph::generators::{powerlaw_graph, uniform_graph, PowerLawConfig};

    fn plan() -> Plan {
        Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex)
    }

    #[test]
    fn partitions_cover_exactly_once() {
        let g = uniform_graph(80, 600, 31);
        let expected = App::Triangle.run_reference(&g);
        for cores in [1, 2, 3, 6] {
            let run = count_stream_parallel(&g, &plan(), SparseCoreConfig::paper(), true, cores);
            assert_eq!(run.count, expected, "{cores} cores");
            assert_eq!(run.per_core.len(), cores);
        }
    }

    #[test]
    fn more_cores_less_time() {
        let g = uniform_graph(150, 2500, 32);
        let one = count_stream_parallel(&g, &plan(), SparseCoreConfig::paper(), true, 1);
        let six = count_stream_parallel(&g, &plan(), SparseCoreConfig::paper(), true, 6);
        assert_eq!(one.count, six.count);
        assert!(
            six.cycles * 2 < one.cycles,
            "6 cores {} should be well under 1 core {}",
            six.cycles,
            one.cycles
        );
    }

    #[test]
    fn scalar_parallel_matches_stream_parallel() {
        let g = uniform_graph(60, 500, 33);
        let a = count_scalar_parallel(&g, &plan(), 4);
        let b = count_stream_parallel(&g, &plan(), SparseCoreConfig::paper(), false, 4);
        assert_eq!(a.count, b.count);
    }

    #[test]
    fn sanitized_parallel_run_is_clean() {
        let g = uniform_graph(80, 600, 31);
        let (run, report) =
            count_stream_parallel_sanitized(&g, &plan(), SparseCoreConfig::paper(), true, 3);
        assert_eq!(run.count, App::Triangle.run_reference(&g));
        assert!(report.is_empty(), "unexpected sanitizer findings:\n{report}");
    }

    #[test]
    fn sanitizer_flags_write_into_protected_graph_range() {
        // A core whose output allocator is redirected into the graph's
        // edge array must trip SC-S310: the graph is shared read-only
        // across cores (Section 5.1).
        let g = uniform_graph(40, 300, 35);
        let config = SparseCoreConfig { sanitize: true, ..SparseCoreConfig::paper() };
        let mut engine = sparsecore::Engine::new(config);
        protect_graph(&mut engine, &g);
        // Simulate the hazard directly: an output stream allocated over
        // the edge array.
        let l = *g.layout();
        use sc_isa::{Bound, Priority, StreamId};
        engine.s_read(0x9000_0000, &[1, 2, 3], StreamId::new(0), Priority(0)).unwrap();
        engine.s_read(0x9100_0000, &[2, 3, 4], StreamId::new(1), Priority(0)).unwrap();
        engine.sabotage_redirect_out_alloc(l.edge_base);
        engine
            .s_inter(StreamId::new(0), StreamId::new(1), StreamId::new(2), Bound::none())
            .unwrap();
        let report = engine.sanitizer_report();
        assert!(
            report.diagnostics().iter().any(|d| d.code == sc_lint::LintCode::SanReadOnlyWrite),
            "expected SC-S310, got:\n{report}"
        );
    }

    #[test]
    fn interleaving_bounds_imbalance_on_skewed_graphs() {
        let g = powerlaw_graph(PowerLawConfig {
            num_vertices: 2000,
            num_edges: 10_000,
            max_degree: 400,
            seed: 34,
        });
        let run = count_stream_parallel(&g, &plan(), SparseCoreConfig::paper(), true, 6);
        // Interleaved partitioning keeps the slowest core within a modest
        // factor of the mean even with hubs present.
        assert!(run.imbalance() < 3.0, "imbalance {:.2}", run.imbalance());
    }
}
