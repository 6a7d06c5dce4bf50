//! Multi-core pattern mining (the paper's Table 2 lists six cores).
//!
//! GPM parallelizes over start vertices. Each core runs a private
//! SparseCore engine — the paper's Section 5.1 notes the graph data is
//! read-only, so the S-Caches need no coherence and cores share nothing
//! hot — with the graph's CSR arrays protected read-only (`SC-S310`).
//! [`sparsecore::run_partition`] hands each core its start vertices from
//! one serial host loop, statically interleaved or self-scheduled in
//! chunks, so repeated runs are cycle-exact. The run's completion time is
//! the slowest core's, which is how load imbalance shows up.

use crate::exec::{self, SetBackend, StreamBackend};
use crate::plan::Plan;
use sc_graph::CsrGraph;
use sc_probe::{Probe, Track};
use sparsecore::{collect_cores, run_partition, Engine, MultiCoreRun, Partition, SparseCoreConfig};

/// Default chunk size (start vertices per claim). Chunk claims are
/// modeled as free (a zero-overhead hardware work queue), so the only
/// cost of going fine-grained is the engine drain at each chunk
/// boundary; 8 start vertices per claim keeps the end-of-run
/// quantization small enough that dynamic beats static interleaving on
/// hub-heavy power-law graphs while contiguous ranges preserve the
/// S-Cache locality that static's strided partition gives up.
pub const DEFAULT_CHUNK: usize = 8;

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

/// Count the embeddings of `plan` in `g` on `num_cores` SparseCore cores
/// that share `probe`, the start vertices split by `partition`.
///
/// The partition is verified before any core runs
/// ([`sc_verify::verify_partition`]): a plan that fails runs no work,
/// and the report carries its findings. Otherwise the report merges
/// every core engine's sanitizer findings (empty when `sanitize` is off,
/// and on a healthy run).
///
/// The probe sees every core's engine events, each core's on trace tracks
/// of its own ([`Probe::for_core`]). On top, each core adds a
/// `gpm.core_cycles` observation and a `Track::Gpm` `core_done` instant;
/// each claimed chunk a `gpm.chunks` count, a `gpm.chunk_cycles`
/// observation, and a `chunk` span with a `chunk_done` instant; the run
/// sets the `gpm.sched_imbalance` gauge.
///
/// # Panics
///
/// Panics if `num_cores` is zero.
pub fn count_multicore(
    g: &CsrGraph,
    plan: &Plan,
    cfg: SparseCoreConfig,
    use_nested: bool,
    num_cores: usize,
    partition: &Partition,
    probe: Probe,
) -> (MultiCoreRun, sc_lint::Report) {
    assert!(num_cores > 0, "need at least one core");
    let verdict = sc_verify::verify_partition(partition, num_cores, g.num_vertices());
    if !verdict.verified() {
        return (MultiCoreRun::new(0, vec![0; num_cores]), sc_lint::Report::new(verdict.findings));
    }
    let mut cores: Vec<(StreamBackend<'_>, u64)> = (0..num_cores)
        .map(|c| {
            let mut engine = Engine::new(cfg);
            engine.set_probe(probe.for_core(c));
            protect_graph(&mut engine, g);
            (StreamBackend::with_engine(g, engine, use_nested), 0)
        })
        .collect();
    let drain = |(b, _): &mut (StreamBackend<'_>, u64)| b.finish();
    let sched = run_partition(
        &mut cores,
        g.num_vertices(),
        partition,
        |(b, n), items| *n += exec::count_vertices(plan, b, items),
        drain,
        drain,
    );
    for r in &sched.records {
        let (core, chunk) = (r.core as u64, r.chunk.index as u64);
        probe.count("gpm.chunks", 1);
        probe.observe("gpm.chunk_cycles", r.cycles());
        // The row-block tier of the span hierarchy: one complete span per
        // claimed chunk, stamped with the claiming core's simulated clock.
        let args = [("core", core), ("chunk", chunk), ("cycles", r.cycles())];
        probe.span(Track::Gpm, "chunk", r.claimed_at, r.done_at, &args[..2]);
        probe.instant_at(Track::Gpm, "chunk_done", r.done_at, &args);
    }
    for (c, &(_, n)) in cores.iter().enumerate() {
        let cycles = sched.per_core[c];
        probe.observe("gpm.core_cycles", cycles);
        let args = [("core", c as u64), ("count", n), ("cycles", cycles)];
        probe.instant_at(Track::Gpm, "core_done", cycles, &args);
    }
    let report = collect_cores(cores.iter_mut().map(|(b, _)| b.engine_mut()), &sched);
    let run = MultiCoreRun::new(cores.iter().map(|&(_, n)| n).sum(), sched.per_core);
    probe.gauge("gpm.sched_imbalance", run.imbalance());
    (run, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ScalarBackend;
    use crate::pattern::Pattern;
    use crate::plan::Induced;
    use crate::App;
    use sc_graph::generators::{powerlaw_graph, uniform_graph, PowerLawConfig};
    use sparsecore::{chunks, Chunk, SchedMode};

    fn plan() -> Plan {
        Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex)
    }

    /// `plan()` on `cores` paper-configuration cores, probe off.
    fn mine(
        g: &CsrGraph,
        cores: usize,
        partition: &Partition,
        nested: bool,
    ) -> (MultiCoreRun, sc_lint::Report) {
        let cfg = SparseCoreConfig::paper();
        count_multicore(g, &plan(), cfg, nested, cores, partition, Probe::off())
    }

    fn tc(g: &CsrGraph, cores: usize, partition: &Partition) -> MultiCoreRun {
        mine(g, cores, partition, true).0
    }

    fn dynamic(g: &CsrGraph, chunk: usize) -> Partition {
        SchedMode::Dynamic.partition(g.num_vertices(), chunk)
    }

    /// The baseline CPU's count over the same partition, on a serial loop
    /// of scalar backends.
    fn scalar_count(g: &CsrGraph, cores: usize, partition: &Partition) -> u64 {
        let mut backends: Vec<(ScalarBackend<'_>, u64)> =
            (0..cores).map(|_| (ScalarBackend::new(g), 0)).collect();
        let drain = |(b, _): &mut (ScalarBackend<'_>, u64)| b.finish();
        run_partition(
            &mut backends,
            g.num_vertices(),
            partition,
            |(b, n), items| *n += exec::count_vertices(&plan(), b, items),
            drain,
            drain,
        );
        backends.iter().map(|&(_, n)| n).sum()
    }

    /// Each core's engine events sit on tracks of their own: in a
    /// 2-core trace, core 0's and core 1's DRAM accesses are on two
    /// different, named threads.
    #[test]
    fn multicore_traces_tell_their_cores_apart() {
        let g = uniform_graph(80, 600, 31);
        let probe = Probe::new(sc_probe::ProbeLevel::Trace);
        let cfg = SparseCoreConfig::paper();
        count_multicore(&g, &plan(), cfg, true, 2, &Partition::Static, probe.clone());
        let doc = probe.trace_json(0);
        sc_probe::check::validate_trace(&doc).expect("valid trace");
        let doc = sc_probe::json::parse(&doc).expect("trace parses");
        let events = doc.get("traceEvents").and_then(|e| e.as_arr()).expect("events");
        // (name, tid, thread name) of every event.
        let rows: Vec<(&str, u64, Option<&str>)> = events
            .iter()
            .map(|e| {
                let name = e.get("name").and_then(|v| v.as_str()).unwrap_or("");
                let tid = e.get("tid").and_then(|v| v.as_f64()).unwrap_or(-1.0) as u64;
                let thread = e.get("args").and_then(|a| a.get("name")).and_then(|v| v.as_str());
                (name, tid, thread)
            })
            .collect();
        let mut tids: Vec<u64> =
            rows.iter().filter(|r| r.0 == "dram_access").map(|r| r.1).collect();
        tids.sort_unstable();
        tids.dedup();
        let names: Vec<&str> = tids
            .iter()
            .map(|&t| {
                let meta = rows.iter().find(|r| r.0 == "thread_name" && r.1 == t);
                meta.and_then(|r| r.2).unwrap_or("?")
            })
            .collect();
        assert_eq!(names, ["core0 memory", "core1 memory"], "dram_access tids {tids:?}");
    }

    #[test]
    fn partitions_cover_exactly_once() {
        let g = uniform_graph(80, 600, 31);
        let expected = App::Triangle.run_reference(&g);
        for cores in [1, 2, 3, 6] {
            let run = tc(&g, cores, &Partition::Static);
            assert_eq!(run.count, expected, "{cores} cores");
            assert_eq!(run.per_core.len(), cores);
        }
    }

    #[test]
    fn more_cores_less_time() {
        let g = uniform_graph(150, 2500, 32);
        let one = tc(&g, 1, &Partition::Static);
        let six = tc(&g, 6, &Partition::Static);
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
        let a = scalar_count(&g, 4, &Partition::Static);
        let b = mine(&g, 4, &Partition::Static, false).0;
        assert_eq!(a, b.count);
    }

    #[test]
    fn sanitized_parallel_run_is_clean() {
        let g = uniform_graph(80, 600, 31);
        let (run, report) = mine(&g, 3, &Partition::Static, true);
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
        let run = tc(&g, 6, &Partition::Static);
        // Interleaved partitioning keeps the slowest core within a modest
        // factor of the mean even with hubs present.
        assert!(run.imbalance() < 3.0, "imbalance {:.2}", run.imbalance());
    }

    #[test]
    fn dynamic_partitions_cover_exactly_once() {
        let g = uniform_graph(80, 600, 31);
        let expected = App::Triangle.run_reference(&g);
        for cores in [1, 2, 3, 6] {
            let run = tc(&g, cores, &dynamic(&g, 16));
            assert_eq!(run.count, expected, "{cores} cores");
            assert_eq!(run.per_core.len(), cores);
        }
    }

    #[test]
    fn repeated_runs_are_cycle_exact() {
        let g = uniform_graph(100, 900, 36);
        for cores in [1, 2, 3, 6] {
            let a = tc(&g, cores, &dynamic(&g, 16));
            let b = tc(&g, cores, &dynamic(&g, 16));
            assert_eq!(a, b, "{cores} cores must be deterministic");
        }
    }

    #[test]
    fn scalar_dynamic_matches_stream_dynamic_counts() {
        let g = uniform_graph(60, 500, 33);
        let a = scalar_count(&g, 4, &dynamic(&g, 8));
        let b = mine(&g, 4, &dynamic(&g, 8), false).0;
        assert_eq!(a, b.count);
    }

    #[test]
    fn sanitized_dynamic_run_is_clean() {
        let g = uniform_graph(80, 600, 31);
        let (run, report) = mine(&g, 3, &dynamic(&g, 16), true);
        assert_eq!(run.count, App::Triangle.run_reference(&g));
        assert!(report.is_empty(), "unexpected sanitizer findings:\n{report}");
    }

    #[test]
    fn dynamic_beats_static_interleave_on_a_powerlaw_graph() {
        // The acceptance workload: hubs sit at low vertex ids, so the
        // static residue classes are systematically uneven (core 0 draws
        // the locally-heaviest vertex of every stride group), while
        // self-scheduling steers later chunks away from the loaded cores.
        let g = powerlaw_graph(PowerLawConfig {
            num_vertices: 2000,
            num_edges: 10_000,
            max_degree: 400,
            seed: 34,
        });
        let st = tc(&g, 6, &Partition::Static);
        let dy = tc(&g, 6, &dynamic(&g, DEFAULT_CHUNK));
        assert_eq!(st.count, dy.count, "schedulers must count identically");
        assert!(
            dy.imbalance() < st.imbalance(),
            "dynamic imbalance {:.3} should beat static {:.3}",
            dy.imbalance(),
            st.imbalance()
        );
    }

    #[test]
    fn single_vertex_graph_schedules_on_any_core_count() {
        // One vertex, no edges: exactly one chunk, zero matches, and
        // every idle core reports a zero clock.
        let g = uniform_graph(1, 0, 40);
        for cores in [1, 2, 4] {
            let run = tc(&g, cores, &dynamic(&g, 8));
            assert_eq!(run.count, 0);
            assert_eq!(run.per_core.len(), cores);
        }
    }

    #[test]
    fn chunk_size_larger_than_work_list_degenerates_to_one_chunk() {
        let g = uniform_graph(30, 200, 41);
        let expected = App::Triangle.run_reference(&g);
        // chunk 64 > 30 vertices: a single chunk on core 0, others idle.
        let run = tc(&g, 3, &dynamic(&g, 64));
        assert_eq!(run.count, expected);
        assert_eq!(run.per_core.iter().filter(|&&c| c > 0).count(), 1);
    }

    #[test]
    fn uneven_tail_chunk_still_covers_every_vertex() {
        // 50 vertices in chunks of 16: tail chunk has 2 vertices.
        let g = uniform_graph(50, 400, 42);
        let expected = App::Triangle.run_reference(&g);
        let run = tc(&g, 3, &dynamic(&g, 16));
        assert_eq!(run.count, expected);
    }

    #[test]
    fn static_and_dynamic_shard_write_sets_partition_identically() {
        // The plan verifier's view of both schedulers: static interleave
        // shards (residue classes) and the dynamic chunk cut must be
        // per-mode disjoint AND cover exactly the same index multiset —
        // every vertex exactly once, in either mode.
        let n = 103; // prime: exercises uneven residue classes and tails
        for cores in [1, 2, 3, 6] {
            let shards: Vec<sc_verify::Stride> =
                (0..cores).map(|c| sc_verify::interleave_write_set(0, c, cores, n, 1)).collect();
            let sv = sc_verify::verify_core_write_sets(&shards);
            assert!(sv.verified(), "static shards overlap: {:?}", sv.findings);

            let cs = chunks(n, 8);
            let cv = sc_verify::verify_chunk_plan(&cs, n);
            assert!(cv.verified(), "dynamic chunks overlap: {:?}", cv.findings);

            let mut static_items: Vec<u64> = shards
                .iter()
                .flat_map(|s| (0..s.count).map(move |k| s.base + k * s.stride))
                .collect();
            static_items.sort_unstable();
            let dynamic_items: Vec<u64> =
                cs.iter().flat_map(|c| (c.start as u64)..(c.end as u64)).collect();
            let expected: Vec<u64> = (0..n as u64).collect();
            assert_eq!(static_items, expected, "{cores} cores");
            assert_eq!(dynamic_items, expected);
        }
    }

    #[test]
    fn custom_chunk_plan_runs_when_verified() {
        let g = uniform_graph(60, 500, 43);
        let expected = App::Triangle.run_reference(&g);
        // A deliberately uneven but disjoint plan.
        let cs = vec![
            Chunk { index: 0, start: 0, end: 40 },
            Chunk { index: 1, start: 40, end: 41 },
            Chunk { index: 2, start: 41, end: 60 },
        ];
        let (run, report) = mine(&g, 2, &Partition::Dynamic(cs), true);
        assert_eq!(run.count, expected);
        assert!(report.is_empty(), "unexpected findings:\n{report}");
    }

    #[test]
    fn overlapping_chunk_plan_is_refused_before_execution() {
        let g = uniform_graph(60, 500, 43);
        let cs = vec![
            Chunk { index: 0, start: 0, end: 40 },
            Chunk { index: 1, start: 30, end: 60 }, // overlaps!
        ];
        let probe = Probe::new(sc_probe::ProbeLevel::Trace);
        let partition = Partition::Dynamic(cs);
        let cfg = SparseCoreConfig::paper();
        let (run, report) = count_multicore(&g, &plan(), cfg, true, 2, &partition, probe.clone());
        assert_eq!(run.count, 0, "rejected plan must not execute");
        assert_eq!(run.cycles, 0);
        assert!(report.has_errors());
        assert!(report.diagnostics().iter().any(|d| d.code == sc_lint::LintCode::SanReadOnlyWrite));
        assert_eq!(probe.metrics_json(), "{}", "a refused plan leaves the probe untouched");
        assert_eq!(probe.trace_len(), 0);
    }

    #[test]
    fn chunk_metrics_flow_through_the_probe() {
        let g = uniform_graph(60, 400, 37);
        let probe = Probe::new(sc_probe::ProbeLevel::Metrics);
        let partition = dynamic(&g, 16);
        let cfg = SparseCoreConfig::paper();
        let (run, _) = count_multicore(&g, &plan(), cfg, true, 2, &partition, probe.clone());
        assert!(run.count > 0);
        let chunks_seen = probe.counter("gpm.chunks");
        assert_eq!(chunks_seen, 60u64.div_ceil(16), "every chunk recorded");
    }
}
