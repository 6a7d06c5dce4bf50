//! Cross-crate integration: deterministic multicore runs.
//!
//! `sparsecore::run_partition` drives every core from one serial host
//! loop, and under a chunk plan assigns the next chunk to the core with
//! the lowest *simulated* clock, so a run's partitioning depends only on
//! the timing model — never on host threads. These tests pin the
//! properties the regression gates rely on: repeated runs are
//! byte-identical under both partitions (traces included), and the
//! multicore tensor kernels reproduce the serial kernels exactly.

use sc_gpm::plan::Induced;
use sc_gpm::{count_multicore, Pattern, Plan, DEFAULT_CHUNK};
use sc_graph::generators::{powerlaw_graph, PowerLawConfig};
use sc_graph::CsrGraph;
use sc_kernels::{gustavson, gustavson_multicore, ttv, ttv_multicore, StreamTensorBackend};
use sc_probe::{Probe, ProbeLevel};
use sc_tensor::generators::{random_matrix, random_tensor};
use sparsecore::{Engine, MultiCoreRun, SchedMode, SparseCoreConfig};

fn hubby_graph() -> CsrGraph {
    powerlaw_graph(PowerLawConfig { num_vertices: 600, num_edges: 3600, max_degree: 150, seed: 9 })
}

fn triangle_plan() -> Plan {
    Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex)
}

fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Triangle counting on `cores` paper-configuration cores under
/// `mode` (dynamic: chunks of [`DEFAULT_CHUNK`]), reporting to `probe`.
fn triangles(g: &CsrGraph, cores: usize, mode: SchedMode, probe: Probe) -> MultiCoreRun {
    let partition = mode.partition(g.num_vertices(), DEFAULT_CHUNK);
    let cfg = SparseCoreConfig::paper();
    count_multicore(g, &triangle_plan(), cfg, true, cores, &partition, probe).0
}

#[test]
fn repeated_dynamic_runs_are_byte_identical() {
    let g = hubby_graph();
    for cores in [1usize, 2, 3, 6] {
        let first = triangles(&g, cores, SchedMode::Dynamic, Probe::off());
        for _ in 0..2 {
            let again = triangles(&g, cores, SchedMode::Dynamic, Probe::off());
            assert_eq!(again, first, "run differs at {cores} cores");
        }
    }
}

#[test]
fn repeated_static_runs_are_byte_identical() {
    let g = hubby_graph();
    for cores in [1usize, 2, 3, 6] {
        let first = triangles(&g, cores, SchedMode::Static, Probe::off());
        for _ in 0..2 {
            let again = triangles(&g, cores, SchedMode::Static, Probe::off());
            assert_eq!(again, first, "static run differs at {cores} cores");
        }
    }
}

#[test]
fn static_traces_are_byte_identical() {
    // Events from different cores tie on (timestamp, track), so their
    // order in the trace is the order the host issued them: it must not
    // depend on anything but the simulated timing.
    let g = hubby_graph();
    let trace = || {
        let probe = Probe::new(ProbeLevel::Trace);
        triangles(&g, 6, SchedMode::Static, probe.clone());
        probe.trace_json(0)
    };
    let first = trace();
    assert!(first.contains("\"core_done\""), "the trace holds every core's events");
    assert_eq!(trace(), first, "static trace differs between two runs");
}

#[test]
fn dynamic_count_matches_the_single_core_reference() {
    let g = hubby_graph();
    let reference = triangles(&g, 1, SchedMode::Dynamic, Probe::off());
    for cores in [2usize, 3, 6] {
        let run = triangles(&g, cores, SchedMode::Dynamic, Probe::off());
        assert_eq!(run.count, reference.count, "count drifted at {cores} cores");
    }
}

#[test]
fn multicore_tensor_kernels_match_serial_checksums() {
    let cfg = SparseCoreConfig::paper_one_su();
    let a = random_matrix(120, 120, 900, 77);
    let serial = gustavson(&a, &a, &mut StreamTensorBackend::with_engine(Engine::new(cfg)));

    let t = random_tensor([10, 8, 40], 36, 320, 78);
    let v: Vec<f64> = (0..40).map(|i| 0.25 + (i % 7) as f64 * 0.5).collect();
    let serial_ttv = ttv(&t, &v, &mut StreamTensorBackend::with_engine(Engine::new(cfg)));
    let serial_sum = fnv1a(serial_ttv.z.iter().flatten().flat_map(|x| x.to_bits().to_le_bytes()));

    for mode in [SchedMode::Static, SchedMode::Dynamic] {
        for cores in [1usize, 2, 3, 6] {
            let rows = mode.partition(a.rows(), 4);
            let (r, run, report) = gustavson_multicore(&a, &a, cfg, cores, &rows, Probe::off());
            assert!(report.is_empty(), "sanitizer findings:\n{report}");
            assert_eq!(r.c, serial.c, "spmspm output differs ({mode}, {cores} cores)");
            assert_eq!(run.count, serial.c.nnz() as u64);

            let fibers = mode.partition(t.num_fibers(), 4);
            let (rt, _, report) = ttv_multicore(&t, &v, cfg, cores, &fibers, Probe::off());
            assert!(report.is_empty(), "sanitizer findings:\n{report}");
            let sum = fnv1a(rt.z.iter().flatten().flat_map(|x| x.to_bits().to_le_bytes()));
            assert_eq!(sum, serial_sum, "ttv checksum differs ({mode}, {cores} cores)");
        }
    }
}
