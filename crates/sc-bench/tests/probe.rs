//! Integration tests for the observability layer as the bench binaries
//! exercise it: a golden trace taxonomy over a small GPM workload,
//! cycle-attribution conservation, and the metrics snapshot shape.

use sc_bench::run_sparsecore;
use sc_gpm::plan::Induced;
use sc_gpm::{count_multicore, App, Pattern, Plan};
use sc_graph::generators::uniform_graph;
use sc_probe::{check, Probe, ProbeLevel};
use sparsecore::{Partition, SparseCoreConfig};

/// Every event name the simulator may emit. A new instrumentation site
/// must be added here (and documented in DESIGN.md's taxonomy table)
/// before it ships — unknown names are how a trace consumer breaks.
const GOLDEN_EVENT_NAMES: &[&str] = &[
    "S_FETCH",
    "S_FREE",
    "S_INTER",
    "S_INTER.C",
    "S_MERGE",
    "S_MERGE.C",
    "S_NESTINTER",
    "S_READ",
    "S_SUB",
    "S_SUB.C",
    "S_VINTER",
    "S_VMERGE",
    "S_VREAD",
    "admit",
    "core_done",
    "drain",
    "dram_access",
    "evict",
    "output_writeback",
    "slot_bind",
    "slot_bind_output",
    "slot_release",
    "su_op",
    "window_refill",
    // Sanitizer findings surface under their lint code.
    "SC-S300",
    "SC-S301",
    "SC-S302",
    "SC-S303",
    "SC-S310",
];

#[test]
fn gpm_trace_is_golden() {
    let g = uniform_graph(60, 500, 7);
    let probe = Probe::new(ProbeLevel::Trace);
    let (m, _) = run_sparsecore(&g, App::Triangle, SparseCoreConfig::paper(), 1, &probe);
    assert_eq!(m.count, App::Triangle.run_reference(&g));

    let trace = probe.trace_json(0);
    let summary = check::validate_trace(&trace).expect("structurally valid Chrome trace");
    assert!(summary.contains("events"), "summary: {summary}");

    let names = check::trace_event_names(&trace).expect("names extractable");
    assert!(!names.is_empty());
    for name in &names {
        assert!(
            GOLDEN_EVENT_NAMES.contains(&name.as_str()),
            "event name {name:?} is not in the golden taxonomy — \
             add it to GOLDEN_EVENT_NAMES and DESIGN.md deliberately"
        );
    }
    // A nested triangle count must at least read streams, run SU ops,
    // intersect via the translator, and bind S-Cache slots.
    for required in ["S_READ", "S_NESTINTER", "S_FREE", "su_op", "slot_bind"] {
        assert!(names.iter().any(|n| n == required), "missing {required} in {names:?}");
    }
}

#[test]
fn gpm_metrics_snapshot_validates_and_counts_match() {
    let g = uniform_graph(50, 400, 9);
    let probe = Probe::new(ProbeLevel::Metrics);
    let (_, backend) = run_sparsecore(&g, App::Triangle, SparseCoreConfig::paper(), 1, &probe);
    let stats = backend.engine().stats().clone();

    let doc = probe.metrics_json();
    let n = check::validate_metrics(&doc).expect("valid metrics doc");
    assert!(n > 0);
    // The probe's live counters and the engine's bespoke stats are two
    // independent accounting paths; they must agree.
    assert_eq!(check::metrics_value(&doc, "engine.reads"), Some(stats.reads as f64));
    assert_eq!(check::metrics_value(&doc, "engine.set_ops"), Some(stats.set_ops as f64));
    assert_eq!(check::metrics_value(&doc, "engine.frees"), Some(stats.frees as f64));
    // probe_snapshot ran inside the helper: attribution gauges exist and
    // conserve the core's cycle count.
    let total = check::metrics_value(&doc, "attr.total").expect("attr.total gauge");
    let sum: f64 = ["su_compare", "scache_refill", "mem_stall", "translator", "scalar_overlap"]
        .iter()
        .map(|b| check::metrics_value(&doc, &format!("attr.{b}")).expect("attr bin gauge"))
        .sum();
    assert_eq!(sum, total);
    assert_eq!(total, check::metrics_value(&doc, "core.cycles").expect("core.cycles"));
}

#[test]
fn attribution_conserves_cycles_through_the_bench_helper() {
    let g = uniform_graph(40, 300, 11);
    let (m, backend) =
        run_sparsecore(&g, App::TriangleNoNested, SparseCoreConfig::paper(), 1, &Probe::off());
    assert_eq!(backend.engine().attribution().total(), m.cycles);
}

#[test]
fn multicore_shares_one_probe_and_traces_every_core() {
    let g = uniform_graph(60, 500, 13);
    let plan = Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex);
    let probe = Probe::new(ProbeLevel::Trace);
    let (run, report) = count_multicore(
        &g,
        &plan,
        SparseCoreConfig::paper(),
        true,
        3,
        &Partition::Static,
        probe.clone(),
    );
    assert_eq!(run.per_core.len(), 3);
    assert!(report.is_empty(), "unexpected sanitizer findings:\n{report}");

    let trace = probe.trace_json(0);
    check::validate_trace(&trace).expect("valid merged multi-core trace");
    let names = check::trace_event_names(&trace).expect("names");
    assert!(names.iter().any(|n| n == "core_done"));
    assert_eq!(trace.matches("\"core_done\"").count(), 3, "one instant per core");
    for name in &names {
        assert!(GOLDEN_EVENT_NAMES.contains(&name.as_str()), "unknown event {name:?}");
    }
}
