//! Pin the whole metrics registry a `ProbeLevel::Metrics` probe holds
//! after four driver patterns, byte for byte, against documents captured
//! from an earlier build:
//!
//! * `fig09_tc_citeseer`: `TC` on Citeseer on `StreamBackend` under
//!   `SparseCoreConfig::paper()`, then `finish` and `probe_snapshot`
//!   (the `fig09_10_breakdown` path);
//! * `fig13_bw2_bw4`: two runs sharing one probe, first under
//!   `with_bandwidth(2)`, then under `with_bandwidth(4)` (the
//!   `fig13_bandwidth` sweep item, whose counters accumulate across runs
//!   while the gauges show the last one);
//! * `multicore_dynamic`: `count_multicore` on 4 cores over chunks of 8,
//!   which drains (`finish`) every core once per chunk;
//! * `gustavson_circuit204`: `gustavson_sampled` on Circuit204 on
//!   `StreamTensorBackend` under `paper_one_su()`.
//!
//! Counters, gauges and histograms all take part, so a change to how the
//! engine reports its events (what it counts, when a name first appears,
//! how repeated drains or shared probes add up) fails here.

use sc_gpm::exec;
use sc_gpm::pattern::Pattern;
use sc_gpm::plan::{Induced, Plan};
use sc_gpm::{count_multicore, App, SetBackend, StreamBackend};
use sc_graph::{CsrGraph, Dataset};
use sc_kernels::{gustavson_sampled, StreamTensorBackend};
use sc_probe::{Probe, ProbeLevel};
use sc_tensor::MatrixDataset;
use sparsecore::{chunks, Engine, Partition, SparseCoreConfig};

/// Run `app` on `g` with an engine reporting to `probe`, then drain it
/// and snapshot its gauges, as the bench drivers do.
fn run_probed(g: &CsrGraph, app: App, cfg: SparseCoreConfig, probe: &Probe) {
    let mut engine = Engine::new(cfg);
    engine.set_probe(probe.clone());
    let mut backend = StreamBackend::with_engine(g, engine, app.uses_nested());
    for plan in app.plans() {
        exec::count_sampled(g, &plan, &mut backend, 1);
    }
    backend.finish();
    backend.engine().probe_snapshot();
}

fn fig09_tc_citeseer() -> String {
    let g = Dataset::Citeseer.build();
    let probe = Probe::new(ProbeLevel::Metrics);
    run_probed(&g, App::ThreeChain, SparseCoreConfig::paper(), &probe);
    probe.metrics_json()
}

fn fig13_bw2_bw4() -> String {
    let g = Dataset::Citeseer.build();
    let probe = Probe::new(ProbeLevel::Metrics);
    for bw in [2, 4] {
        run_probed(&g, App::Triangle, SparseCoreConfig::with_bandwidth(bw), &probe);
    }
    probe.metrics_json()
}

fn multicore_dynamic() -> String {
    let g = Dataset::Citeseer.build();
    let plan = Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex);
    let probe = Probe::new(ProbeLevel::Metrics);
    let partition = Partition::Dynamic(chunks(g.num_vertices(), 8));
    count_multicore(&g, &plan, SparseCoreConfig::paper(), true, 4, &partition, probe.clone());
    probe.metrics_json()
}

fn gustavson_circuit204() -> String {
    let a = MatrixDataset::Circuit204.build();
    let probe = Probe::new(ProbeLevel::Metrics);
    let mut engine = Engine::new(SparseCoreConfig::paper_one_su());
    engine.set_probe(probe.clone());
    let mut backend = StreamTensorBackend::with_engine(engine);
    gustavson_sampled(&a, &a, &mut backend, 1);
    backend.engine().probe_snapshot();
    probe.metrics_json()
}

fn assert_pinned(cell: &str, got: &str, want: &str) {
    assert_eq!(got, want.trim_end(), "{cell}: metrics registry differs from the pinned document");
}

#[test]
fn gpm_registries_match_pins() {
    assert_pinned(
        "fig09_tc_citeseer",
        &fig09_tc_citeseer(),
        include_str!("data/probe_metrics/fig09_tc_citeseer.json"),
    );
    assert_pinned(
        "fig13_bw2_bw4",
        &fig13_bw2_bw4(),
        include_str!("data/probe_metrics/fig13_bw2_bw4.json"),
    );
}

#[test]
fn multicore_registry_matches_pin() {
    assert_pinned(
        "multicore_dynamic",
        &multicore_dynamic(),
        include_str!("data/probe_metrics/multicore_dynamic.json"),
    );
}

#[test]
fn tensor_registry_matches_pin() {
    assert_pinned(
        "gustavson_circuit204",
        &gustavson_circuit204(),
        include_str!("data/probe_metrics/gustavson_circuit204.json"),
    );
}

/// A counter appears only where its event happened: the GPM documents
/// carry no value-stream counters, and the tensor one does.
#[test]
fn pins_differ_in_which_counters_exist() {
    let gpm = include_str!("data/probe_metrics/fig09_tc_citeseer.json");
    let tensor = include_str!("data/probe_metrics/gustavson_circuit204.json");
    for name in ["engine.value_ops", "engine.value_loads"] {
        assert_eq!(sc_probe::check::metrics_value(gpm, name), None, "{name} in the GPM pin");
        assert!(
            sc_probe::check::metrics_value(tensor, name).is_some(),
            "{name} not in the tensor pin"
        );
    }
}
