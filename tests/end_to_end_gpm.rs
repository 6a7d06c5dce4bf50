//! Cross-crate integration: GPM applications over generated datasets,
//! checked for functional agreement across every execution backend
//! (brute force, CPU baseline, SparseCore with/without nested
//! intersection, FlexMiner model, work counter).

use sc_accel::{FlexMinerModel, WorkCounter};
use sc_gpm::exec::{self, ScalarBackend, SetBackend, StreamBackend};
use sc_gpm::App;
use sc_graph::generators::{powerlaw_graph, PowerLawConfig};
use sc_graph::{CsrGraph, Dataset};
use sparsecore::{Engine, SparseCoreConfig};

fn small_powerlaw() -> CsrGraph {
    powerlaw_graph(PowerLawConfig { num_vertices: 300, num_edges: 1800, max_degree: 90, seed: 5 })
}

#[test]
fn every_backend_agrees_on_every_app() {
    let g = small_powerlaw();
    for app in App::FIG8 {
        let reference = app.run_reference(&g);
        assert_eq!(app.run_scalar(&g).count, reference, "{app} scalar");
        assert_eq!(app.run_stream(&g, SparseCoreConfig::paper()).count, reference, "{app} stream");
        let mut fm = FlexMinerModel::new(&g);
        let mut wc = WorkCounter::new(&g);
        let mut fm_n = 0;
        let mut wc_n = 0;
        for plan in app.plans() {
            fm_n += exec::count(&g, &plan, &mut fm);
            wc_n += exec::count(&g, &plan, &mut wc);
        }
        assert_eq!(fm_n, reference, "{app} flexminer");
        assert_eq!(wc_n, reference, "{app} workcounter");
    }
}

#[test]
fn citeseer_counts_are_stable() {
    // Regression pin: deterministic generation means these exact counts
    // must never change silently.
    let g = Dataset::Citeseer.build();
    let t = App::Triangle.run_reference(&g);
    assert_eq!(App::Triangle.run_scalar(&g).count, t);
    assert_eq!(App::Triangle.run_stream(&g, SparseCoreConfig::paper()).count, t);
    // Graph shape sanity: citeseer is tiny and sparse.
    assert_eq!(g.num_vertices(), 3300);
    assert!(g.avg_degree() < 4.0);
}

#[test]
fn sampled_estimates_track_exact_counts() {
    let g = small_powerlaw();
    let plan = &App::Triangle.plans()[0];
    let mut b = ScalarBackend::new(&g);
    let exact = exec::count(&g, plan, &mut b);
    for stride in [2usize, 4] {
        let mut b = ScalarBackend::new(&g);
        let (est, _) = exec::count_sampled(&g, plan, &mut b, stride);
        let ratio = est.max(1) as f64 / exact.max(1) as f64;
        assert!((0.4..2.5).contains(&ratio), "stride {stride}: ratio {ratio}");
    }
}

#[test]
fn speedup_grows_with_density() {
    // Paper Section 6.3.2: denser graphs see larger SparseCore speedups.
    let sparse = powerlaw_graph(PowerLawConfig {
        num_vertices: 400,
        num_edges: 800,
        max_degree: 40,
        seed: 11,
    });
    let dense = powerlaw_graph(PowerLawConfig {
        num_vertices: 400,
        num_edges: 6000,
        max_degree: 200,
        seed: 11,
    });
    let speedup = |g: &CsrGraph| {
        let cpu = App::Triangle.run_scalar(g);
        let sc = App::Triangle.run_stream(g, SparseCoreConfig::paper());
        assert_eq!(cpu.count, sc.count);
        cpu.cycles as f64 / sc.cycles as f64
    };
    let s_sparse = speedup(&sparse);
    let s_dense = speedup(&dense);
    assert!(s_dense > s_sparse, "dense {s_dense:.2} should beat sparse {s_sparse:.2}");
}

#[test]
fn more_sus_never_slow_down_nested_apps() {
    let g = small_powerlaw();
    for app in [App::Triangle, App::Clique4] {
        let one = app.run_stream(&g, SparseCoreConfig::with_sus(1));
        let four = app.run_stream(&g, SparseCoreConfig::with_sus(4));
        assert_eq!(one.count, four.count);
        assert!(four.cycles <= one.cycles, "{app}: 4 SUs {} vs 1 SU {}", four.cycles, one.cycles);
    }
}

/// Golden stats-conservation run: execute an app with the sanitizer on,
/// protecting the graph's address ranges, and require (a) zero findings
/// end-to-end and (b) the engine's own counters to balance.
fn assert_sanitized_run_clean(g: &CsrGraph, app: App) {
    let mut engine = Engine::new(SparseCoreConfig { sanitize: true, ..SparseCoreConfig::paper() });
    assert!(engine.sanitize_enabled());
    sc_gpm::protect_graph(&mut engine, g);
    let mut backend = StreamBackend::with_engine(g, engine, app.uses_nested());
    let reference = app.run_reference(g);
    let mut n = 0;
    for plan in app.plans() {
        n += exec::count(g, &plan, &mut backend);
    }
    assert_eq!(n, reference, "{app} count");
    backend.finish();
    // The *final* audit also enforces the stream-free discipline: the
    // executor must have released every stream it defined (SC-S302).
    let report = backend.engine_mut().sanitizer_final_report();
    assert!(report.is_empty(), "{app}: sanitizer findings:\n{report}");
    // Golden conservation: every stream read balances against exactly
    // one scratchpad lookup, and frees cover at least the reads (output
    // streams add extra frees).
    let stats = backend.engine().stats();
    assert_eq!(stats.reads, stats.scratchpad_hits + stats.scratchpad_misses, "{app} lookups");
    assert!(stats.frees >= stats.reads, "{app} read/free balance");
    assert!(stats.set_ops > 0, "{app} ran set operations");
}

#[test]
fn sanitized_powerlaw_run_conserves_stats() {
    assert_sanitized_run_clean(&small_powerlaw(), App::Triangle);
}

#[test]
fn sanitized_citeseer_run_conserves_stats() {
    assert_sanitized_run_clean(&Dataset::Citeseer.build(), App::Clique4);
}

#[test]
fn stream_registers_all_released_after_full_run() {
    let g = small_powerlaw();
    for app in App::FIG8 {
        let mut backend = StreamBackend::with_engine(
            &g,
            Engine::new(SparseCoreConfig::paper()),
            app.uses_nested(),
        );
        for plan in app.plans() {
            exec::count(&g, &plan, &mut backend);
        }
        backend.finish();
        // One more allocation burst must succeed: registers were returned.
        let plan = &App::TailedTriangle.plans()[0];
        exec::count(&g, plan, &mut backend);
    }
}
