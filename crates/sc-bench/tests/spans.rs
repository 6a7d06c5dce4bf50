//! Integration tests for the simulated-clock span layer and the
//! `sc-explain` critical-path extraction, as the bench binaries wire
//! them: the golden span taxonomy, byte-identical determinism across
//! repeats and core counts, the probes-off and metrics-level overhead
//! budgets, the critical-path conservation invariant on real workloads,
//! and the attribution-diff acceptance scenario (a halved S-Cache names
//! the S-Cache as the top contributor).

use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use sc_bench::run_sparsecore;
use sc_explain::{extract, rank_attr_deltas, render_top, AttrMap};
use sc_gpm::plan::Induced;
use sc_gpm::{count_multicore, App, Pattern, Plan, DEFAULT_CHUNK};
use sc_graph::generators::uniform_graph;
use sc_graph::{CsrGraph, Dataset};
use sc_kernels::gustavson_multicore;
use sc_probe::spans::snapshots_to_json;
use sc_probe::{AttrBin, Attribution, Probe, ProbeLevel, Site};
use sc_tensor::MatrixDataset;
use sparsecore::{chunks, Partition, SparseCoreConfig};

fn spans_probe() -> Probe {
    let probe = Probe::new(ProbeLevel::Metrics);
    probe.enable_spans();
    probe
}

fn bins(attr: Attribution) -> [u64; AttrBin::ALL.len()] {
    AttrBin::ALL.map(|b| attr.get(b))
}

/// The span-site taxonomy is part of the observability contract: names
/// appear in span JSON, `sc-explain` reports, and the HTML timeline,
/// and each site rolls up to exactly one attribution bin. A new site
/// must be added here (and to DESIGN.md's table) deliberately.
#[test]
fn span_taxonomy_is_golden() {
    const GOLDEN: &[(&str, &str)] = &[
        ("scalar", "scalar_overlap"),
        ("su_busy", "su_compare"),
        ("su_retire", "su_compare"),
        ("drain", "su_compare"),
        ("stream_setup", "scache_refill"),
        ("scache_fill", "scache_refill"),
        ("mem_ready", "mem_stall"),
        ("translator", "translator"),
        ("chunk_claim", "su_compare"),
    ];
    assert_eq!(Site::COUNT, GOLDEN.len());
    for (site, &(name, bin)) in Site::ALL.iter().zip(GOLDEN) {
        assert_eq!(site.name(), name, "site order/name changed");
        assert_eq!(site.bin().name(), bin, "site {name} rolls up to a different bin");
        assert_eq!(Site::parse(name), Some(*site), "name no longer round-trips");
    }
    // Every attribution bin is refined by at least one site, so the
    // grid can always reproduce the Figure 9/10 attribution.
    for bin in AttrBin::ALL {
        assert!(Site::ALL.iter().any(|s| s.bin() == bin), "no site refines {}", bin.name());
    }
}

/// One dynamic-scheduler run's span document, serialized.
fn dynamic_span_doc(g: &sc_graph::CsrGraph, plan: &Plan, cores: usize) -> String {
    let probe = spans_probe();
    let partition = Partition::Dynamic(chunks(g.num_vertices(), DEFAULT_CHUNK));
    let (run, _) =
        count_multicore(g, plan, SparseCoreConfig::paper(), true, cores, &partition, probe.clone());
    let snaps = probe.take_spans();
    assert_eq!(snaps.len(), cores, "one span snapshot per core");
    for snap in &snaps {
        assert_eq!(
            snap.per_bin().iter().sum::<u64>(),
            run.per_core[snap.core],
            "core {}: span grid must sum to the core's final clock",
            snap.core
        );
    }
    snapshots_to_json(&snaps)
}

/// The simulator is deterministic, and the span layer must not break
/// that: repeating a run yields a byte-identical span stream, at every
/// core count the schedulers support.
#[test]
fn span_streams_are_byte_identical_across_repeats() {
    let g = uniform_graph(80, 700, 17);
    let plan = Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex);
    for cores in [1usize, 2, 6] {
        let a = dynamic_span_doc(&g, &plan, cores);
        let b = dynamic_span_doc(&g, &plan, cores);
        assert_eq!(a, b, "span stream diverged across repeats at {cores} core(s)");
        assert!(!a.is_empty());
    }
}

/// Serializes the timing tests, so that one budget test's runs never
/// share the host with the other's.
static TIMING: Mutex<()> = Mutex::new(());

/// The median, over nine adjacent pairs of triangle-counting runs on
/// `g`, of the time with `probe` attached over the time with `base`.
/// Pairing adjacent runs cancels the drift in the host's speed, which on
/// a shared machine is larger than the overheads measured here.
fn median_time_ratio(g: &CsrGraph, probe: &Probe, base: &Probe) -> f64 {
    let run = |probe: &Probe| {
        let t0 = Instant::now();
        let (m, _) = run_sparsecore(g, App::Triangle, SparseCoreConfig::paper(), 1, probe);
        assert!(m.cycles > 0);
        let _ = probe.take_spans();
        t0.elapsed().as_secs_f64()
    };
    // One untimed pair first, so caches fill and each probe's registry
    // holds its names before anything is timed.
    run(probe);
    run(base);
    let mut ratios: Vec<f64> = (0..9).map(|_| run(probe) / run(base)).collect();
    ratios.sort_unstable_by(f64::total_cmp);
    ratios[4]
}

/// Probe level 0 must stay within the <5% overhead budget: with the
/// probe off the span log is never allocated and the only residue is a
/// null-pointer branch per clock advance, so a probes-off run can cost
/// at most noise more than the fully instrumented spans-on run of the
/// same workload.
#[test]
fn probes_off_stays_within_the_overhead_budget() {
    let _serial = TIMING.lock().unwrap_or_else(PoisonError::into_inner);
    let g = uniform_graph(120, 1400, 23);
    let ratio = median_time_ratio(&g, &Probe::off(), &spans_probe());
    // The spans-on path does strictly more work per clock advance, so a
    // probes-off run exceeding it by more than the 5% budget means the
    // off path regressed (e.g. the log got allocated unconditionally).
    assert!(ratio <= 1.05, "probes-off runs take {ratio:.3}x the spans-on runs, beyond 1.05x");
}

/// A metrics-level probe, which every `--metrics` run uses, must cost at
/// most 25% over probes off: the engine counts its events in plain
/// fields and exports them once per `finish`, so no engine event takes
/// the probe's lock.
#[test]
fn metrics_probe_stays_within_the_overhead_budget() {
    let _serial = TIMING.lock().unwrap_or_else(PoisonError::into_inner);
    let g = uniform_graph(120, 1400, 23);
    let ratio = median_time_ratio(&g, &Probe::new(ProbeLevel::Metrics), &Probe::off());
    assert!(ratio <= 1.25, "metrics-level runs take {ratio:.3}x the probes-off runs, beyond 1.25x");
}

/// The acceptance invariant on real golden-matrix workloads: the
/// extracted critical path's length equals the final simulated clock,
/// serial and multicore, GPM and tensor.
#[test]
fn critical_path_equals_final_clock_on_serial_gpm() {
    for (app, d) in [
        (App::Triangle, Dataset::Citeseer),
        (App::TriangleNoNested, Dataset::Citeseer),
        (App::ThreeChain, Dataset::EmailEuCore),
    ] {
        let g = d.build();
        let probe = spans_probe();
        let (m, backend) = run_sparsecore(&g, app, SparseCoreConfig::paper(), 1, &probe);
        let snaps = probe.take_spans();
        let ex = extract(&snaps).expect("conservation holds");
        // Stride 1, so the measurement's cycles are the engine clock.
        assert_eq!(ex.makespan, m.cycles, "{app}/{}: critical path != final clock", d.tag());
        assert_eq!(ex.makespan, backend.engine().attribution().total());
        assert_eq!(ex.per_bin(), bins(backend.engine().attribution()));
        assert_eq!(ex.critical_core, 0);
    }
}

#[test]
fn critical_path_equals_final_clock_on_multicore_dynamic() {
    let g = Dataset::Citeseer.build();
    let plan = Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex);
    for cores in [2usize, 6] {
        let probe = spans_probe();
        let partition = Partition::Dynamic(chunks(g.num_vertices(), DEFAULT_CHUNK));
        let (run, _) = count_multicore(
            &g,
            &plan,
            SparseCoreConfig::paper(),
            true,
            cores,
            &partition,
            probe.clone(),
        );
        let ex = extract(&probe.take_spans()).expect("conservation holds");
        assert_eq!(ex.makespan, run.cycles, "{cores} cores: critical path != makespan");
        assert_eq!(ex.per_core, run.per_core);
        let slack: u64 = run.per_core.iter().map(|&c| run.cycles - c).sum();
        assert_eq!(ex.idle_cycles, slack, "barrier idle must equal the per-core slack");
        let text = ex.render_text();
        assert!(text.contains(&format!("critical path: {} cycles", run.cycles)), "{text}");
    }
}

#[test]
fn critical_path_equals_final_clock_on_multicore_spmspm() {
    let a = MatrixDataset::Circuit204.build();
    let probe = spans_probe();
    let partition = Partition::Dynamic(chunks(a.rows(), DEFAULT_CHUNK));
    let (_, run, _) =
        gustavson_multicore(&a, &a, SparseCoreConfig::paper_one_su(), 2, &partition, probe.clone());
    let ex = extract(&probe.take_spans()).expect("conservation holds");
    assert_eq!(ex.makespan, run.cycles);
    assert_eq!(ex.per_core, run.per_core);
}

/// The acceptance scenario for `sc-report explain`: run the same
/// workloads under the paper configuration and under a perturbed one
/// (S-Cache capacity halved), diff the per-workload attribution, and
/// the ranking must name the S-Cache refill bin as the top contributor.
#[test]
fn halved_scache_names_scache_refill_as_top_contributor() {
    let mut small = SparseCoreConfig::paper();
    small.scache.slot_keys /= 8; // an eighth of the window: short streams start refilling

    let mut base = AttrMap::new();
    let mut cand = AttrMap::new();
    for (app, d) in
        [(App::TriangleNoNested, Dataset::Citeseer), (App::TriangleNoNested, Dataset::EmailEuCore)]
    {
        let key = format!("fig08/{app}/{}", d.tag());
        let g = d.build();
        let (_, b) = run_sparsecore(&g, app, SparseCoreConfig::paper(), 1, &Probe::off());
        base.insert(key.clone(), bins(b.engine().attribution()));
        let (_, c) = run_sparsecore(&g, app, small, 1, &Probe::off());
        cand.insert(key, bins(c.engine().attribution()));
    }
    let ranked = rank_attr_deltas(&base, &cand);
    assert!(!ranked.is_empty(), "halving the S-Cache changed no attribution at all");
    assert_eq!(
        ranked[0].bin,
        AttrBin::ScacheRefill.name(),
        "top contributor should be the perturbed component, got {:?}",
        ranked[0]
    );
    assert!(ranked[0].delta > 0, "a smaller S-Cache must cost cycles");
    let text = render_top(&ranked, 10);
    assert!(text.contains("scache_refill"), "{text}");
}
