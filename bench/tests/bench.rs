//! Checks of the benchmark itself: the wrapper is transparent, seeds map
//! onto the datasets' own builds, the printed metric names match
//! `BENCHMARK.json`, failures are counted, and the pinned outputs agree
//! with the golden registries.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use sc_gpm::App;
use sc_graph::Dataset;
use sc_perfbench::check::{check_passes, Expected};
use sc_perfbench::figures::{load_expected, BINS};
use sc_perfbench::ledger::Spans;
use sc_perfbench::report::{Measured, Outcome, END_TO_END, PER_LAYER};
use sc_perfbench::suite::{graph, matrix, tensor, Kernel, Run, Side, Suite, Task};
use sc_perfbench::{golden_mismatches, golden_records, Paths, Workload};
use sc_probe::json::{self, Value};
use sc_tensor::{MatrixDataset, TensorDataset};
use sparsecore::SparseCoreConfig;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("bench/ sits in the repository")
        .to_path_buf()
}

fn paths() -> Paths {
    Paths { root: root(), bins: root().join("target/release") }
}

/// A small run list on the C datasets: three apps and two kernels, on
/// both backends.
fn small_suite() -> Suite {
    let mut runs = Vec::new();
    let sides = [("cpu", Side::Cpu), ("sc", Side::Sc(SparseCoreConfig::paper()))];
    for app in [App::ThreeChain, App::Triangle, App::Clique4] {
        for (label, side) in sides {
            let group = format!("{app}/C");
            let task = Task::Gpm(app, Dataset::Citeseer, 1);
            runs.push(Run { name: format!("{group}/{label}"), group, task, side });
        }
    }
    for k in [Kernel::Outer, Kernel::Gustavson] {
        for (label, side) in sides {
            let group = format!("{k:?}/C");
            let task = Task::Spmspm(k, MatrixDataset::Circuit204);
            runs.push(Run { name: format!("{group}/{label}"), group, task, side });
        }
    }
    Suite {
        graphs: vec![Dataset::Citeseer],
        matrices: vec![MatrixDataset::Circuit204],
        tensors: vec![],
        apps: vec![App::ThreeChain, App::Triangle, App::Clique4],
        runs,
    }
}

#[test]
fn timed_wrapper_is_transparent() {
    let suite = small_suite();
    let plain = suite.run_pass(0, true, None);
    let mut spans = Spans::new();
    let traced = suite.run_pass(0, false, Some(&mut spans));
    for ((r, a), b) in suite.runs.iter().zip(&plain.runs).zip(&traced.runs) {
        assert_eq!(
            (a.checksum, a.value_hash, a.cycles),
            (b.checksum, b.value_hash, b.cycles),
            "{}",
            r.name
        );
        let t = b.traced.as_ref().expect("traced pass records calls");
        assert!(t.calls.iter().map(|c| c.calls).sum::<u64>() > 0, "{}", r.name);
    }
    let (attempted, failures) = check_passes(&suite, &[&plain, &traced], None, 0);
    assert_eq!(attempted, 2 * suite.runs.len() as u64);
    assert!(failures.is_empty(), "{failures:?}");
    let trace = json::parse(&spans.to_chrome_json()).expect("trace is valid JSON");
    let events = trace.get("traceEvents").and_then(Value::as_arr).expect("traceEvents");
    assert!(events.iter().any(|e| e.get("name").and_then(Value::as_str) == Some("pass")));
}

#[test]
fn seed_zero_reproduces_the_dataset_builds() {
    for d in [Dataset::Citeseer, Dataset::Gnutella08, Dataset::EmailEuCore] {
        assert_eq!(graph(d, 0), d.build(), "{d}");
        assert_ne!(graph(d, 1), d.build(), "{d}");
    }
    for m in [MatrixDataset::Circuit204, MatrixDataset::EmailEuCore] {
        assert_eq!(matrix(m, 0), m.build(), "{m}");
        assert_ne!(matrix(m, 1), m.build(), "{m}");
    }
    for t in TensorDataset::ALL {
        assert_eq!(tensor(t, 0), t.build(), "{t}");
        assert_ne!(tensor(t, 1), t.build(), "{t}");
    }
}

fn benchmark_names(section: &str) -> Vec<(String, String)> {
    let doc = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let v = json::parse(&doc).expect("BENCHMARK.json parses");
    v.get(section)
        .and_then(Value::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Value::as_str).expect("string field").to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let valid = |n: &str| {
        !n.is_empty() && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (defs, section) in [(&END_TO_END[..], "end_to_end"), (&PER_LAYER[..], "per_layer")] {
        let outcome = Outcome {
            workload: "gpm",
            attempted: 1,
            failures: vec![],
            metrics: defs.iter().map(|d| Measured { def: *d, samples: vec![1.5] }).collect(),
            details: Value::Null,
        };
        let printed: Vec<(String, String)> = outcome
            .metric_lines()
            .iter()
            .map(|l| {
                let f: Vec<&str> = l.split(' ').collect();
                assert_eq!(f.len(), 3, "{l}");
                assert!(valid(f[0]), "{l}");
                (f[0].to_string(), f[2].to_string())
            })
            .collect();
        assert_eq!(printed, benchmark_names(section), "{section}");
        let line = json::parse(&outcome.result_line()).expect("result line parses");
        let keys: BTreeSet<&str> =
            line.as_obj().expect("object").keys().map(String::as_str).collect();
        assert_eq!(keys, BTreeSet::from(["attempted", "correct", "failed", "metrics"]));
        assert_eq!(line.get("metrics").and_then(Value::as_obj).map(|m| m.len()), Some(defs.len()));
    }
    let all: BTreeSet<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|d| d.name).collect();
    assert_eq!(all.len(), END_TO_END.len() + PER_LAYER.len(), "names are unique");
}

#[test]
fn an_injected_mismatch_counts_as_a_failure() {
    let suite = small_suite();
    let pass = suite.run_pass(0, false, None);
    let mut expected = Expected::from_pass(&suite, &pass);
    let (attempted, failures) = check_passes(&suite, &[&pass], Some(&expected), 0);
    assert_eq!((attempted, failures.len()), (suite.runs.len() as u64, 0));
    expected.runs.get_mut("TC/C/sc").expect("pinned").1 += 1;
    let (_, failures) = check_passes(&suite, &[&pass], Some(&expected), 0);
    assert_eq!(failures.len(), 1, "{failures:?}");
    assert!(failures[0].contains("TC/C/sc"), "{failures:?}");
}

#[test]
fn figures_pins_equal_the_golden_registry() {
    let golden = golden_records(&paths()).expect("results/golden parses");
    assert_eq!(golden.len(), 238);
    let benches: BTreeSet<&str> = golden.iter().map(|r| r.bench.as_str()).collect();
    assert_eq!(benches, BINS.iter().map(|(b, _)| *b).collect());
    let pinned = load_expected(&paths().expected(Workload::Figures)).expect("figures pins parse");
    assert_eq!(pinned, golden);
}

#[test]
fn in_process_pins_agree_with_the_golden_registry() {
    for w in [Workload::Gpm, Workload::Dse, Workload::Tensor] {
        let e = Expected::load(&paths().expected(w)).expect("pins parse");
        let suite = w.suite().expect("in-process workload");
        let names: BTreeSet<&str> = suite.runs.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(e.runs.keys().map(String::as_str).collect::<BTreeSet<_>>(), names, "{w:?}");
        let bad = golden_mismatches(w, &e, &paths()).expect("golden overlaps the pins");
        assert!(bad.is_empty(), "{w:?}: {bad:?}");
    }
}
