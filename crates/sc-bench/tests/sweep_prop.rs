//! Property test: sweep merge order-independence.
//!
//! A parallel sweep completes items in an arbitrary interleaving (here
//! forced with randomized per-item sleeps), yet the parent must always
//! observe the same merged state as the serial run: records (with their
//! bins) in item order, counters as sums, gauges with the last item
//! winning, and the worker stdout stitched back together in item order.

use proptest::prelude::*;
use sc_bench::BenchCli;
use sc_probe::{AttrBin, Attribution};

/// The merged observable state of one sweep.
type State = (Vec<String>, Vec<u64>, Vec<[u64; 5]>, u64, String);

/// Run one sweep over `delays_ms` (item i sleeps `delays_ms[i]` before
/// finishing) and return the merged observable state.
fn sweep_state(jobs: usize, delays_ms: &[u64]) -> State {
    let mut cli = BenchCli::from_args(vec![
        "sweep_prop".into(),
        "--record".into(),
        "/tmp/sweep_prop_reg.json".into(),
        "--metrics".into(),
        "/tmp/sweep_prop_metrics.json".into(),
        "--jobs".into(),
        jobs.to_string(),
    ]);
    cli.capture_output();
    let items: Vec<usize> = (0..delays_ms.len()).collect();
    cli.sweep(&items, |w, &i| {
        std::thread::sleep(std::time::Duration::from_millis(delays_ms[i]));
        let p = w.probe();
        p.count("sweep.runs", 1);
        p.gauge("attr.su_compare", (i * 3) as f64);
        p.gauge("attr.total", (i * 3) as f64);
        w.say(&format!("item {i}"));
        let mut attr = Attribution::default();
        attr.add(AttrBin::SuCompare, i as u64 * 3);
        w.record(&format!("w{i}"), None, (i as u64) ^ 0x5a5a, 10 + i as u64, None, attr);
    });
    let records = cli.pending_records();
    (
        records.iter().map(|r| r.workload.clone()).collect(),
        records.iter().map(|r| r.cycles).collect(),
        records.iter().map(|r| r.attr).collect(),
        cli.probe().counter("sweep.runs"),
        cli.captured_output(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the completion interleaving, the merged state matches
    /// the serial reference exactly.
    #[test]
    fn merge_is_order_independent(
        delays in proptest::collection::vec(0u64..12, 1..9),
        jobs in 2usize..6,
    ) {
        let serial = sweep_state(1, &vec![0; delays.len()]);
        let parallel = sweep_state(jobs, &delays);
        prop_assert_eq!(serial, parallel);
    }
}
