//! Registry-level attribution diffing: adapt [`RunRecord`]s into
//! `sc-explain`'s per-key attribution maps and rank the cycle delta
//! between two registries by (workload × stall cause).
//!
//! This is the causal layer on top of [`crate::regress`]: `compare`
//! says *that* the cycles moved; `explain` says *where* — which
//! bench/workload and which of the five attribution bins absorbed the
//! difference. The bench-regress CI gate prints the top contributors
//! from here whenever a compare fails.

use sc_explain::{rank_attr_deltas, render_top, AttrDelta, AttrMap};

use crate::record::RunRecord;

/// Fold a registry's records into a per-key attribution map, keyed
/// `bench/workload`. When a key repeats (several runs appended to one
/// registry), the **last** record wins, matching the regression gate's
/// latest-run semantics.
pub fn attr_map(records: &[RunRecord]) -> AttrMap {
    let mut map = AttrMap::new();
    for r in records {
        map.insert(format!("{}/{}", r.bench, r.workload), r.attr);
    }
    map
}

/// The ranked (workload × stall cause) contributors to the cycle delta
/// between two registries, largest absolute contributor first.
pub fn rank(baseline: &[RunRecord], candidate: &[RunRecord]) -> Vec<AttrDelta> {
    rank_attr_deltas(&attr_map(baseline), &attr_map(candidate))
}

/// The full `sc-report explain` report: a modeled-cycle summary line
/// per side, then the top-`n` ranked contributors.
pub fn render(baseline: &[RunRecord], candidate: &[RunRecord], n: usize) -> String {
    let sum = |rs: &[RunRecord]| -> u64 {
        // Sum the keyed map, not the raw records, so repeated appends of
        // the same workload do not double-count.
        attr_map(rs).values().map(|a| a.iter().sum::<u64>()).sum()
    };
    let (b, c) = (sum(baseline), sum(candidate));
    let mut out = format!(
        "explain: baseline {b} attributed cycles over {} keys, candidate {c} over {} keys \
         ({:+} net)\n",
        attr_map(baseline).len(),
        attr_map(candidate).len(),
        c as i64 - b as i64
    );
    out.push_str(&render_top(&rank(baseline, candidate), n));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(bench: &str, workload: &str, attr: [u64; 5]) -> RunRecord {
        RunRecord {
            bench: bench.into(),
            workload: workload.into(),
            git_sha: "test".into(),
            config_digest: 1,
            checksum: 2,
            cycles: attr.iter().sum(),
            baseline_cycles: None,
            wall_ms: 1.0,
            attr,
            cost: None,
            host: None,
        }
    }

    #[test]
    fn attr_map_keys_by_bench_and_workload_last_record_wins() {
        let rs = vec![
            record("fig08", "TC/C", [1, 0, 0, 0, 0]),
            record("fig08", "TC/C", [5, 0, 0, 0, 0]),
            record("fig15", "spmspm/uni", [0, 0, 3, 0, 0]),
        ];
        let m = attr_map(&rs);
        assert_eq!(m.len(), 2);
        assert_eq!(m["fig08/TC/C"], [5, 0, 0, 0, 0]);
        assert_eq!(m["fig15/spmspm/uni"], [0, 0, 3, 0, 0]);
    }

    #[test]
    fn render_names_the_top_contributor() {
        let base = vec![
            record("fig08", "TC/C", [100, 40, 10, 5, 50]),
            record("fig15", "spmspm/uni", [10, 10, 10, 0, 10]),
        ];
        // Halved S-Cache ways: the refill bin balloons on one workload.
        let cand = vec![
            record("fig08", "TC/C", [100, 940, 10, 5, 50]),
            record("fig15", "spmspm/uni", [10, 10, 12, 0, 10]),
        ];
        let text = render(&base, &cand, 10);
        assert!(text.contains("#1"), "{text}");
        let first = text.lines().find(|l| l.contains("#1")).unwrap();
        assert!(first.contains("fig08/TC/C"), "{first}");
        assert!(first.contains("scache_refill"), "{first}");
        assert!(first.contains("+900"), "{first}");
    }

    #[test]
    fn identical_registries_report_no_deltas() {
        let rs = vec![record("fig08", "TC/C", [1, 2, 3, 4, 5])];
        assert!(render(&rs, &rs, 10).contains("identical"));
        assert!(rank(&rs, &rs).is_empty());
    }
}
