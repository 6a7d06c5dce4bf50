//! `sc-report tightness` — gate on the static-bound tightness ratio.
//!
//! Benches run with `--cost` replay every stream program against
//! `sc-cost`'s static `[lower, upper]` cycle bounds and carry the tally
//! in their records' [`CostSection`]: `checked` (obligations evaluated),
//! `violations` (simulated cycles outside the bounds — a soundness
//! failure), and `tightness` (the worst `upper / simulated` ratio seen).
//! This module aggregates those sections per bench and gates on two
//! budgets:
//!
//! * **soundness** — any recorded violation fails, unconditionally;
//! * **tightness** — a worst ratio above the budget fails: the bounds
//!   are still sound but have become too loose to be useful, which is a
//!   quality regression the soundness gate alone cannot see.
//!
//! Records without a cost section (benches run without `--cost`) are
//! skipped, not failed; the `--require` flag turns an empty aggregation
//! into a failure so CI notices a silently dropped `--cost` flag.

use crate::record::{CostSection, RunRecord};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Aggregated cost sections for one bench.
#[derive(Debug, Clone, PartialEq)]
pub struct TightnessRow {
    /// Emitting binary (`RunRecord::bench`).
    pub bench: String,
    /// Records carrying a cost section.
    pub records: usize,
    /// Max `checked` across the bench's records (each process stamps
    /// its final tally, so max = the largest complete run).
    pub checked: u64,
    /// Max `violations` across the bench's records.
    pub violations: u64,
    /// Worst `tightness` across the bench's records.
    pub worst: f64,
}

/// Aggregate the cost sections per bench. Records without one are
/// ignored.
pub fn summarize(records: &[RunRecord]) -> Vec<TightnessRow> {
    let mut by_bench: BTreeMap<&str, TightnessRow> = BTreeMap::new();
    for r in records {
        let Some(CostSection { checked, violations, tightness }) = r.cost else { continue };
        let row = by_bench.entry(&r.bench).or_insert_with(|| TightnessRow {
            bench: r.bench.clone(),
            records: 0,
            checked: 0,
            violations: 0,
            worst: 0.0,
        });
        row.records += 1;
        row.checked = row.checked.max(checked);
        row.violations = row.violations.max(violations);
        row.worst = row.worst.max(tightness);
    }
    by_bench.into_values().collect()
}

/// Does every bench pass the soundness and tightness budgets?
pub fn pass(rows: &[TightnessRow], max_ratio: f64) -> bool {
    rows.iter().all(|r| r.violations == 0 && r.worst <= max_ratio)
}

/// Plain-text table plus a verdict line.
pub fn render_text(rows: &[TightnessRow], max_ratio: f64) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<24} {:>8} {:>8} {:>11} {:>10}",
        "bench", "records", "checked", "violations", "tightness"
    );
    for r in rows {
        let mark = if r.violations > 0 {
            "  UNSOUND"
        } else if r.worst > max_ratio {
            "  OVER-BUDGET"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:<24} {:>8} {:>8} {:>11} {:>9.2}x{mark}",
            r.bench, r.records, r.checked, r.violations, r.worst
        );
    }
    let _ = writeln!(
        out,
        "tightness: {} bench(es) with cost sections, budget {max_ratio:.2}x: {}",
        rows.len(),
        if pass(rows, max_ratio) { "PASS" } else { "FAIL" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bench: &str, cost: Option<(u64, u64, f64)>) -> RunRecord {
        RunRecord {
            bench: bench.into(),
            workload: "w".into(),
            git_sha: "test".into(),
            config_digest: 0,
            checksum: 0,
            cycles: 1,
            baseline_cycles: None,
            wall_ms: 0.0,
            attr: [0; 5],
            cost: cost.map(|(checked, violations, tightness)| CostSection {
                checked,
                violations,
                tightness,
            }),
            host: None,
        }
    }

    #[test]
    fn summarize_groups_by_bench_and_takes_worst() {
        let records = vec![
            rec("fig07", Some((10, 0, 3.5))),
            rec("fig07", Some((10, 0, 6.4))),
            rec("fig15", Some((2, 0, 4.9))),
            rec("datasets_report", None),
        ];
        let rows = summarize(&records);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].bench, "fig07");
        assert_eq!(rows[0].records, 2);
        assert_eq!(rows[0].checked, 10);
        assert!((rows[0].worst - 6.4).abs() < 1e-9);
        assert!(pass(&rows, 16.0));
        assert!(!pass(&rows, 5.0), "fig07's 6.4x must exceed a 5.0x budget");
    }

    #[test]
    fn violations_fail_regardless_of_ratio() {
        let rows = summarize(&[rec("fig08", Some((5, 1, 1.1)))]);
        assert!(!pass(&rows, 16.0));
        assert!(render_text(&rows, 16.0).contains("UNSOUND"));
        assert!(render_text(&rows, 16.0).contains("FAIL"));
    }

    #[test]
    fn over_budget_is_flagged_in_the_rendering() {
        let rows = summarize(&[rec("fig13", Some((5, 0, 40.0)))]);
        let text = render_text(&rows, 16.0);
        assert!(text.contains("OVER-BUDGET"));
        assert!(text.contains("FAIL"));
    }
}
