//! The regression verdict: candidate records vs a baseline registry.
//!
//! The simulator is deterministic, so modeled cycles, CPU-baseline
//! cycles, functional checksums and the cycle-attribution profile are
//! compared **exactly** — any difference is a FAIL. Host wall-clock is noisy, so it is
//! compared **median-of-N against a tolerance band** and degrades to a
//! warning unless `strict_wall` is set. Records are matched by
//! [`RunRecord::key`] (bench + workload + config digest), never by git
//! SHA: comparing across commits is the point.

use crate::record::{group_by_key, RunRecord, ATTR_BINS};

/// Knobs for [`compare`].
#[derive(Debug, Clone, Copy)]
pub struct CompareOptions {
    /// Allowed relative wall-clock growth of the candidate median over
    /// the baseline median before a finding is raised (0.5 = +50%).
    pub wall_tolerance: f64,
    /// Escalate wall-clock findings from warnings to failures.
    pub strict_wall: bool,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions { wall_tolerance: 0.5, strict_wall: false }
    }
}

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Exact-metric mismatch, lost coverage, or nondeterminism — gates CI.
    Fail,
    /// Noisy-metric drift or benign coverage growth.
    Warn,
}

/// One divergence between baseline and candidate.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The registry key ([`RunRecord::key`]) the finding is about.
    pub key: String,
    /// Failure or warning.
    pub severity: Severity,
    /// Human-readable description with both values.
    pub what: String,
}

/// The full comparison outcome.
#[derive(Debug, Clone, Default)]
pub struct Verdict {
    /// Keys present on both sides and compared.
    pub matched: usize,
    /// All findings, failures first.
    pub findings: Vec<Finding>,
}

impl Verdict {
    /// PASS when no finding is a failure.
    pub fn pass(&self) -> bool {
        self.findings.iter().all(|f| f.severity != Severity::Fail)
    }

    /// Number of failure-severity findings.
    pub fn failures(&self) -> usize {
        self.findings.iter().filter(|f| f.severity == Severity::Fail).count()
    }

    /// Render the verdict as the CLI's plain-text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let tag = match f.severity {
                Severity::Fail => "FAIL",
                Severity::Warn => "warn",
            };
            out.push_str(&format!("{tag}: {}: {}\n", f.key, f.what));
        }
        out.push_str(&format!(
            "verdict: {} ({} keys compared, {} failures, {} warnings)\n",
            if self.pass() { "PASS" } else { "FAIL" },
            self.matched,
            self.failures(),
            self.findings.len() - self.failures(),
        ));
        out
    }
}

/// Median of a non-empty slice.
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// The exact (deterministic) face of a record group, plus its wall
/// median. `None` exact face means the group disagrees internally.
struct GroupSummary<'a> {
    exemplar: &'a RunRecord,
    deterministic: bool,
    wall_median_ms: f64,
    runs: usize,
}

fn summarize<'a>(group: &[&'a RunRecord]) -> GroupSummary<'a> {
    let exemplar = group[0];
    let deterministic = group.iter().all(|r| {
        r.cycles == exemplar.cycles
            && r.baseline_cycles == exemplar.baseline_cycles
            && r.checksum == exemplar.checksum
            && r.attr == exemplar.attr
    });
    let mut walls: Vec<f64> = group.iter().map(|r| r.wall_ms).collect();
    GroupSummary { exemplar, deterministic, wall_median_ms: median(&mut walls), runs: group.len() }
}

/// Compare candidate records against a baseline registry.
pub fn compare(baseline: &[RunRecord], candidate: &[RunRecord], opts: CompareOptions) -> Verdict {
    let base_groups = group_by_key(baseline);
    let cand_groups = group_by_key(candidate);
    let mut verdict = Verdict::default();
    let mut push = |key: &str, severity: Severity, what: String| {
        verdict.findings.push(Finding { key: key.to_string(), severity, what });
    };

    // Internal determinism first: N candidate runs of one key must agree
    // exactly before any cross-run comparison means anything.
    for (side, groups) in [("baseline", &base_groups), ("candidate", &cand_groups)] {
        for (key, group) in groups.iter() {
            if !summarize(group).deterministic {
                push(
                    key,
                    Severity::Fail,
                    format!(
                        "{side} runs of this key disagree on exact metrics across {} repeats — simulator nondeterminism",
                        group.len()
                    ),
                );
            }
        }
    }

    for (key, base_group) in &base_groups {
        let Some(cand_group) = cand_groups.get(key) else {
            push(
                key,
                Severity::Fail,
                "workload present in baseline but missing from candidate (coverage regression)"
                    .into(),
            );
            continue;
        };
        verdict.matched += 1;
        let b = summarize(base_group);
        let c = summarize(cand_group);
        if !b.deterministic || !c.deterministic {
            continue; // already reported above; exact comparison is meaningless
        }
        let (be, ce) = (b.exemplar, c.exemplar);
        if ce.checksum != be.checksum {
            push(
                key,
                Severity::Fail,
                format!("functional checksum changed: {:#x} -> {:#x}", be.checksum, ce.checksum),
            );
        }
        if ce.cycles != be.cycles {
            let delta = ce.cycles as f64 / be.cycles.max(1) as f64 - 1.0;
            push(
                key,
                Severity::Fail,
                format!(
                    "modeled cycles changed: {} -> {} ({:+.2}%)",
                    be.cycles,
                    ce.cycles,
                    delta * 100.0
                ),
            );
        }
        if ce.baseline_cycles != be.baseline_cycles {
            let show = |c: Option<u64>| c.map_or_else(|| "none".to_string(), |c| c.to_string());
            push(
                key,
                Severity::Fail,
                format!(
                    "baseline cycles changed: {} -> {}",
                    show(be.baseline_cycles),
                    show(ce.baseline_cycles)
                ),
            );
        }
        if ce.attr != be.attr {
            let diffs: Vec<String> = ATTR_BINS
                .iter()
                .enumerate()
                .filter(|(i, _)| be.attr[*i] != ce.attr[*i])
                .map(|(i, n)| format!("{n} {} -> {}", be.attr[i], ce.attr[i]))
                .collect();
            push(key, Severity::Fail, format!("cycle attribution changed: {}", diffs.join(", ")));
        }
        // Wall clock: noisy, so median-of-N within a tolerance band. Only
        // slowdowns raise findings — getting faster is not a regression.
        let ratio = c.wall_median_ms / b.wall_median_ms.max(1e-9);
        if ratio > 1.0 + opts.wall_tolerance {
            push(
                key,
                if opts.strict_wall { Severity::Fail } else { Severity::Warn },
                format!(
                    "wall-clock median {:.2}ms -> {:.2}ms (x{ratio:.2}, tolerance x{:.2}, {}v{} runs)",
                    b.wall_median_ms,
                    c.wall_median_ms,
                    1.0 + opts.wall_tolerance,
                    b.runs,
                    c.runs,
                ),
            );
        }
    }
    for key in cand_groups.keys() {
        if !base_groups.contains_key(key) {
            push(
                key,
                Severity::Warn,
                "workload present in candidate but not in baseline (new coverage — refresh the baseline to gate it)".into(),
            );
        }
    }

    // Failures first; the BTreeMap grouping already ordered keys, and the
    // sort is stable, so ordering within a severity stays by key.
    verdict.findings.sort_by_key(|f| match f.severity {
        Severity::Fail => 0,
        Severity::Warn => 1,
    });
    verdict
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(workload: &str, cycles: u64, checksum: u64, wall: f64) -> RunRecord {
        RunRecord {
            bench: "fig08_cpu_speedup".into(),
            workload: workload.into(),
            git_sha: "sha".into(),
            config_digest: 0xabc,
            checksum,
            cycles,
            baseline_cycles: Some(cycles * 10),
            wall_ms: wall,
            attr: [cycles / 5; 5],
            cost: None,
            host: None,
        }
    }

    #[test]
    fn identical_runs_pass() {
        let base = vec![rec("TC/C", 1000, 42, 10.0)];
        let cand = vec![rec("TC/C", 1000, 42, 12.0), rec("TC/C", 1000, 42, 11.0)];
        let v = compare(&base, &cand, CompareOptions::default());
        assert!(v.pass(), "{}", v.render());
        assert_eq!(v.matched, 1);
    }

    #[test]
    fn cycle_change_fails() {
        let base = vec![rec("TC/C", 1000, 42, 10.0)];
        let cand = vec![rec("TC/C", 1001, 42, 10.0)];
        let v = compare(&base, &cand, CompareOptions::default());
        assert!(!v.pass());
        assert!(v.render().contains("modeled cycles changed"));
    }

    #[test]
    fn baseline_change_fails() {
        let base = vec![rec("TC/C", 1000, 42, 10.0)];
        let mut moved = rec("TC/C", 1000, 42, 10.0);
        moved.baseline_cycles = Some(10_001);
        let v = compare(&base, &[moved.clone()], CompareOptions::default());
        assert!(!v.pass());
        assert!(v.render().contains("baseline cycles changed: 10000 -> 10001"), "{}", v.render());
        moved.baseline_cycles = None;
        let v = compare(&base, &[moved.clone()], CompareOptions::default());
        assert!(v.render().contains("baseline cycles changed: 10000 -> none"), "{}", v.render());
        // Repeats that disagree on baseline cycles are nondeterministic.
        let v = compare(&base, &[rec("TC/C", 1000, 42, 10.0), moved], CompareOptions::default());
        assert!(v.render().contains("nondeterminism"), "{}", v.render());
    }

    #[test]
    fn checksum_change_fails() {
        let base = vec![rec("TC/C", 1000, 42, 10.0)];
        let cand = vec![rec("TC/C", 1000, 43, 10.0)];
        let v = compare(&base, &cand, CompareOptions::default());
        assert!(!v.pass());
        assert!(v.render().contains("checksum"));
    }

    #[test]
    fn attribution_shift_fails_even_with_same_total() {
        let base = vec![rec("TC/C", 1000, 42, 10.0)];
        let mut moved = rec("TC/C", 1000, 42, 10.0);
        moved.attr = [400, 0, 200, 200, 200]; // same total, different bins
        let v = compare(&base, &[moved], CompareOptions::default());
        assert!(!v.pass());
        assert!(v.render().contains("attribution"));
    }

    #[test]
    fn wall_noise_warns_not_fails() {
        let base = vec![rec("TC/C", 1000, 42, 10.0)];
        let cand = vec![rec("TC/C", 1000, 42, 30.0)];
        let v = compare(&base, &cand, CompareOptions::default());
        assert!(v.pass());
        assert_eq!(v.findings.len(), 1);
        assert!(v.render().contains("wall-clock"));
        // Median-of-3 absorbs one outlier.
        let cand3 = vec![
            rec("TC/C", 1000, 42, 9.0),
            rec("TC/C", 1000, 42, 11.0),
            rec("TC/C", 1000, 42, 500.0),
        ];
        let v = compare(&base, &cand3, CompareOptions::default());
        assert!(v.findings.is_empty(), "{}", v.render());
        // Strict mode escalates.
        let v = compare(&base, &cand, CompareOptions { strict_wall: true, ..Default::default() });
        assert!(!v.pass());
        // Speedups never raise findings.
        let v = compare(&base, &[rec("TC/C", 1000, 42, 0.1)], CompareOptions::default());
        assert!(v.findings.is_empty());
    }

    #[test]
    fn coverage_loss_fails_and_gain_warns() {
        let base = vec![rec("TC/C", 1000, 42, 10.0), rec("TC/E", 2000, 7, 10.0)];
        let cand = vec![rec("TC/C", 1000, 42, 10.0), rec("TM/C", 500, 3, 5.0)];
        let v = compare(&base, &cand, CompareOptions::default());
        assert!(!v.pass());
        let rendered = v.render();
        assert!(rendered.contains("missing from candidate"));
        assert!(rendered.contains("not in baseline"));
    }

    #[test]
    fn nondeterministic_candidate_fails() {
        let base = vec![rec("TC/C", 1000, 42, 10.0)];
        let cand = vec![rec("TC/C", 1000, 42, 10.0), rec("TC/C", 1002, 42, 10.0)];
        let v = compare(&base, &cand, CompareOptions::default());
        assert!(!v.pass());
        assert!(v.render().contains("nondeterminism"));
    }
}
