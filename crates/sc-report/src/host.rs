//! `sc-report host` — the host-perf view of a registry and its budget
//! gates.
//!
//! Where `regress` compares the *simulated* machine (exact cycles,
//! checksums, attribution), this module watches the *host* cost of
//! producing those numbers: wall split by phase, peak RSS, allocator
//! pressure, and records-per-second throughput. Two budget gates make
//! host performance a first-class CI citizen ahead of the ROADMAP
//! host-parallel refactor:
//!
//! * **total-wall regression** — the candidate registry's summed wall
//!   may exceed the baseline's by at most `max_wall_regress_pct`;
//! * **peak-RSS ceiling** — no record may report a peak RSS above
//!   `max_rss_kb`.
//!
//! Both gates are advisory-free: a violation is a hard nonzero exit in
//! the CLI, like `compare` and `tightness --require`.

use std::collections::BTreeMap;

use sc_host::Phase;

use crate::record::RunRecord;

/// One bench's host-perf aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct HostRow {
    pub bench: String,
    /// All records for the bench, host-annotated or not.
    pub records: usize,
    /// Records carrying a `host` section.
    pub with_host: usize,
    /// Summed wall over all records (ms).
    pub wall_ms: f64,
    /// Summed per-phase host wall (ms), [`Phase::ALL`] order.
    pub phase_ms: [f64; Phase::COUNT],
    /// Max peak RSS (kB) across the bench's records; 0 when unsampled.
    pub peak_rss_kb: u64,
    /// Summed per-window allocation count.
    pub alloc_count: u64,
    /// Summed per-window allocated bytes.
    pub alloc_bytes: u64,
}

impl HostRow {
    fn new(bench: &str) -> Self {
        HostRow {
            bench: bench.to_string(),
            records: 0,
            with_host: 0,
            wall_ms: 0.0,
            phase_ms: [0.0; Phase::COUNT],
            peak_rss_kb: 0,
            alloc_count: 0,
            alloc_bytes: 0,
        }
    }

    fn fold(&mut self, r: &RunRecord) {
        self.records += 1;
        self.wall_ms += r.wall_ms;
        if let Some(h) = &r.host {
            self.with_host += 1;
            for (acc, ms) in self.phase_ms.iter_mut().zip(h.phase_ms) {
                *acc += ms;
            }
            self.peak_rss_kb = self.peak_rss_kb.max(h.peak_rss_kb.unwrap_or(0));
            self.alloc_count += h.alloc_count;
            self.alloc_bytes += h.alloc_bytes;
        }
    }

    /// Records per host wall second for this row.
    pub fn records_per_s(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.records as f64 / (self.wall_ms / 1e3)
        } else {
            0.0
        }
    }
}

/// Group records by bench (sorted) and fold host telemetry per group.
pub fn summarize(records: &[RunRecord]) -> Vec<HostRow> {
    let mut by_bench: BTreeMap<&str, HostRow> = BTreeMap::new();
    for r in records {
        by_bench.entry(&r.bench).or_insert_with(|| HostRow::new(&r.bench)).fold(r);
    }
    by_bench.into_values().collect()
}

/// Fold every record into one `TOTAL` row.
pub fn total_row(records: &[RunRecord]) -> HostRow {
    let mut t = HostRow::new("TOTAL");
    for r in records {
        t.fold(r);
    }
    t
}

/// Budget-gate thresholds for [`gate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostGateOptions {
    /// Candidate total wall may exceed the baseline's by at most this
    /// percentage (checked only when a baseline is given).
    pub max_wall_regress_pct: f64,
    /// Peak-RSS ceiling in kB for any single record.
    pub max_rss_kb: u64,
    /// Require at least one host-annotated candidate record (catches a
    /// pipeline that silently dropped `--host`).
    pub require_host: bool,
}

impl Default for HostGateOptions {
    fn default() -> Self {
        // 100%: the host may not get more than 2x slower unnoticed.
        // 4 GiB: an order of magnitude above today's ~100 MB peaks, so
        // only a genuine leak or blow-up trips it.
        HostGateOptions {
            max_wall_regress_pct: 100.0,
            max_rss_kb: 4 * 1024 * 1024,
            require_host: false,
        }
    }
}

/// Apply the host budget gates. Returns `(pass, findings)`; findings
/// describe every violated gate (never a silent subset).
pub fn gate(
    candidate: &[RunRecord],
    baseline: Option<&[RunRecord]>,
    opts: &HostGateOptions,
) -> (bool, Vec<String>) {
    let mut findings = Vec::new();
    let with_host = candidate.iter().filter(|r| r.host.is_some()).count();
    if opts.require_host && with_host == 0 {
        findings.push(format!(
            "no host sections in any of {} candidate record(s) — were the bins run with --host?",
            candidate.len()
        ));
    }
    let peak = candidate
        .iter()
        .filter_map(|r| r.host.as_ref())
        .filter_map(|h| h.peak_rss_kb)
        .max()
        .unwrap_or(0);
    if peak > opts.max_rss_kb {
        findings.push(format!("peak RSS {peak} kB exceeds the {} kB ceiling", opts.max_rss_kb));
    }
    if let Some(base) = baseline {
        let cand_wall: f64 = candidate.iter().map(|r| r.wall_ms).sum();
        let base_wall: f64 = base.iter().map(|r| r.wall_ms).sum();
        if base_wall > 0.0 {
            let allowed = base_wall * (1.0 + opts.max_wall_regress_pct / 100.0);
            if cand_wall > allowed {
                findings.push(format!(
                    "total wall {cand_wall:.1} ms exceeds baseline {base_wall:.1} ms by more \
                     than {:.1}% (allowed {allowed:.1} ms)",
                    opts.max_wall_regress_pct
                ));
            }
        }
    }
    (findings.is_empty(), findings)
}

fn fmt_kb(kb: u64) -> String {
    if kb == 0 {
        "-".into()
    } else {
        format!("{:.1}", kb as f64 / 1024.0)
    }
}

fn fmt_bytes_mb(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// Render the host-perf table (per-bench rows plus a TOTAL row).
pub fn render(rows: &[HostRow], total: &HostRow) -> String {
    let mut out = format!(
        "{:<20} {:>5} {:>5} {:>10} | {:>9} {:>8} {:>9} {:>10} {:>8} {:>8} | {:>7} {:>9} {:>9} {:>7}\n",
        "bench", "recs", "host", "wall_ms", "generate", "emit", "verify", "simulate", "record",
        "other", "rss_mb", "allocs", "alloc_mb", "rec/s"
    );
    let mut line = |r: &HostRow| {
        out.push_str(&format!(
            "{:<20} {:>5} {:>5} {:>10.1} | {:>9.1} {:>8.1} {:>9.1} {:>10.1} {:>8.1} {:>8.1} | {:>7} {:>9} {:>9} {:>7.1}\n",
            r.bench,
            r.records,
            r.with_host,
            r.wall_ms,
            r.phase_ms[0],
            r.phase_ms[1],
            r.phase_ms[2],
            r.phase_ms[3],
            r.phase_ms[4],
            r.phase_ms[5],
            fmt_kb(r.peak_rss_kb),
            r.alloc_count,
            fmt_bytes_mb(r.alloc_bytes),
            r.records_per_s(),
        ));
    };
    for r in rows {
        line(r);
    }
    line(total);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::HostSection;

    fn rec(bench: &str, wall_ms: f64, host: Option<HostSection>) -> RunRecord {
        RunRecord {
            bench: bench.into(),
            workload: "w".into(),
            git_sha: "sha".into(),
            config_digest: 1,
            checksum: 2,
            cycles: 10,
            baseline_cycles: None,
            wall_ms,
            attr: [2; 5],
            cost: None,
            host,
        }
    }

    fn section(rss_kb: Option<u64>) -> HostSection {
        HostSection {
            phase_ms: [1.0, 0.5, 0.25, 2.0, 0.25, 0.0],
            peak_rss_kb: rss_kb,
            alloc_count: 100,
            alloc_bytes: 4096,
            alloc_peak_bytes: 8192,
        }
    }

    #[test]
    fn summarize_folds_per_bench_and_total() {
        let records = vec![
            rec("fig08", 4.0, Some(section(Some(900)))),
            rec("fig08", 4.0, Some(section(Some(1200)))),
            rec("fig15", 2.0, None),
        ];
        let rows = summarize(&records);
        assert_eq!(rows.len(), 2);
        let f8 = &rows[0];
        assert_eq!((f8.bench.as_str(), f8.records, f8.with_host), ("fig08", 2, 2));
        assert!((f8.phase_ms[3] - 4.0).abs() < 1e-9, "simulate phase sums");
        assert_eq!(f8.peak_rss_kb, 1200, "RSS is a max, not a sum");
        assert_eq!(f8.alloc_count, 200);
        assert!((f8.records_per_s() - 250.0).abs() < 1e-9, "2 records in 8 ms");
        let t = total_row(&records);
        assert_eq!((t.records, t.with_host), (3, 2));
        assert!((t.wall_ms - 10.0).abs() < 1e-9);
        let text = render(&rows, &t);
        assert!(text.contains("fig08") && text.contains("TOTAL"), "{text}");
    }

    #[test]
    fn rss_ceiling_gate_trips_and_reports() {
        let cand = vec![rec("fig08", 1.0, Some(section(Some(2048))))];
        let ok_opts = HostGateOptions { max_rss_kb: 4096, ..Default::default() };
        assert!(gate(&cand, None, &ok_opts).0);
        let tight = HostGateOptions { max_rss_kb: 1, ..Default::default() };
        let (pass, findings) = gate(&cand, None, &tight);
        assert!(!pass);
        assert!(findings[0].contains("2048 kB"), "{findings:?}");
        // Unsampled RSS (non-Linux) does not false-positive the ceiling.
        let none = vec![rec("fig08", 1.0, Some(section(None)))];
        assert!(gate(&none, None, &tight).0);
    }

    #[test]
    fn wall_regression_gate_uses_the_baseline() {
        let base = vec![rec("fig08", 10.0, None)];
        let slower = vec![rec("fig08", 15.0, Some(section(Some(10))))];
        // 50% slower: inside a 100% budget, outside a 20% budget.
        assert!(gate(&slower, Some(&base), &HostGateOptions::default()).0);
        let tight = HostGateOptions { max_wall_regress_pct: 20.0, ..Default::default() };
        let (pass, findings) = gate(&slower, Some(&base), &tight);
        assert!(!pass);
        assert!(findings[0].contains("total wall"), "{findings:?}");
        // The acceptance scenario: --max-wall-regress 0 rejects any
        // slowdown at all.
        let zero = HostGateOptions { max_wall_regress_pct: 0.0, ..Default::default() };
        assert!(!gate(&slower, Some(&base), &zero).0);
        // Without a baseline the wall gate is vacuous.
        assert!(gate(&slower, None, &zero).0);
    }

    #[test]
    fn require_host_catches_a_dropped_flag() {
        let bare = vec![rec("fig08", 1.0, None)];
        let opts = HostGateOptions { require_host: true, ..Default::default() };
        let (pass, findings) = gate(&bare, None, &opts);
        assert!(!pass);
        assert!(findings[0].contains("--host"), "{findings:?}");
        let annotated = vec![rec("fig08", 1.0, Some(section(Some(10))))];
        assert!(gate(&annotated, None, &opts).0);
    }
}
