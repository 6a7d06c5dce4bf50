//! The paper-fidelity scoreboard: measured speedups vs the reference
//! values checked in as `results/paper_reference.json`.
//!
//! The reference file declares, per figure/table of the paper's
//! evaluation, which bench and workload subset feeds it, the reference
//! geomean (paper-reported where the paper states one, golden-pinned
//! otherwise), and a drift budget. The scoreboard computes the measured
//! geomean from run records, reports per-figure drift, and — under
//! `--gate` — fails when drift exceeds the declared budget.

use std::collections::BTreeMap;

use sc_probe::json::{self, Value};

use crate::record::{hex, RunRecord};

/// What a figure entry measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Geomean of `baseline_cycles / cycles` over the matching records.
    Speedup,
    /// Exact functional checksums per workload (Tables 3–5).
    Checksum,
}

/// One figure/table of the reference file.
#[derive(Debug, Clone)]
pub struct FigureRef {
    /// Stable id (`fig08`, `table4`, ...), the section key in the JSON.
    pub id: String,
    /// Short description shown in reports.
    pub title: String,
    /// Which bench binary feeds this figure.
    pub bench: String,
    /// Restrict to workloads with this prefix (empty = all).
    pub workload_prefix: String,
    /// What is measured.
    pub metric: Metric,
    /// Reference geomean for [`Metric::Speedup`] figures.
    pub reference_gmean: Option<f64>,
    /// Per-workload expected checksums for [`Metric::Checksum`] figures
    /// (hex strings in the file).
    pub expected_checksums: BTreeMap<String, u64>,
    /// Allowed |drift| in percent before the gate fails this figure.
    pub budget_pct: f64,
    /// Where the reference number comes from: `paper` or `golden`.
    pub source: String,
}

/// The parsed reference file.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Figures in file order (BTreeMap order of the `figures` object).
    pub figures: Vec<FigureRef>,
}

impl Reference {
    /// Parse `paper_reference.json`.
    ///
    /// # Errors
    ///
    /// Structural problems, with the figure id in the message.
    pub fn parse(doc: &str) -> Result<Self, String> {
        let v = json::parse(doc).map_err(|e| format!("reference is not valid JSON: {e}"))?;
        let figures_v =
            v.get("figures").and_then(Value::as_obj).ok_or("reference missing 'figures' object")?;
        let mut figures = Vec::new();
        for (id, f) in figures_v {
            let get_str = |key: &str| -> Result<String, String> {
                f.get(key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("{id}: missing string '{key}'"))
            };
            let metric = match get_str("metric")?.as_str() {
                "speedup" => Metric::Speedup,
                "checksum" => Metric::Checksum,
                other => return Err(format!("{id}: unknown metric '{other}'")),
            };
            let mut expected_checksums = BTreeMap::new();
            if let Some(map) = f.get("expected_checksums").and_then(Value::as_obj) {
                for (w, val) in map {
                    let s = val.as_str().ok_or(format!("{id}: checksum for '{w}' not a string"))?;
                    let raw = s.strip_prefix("0x").ok_or(format!("{id}: '{w}' not 0x hex"))?;
                    let parsed = u64::from_str_radix(raw, 16)
                        .map_err(|e| format!("{id}: '{w}' bad hex: {e}"))?;
                    expected_checksums.insert(w.clone(), parsed);
                }
            }
            let reference_gmean = f.get("reference_gmean").and_then(Value::as_f64);
            if metric == Metric::Speedup && reference_gmean.is_none() {
                return Err(format!("{id}: speedup figure needs 'reference_gmean'"));
            }
            if metric == Metric::Checksum && expected_checksums.is_empty() {
                return Err(format!("{id}: checksum figure needs 'expected_checksums'"));
            }
            figures.push(FigureRef {
                id: id.clone(),
                title: get_str("title")?,
                bench: get_str("bench")?,
                workload_prefix: f
                    .get("workload_prefix")
                    .and_then(Value::as_str)
                    .unwrap_or("")
                    .to_string(),
                metric,
                reference_gmean,
                expected_checksums,
                budget_pct: f
                    .get("budget_pct")
                    .and_then(Value::as_f64)
                    .ok_or(format!("{id}: missing numeric 'budget_pct'"))?,
                source: get_str("source")?,
            });
        }
        if figures.is_empty() {
            return Err("reference declares no figures".into());
        }
        Ok(Reference { figures })
    }
}

/// One figure's scoreboard row.
#[derive(Debug, Clone)]
pub struct FigureScore {
    /// The figure this scores.
    pub figure: FigureRef,
    /// Records that matched the bench + prefix filter.
    pub matched: usize,
    /// Measured geomean speedup (speedup figures with ≥1 match).
    pub measured_gmean: Option<f64>,
    /// Signed drift vs the reference, in percent.
    pub drift_pct: Option<f64>,
    /// Checksum mismatches / missing workloads (checksum figures).
    pub problems: Vec<String>,
}

impl FigureScore {
    /// Does this row stay inside its declared budget? Figures with no
    /// matching records are *not* ok — an empty scoreboard row means the
    /// workload matrix lost coverage, which the gate must notice.
    pub fn within_budget(&self) -> bool {
        if self.matched == 0 {
            return false;
        }
        match self.figure.metric {
            Metric::Speedup => self.drift_pct.is_some_and(|d| d.abs() <= self.figure.budget_pct),
            Metric::Checksum => self.problems.is_empty(),
        }
    }
}

/// Geometric mean (caller guarantees non-empty, positive).
fn gmean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Score every figure of `reference` against `records`.
pub fn scoreboard(records: &[RunRecord], reference: &Reference) -> Vec<FigureScore> {
    reference
        .figures
        .iter()
        .map(|figure| {
            let matching: Vec<&RunRecord> = records
                .iter()
                .filter(|r| {
                    r.bench == figure.bench && r.workload.starts_with(&figure.workload_prefix)
                })
                .collect();
            match figure.metric {
                Metric::Speedup => {
                    let speedups: Vec<f64> =
                        matching.iter().filter_map(|r| r.speedup()).filter(|s| *s > 0.0).collect();
                    let measured = (!speedups.is_empty()).then(|| gmean(&speedups));
                    let drift =
                        measured.zip(figure.reference_gmean).map(|(m, r)| (m / r - 1.0) * 100.0);
                    FigureScore {
                        figure: figure.clone(),
                        matched: speedups.len(),
                        measured_gmean: measured,
                        drift_pct: drift,
                        problems: Vec::new(),
                    }
                }
                Metric::Checksum => {
                    let mut problems = Vec::new();
                    let mut matched = 0usize;
                    for (workload, expected) in &figure.expected_checksums {
                        // Exact-compare against the *last* record for the
                        // workload (repeat runs append; determinism across
                        // repeats is the regression gate's job).
                        match matching.iter().rev().find(|r| &r.workload == workload) {
                            None => problems.push(format!("{workload}: no record")),
                            Some(r) if r.checksum != *expected => problems.push(format!(
                                "{workload}: checksum {} != expected {}",
                                hex(r.checksum),
                                hex(*expected)
                            )),
                            Some(_) => matched += 1,
                        }
                    }
                    FigureScore {
                        figure: figure.clone(),
                        matched,
                        measured_gmean: None,
                        drift_pct: None,
                        problems,
                    }
                }
            }
        })
        .collect()
}

/// Overall fidelity geomean drift across the speedup figures that have a
/// measurement (the single number CI surfaces in the job summary).
pub fn overall_drift_pct(scores: &[FigureScore]) -> Option<f64> {
    let ratios: Vec<f64> = scores
        .iter()
        .filter(|s| s.figure.metric == Metric::Speedup)
        .filter_map(|s| s.drift_pct)
        .map(|d| d / 100.0 + 1.0)
        .collect();
    (!ratios.is_empty()).then(|| (gmean(&ratios) - 1.0) * 100.0)
}

/// Render the scoreboard as aligned plain text.
pub fn render_text(scores: &[FigureScore]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<8} {:<7} {:>5} {:>10} {:>10} {:>9} {:>8} {:>6}  {}\n",
        "figure", "metric", "n", "measured", "reference", "drift%", "budget%", "ok", "title"
    ));
    for s in scores {
        let (metric, measured, reference) = match s.figure.metric {
            Metric::Speedup => (
                "speedup",
                s.measured_gmean.map_or("-".into(), |m| format!("{m:.2}x")),
                s.figure.reference_gmean.map_or("-".into(), |r| format!("{r:.2}x")),
            ),
            Metric::Checksum => (
                "checksum",
                format!("{}/{}", s.matched, s.figure.expected_checksums.len()),
                "exact".to_string(),
            ),
        };
        out.push_str(&format!(
            "{:<8} {:<7} {:>5} {:>10} {:>10} {:>9} {:>8} {:>6}  {} [{}]\n",
            s.figure.id,
            metric,
            s.matched,
            measured,
            reference,
            s.drift_pct.map_or("-".into(), |d| format!("{d:+.1}")),
            format!("{:.0}", s.figure.budget_pct),
            if s.within_budget() { "ok" } else { "FAIL" },
            s.figure.title,
            s.figure.source,
        ));
        for p in &s.problems {
            out.push_str(&format!("         !! {p}\n"));
        }
    }
    if let Some(d) = overall_drift_pct(scores) {
        out.push_str(&format!("overall fidelity geomean drift: {d:+.1}%\n"));
    }
    out
}

/// Render the scoreboard as a GitHub-flavored markdown table (CI step
/// summary / artifact).
pub fn render_markdown(scores: &[FigureScore]) -> String {
    let mut out = String::from("# SparseCore paper-fidelity scoreboard\n\n");
    out.push_str("| figure | metric | n | measured | reference | drift | budget | ok | source |\n");
    out.push_str("|---|---|---:|---:|---:|---:|---:|:--:|---|\n");
    for s in scores {
        let (metric, measured, reference) = match s.figure.metric {
            Metric::Speedup => (
                "speedup",
                s.measured_gmean.map_or("-".into(), |m| format!("{m:.2}x")),
                s.figure.reference_gmean.map_or("-".into(), |r| format!("{r:.2}x")),
            ),
            Metric::Checksum => (
                "checksum",
                format!("{}/{}", s.matched, s.figure.expected_checksums.len()),
                "exact".to_string(),
            ),
        };
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | ±{:.0}% | {} | {} |\n",
            s.figure.id,
            metric,
            s.matched,
            measured,
            reference,
            s.drift_pct.map_or("-".into(), |d| format!("{d:+.1}%")),
            s.figure.budget_pct,
            if s.within_budget() { "✅" } else { "❌" },
            s.figure.source,
        ));
    }
    if let Some(d) = overall_drift_pct(scores) {
        out.push_str(&format!("\n**Overall fidelity geomean drift: {d:+.1}%**\n"));
    }
    for s in scores {
        if !s.problems.is_empty() {
            out.push_str(&format!("\n<details><summary>{} problems</summary>\n\n", s.figure.id));
            for p in &s.problems {
                out.push_str(&format!("- {p}\n"));
            }
            out.push_str("\n</details>\n");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const REFERENCE: &str = r#"{
      "schema": 1,
      "figures": {
        "fig08": {
          "title": "SparseCore speedup over CPU",
          "bench": "fig08_cpu_speedup",
          "metric": "speedup",
          "reference_gmean": 10.0,
          "budget_pct": 50,
          "source": "paper"
        },
        "table4": {
          "title": "graph datasets",
          "bench": "datasets_report",
          "metric": "checksum",
          "workload_prefix": "table4/",
          "expected_checksums": {"table4/C": "0x0000000000001194"},
          "budget_pct": 0,
          "source": "golden"
        }
      }
    }"#;

    fn rec(
        bench: &str,
        workload: &str,
        cycles: u64,
        baseline: Option<u64>,
        checksum: u64,
    ) -> RunRecord {
        RunRecord {
            bench: bench.into(),
            workload: workload.into(),
            git_sha: "sha".into(),
            config_digest: 1,
            checksum,
            cycles,
            baseline_cycles: baseline,
            wall_ms: 1.0,
            attr: [0; 5],
            cost: None,
            host: None,
        }
    }

    #[test]
    fn parses_reference_and_scores_drift() {
        let reference = Reference::parse(REFERENCE).unwrap();
        assert_eq!(reference.figures.len(), 2);
        let records = vec![
            rec("fig08_cpu_speedup", "TC/C", 100, Some(800), 5),
            rec("fig08_cpu_speedup", "TC/E", 100, Some(1250), 7),
            rec("datasets_report", "table4/C", 0, None, 0x1194),
        ];
        let scores = scoreboard(&records, &reference);
        // gmean(8, 12.5) = 10 → zero drift.
        let fig08 = &scores[0];
        assert_eq!(fig08.matched, 2);
        assert!((fig08.measured_gmean.unwrap() - 10.0).abs() < 1e-9);
        assert!(fig08.drift_pct.unwrap().abs() < 1e-9);
        assert!(fig08.within_budget());
        let table4 = &scores[1];
        assert!(table4.within_budget(), "{:?}", table4.problems);
        assert!((overall_drift_pct(&scores).unwrap()).abs() < 1e-9);
        assert!(render_text(&scores).contains("fig08"));
        assert!(render_markdown(&scores).contains("| fig08 |"));
    }

    #[test]
    fn budget_violation_and_checksum_mismatch_fail() {
        let reference = Reference::parse(REFERENCE).unwrap();
        let records = vec![
            // 20x measured vs 10x reference = +100% drift > 50% budget.
            rec("fig08_cpu_speedup", "TC/C", 100, Some(2000), 5),
            rec("datasets_report", "table4/C", 0, None, 0xbad),
        ];
        let scores = scoreboard(&records, &reference);
        assert!(!scores[0].within_budget());
        assert!(!scores[1].within_budget());
        assert!(scores[1].problems[0].contains("checksum"));
    }

    #[test]
    fn empty_figures_are_not_ok() {
        let reference = Reference::parse(REFERENCE).unwrap();
        let scores = scoreboard(&[], &reference);
        assert!(scores.iter().all(|s| !s.within_budget()));
        // table4 reports the missing workload explicitly.
        assert!(scores[1].problems[0].contains("no record"));
    }

    #[test]
    fn reference_validation_rejects_bad_files() {
        assert!(Reference::parse("{}").is_err());
        assert!(Reference::parse(r#"{"figures":{}}"#).is_err());
        let missing_gmean = r#"{"figures":{"f":{"title":"t","bench":"b","metric":"speedup","budget_pct":1,"source":"paper"}}}"#;
        assert!(Reference::parse(missing_gmean).unwrap_err().contains("reference_gmean"));
        let bad_metric = r#"{"figures":{"f":{"title":"t","bench":"b","metric":"latency","budget_pct":1,"source":"paper"}}}"#;
        assert!(Reference::parse(bad_metric).unwrap_err().contains("unknown metric"));
    }
}
