//! The cross-commit trend report: one trajectory point per git SHA,
//! emitted as `BENCH_sc.json` for CI to archive and diff.

use std::collections::BTreeMap;

use sc_host::Phase;
use sc_probe::json::{self, Value};

use crate::record::RunRecord;

/// One commit's aggregate point on the trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendPoint {
    /// The commit the records were produced at.
    pub git_sha: String,
    /// Records contributing to this point.
    pub records: usize,
    /// Sum of modeled cycles over all records (exact; any change between
    /// commits means the model changed).
    pub total_cycles: u64,
    /// Geomean speedup over the records that carry a baseline.
    pub gmean_speedup: Option<f64>,
    /// Sum of wall-clock milliseconds (noisy; for orientation only).
    pub total_wall_ms: f64,
    /// Per-bench record counts, for spotting coverage drift at a glance.
    pub per_bench: BTreeMap<String, usize>,
    /// Host-perf aggregate over the records that carry a `host` section
    /// (absent for pre-host registries).
    pub host: Option<TrendHost>,
}

/// The host-perf slice of a trend point.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendHost {
    /// Summed per-phase host wall ms, in [`Phase::ALL`] order.
    pub phase_ms: [f64; Phase::COUNT],
    /// Max peak RSS (kB) seen across the point's records; 0 when no
    /// record could sample RSS (non-Linux hosts).
    pub peak_rss_kb: u64,
    /// Records produced per host wall second — the throughput number
    /// the ROADMAP host-parallel refactor must move.
    pub records_per_s: f64,
}

/// Fold records into one [`TrendPoint`] per git SHA, in first-appearance
/// order (registry files are appended chronologically, so first
/// appearance tracks history without needing timestamps in the record).
pub fn trend(records: &[RunRecord]) -> Vec<TrendPoint> {
    let mut order: Vec<String> = Vec::new();
    let mut by_sha: BTreeMap<String, Vec<&RunRecord>> = BTreeMap::new();
    for r in records {
        if !by_sha.contains_key(&r.git_sha) {
            order.push(r.git_sha.clone());
        }
        by_sha.entry(r.git_sha.clone()).or_default().push(r);
    }
    order
        .into_iter()
        .map(|sha| {
            let group = &by_sha[&sha];
            let speedups: Vec<f64> =
                group.iter().filter_map(|r| r.speedup()).filter(|s| *s > 0.0).collect();
            let gmean_speedup = (!speedups.is_empty()).then(|| {
                (speedups.iter().map(|s| s.ln()).sum::<f64>() / speedups.len() as f64).exp()
            });
            let mut per_bench: BTreeMap<String, usize> = BTreeMap::new();
            for r in group {
                *per_bench.entry(r.bench.clone()).or_default() += 1;
            }
            let total_wall_ms: f64 = group.iter().map(|r| r.wall_ms).sum();
            let mut phase_ms = [0.0; Phase::COUNT];
            let mut peak_rss_kb = 0u64;
            let mut with_host = 0usize;
            for r in group {
                if let Some(h) = &r.host {
                    with_host += 1;
                    for (acc, ms) in phase_ms.iter_mut().zip(h.phase_ms) {
                        *acc += ms;
                    }
                    peak_rss_kb = peak_rss_kb.max(h.peak_rss_kb.unwrap_or(0));
                }
            }
            let host = (with_host > 0).then(|| TrendHost {
                phase_ms,
                peak_rss_kb,
                records_per_s: if total_wall_ms > 0.0 {
                    group.len() as f64 / (total_wall_ms / 1e3)
                } else {
                    0.0
                },
            });
            TrendPoint {
                git_sha: sha,
                records: group.len(),
                total_cycles: group.iter().map(|r| r.cycles).sum(),
                gmean_speedup,
                total_wall_ms,
                per_bench,
                host,
            }
        })
        .collect()
}

/// Merge freshly computed points into an existing trajectory: existing
/// points keep their order, a fresh point for an already-present SHA
/// *replaces* it in place (re-recording a commit updates the point
/// instead of duplicating it), and genuinely new SHAs append at the
/// end. This is what lets `BENCH_sc.json` accumulate one point per
/// recorded run across commits.
pub fn merge_points(existing: Vec<TrendPoint>, fresh: Vec<TrendPoint>) -> Vec<TrendPoint> {
    let mut out = existing;
    for p in fresh {
        match out.iter_mut().find(|e| e.git_sha == p.git_sha) {
            Some(slot) => *slot = p,
            None => out.push(p),
        }
    }
    out
}

/// Serialize trend points as the `BENCH_sc.json` document:
/// `{"schema": 1, "points": [...]}`.
pub fn render_bench_json(points: &[TrendPoint]) -> String {
    let mut out = String::from("{\"schema\":1,\"points\":[\n");
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("{\"git_sha\":");
        json::write_str(&mut out, &p.git_sha);
        out.push_str(&format!(",\"records\":{},\"total_cycles\":{}", p.records, p.total_cycles));
        out.push_str(",\"gmean_speedup\":");
        match p.gmean_speedup {
            Some(g) => json::write_f64(&mut out, (g * 10_000.0).round() / 10_000.0),
            None => out.push_str("null"),
        }
        out.push_str(",\"total_wall_ms\":");
        json::write_f64(&mut out, (p.total_wall_ms * 1_000.0).round() / 1_000.0);
        out.push_str(",\"per_bench\":{");
        for (i, (bench, n)) in p.per_bench.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, bench);
            out.push_str(&format!(":{n}"));
        }
        out.push('}');
        if let Some(h) = &p.host {
            out.push_str(",\"host\":{\"phase_ms\":{");
            for (i, phase) in Phase::ALL.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(&mut out, phase.name());
                out.push(':');
                json::write_f64(&mut out, (h.phase_ms[i] * 1_000.0).round() / 1_000.0);
            }
            out.push_str(&format!("}},\"peak_rss_kb\":{},\"records_per_s\":", h.peak_rss_kb));
            json::write_f64(&mut out, (h.records_per_s * 1_000.0).round() / 1_000.0);
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("\n]}\n");
    out
}

/// Parse a `BENCH_sc.json` trajectory document back into trend points.
///
/// # Errors
///
/// Structural problems, naming the offending point.
pub fn parse_bench_json(doc: &str) -> Result<Vec<TrendPoint>, String> {
    let v = json::parse(doc).map_err(|e| format!("BENCH_sc.json is not valid JSON: {e}"))?;
    let schema =
        v.get("schema").and_then(Value::as_f64).ok_or("BENCH_sc.json: missing 'schema'")?;
    if schema as u64 != 1 {
        return Err(format!("BENCH_sc.json: schema {schema} != supported 1"));
    }
    let pts =
        v.get("points").and_then(Value::as_arr).ok_or("BENCH_sc.json: missing 'points' array")?;
    let mut out = Vec::with_capacity(pts.len());
    for (i, p) in pts.iter().enumerate() {
        let num =
            |key: &str| p.get(key).and_then(Value::as_f64).ok_or(format!("point {i}: '{key}'"));
        let mut per_bench = BTreeMap::new();
        if let Some(map) = p.get("per_bench").and_then(Value::as_obj) {
            for (bench, n) in map {
                per_bench.insert(bench.clone(), n.as_f64().unwrap_or(0.0) as usize);
            }
        }
        let host = match p.get("host") {
            None | Some(Value::Null) => None,
            Some(h) => {
                let phases = h.get("phase_ms").ok_or(format!("point {i}: host.phase_ms"))?;
                let mut phase_ms = [0.0; Phase::COUNT];
                for (j, phase) in Phase::ALL.into_iter().enumerate() {
                    phase_ms[j] = phases
                        .get(phase.name())
                        .and_then(Value::as_f64)
                        .ok_or(format!("point {i}: host.phase_ms.{}", phase.name()))?;
                }
                Some(TrendHost {
                    phase_ms,
                    peak_rss_kb: h
                        .get("peak_rss_kb")
                        .and_then(Value::as_f64)
                        .ok_or(format!("point {i}: host.peak_rss_kb"))?
                        as u64,
                    records_per_s: h
                        .get("records_per_s")
                        .and_then(Value::as_f64)
                        .ok_or(format!("point {i}: host.records_per_s"))?,
                })
            }
        };
        out.push(TrendPoint {
            git_sha: p
                .get("git_sha")
                .and_then(Value::as_str)
                .ok_or(format!("point {i}: 'git_sha'"))?
                .to_string(),
            records: num("records")? as usize,
            total_cycles: num("total_cycles")? as u64,
            gmean_speedup: p.get("gmean_speedup").and_then(Value::as_f64),
            total_wall_ms: num("total_wall_ms")?,
            per_bench,
            host,
        });
    }
    Ok(out)
}

/// Render the trend as an aligned plain-text table for the terminal.
pub fn render_text(points: &[TrendPoint]) -> String {
    let mut out = format!(
        "{:<14} {:>8} {:>16} {:>10} {:>12} {:>8}\n",
        "git_sha", "records", "total_cycles", "gmean", "wall_ms", "rec/s"
    );
    for p in points {
        out.push_str(&format!(
            "{:<14} {:>8} {:>16} {:>10} {:>12.1} {:>8}\n",
            p.git_sha,
            p.records,
            p.total_cycles,
            p.gmean_speedup.map_or("-".into(), |g| format!("{g:.2}x")),
            p.total_wall_ms,
            p.host.as_ref().map_or("-".into(), |h| format!("{:.1}", h.records_per_s)),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(sha: &str, bench: &str, cycles: u64, baseline: Option<u64>) -> RunRecord {
        RunRecord {
            bench: bench.into(),
            workload: "w".into(),
            git_sha: sha.into(),
            config_digest: 1,
            checksum: 2,
            cycles,
            baseline_cycles: baseline,
            wall_ms: 3.0,
            attr: [0; 5],
            cost: None,
            host: None,
        }
    }

    #[test]
    fn points_follow_first_appearance_order() {
        let records = vec![
            rec("bbb", "fig08", 100, Some(400)),
            rec("aaa", "fig08", 100, Some(900)),
            rec("bbb", "fig15", 50, None),
        ];
        let points = trend(&records);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].git_sha, "bbb");
        assert_eq!(points[0].records, 2);
        assert_eq!(points[0].total_cycles, 150);
        assert!((points[0].gmean_speedup.unwrap() - 4.0).abs() < 1e-9);
        assert_eq!(points[0].per_bench["fig15"], 1);
        assert_eq!(points[1].git_sha, "aaa");
        assert!((points[1].gmean_speedup.unwrap() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn bench_json_parses_and_carries_points() {
        let points = trend(&[rec("abc", "fig08", 100, Some(250))]);
        let doc = render_bench_json(&points);
        let v = json::parse(&doc).unwrap();
        assert_eq!(v.get("schema").unwrap().as_f64(), Some(1.0));
        let pts = v.get("points").unwrap().as_arr().unwrap();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].get("git_sha").unwrap().as_str(), Some("abc"));
        assert_eq!(pts[0].get("gmean_speedup").unwrap().as_f64(), Some(2.5));
        assert!(render_text(&points).contains("abc"));
    }

    fn hosted(sha: &str, cycles: u64) -> RunRecord {
        let mut r = rec(sha, "fig08", cycles, Some(4 * cycles));
        r.host = Some(crate::record::HostSection {
            phase_ms: [1.0, 0.125, 0.25, 1.5, 0.125, 0.0],
            peak_rss_kb: Some(50_000),
            alloc_count: 10,
            alloc_bytes: 1000,
            alloc_peak_bytes: 2000,
        });
        r
    }

    #[test]
    fn host_aggregate_sums_phases_and_derives_throughput() {
        let points = trend(&[hosted("abc", 100), hosted("abc", 200), rec("abc", "fig15", 1, None)]);
        assert_eq!(points.len(), 1);
        let h = points[0].host.as_ref().expect("host records present");
        assert!((h.phase_ms[0] - 2.0).abs() < 1e-9, "generate sums over host records");
        assert_eq!(h.peak_rss_kb, 50_000);
        // 3 records over 9 ms of total wall.
        assert!((h.records_per_s - 3.0 / 9.0e-3).abs() < 1e-6);
        // No host sections at all → no host aggregate.
        assert!(trend(&[rec("abc", "fig08", 1, None)])[0].host.is_none());
    }

    /// The BENCH_sc.json schema guard: render → parse → render is
    /// byte-stable (so CI merges are idempotent), the host slice
    /// round-trips, and non-schema-1 documents are rejected.
    #[test]
    fn bench_json_schema_round_trips_byte_stable() {
        let points = trend(&[hosted("abc", 100), rec("def", "fig08", 7, None), hosted("ghi", 300)]);
        let doc = render_bench_json(&points);
        let parsed = parse_bench_json(&doc).unwrap();
        // Rendering rounds floats to fixed precision, so stability is
        // judged on the rendered form: one extra round trip is identity.
        assert_eq!(render_bench_json(&parsed), doc, "second render must be byte-identical");
        assert_eq!(parsed.len(), points.len());
        assert_eq!(parsed[0].host.as_ref().unwrap().peak_rss_kb, 50_000);
        assert!(parsed[1].host.is_none());
        assert!(parse_bench_json("{\"schema\":2,\"points\":[]}").unwrap_err().contains("schema"));
        assert!(parse_bench_json("{\"points\":[]}").unwrap_err().contains("schema"));
    }

    #[test]
    fn bench_json_round_trips() {
        let points = trend(&[rec("abc", "fig08", 40, Some(100))]);
        let parsed = parse_bench_json(&render_bench_json(&points)).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].git_sha, "abc");
        assert_eq!(parsed[0].total_cycles, 40);
        assert_eq!(parsed[0].per_bench["fig08"], 1);
        assert!(parse_bench_json("[]").is_err());
    }

    /// The accumulation fix: merging a fresh run into an existing
    /// trajectory appends new SHAs in order and replaces re-recorded
    /// SHAs in place, never duplicating or reordering.
    #[test]
    fn merge_accumulates_one_point_per_sha_in_stable_order() {
        let existing = trend(&[rec("aaa", "fig08", 10, None), rec("bbb", "fig08", 20, None)]);
        let fresh = trend(&[hosted("bbb", 99), hosted("ccc", 30)]);
        let merged = merge_points(existing.clone(), fresh);
        let shas: Vec<_> = merged.iter().map(|p| p.git_sha.as_str()).collect();
        assert_eq!(shas, ["aaa", "bbb", "ccc"], "append order stable, no duplicates");
        assert_eq!(merged[0], existing[0], "untouched point survives verbatim");
        assert_eq!(merged[1].total_cycles, 99, "re-recorded SHA replaced in place");
        assert!(merged[1].host.is_some(), "replacement carries the fresh host slice");
        // Merging the same fresh set again is a no-op.
        let again = merge_points(merged.clone(), trend(&[hosted("bbb", 99), hosted("ccc", 30)]));
        assert_eq!(again, merged);
    }
}
