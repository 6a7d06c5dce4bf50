//! The self-contained run dashboard: one HTML file, no external assets,
//! built from the same artifacts the CLI already consumes — a run
//! registry, an optional `--spans` span document, an optional
//! `paper_reference.json`, and an optional `BENCH_sc.json` trajectory.
//!
//! Four sections:
//!
//! * **fidelity scoreboard** — the [`crate::scoreboard`] rows as a table;
//! * **attribution treemap** — one tile per workload, area proportional
//!   to its modeled cycles, filled with a stacked bar of the five
//!   attribution bins;
//! * **per-core timeline** — the span segments as SVG rects on a
//!   simulated-clock axis, one lane per core, colored by wait site;
//! * **trend sparklines** — total modeled cycles and geomean speedup
//!   per commit from `BENCH_sc.json`.
//!
//! Everything renders from inline SVG/CSS; `title` attributes carry the
//! hover detail, so the file needs no JavaScript.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sc_probe::{Site, SpanSnapshot};

use crate::record::{RunRecord, ATTR_BINS};
use crate::scoreboard::FigureScore;
use crate::trend::TrendPoint;

/// Bin colors, in [`ATTR_BINS`] order (colorblind-safe-ish palette).
const BIN_COLORS: [&str; 5] = ["#4477aa", "#66ccee", "#ee6677", "#ccbb44", "#aa3377"];

/// Site colors, in [`Site::ALL`] order.
const SITE_COLORS: [&str; 9] = [
    "#aa3377", // scalar
    "#4477aa", // su_busy
    "#6699cc", // su_retire
    "#222255", // drain
    "#66ccee", // stream_setup
    "#44aa99", // scache_fill
    "#ee6677", // mem_ready
    "#ccbb44", // translator
    "#bbbbbb", // chunk_claim
];

/// Everything the dashboard can show; only `records` is required.
#[derive(Debug, Default)]
pub struct Dashboard {
    /// Registry records (the treemap and, absent a trajectory file, the
    /// trend fall back to these).
    pub records: Vec<RunRecord>,
    /// Per-workload span snapshots from a bench `--spans` document.
    pub spans: Vec<(String, Vec<SpanSnapshot>)>,
    /// Scoreboard rows, when a reference file was given.
    pub scores: Vec<FigureScore>,
    /// Cross-commit trajectory, when `BENCH_sc.json` was given.
    pub trend: Vec<TrendPoint>,
}

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Render the dashboard as one self-contained HTML document.
pub fn render(d: &Dashboard) -> String {
    let mut out = String::with_capacity(64 * 1024);
    out.push_str(HEADER);
    let _ = write!(
        out,
        "<h1>SparseCore run dashboard</h1>\n<p class=meta>{} run records · {} span workloads · \
         {} scoreboard figures · {} trend points</p>\n",
        d.records.len(),
        d.spans.len(),
        d.scores.len(),
        d.trend.len()
    );
    if !d.scores.is_empty() {
        scoreboard_section(&mut out, &d.scores);
    }
    if !d.records.is_empty() {
        treemap_section(&mut out, &d.records);
    }
    if !d.spans.is_empty() {
        timeline_section(&mut out, &d.spans);
    }
    if !d.trend.is_empty() {
        trend_section(&mut out, &d.trend);
    }
    out.push_str("</body></html>\n");
    out
}

const HEADER: &str = "<!doctype html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
<title>SparseCore run dashboard</title>\n<style>\n\
body{font:14px/1.45 system-ui,sans-serif;margin:2rem auto;max-width:1100px;color:#1a1a2e}\n\
h1{font-size:1.5rem} h2{font-size:1.15rem;margin-top:2rem;border-bottom:1px solid #ddd}\n\
.meta{color:#666}\n\
table{border-collapse:collapse;font-size:13px} td,th{padding:3px 9px;border:1px solid #ddd;text-align:right}\n\
td:first-child,th:first-child{text-align:left}\n\
.ok{background:#e6f4e6} .fail{background:#fae1e1}\n\
.treemap{display:flex;flex-wrap:wrap;gap:3px}\n\
.tile{display:flex;flex-direction:column;min-width:60px;border:1px solid #bbb;border-radius:3px;overflow:hidden}\n\
.tile .lbl{font-size:11px;padding:1px 4px;white-space:nowrap;overflow:hidden;text-overflow:ellipsis}\n\
.tile .bar{display:flex;height:26px}\n\
.legend{display:flex;flex-wrap:wrap;gap:10px;font-size:12px;margin:8px 0}\n\
.legend span{display:inline-flex;align-items:center;gap:4px}\n\
.swatch{display:inline-block;width:12px;height:12px;border-radius:2px}\n\
svg{background:#fafafa;border:1px solid #ddd;border-radius:3px}\n\
.spark{display:inline-block;margin-right:2rem}\n\
</style></head><body>\n";

fn legend(out: &mut String, names: &[&str], colors: &[&str]) {
    out.push_str("<div class=legend>");
    for (name, color) in names.iter().zip(colors) {
        let _ = write!(
            out,
            "<span><i class=swatch style=\"background:{color}\"></i>{}</span>",
            esc(name)
        );
    }
    out.push_str("</div>\n");
}

fn scoreboard_section(out: &mut String, scores: &[FigureScore]) {
    out.push_str(
        "<h2>Paper-fidelity scoreboard</h2>\n<table><tr><th>figure</th><th>metric</th>\
<th>n</th><th>measured</th><th>reference</th><th>drift</th><th>budget</th><th>ok</th>\
<th>title</th></tr>\n",
    );
    for s in scores {
        let (metric, measured, reference) = match s.figure.metric {
            crate::scoreboard::Metric::Speedup => (
                "speedup",
                s.measured_gmean.map_or("-".into(), |m| format!("{m:.2}x")),
                s.figure.reference_gmean.map_or("-".into(), |r| format!("{r:.2}x")),
            ),
            crate::scoreboard::Metric::Checksum => (
                "checksum",
                format!("{}/{}", s.matched, s.figure.expected_checksums.len()),
                "exact".into(),
            ),
        };
        let cls = if s.within_budget() { "ok" } else { "fail" };
        let _ = writeln!(
            out,
            "<tr class={cls}><td>{}</td><td>{metric}</td><td>{}</td><td>{measured}</td>\
             <td>{reference}</td><td>{}</td><td>±{:.0}%</td><td>{}</td><td>{}</td></tr>",
            esc(&s.figure.id),
            s.matched,
            s.drift_pct.map_or("-".into(), |dr| format!("{dr:+.1}%")),
            s.figure.budget_pct,
            if s.within_budget() { "ok" } else { "FAIL" },
            esc(&s.figure.title),
        );
    }
    out.push_str("</table>\n");
}

fn treemap_section(out: &mut String, records: &[RunRecord]) {
    out.push_str(
        "<h2>Cycle-attribution treemap</h2>\n\
<p class=meta>one tile per workload, width ∝ modeled cycles; each tile stacks its five \
attribution bins</p>\n",
    );
    legend(out, &ATTR_BINS, &BIN_COLORS);
    // Last record per key wins, matching the regression gate.
    let mut by_key: BTreeMap<String, &RunRecord> = BTreeMap::new();
    for r in records {
        by_key.insert(format!("{}/{}", r.bench, r.workload), r);
    }
    let max_cycles = by_key.values().map(|r| r.cycles).max().unwrap_or(0).max(1);
    out.push_str("<div class=treemap>\n");
    for (key, r) in &by_key {
        let total: u64 = r.attr.iter().sum();
        if total == 0 {
            continue;
        }
        // flex-grow ∝ cycles gives the area-proportional tiling; a
        // minimum width keeps small workloads visible and labeled.
        let grow = r.cycles as f64 / max_cycles as f64;
        let _ = write!(
            out,
            "<div class=tile style=\"flex-grow:{grow:.4}\" title=\"{}: {} cycles\">\
             <span class=lbl>{}</span><span class=bar>",
            esc(key),
            r.cycles,
            esc(key)
        );
        for (i, (&cycles, name)) in r.attr.iter().zip(ATTR_BINS).enumerate() {
            if cycles == 0 {
                continue;
            }
            let pct = cycles as f64 * 100.0 / total as f64;
            let _ = write!(
                out,
                "<i style=\"flex:{pct:.2};background:{}\" title=\"{name}: {cycles} cycles \
                 ({pct:.1}%)\"></i>",
                BIN_COLORS[i]
            );
        }
        out.push_str("</span></div>\n");
    }
    out.push_str("</div>\n");
}

fn timeline_section(out: &mut String, spans: &[(String, Vec<SpanSnapshot>)]) {
    out.push_str(
        "<h2>Per-core timelines (simulated clock)</h2>\n\
<p class=meta>one lane per core, colored by the dependency-edge site the core was on; \
grey is end-of-run idle at the multicore barrier</p>\n",
    );
    let site_names: Vec<&str> = Site::ALL.iter().map(|s| s.name()).collect();
    legend(out, &site_names, &SITE_COLORS);
    const W: f64 = 1040.0;
    const LANE: f64 = 22.0;
    const GAP: f64 = 6.0;
    const LEFT: f64 = 52.0;
    for (workload, snaps) in spans {
        if snaps.is_empty() {
            continue;
        }
        let makespan = snaps.iter().map(|s| s.total + s.idle_tail).max().unwrap_or(0).max(1);
        let h = snaps.len() as f64 * (LANE + GAP) + GAP;
        let _ = write!(
            out,
            "<h3>{} <small class=meta>({} cycle makespan, {} core(s))</small></h3>\n\
             <svg width=\"{:.0}\" height=\"{h:.0}\" viewBox=\"0 0 {:.0} {h:.0}\">\n",
            esc(workload),
            makespan,
            snaps.len(),
            W + LEFT,
            W + LEFT
        );
        let x = |cycle: u64| LEFT + cycle as f64 / makespan as f64 * W;
        for (lane, snap) in snaps.iter().enumerate() {
            let y = GAP + lane as f64 * (LANE + GAP);
            let _ = writeln!(
                out,
                "<text x=\"2\" y=\"{:.1}\" font-size=\"11\">core {}</text>",
                y + LANE - 7.0,
                snap.core
            );
            if snap.dropped > 0 {
                // The ring kept only the newest segments; mark the
                // unrecorded prefix so the gap reads as truncation, not
                // as idle time.
                if let Some(first) = snap.segments.first() {
                    let _ = writeln!(
                        out,
                        "<rect x=\"{:.2}\" y=\"{y:.1}\" width=\"{:.2}\" height=\"{LANE}\" \
                         fill=\"url(#drop)\" opacity=\"0.5\"><title>{} older segment(s) \
                         dropped from the ring</title></rect>",
                        x(0),
                        x(first.start) - x(0),
                        snap.dropped
                    );
                }
            }
            for seg in &snap.segments {
                let color = SITE_COLORS[seg.site as usize];
                let w = (x(seg.end) - x(seg.start)).max(0.25);
                let _ = writeln!(
                    out,
                    "<rect x=\"{:.2}\" y=\"{y:.1}\" width=\"{w:.2}\" height=\"{LANE}\" \
                     fill=\"{color}\"><title>core {}: [{}, {}) {} / {}</title></rect>",
                    x(seg.start),
                    snap.core,
                    seg.start,
                    seg.end,
                    seg.site.name(),
                    seg.site.bin().name()
                );
            }
        }
        // A hatched pattern for the dropped-prefix marker.
        out.push_str(
            "<defs><pattern id=\"drop\" width=\"6\" height=\"6\" \
             patternUnits=\"userSpaceOnUse\" patternTransform=\"rotate(45)\">\
             <rect width=\"6\" height=\"6\" fill=\"#eee\"/>\
             <line x1=\"0\" y1=\"0\" x2=\"0\" y2=\"6\" stroke=\"#999\" stroke-width=\"2\"/>\
             </pattern></defs>\n</svg>\n",
        );
    }
}

fn sparkline(out: &mut String, label: &str, values: &[f64]) {
    const W: f64 = 260.0;
    const H: f64 = 48.0;
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let span = (hi - lo).max(1e-12);
    let pts: Vec<String> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let x = if values.len() == 1 {
                W / 2.0
            } else {
                i as f64 / (values.len() - 1) as f64 * (W - 8.0) + 4.0
            };
            let y = H - 6.0 - (v - lo) / span * (H - 12.0);
            format!("{x:.1},{y:.1}")
        })
        .collect();
    let _ = write!(
        out,
        "<div class=spark><div class=meta>{} (last: {:.4})</div>\
         <svg width=\"{W:.0}\" height=\"{H:.0}\"><polyline fill=\"none\" stroke=\"#4477aa\" \
         stroke-width=\"1.5\" points=\"{}\"/>",
        esc(label),
        values.last().copied().unwrap_or(0.0),
        pts.join(" ")
    );
    if let Some(last) = pts.last() {
        let (x, y) = last.split_once(',').unwrap_or(("0", "0"));
        let _ = write!(out, "<circle cx=\"{x}\" cy=\"{y}\" r=\"2.5\" fill=\"#ee6677\"/>");
    }
    out.push_str("</svg></div>\n");
}

fn trend_section(out: &mut String, trend: &[TrendPoint]) {
    out.push_str("<h2>Cross-commit trend (BENCH_sc.json)</h2>\n");
    sparkline(
        out,
        "total modeled cycles",
        &trend.iter().map(|p| p.total_cycles as f64).collect::<Vec<_>>(),
    );
    let speedups: Vec<f64> = trend.iter().filter_map(|p| p.gmean_speedup).collect();
    if !speedups.is_empty() {
        sparkline(out, "geomean speedup", &speedups);
    }
    sparkline(
        out,
        "records per commit",
        &trend.iter().map(|p| p.records as f64).collect::<Vec<_>>(),
    );
    out.push_str(
        "<table><tr><th>git_sha</th><th>records</th><th>total_cycles</th>\
<th>gmean</th><th>benches</th></tr>\n",
    );
    for p in trend {
        let _ = writeln!(
            out,
            "<tr><td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{}</td></tr>",
            esc(&p.git_sha),
            p.records,
            p.total_cycles,
            p.gmean_speedup.map_or("-".into(), |g| format!("{g:.2}x")),
            p.per_bench.len()
        );
    }
    out.push_str("</table>\n");
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_probe::SpanLog;

    fn record(bench: &str, workload: &str, attr: [u64; 5]) -> RunRecord {
        RunRecord {
            bench: bench.into(),
            workload: workload.into(),
            git_sha: "abc".into(),
            config_digest: 1,
            checksum: 2,
            cycles: attr.iter().sum(),
            baseline_cycles: Some(attr.iter().sum::<u64>() * 3),
            wall_ms: 1.0,
            attr,
            cost: None,
            host: None,
        }
    }

    /// Core 0's snapshot after `cells`, kept in a `cap`-segment ring,
    /// with the per-site totals a ledger would hold.
    fn snap_of(cap: usize, cells: &[(u64, Site)]) -> SpanSnapshot {
        let mut log = SpanLog::new(cap);
        let mut totals = [0; Site::COUNT];
        for &(cycles, site) in cells {
            log.record(cycles, site);
            totals[site as usize] += cycles;
        }
        log.snapshot(0, totals)
    }

    fn spans_doc() -> Vec<(String, Vec<SpanSnapshot>)> {
        let mut snap = snap_of(16, &[(30, Site::Scalar), (20, Site::MemReady)]);
        snap.pad_idle(60);
        vec![("TC/C".into(), vec![snap])]
    }

    #[test]
    fn dashboard_renders_every_section_self_contained() {
        let records = vec![
            record("fig08", "TC/C", [100, 40, 10, 5, 50]),
            record("fig15", "spmspm/uni", [10, 10, 10, 0, 10]),
        ];
        let trend = crate::trend::trend(&records);
        let d = Dashboard { records, spans: spans_doc(), scores: Vec::new(), trend };
        let html = render(&d);
        assert!(html.starts_with("<!doctype html>"));
        assert!(html.contains("Cycle-attribution treemap"), "treemap section");
        assert!(html.contains("fig08/TC/C"), "workload tile");
        assert!(html.contains("Per-core timelines"), "timeline section");
        assert!(html.contains("mem_ready"), "site legend/segment");
        assert!(html.contains("Cross-commit trend"), "trend section");
        assert!(html.contains("<polyline"), "sparkline");
        // Self-contained: no external fetches of any kind.
        assert!(!html.contains("http://") && !html.contains("https://"), "external URL");
        assert!(!html.contains("<script"), "no JS needed");
    }

    #[test]
    fn timeline_hatches_the_dropped_prefix_when_the_ring_overflowed() {
        // An intact log renders no truncation marker...
        let html = render(&Dashboard { spans: spans_doc(), ..Dashboard::default() });
        assert!(!html.contains("url(#drop)"), "intact ring must not hatch");
        // ...but once the ring drops segments, the unrecorded prefix is
        // hatched and labelled so the gap reads as truncation, not idle.
        let snap = snap_of(2, &[(3, Site::Scalar), (4, Site::MemReady), (5, Site::SuBusy)]);
        assert!(snap.dropped > 0);
        let spans = vec![("TC/overflow".into(), vec![snap])];
        let html = render(&Dashboard { spans, ..Dashboard::default() });
        assert!(html.contains("url(#drop)"), "dropped prefix must hatch");
        assert!(html.contains("dropped from the ring"), "marker carries the drop count tooltip");
        assert!(html.contains("<pattern id=\"drop\""), "hatch pattern def is self-contained");
    }

    #[test]
    fn html_escapes_workload_labels() {
        let records = vec![record("fig08", "a<b>&\"c", [1, 0, 0, 0, 0])];
        let html = render(&Dashboard { records, ..Dashboard::default() });
        assert!(html.contains("a&lt;b&gt;&amp;&quot;c"), "{html}");
        assert!(!html.contains("a<b>"), "unescaped label leaked");
    }
}
