//! # sc-report — cross-run observability for the SparseCore reproduction
//!
//! The simulation stack measures one run at a time; this crate makes runs
//! comparable **across** invocations, commits, and machines. It has three
//! parts, mirrored by the `sc-report` CLI:
//!
//! * [`record`] / [`registry`] — the canonical [`RunRecord`] every bench
//!   binary emits per workload under `--record`, and the on-disk registry
//!   layout (`results/runs/` for fresh runs, `results/golden/` for pinned
//!   baselines);
//! * [`regress`] — the noise-aware regression verdict: exact comparison
//!   for deterministic metrics (modeled cycles, functional checksums,
//!   cycle attribution), median-of-N with a tolerance band for wall-clock;
//! * [`scoreboard`] / [`trend`] — paper fidelity (measured geomean
//!   speedups vs the figures in `results/paper_reference.json`, with
//!   per-figure drift budgets) and the cross-commit `BENCH_sc.json`
//!   trajectory CI archives;
//! * [`explain`] / [`html`] — the causal layer: rank the cycle delta
//!   between two registries by (workload × stall cause) via
//!   `sc-explain` (printed automatically when a compare fails), and the
//!   self-contained HTML dashboard (scoreboard, attribution treemap,
//!   per-core span timelines, trend sparklines).
//!
//! Everything is hand-rolled JSON over `sc_probe::json` — the workspace
//! builds offline, with no serde.

pub mod explain;
pub mod host;
pub mod html;
pub mod record;
pub mod registry;
pub mod regress;
pub mod scoreboard;
pub mod tightness;
pub mod trend;

pub use explain::{attr_map, rank as explain_rank, render as explain_render};
pub use host::{gate as host_gate, summarize as host_summarize, HostGateOptions, HostRow};
pub use html::{render as html_render, Dashboard};
pub use record::{
    append_records, current_git_sha, fnv1a, hex, parse_record_file, render_record_file,
    CostSection, HostSection, RunRecord, ATTR_BINS, SCHEMA_VERSION,
};
pub use registry::{load_path, load_paths};
pub use regress::{compare, CompareOptions, Finding, Severity, Verdict};
pub use scoreboard::{overall_drift_pct, scoreboard, FigureScore, Metric, Reference};
pub use tightness::{summarize as tightness_summarize, TightnessRow};
pub use trend::{merge_points, parse_bench_json, render_bench_json, trend, TrendHost, TrendPoint};
