//! Metric catalogue, statistics, and output: the `name value unit`
//! lines, the final JSON result line, and `bench/out/results.json`.

use std::collections::BTreeMap;
use std::path::Path;

use sc_probe::json::{self, Value};

/// One metric's identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: [MetricDef; 3] =
    [m("wall_s", "s", "lower"), m("setup_s", "s", "lower"), m("peak_rss_mb", "MB", "lower")];

/// Per-layer metrics, printed by traced runs (`--trace 1`). Every
/// workload reports every one of them.
pub const PER_LAYER: [MetricDef; 41] = [
    m("gen.build_ms", "ms", "lower"),
    m("setup.prep_ms", "ms", "lower"),
    m("exec.self_ms", "ms", "lower"),
    m("exec.backend_calls", "count", "lower"),
    m("cpu.sim_ms", "ms", "lower"),
    m("cpu.ctl_ms", "ms", "lower"),
    m("cpu.uops", "count", "lower"),
    m("cpu.branches", "count", "lower"),
    m("cpu.loads", "count", "lower"),
    m("cpu.mispredict_ratio", "ratio", "lower"),
    m("cpu.l1_hit_ratio", "ratio", "higher"),
    m("cpu.ns_per_uop", "ns", "lower"),
    m("sc.sim_ms", "ms", "lower"),
    m("sc.read_ms", "ms", "lower"),
    m("sc.setop_ms", "ms", "lower"),
    m("sc.other_ms", "ms", "lower"),
    m("sc.reads", "count", "lower"),
    m("sc.set_ops", "count", "lower"),
    m("sc.nested", "count", "lower"),
    m("sc.value_ops", "count", "lower"),
    m("sc.elements_streamed", "count", "lower"),
    m("sc.value_loads", "count", "lower"),
    m("sc.scratchpad_hit_ratio", "ratio", "higher"),
    m("sc.ns_per_element", "ns", "lower"),
    m("ledger.cpu_residual_pct", "%", "lower"),
    m("ledger.sc_residual_pct", "%", "lower"),
    m("trace.overhead_pct", "%", "lower"),
    m("harness.outside_ms", "ms", "lower"),
    m("runs.count", "count", "lower"),
    m("runs.repeat", "count", "lower"),
    m("runs.distinct_ratio", "ratio", "higher"),
    m("mem.cache_access_ns", "ns", "lower"),
    m("mem.hier_load_ns", "ns", "lower"),
    m("mem.scache_refill_ns", "ns", "lower"),
    m("cpu.gshare_ns", "ns", "lower"),
    m("cpu.core_ops_ns", "ns", "lower"),
    m("cpu.core_load_ns", "ns", "lower"),
    m("su.simulate_ns_per_elem", "ns", "lower"),
    m("setops.intersect_ns_per_elem", "ns", "lower"),
    m("probe.count_off_ns", "ns", "lower"),
    m("probe.count_on_ns", "ns", "lower"),
];

/// The median (mean of the middle two for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(xs, n=4)`; both equal the value when `n < 2`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// A measured metric: its samples, reported as their median.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Which metric.
    pub def: MetricDef,
    /// Raw samples.
    pub samples: Vec<f64>,
}

impl Measured {
    /// The reported value.
    pub fn value(&self) -> f64 {
        median(&self.samples)
    }

    fn summary(&self) -> Value {
        let (q1, q3) = quartiles(&self.samples);
        obj([
            ("unit", Value::Str(self.def.unit.into())),
            ("median", Value::Num(self.value())),
            ("q1", Value::Num(q1)),
            ("q3", Value::Num(q3)),
            ("n", Value::Num(self.samples.len() as f64)),
            ("samples", Value::Arr(self.samples.iter().map(|&x| Value::Num(x)).collect())),
        ])
    }
}

/// Build a JSON object.
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// Attach each metric's definition to its samples, in catalogue order.
///
/// # Panics
///
/// Panics if a catalogue metric has no samples: every run must report
/// every metric of its level.
pub fn collect(defs: &[MetricDef], mut samples: BTreeMap<&str, Vec<f64>>) -> Vec<Measured> {
    defs.iter()
        .map(|d| Measured {
            def: *d,
            samples: samples
                .remove(d.name)
                .unwrap_or_else(|| panic!("metric {} not measured", d.name)),
        })
        .collect()
}

/// Everything one workload run reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Operations attempted (simulation runs or expected records).
    pub attempted: u64,
    /// Failed operations, by name and reason.
    pub failures: Vec<String>,
    /// The metrics of the requested level.
    pub metrics: Vec<Measured>,
    /// Workload-specific details for `results.json`.
    pub details: Value,
}

impl Outcome {
    /// The `name value unit` lines.
    pub fn metric_lines(&self) -> Vec<String> {
        self.metrics
            .iter()
            .map(|m| format!("{} {} {}", m.def.name, m.value(), m.def.unit))
            .collect()
    }

    /// The final result line.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = obj([
                    ("value", Value::Num(m.value())),
                    ("unit", Value::Str(m.def.unit.into())),
                ]);
                (m.def.name.to_string(), v)
            })
            .collect();
        obj([
            ("correct", Value::Bool(self.failures.is_empty())),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failures.len() as f64)),
            ("metrics", Value::Obj(metrics)),
        ])
        .to_json()
    }

    fn to_value(&self, seed: u64, seconds: u64, trace: bool) -> Value {
        obj([
            ("seed", Value::Num(seed as f64)),
            ("seconds", Value::Num(seconds as f64)),
            ("trace", Value::Bool(trace)),
            ("attempted", Value::Num(self.attempted as f64)),
            ("failed", Value::Num(self.failures.len() as f64)),
            ("failures", Value::Arr(self.failures.iter().map(|f| Value::Str(f.clone())).collect())),
            (
                "metrics",
                Value::Obj(
                    self.metrics.iter().map(|m| (m.def.name.to_string(), m.summary())).collect(),
                ),
            ),
            ("details", self.details.clone()),
        ])
    }

    /// Merge this outcome into `path` (`results.json`), replacing the
    /// workload's previous entry and stamping the host facts.
    ///
    /// # Errors
    ///
    /// I/O failures, or an existing file that is not valid JSON.
    pub fn write_results(
        &self,
        path: &Path,
        seed: u64,
        seconds: u64,
        trace: bool,
    ) -> Result<(), String> {
        let mut root = match std::fs::read_to_string(path) {
            Ok(doc) => json::parse(&doc).map_err(|e| format!("{}: {e}", path.display()))?,
            Err(_) => Value::Obj(BTreeMap::new()),
        };
        let Value::Obj(top) = &mut root else {
            return Err(format!("{}: not a JSON object", path.display()));
        };
        top.insert("schema".into(), Value::Num(1.0));
        let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
        top.insert("available_parallelism".into(), Value::Num(threads as f64));
        let sha = std::env::var("BENCH_GIT_SHA").unwrap_or_else(|_| "unknown".into());
        top.insert("git_sha".into(), Value::Str(sha));
        let workloads =
            top.entry("workloads".into()).or_insert_with(|| Value::Obj(BTreeMap::new()));
        if let Value::Obj(w) = workloads {
            w.insert(self.workload.into(), self.to_value(seed, seconds, trace));
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, root.to_json() + "\n").map_err(|e| format!("{}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }
}
