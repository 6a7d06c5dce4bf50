//! Output checks for the in-process workloads. They run after the timed
//! passes; each simulation run of each pass counts as one attempted
//! operation, failed when any check on it fails.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use sc_probe::json::{self, Value};
use sc_tensor::dense::{dense_close, matmul_reference};

use crate::suite::{matrix, Pass, Suite, Task};

/// Pinned seed-0 outputs of one workload, by run name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expected {
    /// `(checksum, cycles)` by run name.
    pub runs: BTreeMap<String, (u64, u64)>,
}

/// Parse a `0x`-prefixed hex string.
pub fn hex(v: &Value) -> Option<u64> {
    u64::from_str_radix(v.as_str()?.strip_prefix("0x")?, 16).ok()
}

impl Expected {
    /// Read `expected/<workload>.json`.
    ///
    /// # Errors
    ///
    /// Missing file or malformed content.
    pub fn load(path: &Path) -> Result<Expected, String> {
        let doc = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let v = json::parse(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
        let runs = v.get("runs").and_then(Value::as_arr).ok_or("expected file has no 'runs'")?;
        let mut out = Expected::default();
        for r in runs {
            let name = r.get("name").and_then(Value::as_str).ok_or("run without 'name'")?;
            let checksum = r.get("checksum").and_then(hex).ok_or("run without hex 'checksum'")?;
            let cycles = r.get("cycles").and_then(Value::as_f64).ok_or("run without 'cycles'")?;
            out.runs.insert(name.to_string(), (checksum, cycles as u64));
        }
        Ok(out)
    }

    /// Pin the outputs of `pass`.
    pub fn from_pass(suite: &Suite, pass: &Pass) -> Expected {
        let runs = suite
            .runs
            .iter()
            .zip(&pass.runs)
            .map(|(r, o)| (r.name.clone(), (o.checksum, o.cycles)))
            .collect();
        Expected { runs }
    }

    /// The file form, one run per line in run order.
    pub fn render(&self, workload: &str, suite: &Suite) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":0,\"runs\":[\n");
        for (i, r) in suite.runs.iter().enumerate() {
            let (checksum, cycles) = self.runs[&r.name];
            let sep = if i + 1 == suite.runs.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"checksum\":\"{}\",\"cycles\":{cycles}}}{sep}",
                r.name,
                sc_report::hex(checksum)
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Check every run of every pass: equal to the first pass (determinism,
/// and the traced pass reproducing the untraced one), equal to the other
/// runs of its group (the other backend or SU count), equal to the pinned
/// seed-0 outputs when given, and — for unsampled spmspm runs whose
/// product the first pass kept — equal to the dense reference.
///
/// Returns `(attempted, failures)`.
pub fn check_passes(
    suite: &Suite,
    passes: &[&Pass],
    expected: Option<&Expected>,
    seed: u64,
) -> (u64, Vec<String>) {
    let mut attempted = 0;
    let mut failures = Vec::new();
    let first = passes[0];
    let mut references = BTreeMap::new();
    for (p, pass) in passes.iter().enumerate() {
        let mut group_heads: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for (i, (run, out)) in suite.runs.iter().zip(&pass.runs).enumerate() {
            attempted += 1;
            let mut why = Vec::new();
            let f0 = &first.runs[i];
            if (out.checksum, out.value_hash, out.cycles) != (f0.checksum, f0.value_hash, f0.cycles)
            {
                why.push(format!("differs from pass 0 (cycles {} vs {})", out.cycles, f0.cycles));
            }
            let head = *group_heads.entry(&run.group).or_insert((out.checksum, out.value_hash));
            if head != (out.checksum, out.value_hash) {
                why.push(format!(
                    "output {:#x} disagrees with its group ({:#x})",
                    out.value_hash, head.1
                ));
            }
            if let Some(e) = expected {
                match e.runs.get(&run.name) {
                    None => why.push("no pinned output".into()),
                    Some(&(c, cy)) if (c, cy) != (out.checksum, out.cycles) => why.push(format!(
                        "pinned checksum {c:#x} cycles {cy}, got {:#x} {}",
                        out.checksum, out.cycles
                    )),
                    Some(_) => {}
                }
            }
            if let (Some(c), Task::Spmspm(_, m)) = (&out.product, run.task) {
                let reference = references.entry(m.tag()).or_insert_with(|| {
                    let a = matrix(m, seed);
                    matmul_reference(&a, &a)
                });
                if !dense_close(&c.to_dense(), reference, 1e-9) {
                    why.push("product differs from the dense reference".into());
                }
            }
            if !why.is_empty() {
                failures.push(format!("pass {p} {}: {}", run.name, why.join("; ")));
            }
        }
    }
    (attempted, failures)
}
