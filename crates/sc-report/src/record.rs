//! The canonical per-workload run record and its JSON (de)serialization.
//!
//! Every bench binary emits one [`RunRecord`] per workload when invoked
//! with `--record`; `sc-report` aggregates them into scoreboards, trend
//! reports and regression verdicts. The record deliberately separates
//! three kinds of measurement:
//!
//! * **exact** fields — functional checksum, modeled cycles, and the
//!   5-bin cycle attribution. The simulator is deterministic, so these
//!   must reproduce bit-for-bit across runs of the same code + config;
//! * **noisy** fields — host wall-clock, compared with a tolerance band;
//! * **identity** fields — bench, workload, git SHA, schema version and
//!   the [`SparseCoreConfig` digest] that decides comparability.
//!
//! [`SparseCoreConfig` digest]: https://docs.rs/sparsecore (config.rs `digest()`)

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use sc_host::Phase;
use sc_probe::json::{self, Value};

/// Version of the record schema. Bump when a field is added, removed or
/// reinterpreted; readers reject records from other major versions.
/// Schema 2 dropped the per-record probe snapshot (`metrics`) and moved
/// the `--cost` tally into the typed [`CostSection`].
pub const SCHEMA_VERSION: u64 = 2;

/// Names of the five cycle-attribution bins, in storage order (mirrors
/// `sc_probe::AttrBin::ALL` without needing the enum itself).
pub const ATTR_BINS: [&str; 5] =
    ["su_compare", "scache_refill", "mem_stall", "translator", "scalar_overlap"];

/// One workload's worth of bench output.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Emitting binary (e.g. `fig08_cpu_speedup`).
    pub bench: String,
    /// Workload id within the bench (e.g. `TC/C`, `inner/T`, `fsm/mico/1000`).
    pub workload: String,
    /// Git commit the binary was built from (`unknown` outside a checkout).
    pub git_sha: String,
    /// `SparseCoreConfig::digest()` of the simulated configuration, or 0
    /// for records that did not run the stream engine (dataset reports).
    pub config_digest: u64,
    /// Functional checksum — embedding count, product nnz, or a content
    /// hash. Exact-compared by the regression gate.
    pub checksum: u64,
    /// Modeled cycles (stride-scaled where the bench samples). Exact.
    pub cycles: u64,
    /// The comparison point's modeled cycles (CPU baseline, accelerator,
    /// or sweep base), when the bench computes a speedup. `speedup()` is
    /// `baseline_cycles / cycles`.
    pub baseline_cycles: Option<u64>,
    /// Host wall-clock spent producing this record, in milliseconds.
    /// Noisy; compared via median-of-N with a tolerance band.
    pub wall_ms: f64,
    /// The 5-bin cycle-attribution profile, in [`ATTR_BINS`] order, as
    /// the bench passed it from the run that produced the record. All
    /// zeros when the bench passes none.
    pub attr: [u64; 5],
    /// The `--cost` gate's tally. `None` without `--cost`, and for
    /// records made before the bench checked its first obligation.
    pub cost: Option<CostSection>,
    /// Host-side telemetry for the window that produced this record
    /// (phase walls, peak RSS, allocator stats). `None` for records
    /// produced without `--host`.
    pub host: Option<HostSection>,
}

/// The `--cost` gate's tally over the whole bench process: obligations
/// checked, violations (simulated cycles outside the static bounds, or a
/// replay fault), and the worst `upper / simulated` tightness ratio
/// (1.0 when no obligation had a finite ratio). The bench stamps its
/// final tally on every record that carries the section when it writes
/// the registry, so the section is the same under any `--jobs`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostSection {
    /// Obligations checked.
    pub checked: u64,
    /// Obligations that failed.
    pub violations: u64,
    /// The worst `upper / simulated` ratio.
    pub tightness: f64,
}

impl CostSection {
    fn to_json(self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"checked\":{},\"violations\":{}", self.checked, self.violations);
        out.push_str(",\"tightness\":");
        json::write_f64(&mut out, self.tightness);
        out.push('}');
        out
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        Ok(CostSection {
            checked: num(v, "checked")? as u64,
            violations: num(v, "violations")? as u64,
            tightness: num(v, "tightness")?,
        })
    }
}

/// Host-process telemetry attached to a record by `--host`.
///
/// `phase_ms` is in [`Phase::ALL`] order and sums (including the
/// implicit `other` bucket) to the record's wall window by construction
/// of the switching phase timers; `peak_rss_kb` is the process-wide
/// `VmHWM` (`None` where the platform has no cheap RSS source); the
/// alloc fields come from the counting global allocator — count/bytes
/// are deltas for this record's window, `alloc_peak_bytes` is the
/// process-wide peak of live bytes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HostSection {
    /// Per-phase host wall milliseconds, in [`Phase::ALL`] order.
    pub phase_ms: [f64; Phase::COUNT],
    /// Peak resident set size in kB (`VmHWM`); `None` off-Linux.
    pub peak_rss_kb: Option<u64>,
    /// Allocations made during this record's window.
    pub alloc_count: u64,
    /// Bytes allocated during this record's window.
    pub alloc_bytes: u64,
    /// Process-wide peak of live heap bytes (0 when counting is off).
    pub alloc_peak_bytes: u64,
}

impl HostSection {
    /// Total host wall across all phases (≈ the record's `wall_ms`).
    pub fn total_ms(&self) -> f64 {
        self.phase_ms.iter().sum()
    }

    /// Wall for one named phase.
    pub fn get(&self, p: Phase) -> f64 {
        self.phase_ms[p.index()]
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\"phase_ms\":{");
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, p.name());
            out.push(':');
            json::write_f64(&mut out, self.phase_ms[i]);
        }
        out.push_str("},\"peak_rss_kb\":");
        match self.peak_rss_kb {
            Some(kb) => {
                let _ = write!(out, "{kb}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(
            out,
            ",\"alloc_count\":{},\"alloc_bytes\":{},\"alloc_peak_bytes\":{}}}",
            self.alloc_count, self.alloc_bytes, self.alloc_peak_bytes
        );
        out
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let phases = v.get("phase_ms").ok_or("host missing 'phase_ms'")?;
        let mut phase_ms = [0.0; Phase::COUNT];
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            phase_ms[i] = phases
                .get(p.name())
                .and_then(Value::as_f64)
                .ok_or(format!("host.phase_ms missing numeric '{}'", p.name()))?;
        }
        let peak_rss_kb = match v.get("peak_rss_kb") {
            None | Some(Value::Null) => None,
            Some(Value::Num(n)) => Some(*n as u64),
            Some(other) => return Err(format!("host.peak_rss_kb is not numeric: {other:?}")),
        };
        Ok(HostSection {
            phase_ms,
            peak_rss_kb,
            alloc_count: num(v, "alloc_count")? as u64,
            alloc_bytes: num(v, "alloc_bytes")? as u64,
            alloc_peak_bytes: num(v, "alloc_peak_bytes")? as u64,
        })
    }
}

impl RunRecord {
    /// The measured speedup, when the bench recorded a baseline.
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_cycles.map(|b| b as f64 / self.cycles.max(1) as f64)
    }

    /// The registry key records are matched on across runs: same bench,
    /// same workload, same config digest. The git SHA is deliberately
    /// *not* part of the key — comparing across commits is the point.
    pub fn key(&self) -> String {
        format!("{}::{}::{}", self.bench, self.workload, hex(self.config_digest))
    }

    /// Serialize as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        let mut field = |out: &mut String, name: &str| {
            if !first {
                out.push(',');
            }
            first = false;
            json::write_str(out, name);
            out.push(':');
        };
        field(&mut out, "schema");
        let _ = write!(out, "{SCHEMA_VERSION}");
        field(&mut out, "bench");
        json::write_str(&mut out, &self.bench);
        field(&mut out, "workload");
        json::write_str(&mut out, &self.workload);
        field(&mut out, "git_sha");
        json::write_str(&mut out, &self.git_sha);
        field(&mut out, "config_digest");
        json::write_str(&mut out, &hex(self.config_digest));
        field(&mut out, "checksum");
        json::write_str(&mut out, &hex(self.checksum));
        field(&mut out, "cycles");
        let _ = write!(out, "{}", self.cycles);
        field(&mut out, "baseline_cycles");
        match self.baseline_cycles {
            Some(b) => {
                let _ = write!(out, "{b}");
            }
            None => out.push_str("null"),
        }
        field(&mut out, "wall_ms");
        json::write_f64(&mut out, self.wall_ms);
        field(&mut out, "attr");
        out.push('{');
        for (i, name) in ATTR_BINS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::write_str(&mut out, name);
            let _ = write!(out, ":{}", self.attr[i]);
        }
        out.push('}');
        if let Some(cost) = self.cost {
            field(&mut out, "cost");
            out.push_str(&cost.to_json());
        }
        if let Some(host) = &self.host {
            field(&mut out, "host");
            out.push_str(&host.to_json());
        }
        out.push('}');
        out
    }

    /// Parse a record from a JSON [`Value`].
    ///
    /// # Errors
    ///
    /// Describes the first missing or ill-typed field, including schema
    /// version mismatches.
    pub fn from_value(v: &Value) -> Result<Self, String> {
        let obj = v.as_obj().ok_or("record is not a JSON object")?;
        let schema = num(v, "schema")? as u64;
        if schema != SCHEMA_VERSION {
            return Err(format!("record schema {schema} != supported {SCHEMA_VERSION}"));
        }
        let attr_v = v.get("attr").ok_or("record missing 'attr'")?;
        let mut attr = [0u64; 5];
        for (i, name) in ATTR_BINS.iter().enumerate() {
            attr[i] = attr_v
                .get(name)
                .and_then(Value::as_f64)
                .ok_or(format!("attr missing numeric '{name}'"))? as u64;
        }
        let baseline_cycles = match obj.get("baseline_cycles") {
            None | Some(Value::Null) => None,
            Some(Value::Num(n)) => Some(*n as u64),
            Some(other) => return Err(format!("baseline_cycles is not numeric: {other:?}")),
        };
        Ok(RunRecord {
            bench: string(v, "bench")?,
            workload: string(v, "workload")?,
            git_sha: string(v, "git_sha")?,
            config_digest: hex_field(v, "config_digest")?,
            checksum: hex_field(v, "checksum")?,
            cycles: num(v, "cycles")? as u64,
            baseline_cycles,
            wall_ms: num(v, "wall_ms")?,
            attr,
            cost: match obj.get("cost") {
                None | Some(Value::Null) => None,
                Some(c) => Some(CostSection::from_value(c).map_err(|e| format!("cost: {e}"))?),
            },
            host: match obj.get("host") {
                None | Some(Value::Null) => None,
                Some(h) => Some(HostSection::from_value(h).map_err(|e| format!("host: {e}"))?),
            },
        })
    }

    /// Serialize, reparse, and require equality — the golden-schema
    /// check `sc-report verify` applies to every record it loads.
    ///
    /// # Errors
    ///
    /// Whatever stage of the round trip broke.
    pub fn round_trip(&self) -> Result<(), String> {
        let doc = self.to_json();
        let v = json::parse(&doc).map_err(|e| format!("re-parse failed: {e}"))?;
        let back = RunRecord::from_value(&v)?;
        if back != *self {
            return Err("round-tripped record differs from the original".into());
        }
        Ok(())
    }
}

/// `0x`-prefixed, zero-padded hex for full-range `u64` values. JSON
/// numbers travel as `f64`, which silently truncates above 2^53 — hashes
/// use the full range, so they are stored as strings.
pub fn hex(v: u64) -> String {
    format!("{v:#018x}")
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or(format!("record missing string '{key}'"))
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key).and_then(Value::as_f64).ok_or(format!("record missing numeric '{key}'"))
}

fn hex_field(v: &Value, key: &str) -> Result<u64, String> {
    let s = string(v, key)?;
    let hex = s.strip_prefix("0x").ok_or(format!("'{key}' is not 0x-prefixed hex: {s}"))?;
    u64::from_str_radix(hex, 16).map_err(|e| format!("'{key}' is not valid hex ({s}): {e}"))
}

/// Parse a record file: `{"schema": 2, "records": [...]}`.
///
/// # Errors
///
/// Malformed JSON, schema mismatch, or any invalid record (with its
/// index in the file).
pub fn parse_record_file(doc: &str) -> Result<Vec<RunRecord>, String> {
    let v = json::parse(doc)?;
    let schema = v.get("schema").and_then(Value::as_f64).ok_or("record file missing 'schema'")?;
    if schema as u64 != SCHEMA_VERSION {
        return Err(format!("record file schema {schema} != supported {SCHEMA_VERSION}"));
    }
    let records =
        v.get("records").and_then(Value::as_arr).ok_or("record file missing 'records' array")?;
    records
        .iter()
        .enumerate()
        .map(|(i, r)| RunRecord::from_value(r).map_err(|e| format!("record {i}: {e}")))
        .collect()
}

/// Serialize records as a complete record-file document.
pub fn render_record_file(records: &[RunRecord]) -> String {
    let mut out = format!("{{\"schema\":{SCHEMA_VERSION},\"records\":[\n");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str(&r.to_json());
    }
    out.push_str("\n]}\n");
    out
}

/// Append records to a registry file, creating it if absent. Existing
/// records are preserved (read–modify–write keeps the file one valid
/// JSON document, unlike line-append formats).
///
/// # Errors
///
/// I/O failures, or an existing file that does not parse as a record
/// file (appending to a corrupt registry would hide the corruption).
pub fn append_records(path: &Path, new: &[RunRecord]) -> Result<usize, String> {
    let mut all = match std::fs::read_to_string(path) {
        Ok(doc) => parse_record_file(&doc).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    all.extend(new.iter().cloned());
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("{}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, render_record_file(&all))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(all.len())
}

/// The current git commit (short SHA), resolved once per process.
/// `SC_GIT_SHA` overrides (CI sets it to the exact commit under test);
/// outside a checkout this degrades to `"unknown"`.
pub fn current_git_sha() -> String {
    static SHA: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    SHA.get_or_init(|| {
        if let Ok(sha) = std::env::var("SC_GIT_SHA") {
            if !sha.is_empty() {
                return sha;
            }
        }
        std::process::Command::new("git")
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    })
    .clone()
}

/// FNV-1a over arbitrary bytes — the shared checksum primitive for
/// results that are not already a count (e.g. dense tensor outputs).
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Collect every `BTreeMap` grouping of records by [`RunRecord::key`],
/// preserving insertion order of values within each key.
pub fn group_by_key(records: &[RunRecord]) -> BTreeMap<String, Vec<&RunRecord>> {
    let mut map: BTreeMap<String, Vec<&RunRecord>> = BTreeMap::new();
    for r in records {
        map.entry(r.key()).or_default().push(r);
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample(workload: &str) -> RunRecord {
        RunRecord {
            bench: "fig08_cpu_speedup".into(),
            workload: workload.into(),
            git_sha: "abc123def456".into(),
            config_digest: 0xdead_beef_cafe_f00d,
            checksum: 1458,
            cycles: 125_000,
            baseline_cycles: Some(1_690_000),
            wall_ms: 12.75,
            attr: [10_000, 20_000, 30_000, 5_000, 60_000],
            cost: Some(CostSection { checked: 10, violations: 0, tightness: 6.48046875 }),
            host: None,
        }
    }

    pub(crate) fn sample_host() -> HostSection {
        HostSection {
            phase_ms: [4.5, 0.25, 1.0, 6.0, 0.5, 0.5],
            peak_rss_kb: Some(104_872),
            alloc_count: 12_345,
            alloc_bytes: 9_876_543,
            alloc_peak_bytes: 55_000_000,
        }
    }

    #[test]
    fn round_trip_is_identity() {
        sample("TC/C").round_trip().unwrap();
        let mut no_baseline = sample("cdf/T/C");
        no_baseline.baseline_cycles = None;
        no_baseline.round_trip().unwrap();
        // A record without a cost section omits the key entirely.
        let mut no_cost = sample("table4/C");
        no_cost.cost = None;
        assert!(!no_cost.to_json().contains("\"cost\""));
        no_cost.round_trip().unwrap();
        // A malformed cost section is a hard error, not a silent None.
        let doc = sample("TC/C").to_json().replacen("\"checked\":10", "\"checked\":\"10\"", 1);
        let err = RunRecord::from_value(&json::parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("cost") && err.contains("checked"), "{err}");
    }

    #[test]
    fn host_section_round_trips_and_stays_optional() {
        // With a host section, including the off-Linux None RSS case.
        let mut r = sample("TC/C");
        r.host = Some(sample_host());
        r.round_trip().unwrap();
        let h = r.host.as_mut().unwrap();
        h.peak_rss_kb = None;
        r.round_trip().unwrap();
        // Phase walls sum to the total and are addressable by phase.
        let h = r.host.as_ref().unwrap();
        assert!((h.total_ms() - 12.75).abs() < 1e-9);
        assert_eq!(h.get(Phase::Simulate), 6.0);
        // A record without the section omits the key entirely.
        let plain = sample("TC/C");
        assert!(!plain.to_json().contains("\"host\""));
        plain.round_trip().unwrap();
        // Explicit null parses as absent.
        let doc = plain.to_json().replacen(",\"cost\":", ",\"host\":null,\"cost\":", 1);
        assert_eq!(RunRecord::from_value(&json::parse(&doc).unwrap()).unwrap(), plain);
        // A malformed host section is a hard error, not a silent None.
        let mut bad = sample("TC/C");
        bad.host = Some(sample_host());
        let doc = bad.to_json().replacen("\"simulate\":6", "\"simulate\":\"6\"", 1);
        let err = RunRecord::from_value(&json::parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("host") && err.contains("simulate"), "{err}");
    }

    #[test]
    fn hex_preserves_full_u64_range() {
        let mut r = sample("x");
        r.checksum = u64::MAX;
        r.config_digest = (1u64 << 53) + 1; // beyond exact f64 integers
        r.round_trip().unwrap();
    }

    #[test]
    fn speedup_and_key() {
        let r = sample("TC/C");
        assert!((r.speedup().unwrap() - 13.52).abs() < 0.01);
        assert!(r.key().starts_with("fig08_cpu_speedup::TC/C::0x"));
        // Same bench/workload/config on a different commit → same key.
        let mut other = sample("TC/C");
        other.git_sha = "fff".into();
        assert_eq!(r.key(), other.key());
    }

    #[test]
    fn parser_rejects_malformed_records() {
        let v = json::parse(&sample("TC/C").to_json()).unwrap();
        RunRecord::from_value(&v).unwrap();
        // Wrong schema version.
        let doc = sample("TC/C").to_json().replacen("\"schema\":2", "\"schema\":99", 1);
        let err = RunRecord::from_value(&json::parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("schema"), "{err}");
        // Checksum must be hex, not a bare number.
        let doc = sample("TC/C").to_json().replacen(
            "\"checksum\":\"0x00000000000005b2\"",
            "\"checksum\":1458",
            1,
        );
        let err = RunRecord::from_value(&json::parse(&doc).unwrap()).unwrap_err();
        assert!(err.contains("checksum"), "{err}");
    }

    #[test]
    fn record_file_append_and_reload() {
        let path = std::env::temp_dir().join("sc_report_registry_test.json");
        let _ = std::fs::remove_file(&path);
        assert_eq!(append_records(&path, &[sample("TC/C"), sample("TC/E")]).unwrap(), 2);
        assert_eq!(append_records(&path, &[sample("TM/C")]).unwrap(), 3);
        let loaded = parse_record_file(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(loaded.len(), 3);
        assert_eq!(loaded[2].workload, "TM/C");
        assert_eq!(loaded[0], sample("TC/C"));
        // Appending to a corrupt file is refused.
        std::fs::write(&path, "{not json").unwrap();
        assert!(append_records(&path, &[sample("x")]).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn grouping_uses_key_not_sha() {
        let mut a = sample("TC/C");
        let mut b = sample("TC/C");
        a.git_sha = "one".into();
        b.git_sha = "two".into();
        let records = vec![a, b, sample("TM/C")];
        let groups = group_by_key(&records);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups.values().map(Vec::len).sum::<usize>(), 3);
    }

    #[test]
    fn fnv1a_is_stable() {
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(*b"abc"), fnv1a(*b"acb"));
        let xs = [1.5f64, -2.25, 0.0];
        let h = fnv1a(xs.iter().flat_map(|x| x.to_bits().to_le_bytes()));
        assert_eq!(h, fnv1a(xs.iter().flat_map(|x| x.to_bits().to_le_bytes())));
    }
}
