//! Structural validators for probe outputs, shared by the golden-file
//! tests and the `probe-check` CLI (which CI runs against real bench
//! output).

use crate::json::{self, Value};

/// Validate a Chrome `trace_event` JSON document and return a short
/// human summary (`"N events on M tracks"`).
///
/// Checks, in order:
/// * the document parses and has a `traceEvents` array;
/// * every event has `name`/`ph`/`pid`/`tid`, and non-metadata events a
///   numeric `ts`;
/// * only complete (`X`), instant (`i`) and metadata (`M`) phases appear
///   (so there are no unbalanced `B`/`E` pairs by construction);
/// * `X` events have a non-negative numeric `dur`;
/// * `ts` is monotonically non-decreasing across non-metadata events;
/// * every `(pid, tid)` that carries events has a `thread_name`
///   metadata row, and every `pid` a `process_name` row.
///
/// # Errors
///
/// The first violated rule, with the offending event index.
pub fn validate_trace(doc: &str) -> Result<String, String> {
    let v = json::parse(doc).map_err(|e| format!("trace is not valid JSON: {e}"))?;
    let events =
        v.get("traceEvents").and_then(Value::as_arr).ok_or("trace has no traceEvents array")?;

    let mut named_tracks: Vec<(u64, u64)> = Vec::new();
    let mut named_procs: Vec<u64> = Vec::new();
    let mut used_tracks: Vec<(u64, u64)> = Vec::new();
    let mut last_ts = f64::NEG_INFINITY;
    let mut counted = 0usize;

    for (i, ev) in events.iter().enumerate() {
        let ph = ev.get("ph").and_then(Value::as_str).ok_or(format!("event {i}: missing ph"))?;
        ev.get("name").and_then(Value::as_str).ok_or(format!("event {i}: missing name"))?;
        let pid =
            ev.get("pid").and_then(Value::as_f64).ok_or(format!("event {i}: missing pid"))? as u64;
        match ph {
            "M" => {
                let name = ev.get("name").and_then(Value::as_str).unwrap_or("");
                let labelled =
                    ev.get("args").and_then(|a| a.get("name")).and_then(Value::as_str).is_some();
                if !labelled {
                    return Err(format!("event {i}: metadata without args.name"));
                }
                match name {
                    "process_name" => named_procs.push(pid),
                    "thread_name" => {
                        let tid = ev
                            .get("tid")
                            .and_then(Value::as_f64)
                            .ok_or(format!("event {i}: thread_name without tid"))?;
                        named_tracks.push((pid, tid as u64));
                    }
                    other => return Err(format!("event {i}: unknown metadata '{other}'")),
                }
            }
            "X" | "i" => {
                let ts =
                    ev.get("ts").and_then(Value::as_f64).ok_or(format!("event {i}: missing ts"))?;
                if ts < last_ts {
                    return Err(format!("event {i}: ts {ts} < previous {last_ts} (not monotonic)"));
                }
                last_ts = ts;
                let tid = ev
                    .get("tid")
                    .and_then(Value::as_f64)
                    .ok_or(format!("event {i}: missing tid"))? as u64;
                used_tracks.push((pid, tid));
                if ph == "X" {
                    let dur = ev
                        .get("dur")
                        .and_then(Value::as_f64)
                        .ok_or(format!("event {i}: X event without dur"))?;
                    if dur < 0.0 {
                        return Err(format!("event {i}: negative dur {dur}"));
                    }
                }
                counted += 1;
            }
            other => return Err(format!("event {i}: unsupported phase '{other}'")),
        }
    }

    used_tracks.sort_unstable();
    used_tracks.dedup();
    for (pid, tid) in &used_tracks {
        if !named_tracks.contains(&(*pid, *tid)) {
            return Err(format!("track pid={pid} tid={tid} has events but no thread_name"));
        }
        if !named_procs.contains(pid) {
            return Err(format!("pid {pid} has events but no process_name"));
        }
    }
    Ok(format!("{counted} events on {} tracks", used_tracks.len()))
}

/// The sorted, de-duplicated names of all non-metadata events — the
/// stable "taxonomy" the golden-file test pins (insensitive to exact
/// timings, sensitive to instrumentation coverage).
///
/// # Errors
///
/// Propagates JSON parse failures.
pub fn trace_event_names(doc: &str) -> Result<Vec<String>, String> {
    let v = json::parse(doc)?;
    let events = v.get("traceEvents").and_then(Value::as_arr).ok_or("no traceEvents")?;
    let mut names: Vec<String> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) != Some("M"))
        .filter_map(|e| e.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    names.sort();
    names.dedup();
    Ok(names)
}

/// Validate a metrics snapshot: a JSON object whose leaves are numbers,
/// nulls, or histogram objects. Returns the number of leaf metrics.
///
/// # Errors
///
/// The first structurally invalid node, with its dotted path.
pub fn validate_metrics(doc: &str) -> Result<usize, String> {
    let v = json::parse(doc).map_err(|e| format!("metrics is not valid JSON: {e}"))?;
    if v.as_obj().is_none() {
        return Err("metrics snapshot is not a JSON object".into());
    }
    let mut leaves = 0usize;
    walk(&v, "", &mut leaves)?;
    return Ok(leaves);

    fn walk(v: &Value, path: &str, leaves: &mut usize) -> Result<(), String> {
        match v {
            Value::Num(_) | Value::Null => {
                *leaves += 1;
                Ok(())
            }
            Value::Obj(map) => {
                // A histogram leaf is an object with exactly the summary keys.
                if map.contains_key("count") && map.contains_key("p99") {
                    for key in ["count", "sum", "mean", "min", "max", "p50", "p99"] {
                        if !matches!(map.get(key), Some(Value::Num(_) | Value::Null)) {
                            return Err(format!("{path}: histogram missing numeric '{key}'"));
                        }
                    }
                    *leaves += 1;
                    return Ok(());
                }
                for (k, child) in map {
                    let sub = if path.is_empty() { k.clone() } else { format!("{path}.{k}") };
                    walk(child, &sub, leaves)?;
                }
                Ok(())
            }
            other => Err(format!("{path}: unexpected value {other:?}")),
        }
    }
}

/// Look up a numeric leaf in a metrics snapshot by dotted path.
pub fn metrics_value(doc: &str, path: &str) -> Option<f64> {
    let v = json::parse(doc).ok()?;
    let mut cur = &v;
    for part in path.split('.') {
        cur = cur.get(part)?;
    }
    cur.as_f64()
}

/// Outcome of checking a batch of probe output files (`probe-check`'s
/// engine, kept in the library so tests can drive it without spawning
/// the binary).
#[derive(Debug, Default)]
pub struct CheckReport {
    /// One `ok: ...` line per passed check.
    pub passed: Vec<String>,
    /// One `FAIL: ...` line per violation.
    pub failures: Vec<String>,
}

impl CheckReport {
    /// Did every check pass?
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Validate trace and metrics files, and require every `expects` entry
/// to be satisfied by every metrics file. An entry is either a dotted
/// path (`attr.total` — must resolve to a numeric leaf) or
/// `path=value` (`gpm.chunks=12` — must resolve *and* equal `value`).
///
/// Unsatisfied expectations for one file are reported as a **single
/// failure line naming every missing and mismatched metric**, so a CI
/// log shows exactly which instrumentation fell out rather than a bare
/// count.
///
/// A metrics snapshot with **zero** leaf metrics is a hard failure: it
/// is structurally valid JSON (`{}`), but a probe that recorded nothing
/// means the run was not actually observed (probe level off, or the
/// instrumentation fell out) — exactly the silent failure mode a CI
/// gate exists to catch.
pub fn check_probe_files(traces: &[String], metrics: &[String], expects: &[String]) -> CheckReport {
    let mut report = CheckReport::default();
    for path in traces {
        match std::fs::read_to_string(path) {
            Ok(doc) => match validate_trace(&doc) {
                Ok(summary) => report.passed.push(format!("ok: {path}: {summary}")),
                Err(e) => report.failures.push(format!("FAIL: {path}: {e}")),
            },
            Err(e) => report.failures.push(format!("FAIL: {path}: {e}")),
        }
    }
    for path in metrics {
        let doc = match std::fs::read_to_string(path) {
            Ok(doc) => doc,
            Err(e) => {
                report.failures.push(format!("FAIL: {path}: {e}"));
                continue;
            }
        };
        match validate_metrics(&doc) {
            Ok(0) => {
                report.failures.push(format!(
                    "FAIL: {path}: empty metrics snapshot (0 leaf metrics) — was the probe enabled?"
                ));
                continue;
            }
            Ok(n) => report.passed.push(format!("ok: {path}: {n} metrics")),
            Err(e) => {
                report.failures.push(format!("FAIL: {path}: {e}"));
                continue;
            }
        }
        let mut missing: Vec<String> = Vec::new();
        let mut mismatched: Vec<String> = Vec::new();
        for e in expects {
            let (key, want) = match e.split_once('=') {
                Some((k, v)) => (k, Some(v)),
                None => (e.as_str(), None),
            };
            match (metrics_value(&doc, key), want) {
                (None, _) => missing.push(key.to_string()),
                (Some(got), Some(want)) => match want.parse::<f64>() {
                    Ok(w) if got == w => report.passed.push(format!("ok: {path}: {key} = {got}")),
                    Ok(w) => mismatched.push(format!("{key} (got {got}, want {w})")),
                    Err(_) => mismatched.push(format!("{key} (unparseable expectation '{want}')")),
                },
                (Some(got), None) => report.passed.push(format!("ok: {path}: {key} = {got}")),
            }
        }
        if !missing.is_empty() || !mismatched.is_empty() {
            let mut parts = Vec::new();
            if !missing.is_empty() {
                parts.push(format!("missing [{}]", missing.join(", ")));
            }
            if !mismatched.is_empty() {
                parts.push(format!("mismatched [{}]", mismatched.join(", ")));
            }
            report.failures.push(format!(
                "FAIL: {path}: {} expected metric(s) unsatisfied: {}",
                missing.len() + mismatched.len(),
                parts.join("; ")
            ));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Tracer, Track};

    fn sample_trace() -> String {
        let mut t = Tracer::new();
        t.span(Track::Engine, None, "S_READ", 0, 4, &[]);
        t.span(Track::Su(0), None, "S_INTER", 4, 30, &[("produced", 2)]);
        t.instant(Track::Scache, None, "slot_fill", 10, &[("slot", 1)]);
        t.to_json(0)
    }

    #[test]
    fn accepts_own_exports() {
        let summary = validate_trace(&sample_trace()).unwrap();
        assert!(summary.starts_with("3 events"), "{summary}");
    }

    #[test]
    fn rejects_non_monotonic_ts() {
        let doc = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":0,"args":{"name":"p"}},
            {"name":"thread_name","ph":"M","pid":0,"tid":0,"args":{"name":"t"}},
            {"name":"a","ph":"i","s":"t","ts":10,"pid":0,"tid":0},
            {"name":"b","ph":"i","s":"t","ts":5,"pid":0,"tid":0}]}"#;
        let err = validate_trace(doc).unwrap_err();
        assert!(err.contains("monotonic"), "{err}");
    }

    #[test]
    fn rejects_unbalanced_phases_and_missing_names() {
        let doc = r#"{"traceEvents":[
            {"name":"process_name","ph":"M","pid":0,"args":{"name":"p"}},
            {"name":"a","ph":"B","ts":1,"pid":0,"tid":0}]}"#;
        assert!(validate_trace(doc).unwrap_err().contains("phase"));
        let doc = r#"{"traceEvents":[
            {"name":"a","ph":"i","s":"t","ts":1,"pid":0,"tid":9}]}"#;
        assert!(validate_trace(doc).unwrap_err().contains("thread_name"));
    }

    #[test]
    fn event_names_are_sorted_unique() {
        let names = trace_event_names(&sample_trace()).unwrap();
        assert_eq!(names, vec!["S_INTER", "S_READ", "slot_fill"]);
    }

    #[test]
    fn empty_metrics_snapshot_is_a_hard_error() {
        let dir = std::env::temp_dir();
        let empty = dir.join("sc_probe_check_empty_metrics.json");
        let live = dir.join("sc_probe_check_live_metrics.json");
        std::fs::write(&empty, "{}").unwrap();
        let mut r = crate::metrics::Registry::new();
        r.count("engine.reads", 3);
        std::fs::write(&live, r.to_json()).unwrap();
        let empty = empty.to_string_lossy().into_owned();
        let live = live.to_string_lossy().into_owned();

        // `{}` used to validate (it is a well-formed object); now it fails.
        let report = check_probe_files(&[], std::slice::from_ref(&empty), &[]);
        assert!(!report.ok());
        assert!(report.failures[0].contains("empty metrics snapshot"), "{:?}", report.failures);

        // A populated snapshot still passes, and expectations resolve.
        let report = check_probe_files(&[], std::slice::from_ref(&live), &["engine.reads".into()]);
        assert!(report.ok(), "{:?}", report.failures);

        // A missing expected path is a failure even when the file is valid.
        let report = check_probe_files(&[], &[live], &["engine.nope".into()]);
        assert!(!report.ok());
        assert!(report.failures[0].contains("engine.nope"));

        // An unreadable file is a failure, not a skip.
        let report = check_probe_files(&[], &["/nonexistent/metrics.json".into()], &[]);
        assert!(!report.ok());
    }

    #[test]
    fn expect_failure_names_every_missing_and_mismatched_metric() {
        let dir = std::env::temp_dir();
        let file = dir.join("sc_probe_check_expect_names.json");
        let mut r = crate::metrics::Registry::new();
        r.count("engine.reads", 3);
        r.gauge("attr.total", 100.0);
        std::fs::write(&file, r.to_json()).unwrap();
        let path = file.to_string_lossy().into_owned();

        let expects = vec![
            "engine.reads".into(),   // present: ok
            "engine.writes".into(),  // missing
            "attr.nope".into(),      // missing
            "attr.total=100".into(), // present, matches
            "engine.reads=4".into(), // present, wrong value
        ];
        let report = check_probe_files(&[], std::slice::from_ref(&path), &expects);
        assert!(!report.ok());
        assert_eq!(report.failures.len(), 1, "one consolidated line: {:?}", report.failures);
        // Pin the exact message shape: every offender named, with counts.
        assert_eq!(
            report.failures[0],
            format!(
                "FAIL: {path}: 3 expected metric(s) unsatisfied: \
                 missing [engine.writes, attr.nope]; mismatched [engine.reads (got 3, want 4)]"
            )
        );
        // The satisfied expectations still pass individually.
        assert!(
            report.passed.iter().any(|p| p.contains("attr.total = 100")),
            "{:?}",
            report.passed
        );
    }

    #[test]
    fn metrics_validator_counts_leaves() {
        let mut r = crate::metrics::Registry::new();
        r.count("engine.reads", 3);
        r.gauge("mem.rate", 0.25);
        r.observe("engine.stream_len", 7);
        let n = validate_metrics(&r.to_json()).unwrap();
        assert_eq!(n, 3);
        assert_eq!(metrics_value(&r.to_json(), "engine.reads"), Some(3.0));
        assert!(validate_metrics("[1,2]").is_err());
        assert!(validate_metrics(r#"{"a":"str"}"#).is_err());
    }
}
