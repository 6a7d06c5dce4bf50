//! The lint [`Report`]: an ordered set of diagnostics with human and
//! machine-readable (JSON) renderings.

use crate::diag::{Diagnostic, Severity};
use std::fmt;

/// The result of linting one program.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    diags: Vec<Diagnostic>,
}

impl Report {
    /// Build a report, ordering diagnostics by instruction index
    /// (program-level diagnostics last) and keeping the per-index pass
    /// order stable.
    pub fn new(mut diags: Vec<Diagnostic>) -> Self {
        diags.sort_by_key(|d| d.at.unwrap_or(usize::MAX));
        Report { diags }
    }

    /// All diagnostics, ordered.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diags
    }

    /// No diagnostics at all?
    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.diags.len()
    }

    /// Does the report contain any error-level diagnostic?
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// Free of error-level diagnostics (warnings and notes allowed)?
    /// This is the gate `lint_before_run` and the emitter debug-asserts
    /// use.
    pub fn error_free(&self) -> bool {
        !self.has_errors()
    }

    /// `(errors, warnings, notes)` counts.
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for d in &self.diags {
            match d.severity {
                Severity::Error => c.0 += 1,
                Severity::Warning => c.1 += 1,
                Severity::Note => c.2 += 1,
            }
        }
        c
    }

    /// Render the report as a JSON object.
    ///
    /// Hand-rolled (the environment has no serde): an object with a
    /// `diagnostics` array plus summary counts. Message strings are
    /// escaped per RFC 8259.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"diagnostics\":[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(d.code.as_str());
            out.push_str("\",\"name\":\"");
            out.push_str(d.code.name());
            out.push_str("\",\"severity\":\"");
            out.push_str(d.severity.as_str());
            out.push_str("\",\"at\":");
            match d.at {
                Some(at) => out.push_str(&at.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"sid\":");
            match d.sid {
                Some(sid) => out.push_str(&sid.raw().to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"addr\":");
            match d.addr {
                Some(a) => out.push_str(&a.to_string()),
                None => out.push_str("null"),
            }
            out.push_str(",\"message\":");
            push_json_string(&mut out, &d.message);
            out.push('}');
        }
        let (e, w, n) = self.counts();
        out.push_str(&format!("],\"errors\":{e},\"warnings\":{w},\"notes\":{n}}}"));
        out
    }

    /// Render the report as a SARIF 2.1.0 log (one run), so findings
    /// surface as editor/CI annotations. `artifact` is the URI of the
    /// analyzed file; each diagnostic's instruction index maps to a
    /// 1-based line region (`.sasm` sources are one instruction per
    /// line).
    pub fn to_sarif(&self, artifact: &str) -> String {
        self.to_sarif_with_driver(artifact, "sc-lint")
    }

    /// [`Report::to_sarif`] with an explicit tool-driver name, so other
    /// tools built on this diagnostics layer (`sc-verify`) emit SARIF
    /// attributed to themselves rather than to `sc-lint`.
    pub fn to_sarif_with_driver(&self, artifact: &str, driver: &str) -> String {
        let mut out = String::from(
            "{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
             \"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\
             \"name\":",
        );
        push_json_string(&mut out, driver);
        out.push_str(
            ",\"informationUri\":\
             \"https://github.com/sparsecore/sparsecore-repro\",\"rules\":[",
        );
        // One reportingDescriptor per distinct code, in first-seen order.
        let mut rules: Vec<crate::diag::LintCode> = Vec::new();
        for d in &self.diags {
            if !rules.contains(&d.code) {
                rules.push(d.code);
            }
        }
        for (i, code) in rules.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"id\":\"{}\",\"name\":\"{}\"}}", code.as_str(), code.name()));
        }
        out.push_str("]}},\"results\":[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let level = match d.severity {
                Severity::Error => "error",
                Severity::Warning => "warning",
                Severity::Note => "note",
            };
            out.push_str(&format!(
                "{{\"ruleId\":\"{}\",\"ruleIndex\":{},\"level\":\"{level}\",\"message\":{{\"text\":",
                d.code.as_str(),
                rules.iter().position(|c| c == &d.code).expect("rule registered"),
            ));
            push_json_string(&mut out, &d.message);
            out.push_str("},\"locations\":[{\"physicalLocation\":{\"artifactLocation\":{\"uri\":");
            push_json_string(&mut out, artifact);
            out.push('}');
            if let Some(at) = d.at {
                out.push_str(&format!(",\"region\":{{\"startLine\":{}}}", at + 1));
            }
            out.push_str("}}]}");
        }
        out.push_str("]}]}");
        out
    }
}

/// Append `s` to `out` as a JSON string literal.
fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diags {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::LintCode;
    use sc_isa::StreamId;

    fn diag(code: LintCode, severity: Severity, at: Option<usize>) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            at,
            sid: Some(StreamId::new(1)),
            addr: None,
            message: "m".into(),
        }
    }

    #[test]
    fn orders_by_instruction_index() {
        let r = Report::new(vec![
            diag(LintCode::LeakAtEnd, Severity::Error, Some(5)),
            diag(LintCode::UseUndefined, Severity::Error, Some(1)),
            diag(LintCode::RegisterPressure, Severity::Note, None),
        ]);
        let ats: Vec<_> = r.diagnostics().iter().map(|d| d.at).collect();
        assert_eq!(ats, vec![Some(1), Some(5), None]);
    }

    #[test]
    fn error_free_ignores_warnings_and_notes() {
        let r = Report::new(vec![
            diag(LintCode::DeadStream, Severity::Warning, Some(0)),
            diag(LintCode::RegisterPressure, Severity::Note, None),
        ]);
        assert!(r.error_free());
        assert!(!r.has_errors());
        assert_eq!(r.counts(), (0, 1, 1));
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut d = diag(LintCode::UseUndefined, Severity::Error, Some(2));
        d.message = "quote \" backslash \\ newline \n done".into();
        let r = Report::new(vec![d]);
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"code\":\"SC-E001\""));
        assert!(j.contains("\"severity\":\"error\""));
        assert!(j.contains("\\\""));
        assert!(j.contains("\\\\"));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"errors\":1"));
    }

    #[test]
    fn sarif_is_well_formed() {
        let r = Report::new(vec![
            diag(LintCode::UseUndefined, Severity::Error, Some(2)),
            diag(LintCode::UseUndefined, Severity::Error, Some(4)),
            diag(LintCode::DeadStream, Severity::Warning, Some(0)),
        ]);
        let s = r.to_sarif("prog.sasm");
        assert!(s.contains("\"version\":\"2.1.0\""));
        assert!(s.contains("\"name\":\"sc-lint\""));
        // Rules are deduplicated: SC-E001 appears once in the rules array.
        assert_eq!(s.matches("{\"id\":\"SC-E001\"").count(), 1);
        assert_eq!(s.matches("\"ruleId\":\"SC-E001\"").count(), 2);
        assert!(s.contains("\"level\":\"warning\""));
        assert!(s.contains("\"uri\":\"prog.sasm\""));
        // Instruction 2 anchors to line 3.
        assert!(s.contains("\"startLine\":3"));
        // Balanced braces/brackets (crude structural check).
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }

    /// Message strings a tool must never be able to use to break out of
    /// the JSON encoding: every quoting/escape character, raw control
    /// characters, and non-ASCII text.
    fn hostile_messages() -> Vec<String> {
        vec![
            "quote \" backslash \\ slash / done".into(),
            "newline \n return \r tab \t".into(),
            "nul \u{0} bell \u{7} escape \u{1b} unit-sep \u{1f}".into(),
            "already-escaped \\n and \\u0041 stay literal".into(),
            "unicode: ключи ∩ 键 🔑".into(),
            "trailing backslash \\".into(),
            "\"}],\"errors\":0} // injection attempt".into(),
        ]
    }

    #[test]
    fn json_round_trips_hostile_messages() {
        let diags: Vec<Diagnostic> = hostile_messages()
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                let mut d = diag(LintCode::UseUndefined, Severity::Error, Some(i));
                d.message = m;
                d
            })
            .collect();
        let originals: Vec<String> = diags.iter().map(|d| d.message.clone()).collect();
        let r = Report::new(diags);
        let parsed = sc_probe::json::parse(&r.to_json()).expect("report JSON parses");
        let arr = parsed.get("diagnostics").and_then(|v| v.as_arr()).expect("array");
        assert_eq!(arr.len(), originals.len());
        for (entry, original) in arr.iter().zip(&originals) {
            let msg = entry.get("message").and_then(|v| v.as_str()).expect("message string");
            assert_eq!(msg, original, "message must survive encode/decode byte-for-byte");
        }
        assert_eq!(parsed.get("errors").and_then(|v| v.as_f64()), Some(originals.len() as f64));
    }

    #[test]
    fn sarif_round_trips_hostile_messages_and_artifacts() {
        let mut d = diag(LintCode::UseUndefined, Severity::Error, Some(0));
        d.message = hostile_messages().join(" | ");
        let original = d.message.clone();
        let r = Report::new(vec![d]);
        let artifact = "dir with \"quotes\"\\and\nnewlines.sasm";
        let s = r.to_sarif_with_driver(artifact, "sc-verify");
        let parsed = sc_probe::json::parse(&s).expect("SARIF parses as JSON");
        let run = &parsed.get("runs").and_then(|v| v.as_arr()).expect("runs")[0];
        assert_eq!(
            run.get("tool")
                .and_then(|t| t.get("driver"))
                .and_then(|d| d.get("name"))
                .and_then(|n| n.as_str()),
            Some("sc-verify")
        );
        let result = &run.get("results").and_then(|v| v.as_arr()).expect("results")[0];
        assert_eq!(
            result.get("message").and_then(|m| m.get("text")).and_then(|t| t.as_str()),
            Some(original.as_str())
        );
        let loc = &result.get("locations").and_then(|v| v.as_arr()).expect("locations")[0];
        assert_eq!(
            loc.get("physicalLocation")
                .and_then(|p| p.get("artifactLocation"))
                .and_then(|a| a.get("uri"))
                .and_then(|u| u.as_str()),
            Some(artifact)
        );
    }

    #[test]
    fn sarif_empty_report() {
        let s = Report::default().to_sarif("x.sasm");
        assert!(s.contains("\"results\":[]"));
        assert_eq!(s.matches('{').count(), s.matches('}').count());
    }

    #[test]
    fn empty_report_renders() {
        let r = Report::default();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
        assert_eq!(r.to_json(), "{\"diagnostics\":[],\"errors\":0,\"warnings\":0,\"notes\":0}");
        assert_eq!(r.to_string(), "");
    }
}
