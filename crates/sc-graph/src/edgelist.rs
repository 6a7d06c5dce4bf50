//! Plain-text edge-list parsing and writing.
//!
//! Format: one `u v` pair per line, whitespace separated, `#`- or
//! `%`-comment lines ignored — the common denominator of SNAP and KONECT
//! downloads, so users can feed the original datasets if they have them.

use crate::csr::{CsrGraph, VertexId};
use std::error::Error;
use std::fmt;

/// An edge-list parse error with line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeListError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for EdgeListError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "edge list line {}: {}", self.line, self.message)
    }
}

impl Error for EdgeListError {}

/// The largest graph [`parse`] builds: vertex IDs must be below this.
///
/// The graph is sized by its largest ID, so one line naming a huge ID
/// would allocate per-vertex arrays for every smaller one (8 bytes each
/// for the degree count alone; 32 GiB at 2^32). 2^26 (67,108,864) leaves
/// room for the paper's largest Table 4 graph, livejournal at 4.8 M
/// vertices, fourteen times over.
pub const MAX_VERTICES: usize = 1 << 26;

/// Parse an edge-list text into a graph. Vertex IDs may be sparse; the
/// graph is sized by the largest ID seen plus one.
///
/// # Errors
///
/// Returns an [`EdgeListError`] for a malformed line or a vertex ID at or
/// above [`MAX_VERTICES`].
///
/// # Example
///
/// ```
/// let g = sc_graph::edgelist::parse("# a triangle\n0 1\n1 2\n2 0\n")?;
/// assert_eq!(g.num_edges(), 3);
/// # Ok::<(), sc_graph::edgelist::EdgeListError>(())
/// ```
pub fn parse(text: &str) -> Result<CsrGraph, EdgeListError> {
    let mut edges: Vec<(VertexId, VertexId)> = Vec::new();
    let mut max_v: VertexId = 0;
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let code = raw.trim();
        if code.is_empty() || code.starts_with('#') || code.starts_with('%') {
            continue;
        }
        let mut it = code.split_whitespace();
        let u: VertexId = it
            .next()
            .ok_or_else(|| EdgeListError { line, message: "missing source".into() })?
            .parse()
            .map_err(|_| EdgeListError { line, message: format!("bad vertex in `{code}`") })?;
        let v: VertexId = it
            .next()
            .ok_or_else(|| EdgeListError { line, message: "missing target".into() })?
            .parse()
            .map_err(|_| EdgeListError { line, message: format!("bad vertex in `{code}`") })?;
        if let Some(id) = [u, v].into_iter().find(|&id| id as usize >= MAX_VERTICES) {
            return Err(EdgeListError {
                line,
                message: format!("vertex {id} is at or above the limit of {MAX_VERTICES} vertices"),
            });
        }
        max_v = max_v.max(u).max(v);
        edges.push((u, v));
    }
    let n = if edges.is_empty() { 0 } else { max_v as usize + 1 };
    Ok(CsrGraph::from_edges(n, &edges))
}

/// Serialize a graph back to edge-list text (each undirected edge once,
/// smaller endpoint first).
pub fn to_text(graph: &CsrGraph) -> String {
    let mut out = String::new();
    for v in graph.vertices() {
        for &u in graph.neighbors(v) {
            if v < u {
                out.push_str(&format!("{v} {u}\n"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basic() {
        let g = parse("0 1\n1 2\n").unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let g = parse("# snap header\n% konect header\n\n0 1\n").unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn tabs_and_extra_fields_ok() {
        // KONECT files sometimes carry weights in a third column.
        let g = parse("0\t1\t5\n1\t2\t-3\n").unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn bad_line_reports_position() {
        let e = parse("0 1\nxyz 3\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.to_string().contains("xyz"));
    }

    #[test]
    fn missing_target_reported() {
        let e = parse("7\n").unwrap_err();
        assert!(e.message.contains("missing target"));
    }

    #[test]
    fn roundtrip() {
        let g = parse("0 1\n0 2\n1 2\n2 3\n").unwrap();
        let text = to_text(&g);
        let g2 = parse(&text).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn empty_input_gives_empty_graph() {
        let g = parse("# nothing\n").unwrap();
        assert_eq!(g.num_vertices(), 0);
    }

    #[test]
    fn oversized_vertex_id_is_an_error() {
        let e = parse("0 1\n4294967295 0\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("4294967295"), "{e}");
        assert!(parse(&format!("{MAX_VERTICES} 0\n")).is_err());
        assert!(parse(&format!("0 {MAX_VERTICES}\n")).is_err());
    }

    /// Lines built from the tokens edge lists hold, and some they should
    /// not: IDs at and above the limit, negative numbers, numbers past
    /// `u32`, short words, comment marks. The IDs that parse stay small,
    /// so no case builds a large graph.
    fn line() -> impl proptest::Strategy<Value = String> {
        use proptest::prelude::*;
        let token = prop_oneof![
            (0u32..64).prop_map(|v| v.to_string()),
            any::<u32>().prop_map(|v| (u64::from(v) + MAX_VERTICES as u64).to_string()),
            any::<u64>().prop_map(|v| (u128::from(v) + 1 + u128::from(u32::MAX)).to_string()),
            any::<u32>().prop_map(|v| format!("-{v}")),
            proptest::collection::vec(32u8..127, 0..5)
                .prop_map(|b| String::from_utf8(b).expect("ascii")),
            Just("#".to_string()),
            Just("%".to_string()),
            Just(String::new()),
        ];
        let sep = prop_oneof![Just(" "), Just("\t"), Just("  "), Just("")];
        proptest::collection::vec((token, sep), 0..5)
            .prop_map(|parts| parts.into_iter().map(|(t, s)| t + s).collect())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn arbitrary_lines_never_panic(lines in proptest::collection::vec(line(), 0..12)) {
            let text = lines.join("\n");
            if let Ok(g) = parse(&text) {
                proptest::prop_assert!(g.num_vertices() <= MAX_VERTICES);
            }
        }

        #[test]
        fn text_round_trip_keeps_every_edge(
            n in 1u32..60,
            raw in proptest::collection::vec((0u32..60, 0u32..60), 0..120),
        ) {
            let edges: Vec<(VertexId, VertexId)> = raw.iter().map(|&(u, v)| (u % n, v % n)).collect();
            let g = CsrGraph::from_edges(n as usize, &edges);
            let back = parse(&to_text(&g)).expect("to_text output parses");
            for v in g.vertices() {
                for &u in g.neighbors(v) {
                    proptest::prop_assert!(back.has_edge(u, v), "edge {u}-{v} lost");
                }
            }
            proptest::prop_assert_eq!(back.num_edges(), g.num_edges());
        }
    }
}
