//! `sc_probe::json::parse` reads every registry, span document, BENCH
//! file and reference file, candidate files from outside the repository
//! included. It must turn any string into a value or an error — never a
//! panic or a stack overflow — and it must read back exactly what
//! `Value::to_json` writes.

use proptest::prelude::*;
use sc_probe::json::{self, Value};

/// Characters JSON syntax is made of, so random text reaches deep into
/// the parser instead of failing at the first byte.
const SYNTAX: &[char] = &[
    '[', ']', '{', '}', '"', ',', ':', '\\', '/', 'u', 'n', 't', 'r', 'e', 'f', 'a', 'l', 's', '0',
    '1', '9', '.', 'e', 'E', '+', '-', ' ', '\n', 'é', '\u{0}', 'd', '8',
];

fn arbitrary_text() -> impl Strategy<Value = String> {
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..200)
            .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned()),
        proptest::collection::vec(0..SYNTAX.len(), 0..200)
            .prop_map(|picks| picks.into_iter().map(|i| SYNTAX[i]).collect()),
        // Deep nesting, closed or not, around the depth limit and past it.
        (0usize..3 * json::MAX_DEPTH, any::<bool>(), any::<bool>()).prop_map(
            |(depth, objects, closed)| {
                let (open, close) = if objects { ("{\"k\":", "}") } else { ("[", "]") };
                let tail = if closed { close.repeat(depth) } else { String::new() };
                format!("{}1{tail}", open.repeat(depth))
            }
        ),
    ]
}

/// One node of a generated document, in prefix order: its kind, a
/// number that sizes or fills it, and the code points of its text.
type Token = (u8, u64, Vec<u32>);

/// A string with the characters the writer must escape mixed in.
fn text(codes: &[u32]) -> String {
    const TRICKY: [char; 7] = ['"', '\\', '\n', '\r', '\t', '\u{1}', '\u{7f}'];
    codes
        .iter()
        .map(|&c| match c % 4 {
            0 => TRICKY[(c / 4) as usize % TRICKY.len()],
            _ => char::from_u32((c / 4) % 0x11_0000).unwrap_or('\u{fffd}'),
        })
        .collect()
}

/// A finite number: integers of every size, and arbitrary finite bits.
fn finite(x: u64) -> f64 {
    let bits = f64::from_bits(x);
    match x % 3 {
        0 => (x as i64 >> (x % 64)) as f64,
        _ if bits.is_finite() => bits,
        _ => (x % 1_000_000) as f64 / 7.0,
    }
}

/// Build one value from `tokens`, nesting at most 8 levels below `depth`.
fn build(tokens: &mut std::slice::Iter<'_, Token>, depth: usize) -> Value {
    let Some((kind, x, codes)) = tokens.next() else {
        return Value::Null;
    };
    let width = (x % 5) as usize;
    match kind {
        1 => Value::Bool(x % 2 == 1),
        2 => Value::Num(finite(*x)),
        3 => Value::Str(text(codes)),
        4 if depth < 8 => Value::Arr((0..width).map(|_| build(tokens, depth + 1)).collect()),
        5 if depth < 8 => Value::Obj(
            (0..width).map(|i| (format!("{}{i}", text(codes)), build(tokens, depth + 1))).collect(),
        ),
        _ => Value::Null,
    }
}

fn arbitrary_value() -> impl Strategy<Value = Value> {
    let token = (0u8..6, any::<u64>(), proptest::collection::vec(any::<u32>(), 0..6));
    proptest::collection::vec(token, 1..40).prop_map(|tokens| build(&mut tokens.iter(), 0))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_never_panics(text in arbitrary_text()) {
        // Any outcome but a panic is fine; a document that parses must
        // also serialize and parse again.
        if let Ok(v) = json::parse(&text) {
            prop_assert!(json::parse(&v.to_json()).is_ok(), "re-parse of {text:?}");
        }
    }

    #[test]
    fn to_json_then_parse_is_the_identity(v in arbitrary_value()) {
        let doc = v.to_json();
        prop_assert_eq!(json::parse(&doc), Ok(v), "document {}", doc);
    }
}
