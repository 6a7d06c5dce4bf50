//! `sc_probe::args` reads every command line the bench bins, `sc-report`,
//! `scsim` and `probe-check` are given. Whatever the tokens, it returns
//! parsed flags or an error, never a panic; an unknown flag is an error
//! that names it; `--flag=value` parses exactly as `--flag value`; a
//! switch given a value is an error; and a repeated flag keeps its values
//! in order.

use proptest::prelude::*;
use sc_probe::args::{self, Args, Flag};

const FLAGS: [Flag; 4] = [
    Flag::switch("--gate"),
    Flag::value("--cores").checked(args::positive),
    Flag::value("--out"),
    Flag::repeated("--registry"),
];

/// Tokens built from the pieces command lines are made of, so random
/// argv reaches every branch of the parser.
const PIECES: &[&str] = &[
    "--gate",
    "--cores",
    "--out",
    "--registry",
    "--bogus",
    "-h",
    "-",
    "--",
    "=",
    "0",
    "4",
    "x",
    "a,b",
    "",
    " ",
    "é",
    "--cores=",
    "--gate=1",
    "-1",
];

fn token() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..PIECES.len(), 0..3)
        .prop_map(|picks| picks.into_iter().map(|i| PIECES[i]).collect())
}

fn argv() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(token(), 0..8)
}

/// Everything a parse exposes, for comparing two parses.
fn view(a: &Args) -> (bool, Option<String>, Option<String>, Vec<String>) {
    let value = |name| a.value(name).map(String::from);
    (a.switch("--gate"), value("--cores"), value("--out"), a.values("--registry"))
}

proptest! {
    #[test]
    fn arbitrary_tokens_parse_or_fail_without_panicking(argv in argv()) {
        if let Ok(a) = args::parse(argv.clone(), &FLAGS) {
            view(&a);
            if let Some(cores) = a.parsed::<usize>("--cores") {
                prop_assert!(cores > 0);
            }
        }
        let _ = args::parse_with_operands(argv, &FLAGS);
    }

    #[test]
    fn unknown_flags_are_errors_that_name_them(argv in argv(), name in token()) {
        let flag = format!("--zz{name}");
        let mut line = argv;
        let at = line.len() / 2;
        line.insert(at, flag.clone());
        if let Err(err) = args::parse(line[..at].to_vec(), &FLAGS) {
            // An earlier token was already at fault.
            prop_assert!(!err.is_empty());
        } else {
            let err = args::parse(line, &FLAGS).unwrap_err();
            let named = flag.split_once('=').map_or(flag.as_str(), |(n, _)| n);
            prop_assert!(err.contains(named), "{err} does not name {named}");
        }
    }

    #[test]
    fn equals_form_parses_as_the_spaced_form(
        argv in argv(),
        flag in 1usize..4,
        value in token(),
    ) {
        let name = FLAGS[flag].name;
        let mut spaced = argv.clone();
        spaced.extend([name.to_string(), value.clone()]);
        let mut joined = argv;
        joined.push(format!("{name}={value}"));
        let (spaced, joined) = (args::parse(spaced, &FLAGS), args::parse(joined, &FLAGS));
        prop_assert_eq!(spaced.is_ok(), joined.is_ok(), "{:?} vs {:?}", spaced, joined);
        if let (Ok(s), Ok(j)) = (spaced, joined) {
            prop_assert_eq!(view(&s), view(&j));
        }
    }

    #[test]
    fn a_switch_given_a_value_is_an_error(value in token()) {
        let err = args::parse([format!("--gate={value}")], &FLAGS).unwrap_err();
        prop_assert!(err.contains("--gate"), "{}", err);
    }

    #[test]
    fn repeated_flags_keep_their_order(values in proptest::collection::vec(0u32..1000, 0..6)) {
        let argv = values.iter().flat_map(|v| ["--registry".to_string(), format!("r{v}")]);
        let a = args::parse(argv, &FLAGS).unwrap();
        let want: Vec<String> = values.iter().map(|v| format!("r{v}")).collect();
        prop_assert_eq!(a.values("--registry"), want);
    }
}
