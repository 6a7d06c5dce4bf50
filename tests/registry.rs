//! The sanitizer registry (`sparsecore::sanitize::REGISTRY`) and the
//! mutation-fixture suite (`tests/mutation_fixtures.rs`) cover each other
//! exactly: every row names a `#[test]` of the suite, and every
//! `s3NN_*_trips` test there is some row's fixture.

use sparsecore::sanitize::REGISTRY;

/// The names of the `#[test]` functions in `source`.
fn tests_in(source: &str) -> Vec<&str> {
    let mut lines = source.lines().map(str::trim);
    let mut names = Vec::new();
    while let Some(line) = lines.next() {
        if line == "#[test]" {
            let next = lines.next().unwrap_or_default();
            let name = next.strip_prefix("fn ").and_then(|rest| rest.split_once('('));
            names.push(name.unwrap_or_else(|| panic!("a #[test] fn, got: {next}")).0);
        }
    }
    names
}

#[test]
fn registry_and_fixture_suite_cover_each_other() {
    let tests = tests_in(include_str!("mutation_fixtures.rs"));
    for row in REGISTRY {
        assert!(
            tests.contains(&row.fixture),
            "{}: no test named {}",
            row.code.as_str(),
            row.fixture
        );
        let code = row.code.as_str().strip_prefix("SC-S").expect("an SC-S3xx code");
        assert!(row.fixture.starts_with(&format!("s{code}_")), "{} is not {code}'s", row.fixture);
    }
    let trips = tests.iter().filter(|t| t.starts_with('s') && t.ends_with("_trips"));
    for test in trips {
        assert!(REGISTRY.iter().any(|row| row.fixture == *test), "{test} is no row's fixture");
    }
    assert_eq!(REGISTRY.len(), 13);
}
