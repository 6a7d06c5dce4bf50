//! Command-line flags declared as data, and the one parser that reads
//! them. Every binary of the workspace parses its argv here: the bench
//! bins, `sc-report`, `scsim`, `probe-check` and the static analyzers
//! `sc-lint`, `sc-verify` and `sc-cost`. The workspace builds offline,
//! so this stands in for what `clap` would otherwise provide.
//!
//! A binary (or one of its subcommands) lists its [`Flag`]s: the name,
//! whether the flag is a switch or takes a value, whether it may repeat,
//! the [`Check`] its value must pass, and the one other flag it may not
//! be given with or may only be given with. [`parse`] reads
//! `--flag value` and `--flag=value` alike, and refuses, with a message
//! that names the flag or value at fault:
//!
//! - an unknown flag (a flag of another subcommand is unknown here too);
//! - a missing or empty value, or one the flag's check refuses;
//! - a value given to a switch (`--switch=value`);
//! - a second occurrence of a flag that may not repeat;
//! - a flag given with the flag it excludes, or without the flag it
//!   requires;
//! - a bare argument where the command takes none.
//!
//! A value never starts with `--`: `--record --host` is a missing value,
//! not a path named `--host`. A lone `-` is a bare argument. Callers
//! exit 2 on any of these errors before they do any work.
//!
//! ```
//! use sc_probe::args::{self, Flag};
//!
//! let flags = [Flag::value("--cores").checked(args::positive), Flag::repeated("--registry")];
//! let argv = ["--cores=4", "--registry", "a", "--registry", "b"].map(String::from);
//! let a = args::parse(argv, &flags).unwrap();
//! assert_eq!(a.parsed::<usize>("--cores"), Some(4));
//! assert_eq!(a.values("--registry"), ["a", "b"]);
//! let err = args::parse(["--core".to_string()], &flags).unwrap_err();
//! assert_eq!(err, "unknown flag '--core'");
//! ```

use std::str::FromStr;

/// What a flag takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// `--name` alone, at most once.
    Switch,
    /// `--name value`, at most once.
    Value,
    /// `--name value`, any number of times; the values keep their order.
    Repeated,
}

/// A value check. `Err` says what the value should have been; the parser
/// reports `{flag} expects {that}, got '{value}'`.
pub type Check = fn(&str) -> Result<(), String>;

/// One declared flag.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as written on the command line: `--name` (or `-h`).
    pub name: &'static str,
    /// What the flag takes.
    pub arity: Arity,
    /// The check every value must pass; `None` takes any value.
    pub check: Option<Check>,
    /// A flag this one may not be given with.
    pub excludes: Option<&'static str>,
    /// A flag this one may only be given with.
    pub requires: Option<&'static str>,
}

impl Flag {
    /// A switch: `--name`.
    pub const fn switch(name: &'static str) -> Flag {
        Flag::new(name, Arity::Switch)
    }

    /// A flag with one value: `--name value`.
    pub const fn value(name: &'static str) -> Flag {
        Flag::new(name, Arity::Value)
    }

    /// A flag that may repeat, each time with a value.
    pub const fn repeated(name: &'static str) -> Flag {
        Flag::new(name, Arity::Repeated)
    }

    const fn new(name: &'static str, arity: Arity) -> Flag {
        Flag { name, arity, check: None, excludes: None, requires: None }
    }

    /// This flag, with `check` applied to every value.
    pub const fn checked(self, check: Check) -> Flag {
        Flag { check: Some(check), ..self }
    }

    /// This flag, refused together with `other` (in either order).
    pub const fn excluding(self, other: &'static str) -> Flag {
        Flag { excludes: Some(other), ..self }
    }

    /// This flag, refused unless `other` is given too.
    pub const fn requiring(self, other: &'static str) -> Flag {
        Flag { requires: Some(other), ..self }
    }
}

/// `Ok` when `ok`, else `Err(what)`: the body of most [`Check`]s.
///
/// # Errors
///
/// `what`, when `ok` is false.
pub fn ensure(ok: bool, what: &str) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(what.to_string())
    }
}

/// The [`Check`] of a count: a positive integer.
///
/// # Errors
///
/// When `v` is not a positive integer.
pub fn positive(v: &str) -> Result<(), String> {
    ensure(v.parse::<usize>().is_ok_and(|n| n > 0), "a positive integer")
}

/// The [`Check`] of a count that may be zero: a non-negative integer.
///
/// # Errors
///
/// When `v` is not a non-negative integer.
pub fn count(v: &str) -> Result<(), String> {
    ensure(v.parse::<usize>().is_ok(), "a non-negative integer")
}

/// A parsed command line: the flags given, in order, and the bare
/// arguments. Asking for a flag that was not declared is a bug in the
/// binary, and panics.
#[derive(Debug, Clone, Default)]
pub struct Args {
    declared: Vec<&'static str>,
    given: Vec<(&'static str, String)>,
    operands: Vec<String>,
}

impl Args {
    fn given<'a>(&'a self, name: &str) -> impl Iterator<Item = &'a str> + 'a {
        let declared = self.declared.iter().find(|d| **d == name);
        let name = *declared.unwrap_or_else(|| panic!("flag {name} is not declared"));
        self.given.iter().filter(move |(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// Was `name` given?
    pub fn switch(&self, name: &str) -> bool {
        self.given(name).next().is_some()
    }

    /// The value of `name`, if it was given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given(name).next()
    }

    /// Every value of the repeated flag `name`, in command-line order.
    pub fn values(&self, name: &str) -> Vec<String> {
        self.given(name).map(String::from).collect()
    }

    /// The value of `name` as a `T`.
    ///
    /// # Panics
    ///
    /// When the value does not parse as a `T`: the flag's check should
    /// have refused it.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Option<T> {
        let parse = |v: &str| v.parse().unwrap_or_else(|_| panic!("{name} '{v}' passed its check"));
        self.value(name).map(parse)
    }

    /// The bare arguments, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }
}

/// Parse `argv` (without the program or subcommand name) against
/// `flags`. A bare argument is an error.
///
/// # Errors
///
/// A message naming the flag or value at fault (see the module docs).
pub fn parse(argv: impl IntoIterator<Item = String>, flags: &[Flag]) -> Result<Args, String> {
    parse_args(argv, flags, false)
}

/// [`parse`], keeping bare arguments as [`Args::operands`].
///
/// # Errors
///
/// As [`parse`], bare arguments aside.
pub fn parse_with_operands(
    argv: impl IntoIterator<Item = String>,
    flags: &[Flag],
) -> Result<Args, String> {
    parse_args(argv, flags, true)
}

/// Split a subcommand line into its first argument, the subcommand, and
/// the rest, for [`parse`].
pub fn subcommand(argv: impl IntoIterator<Item = String>) -> (Option<String>, Vec<String>) {
    let mut argv = argv.into_iter();
    (argv.next(), argv.collect())
}

fn parse_args(
    argv: impl IntoIterator<Item = String>,
    flags: &[Flag],
    operands: bool,
) -> Result<Args, String> {
    let mut args = Args { declared: flags.iter().map(|f| f.name).collect(), ..Args::default() };
    let mut argv = argv.into_iter();
    while let Some(arg) = argv.next() {
        if !arg.starts_with('-') || arg == "-" {
            ensure(operands, &format!("unexpected argument '{arg}' (flags start with --)"))?;
            args.operands.push(arg);
            continue;
        }
        let (name, inline) = match arg.split_once('=') {
            Some((name, value)) if name.starts_with("--") => (name, Some(value.to_string())),
            _ => (arg.as_str(), None),
        };
        let flag = flags.iter().find(|f| f.name == name);
        let flag = flag.ok_or_else(|| format!("unknown flag '{name}'"))?;
        let again = args.given.iter().any(|(n, _)| *n == name);
        ensure(flag.arity == Arity::Repeated || !again, &format!("{name} given more than once"))?;
        let value = match (flag.arity, inline) {
            (Arity::Switch, None) => String::new(),
            (Arity::Switch, Some(_)) => return Err(format!("{name} takes no value, got '{arg}'")),
            (_, Some(value)) => value,
            (_, None) => argv.next().unwrap_or_default(),
        };
        if flag.arity != Arity::Switch {
            let missing = value.is_empty() || value.starts_with("--");
            ensure(!missing, &format!("flag '{name}' requires a value"))?;
            if let Some(Err(what)) = flag.check.map(|check| check(&value)) {
                return Err(format!("{name} expects {what}, got '{value}'"));
            }
        }
        args.given.push((flag.name, value));
    }
    let given = |name: &str| args.given.iter().any(|(n, _)| *n == name);
    for flag in flags.iter().filter(|f| given(f.name)) {
        if let Some(other) = flag.excludes.filter(|other| given(other)) {
            return Err(format!("{} and {other} are mutually exclusive", flag.name));
        }
        if let Some(other) = flag.requires.filter(|other| !given(other)) {
            return Err(format!("{} requires {other}", flag.name));
        }
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: [Flag; 5] = [
        Flag::switch("--gate").excluding("--registry"),
        Flag::value("--cores").checked(positive),
        Flag::repeated("--registry"),
        Flag::value("--out"),
        Flag::value("--chunk").requiring("--cores"),
    ];

    fn run(argv: &[&str]) -> Result<Args, String> {
        parse(argv.iter().map(|s| s.to_string()), &FLAGS)
    }

    #[test]
    fn values_switches_and_absences_read_back() {
        let a = run(&["--gate", "--cores", "4", "--out", "x.json"]).unwrap();
        assert!(a.switch("--gate"));
        assert_eq!(a.parsed::<usize>("--cores"), Some(4));
        assert_eq!(a.value("--out"), Some("x.json"));
        assert!(a.values("--registry").is_empty());
        let a = run(&[]).unwrap();
        assert!(!a.switch("--gate"));
        assert_eq!(a.value("--out"), None);
    }

    #[test]
    fn repeated_flags_keep_their_order() {
        let a = run(&["--registry", "a", "--out", "o", "--registry=b", "--registry", "c"]).unwrap();
        assert_eq!(a.values("--registry"), ["a", "b", "c"]);
    }

    #[test]
    fn each_usage_error_names_what_is_wrong() {
        for (argv, want) in [
            (&["--core", "6"][..], "unknown flag '--core'"),
            (&["--core=6"], "unknown flag '--core'"),
            (&["-x"], "unknown flag '-x'"),
            (&["--cores"], "flag '--cores' requires a value"),
            (&["--cores", "--gate"], "flag '--cores' requires a value"),
            (&["--out="], "flag '--out' requires a value"),
            (&["--cores", "0"], "--cores expects a positive integer, got '0'"),
            (&["--cores=x"], "--cores expects a positive integer, got 'x'"),
            (&["--gate=yes"], "--gate takes no value, got '--gate=yes'"),
            (&["--gate", "--gate"], "--gate given more than once"),
            (&["--out", "a", "--out", "b"], "--out given more than once"),
            (&["stray"], "unexpected argument 'stray' (flags start with --)"),
            (&["--registry", "r", "--gate"], "--gate and --registry are mutually exclusive"),
            (&["--gate", "--registry=r"], "--gate and --registry are mutually exclusive"),
            (&["--chunk", "8"], "--chunk requires --cores"),
        ] {
            assert_eq!(run(argv).unwrap_err(), want, "{argv:?}");
        }
    }

    #[test]
    fn operands_are_kept_only_where_declared() {
        let argv = ["a", "--gate", "-", "b"].map(String::from);
        let a = parse_with_operands(argv, &FLAGS).unwrap();
        assert_eq!(a.operands(), ["a", "-", "b"]);
        assert!(a.switch("--gate"));
        assert_eq!(run(&["--chunk=8", "--cores", "2"]).unwrap().value("--chunk"), Some("8"));
    }

    #[test]
    #[should_panic(expected = "flag --bogus is not declared")]
    fn asking_for_an_undeclared_flag_is_a_bug() {
        run(&[]).unwrap().switch("--bogus");
    }

    #[test]
    fn subcommand_splits_off_the_first_argument() {
        let (cmd, rest) = subcommand(["mine", "--cores", "2"].map(String::from));
        assert_eq!((cmd.as_deref(), rest.len()), (Some("mine"), 2));
        assert_eq!(subcommand(Vec::new()), (None, Vec::new()));
    }
}
