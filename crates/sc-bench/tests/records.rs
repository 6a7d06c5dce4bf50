//! A bench's records do not depend on the probe. `--record` alone runs
//! with the probe off (no `# probe:` banner), and adding `--metrics`
//! turns it on without changing one record: bins, cost sections and
//! every other field except the wall-clock measurements are the same.

use sc_report::record::{parse_record_file, RunRecord};
use std::path::PathBuf;
use std::process::Command;

/// Run `bin` with `args --record <file>`, plus `--metrics <file>` when
/// `metrics` is set, and return its records (wall clock cleared) and
/// stdout.
fn run(bin: &str, args: &[&str], tag: &str, metrics: bool) -> (Vec<RunRecord>, String) {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("sc_bench_records_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creating a scratch dir");
    let reg = dir.join("registry.json");
    let mut cmd = Command::new(bin);
    cmd.args(args).arg("--record").arg(&reg);
    if metrics {
        cmd.arg("--metrics").arg(dir.join("metrics.json"));
    }
    let out = cmd.output().unwrap_or_else(|e| panic!("spawning {bin}: {e}"));
    assert!(out.status.success(), "{bin} failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let doc = std::fs::read_to_string(&reg).expect("registry written");
    let mut records = parse_record_file(&doc).expect("registry parses");
    for r in &mut records {
        r.wall_ms = 0.0;
        r.host = None;
    }
    let _ = std::fs::remove_dir_all(&dir);
    (records, String::from_utf8(out.stdout).expect("utf-8 stdout"))
}

fn assert_records_ignore_the_probe(name: &str, bin: &str, args: &[&str]) {
    let (alone, stdout) = run(bin, args, &format!("{name}_record"), false);
    let (probed, probed_stdout) = run(bin, args, &format!("{name}_metrics"), true);
    assert!(
        !stdout.lines().any(|l| l.starts_with("# probe:")),
        "{name}: --record alone turned the probe on:\n{stdout}"
    );
    assert!(probed_stdout.lines().any(|l| l.starts_with("# probe: level metrics")));
    assert!(alone.iter().any(|r| r.attr.iter().any(|&b| b > 0)), "{name}: no record has bins");
    assert!(alone.iter().all(|r| r.cost.is_some()), "{name}: a record lacks its cost section");
    assert_eq!(alone, probed, "{name}: --metrics changed the records");
}

#[test]
fn fig09_10_records_do_not_depend_on_the_probe() {
    assert_records_ignore_the_probe(
        "fig09_10",
        env!("CARGO_BIN_EXE_fig09_10_breakdown"),
        &["--datasets", "C", "--cost"],
    );
}

#[test]
fn ablations_records_do_not_depend_on_the_probe() {
    assert_records_ignore_the_probe(
        "ablations",
        env!("CARGO_BIN_EXE_ablations"),
        &["--datasets", "E", "--cost"],
    );
}
