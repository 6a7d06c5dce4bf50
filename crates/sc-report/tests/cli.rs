//! End-to-end tests of the `sc-report` binary: registry round trips,
//! the regression verdict's exit codes, mutation detection, scoreboard
//! gating, and the trend report.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use sc_report::{render_record_file, RunRecord};

fn sc_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sc-report")).args(args).output().expect("spawn sc-report")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn sample(workload: &str, cycles: u64, checksum: u64) -> RunRecord {
    RunRecord {
        bench: "fig08_cpu_speedup".into(),
        workload: workload.into(),
        git_sha: "cafe12345678".into(),
        config_digest: 0xce83,
        checksum,
        cycles,
        baseline_cycles: Some(cycles * 12),
        wall_ms: 10.0,
        attr: [cycles / 5; 5],
        cost: None,
        host: None,
    }
}

fn write_registry(dir: &Path, name: &str, records: &[RunRecord]) -> PathBuf {
    let path = dir.join(name);
    std::fs::write(&path, render_record_file(records)).unwrap();
    path
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sc_report_cli_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn verify_passes_on_valid_registry_and_rejects_corruption() {
    let dir = temp_dir("verify");
    let reg = write_registry(&dir, "runs.json", &[sample("TC/C", 1000, 42)]);
    let out = sc_report(&["verify", reg.to_str().unwrap()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("0 round-trip failures"));

    std::fs::write(dir.join("bad.json"), "{\"schema\":2,\"records\":[{}]}").unwrap();
    let out = sc_report(&["verify", dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "parse errors are usage-level failures");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compare_passes_identical_and_fails_each_mutation() {
    let dir = temp_dir("compare");
    let base = write_registry(&dir, "base.json", &[sample("TC/C", 1000, 42)]);
    let same = write_registry(&dir, "same.json", &[sample("TC/C", 1000, 42)]);
    let out = sc_report(&[
        "compare",
        "--baseline",
        base.to_str().unwrap(),
        "--candidate",
        same.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("PASS"));

    // Each exact metric flips the verdict on its own.
    let mut cycles = sample("TC/C", 1001, 42);
    cycles.attr = sample("TC/C", 1000, 42).attr; // isolate the cycles change
    let mutations: [(&str, RunRecord); 3] = [
        ("cycles", cycles),
        ("checksum", sample("TC/C", 1000, 43)),
        ("attr", {
            let mut r = sample("TC/C", 1000, 42);
            r.attr[0] += 1;
            r
        }),
    ];
    for (what, record) in mutations {
        let cand = write_registry(&dir, &format!("mut_{what}.json"), &[record]);
        let out = sc_report(&[
            "compare",
            "--baseline",
            base.to_str().unwrap(),
            "--candidate",
            cand.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(1), "{what} mutation must FAIL:\n{}", stdout(&out));
        assert!(stdout(&out).contains("FAIL"), "{what}: {}", stdout(&out));
    }

    // Wall-clock noise alone stays a PASS (warning only).
    let mut slow = sample("TC/C", 1000, 42);
    slow.wall_ms = 100.0;
    let cand = write_registry(&dir, "slow.json", &[slow.clone()]);
    let out = sc_report(&[
        "compare",
        "--baseline",
        base.to_str().unwrap(),
        "--candidate",
        cand.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("wall-clock"));
    // ... unless --strict-wall escalates it.
    let out = sc_report(&[
        "compare",
        "--baseline",
        base.to_str().unwrap(),
        "--candidate",
        cand.to_str().unwrap(),
        "--strict-wall",
    ]);
    assert_eq!(out.status.code(), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn scoreboard_reports_drift_and_gates() {
    let dir = temp_dir("scoreboard");
    // speedup 12x measured vs 10x reference = +20% drift.
    let reg = write_registry(&dir, "runs.json", &[sample("TC/C", 1000, 42)]);
    let reference = dir.join("reference.json");
    let write_ref = |budget: f64| {
        std::fs::write(
            &reference,
            format!(
                r#"{{"figures":{{"fig08":{{"title":"t","bench":"fig08_cpu_speedup","metric":"speedup","reference_gmean":10.0,"budget_pct":{budget},"source":"paper"}}}}}}"#
            ),
        )
        .unwrap();
    };
    write_ref(50.0);
    let md = dir.join("scoreboard.md");
    let out = sc_report(&[
        "scoreboard",
        "--registry",
        reg.to_str().unwrap(),
        "--reference",
        reference.to_str().unwrap(),
        "--markdown",
        md.to_str().unwrap(),
        "--gate",
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    let text = stdout(&out);
    assert!(text.contains("+20.0"), "{text}");
    assert!(text.contains("overall fidelity geomean drift"), "{text}");
    let md_text = std::fs::read_to_string(&md).unwrap();
    assert!(md_text.contains("| fig08 |"), "{md_text}");

    // Tighten the budget below the measured drift: the gate fails.
    write_ref(10.0);
    let out = sc_report(&[
        "scoreboard",
        "--registry",
        reg.to_str().unwrap(),
        "--reference",
        reference.to_str().unwrap(),
        "--gate",
    ]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trend_writes_bench_json() {
    let dir = temp_dir("trend");
    let mut newer = sample("TC/C", 900, 42);
    newer.git_sha = "beef00000000".into();
    let reg = write_registry(&dir, "runs.json", &[sample("TC/C", 1000, 42), newer]);
    let out_path = dir.join("BENCH_sc.json");
    let out = sc_report(&[
        "trend",
        "--registry",
        reg.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    let doc = std::fs::read_to_string(&out_path).unwrap();
    let v = sc_probe::json::parse(&doc).unwrap();
    let points = v.get("points").unwrap().as_arr().unwrap();
    assert_eq!(points.len(), 2);
    assert_eq!(points[0].get("git_sha").unwrap().as_str(), Some("cafe12345678"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trend_out_accumulates_points_across_runs() {
    let dir = temp_dir("trend_merge");
    let out_path = dir.join("BENCH_sc.json");
    // First recorded run seeds the trajectory.
    let reg1 = write_registry(&dir, "run1.json", &[sample("TC/C", 1000, 42)]);
    let out = sc_report(&[
        "trend",
        "--registry",
        reg1.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    // A later run at a different SHA appends; the seed point survives.
    let mut newer = sample("TC/C", 900, 42);
    newer.git_sha = "beef00000000".into();
    let reg2 = write_registry(&dir, "run2.json", &[newer.clone()]);
    let out = sc_report(&[
        "trend",
        "--registry",
        reg2.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    assert!(stdout(&out).contains("2 trajectory points"), "{}", stdout(&out));
    let doc = std::fs::read_to_string(&out_path).unwrap();
    let v = sc_probe::json::parse(&doc).unwrap();
    let points = v.get("points").unwrap().as_arr().unwrap();
    assert_eq!(points.len(), 2, "seed point must survive the second write:\n{doc}");
    assert_eq!(points[0].get("git_sha").unwrap().as_str(), Some("cafe12345678"));
    assert_eq!(points[1].get("git_sha").unwrap().as_str(), Some("beef00000000"));
    // Re-recording the same SHA replaces in place instead of duplicating.
    newer.cycles = 901;
    let reg3 = write_registry(&dir, "run3.json", &[newer]);
    let out = sc_report(&[
        "trend",
        "--registry",
        reg3.to_str().unwrap(),
        "--out",
        out_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stdout(&out));
    let doc = std::fs::read_to_string(&out_path).unwrap();
    let v = sc_probe::json::parse(&doc).unwrap();
    let points = v.get("points").unwrap().as_arr().unwrap();
    assert_eq!(points.len(), 2);
    assert_eq!(points[1].get("total_cycles").unwrap().as_f64(), Some(901.0));
    let _ = std::fs::remove_dir_all(&dir);
}

fn hosted(workload: &str, wall_ms: f64, rss_kb: u64) -> RunRecord {
    let mut r = sample(workload, 1000, 42);
    r.wall_ms = wall_ms;
    r.host = Some(sc_report::HostSection {
        phase_ms: [wall_ms * 0.4, 0.0, 0.0, wall_ms * 0.5, wall_ms * 0.1, 0.0],
        peak_rss_kb: Some(rss_kb),
        alloc_count: 10,
        alloc_bytes: 1 << 20,
        alloc_peak_bytes: 1 << 22,
    });
    r
}

#[test]
fn host_reports_and_gates_budgets() {
    let dir = temp_dir("host");
    let reg = write_registry(&dir, "runs.json", &[hosted("TC/C", 10.0, 90_000)]);
    let reg_s = reg.to_str().unwrap();
    // Defaults pass and the table renders phases + totals.
    let out = sc_report(&["host", "--registry", reg_s, "--require"]);
    assert!(out.status.success(), "{}\n{}", stdout(&out), String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.contains("simulate") && text.contains("TOTAL"), "{text}");
    // `trend --out` is the one writer of BENCH_sc.json, and its point
    // carries the host slice; `host` takes no --out.
    let out_path = dir.join("BENCH_sc.json");
    let out_s = out_path.to_str().unwrap();
    let out = sc_report(&["trend", "--registry", reg_s, "--out", out_s]);
    assert!(out.status.success(), "{}", stdout(&out));
    let doc = std::fs::read_to_string(&out_path).unwrap();
    assert!(doc.contains("\"host\""), "trend point carries the host slice:\n{doc}");
    let out = sc_report(&["host", "--registry", reg_s, "--out", out_s]);
    assert_eq!(out.status.code(), Some(2), "host --out is an unknown flag");
    // Deliberate budget violations exit nonzero.
    let out = sc_report(&["host", "--registry", reg_s, "--max-rss-kb", "1"]);
    assert_eq!(out.status.code(), Some(1), "RSS ceiling must trip");
    assert!(String::from_utf8_lossy(&out.stderr).contains("peak RSS"), "names the gate");
    let slow = write_registry(&dir, "slow.json", &[hosted("TC/C", 20.0, 90_000)]);
    let out = sc_report(&[
        "host",
        "--registry",
        slow.to_str().unwrap(),
        "--baseline",
        reg_s,
        "--max-wall-regress",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(1), "--max-wall-regress 0 must reject any slowdown");
    // A registry recorded without --host fails --require but passes without it.
    let bare = write_registry(&dir, "bare.json", &[sample("TC/C", 1000, 42)]);
    let out = sc_report(&["host", "--registry", bare.to_str().unwrap(), "--require"]);
    assert_eq!(out.status.code(), Some(1));
    let out = sc_report(&["host", "--registry", bare.to_str().unwrap()]);
    assert!(out.status.success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(sc_report(&[]).status.code(), Some(2));
    assert_eq!(sc_report(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(sc_report(&["compare", "--baseline", "/nonexistent"]).status.code(), Some(2));
    assert!(sc_report(&["--help"]).status.success());
    let help = stdout(&sc_report(&["help"]));
    for sub in ["verify", "compare", "scoreboard", "tightness", "trend", "host", "explain", "html"]
    {
        assert!(help.lines().next().unwrap().contains(sub), "usage line lacks {sub}: {help}");
    }
}

#[test]
fn flag_errors_exit_2_and_name_the_flag() {
    for (args, want) in [
        (&["trend", "--no-such-flag"][..], "unknown flag '--no-such-flag'"),
        // A flag of another subcommand is unknown here.
        (&["trend", "--registry", "r", "--gate"], "unknown flag '--gate'"),
        (&["trend", "--registry"], "flag '--registry' requires a value"),
        (&["compare", "--strict-wall=yes"], "--strict-wall takes no value"),
        (&["compare", "--wall-tol", "-1"], "--wall-tol expects a fraction >= 0, got '-1'"),
        (&["tightness", "--max", "0.5"], "--max expects a ratio >= 1.0"),
        (&["host", "--max-wall-regress", "inf"], "--max-wall-regress expects"),
        (&["host", "--max-rss-kb", "-3"], "--max-rss-kb expects"),
        (&["explain", "--top", "x"], "--top expects"),
        (&["html", "--out", "a", "--out", "b"], "--out given more than once"),
        (&["scoreboard", "stray"], "unexpected argument 'stray'"),
    ] {
        let out = sc_report(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(want), "{args:?}: {err}");
    }
}

#[test]
fn compare_reads_the_equals_form() {
    let dir = temp_dir("compare_equals");
    let registry = |name: &str, checksum: u64| {
        let sub = dir.join(name);
        std::fs::create_dir_all(&sub).unwrap();
        write_registry(&sub, "fig08_cpu_speedup.json", &[sample("TC/C", 1000, checksum)]);
        sub
    };
    let (base, same, changed) = (registry("base", 42), registry("same", 42), registry("cand", 43));
    let baseline = format!("--baseline={}", base.display());
    let out = sc_report(&["compare", &baseline, &format!("--candidate={}", same.display())]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout(&out).contains("PASS (1 keys compared"), "{}", stdout(&out));
    let out = sc_report(&["compare", &baseline, &format!("--candidate={}", changed.display())]);
    assert_eq!(out.status.code(), Some(1), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}
