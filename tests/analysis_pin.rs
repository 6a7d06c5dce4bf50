//! Pin what the three static analyzers say about a fixed corpus, byte
//! for byte, against documents captured from an earlier build.
//!
//! The corpus has three parts, one document each under
//! `tests/data/analysis_pin/`:
//!
//! * `shipped.txt`: the `programs/*.sasm` files and the `sc-lint` CLI
//!   fixtures;
//! * `planted.txt`: one small program per finding the analyzers can
//!   emit (SC-E001–E006, W101, W102, W201–W206, S301–S303, S310, S312),
//!   plus programs where several lint families fire at one instruction,
//!   where a stream is both an operand and the output, that use
//!   `S_NESTINTER`, `S_LD_GFR` and priority reads, and merge chains whose
//!   length lower bounds matter to the cost floor;
//! * `generated.txt`: 64 programs from a fixed-seed generator (up to 40
//!   random instructions over 20 stream IDs, every mnemonic, faults
//!   allowed, then frees of most streams they defined: 58 instructions
//!   at most), pinned as one digest per analyzer.
//!
//! For each program the documents hold `Program::validate`,
//! `max_live_streams`, `lint(..).to_json()` under five lint
//! configurations, `verify_program`'s report, proofs, pressure and
//! scratchpad peak under five verifier configurations, and
//! `cost_program`'s report, proofs and bounds under four hardware
//! configurations. A configuration whose output equals an earlier one's
//! prints as `= name`.

use sc_cost::cost_program;
use sc_isa::{Bound, GfrSet, Instr, Priority, Program, StreamId, ValueOp};
use sc_lint::{lint, LintConfig, PerfThresholds};
use sc_verify::{verify_program, VerifyConfig};
use sparsecore::SparseCoreConfig;
use std::fmt::Write as _;
use std::path::Path;

fn lint_configs() -> Vec<(&'static str, LintConfig)> {
    let tiny = SparseCoreConfig::tiny();
    let mem = &tiny.core.mem;
    let tiny_w204 = PerfThresholds::derive(
        mem.l2.line_bytes,
        tiny.scache.key_bytes,
        mem.l2.latency + mem.l3.latency + mem.dram_latency,
    );
    vec![
        ("default", LintConfig::default()),
        ("virtualized", LintConfig::default().virtualization(true)),
        ("registers8", LintConfig::default().stream_registers(8)),
        ("fragment", LintConfig::default().check_leaks(false).perf_lints(false)),
        ("tiny_w204", LintConfig::default().perf_thresholds(tiny_w204)),
    ]
}

fn verify_configs() -> Vec<(&'static str, VerifyConfig)> {
    vec![
        ("paper", VerifyConfig::paper()),
        ("virtualized", VerifyConfig::paper().virtualized()),
        ("registers8", VerifyConfig::paper().with_stream_registers(8)),
        ("protect", VerifyConfig::paper().protect(0xC000_0000, 0xC000_1000)),
        ("out_alloc", VerifyConfig::paper().with_out_alloc(0x1000)),
    ]
}

fn cost_configs() -> Vec<(&'static str, SparseCoreConfig)> {
    vec![
        ("paper", SparseCoreConfig::paper()),
        ("tiny", SparseCoreConfig::tiny()),
        ("sus1", SparseCoreConfig::with_sus(1)),
        ("sus6", SparseCoreConfig::with_sus(6)),
    ]
}

fn render_lint(p: &Program) -> Vec<(&'static str, String)> {
    lint_configs().into_iter().map(|(name, cfg)| (name, lint(p, &cfg).to_json())).collect()
}

fn render_verify(p: &Program) -> Vec<(&'static str, String)> {
    verify_configs()
        .into_iter()
        .map(|(name, cfg)| {
            let v = verify_program(p, &cfg);
            let proofs: Vec<&str> = v.proofs.iter().map(|p| p.obligation).collect();
            let out = format!(
                "{} {}\n  proofs {proofs:?}\n  pressure {:?} max {} scratch {}",
                v.status(),
                v.report.to_json(),
                v.pressure,
                v.max_pressure,
                v.scratch_peak
            );
            (name, out)
        })
        .collect()
}

fn render_cost(p: &Program) -> Vec<(&'static str, String)> {
    cost_configs()
        .into_iter()
        .map(|(name, cfg)| {
            let v = cost_program(p, &cfg);
            let c = &v.cost;
            let proofs: Vec<&str> = v.proofs.iter().map(|p| p.obligation).collect();
            let mut out = format!(
                "{} {}\n  proofs {proofs:?}\n  cycles {} traffic {} hull {} max {} footprint {}\n  instr_upper {:?}",
                v.status(),
                v.report.to_json(),
                c.cycles,
                c.traffic_bytes,
                c.length_hull,
                c.max_pressure,
                c.footprint_bytes,
                c.instr_upper,
            );
            for r in &c.regions {
                write!(
                    out,
                    "\n  region {}..{} cycles {} traffic {} peak {}",
                    r.first, r.last, r.cycles, r.traffic_bytes, r.peak_pressure
                )
                .expect("write to String");
            }
            (name, out)
        })
        .collect()
}

/// `label[name]: output` per configuration, with repeats of an earlier
/// configuration's output folded to `= earlier`.
fn section(out: &mut String, label: &str, rows: &[(&'static str, String)]) {
    for (i, (name, text)) in rows.iter().enumerate() {
        match rows[..i].iter().find(|(_, t)| t == text) {
            Some((same, _)) => writeln!(out, "{label}[{name}] = {same}"),
            None => writeln!(out, "{label}[{name}] {text}"),
        }
        .expect("write to String");
    }
}

fn head(p: &Program) -> String {
    format!("validate {:?}\nmax_live {}\n", p.validate(), p.max_live_streams())
}

fn render_full(name: &str, p: &Program) -> String {
    let mut out = format!("== {name}\n{}", head(p));
    section(&mut out, "lint", &render_lint(p));
    section(&mut out, "verify", &render_verify(p));
    section(&mut out, "cost", &render_cost(p));
    out
}

/// FNV-1a, 64 bit: a stable digest for the generated programs' outputs.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn render_digest(name: &str, p: &Program) -> String {
    let mut parts = [String::new(), String::new(), String::new()];
    section(&mut parts[0], "lint", &render_lint(p));
    section(&mut parts[1], "verify", &render_verify(p));
    section(&mut parts[2], "cost", &render_cost(p));
    format!(
        "{name} {} validate {:?} max_live {} lint {:016x} verify {:016x} cost {:016x}\n",
        p.len(),
        p.validate(),
        p.max_live_streams(),
        fnv(&parts[0]),
        fnv(&parts[1]),
        fnv(&parts[2]),
    )
}

fn parse(name: &str, text: &str) -> Program {
    sc_isa::parse_program(text).unwrap_or_else(|e| panic!("{name} does not parse: {e}"))
}

/// Seventeen reads of disjoint 16-key ranges, then their frees: more
/// live streams than the paper's 16 registers and its 4 KiB S-Cache.
fn seventeen_live() -> String {
    let mut s = String::new();
    for n in 0..17u64 {
        writeln!(s, "S_READ {:#x}, 16, s{n}, 0", 0x1000 * (n + 1)).expect("write to String");
    }
    for n in 0..17 {
        writeln!(s, "S_FREE s{n}").expect("write to String");
    }
    s
}

/// Programs planted to trigger each finding; every one of them runs
/// under every configuration above.
fn planted() -> Vec<(&'static str, String)> {
    let fixed: &[(&str, &str)] = &[
        ("e001_use_never_defined", "S_FETCH s3, 0\n"),
        ("e002_free_never_defined", "S_FREE s5\n"),
        ("e003_s302_leak", "S_READ 0x1000, 16, s0, 0\nS_READ 0x2000, 32, s1, 0\nS_FREE s0\n"),
        (
            "e004_key_only_value_op",
            "S_READ 0x1000, 16, s0, 0\n\
             S_VREAD 0x2000, 16, s1, 0x10000, 0\n\
             S_VINTER s0, s1, MAC\n\
             S_INTER s0, s0, s2, -1\n\
             S_VREAD 0x3000, 16, s3, 0x20000, 0\n\
             S_VMERGE 1, 0.5, s2, s3, s4\n\
             S_FETCH s4, 0\n\
             S_FREE s0\nS_FREE s1\nS_FREE s2\nS_FREE s3\nS_FREE s4\n",
        ),
        (
            "e006_source_overlap",
            "S_READ 0x1000, 16, s0, 0\n\
             S_READ 0x1020, 16, s1, 0\n\
             S_VREAD 0x5000, 16, s2, 0x1030, 0\n\
             S_INTER.C s0, s1, -1\n\
             S_VINTER s2, s2, ADD\n\
             S_FREE s0\nS_FREE s1\nS_FREE s2\n",
        ),
        (
            "w101_redefined_live",
            "S_READ 0x1000, 16, s0, 0\nS_READ 0x2000, 16, s0, 0\nS_FETCH s0, 1\nS_FREE s0\n",
        ),
        ("w102_zero_length", "S_READ 0x1000, 0, s0, 0\nS_FETCH s0, 0\nS_FREE s0\n"),
        (
            "w201_dead_stream",
            "S_READ 0x1000, 16, s0, 0\n\
             S_READ 0x2000, 16, s1, 0\n\
             S_INTER s0, s1, s2, 10\n\
             S_SUB s0, s1, s3, -1\n\
             S_MERGE s0, s1, s4\n\
             S_FREE s0\nS_FREE s1\nS_FREE s2\nS_FREE s3\nS_FREE s4\n",
        ),
        ("w202_unused_read", "S_READ 0x1000, 16, s0, 0\nS_FREE s0\n"),
        (
            "w203_missing_bound",
            "S_READ 0x1000, 16, s0, 0\n\
             S_READ 0x2000, 16, s1, 0\n\
             S_READ 0x3000, 16, s3, 0\n\
             S_INTER s0, s1, s2, -1\n\
             S_INTER.C s2, s3, 8\n\
             S_SUB s0, s1, s4, -1\n\
             S_NESTINTER s4\n\
             S_FREE s0\nS_FREE s1\nS_FREE s2\nS_FREE s3\nS_FREE s4\n",
        ),
        (
            "w204_short_stream",
            "S_READ 0x1000, 4, s0, 0\n\
             S_VREAD 0x2000, 15, s1, 0x9000, 0\n\
             S_READ 0x3000, 16, s2, 0\n\
             S_MERGE.C s0, s1\n\
             S_FETCH s2, 0\n\
             S_FREE s0\nS_FREE s1\nS_FREE s2\n",
        ),
        (
            "w206_bound_gap",
            "S_READ 0x100000, 60000, s0, 0\n\
             S_READ 0x200000, 60000, s1, 0\n\
             S_INTER.C s0, s1, 5\n\
             S_FREE s0\nS_FREE s1\n",
        ),
        ("w206_nested_unbounded", "S_READ 0x1000, 64, s0, 0\nS_NESTINTER s0\nS_FREE s0\n"),
        ("s301_double_free", "S_READ 0x1000, 16, s0, 0\nS_FREE s0\nS_FREE s0\n"),
        (
            "s303_use_after_free",
            "S_READ 0x1000, 16, s0, 0\n\
             S_READ 0x2000, 16, s1, 0\n\
             S_FREE s0\n\
             S_INTER.C s0, s1, -1\n\
             S_MERGE s1, s0, s2\n\
             S_FREE s1\nS_FREE s2\n",
        ),
        (
            "s310_writeback",
            "S_READ 0x1000, 64, s0, 0\n\
             S_READ 0x2000, 64, s1, 0\n\
             S_INTER s0, s1, s2, -1\n\
             S_FETCH s2, 0\n\
             S_FREE s0\nS_FREE s1\nS_FREE s2\n",
        ),
        (
            "s312_scratchpad",
            "S_READ 0x1000, 5000, s0, 1\n\
             S_VREAD 0x10000, 300, s1, 0x20000, 2\n\
             S_MERGE.C s0, s1\n\
             S_FREE s0\nS_FREE s1\n",
        ),
        (
            "same_index_vmerge",
            // Index 3: E001 (s9), E004 (s0 key-only), W201 (s2 is never
            // read) and, with eight registers, E005.
            "S_READ 0x1000, 16, s0, 0\n\
             S_READ 0x2000, 16, s5, 0\nS_READ 0x3000, 16, s6, 0\nS_READ 0x4000, 16, s7, 0\n\
             S_READ 0x5000, 16, s10, 0\nS_READ 0x6000, 16, s11, 0\nS_READ 0x7000, 16, s12, 0\n\
             S_READ 0x8000, 16, s13, 0\n\
             S_VMERGE 1, 1, s0, s9, s2\n\
             S_FREE s2\nS_FREE s0\nS_FREE s5\nS_FREE s6\nS_FREE s7\n\
             S_FREE s10\nS_FREE s11\nS_FREE s12\nS_FREE s13\n",
        ),
        (
            "same_index_read",
            // Index 8: W101, E006, W204 and W202. Index 9, with eight
            // registers: E005 and E006.
            "S_READ 0x1000, 4, s0, 0\n\
             S_READ 0x2000, 16, s1, 0\nS_READ 0x3000, 16, s2, 0\nS_READ 0x4000, 16, s3, 0\n\
             S_READ 0x5000, 16, s4, 0\nS_READ 0x6000, 16, s5, 0\nS_READ 0x7000, 16, s6, 0\n\
             S_READ 0x8000, 16, s7, 0\n\
             S_READ 0x1008, 4, s1, 0\n\
             S_READ 0x3020, 16, s8, 0\n\
             S_MERGE.C s0, s2\nS_MERGE.C s3, s4\nS_MERGE.C s5, s6\nS_MERGE.C s7, s8\n\
             S_FREE s0\nS_FREE s1\nS_FREE s2\nS_FREE s3\nS_FREE s4\n\
             S_FREE s5\nS_FREE s6\nS_FREE s7\nS_FREE s8\n",
        ),
        (
            "operand_is_output",
            "S_READ 0x1000, 40, s0, 0\n\
             S_READ 0x2000, 20, s1, 0\n\
             S_MERGE s0, s1, s0\n\
             S_INTER s0, s0, s1, -1\n\
             S_VREAD 0x3000, 24, s2, 0x40000, 0\n\
             S_VREAD 0x4000, 8, s3, 0x50000, 0\n\
             S_VMERGE 2, -1.5, s2, s3, s2\n\
             S_SUB s1, s1, s1, 7\n\
             S_VINTER s2, s2, MAX\n\
             S_FETCH s1, 0\n\
             S_FREE s0\nS_FREE s1\nS_FREE s2\nS_FREE s3\n",
        ),
        (
            "nested_gfr_priority",
            "S_LD_GFR 0x100000, 0x200000, 0x300000\n\
             S_READ 0x1000, 64, s0, 3\n\
             S_READ 0x2000, 128, s1, 1\n\
             S_INTER s0, s1, s2, 50\n\
             S_NESTINTER s2\n\
             S_VREAD 0x3000, 32, s3, 0x60000, 2\n\
             S_VINTER s3, s3, MIN\n\
             S_FREE s0\nS_FREE s1\nS_FREE s2\nS_FREE s3\n",
        ),
        (
            "merge_chain_lower_bounds",
            "S_READ 0x1000, 1000, s0, 0\n\
             S_READ 0x10000, 3000, s1, 0\n\
             S_MERGE s0, s1, s2\n\
             S_READ 0x20000, 2000, s3, 0\n\
             S_MERGE s2, s3, s4\n\
             S_MERGE.C s4, s4\n\
             S_INTER s4, s2, s5, -1\n\
             S_SUB s4, s3, s6, -1\n\
             S_FETCH s5, 0\nS_FETCH s6, 0\n\
             S_FREE s0\nS_FREE s1\nS_FREE s2\nS_FREE s3\nS_FREE s4\nS_FREE s5\nS_FREE s6\n",
        ),
        (
            "vmerge_chain_lower_bounds",
            "S_VREAD 0x1000, 500, s0, 0x100000, 0\n\
             S_VREAD 0x10000, 4000, s1, 0x200000, 0\n\
             S_VMERGE 1, 1, s0, s1, s2\n\
             S_VMERGE 0.5, 2, s2, s1, s3\n\
             S_VINTER s3, s2, MAC\n\
             S_SUB.C s3, s0, -1\n\
             S_FREE s0\nS_FREE s1\nS_FREE s2\nS_FREE s3\n",
        ),
    ];
    let mut all: Vec<(&str, String)> =
        fixed.iter().map(|&(name, text)| (name, text.to_string())).collect();
    all.push(("e005_w205_seventeen_live", seventeen_live()));
    all
}

/// A small xorshift generator: fixed seed, no dependency.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

/// One generated program: every mnemonic, 20 stream IDs, operands
/// biased toward recently defined streams so uses are often live, and
/// addresses and lengths small enough that no bound overflows.
fn generate(g: &mut Gen) -> Program {
    let n = 1 + g.below(40) as usize;
    let mut recent: Vec<u32> = Vec::new();
    let mut p = Program::new();
    for _ in 0..n {
        let sid = |g: &mut Gen| {
            let raw = if !recent.is_empty() && g.below(10) < 7 {
                recent[recent.len() - 1 - g.below(recent.len().min(4) as u64) as usize]
            } else {
                g.below(20) as u32
            };
            StreamId::new(raw)
        };
        let len = g.pick(&[0, 1, 4, 15, 16, 17, 64, 300, 5000]);
        let addr = 0x1000 * (1 + g.below(64));
        let priority = Priority(g.pick(&[0, 0, 1, 3]) as u32);
        let bound = if g.below(2) == 0 { Bound::none() } else { Bound::below(g.below(200) as u32) };
        let (a, b) = (sid(g), sid(g));
        let instr = match g.below(17) {
            0..=2 => Instr::SRead { key_addr: addr, len: len as u32, sid: sid(g), priority },
            3 | 4 => Instr::SVRead {
                key_addr: addr,
                len: len as u32,
                sid: sid(g),
                val_addr: 0x10_0000 + addr * 2,
                priority,
            },
            5 => Instr::SFree { sid: a },
            6 => Instr::SFetch { sid: a, offset: g.below(20) as u32 },
            7 => Instr::SInter { a, b, out: sid(g), bound },
            8 => Instr::SInterC { a, b, bound },
            9 => Instr::SSub { a, b, out: sid(g), bound },
            10 => Instr::SSubC { a, b, bound },
            11 => Instr::SMerge { a, b, out: sid(g) },
            12 => Instr::SMergeC { a, b },
            13 => Instr::SVInter { a, b, op: g.pick(&[ValueOp::Mac, ValueOp::Max, ValueOp::Add]) },
            14 => Instr::SVMerge { scale_a: 1.0, scale_b: -0.5, a, b, out: sid(g) },
            15 => Instr::SLdGfr { gfr: GfrSet { gfr0: addr, gfr1: addr * 2, gfr2: addr * 3 } },
            _ => Instr::SNestInter { sid: a },
        };
        if let Some(out) = instr.defines_stream() {
            recent.push(out.raw());
        }
        p.push(instr);
    }
    // Free most of what is still live, so leaks stay the exception.
    for raw in recent.iter().rev() {
        if g.below(4) != 0 {
            p.push(Instr::SFree { sid: StreamId::new(*raw) });
        }
    }
    p
}

fn repo_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn shipped() -> String {
    let mut paths: Vec<String> = std::fs::read_dir(repo_root().join("programs"))
        .expect("programs/ exists")
        .map(|e| format!("programs/{}", e.expect("read programs/").file_name().to_string_lossy()))
        .collect();
    paths.sort();
    paths.push("crates/sc-lint/tests/fixtures/clean.sasm".into());
    paths.push("crates/sc-lint/tests/fixtures/leaky.sasm".into());
    let mut out = String::new();
    for path in paths {
        let text = std::fs::read_to_string(repo_root().join(&path)).expect("read corpus file");
        out.push_str(&render_full(&path, &parse(&path, &text)));
    }
    out
}

fn planted_doc() -> String {
    planted().iter().map(|(name, text)| render_full(name, &parse(name, text))).collect()
}

fn generated_doc() -> String {
    let mut g = Gen(0x5eed_c0de_2022_0417);
    (0..64).map(|i| render_digest(&format!("gen-{i:02}"), &generate(&mut g))).collect()
}

fn assert_pinned(doc: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let at = g.iter().zip(&w).position(|(a, b)| a != b).unwrap_or(g.len().min(w.len()));
    panic!(
        "{doc}: analyzer output differs from the pin at line {}:\n  got:  {}\n  want: {}",
        at + 1,
        g.get(at).unwrap_or(&"<end>"),
        w.get(at).unwrap_or(&"<end>"),
    );
}

#[test]
fn shipped_corpus_matches_pin() {
    assert_pinned("shipped.txt", &shipped(), include_str!("data/analysis_pin/shipped.txt"));
}

#[test]
fn planted_programs_match_pin() {
    assert_pinned("planted.txt", &planted_doc(), include_str!("data/analysis_pin/planted.txt"));
}

#[test]
fn generated_programs_match_pin() {
    assert_pinned(
        "generated.txt",
        &generated_doc(),
        include_str!("data/analysis_pin/generated.txt"),
    );
}

/// The planted corpus really covers every finding it claims to.
#[test]
fn planted_corpus_triggers_every_finding() {
    let doc = include_str!("data/analysis_pin/planted.txt");
    for code in [
        "E001", "E002", "E003", "E004", "E005", "E006", "W101", "W102", "W201", "W202", "W203",
        "W204", "W205", "W206", "S301", "S302", "S303", "S310", "S312",
    ] {
        assert!(doc.contains(&format!("\"SC-{code}\"")), "no planted program triggers SC-{code}");
    }
}
