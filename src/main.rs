//! `scsim` — the command-line front end of the SparseCore reproduction.
//!
//! Runs a pattern-mining or tensor workload on the simulated CPU baseline
//! and on SparseCore, printing counts, cycles and speedup. The workloads
//! a downstream user reaches without writing Rust:
//!
//! ```text
//! scsim mine  --pattern 0-1,1-2,0-2 --graph W [--cores 6] [--trace]
//! scsim app   --app 4C --graph E
//! scsim spmspm --matrix C --dataflow gustavson
//! scsim datasets
//! ```
//!
//! Each subcommand takes only its own flags, as `--flag value` or
//! `--flag=value`: an unknown flag, a missing value or a `--cores` that
//! is not a positive integer exits 2 before any dataset is built.

use sc_gpm::exec::{self, ScalarBackend, SetBackend, StreamBackend};
use sc_gpm::plan::Induced;
use sc_gpm::{App, Pattern, Plan};
use sc_graph::Dataset;
use sc_kernels::{
    gustavson, inner_product, outer_product, Dataflow, InnerOptions, ScalarTensorBackend,
    StreamTensorBackend,
};
use sc_probe::args::{self, Args, Flag};
use sc_tensor::MatrixDataset;
use sparsecore::{Engine, SparseCoreConfig};

/// `mine`'s flags; a `--cores` value must be a positive integer.
const MINE: &[Flag] = &[
    Flag::value("--pattern"),
    Flag::value("--graph"),
    Flag::switch("--edge-induced"),
    Flag::value("--cores").checked(args::positive),
    Flag::switch("--trace"),
];
const APP: &[Flag] = &[Flag::value("--app"), Flag::value("--graph")];
const SPMSPM: &[Flag] = &[Flag::value("--matrix"), Flag::value("--dataflow")];

/// Report a usage error and exit 2.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Parse one subcommand's flags. A usage error exits 2 before any
/// dataset is built.
fn parse(argv: Vec<String>, flags: &[Flag]) -> Args {
    args::parse(argv, flags).unwrap_or_else(|e| fail(e))
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  scsim mine   --pattern <edges like 0-1,1-2,0-2> --graph <tag> [--edge-induced] [--cores N] [--trace]\n  scsim app    --app <T|TS|TC|TT|TM|4C|4CS|5C|5CS> --graph <tag>\n  scsim spmspm --matrix <tag> --dataflow <inner|outer|gustavson>\n  scsim datasets"
    );
    std::process::exit(2);
}

fn graph_by_tag(tag: &str) -> sc_graph::CsrGraph {
    let Some(d) = Dataset::ALL.into_iter().find(|d| d.tag() == tag) else {
        fail(format!("unknown graph tag `{tag}`; available: C E B G F W M Y P L"));
    };
    eprintln!("graph: {d}");
    d.build()
}

fn cmd_mine(flags: &Args) {
    let spec = flags.value("--pattern").unwrap_or_else(|| usage());
    let tag = flags.value("--graph").unwrap_or_else(|| usage());
    let pattern: Pattern = spec.parse().unwrap_or_else(|e| fail(e));
    let induced = if flags.switch("--edge-induced") { Induced::Edge } else { Induced::Vertex };
    let cores = flags.parsed("--cores").unwrap_or(1);
    let g = graph_by_tag(tag);
    let plan = Plan::compile_default(&pattern, induced);
    println!("pattern: {pattern}  ({:?}-induced, order {:?})", induced, plan.order());
    for r in plan.restrictions() {
        println!("restriction: v{} < v{}", r.later, r.earlier);
    }

    let mut cpu = ScalarBackend::new(&g);
    let n_cpu = exec::count(&g, &plan, &mut cpu);
    let cpu_cycles = cpu.finish();

    let (n_sc, sc_cycles) = if cores > 1 {
        let (run, _) = sc_gpm::count_multicore(
            &g,
            &plan,
            SparseCoreConfig::paper(),
            true,
            cores,
            &sparsecore::Partition::Static,
            sc_probe::Probe::off(),
        );
        (run.count, run.cycles)
    } else {
        let mut engine = Engine::new(SparseCoreConfig::paper());
        if flags.switch("--trace") {
            engine.record_trace();
        }
        let mut sc = StreamBackend::with_engine(&g, engine, true);
        let n = exec::count(&g, &plan, &mut sc);
        let cycles = sc.finish();
        if flags.switch("--trace") {
            let trace = sc.engine_mut().take_trace();
            println!("\n--- dynamic stream-ISA trace (first 20 instructions) ---");
            for i in trace.iter().take(20) {
                println!("{i}");
            }
            println!("--- {} instructions total ---\n", trace.len());
        }
        (n, cycles)
    };
    assert_eq!(n_cpu, n_sc, "backends disagree");
    println!("\nembeddings : {n_cpu}");
    println!("CPU        : {cpu_cycles} cycles");
    println!(
        "SparseCore : {sc_cycles} cycles ({:.2}x speedup, {cores} core(s))",
        cpu_cycles as f64 / sc_cycles.max(1) as f64
    );
}

fn cmd_app(flags: &Args) {
    let tag = flags.value("--app").unwrap_or_else(|| usage());
    let gtag = flags.value("--graph").unwrap_or_else(|| usage());
    let Some(app) = App::FIG8.into_iter().find(|a| a.tag() == tag) else {
        fail(format!("unknown app `{tag}`"));
    };
    let g = graph_by_tag(gtag);
    let cpu = app.run_scalar(&g);
    let sc = app.run_stream(&g, SparseCoreConfig::paper());
    assert_eq!(cpu.count, sc.count);
    println!("{app}: {} embeddings", cpu.count);
    println!("CPU        : {} cycles", cpu.cycles);
    println!(
        "SparseCore : {} cycles ({:.2}x speedup)",
        sc.cycles,
        cpu.cycles as f64 / sc.cycles.max(1) as f64
    );
}

fn cmd_spmspm(flags: &Args) {
    let tag = flags.value("--matrix").unwrap_or_else(|| usage());
    let name = flags.value("--dataflow").unwrap_or("gustavson");
    let Some(dataflow) = Dataflow::ALL.into_iter().find(|d| d.tag() == name) else {
        fail(format!("unknown dataflow `{name}`"));
    };
    let Some(m) = MatrixDataset::ALL.into_iter().find(|m| m.tag() == tag) else {
        fail(format!("unknown matrix `{tag}`; available: C E F P L G H CA EX GR T"));
    };
    let a = m.build();
    eprintln!("matrix: {m} -> {a}");
    let one_su = SparseCoreConfig::paper_one_su();
    let (cpu, sc) = match dataflow {
        Dataflow::Inner => {
            let opts = InnerOptions { row_sample: Some(8) };
            let acsc = a.to_csc();
            (
                inner_product(&a, &acsc, &mut ScalarTensorBackend::new(), opts).cycles,
                inner_product(
                    &a,
                    &acsc,
                    &mut StreamTensorBackend::with_engine(Engine::new(one_su)),
                    opts,
                )
                .cycles,
            )
        }
        Dataflow::Outer => {
            let acsc = a.to_csc();
            (
                outer_product(&acsc, &a, &mut ScalarTensorBackend::new()).cycles,
                outer_product(
                    &acsc,
                    &a,
                    &mut StreamTensorBackend::with_engine(Engine::new(one_su)),
                )
                .cycles,
            )
        }
        Dataflow::Gustavson => (
            gustavson(&a, &a, &mut ScalarTensorBackend::new()).cycles,
            gustavson(&a, &a, &mut StreamTensorBackend::with_engine(Engine::new(one_su))).cycles,
        ),
    };
    println!("dataflow   : {name}");
    println!("CPU        : {cpu} cycles");
    println!("SparseCore : {sc} cycles ({:.2}x speedup)", cpu as f64 / sc.max(1) as f64);
}

fn cmd_datasets() {
    println!("graphs (Table 4):");
    for d in Dataset::ALL {
        let spec = d.spec();
        println!(
            "  {:>2}  {:<24} |V|={:<8} |E|={:<8} scale 1/{}",
            spec.tag, spec.name, spec.num_vertices, spec.num_edges, spec.scale_down
        );
    }
    println!("matrices (Table 5):");
    for m in MatrixDataset::ALL {
        let spec = m.spec();
        println!(
            "  {:>2}  {:<16} {:>6}^2  nnz={:<8} scale 1/{}",
            spec.tag, spec.name, spec.dim, spec.nnz, spec.scale_down
        );
    }
}

fn main() {
    let (cmd, argv) = args::subcommand(std::env::args().skip(1));
    match cmd.as_deref() {
        Some("mine") => cmd_mine(&parse(argv, MINE)),
        Some("app") => cmd_app(&parse(argv, APP)),
        Some("spmspm") => cmd_spmspm(&parse(argv, SPMSPM)),
        Some("datasets") => {
            parse(argv, &[]);
            cmd_datasets();
        }
        _ => usage(),
    }
}
