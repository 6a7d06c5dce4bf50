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

use sc_gpm::exec::{self, ScalarBackend, SetBackend, StreamBackend};
use sc_gpm::plan::Induced;
use sc_gpm::{App, Pattern, Plan};
use sc_graph::Dataset;
use sc_kernels::{
    gustavson, inner_product, outer_product, Dataflow, InnerOptions, ScalarTensorBackend,
    StreamTensorBackend,
};
use sc_tensor::MatrixDataset;
use sparsecore::{Engine, SparseCoreConfig};

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn has(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn usage() -> ! {
    eprintln!(
        "usage:\n  scsim mine   --pattern <edges like 0-1,1-2,0-2> --graph <tag> [--edge-induced] [--cores N] [--trace]\n  scsim app    --app <T|TS|TC|TT|TM|4C|4CS|5C|5CS> --graph <tag>\n  scsim spmspm --matrix <tag> --dataflow <inner|outer|gustavson>\n  scsim datasets"
    );
    std::process::exit(2);
}

fn graph_by_tag(tag: &str) -> sc_graph::CsrGraph {
    match Dataset::ALL.into_iter().find(|d| d.tag() == tag) {
        Some(d) => {
            eprintln!("graph: {d}");
            d.build()
        }
        None => {
            eprintln!("unknown graph tag `{tag}`; available: C E B G F W M Y P L");
            std::process::exit(2);
        }
    }
}

fn cmd_mine(args: &[String]) {
    let spec = flag(args, "--pattern").unwrap_or_else(|| usage());
    let tag = flag(args, "--graph").unwrap_or_else(|| usage());
    let pattern: Pattern = match spec.parse() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let induced = if has(args, "--edge-induced") { Induced::Edge } else { Induced::Vertex };
    let cores = flag(args, "--cores").map_or(1, |v| match v.parse() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("error: --cores expects a positive integer, got '{v}'");
            std::process::exit(2);
        }
    });
    let g = graph_by_tag(&tag);
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
        if has(args, "--trace") {
            engine.record_trace();
        }
        let mut sc = StreamBackend::with_engine(&g, engine, true);
        let n = exec::count(&g, &plan, &mut sc);
        let cycles = sc.finish();
        if has(args, "--trace") {
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

fn cmd_app(args: &[String]) {
    let tag = flag(args, "--app").unwrap_or_else(|| usage());
    let gtag = flag(args, "--graph").unwrap_or_else(|| usage());
    let app = match App::FIG8.into_iter().find(|a| a.tag() == tag) {
        Some(a) => a,
        None => {
            eprintln!("unknown app `{tag}`");
            std::process::exit(2);
        }
    };
    let g = graph_by_tag(&gtag);
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

fn cmd_spmspm(args: &[String]) {
    let tag = flag(args, "--matrix").unwrap_or_else(|| usage());
    let name = flag(args, "--dataflow").unwrap_or_else(|| "gustavson".to_string());
    let Some(dataflow) = Dataflow::ALL.into_iter().find(|d| d.tag() == name) else {
        eprintln!("unknown dataflow `{name}`");
        std::process::exit(2);
    };
    let m = match MatrixDataset::ALL.into_iter().find(|m| m.tag() == tag) {
        Some(m) => m,
        None => {
            eprintln!("unknown matrix `{tag}`; available: C E F P L G H CA EX GR T");
            std::process::exit(2);
        }
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("mine") => cmd_mine(&args),
        Some("app") => cmd_app(&args),
        Some("spmspm") => cmd_spmspm(&args),
        Some("datasets") => cmd_datasets(),
        _ => usage(),
    }
}
