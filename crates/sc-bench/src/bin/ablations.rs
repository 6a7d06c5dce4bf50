//! Ablations of SparseCore's design choices (DESIGN.md experiment index):
//!
//! 1. **Bounded intersection** (paper Figure 2): symmetry-breaking
//!    restrictions as set-operation bounds (early termination) vs
//!    post-filters over fully-computed candidate sets.
//! 2. **Nested intersection** (paper Section 6.3.2): `S_NESTINTER` vs the
//!    explicit read/intersect/free loop (T vs TS, 4C vs 4CS, 5C vs 5CS).
//! 3. **Scratchpad** (paper Section 4.2): the 16 KiB stream-reuse
//!    scratchpad vs none.
//! 4. **Inclusion–exclusion counting** (paper Section 1, the GraphPi
//!    flexibility argument): IEP three-chain counting vs enumeration —
//!    a pure software change on identical hardware.
//!
//! Usage: `cargo run --release -p sc-bench --bin ablations
//! [--datasets B,E,F,W]`

use sc_bench::{render_table, run_sparsecore, stride_for, BenchCli, DATASETS};
use sc_gpm::exec::{self, SetBackend, StreamBackend};
use sc_gpm::plan::Induced;
use sc_gpm::{iep, App, Pattern, Plan};
use sc_graph::Dataset;
use sc_host::Phase;
use sc_probe::Attribution;
use sparsecore::{Engine, SparseCoreConfig};

fn main() {
    let cli = BenchCli::parse_with(&[DATASETS]);
    sc_bench::check_gpm_plans(&cli, &App::FIG8);
    let datasets = cli.datasets(&[
        Dataset::BitcoinAlpha,
        Dataset::EmailEuCore,
        Dataset::Haverford76,
        Dataset::WikiVote,
    ]);
    println!("# Ablation 1: bounded intersection (Figure 2(b)) vs post-filtering (2(a))\n");
    let rows = cli.sweep(&datasets, |w, &d| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let order = [0usize, 1, 2, 3];
        let pat = Pattern::tailed_triangle();
        let stride = stride_for(App::TailedTriangle, d);
        let cfg = SparseCoreConfig::paper();
        let run = |plan: &Plan| {
            w.in_phase(Phase::Simulate, || {
                let mut b = StreamBackend::with_engine(&g, Engine::new(cfg), false);
                let (n, _) = exec::count_sampled(&g, plan, &mut b, stride);
                (n, b.finish() * stride as u64)
            })
        };
        let plan = w.in_phase(Phase::Emit, || Plan::compile(&pat, &order, Induced::Vertex));
        let plan_unbounded =
            w.in_phase(Phase::Emit, || Plan::compile_unbounded(&pat, &order, Induced::Vertex));
        let (n1, bounded) = run(&plan);
        let (n2, unbounded) = run(&plan_unbounded);
        assert_eq!(n1, n2);
        let workload = format!("bounded/{}", d.tag());
        w.record(&workload, Some(&cfg), n1, bounded, Some(unbounded), Attribution::default());
        vec![
            d.tag().to_string(),
            format!("{bounded}"),
            format!("{unbounded}"),
            format!("{:.2}", unbounded as f64 / bounded.max(1) as f64),
        ]
    });
    println!(
        "{}",
        render_table(
            &["graph".into(), "bounded".into(), "unbounded".into(), "benefit".into()],
            &rows
        )
    );

    println!("\n# Ablation 2: S_NESTINTER vs explicit loops (T/TS, 4C/4CS, 5C/5CS)\n");
    let pairs = [
        (App::Triangle, App::TriangleNoNested),
        (App::Clique4, App::Clique4NoNested),
        (App::Clique5, App::Clique5NoNested),
    ];
    let cells: Vec<(App, App, Dataset)> = pairs
        .iter()
        .flat_map(|&(with, without)| datasets.iter().map(move |&d| (with, without, d)))
        .collect();
    let rows = cli.sweep(&cells, |w, &(with, without, d)| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let stride = stride_for(without, d);
        let cfg = SparseCoreConfig::paper();
        let probe = w.probe();
        let a = w.in_phase(Phase::Simulate, || run_sparsecore(&g, with, cfg, stride, &probe).0);
        let b = w.in_phase(Phase::Simulate, || run_sparsecore(&g, without, cfg, stride, &probe).0);
        assert_eq!(a.count, b.count);
        // The bins are the explicit-loop run `b`'s, not `a`'s: a known
        // defect kept until the bins are re-pinned (ROADMAP item 2).
        w.record(
            &format!("nested/{with}/{}", d.tag()),
            Some(&cfg),
            a.count,
            a.cycles,
            Some(b.cycles),
            b.attr,
        );
        vec![
            format!("{with}/{}", d.tag()),
            format!("{}", a.cycles),
            format!("{}", b.cycles),
            format!("{:.2}", b.cycles as f64 / a.cycles.max(1) as f64),
        ]
    });
    println!(
        "{}",
        render_table(
            &["app/graph".into(), "nested".into(), "explicit".into(), "benefit".into()],
            &rows
        )
    );
    println!("(paper: enabling nested intersection speeds these up by 1.65x on average)\n");

    println!("# Ablation 3: scratchpad (16 KiB) vs none\n");
    let rows = cli.sweep(&datasets, |w, &d| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let stride = stride_for(App::Triangle, d);
        let cfg = SparseCoreConfig::paper();
        let probe = w.probe();
        let with = w
            .in_phase(Phase::Simulate, || run_sparsecore(&g, App::Triangle, cfg, stride, &probe).0);
        let mut no_sp = SparseCoreConfig::paper();
        no_sp.scratchpad.size_bytes = 0;
        let without = w.in_phase(Phase::Simulate, || {
            run_sparsecore(&g, App::Triangle, no_sp, stride, &probe).0
        });
        assert_eq!(with.count, without.count);
        // The bins are the no-scratchpad run's, not `with`'s: a known
        // defect kept until the bins are re-pinned (ROADMAP item 2).
        w.record(
            &format!("scratchpad/{}", d.tag()),
            Some(&cfg),
            with.count,
            with.cycles,
            Some(without.cycles),
            without.attr,
        );
        vec![
            d.tag().to_string(),
            format!("{}", with.cycles),
            format!("{}", without.cycles),
            format!("{:.2}", without.cycles as f64 / with.cycles.max(1) as f64),
        ]
    });
    println!(
        "{}",
        render_table(&["graph".into(), "with".into(), "without".into(), "benefit".into()], &rows)
    );

    println!("\n# Ablation 4: IEP three-chain counting vs enumeration (software-only)\n");
    let rows = cli.sweep(&datasets, |w, &d| {
        let g = w.in_phase(Phase::Generate, || d.build());
        let cfg = SparseCoreConfig::paper();
        let enumerated = w.in_phase(Phase::Simulate, || App::ThreeChain.run_stream(&g, cfg));
        let via_iep = w.in_phase(Phase::Simulate, || iep::count_stream(&g, cfg));
        assert_eq!(enumerated.count, via_iep.three_chains);
        w.record(
            &format!("iep/{}", d.tag()),
            Some(&cfg),
            via_iep.three_chains,
            via_iep.cycles,
            Some(enumerated.cycles),
            Attribution::default(),
        );
        vec![
            d.tag().to_string(),
            format!("{}", enumerated.cycles),
            format!("{}", via_iep.cycles),
            format!("{:.2}", enumerated.cycles as f64 / via_iep.cycles.max(1) as f64),
        ]
    });
    println!(
        "{}",
        render_table(&["graph".into(), "enumerate".into(), "IEP".into(), "benefit".into()], &rows)
    );
    println!("(the GraphPi-style optimization lands as pure software — the");
    println!(" flexibility FlexMiner's fixed exploration engine cannot offer)");
    cli.write_probe_outputs();
}
