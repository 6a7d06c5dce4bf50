//! Criterion micro-benchmarks: SU parallel comparison vs the scalar merge
//! walk, across operand shapes (dense match, skewed, disjoint), and the
//! SU pass that also writes the output stream.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sc_isa::Bound;
use sparsecore::setops;
use sparsecore::su::{execute, simulate, SuOp};

fn operands(shape: &str) -> (Vec<u32>, Vec<u32>) {
    match shape {
        "identical" => ((0..2048).collect(), (0..2048).collect()),
        "skewed" => ((0..4096).collect(), (0..64).map(|x| x * 64).collect()),
        "interleaved" => {
            ((0..2048).map(|x| x * 2).collect(), (0..2048).map(|x| x * 2 + 1).collect())
        }
        _ => unreachable!(),
    }
}

fn bench_su(c: &mut Criterion) {
    let mut group = c.benchmark_group("su_parallel_comparison");
    for shape in ["identical", "skewed", "interleaved"] {
        let (a, b) = operands(shape);
        group.bench_function(format!("simulate_{shape}"), |bench| {
            bench
                .iter(|| simulate(SuOp::Intersect, black_box(&a), black_box(&b), Bound::none(), 16))
        });
        group.bench_function(format!("functional_{shape}"), |bench| {
            bench.iter(|| setops::intersect_count(black_box(&a), black_box(&b), Bound::none()))
        });
        group.bench_function(format!("execute_with_output_{shape}"), |bench| {
            bench.iter(|| {
                let mut out = Vec::new();
                let t = execute(
                    SuOp::Intersect,
                    black_box(&a),
                    black_box(&b),
                    Bound::none(),
                    16,
                    Some(&mut out),
                );
                black_box((t, out))
            })
        });
    }
    group.finish();
}

fn bench_ops(c: &mut Criterion) {
    let (a, b) = operands("skewed");
    let mut group = c.benchmark_group("set_operations");
    group.bench_function("intersect", |bench| {
        bench.iter(|| setops::intersect(black_box(&a), black_box(&b), Bound::none()))
    });
    group.bench_function("subtract", |bench| {
        bench.iter(|| setops::subtract(black_box(&a), black_box(&b), Bound::none()))
    });
    group.bench_function("merge", |bench| {
        bench.iter(|| setops::merge(black_box(&a), black_box(&b)))
    });
    group.bench_function("bounded_intersect", |bench| {
        bench.iter(|| setops::intersect(black_box(&a), black_box(&b), Bound::below(512)))
    });
    group.finish();
}

criterion_group!(benches, bench_su, bench_ops);
criterion_main!(benches);
