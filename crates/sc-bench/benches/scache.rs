//! Criterion micro-benchmarks: S-Cache window refill and the engine's
//! stream read path (prefetch + scratchpad reuse).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use sc_isa::{Priority, StreamId};
use sc_mem::{StreamCacheConfig, StreamCacheStorage};
use sparsecore::{Engine, SparseCoreConfig};

fn bench_refill(c: &mut Criterion) {
    let mut group = c.benchmark_group("scache");
    group.bench_function("sequential_window_walk", |bench| {
        bench.iter(|| {
            let mut sc = StreamCacheStorage::new(StreamCacheConfig::paper());
            sc.bind(0, 0x1_0000, 4096);
            let mut fetched = 0usize;
            for key in (0..4096).step_by(32) {
                fetched += sc.refill_window(0, key).count();
            }
            black_box(fetched)
        })
    });
    group.bench_function("output_push_writeback", |bench| {
        bench.iter(|| {
            let mut sc = StreamCacheStorage::new(StreamCacheConfig::paper());
            sc.bind_output(0, 0x2_0000);
            let mut writebacks = 0usize;
            for _ in 0..1024 {
                if sc.push_output_key(0).is_some() {
                    writebacks += 1;
                }
            }
            black_box(writebacks)
        })
    });
    group.bench_function("output_push_bulk", |bench| {
        bench.iter(|| {
            let mut sc = StreamCacheStorage::new(StreamCacheConfig::paper());
            sc.bind_output(0, 0x2_0000);
            black_box(sc.push_output_keys(0, 1024).count())
        })
    });
    group.finish();
}

fn bench_stream_read(c: &mut Criterion) {
    let keys: Vec<u32> = (0..1024).collect();
    let mut group = c.benchmark_group("engine_s_read");
    group.bench_function("cold_reads", |bench| {
        bench.iter(|| {
            let mut e = Engine::new(SparseCoreConfig::paper());
            for i in 0..8u32 {
                e.s_read(0x10_0000 + u64::from(i) * 0x1_0000, &keys, StreamId::new(i), Priority(0))
                    .unwrap();
            }
            black_box(e.finish())
        })
    });
    group.bench_function("scratchpad_reuse", |bench| {
        bench.iter(|| {
            let mut e = Engine::new(SparseCoreConfig::paper());
            for _ in 0..8 {
                e.s_read(0x10_0000, &keys, StreamId::new(0), Priority(5)).unwrap();
                e.s_free(StreamId::new(0)).unwrap();
            }
            black_box(e.stats().scratchpad_hits)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_refill, bench_stream_read);
criterion_main!(benches);
