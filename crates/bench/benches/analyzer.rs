//! Analyzer-core microbenchmarks: event throughput of the online
//! reuse-distance analyzer, and an ablation of its hierarchical block
//! table.

use std::time::Duration;
use reuselens_bench::harness::{BenchmarkId, Criterion, Throughput};
use reuselens_bench::{criterion_group, criterion_main};
use reuselens::core::{BlockTable, ReuseAnalyzer};
use reuselens::ir::{AccessKind, RefId};
use reuselens::trace::{Executor, NullSink, TraceSink};
use reuselens::workloads::kernels::{random_gather, streaming};

fn bench_analyzer_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("analyzer_throughput");
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    for &elems in &[1u64 << 12, 1 << 14, 1 << 16] {
        let w = streaming(elems, 4);
        let accesses = elems * 4;
        g.throughput(Throughput::Elements(accesses));
        g.bench_with_input(BenchmarkId::new("streaming", elems), &w, |b, w| {
            b.iter(|| {
                let mut an = ReuseAnalyzer::new(&w.program, 64);
                Executor::new(&w.program).run(&mut an).unwrap();
                an.finish().total_accesses
            })
        });
    }
    for &table in &[1u64 << 12, 1 << 16] {
        let w = random_gather(table, 1 << 14, 2, 7);
        g.throughput(Throughput::Elements(2 << 14));
        g.bench_with_input(BenchmarkId::new("random_gather", table), &w, |b, w| {
            b.iter(|| {
                let mut an = ReuseAnalyzer::new(&w.program, 64);
                let mut exec = Executor::new(&w.program);
                for (a, d) in &w.index_arrays {
                    exec.set_index_array(*a, d.clone());
                }
                exec.run(&mut an).unwrap();
                an.finish().total_accesses
            })
        });
    }
    g.finish();
}

fn bench_executor_only(c: &mut Criterion) {
    let mut g = c.benchmark_group("executor_only");
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(10);
    let w = streaming(1 << 16, 4);
    g.throughput(Throughput::Elements(4 << 16));
    g.bench_function("streaming_null_sink", |b| {
        b.iter(|| {
            Executor::new(&w.program)
                .run(&mut NullSink)
                .unwrap()
                .accesses
        })
    });
    g.finish();
}

fn bench_blocktable(c: &mut Criterion) {
    let mut g = c.benchmark_group("blocktable");
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    let n = 1u64 << 16;
    g.throughput(Throughput::Elements(n));
    g.bench_function("set_get_dense", |b| {
        b.iter(|| {
            let mut t = BlockTable::new();
            for k in 0..n {
                t.set(k, k + 1, 0);
            }
            let mut acc = 0u64;
            for k in 0..n {
                acc += t.get(k).unwrap().time;
            }
            acc
        })
    });
    g.finish();
}

/// The analyzer as a raw sink (no executor): isolates per-event cost.
fn bench_analyzer_sink(c: &mut Criterion) {
    let w = streaming(4, 1);
    let n = 1u64 << 16;
    let mut g = c.benchmark_group("analyzer_sink");
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    g.throughput(Throughput::Elements(n));
    g.bench_function("sequential_addresses", |b| {
        b.iter(|| {
            let mut an = ReuseAnalyzer::new(&w.program, 64);
            for k in 0..n {
                an.access(RefId(0), k * 8 % (1 << 18), 8, AccessKind::Load);
            }
            an.accesses()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_analyzer_throughput,
    bench_executor_only,
    bench_blocktable,
    bench_analyzer_sink
);
criterion_main!(benches);
