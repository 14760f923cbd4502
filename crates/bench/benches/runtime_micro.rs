//! Micro-benchmarks of the runtime substrate: wire codec throughput and
//! raw lock-step engine overhead (protocol work excluded via the
//! trivial `RankOnce` protocol).

use bil_core::BilMsg;
use bil_runtime::adversary::NoFailures;
use bil_runtime::engine::EngineOptions;
use bil_runtime::testproto::UnionRank;
use bil_runtime::wire::Wire;
use bil_runtime::{ExecutorKind, Label, SeedTree};
use bil_tree::PackedPath;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    let path: Vec<u32> = {
        let mut nodes = vec![1u32];
        for i in 0..16 {
            let v = *nodes.last().expect("non-empty");
            nodes.push(2 * v + (i % 2));
        }
        nodes
    };
    let msg = BilMsg::Path(PackedPath::from_nodes(&path).expect("valid chain"));
    group.bench_function("encode_path_msg", |b| {
        b.iter(|| black_box(msg.to_bytes()));
    });
    let bytes = msg.to_bytes();
    group.bench_function("decode_path_msg", |b| {
        b.iter(|| black_box(BilMsg::from_bytes(bytes.clone()).expect("valid bytes")));
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_overhead");
    group.sample_size(10);
    for n in [64usize, 256] {
        let labels: Vec<Label> = (0..n as u64).map(|i| Label(i * 3 + 1)).collect();
        for kind in [ExecutorKind::Clustered, ExecutorKind::PerProcess] {
            let id = BenchmarkId::new(kind.to_string(), n);
            group.bench_with_input(id, &labels, |b, labels| {
                let mut seed = 0u64;
                b.iter(|| {
                    seed += 1;
                    let report = kind
                        .run(
                            UnionRank::rounds(4),
                            labels.clone(),
                            NoFailures,
                            SeedTree::new(seed),
                            EngineOptions::default(),
                        )
                        .expect("valid configuration");
                    black_box(report.rounds)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_wire, bench_engine);
criterion_main!(benches);
