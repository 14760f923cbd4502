//! Epoch cost of the long-lived renaming service across the five
//! executors, `executor_scaling`-style: each iteration drives a fresh
//! service through a fixed churn history (Poisson arrivals, geometric
//! holding times, a small crash budget per epoch), so the numbers
//! compare the *service-layer* overhead — resident re-seeding of the
//! epoch tree, admission bookkeeping, name-recycling accounting — on
//! top of each executor's per-round cost.
//!
//! The same feasibility caps as `executor_scaling` apply (per-process
//! and socket stop at `2^16`, threaded at `2^12`); a service epoch runs
//! at most `free ≤ N` contenders, so the cap is on the namespace size.
//! Skipped cells are printed explicitly.

use bil_harness::{ArrivalModel, ChurnWorkload, Executor};
use bil_runtime::adversary::RandomCrash;
use bil_runtime::{ExecutorKind, Label, SeedTree};
use bil_service::{RenamingService, ServiceOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Namespace sizes swept.
const SIZES: [usize; 3] = [1 << 8, 1 << 10, 1 << 12];

/// Epochs per iteration — enough that steady-state (dense) epochs
/// dominate over the initial fill.
const EPOCHS: u64 = 8;

fn churn(capacity: usize, executor: ExecutorKind, seed: u64) -> u64 {
    let mut service = RenamingService::new(
        capacity,
        seed,
        ServiceOptions {
            executor,
            ..ServiceOptions::default()
        },
    )
    .expect("valid capacity");
    let mut workload = ChurnWorkload::new(
        capacity,
        seed ^ 0xBE7C,
        ArrivalModel::Poisson {
            rate: capacity as f64 / 8.0,
        },
        0.25,
    );
    let mut rounds = 0u64;
    for epoch in 0..EPOCHS {
        let holders: Vec<Label> = service.holders().map(|(l, _)| l).collect();
        let batch = workload.next_batch(&holders);
        let adversary = RandomCrash::new(2, 0.5, SeedTree::new(seed).epoch(epoch).adversary_rng());
        rounds += service
            .step_against(&batch, adversary)
            .expect("bench epoch completes")
            .rounds;
    }
    rounds
}

fn bench_service_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("service_churn/poisson");
    group.sample_size(10);
    for capacity in SIZES {
        for executor in Executor::ALL {
            if let Some(cap) = executor.max_n() {
                if capacity > cap {
                    eprintln!(
                        "{cell:<48} skipped (above {executor}'s size cap {cap})",
                        cell = format!("service_churn/poisson/{executor}/{capacity}"),
                    );
                    continue;
                }
            }
            group.bench_with_input(
                BenchmarkId::new(executor.to_string(), capacity),
                &executor,
                |b, kind| {
                    let mut seed = 0u64;
                    b.iter(|| {
                        seed += 1;
                        black_box(churn(capacity, *kind, seed))
                    });
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_service_churn);
criterion_main!(benches);
