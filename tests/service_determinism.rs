//! Cross-executor determinism of the *long-lived* renaming service: a
//! multi-epoch history — arrivals, departures, crashes, recycled names —
//! must be **bit-identical** on all five executors, and independent of
//! the socket executor's worker count.
//!
//! This extends the one-shot determinism suite (`tests/determinism.rs`)
//! across the first subsystem where state survives protocol instances:
//! every epoch builds its capacity tree from the names the previous
//! epochs left free, so any cross-executor divergence would compound
//! epoch over epoch. The comparison is on full [`EpochReport`]s, embedded
//! [`RunReport`]s included.

use balls_into_leaves::harness::{ArrivalModel, ChurnWorkload};
use balls_into_leaves::prelude::*;
use balls_into_leaves::runtime::adversary::RandomCrash;
use balls_into_leaves::runtime::ProcId;
use balls_into_leaves::service::{EpochReport, ShardedEpochReport};

/// Drives one standalone (one-shard) service through `epochs` epochs of
/// a seeded churn schedule with a crash-heavy adversary inside every
/// epoch.
fn churn_history(options: ServiceOptions, epochs: u64, seed: u64) -> Vec<EpochReport> {
    const CAPACITY: usize = 48;
    let options = ShardedOptions {
        shard: options,
        concurrent: false,
    };
    let mut service = ShardedService::new(CAPACITY, 1, seed, options).expect("valid capacity");
    let mut workload = ChurnWorkload::new(
        CAPACITY,
        seed ^ 0xC0FFEE,
        ArrivalModel::Poisson { rate: 9.0 },
        0.3,
    );
    let mut history = Vec::new();
    for epoch in 0..epochs {
        let holders: Vec<Label> = service.holders().map(|(l, _)| l).collect();
        let batch = workload.next_batch(&holders);
        // Crash-heavy: budget 3 per epoch, firing almost every round,
        // with adaptive partial deliveries.
        let adversary =
            |_| RandomCrash::new(3, 0.8, SeedTree::new(seed).epoch(epoch).adversary_rng());
        history.push(
            service
                .step_against(&batch, adversary)
                .expect("valid churn batch")
                .shards
                .swap_remove(0)
                .expect("churn epoch completes"),
        );
    }
    history
}

#[test]
fn service_histories_are_bit_identical_across_all_five_executors() {
    const EPOCHS: u64 = 8;
    const SEED: u64 = 2014;
    let reference = churn_history(
        ServiceOptions {
            executor: ExecutorKind::Clustered,
            ..ServiceOptions::default()
        },
        EPOCHS,
        SEED,
    );

    // The run is not vacuous: names were granted, crashes fired, and
    // released names were observably reused across epochs.
    let granted: usize = reference.iter().map(|e| e.granted.len()).sum();
    let crashed: usize = reference.iter().map(|e| e.crashed.len()).sum();
    let recycled: usize = reference.iter().map(|e| e.recycled.len()).sum();
    let released: usize = reference.iter().map(|e| e.released.len()).sum();
    assert!(granted > 0, "no grants");
    assert!(crashed > 0, "adversary never fired");
    assert!(released > 0, "workload never released");
    assert!(recycled > 0, "released names were never reused");

    for executor in ExecutorKind::ALL {
        let history = churn_history(
            ServiceOptions {
                executor,
                ..ServiceOptions::default()
            },
            EPOCHS,
            SEED,
        );
        assert_eq!(reference, history, "{executor} service history diverged");
    }
}

/// Drives one sharded front-end through `epochs` *pipelined* epochs of
/// a seeded churn schedule, with a crash-heavy per-shard adversary.
fn sharded_churn_history(
    options: ShardedOptions,
    epochs: u64,
    seed: u64,
) -> Vec<ShardedEpochReport> {
    const CAPACITY: usize = 60;
    const SHARDS: usize = 4;
    let mut service =
        ShardedService::new(CAPACITY, SHARDS, seed, options).expect("valid partition");
    let mut workload = ChurnWorkload::new(
        CAPACITY,
        seed ^ 0xC0FFEE,
        ArrivalModel::Poisson { rate: 11.0 },
        0.3,
    );
    service
        .run_epochs(
            epochs,
            |_, svc| {
                let holders: Vec<Label> = svc.holders().map(|(l, _)| l).collect();
                workload.next_batch(&holders)
            },
            |epoch, shard| {
                RandomCrash::new(
                    2,
                    0.8,
                    SeedTree::new(seed)
                        .epoch(epoch)
                        .process_rng(ProcId(shard as u32)),
                )
            },
        )
        .expect("sharded churn epochs complete")
}

#[test]
fn sharded_histories_are_bit_identical_across_all_five_executors() {
    const EPOCHS: u64 = 8;
    const SEED: u64 = 2014;
    let options = |executor| ShardedOptions {
        shard: ServiceOptions {
            executor,
            ..ServiceOptions::default()
        },
        concurrent: executor != ExecutorKind::Threaded,
    };
    let reference = sharded_churn_history(options(ExecutorKind::Clustered), EPOCHS, SEED);

    // The run is not vacuous: multiple shards granted, crashes fired,
    // and released names were observably reused across epochs.
    let shards_granting: usize = (0..4)
        .filter(|s| {
            reference
                .iter()
                .any(|e| e.shards[*s].as_ref().is_ok_and(|r| !r.granted.is_empty()))
        })
        .count();
    let crashed: usize = reference.iter().map(|e| e.crashed.len()).sum();
    let recycled: usize = reference.iter().map(|e| e.recycled.len()).sum();
    assert!(shards_granting >= 2, "churn never spread across shards");
    assert!(crashed > 0, "adversary never fired");
    assert!(recycled > 0, "released names were never reused");

    for executor in ExecutorKind::ALL {
        let history = sharded_churn_history(options(executor), EPOCHS, SEED);
        assert_eq!(reference, history, "{executor} sharded history diverged");
    }
    // Concurrent shard execution changes nothing either.
    let sequential = sharded_churn_history(
        ShardedOptions {
            concurrent: false,
            ..options(ExecutorKind::Clustered)
        },
        EPOCHS,
        SEED,
    );
    assert_eq!(reference, sequential, "concurrent shard threads diverged");
}

#[test]
fn pipelined_sharded_history_equals_sequential_stepping() {
    const CAPACITY: usize = 60;
    const SHARDS: usize = 4;
    const EPOCHS: u64 = 8;
    const SEED: u64 = 99;
    let adversary = |epoch: u64, shard: usize| {
        RandomCrash::new(
            2,
            0.8,
            SeedTree::new(SEED)
                .epoch(epoch)
                .process_rng(ProcId(shard as u32)),
        )
    };

    // Pipelined drive, recording each epoch's submitted batch.
    let mut service =
        ShardedService::new(CAPACITY, SHARDS, SEED, ShardedOptions::default()).unwrap();
    let mut workload = ChurnWorkload::new(
        CAPACITY,
        SEED ^ 0xC0FFEE,
        ArrivalModel::Poisson { rate: 11.0 },
        0.3,
    );
    let mut batches: Vec<Vec<Request>> = Vec::new();
    let pipelined = service
        .run_epochs(
            EPOCHS,
            |_, svc| {
                let holders: Vec<Label> = svc.holders().map(|(l, _)| l).collect();
                let batch = workload.next_batch(&holders);
                batches.push(batch.clone());
                batch
            },
            adversary,
        )
        .expect("pipelined epochs complete");

    // Replay the recorded batches one sequential epoch at a time: the
    // pipelining is pure overlap, so the reports must be identical.
    let mut replay =
        ShardedService::new(CAPACITY, SHARDS, SEED, ShardedOptions::default()).unwrap();
    let sequential: Vec<ShardedEpochReport> = batches
        .iter()
        .map(|batch| {
            let epoch = replay.epoch();
            replay
                .step_against(batch, |shard| adversary(epoch, shard))
                .expect("sequential epoch completes")
        })
        .collect();
    assert_eq!(pipelined, sequential, "pipelining changed the history");
}

#[test]
fn service_history_is_independent_of_socket_worker_count() {
    const EPOCHS: u64 = 5;
    let with_workers = |workers: Option<usize>| {
        churn_history(
            ServiceOptions {
                executor: ExecutorKind::Socket,
                socket_workers: workers,
                ..ServiceOptions::default()
            },
            EPOCHS,
            77,
        )
    };
    let one = with_workers(Some(1));
    for workers in [Some(2), Some(7), None] {
        assert_eq!(one, with_workers(workers), "workers = {workers:?}");
    }
}

#[test]
fn service_histories_agree_for_decide_at_leaf_epochs() {
    const EPOCHS: u64 = 6;
    let cfg = BilConfig::new().with_decide_at_leaf(true);
    let reference = churn_history(
        ServiceOptions {
            config: cfg,
            executor: ExecutorKind::Clustered,
            ..ServiceOptions::default()
        },
        EPOCHS,
        5,
    );
    for executor in [
        ExecutorKind::PerProcess,
        ExecutorKind::Parallel,
        ExecutorKind::Threaded,
        ExecutorKind::Socket,
    ] {
        let history = churn_history(
            ServiceOptions {
                config: cfg,
                executor,
                ..ServiceOptions::default()
            },
            EPOCHS,
            5,
        );
        assert_eq!(reference, history, "{executor} diverged");
    }
    // Held names stay unique through the whole history in every epoch
    // (releases apply at the top of an epoch, before its grants).
    let mut names: Vec<Name> = Vec::new();
    for epoch in &reference {
        for (_, n) in &epoch.released {
            names.retain(|x| x != n);
        }
        for (_, n) in &epoch.granted {
            names.push(*n);
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate held name");
    }
}
