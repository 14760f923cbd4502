//! Dedicated tests for the decide-at-leaf variant's "additional checks"
//! (commit broadcast, commit echo, provenance eviction, leaf poisoning,
//! cornered retreat) — the machinery DESIGN.md §4.5 documents.
//!
//! These are heavier-schedule versions of the generic property suite:
//! the bugs this construction fixes only materialized under dense crash
//! schedules at n ≥ 128 (see DESIGN.md §8.3), so the regression net here
//! deliberately runs hot.

use bil_core::adversary::{AdaptiveSplitter, LeafDenier, Sandwich, SyncSplitter};
use bil_core::{check_tight_renaming, BallsIntoLeaves, BilConfig, PathRule};
use bil_runtime::adversary::{Adversary, CrashBurst, RandomCrash};
use bil_runtime::engine::EngineOptions;
use bil_runtime::{ExecutorKind, Label, Round, RunReport, SeedTree};
use bil_tree::CoinRule;

fn labels(n: u64) -> Vec<Label> {
    (0..n).map(|i| Label((i * 67 + 5) % (n * 71))).collect()
}

fn dal() -> BallsIntoLeaves {
    BallsIntoLeaves::new(BilConfig::new().with_decide_at_leaf(true))
}

fn run_with<A: Adversary<bil_core::BilMsg>>(
    protocol: BallsIntoLeaves,
    n: u64,
    adv: A,
    seed: u64,
) -> RunReport {
    ExecutorKind::Clustered
        .run(
            protocol,
            labels(n),
            adv,
            SeedTree::new(seed),
            EngineOptions::default(),
        )
        .expect("valid configuration")
}

/// The regression scenario that broke both naive designs: heavy random
/// crashes with partial deliveries at n = 128 (DESIGN.md §8.3).
#[test]
fn heavy_random_crashes_at_the_size_that_broke_naive_designs() {
    for seed in 0..60 {
        let adv = RandomCrash::new(127, 4.0 / 127.0, SeedTree::new(seed).adversary_rng());
        let report = run_with(dal(), 128, adv, seed);
        let verdict = check_tight_renaming(&report);
        assert!(verdict.holds(), "seed={seed}: {verdict}");
    }
}

/// Commit-round crashes: the adversary kills balls exactly when they
/// broadcast `Commit`, exercising partial-commit handling. The
/// leaf-denier targets contention winners, which in this variant are
/// often one round from committing.
#[test]
fn partial_commits_under_leaf_denier() {
    for seed in 0..30 {
        let report = run_with(dal(), 64, LeafDenier::new(63), seed);
        let verdict = check_tight_renaming(&report);
        assert!(verdict.holds(), "seed={seed}: {verdict}");
    }
}

/// Sync-round crashes split position knowledge right when echoes travel.
#[test]
fn echo_chains_under_sync_splitter() {
    for seed in 0..30 {
        let report = run_with(dal(), 64, SyncSplitter::new(63), seed);
        let verdict = check_tight_renaming(&report);
        assert!(verdict.holds(), "seed={seed}: {verdict}");
    }
}

/// The threshold sandwich plus decide-at-leaf: rank confusion while
/// balls commit early.
#[test]
fn sandwich_with_early_terminating_decide_at_leaf() {
    let cfg = BilConfig::early_terminating().with_decide_at_leaf(true);
    for seed in 0..30 {
        let report = run_with(BallsIntoLeaves::new(cfg), 64, Sandwich::new(32), seed);
        let verdict = check_tight_renaming(&report);
        assert!(verdict.holds(), "seed={seed}: {verdict}");
    }
}

/// A burst during the very first path round maximizes simultaneous
/// partial paths; later commits must still be exact.
#[test]
fn first_round_burst_then_commits() {
    for seed in 0..30 {
        let adv = CrashBurst::new(Round(1), 32, SeedTree::new(seed).adversary_rng());
        let report = run_with(dal(), 64, adv, seed);
        let verdict = check_tight_renaming(&report);
        assert!(verdict.holds(), "seed={seed}: {verdict}");
    }
}

/// Cluster and per-process execution agree for the full commit/echo
/// machinery (the echo payloads are part of the views).
#[test]
fn decide_at_leaf_executor_equivalence() {
    for seed in 0..10 {
        let mk = |kind: ExecutorKind| {
            kind.run(
                dal(),
                labels(32),
                AdaptiveSplitter::new(16),
                SeedTree::new(seed),
                EngineOptions::default(),
            )
            .expect("valid configuration")
        };
        assert_eq!(
            mk(ExecutorKind::Clustered),
            mk(ExecutorKind::PerProcess),
            "seed={seed}"
        );
    }
}

/// Per-ball decisions must arrive no later than one phase after the
/// global variant's completion, across adversaries (the commit round is
/// the only added latency).
#[test]
fn per_ball_latency_bounded_by_one_extra_phase() {
    for seed in 0..10 {
        let on = run_with(dal(), 64, Sandwich::new(16), seed);
        let off = run_with(BallsIntoLeaves::base(), 64, Sandwich::new(16), seed);
        assert!(on.completed() && off.completed());
        for (a, b) in on.decisions.iter().zip(off.decisions.iter()) {
            if let (Some(da), Some(db)) = (a, b) {
                assert!(
                    da.round.0 <= db.round.0 + 2,
                    "seed={seed}: {:?} vs {:?}",
                    da.round,
                    db.round
                );
            }
        }
    }
}

/// Mean decision latency must actually improve over the global variant
/// under contention — the point of the feature.
#[test]
fn mean_latency_improves_under_contention() {
    let mut on_total = 0u64;
    let mut off_total = 0u64;
    for seed in 0..10 {
        let adv = || RandomCrash::new(16, 2.0 / 16.0, SeedTree::new(seed).adversary_rng());
        on_total += run_with(dal(), 128, adv(), seed)
            .decision_latencies()
            .iter()
            .sum::<u64>();
        off_total += run_with(BallsIntoLeaves::base(), 128, adv(), seed)
            .decision_latencies()
            .iter()
            .sum::<u64>();
    }
    assert!(
        on_total < off_total,
        "decide-at-leaf pooled latency {on_total} must beat global {off_total}"
    );
}

/// All three coin rules stay safe with decide-at-leaf (the ablations run
/// this combination in E12).
#[test]
fn coin_rule_matrix_with_decide_at_leaf() {
    for coin in [CoinRule::Weighted, CoinRule::Uniform] {
        let cfg = BilConfig::new()
            .with_path_rule(PathRule::Random(coin))
            .with_decide_at_leaf(true);
        for seed in 0..10 {
            let report = run_with(BallsIntoLeaves::new(cfg), 48, SyncSplitter::new(24), seed);
            let verdict = check_tight_renaming(&report);
            assert!(verdict.holds(), "{coin:?} seed={seed}: {verdict}");
        }
    }
}

/// DetRank with decide-at-leaf: the rank-slot walk must respect poisoned
/// leaves (routing capacity) and still solve renaming.
#[test]
fn det_rank_with_decide_at_leaf() {
    let cfg = BilConfig::deterministic_rank().with_decide_at_leaf(true);
    for seed in 0..20 {
        let report = run_with(BallsIntoLeaves::new(cfg), 64, Sandwich::new(32), seed);
        let verdict = check_tight_renaming(&report);
        assert!(verdict.holds(), "seed={seed}: {verdict}");
    }
}
