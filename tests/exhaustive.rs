//! Exhaustive adversary enumeration ("model checking in the small").
//!
//! Property tests sample the adversary space; at small sizes
//! `bil-modelcheck`'s explorer enumerates it completely, running the
//! clustered executor once per adversary strategy: in every round until
//! every correct process decides, no crash or a crash of any participant
//! with any delivery subset for its dying broadcast (the full power of
//! the §3 adversary), at most one crash per round. Two crashes in one
//! round, which that branching does not reach, are replayed as explicit
//! decision paths. If uniqueness, validity, or termination were
//! breakable by any crash pattern at these sizes, these tests would find
//! the counterexample — deterministically.
//!
//! For the randomized protocols the coin space cannot be enumerated, so
//! each of a fixed set of seeds is explored in turn; every *adversary*
//! decision still is.

use balls_into_leaves::core::{BallsIntoLeaves, BilConfig};
use balls_into_leaves::modelcheck::{DecisionTrace, ExploreConfig, Explorer};
use balls_into_leaves::prelude::*;
use balls_into_leaves::runtime::ViewProtocol;

/// Explores every schedule of up to `budget` crashes, one per round,
/// against `protocol` over `n` processes, once per seed.
fn explore<P>(protocol: P, n: usize, budget: usize, seeds: &[u64])
where
    P: ViewProtocol + Clone + Send + 'static,
{
    for &seed in seeds {
        let cfg = ExploreConfig {
            crash_budget: budget,
            seed,
            ..ExploreConfig::default()
        };
        let stats = Explorer::new(protocol.clone(), n, cfg).explore();
        assert!(
            stats.violations.is_empty(),
            "seed {seed}: {:?}",
            stats.violations
        );
    }
}

/// Every schedule of up to two crashes at seed 0: the one-per-round
/// exploration, plus every pair of victims crashing together in one of
/// the first five rounds, each dying broadcast reaching any subset of
/// the other survivors (a victim hearing one is moot).
fn explore_double_crash<P>(protocol: P, n: usize)
where
    P: ViewProtocol + Clone + Send + 'static,
{
    explore(protocol.clone(), n, 2, &[0]);
    let cfg = ExploreConfig {
        crash_budget: 2,
        ..ExploreConfig::default()
    };
    let explorer = Explorer::new(protocol, n, cfg);
    let n = n as u32;
    let crash = |round, victim, recipients_mask| DecisionTrace {
        round: Round(round),
        victim: ProcId(victim),
        recipients_mask,
    };
    for round in 0..5 {
        for a in 0..n {
            for b in a + 1..n {
                let masks = || (0..1u64 << n).filter(move |m| m & (1 << a | 1 << b) == 0);
                for mask_a in masks() {
                    for mask_b in masks() {
                        let path = [crash(round, a, mask_a), crash(round, b, mask_b)];
                        let violations = explorer.check(&path);
                        assert!(violations.is_empty(), "{path:?}: {violations:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn exhaustive_single_crash_early_terminating_n4() {
    // The §6 variant is deterministic failure-free; two seeds cover the
    // post-phase-1 random paths.
    explore(BallsIntoLeaves::early_terminating(), 4, 1, &[0, 1]);
}

#[test]
fn exhaustive_single_crash_det_rank_n4() {
    explore(BallsIntoLeaves::deterministic_rank(), 4, 1, &[0]);
}

#[test]
fn exhaustive_single_crash_det_rank_n5() {
    // Odd (non-power-of-two) n: phantom leaves under every crash pattern.
    explore(BallsIntoLeaves::deterministic_rank(), 5, 1, &[0]);
}

#[test]
fn exhaustive_single_crash_base_algorithm_n4() {
    // The randomized algorithm: adversary space exhaustive, coin space
    // sampled by three seeds.
    explore(BallsIntoLeaves::base(), 4, 1, &[0, 1, 2]);
}

#[test]
fn exhaustive_single_crash_decide_at_leaf_n4() {
    // The ghost-eviction logic (decide-at-leaf "additional checks")
    // against every single-crash pattern.
    let protocol = BallsIntoLeaves::new(BilConfig::new().with_decide_at_leaf(true));
    explore(protocol, 4, 1, &[0, 1]);
}

#[test]
fn exhaustive_double_crash_early_terminating_n4() {
    explore_double_crash(BallsIntoLeaves::early_terminating(), 4);
}

#[test]
fn exhaustive_double_crash_det_rank_n4() {
    explore_double_crash(BallsIntoLeaves::deterministic_rank(), 4);
}

#[test]
fn exhaustive_double_crash_decide_at_leaf_n4() {
    explore_double_crash(
        BallsIntoLeaves::new(BilConfig::new().with_decide_at_leaf(true)),
        4,
    );
}
