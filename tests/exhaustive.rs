//! Exhaustive adversary enumeration ("model checking in the small").
//!
//! Property tests sample the adversary space; for the *deterministic*
//! protocol variants we can do better and enumerate it completely at
//! small sizes: every choice of crash round, victim, and delivery subset
//! (the full power of the §3 adversary) within the bounds below. If
//! uniqueness, validity, or termination were breakable by any crash
//! pattern at these sizes, these tests would find the counterexample —
//! deterministically.
//!
//! For the randomized base algorithm the same schedules are enumerated
//! against a fixed set of seeds (the coin space cannot be enumerated,
//! but every *adversary* decision still is).

use balls_into_leaves::core::{check_tight_renaming, BallsIntoLeaves, BilConfig};
use balls_into_leaves::prelude::*;
use balls_into_leaves::runtime::adversary::{
    Adversary, AdversaryView, Crash, CrashPlan, Recipients,
};
use balls_into_leaves::runtime::ViewProtocol;

/// One fully explicit crash directive.
#[derive(Debug, Clone)]
struct PlannedCrash {
    round: Round,
    /// Index into the round's participant list.
    victim_index: usize,
    /// Bitmask over process slots 0..n receiving the dying broadcast.
    recipients_mask: u32,
}

/// Adversary that replays an explicit directive list.
#[derive(Debug, Clone)]
struct Exact {
    crashes: Vec<PlannedCrash>,
    n: usize,
}

impl<M> Adversary<M> for Exact {
    fn plan(&mut self, view: &AdversaryView<'_, M>) -> CrashPlan {
        let mut plan = CrashPlan::none();
        for c in self.crashes.iter().filter(|c| c.round == view.round) {
            if view.participant_count() <= 1 {
                continue;
            }
            let victim = view.participants[c.victim_index % view.participant_count()];
            let recipients: Vec<ProcId> = (0..self.n as u32)
                .map(ProcId)
                .filter(|p| *p != victim && (c.recipients_mask >> p.0) & 1 == 1)
                .collect();
            plan.crashes.push(Crash {
                victim,
                deliver_to: Recipients::Set(recipients),
            });
        }
        plan
    }

    fn budget(&self) -> usize {
        self.crashes.len()
    }
}

fn labels(n: usize) -> Vec<Label> {
    (0..n as u64).map(|i| Label(i * 7 + 3)).collect()
}

/// Enumerates all single-crash schedules: round × victim × 2^n delivery
/// subsets, and runs `protocol` against each.
fn enumerate_single_crash<P>(protocol: P, n: usize, rounds: u64, seeds: &[u64])
where
    P: ViewProtocol + Clone + Send + 'static,
{
    let mut runs = 0u64;
    for round in 0..rounds {
        for victim in 0..n {
            for mask in 0..(1u32 << n) {
                for &seed in seeds {
                    let adv = Exact {
                        crashes: vec![PlannedCrash {
                            round: Round(round),
                            victim_index: victim,
                            recipients_mask: mask,
                        }],
                        n,
                    };
                    let report = ExecutorKind::Clustered
                        .run(
                            protocol.clone(),
                            labels(n),
                            adv,
                            SeedTree::new(seed),
                            EngineOptions::default(),
                        )
                        .expect("valid configuration");
                    let verdict = check_tight_renaming(&report);
                    assert!(
                        verdict.holds(),
                        "round={round} victim={victim} mask={mask:b} seed={seed}: {verdict}"
                    );
                    runs += 1;
                }
            }
        }
    }
    assert!(runs > 0);
}

/// Enumerates all two-crash schedules over the given rounds with a
/// reduced (but complete w.r.t. view partition) delivery-subset space.
fn enumerate_double_crash<P>(protocol: P, n: usize, rounds: u64, seeds: &[u64])
where
    P: ViewProtocol + Clone + Send + 'static,
{
    // Every subset of slots is enumerated for the first crash; the
    // second crash uses the quarter-resolution masks (every subset of
    // slot-pairs), which still exercises all relative positions of the
    // two divergence frontiers.
    let coarse: Vec<u32> = (0..(1u32 << n.div_ceil(2)))
        .map(|m| {
            let mut full = 0u32;
            for b in 0..n.div_ceil(2) {
                if (m >> b) & 1 == 1 {
                    full |= 0b11 << (2 * b);
                }
            }
            full & ((1u32 << n) - 1)
        })
        .collect();
    for r1 in 0..rounds {
        for r2 in r1..rounds {
            for mask1 in 0..(1u32 << n) {
                for &mask2 in &coarse {
                    for &seed in seeds {
                        let adv = Exact {
                            crashes: vec![
                                PlannedCrash {
                                    round: Round(r1),
                                    victim_index: 0,
                                    recipients_mask: mask1,
                                },
                                PlannedCrash {
                                    round: Round(r2),
                                    victim_index: 1,
                                    recipients_mask: mask2,
                                },
                            ],
                            n,
                        };
                        let report = ExecutorKind::Clustered
                            .run(
                                protocol.clone(),
                                labels(n),
                                adv,
                                SeedTree::new(seed),
                                EngineOptions::default(),
                            )
                            .expect("valid configuration");
                        let verdict = check_tight_renaming(&report);
                        assert!(
                            verdict.holds(),
                            "r1={r1} r2={r2} m1={mask1:b} m2={mask2:b} seed={seed}: {verdict}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn exhaustive_single_crash_early_terminating_n4() {
    // 4 processes, crash in any of the first 7 rounds, any victim, any
    // of the 16 delivery subsets: 7 × 4 × 16 = 448 executions. The §6
    // variant is deterministic failure-free, so one seed suffices per
    // non-random branch; two seeds cover the post-phase-1 random paths.
    enumerate_single_crash(BallsIntoLeaves::early_terminating(), 4, 7, &[0, 1]);
}

#[test]
fn exhaustive_single_crash_det_rank_n4() {
    enumerate_single_crash(BallsIntoLeaves::deterministic_rank(), 4, 7, &[0]);
}

#[test]
fn exhaustive_single_crash_det_rank_n5() {
    // Odd (non-power-of-two) n: phantom leaves under every crash
    // pattern. 7 × 5 × 32 = 1120 executions.
    enumerate_single_crash(BallsIntoLeaves::deterministic_rank(), 5, 7, &[0]);
}

#[test]
fn exhaustive_single_crash_base_algorithm_n4() {
    // The randomized algorithm: adversary space exhaustive, coin space
    // sampled by three seeds.
    enumerate_single_crash(BallsIntoLeaves::base(), 4, 7, &[0, 1, 2]);
}

#[test]
fn exhaustive_single_crash_decide_at_leaf_n4() {
    // The ghost-eviction logic (decide-at-leaf "additional checks")
    // against every single-crash pattern.
    enumerate_single_crash(
        BallsIntoLeaves::new(BilConfig::new().with_decide_at_leaf(true)),
        4,
        7,
        &[0, 1],
    );
}

#[test]
fn exhaustive_double_crash_early_terminating_n4() {
    enumerate_double_crash(BallsIntoLeaves::early_terminating(), 4, 5, &[0]);
}

#[test]
fn exhaustive_double_crash_det_rank_n4() {
    enumerate_double_crash(BallsIntoLeaves::deterministic_rank(), 4, 5, &[0]);
}

#[test]
fn exhaustive_double_crash_decide_at_leaf_n4() {
    enumerate_double_crash(
        BallsIntoLeaves::new(BilConfig::new().with_decide_at_leaf(true)),
        4,
        5,
        &[0],
    );
}
