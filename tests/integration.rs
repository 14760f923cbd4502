//! Cross-crate integration tests: the full stack from public facade to
//! engine, across executors and variants.

use balls_into_leaves::core::adversary::{AdaptiveSplitter, LeafDenier, Sandwich, SyncSplitter};
use balls_into_leaves::core::{
    assignment, check_tight_renaming, solve_tight_renaming, BallsIntoLeaves, BilConfig,
};
use balls_into_leaves::harness::{AdversarySpec, Algorithm, Batch, Scenario};
use balls_into_leaves::prelude::*;
use balls_into_leaves::runtime::adversary::{Scripted, ScriptedCrash};

fn labels(n: u64) -> Vec<Label> {
    (0..n).map(|i| Label(i * 101 + 13)).collect()
}

#[test]
fn facade_solves_and_checks() {
    let report = solve_tight_renaming(labels(32), 1).expect("valid run");
    let verdict = check_tight_renaming(&report);
    assert!(verdict.holds(), "{verdict}");
    let asg = assignment(&report);
    assert_eq!(asg.len(), 32);
    let mut names: Vec<u32> = asg.iter().map(|(_, n)| n.0).collect();
    names.sort_unstable();
    assert_eq!(names, (0..32).collect::<Vec<_>>());
}

#[test]
fn threaded_executor_runs_full_protocol() {
    let sim = ExecutorKind::Clustered
        .run(
            BallsIntoLeaves::base(),
            labels(16),
            Scripted::new(vec![ScriptedCrash {
                round: Round(1),
                victim_index: 2,
                modulus: 2,
                residue: 0,
            }]),
            SeedTree::new(5),
            EngineOptions::default(),
        )
        .expect("valid configuration");
    let threaded = ExecutorKind::Threaded
        .run(
            BallsIntoLeaves::base(),
            labels(16),
            Scripted::new(vec![ScriptedCrash {
                round: Round(1),
                victim_index: 2,
                modulus: 2,
                residue: 0,
            }]),
            SeedTree::new(5),
            EngineOptions::default(),
        )
        .expect("valid configuration");
    assert_eq!(sim, threaded);
    assert!(check_tight_renaming(&threaded).holds());
}

#[test]
fn per_process_mode_full_protocol_with_adaptive_adversary() {
    for seed in 0..3 {
        let run = |kind: ExecutorKind| {
            kind.run(
                BallsIntoLeaves::base(),
                labels(24),
                AdaptiveSplitter::new(8),
                SeedTree::new(seed),
                EngineOptions::default(),
            )
            .expect("valid configuration")
        };
        let clustered = run(ExecutorKind::Clustered);
        let per_process = run(ExecutorKind::PerProcess);
        assert_eq!(clustered, per_process, "seed={seed}");
        assert!(check_tight_renaming(&clustered).holds());
    }
}

#[test]
fn every_protocol_adversary_is_survivable_at_scale() {
    let n = 64u64;
    for seed in 0..3 {
        for budget in [8usize, 63] {
            let advs: Vec<Box<dyn balls_into_leaves::runtime::adversary::Adversary<_> + Send>> = vec![
                Box::new(AdaptiveSplitter::new(budget)),
                Box::new(Sandwich::new(budget)),
                Box::new(SyncSplitter::new(budget)),
                Box::new(LeafDenier::new(budget)),
            ];
            for adv in advs {
                let report = ExecutorKind::Clustered
                    .run(
                        BallsIntoLeaves::base(),
                        labels(n),
                        adv,
                        SeedTree::new(seed),
                        EngineOptions::default(),
                    )
                    .expect("valid configuration");
                let verdict = check_tight_renaming(&report);
                assert!(verdict.holds(), "seed={seed} budget={budget}: {verdict}");
            }
        }
    }
}

#[test]
fn early_terminating_with_decide_at_leaf_under_stress() {
    for seed in 0..5 {
        let cfg = BilConfig::early_terminating().with_decide_at_leaf(true);
        let report = ExecutorKind::Clustered
            .run(
                BallsIntoLeaves::new(cfg),
                labels(40),
                Sandwich::new(20),
                SeedTree::new(seed),
                EngineOptions::default(),
            )
            .expect("valid configuration");
        let verdict = check_tight_renaming(&report);
        assert!(verdict.holds(), "seed={seed}: {verdict}");
    }
}

#[test]
fn scenario_dispatch_covers_every_algorithm_against_crashes() {
    for algo in [
        Algorithm::BilBase,
        Algorithm::BilEarly,
        Algorithm::BilDecideAtLeaf,
        Algorithm::DetRank,
        Algorithm::FloodRank,
        Algorithm::RetryUniform,
        Algorithm::TwoChoice,
        Algorithm::EagerStrict,
    ] {
        let batch = Batch::run(
            Scenario::failure_free(algo, 16).against(AdversarySpec::Burst { round: 0, count: 3 }),
            0..5,
        )
        .expect("valid scenario");
        assert!(
            batch.uniqueness_rate() == 1.0,
            "{algo} must stay unique under a round-0 burst"
        );
        assert!(batch.completion_rate() > 0.0, "{algo} never completed");
    }
}

#[test]
fn nonuniform_sizes_work_end_to_end() {
    // Non-power-of-two n exercises phantom leaves through the whole
    // stack.
    for n in [1u64, 3, 5, 6, 7, 11, 13, 27, 100] {
        let report = solve_tight_renaming(labels(n), n).expect("valid run");
        let verdict = check_tight_renaming(&report);
        assert!(verdict.holds(), "n={n}: {verdict}");
        let mut names: Vec<u32> = report.all_names().iter().map(|x| x.0).collect();
        names.sort_unstable();
        assert_eq!(names, (0..n as u32).collect::<Vec<_>>(), "n={n}");
    }
}

#[test]
fn figures_render_from_facade() {
    use balls_into_leaves::harness::render_tree;
    let topo = Topology::new(8).expect("valid size");
    let tree = LocalTree::with_balls_at_root(topo, (1..=8).map(Label));
    let art = render_tree(&tree);
    assert!(art.contains("{1,2,3,4,5,6,7,8}"));
    assert!(art.contains("#7"));
}
