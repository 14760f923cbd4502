//! The trace wrappers must not change behaviour: a traced run reports
//! exactly what the untraced run reports, on every executor, and the
//! kernel wrapper keeps the batched compose path.

use bil_harness::{AdversarySpec, Algorithm, Executor, Scenario};
use bil_perfbench::trace::{traced_epoch, traced_scenario, Layers};
use bil_runtime::adversary::RandomCrash;
use bil_runtime::{ProcId, SeedTree};
use bil_service::{Request, ServiceOptions, ShardedOptions, ShardedService};

const CRASHES: AdversarySpec = AdversarySpec::Random {
    budget: 8,
    expected_per_round: 2.0,
};

#[test]
fn traced_runs_equal_scenario_runs_on_every_executor() {
    for executor in Executor::ALL {
        for adversary in [AdversarySpec::None, CRASHES] {
            let scenario = Scenario::failure_free(Algorithm::BilBase, 64)
                .on_executor(executor)
                .against(adversary);
            for seed in [3, 11] {
                let mut layers = Layers::default();
                let traced = traced_scenario(&scenario, seed, &mut layers)
                    .unwrap_or_else(|e| panic!("{executor} {adversary}: {e}"));
                let untraced = scenario.run(seed).expect("scenario runs");
                assert_eq!(traced, untraced, "{executor} {adversary} seed {seed}");
                assert_eq!(layers.runs, 1);
                assert_eq!(layers.rounds, traced.rounds);
                assert!(
                    layers.compose_batch_calls > 0,
                    "{executor}: kernel not reached"
                );
                assert_eq!(layers.crashes, traced.crashes.len() as u64);
                if adversary != AdversarySpec::None {
                    assert!(
                        traced.failures() > 0,
                        "{executor}: the crash schedule must crash"
                    );
                }
            }
        }
    }
}

#[test]
fn kernel_wrapper_forwards_the_batched_compose() {
    // The default `compose_batch` loops over per-ball `compose`; a
    // wrapper that did not forward it would silently measure that loop.
    let scenario = Scenario::failure_free(Algorithm::BilBase, 256);
    let mut layers = Layers::default();
    traced_scenario(&scenario, 5, &mut layers).expect("clustered runs");
    assert_eq!(layers.compose_calls, 0);
    assert!(layers.compose_batch_calls >= layers.rounds);
    assert_eq!(layers.anomalies, 0);
    assert!(
        layers.tree_balls > 0,
        "path rounds must leave tree snapshots"
    );
    assert!(layers.wire_msgs > 0, "rounds must leave message samples");
}

#[test]
fn replayed_service_epochs_equal_the_service_report() {
    let mut svc = ShardedService::new(256, 4, 9, ShardedOptions::default()).expect("valid layout");
    let fill: Vec<Request> = (0..200)
        .map(|i| Request::Acquire(bil_runtime::Label(i)))
        .collect();
    svc.step(&fill).expect("fill commits");
    let mut churn: Vec<Request> = svc
        .holders()
        .take(40)
        .map(|(l, _)| Request::Release(l))
        .collect();
    churn.extend((1000..1050).map(|i| Request::Acquire(bil_runtime::Label(i))));
    svc.submit(&churn).expect("valid batch");
    let runs = svc.begin().expect("nothing in flight");
    let holders: Vec<Vec<_>> = (0..4).map(|s| svc.shard(s).holders().collect()).collect();
    let epoch = svc.epoch();
    let adversary = |s: usize| {
        RandomCrash::new(
            2,
            0.5,
            SeedTree::new(9).epoch(epoch).process_rng(ProcId(s as u32)),
        )
    };
    let outcomes = ShardedService::execute_all(runs, (0..4).map(adversary).collect(), false);
    let report = svc.complete(outcomes).expect("one outcome per shard");
    let mut replayed = 0;
    for (s, shard) in report.shards.iter().enumerate() {
        let Some(run) = shard.as_ref().expect("shard epoch succeeds").run.as_ref() else {
            continue;
        };
        let protocol = bil_core::EpochBil::new(
            ServiceOptions::default().config,
            svc.shard(s).capacity(),
            &holders[s],
        )
        .expect("holders are valid");
        let mut layers = Layers::default();
        let replay =
            traced_epoch(protocol, run, Box::new(adversary(s)), &mut layers).expect("replay runs");
        assert_eq!(&replay, run, "shard {s}");
        replayed += 1;
    }
    assert!(replayed > 0);
}
