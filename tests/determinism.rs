//! Cross-executor determinism: for one fixed `(protocol, labels,
//! adversary, seed)`, all five executors — the clustered simulator, the
//! per-process simulator, the data-parallel executor, the
//! thread-per-process channel executor, and the socket executor (whose
//! every message crosses the kernel's loopback TCP stack as a
//! length-prefixed wire frame) — must produce **bit-identical**
//! `RunReport`s: decisions, crash events, round counts, and every
//! accounting counter included.
//!
//! This is the load-bearing equivalence of DESIGN.md §3: experiments
//! sweep with the (fast) clustered engine while correctness arguments
//! are made against per-process reference semantics and demonstrated
//! over real message passing — and since the shared `RoundPipeline`
//! refactor, the equivalence holds by construction, which these tests
//! keep honest.

use balls_into_leaves::core::{check_tight_renaming, BallsIntoLeaves, BilConfig};
use balls_into_leaves::prelude::*;
use balls_into_leaves::runtime::adversary::{
    Adversary, NoFailures, RandomCrash, Scripted, ScriptedCrash,
};
use balls_into_leaves::runtime::ViewProtocol;

/// Shuffle-ish unique labels so no executor can rely on label = slot.
fn labels(n: u64) -> Vec<Label> {
    (0..n).map(|i| Label((i * 193 + 71) % 4093)).collect()
}

/// A fixed hostile schedule: crashes in the init, path, and sync rounds,
/// with three different partial-delivery patterns.
fn schedule() -> Scripted {
    Scripted::new(vec![
        ScriptedCrash {
            round: Round(0),
            victim_index: 5,
            modulus: 2,
            residue: 1,
        },
        ScriptedCrash {
            round: Round(1),
            victim_index: 2,
            modulus: 3,
            residue: 0,
        },
        ScriptedCrash {
            round: Round(2),
            victim_index: 7,
            modulus: 0,
            residue: 0,
        },
    ])
}

/// Runs one `(protocol, labels, adversary, seed)` on all five executors
/// and asserts the reports are bit-identical, returning the common one.
fn assert_executors_agree<P, A, F>(
    protocol: P,
    labels: Vec<Label>,
    adversary: F,
    seed: u64,
) -> RunReport
where
    P: ViewProtocol + Clone + Send + 'static,
    A: Adversary<P::Msg>,
    F: Fn() -> A,
{
    let run = |kind: ExecutorKind| {
        kind.run(
            protocol.clone(),
            labels.clone(),
            adversary(),
            SeedTree::new(seed),
            EngineOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{kind} executor failed: {e}"))
    };
    let clustered = run(ExecutorKind::Clustered);
    let per_process = run(ExecutorKind::PerProcess);
    let parallel = run(ExecutorKind::Parallel);
    let threaded = run(ExecutorKind::Threaded);
    let socket = run(ExecutorKind::Socket);

    // Bit-identical: RunReport's derived Eq covers decisions (name and
    // round per process), crash events, rounds, and all accounting
    // counters (messages sent/delivered, wire bytes).
    assert_eq!(clustered, per_process, "per-process diverged (seed {seed})");
    assert_eq!(clustered, parallel, "parallel diverged (seed {seed})");
    assert_eq!(clustered, threaded, "threaded diverged (seed {seed})");
    assert_eq!(clustered, socket, "socket diverged (seed {seed})");
    clustered
}

#[test]
fn executors_are_bit_identical_on_fixed_input() {
    const N: u64 = 24;
    const SEED: u64 = 2014;
    let protocol = BallsIntoLeaves::new(BilConfig::new().with_decide_at_leaf(true));

    let report = assert_executors_agree(protocol, labels(N), schedule, SEED);

    // And the run itself is a valid renaming, so the equivalence is not
    // vacuous (e.g. four identically-empty reports).
    let verdict = check_tight_renaming(&report);
    assert!(verdict.holds(), "{verdict}");
    assert!(report.rounds > 0);
    assert!(!report.all_names().is_empty());
}

#[test]
fn executors_are_bit_identical_under_crash_heavy_schedule() {
    // A dense adaptive-random schedule: budget n/3, firing hard every
    // round, with i.i.d. partial-delivery subsets — the regime that
    // historically shook out view-splitting bugs (DESIGN.md §8.3).
    const N: u64 = 18;
    for seed in [3u64, 17, 2014] {
        let adversary =
            || RandomCrash::new(N as usize / 3, 0.9, SeedTree::new(seed).adversary_rng());
        let report = assert_executors_agree(BallsIntoLeaves::base(), labels(N), adversary, seed);
        assert!(report.completed(), "seed {seed}");
        assert!(
            report.failures() >= 2,
            "seed {seed}: schedule was supposed to be crash-heavy, saw {}",
            report.failures()
        );
        let verdict = check_tight_renaming(&report);
        assert!(verdict.holds(), "seed {seed}: {verdict}");
    }
}

#[test]
fn executors_are_bit_identical_for_early_terminating_variant() {
    let report = assert_executors_agree(
        BallsIntoLeaves::early_terminating(),
        labels(16),
        schedule,
        77,
    );
    assert!(report.completed());
}

#[test]
fn socket_executor_is_bit_identical_to_clustered_failure_free() {
    // The acceptance bar for the socket executor, stated directly: on a
    // failure-free schedule its report equals the clustered engine's
    // bit for bit (the crash-heavy counterpart is covered by
    // `executors_are_bit_identical_under_crash_heavy_schedule`, whose
    // helper runs the socket executor too).
    let ls = labels(20);
    let clustered = ExecutorKind::Clustered
        .run(
            BallsIntoLeaves::base(),
            ls.clone(),
            NoFailures,
            SeedTree::new(41),
            EngineOptions::default(),
        )
        .expect("valid configuration");
    let socket = ExecutorKind::Socket
        .run(
            BallsIntoLeaves::base(),
            ls,
            NoFailures,
            SeedTree::new(41),
            EngineOptions::default(),
        )
        .expect("socket executor completed");
    assert_eq!(clustered, socket);
    assert!(check_tight_renaming(&socket).holds());
}

#[test]
fn socket_report_is_independent_of_worker_count() {
    let run_with = |workers: usize| {
        let options = EngineOptions {
            wire: SocketOptions {
                workers: Some(workers),
                ..SocketOptions::default()
            },
            ..EngineOptions::default()
        };
        ExecutorKind::Socket
            .run(
                BallsIntoLeaves::base(),
                labels(14),
                schedule(),
                SeedTree::new(8),
                options,
            )
            .expect("socket executor completed")
    };
    let one = run_with(1);
    for workers in [2, 5, 14] {
        assert_eq!(one, run_with(workers), "workers = {workers}");
    }
}

#[test]
fn reports_are_reproducible_across_repeated_runs() {
    let mk = || {
        ExecutorKind::Clustered
            .run(
                BallsIntoLeaves::base(),
                labels(16),
                schedule(),
                SeedTree::new(7),
                EngineOptions::default(),
            )
            .expect("valid configuration")
    };
    assert_eq!(mk(), mk());
}
