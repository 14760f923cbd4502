//! Property-based verification of Balls-into-Leaves.
//!
//! The paper's Theorem 1 (correct balls terminate at distinct leaves) is
//! proved against *every* crash pattern of the strong adaptive adversary.
//! These tests approximate that quantifier with proptest: arbitrary crash
//! schedules (round × victim × partial-delivery pattern), across all
//! three protocol variants and both termination modes, on all three
//! executors — checking the §3 specification (termination / validity /
//! uniqueness), the Lemma 2 path-isolation property, and executor
//! equivalence.

use std::collections::{BTreeMap, BTreeSet};

use bil_core::{check_tight_renaming, BallsIntoLeaves, BilConfig, BilMsg, BilView, PathRule};
use bil_runtime::adversary::{Scripted, ScriptedCrash};
use bil_runtime::engine::{EngineMode, EngineOptions, SyncEngine};
use bil_runtime::threaded::run_threaded;
use bil_runtime::view::{Cluster, FnObserver, ObserverCtx};
use bil_runtime::{InboxBuf, Label, ProcId, Round, SeedTree, ViewProtocol};
use bil_tree::{CoinRule, LocalTree, OrderedBall};
use proptest::prelude::*;

/// Arbitrary crash schedules: up to 8 crashes in rounds 0..14 with
/// arbitrary victims and delivery patterns.
fn schedules() -> impl Strategy<Value = Vec<ScriptedCrash>> {
    prop::collection::vec(
        (0u64..14, 0usize..32, 0usize..5, 0usize..5).prop_map(|(r, v, m, res)| ScriptedCrash {
            round: Round(r),
            victim_index: v,
            modulus: m,
            residue: res,
        }),
        0..8,
    )
}

/// All protocol variants under test.
fn configs() -> Vec<BilConfig> {
    vec![
        BilConfig::new(),
        BilConfig::new().with_decide_at_leaf(true),
        BilConfig::early_terminating(),
        BilConfig::early_terminating().with_decide_at_leaf(true),
        BilConfig::deterministic_rank(),
        BilConfig::new().with_path_rule(PathRule::Random(CoinRule::Uniform)),
    ]
}

/// Shuffle-ish unique labels so algorithms cannot rely on label = slot.
fn labels(n: usize) -> Vec<Label> {
    (0..n as u64).map(|i| Label((i * 53 + 19) % 1021)).collect()
}

/// The legacy (pre-SoA) apply semantics for the base protocol, spelled
/// out over public [`LocalTree`] ops: per-round `BTreeMap` from the
/// inbox, priority-order snapshot, map lookup per ball. The base config
/// never commits mid-round, so the committed-ball guards of the real
/// sweep are vacuous here.
fn reference_apply(tree: &mut LocalTree, round: Round, pairs: &[(Label, BilMsg)]) {
    let map: BTreeMap<Label, BilMsg> = pairs.iter().cloned().collect();
    let mut snapshot: Vec<OrderedBall> = Vec::new();
    tree.priority_order_into(&mut snapshot);
    for e in snapshot {
        let ball = e.ball;
        if round.is_path_round() {
            match map.get(&ball) {
                Some(BilMsg::Path(path)) => {
                    if tree.place_along(ball, path).is_err() {
                        tree.remove(ball);
                    }
                }
                Some(BilMsg::Pos { .. }) => {}
                _ => {
                    tree.remove(ball);
                }
            }
        } else {
            match map.get(&ball) {
                Some(BilMsg::Pos { node, .. }) => {
                    if tree.update_node(ball, *node).is_err() {
                        tree.remove(ball);
                    }
                }
                _ => {
                    tree.remove(ball);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The §3 specification holds for every variant under every crash
    /// schedule.
    #[test]
    fn renaming_spec_under_arbitrary_schedules(
        n in 1usize..20,
        seed in any::<u64>(),
        schedule in schedules(),
    ) {
        for (i, cfg) in configs().into_iter().enumerate() {
            let report = SyncEngine::new(
                BallsIntoLeaves::new(cfg),
                labels(n),
                Scripted::new(schedule.clone()),
                SeedTree::new(seed),
            )
            .unwrap()
            .run();
            let verdict = check_tight_renaming(&report);
            prop_assert!(
                verdict.holds(),
                "config #{i} ({cfg:?}) n={n} seed={seed}: {verdict}"
            );
        }
    }

    /// Clustered and per-process execution are observationally identical.
    #[test]
    fn clustered_equals_per_process(
        n in 1usize..14,
        seed in any::<u64>(),
        schedule in schedules(),
    ) {
        let run = |mode| {
            SyncEngine::with_options(
                BallsIntoLeaves::base(),
                labels(n),
                Scripted::new(schedule.clone()),
                SeedTree::new(seed),
                EngineOptions { max_rounds: None, mode },
            )
            .unwrap()
            .run()
        };
        prop_assert_eq!(run(EngineMode::Clustered), run(EngineMode::PerProcess));
    }

    /// The channel-carried worker executor matches the simulator.
    #[test]
    fn threaded_equals_sim(
        n in 1usize..10,
        seed in any::<u64>(),
        schedule in schedules(),
    ) {
        let sim = SyncEngine::new(
            BallsIntoLeaves::base(),
            labels(n),
            Scripted::new(schedule.clone()),
            SeedTree::new(seed),
        )
        .unwrap()
        .run();
        let threaded = run_threaded(
            BallsIntoLeaves::base(),
            labels(n),
            Scripted::new(schedule),
            SeedTree::new(seed),
            EngineOptions::default(),
        )
        .unwrap();
        prop_assert_eq!(sim, threaded);
    }

    /// Lemma 2 (Path Isolation): within any single process's view, the
    /// set of balls on any root-to-leaf-parent path only shrinks from
    /// phase to phase.
    #[test]
    fn path_isolation_property(
        n in 2usize..14,
        seed in any::<u64>(),
        schedule in schedules(),
    ) {
        // Per-process mode so each view's evolution is trackable by pid.
        // History: pid -> (leaf-parent -> ball set at previous phase end).
        let mut prev: BTreeMap<u32, BTreeMap<u32, BTreeSet<Label>>> = BTreeMap::new();
        let mut violation: Option<String> = None;
        {
            let mut obs = FnObserver(|ctx: ObserverCtx<'_>, clusters: &[Cluster<BilView>]| {
                if !ctx.round.is_sync_round() {
                    return;
                }
                for cluster in clusters {
                    for pid in &cluster.members {
                        let tree = cluster.view.tree();
                        let topo = *tree.topology();
                        let mut now: BTreeMap<u32, BTreeSet<Label>> = BTreeMap::new();
                        // Leaf parents: the level above the leaves (or the
                        // root itself for n = 1-level trees).
                        let half = (topo.padded_leaves() / 2).max(1) as u32;
                        for parent in half..(2 * half).min(topo.padded_leaves() as u32) {
                            let set: BTreeSet<Label> =
                                tree.balls_on_chain(parent).into_iter().collect();
                            now.insert(parent, set);
                        }
                        if let Some(old) = prev.get(&pid.0) {
                            for (parent, set) in &now {
                                if let Some(old_set) = old.get(parent) {
                                    // New balls must not appear; survivors
                                    // must be a subset of the old set.
                                    if !set.is_subset(old_set) {
                                        violation = Some(format!(
                                            "pid {} path {} gained balls: {:?} -> {:?}",
                                            pid.0, parent, old_set, set
                                        ));
                                    }
                                }
                            }
                        }
                        prev.insert(pid.0, now);
                    }
                }
            });
            SyncEngine::with_options(
                BallsIntoLeaves::base(),
                labels(n),
                Scripted::new(schedule),
                SeedTree::new(seed),
                EngineOptions {
                    max_rounds: None,
                    mode: EngineMode::PerProcess,
                },
            )
            .unwrap()
            .run_observed(&mut obs);
        }
        prop_assert!(violation.is_none(), "{}", violation.unwrap_or_default());
    }

    /// Decided names always equal the left-to-right rank of a real leaf,
    /// and the assignment is a partial injection into 0..n.
    #[test]
    fn names_are_a_partial_injection(
        n in 1usize..24,
        seed in any::<u64>(),
        schedule in schedules(),
    ) {
        let report = SyncEngine::new(
            BallsIntoLeaves::base(),
            labels(n),
            Scripted::new(schedule),
            SeedTree::new(seed),
        )
        .unwrap()
        .run();
        let names = report.all_names();
        let mut sorted: Vec<u32> = names.iter().map(|x| x.0).collect();
        sorted.sort_unstable();
        let mut deduped = sorted.clone();
        deduped.dedup();
        prop_assert_eq!(sorted.len(), deduped.len(), "duplicate names");
        prop_assert!(sorted.iter().all(|x| (*x as usize) < n), "name out of range");
        // At least n − f processes decide.
        prop_assert!(names.len() + report.failures() >= n);
    }

    /// The columnar apply sweep (sorted-slice merge-join + in-place
    /// column mutation) is bit-identical to the legacy per-round map
    /// path under arbitrary crash/silence patterns and junk senders.
    ///
    /// `reference_apply` below is the pre-SoA semantics spelled out
    /// directly: build a `BTreeMap<Label, BilMsg>` from the inbox,
    /// snapshot the priority order, and look each ball up in the map —
    /// exactly what `BallsIntoLeaves::apply` used to do one view at a
    /// time. The production path must land every run on the same tree.
    #[test]
    fn columnar_apply_matches_map_reference_under_crashes(
        n in 2usize..24,
        seed in any::<u64>(),
        crashes in prop::collection::vec((1u64..9, 0usize..24), 0..8),
        junk in prop::collection::vec(0u64..4, 0..3),
    ) {
        let protocol = BallsIntoLeaves::base();
        let labels = labels(n);
        let mut view = protocol.init_view(n);
        let init: InboxBuf<BilMsg> =
            labels.iter().map(|l| (*l, BilMsg::Init)).collect();
        protocol.apply(&mut view, Round(0), init.as_inbox());
        let mut reference = view.tree().clone();
        let seeds = SeedTree::new(seed);
        let mut rngs: Vec<_> = (0..n)
            .map(|p| seeds.process_rng(ProcId(p as u32)))
            .collect();
        let mut crashed: BTreeSet<Label> = BTreeSet::new();
        for r in 1..=8u64 {
            let round = Round(r);
            for (cr, victim) in &crashes {
                if *cr == r {
                    crashed.insert(labels[*victim % n]);
                }
            }
            // Crashed balls fall silent; surviving balls broadcast what
            // the shared view composes (failure-free views agree, and the
            // sweep equivalence only needs *some* valid message stream).
            let mut pairs: Vec<(Label, BilMsg)> = labels
                .iter()
                .enumerate()
                .filter(|(_, l)| {
                    !crashed.contains(l) && view.tree().current_node(**l).is_some()
                })
                .map(|(i, l)| (*l, protocol.compose(&view, *l, round, &mut rngs[i])))
                .collect();
            // Junk senders outside the label column: both paths must
            // skip them (admission happens only in round 0).
            for (j, kind) in junk.iter().enumerate() {
                let stray = Label(10_000 + j as u64);
                let msg = match kind {
                    0 => BilMsg::Init,
                    _ => BilMsg::Pos { node: 1, echo: Vec::new() },
                };
                pairs.push((stray, msg));
            }
            let inbox: InboxBuf<BilMsg> = pairs.iter().cloned().collect();
            reference_apply(&mut reference, round, &pairs);
            protocol.apply(&mut view, round, inbox.as_inbox());
            prop_assert_eq!(
                view.tree(),
                &reference,
                "round {} diverged (n={}, seed={})",
                r,
                n,
                seed
            );
        }
    }

    /// The batched compose sweep is bit-identical to per-ball
    /// composition for every variant: same messages in the same order,
    /// the same rng draws from each ball's private stream, and — once
    /// both message streams are applied — the same view and anomaly
    /// counts. Crashed balls stay in the batch (their slots go vacant,
    /// exercising the silence-equivalent reply), junk labels exercise
    /// the missing-ball path, and a rotated batch exercises the
    /// unsorted per-ball fallback alongside the sorted merge-join.
    #[test]
    fn compose_batch_matches_per_ball_compose(
        n in 2usize..24,
        seed in any::<u64>(),
        crashes in prop::collection::vec((1u64..9, 0usize..24), 0..8),
        junk in 0usize..3,
        rotate in 0usize..4,
    ) {
        use rand::RngCore;
        for cfg in configs() {
            let protocol = BallsIntoLeaves::new(cfg);
            let labels = labels(n);
            // rng index: ball labels[i] -> i, junk ball j -> n + j.
            let index_of = |ball: Label| -> usize {
                labels
                    .iter()
                    .position(|l| *l == ball)
                    .unwrap_or_else(|| n + (ball.0 - 10_000) as usize)
            };
            let seeds = SeedTree::new(seed);
            let mut rngs_a: Vec<_> = (0..n + junk)
                .map(|p| seeds.process_rng(ProcId(p as u32)))
                .collect();
            let mut rngs_b: Vec<_> = (0..n + junk)
                .map(|p| seeds.process_rng(ProcId(p as u32)))
                .collect();
            let mut view_a = protocol.init_view(n);
            let init: InboxBuf<BilMsg> =
                labels.iter().map(|l| (*l, BilMsg::Init)).collect();
            protocol.apply(&mut view_a, Round(0), init.as_inbox());
            let mut view_b = view_a.clone();
            let mut crashed: BTreeSet<Label> = BTreeSet::new();
            for r in 1..=8u64 {
                let round = Round(r);
                for (cr, victim) in &crashes {
                    if *cr == r {
                        crashed.insert(labels[*victim % n]);
                    }
                }
                let mut batch: Vec<Label> = labels.clone();
                batch.extend((0..junk).map(|j| Label(10_000 + j as u64)));
                batch.sort_unstable();
                let len = batch.len();
                batch.rotate_left(rotate % len);
                // Reference: one per-ball compose per batch entry, in
                // batch order, from the `a` streams.
                let reference: Vec<(Label, BilMsg)> = batch
                    .iter()
                    .map(|&ball| {
                        let rng = &mut rngs_a[index_of(ball)];
                        (ball, protocol.compose(&view_a, ball, round, rng))
                    })
                    .collect();
                // Batched: one sweep over the same entries, from the
                // `b` streams gathered in batch order.
                let mut taken: Vec<Option<&mut rand::rngs::SmallRng>> =
                    rngs_b.iter_mut().map(Some).collect();
                let mut gathered: Vec<&mut rand::rngs::SmallRng> = batch
                    .iter()
                    .map(|&ball| taken[index_of(ball)].take().unwrap())
                    .collect();
                let mut batched: Vec<(Label, BilMsg)> = Vec::new();
                protocol.compose_batch(&view_b, &batch, round, &mut gathered, &mut batched);
                prop_assert_eq!(
                    &reference,
                    &batched,
                    "round {} diverged (n={}, seed={}, rotate={})",
                    r,
                    n,
                    seed,
                    rotate
                );
                // Deliver each side's own stream (crashed balls silent)
                // and the views — tree, commits, anomaly counts — must
                // stay identical.
                let deliver = |composed: &[(Label, BilMsg)]| -> InboxBuf<BilMsg> {
                    composed
                        .iter()
                        .filter(|(ball, _)| !crashed.contains(ball))
                        .cloned()
                        .collect()
                };
                let inbox_a = deliver(&reference);
                let inbox_b = deliver(&batched);
                protocol.apply(&mut view_a, round, inbox_a.as_inbox());
                protocol.apply(&mut view_b, round, inbox_b.as_inbox());
                prop_assert_eq!(&view_a, &view_b, "views diverged after round {}", r);
            }
            // Both sides consumed identical draws from every stream.
            for (a, b) in rngs_a.iter_mut().zip(rngs_b.iter_mut()) {
                prop_assert_eq!(a.next_u64(), b.next_u64(), "rng streams diverged");
            }
        }
    }

    /// Deterministic replay: identical inputs give identical reports for
    /// every variant.
    #[test]
    fn deterministic_replay_all_variants(
        n in 1usize..12,
        seed in any::<u64>(),
        schedule in schedules(),
    ) {
        for cfg in configs() {
            let mk = || {
                SyncEngine::new(
                    BallsIntoLeaves::new(cfg),
                    labels(n),
                    Scripted::new(schedule.clone()),
                    SeedTree::new(seed),
                )
                .unwrap()
                .run()
            };
            prop_assert_eq!(mk(), mk());
        }
    }
}
