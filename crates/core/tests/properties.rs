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

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

use bil_core::{
    check_tight_renaming, Anomalies, BallsIntoLeaves, BilConfig, BilMsg, BilView, EpochBil,
    PathRule,
};
use bil_runtime::adversary::{Scripted, ScriptedCrash};
use bil_runtime::engine::EngineOptions;
use bil_runtime::rng::split_mix64;
use bil_runtime::view::{Cluster, FnObserver, ObserverCtx};
use bil_runtime::{
    ExecutorKind, InboxBuf, Label, Name, ProcId, Round, SeedTree, Status, ViewProtocol,
};
use bil_tree::{CoinRule, LocalTree, NodeId, PackedPath, ROOT};
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

/// The priority order `<R` by comparison sort over `balls()`: deeper
/// first, then smaller label. Independent of the kernel's counting-sort
/// snapshot (`LocalTree::priority_order_into`).
fn priority_sorted(tree: &LocalTree) -> Vec<Label> {
    let topo = *tree.topology();
    let mut balls: Vec<(Label, NodeId)> = tree.balls().collect();
    balls.sort_by(|a, b| topo.depth(b.1).cmp(&topo.depth(a.1)).then(a.0.cmp(&b.0)));
    balls.into_iter().map(|(ball, _)| ball).collect()
}

/// The legacy (pre-SoA) apply semantics for the base protocol, spelled
/// out over public [`LocalTree`] ops: per-round `BTreeMap` from the
/// inbox, priority-order snapshot, map lookup per ball. The base config
/// never commits mid-round, so the committed-ball guards of the real
/// sweep are vacuous here.
fn reference_apply(tree: &mut LocalTree, round: Round, pairs: &[(Label, BilMsg)]) {
    let map: BTreeMap<Label, BilMsg> = pairs.iter().cloned().collect();
    for ball in priority_sorted(tree) {
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

/// How a reference view learned a commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefProvenance {
    Direct,
    Echoed,
}

/// A reference commit record.
#[derive(Debug, Clone, Copy)]
struct RefCommit {
    leaf: NodeId,
    round: Round,
    provenance: RefProvenance,
}

/// Every variant's apply semantics — commits, echoes, evictions and
/// anomaly counting included — spelled out with the per-ball log factors
/// the kernel avoids: a `BTreeMap` commit lookup per silent ball, a
/// comparison-sorted snapshot, and an unconditional over-full walk over
/// every committed ball's ancestors each sync round. It shares only
/// `LocalTree`'s public operations with `BilView`.
struct ReferenceView {
    tree: LocalTree,
    committed: BTreeMap<Label, RefCommit>,
    fresh: Vec<(Label, NodeId)>,
    dismissed: BTreeSet<Label>,
    anomalies: Anomalies,
}

impl ReferenceView {
    /// Mirrors a view after round 0. A fresh epoch view has no commits
    /// (holders never enter it), so the copy starts with none; a commit
    /// a view did hold would be a direct round-0 one. Nothing awaits an
    /// echo.
    fn of(view: &BilView) -> Self {
        ReferenceView {
            tree: view.tree().clone(),
            committed: view
                .committed()
                .map(|(ball, leaf)| {
                    let record = RefCommit {
                        leaf,
                        round: Round(0),
                        provenance: RefProvenance::Direct,
                    };
                    (ball, record)
                })
                .collect(),
            fresh: Vec::new(),
            dismissed: BTreeSet::new(),
            anomalies: view.anomalies(),
        }
    }

    fn learn_commit(&mut self, ball: Label, leaf: NodeId, round: Round, provenance: RefProvenance) {
        let topo = *self.tree.topology();
        if !topo.is_node(leaf) || !topo.is_leaf(leaf) || topo.capacity(leaf) == 0 {
            self.anomalies.malformed_commits += 1;
            return;
        }
        if self.dismissed.contains(&ball) {
            return;
        }
        if let Some(existing) = self.committed.get(&ball) {
            if existing.leaf != leaf {
                self.anomalies.malformed_commits += 1;
            }
            return;
        }
        let here = self.tree.current_node(ball);
        if provenance == RefProvenance::Direct && here != Some(leaf) {
            self.anomalies.malformed_commits += 1;
            return;
        }
        if here != Some(leaf) {
            self.tree.update_node(ball, leaf).unwrap();
        }
        let record = RefCommit {
            leaf,
            round,
            provenance,
        };
        self.committed.insert(ball, record);
        self.fresh.push((ball, leaf));
    }

    fn learn_echoes(&mut self, round: Round, msgs: &BTreeMap<Label, BilMsg>) {
        for msg in msgs.values() {
            if let BilMsg::Pos { echo, .. } = msg {
                for (ball, leaf) in echo {
                    self.learn_commit(*ball, *leaf, round, RefProvenance::Echoed);
                }
            }
        }
    }

    fn apply(&mut self, round: Round, msgs: &BTreeMap<Label, BilMsg>) {
        if round.is_path_round() {
            let order = priority_sorted(&self.tree);
            self.learn_echoes(round, msgs);
            for ball in order {
                match msgs.get(&ball) {
                    Some(BilMsg::Commit(leaf)) => {
                        self.learn_commit(ball, *leaf, round, RefProvenance::Direct);
                    }
                    Some(BilMsg::Path(path)) => {
                        if self.tree.place_along(ball, path).is_err() {
                            self.anomalies.malformed_paths += 1;
                            self.tree.remove(ball);
                        }
                    }
                    Some(BilMsg::Pos { .. }) => {}
                    Some(BilMsg::Init) | None => {
                        if !self.committed.contains_key(&ball) {
                            self.tree.remove(ball);
                        }
                    }
                }
            }
        } else {
            self.fresh.clear();
            self.learn_echoes(round, msgs);
            for ball in priority_sorted(&self.tree) {
                match msgs.get(&ball) {
                    Some(BilMsg::Pos { node, .. }) => {
                        if self.tree.update_node(ball, *node).is_err() {
                            self.anomalies.malformed_positions += 1;
                            self.tree.remove(ball);
                        }
                    }
                    _ => {
                        if !self.committed.contains_key(&ball) {
                            self.tree.remove(ball);
                        }
                    }
                }
            }
            self.resolve_overfull();
        }
    }

    /// Evicts from the deepest over-full ancestor of any committed ball
    /// (ties to the smaller id) its preferred committed victim —
    /// echo-learned first, then latest round, then larger label — until
    /// no committed ball sits under an over-full node, or one holds no
    /// commit at all (counted as an orphan).
    fn resolve_overfull(&mut self) {
        let topo = *self.tree.topology();
        loop {
            let mut worst: Option<(u32, Reverse<NodeId>)> = None;
            for ball in self.committed.keys() {
                let Some(node) = self.tree.current_node(*ball) else {
                    continue;
                };
                for v in topo.ancestors_inclusive(node) {
                    if self.tree.load(v) > topo.capacity(v) {
                        worst = worst.max(Some((topo.depth(v), Reverse(v))));
                    }
                }
            }
            let Some((_, Reverse(overfull))) = worst else {
                return;
            };
            let victim = self
                .committed
                .iter()
                .filter(|(ball, _)| {
                    self.tree
                        .current_node(**ball)
                        .is_some_and(|node| topo.is_ancestor_or_self(overfull, node))
                })
                .max_by_key(|(ball, c)| (c.provenance == RefProvenance::Echoed, c.round, **ball))
                .map(|(ball, c)| (*ball, *c));
            let Some((ball, record)) = victim else {
                self.anomalies.orphan_overfull += 1;
                return;
            };
            self.tree.remove(ball);
            if record.provenance == RefProvenance::Direct
                && self.tree.block_leaf(record.leaf).is_err()
            {
                self.anomalies.malformed_commits += 1;
            }
            self.committed.remove(&ball);
            self.dismissed.insert(ball);
            self.fresh.retain(|(b, _)| *b != ball);
        }
    }
}

/// A message no contender sends, sent under `holder`'s label: `kind`
/// picks the variant, `arg` its payload. Holders never enter an epoch
/// view, so the message comes from a non-member: the sweeps skip it and
/// read only its echoes. Decide-at-leaf views get arbitrary moves and
/// echoes, except that a path round carries at most one echo, placing a
/// never-seen label on a leaf with spare capacity along its whole
/// chain: an over-fill in the middle of a path round trips the
/// move-walk's feasibility assertion, and that is not what this test is
/// about. The base variant gets no move that could evict a ball from
/// its leaf: eviction poisons a leaf, and base compose has no
/// cornered-ball fallback.
fn hostile_msg(
    view: &BilView,
    holder: Label,
    round: Round,
    (kind, arg): (u8, u32),
    decide_at_leaf: bool,
    path_echo_sent: &mut bool,
) -> BilMsg {
    let tree = view.tree();
    let topo = *tree.topology();
    let slots = topo.node_slots() as u32;
    let padded = topo.padded_leaves() as u32;
    // Half the time a leaf slot (most are held, some phantom), else any
    // id: node 0 and ids past the last slot are out of range.
    let any_node = if arg % 2 == 0 {
        padded + (arg >> 1) % padded
    } else {
        arg % (slots + 2)
    };
    let own = tree.current_node(holder);
    let node = match own {
        Some(_) if decide_at_leaf => any_node,
        Some(node) if arg % 2 == 0 => node,
        _ => slots + arg % 3,
    };
    let mut echo = Vec::new();
    if decide_at_leaf && kind == 5 {
        let fresh_label = Label(3 * u64::from(arg % 40));
        if round.is_sync_round() {
            let ball = match arg % 3 {
                0 => Label(3 * u64::from(arg % 64) + 1),
                1 => Label(3 * u64::from(arg % 64) + 2),
                _ => fresh_label,
            };
            let leaf = topo.padded_leaves() as u32 + (arg >> 8) % topo.padded_leaves() as u32;
            echo.push((ball, leaf));
        } else if !*path_echo_sent {
            let spare: Vec<NodeId> = (0..topo.leaves() as u32)
                .map(|rank| topo.leaf_for_rank(rank).unwrap())
                .filter(|leaf| {
                    topo.ancestors_inclusive(*leaf)
                        .all(|v| tree.load(v) < topo.capacity(v))
                })
                .collect();
            if !spare.is_empty() {
                *path_echo_sent = true;
                echo.push((fresh_label, spare[(arg >> 8) as usize % spare.len()]));
            }
        }
    }
    match kind {
        0 => BilMsg::Init,
        1 => BilMsg::Commit(any_node),
        2 => BilMsg::Path(PackedPath::single(own.unwrap_or(ROOT))),
        3 => BilMsg::Path(PackedPath::new(any_node, (arg % 7) as u8)),
        _ => BilMsg::Pos { node, echo },
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
            let report = ExecutorKind::Clustered.run(
                BallsIntoLeaves::new(cfg),
                labels(n),
                Scripted::new(schedule.clone()),
                SeedTree::new(seed),
                EngineOptions::default(),
            )
            .unwrap();
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
        let run = |kind: ExecutorKind| {
            kind.run(
                BallsIntoLeaves::base(),
                labels(n),
                Scripted::new(schedule.clone()),
                SeedTree::new(seed),
                EngineOptions::default(),
            )
            .unwrap()
        };
        prop_assert_eq!(run(ExecutorKind::Clustered), run(ExecutorKind::PerProcess));
    }

    /// The channel-carried worker executor matches the simulator.
    #[test]
    fn threaded_equals_sim(
        n in 1usize..10,
        seed in any::<u64>(),
        schedule in schedules(),
    ) {
        let sim = ExecutorKind::Clustered.run(
            BallsIntoLeaves::base(),
            labels(n),
            Scripted::new(schedule.clone()),
            SeedTree::new(seed),
            EngineOptions::default(),
        )
        .unwrap();
        let threaded = ExecutorKind::Threaded.run(
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
            ExecutorKind::PerProcess.run_observed(
                BallsIntoLeaves::base(),
                labels(n),
                Scripted::new(schedule),
                SeedTree::new(seed),
                EngineOptions::default(),
                &mut obs,
            )
            .unwrap();
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
        let report = ExecutorKind::Clustered.run(
            BallsIntoLeaves::base(),
            labels(n),
            Scripted::new(schedule),
            SeedTree::new(seed),
            EngineOptions::default(),
        )
        .unwrap();
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

    /// The epoch kernel's linear apply — counting-sort snapshot,
    /// slot-indexed commit column, gated over-full resolution — lands on
    /// the same tree, commits and anomaly counts as `ReferenceView` on
    /// epoch views with 50–90 % of the names held (holder labels
    /// interleaved with the contenders'), under contender crashes and
    /// hostile `Init`/`Commit`/`Path`/`Pos` messages sent under holder
    /// labels, in the base and decide-at-leaf variants. Holders never
    /// enter an epoch view, so those messages come from non-members: the
    /// sweeps skip them, and only their echoes are read.
    #[test]
    fn epoch_apply_matches_reference_on_holder_heavy_epochs(
        names in 12usize..64,
        held_pct in 50usize..90,
        seed in any::<u64>(),
        crashes in prop::collection::vec((1u64..11, 0usize..64), 0..6),
        hostile in prop::collection::vec((1u64..11, 0usize..64, 0u8..6, any::<u32>()), 0..16),
    ) {
        for cfg in [BilConfig::new(), BilConfig::new().with_decide_at_leaf(true)] {
            let held = names * held_pct / 100;
            let mut shuffled: Vec<u32> = (0..names as u32).collect();
            shuffled.sort_by_key(|name| split_mix64(seed ^ u64::from(*name)));
            let holders: Vec<(Label, Name)> = shuffled[..held]
                .iter()
                .enumerate()
                .map(|(k, name)| (Label(3 * k as u64 + 2), Name(*name)))
                .collect();
            let contenders: Vec<Label> =
                (0..(names - held) as u64).map(|i| Label(3 * i + 1)).collect();
            let epoch = EpochBil::new(cfg, names, &holders).unwrap();
            let mut view = epoch.init_view(contenders.len());
            let init: InboxBuf<BilMsg> =
                contenders.iter().map(|l| (*l, BilMsg::Init)).collect();
            epoch.apply(&mut view, Round(0), init.as_inbox());
            let mut reference = ReferenceView::of(&view);
            let seeds = SeedTree::new(seed);
            let mut rngs: Vec<_> = (0..contenders.len())
                .map(|p| seeds.process_rng(ProcId(p as u32)))
                .collect();
            // Crashed and decided contenders fall silent.
            let mut silent: BTreeSet<Label> = BTreeSet::new();
            for r in 1..=10u64 {
                let round = Round(r);
                for (cr, victim) in &crashes {
                    if *cr == r {
                        silent.insert(contenders[*victim % contenders.len()]);
                    }
                }
                let mut msgs: BTreeMap<Label, BilMsg> = BTreeMap::new();
                for (i, ball) in contenders.iter().enumerate() {
                    if !silent.contains(ball) {
                        msgs.insert(*ball, epoch.compose(&view, *ball, round, &mut rngs[i]));
                    }
                }
                let mut path_echo_sent = false;
                for (hr, who, kind, arg) in &hostile {
                    if *hr == r {
                        let holder = holders[*who % holders.len()].0;
                        let msg = hostile_msg(
                            &view,
                            holder,
                            round,
                            (*kind, *arg),
                            cfg.decide_at_leaf,
                            &mut path_echo_sent,
                        );
                        msgs.insert(holder, msg);
                    }
                }
                let inbox: InboxBuf<BilMsg> =
                    msgs.iter().map(|(l, m)| (*l, m.clone())).collect();
                reference.apply(round, &msgs);
                epoch.apply(&mut view, round, inbox.as_inbox());
                prop_assert_eq!(
                    view.tree(),
                    &reference.tree,
                    "{:?} round {} diverged (names={}, held={}, seed={})",
                    cfg,
                    r,
                    names,
                    held,
                    seed
                );
                let reference_commits: Vec<(Label, NodeId)> =
                    reference.committed.iter().map(|(l, c)| (*l, c.leaf)).collect();
                prop_assert_eq!(view.committed().collect::<Vec<_>>(), reference_commits);
                prop_assert_eq!(view.anomalies(), reference.anomalies);
                for ball in &contenders {
                    if matches!(epoch.status(&view, *ball, round), Status::Decided(_)) {
                        silent.insert(*ball);
                    }
                }
            }
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
                ExecutorKind::Clustered.run(
                    BallsIntoLeaves::new(cfg),
                    labels(n),
                    Scripted::new(schedule.clone()),
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap()
            };
            prop_assert_eq!(mk(), mk());
        }
    }
}
