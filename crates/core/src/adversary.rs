//! Protocol-aware adversaries: full-information strategies that inspect
//! Balls-into-Leaves messages before choosing crashes.
//!
//! The paper's analysis (§5.3) holds against a *strong adaptive*
//! adversary, so the reproduction must attack the algorithm with the most
//! informed strategies we can write, not just oblivious noise. Each
//! strategy here reads the actual round messages from the
//! [`AdversaryView`]:
//!
//! * [`AdaptiveSplitter`] — finds the most contended leaf and crashes its
//!   would-be winner mid-broadcast, delivering the dying path to exactly
//!   half of the losers, so half the survivors back off a taken leaf that
//!   the other half still believes is free. This maximizes view
//!   divergence where it hurts.
//! * [`Sandwich`] — the paper's own §6 failure pattern, generalized into
//!   the recursive construction behind the Chaudhuri–Herlihy–Tuttle
//!   `Ω(log n)` bound: a *threshold* delivery schedule in the
//!   initialization round piles a band of balls into one collision
//!   tower, and per-sync-round halving of the largest co-located group
//!   keeps the survivors order-confused, costing a deterministic
//!   rank-descent algorithm one phase per halving — `Θ(log n)` rounds
//!   total. Experiment E2 drives the deterministic baseline with it.
//!   (Two earlier, weaker designs — path-round crashes and single
//!   parity-split crashes — were healed by the resynchronization round
//!   in O(1) phases; see the fidelity notes in `EXPERIMENTS.md`.)
//! * [`SyncSplitter`] — crashes during *position* rounds with split
//!   delivery, stressing the resynchronization/termination logic rather
//!   than path contention.
//! * [`LeafDenier`] — silently kills the highest-priority ball of every
//!   round's most contended leaf (no delivery at all), wasting the work
//!   of all its contenders.

use bil_runtime::adversary::{Adversary, AdversaryView, Crash, CrashPlan, Recipients};
use bil_runtime::{Label, ProcId};
use bil_tree::NodeId;

use crate::messages::BilMsg;

fn depth_of(node: NodeId) -> u32 {
    31 - node.leading_zeros()
}

/// `(pid, label, start-node, target-leaf)` for every Path message.
fn path_choices(view: &AdversaryView<'_, BilMsg>) -> Vec<(ProcId, Label, NodeId, NodeId)> {
    view.outgoing
        .iter()
        .filter_map(|(pid, label, msg)| match msg {
            BilMsg::Path(p) => Some((*pid, *label, p.first()?, p.leaf()?)),
            _ => None,
        })
        .collect()
}

/// The contenders of the most contended target leaf, or `None` if no leaf
/// has at least `min_contenders` choosers. Ties break toward the smaller
/// leaf id for determinism.
fn most_contended_leaf(
    choices: &[(ProcId, Label, NodeId, NodeId)],
    min_contenders: usize,
) -> Option<Vec<(ProcId, Label, NodeId)>> {
    let mut by_leaf: std::collections::BTreeMap<NodeId, Vec<(ProcId, Label, NodeId)>> =
        Default::default();
    for (pid, label, start, leaf) in choices {
        by_leaf
            .entry(*leaf)
            .or_default()
            .push((*pid, *label, *start));
    }
    by_leaf
        .into_iter()
        .filter(|(_, v)| v.len() >= min_contenders)
        .max_by_key(|(leaf, v)| (v.len(), std::cmp::Reverse(*leaf)))
        .map(|(_, v)| v)
}

/// The contender that would win the leaf under the priority order `<R`:
/// deepest start node first, ties to the smaller label.
fn priority_winner(contenders: &[(ProcId, Label, NodeId)]) -> (ProcId, Label, NodeId) {
    *contenders
        .iter()
        .min_by_key(|(_, label, start)| (std::cmp::Reverse(depth_of(*start)), *label))
        // bil-lint: allow(hot-path-panic): callers only pass contender sets built from a non-empty leaf group
        .expect("non-empty contender set")
}

/// Crashes each path round's most contended leaf's would-be winner,
/// splitting delivery across its contenders. See the module docs.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveSplitter {
    budget: usize,
}

impl AdaptiveSplitter {
    /// Adversary with a total crash budget of `budget`.
    pub fn new(budget: usize) -> Self {
        AdaptiveSplitter { budget }
    }
}

impl Adversary<BilMsg> for AdaptiveSplitter {
    fn plan(&mut self, view: &AdversaryView<'_, BilMsg>) -> CrashPlan {
        if view.budget_left == 0 || view.participant_count() <= 1 {
            return CrashPlan::none();
        }
        let choices = path_choices(view);
        let Some(contenders) = most_contended_leaf(&choices, 2) else {
            return CrashPlan::none();
        };
        let (victim, _, _) = priority_winner(&contenders);
        // Losers sorted by label; odd-indexed ones are kept in the dark.
        let mut losers: Vec<(Label, ProcId)> = contenders
            .iter()
            .filter(|(pid, _, _)| *pid != victim)
            .map(|(pid, label, _)| (*label, *pid))
            .collect();
        losers.sort_unstable();
        let blind: Vec<ProcId> = losers
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 2 == 1)
            .map(|(_, (_, pid))| *pid)
            .collect();
        let recipients: Vec<ProcId> = (0..view.n as u32)
            .map(ProcId)
            .filter(|p| *p != victim && !blind.contains(p))
            .collect();
        CrashPlan::one(victim, Recipients::Set(recipients))
    }

    fn budget(&self) -> usize {
        self.budget
    }
}

/// The paper's §6 "sandwich" failure pattern, generalized to every
/// phase. See the module docs.
///
/// Targeting note (an implementation finding recorded in
/// `EXPERIMENTS.md`): against rank-based deterministic descent, crashes
/// during *path* rounds are useless — the position-resynchronization
/// round removes the silent victim from **every** view before the next
/// rank computation, so no divergence survives (this is Proposition 1
/// doing its job). Lasting order-divergence requires a crash during the
/// **synchronization round**: a victim whose `Pos` broadcast reaches
/// only half of its node's co-occupants splits their member lists, so
/// their next deterministic ranks collide. The sandwich therefore
/// crashes the lowest label at the most crowded *announced* node in
/// every sync round (and the classic lowest-label / every-second-ball
/// split in round 0).
#[derive(Debug, Clone, Copy)]
pub struct Sandwich {
    budget: usize,
}

impl Sandwich {
    /// Adversary with a total crash budget of `budget`.
    pub fn new(budget: usize) -> Self {
        Sandwich { budget }
    }
}

impl Adversary<BilMsg> for Sandwich {
    fn plan(&mut self, view: &AdversaryView<'_, BilMsg>) -> CrashPlan {
        if view.budget_left == 0 || view.participant_count() <= 1 {
            return CrashPlan::none();
        }
        if view.round.is_init() {
            // The §6 pattern, deepened into a *threshold* schedule: crash
            // the k lowest-label balls, delivering victim i's label only
            // to the balls of sorted index ≤ k + i. A survivor at index
            // j ∈ [k, 2k] then misses exactly j − k victims, so its rank
            // estimate is j − (j − k) = k for the whole band: k + 1
            // balls all aim at the same leaf and pile up into the
            // recursive tower of stacks the CHT sandwich needs (the
            // paper's single-crash example is the k = 1 case).
            let mut by_label: Vec<(Label, ProcId)> = view
                .outgoing
                .iter()
                .map(|(pid, label, _)| (*label, *pid))
                .collect();
            by_label.sort_unstable();
            let k = view
                .budget_left
                .min(self.budget.div_ceil(2))
                .min(view.n / 4)
                .min(by_label.len().saturating_sub(1))
                .max(1);
            let mut crashes = Vec::with_capacity(k);
            for i in 0..k {
                let victim = by_label[i].1;
                let recipients: Vec<ProcId> = by_label
                    .iter()
                    .enumerate()
                    .filter(|(j, (_, pid))| *pid != victim && *j <= k + i)
                    .map(|(_, (_, pid))| *pid)
                    .collect();
                crashes.push(Crash {
                    victim,
                    deliver_to: Recipients::Set(recipients),
                });
            }
            return CrashPlan { crashes };
        }
        if !view.round.is_sync_round() {
            return CrashPlan::none();
        }
        // Recursive halving of the largest co-located group: crash its
        // lower half mid-`Pos`-broadcast with the same threshold
        // schedule (victim i heard only by group index ≤ v + i), so
        // every surviving member's at-node rank estimate becomes v —
        // the entire surviving half collides on one slot, one wins, the
        // rest re-stall together. A group of size m is thereby held for
        // ~log m phases at a total cost of ~m crashes: the Θ(log ·)
        // stall the CHT bound promises against deterministic descent.
        let mut by_node: std::collections::BTreeMap<NodeId, Vec<(Label, ProcId)>> =
            Default::default();
        for (pid, label, msg) in view.outgoing {
            if let BilMsg::Pos { node, .. } = msg {
                by_node.entry(*node).or_default().push((*label, *pid));
            }
        }
        let Some(mut group) = by_node
            .into_values()
            .filter(|v| v.len() >= 2)
            .max_by_key(Vec::len)
        else {
            return CrashPlan::none();
        };
        group.sort_unstable();
        let v = (group.len() / 2).min(view.budget_left).max(1);
        let mut crashes = Vec::with_capacity(v);
        for i in 0..v {
            let victim = group[i].1;
            let blind: Vec<ProcId> = group
                .iter()
                .enumerate()
                .filter(|(j, (_, pid))| *pid != victim && *j > v + i)
                .map(|(_, (_, pid))| *pid)
                .collect();
            let recipients: Vec<ProcId> = (0..view.n as u32)
                .map(ProcId)
                .filter(|p| *p != victim && !blind.contains(p))
                .collect();
            crashes.push(Crash {
                victim,
                deliver_to: Recipients::Set(recipients),
            });
        }
        CrashPlan { crashes }
    }

    fn budget(&self) -> usize {
        self.budget
    }
}

/// Crashes during position-resynchronization rounds only: the deepest
/// announcer dies mid-broadcast with alternating delivery, so half the
/// survivors keep a ghost ball at (or near) a leaf the other half has
/// already freed.
#[derive(Debug, Clone, Copy)]
pub struct SyncSplitter {
    budget: usize,
}

impl SyncSplitter {
    /// Adversary with a total crash budget of `budget`.
    pub fn new(budget: usize) -> Self {
        SyncSplitter { budget }
    }
}

impl Adversary<BilMsg> for SyncSplitter {
    fn plan(&mut self, view: &AdversaryView<'_, BilMsg>) -> CrashPlan {
        if view.budget_left == 0 || view.participant_count() <= 1 || !view.round.is_sync_round() {
            return CrashPlan::none();
        }
        let victim = view
            .outgoing
            .iter()
            .filter_map(|(pid, label, msg)| match msg {
                BilMsg::Pos { node, .. } => {
                    Some((std::cmp::Reverse(depth_of(*node)), *label, *pid))
                }
                _ => None,
            })
            .min()
            .map(|(_, _, pid)| pid);
        let Some(victim) = victim else {
            return CrashPlan::none();
        };
        let recipients: Vec<ProcId> = (0..view.n as u32)
            .map(ProcId)
            .filter(|p| *p != victim && p.0 % 2 == 0)
            .collect();
        CrashPlan::one(victim, Recipients::Set(recipients))
    }

    fn budget(&self) -> usize {
        self.budget
    }
}

/// Silently kills the would-be winner of the most contended leaf (no
/// delivery at all), so the whole contention group's phase is wasted.
#[derive(Debug, Clone, Copy)]
pub struct LeafDenier {
    budget: usize,
}

impl LeafDenier {
    /// Adversary with a total crash budget of `budget`.
    pub fn new(budget: usize) -> Self {
        LeafDenier { budget }
    }
}

impl Adversary<BilMsg> for LeafDenier {
    fn plan(&mut self, view: &AdversaryView<'_, BilMsg>) -> CrashPlan {
        if view.budget_left == 0 || view.participant_count() <= 1 {
            return CrashPlan::none();
        }
        let choices = path_choices(view);
        let Some(contenders) = most_contended_leaf(&choices, 1) else {
            return CrashPlan::none();
        };
        let (victim, _, _) = priority_winner(&contenders);
        CrashPlan::one(victim, Recipients::None)
    }

    fn budget(&self) -> usize {
        self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::BallsIntoLeaves;
    use crate::renaming::check_tight_renaming;
    use bil_runtime::engine::EngineOptions;
    use bil_runtime::{ExecutorKind, Label, SeedTree};

    fn labels(n: u64) -> Vec<Label> {
        (0..n).map(|i| Label(i * 11 + 2)).collect()
    }

    fn run_against<A: Adversary<BilMsg>>(adv: A, n: u64, seed: u64) -> bil_runtime::RunReport {
        ExecutorKind::Clustered
            .run(
                BallsIntoLeaves::base(),
                labels(n),
                adv,
                SeedTree::new(seed),
                EngineOptions::default(),
            )
            .unwrap()
    }

    #[test]
    fn adaptive_splitter_spends_budget_and_safety_holds() {
        for seed in 0..10 {
            let report = run_against(AdaptiveSplitter::new(4), 16, seed);
            let v = check_tight_renaming(&report);
            assert!(v.holds(), "seed={seed}: {v}");
            // With n=16 all at the root initially, contention exists, so
            // the splitter should actually fire at least once.
            assert!(report.failures() >= 1, "seed={seed}");
        }
    }

    #[test]
    fn sandwich_crashes_lowest_label_in_init_round() {
        let report = run_against(Sandwich::new(3), 12, 5);
        assert!(report.failures() >= 1);
        assert_eq!(report.crashes[0].round.0, 0);
        // Lowest label (2 under our labeling) dies first.
        assert_eq!(report.crashes[0].label, Label(2));
        assert!(check_tight_renaming(&report).holds());
    }

    #[test]
    fn sync_splitter_only_fires_in_sync_rounds() {
        for seed in 0..10 {
            let report = run_against(SyncSplitter::new(3), 12, seed);
            for c in &report.crashes {
                assert!(c.round.is_sync_round(), "crash at {:?}", c.round);
            }
            let v = check_tight_renaming(&report);
            assert!(v.holds(), "seed={seed}: {v}");
        }
    }

    #[test]
    fn leaf_denier_safety_holds() {
        for seed in 0..10 {
            let report = run_against(LeafDenier::new(6), 16, seed);
            let v = check_tight_renaming(&report);
            assert!(v.holds(), "seed={seed}: {v}");
            assert!(report.failures() >= 1, "seed={seed}");
        }
    }

    #[test]
    fn all_adversaries_respect_budget() {
        for budget in [0usize, 1, 3] {
            let r1 = run_against(AdaptiveSplitter::new(budget), 12, 1);
            let r2 = run_against(Sandwich::new(budget), 12, 1);
            let r3 = run_against(SyncSplitter::new(budget), 12, 1);
            let r4 = run_against(LeafDenier::new(budget), 12, 1);
            for r in [r1, r2, r3, r4] {
                assert!(r.failures() <= budget);
            }
        }
    }

    #[test]
    fn early_terminating_survives_sandwich() {
        for seed in 0..10 {
            let report = ExecutorKind::Clustered
                .run(
                    BallsIntoLeaves::early_terminating(),
                    labels(16),
                    Sandwich::new(8),
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap();
            let v = check_tight_renaming(&report);
            assert!(v.holds(), "seed={seed}: {v}");
        }
    }

    #[test]
    fn deterministic_rank_survives_sandwich_but_slower() {
        // Safety under the sandwich pattern; round growth is measured in
        // experiment E2, here we only require completion + uniqueness.
        for seed in 0..5 {
            let report = ExecutorKind::Clustered
                .run(
                    BallsIntoLeaves::deterministic_rank(),
                    labels(16),
                    Sandwich::new(15),
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap();
            let v = check_tight_renaming(&report);
            assert!(v.holds(), "seed={seed}: {v}");
        }
    }
}
