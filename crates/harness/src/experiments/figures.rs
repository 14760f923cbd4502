//! Reproductions of the paper's illustrations from live protocol state.
//!
//! * **Figures 1 & 2** — the initial configuration (all balls at the
//!   root) and the tree after one phase, in the two regimes the paper
//!   draws: every ball choosing the first leaf (2a; forced here with the
//!   leftmost coin rule) and well-distributed choices (2b; the actual
//!   weighted rule).
//! * **Figure 4** — a close-up of the rightmost root-to-leaf-parent
//!   path in a mid-run configuration: the balls on the path and the
//!   remaining capacities of its gateway subtrees, which the analysis
//!   (§5.2) keeps in balance.

use bil_core::{BallsIntoLeaves, BilConfig, BilView, PathRule};
use bil_runtime::adversary::NoFailures;
use bil_runtime::engine::EngineOptions;
use bil_runtime::view::{Cluster, FnObserver, ObserverCtx};
use bil_runtime::{Label, Round, SeedTree};
use bil_tree::{CoinRule, LocalTree, Topology};

use crate::experiments::{section, EvalOpts};
use crate::render::{render_path_closeup, render_tree};
use crate::scenario::Executor;

/// Captures the (shared, failure-free) tree at the end of `round` in a
/// failure-free run on the given in-memory executor.
fn tree_at_round(
    cfg: BilConfig,
    n: usize,
    seed: u64,
    round: Round,
    executor: Executor,
) -> LocalTree {
    let labels: Vec<Label> = (1..=n as u64).map(Label).collect();
    let mut snapshot: Option<LocalTree> = None;
    {
        let mut obs = FnObserver(|ctx: ObserverCtx<'_>, clusters: &[Cluster<BilView>]| {
            if ctx.round == round && !clusters.is_empty() {
                snapshot = Some(clusters[0].view.tree().clone());
            }
        });
        executor
            .run_observed(
                BallsIntoLeaves::new(cfg),
                labels,
                NoFailures,
                SeedTree::new(seed),
                EngineOptions::default(),
                &mut obs,
            )
            .expect("valid configuration");
    }
    snapshot.expect("round reached before termination")
}

/// Renders Figures 1 and 2.
pub fn run_fig12(opts: &EvalOpts) -> String {
    let n = 8;
    let executor = opts.observed().executor;
    let initial = tree_at_round(BilConfig::new(), n, 7, Round(0), executor);
    let pileup = tree_at_round(
        BilConfig::new().with_path_rule(PathRule::Random(CoinRule::Leftmost)),
        n,
        7,
        Round(2),
        executor,
    );
    let spread = tree_at_round(BilConfig::new(), n, 7, Round(2), executor);
    section(
        "Figures 1 & 2 — initial configuration and the tree after one phase",
        &format!(
            "Figure 1 — all balls at the root:\n\n```text\n{}```\n\n\
             Figure 2a — every ball proposes the first leaf (leftmost coin): \
             priorities let one ball win while the rest stack up along the \
             path:\n\n```text\n{}```\n\n\
             Figure 2b — the actual capacity-weighted choices are well \
             distributed after one phase:\n\n```text\n{}```\n",
            render_tree(&initial),
            render_tree(&pileup),
            render_tree(&spread)
        ),
    )
}

/// Renders Figure 4: the path close-up on a hand-laid configuration that
/// matches the paper's panel (5 balls on the rightmost path, 5 empty
/// bins reachable through its gateways).
pub fn run_fig4(_opts: &EvalOpts) -> String {
    let topo = Topology::new(16).expect("16 leaves");
    let mut tree = LocalTree::new(topo);
    // Rightmost path: 1 → 3 → 7 → 15. Five balls on it…
    tree.insert(Label(1), 1).expect("fresh ball");
    tree.insert(Label(2), 1).expect("fresh ball");
    tree.insert(Label(3), 3).expect("fresh ball");
    tree.insert(Label(4), 7).expect("fresh ball");
    tree.insert(Label(5), 15).expect("fresh ball");
    // …and eleven balls already on leaves, leaving exactly five empty
    // bins reachable from the path through its gateways:
    // node 2 (cap 8, fill 6 → rem 2), node 6 (cap 4, fill 3 → rem 1),
    // node 14 (cap 2, fill 1 → rem 1), leaf meta-child 30/31 (fill 1 →
    // rem 1). Total gateway capacity 2+1+1+1 = 5 = balls on the path —
    // the §5.2 balance — and every subtree is exactly at or under its
    // capacity (node 7 holds 2 path balls + 2 leaf balls = cap 4).
    let mut ball = 6u64;
    for leaf in [16u32, 17, 18, 19, 20, 21] {
        tree.insert(Label(ball), leaf).expect("fresh ball");
        ball += 1;
    }
    for leaf in [24u32, 25, 26] {
        tree.insert(Label(ball), leaf).expect("fresh ball");
        ball += 1;
    }
    tree.insert(Label(ball), 28).expect("fresh ball");
    ball += 1;
    tree.insert(Label(ball), 30).expect("fresh ball");
    tree.validate().expect("hand-laid configuration is legal");

    section(
        "Figure 4 — close-up of a root-to-leaf-parent path",
        &format!(
            "The whole tree (16 balls, 16 leaves):\n\n```text\n{}```\n\n\
             The rightmost path and its gateway subtrees:\n\n{}",
            render_tree(&tree),
            render_path_closeup(&tree, 15)
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_shows_pileup_and_spread() {
        let out = run_fig12(&EvalOpts {
            quick: true,
            ..EvalOpts::default()
        });
        assert!(out.contains("Figure 1"));
        assert!(out.contains("Figure 2a"));
        assert!(out.contains("{1,2,3,4,5,6,7,8}"), "{out}");
    }

    #[test]
    fn fig4_balances_gateways_and_path() {
        let out = run_fig4(&EvalOpts {
            quick: true,
            ..EvalOpts::default()
        });
        assert!(out.contains("balls on the path: 5"), "{out}");
        assert!(out.contains("leaf meta-child"));
    }

    #[test]
    fn tree_at_round_zero_has_all_at_root() {
        let t = tree_at_round(BilConfig::new(), 8, 1, Round(0), Executor::Clustered);
        assert_eq!(t.load_at(1), 8);
    }
}
