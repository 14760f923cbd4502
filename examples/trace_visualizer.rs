//! Watches one Balls-into-Leaves run phase by phase, rendering the
//! shared local tree after every round — the paper's Figures 1 and 2,
//! animated.
//!
//! ```text
//! cargo run --example trace_visualizer            # weighted coin (paper)
//! cargo run --example trace_visualizer -- pileup  # Figure 2a's pile-up
//! ```

use balls_into_leaves::core::{BallsIntoLeaves, BilConfig, BilView, PathRule};
use balls_into_leaves::harness::render_tree;
use balls_into_leaves::prelude::*;
use balls_into_leaves::runtime::view::{Cluster, FnObserver, ObserverCtx};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let pileup = std::env::args().any(|a| a == "pileup");
    let cfg = if pileup {
        BilConfig::new().with_path_rule(PathRule::Random(CoinRule::Leftmost))
    } else {
        BilConfig::new()
    };
    let n = 8u64;
    let labels: Vec<Label> = (1..=n).map(Label).collect();

    println!(
        "Balls-into-Leaves, n = {n}, coin rule: {}\n",
        if pileup {
            "leftmost (forced contention, Figure 2a)"
        } else {
            "capacity-weighted (the paper's rule)"
        }
    );

    let mut obs = FnObserver(|ctx: ObserverCtx<'_>, clusters: &[Cluster<BilView>]| {
        let stage = if ctx.round.is_init() {
            "initialization (Figure 1: all balls at the root)".to_string()
        } else if ctx.round.is_path_round() {
            format!(
                "phase {}, round 1: paths proposed and resolved",
                ctx.round.phase().expect("not init")
            )
        } else {
            format!(
                "phase {}, round 2: positions synchronized",
                ctx.round.phase().expect("not init")
            )
        };
        println!("after round {} — {stage}", ctx.round);
        match clusters.first() {
            Some(c) => println!("{}", render_tree(c.view.tree())),
            None => println!("(all balls decided)\n"),
        }
    });

    let report = ExecutorKind::Clustered.run_observed(
        BallsIntoLeaves::new(cfg),
        labels,
        NoFailures,
        SeedTree::new(7),
        EngineOptions::default(),
        &mut obs,
    )?;

    println!("decisions:");
    for (label, name) in balls_into_leaves::core::assignment(&report) {
        println!("  ball {label} -> name {name}");
    }
    println!("\ntotal rounds: {}", report.rounds);
    Ok(())
}
