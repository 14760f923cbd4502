//! E6 — Lemmas 9–10 (analysis part 2): every root-to-leaf-parent path
//! loses at least a constant fraction of its balls every two phases.
//!
//! An observer tracks the ball population of sampled paths (the paper's
//! `π`, Figure 4) at every phase boundary; the two-phase escape fraction
//! `(M_φ − M_{φ+2}) / M_φ` must be bounded away from zero — that is the
//! engine of the `O(log M)` drain in Lemma 10.

use std::cell::RefCell;

use bil_core::{BallsIntoLeaves, BilView};
use bil_runtime::adversary::NoFailures;
use bil_runtime::engine::EngineOptions;
use bil_runtime::view::{Cluster, FnObserver, ObserverCtx};
use bil_runtime::SeedTree;
use bil_tree::NodeId;

use crate::experiments::{f2, section, EvalOpts};
use crate::scenario::{Algorithm, Executor, Scenario};
use crate::stats::Summary;
use crate::table::Table;

/// Per-phase ball population of `sample` evenly spaced leaf-parent
/// paths, for one failure-free run on the given in-memory executor (a
/// wire executor calls no observer, so its traces are empty).
/// Returns the sampled parents and `traces[p][phase]`.
pub fn path_traces(
    n: usize,
    seed: u64,
    sample: usize,
    executor: Executor,
) -> (Vec<NodeId>, Vec<Vec<u32>>) {
    let scenario = Scenario::failure_free(Algorithm::BilBase, n);
    let labels = scenario.labels(seed);
    let padded = n.next_power_of_two() as u32;
    let parents: Vec<NodeId> = if padded < 2 {
        vec![1]
    } else {
        let first = padded / 2;
        let count = (padded / 2) as usize;
        let step = (count / sample.max(1)).max(1);
        (0..count).step_by(step).map(|i| first + i as u32).collect()
    };
    let traces: RefCell<Vec<Vec<u32>>> = RefCell::new(vec![Vec::new(); parents.len()]);
    {
        let mut obs = FnObserver(|ctx: ObserverCtx<'_>, clusters: &[Cluster<BilView>]| {
            if !ctx.round.is_sync_round() || clusters.is_empty() {
                return;
            }
            let tree = clusters[0].view.tree();
            let mut t = traces.borrow_mut();
            for (i, p) in parents.iter().enumerate() {
                t[i].push(tree.balls_on_chain(*p).len() as u32);
            }
        });
        executor
            .run_observed(
                BallsIntoLeaves::base(),
                labels,
                NoFailures,
                SeedTree::new(seed),
                EngineOptions::default(),
                &mut obs,
            )
            .expect("valid configuration");
    }
    (parents, traces.into_inner())
}

/// Runs E6 and renders its markdown section.
pub fn run(opts: &EvalOpts) -> String {
    let executor = opts.observed().executor;
    let n: usize = if opts.quick { 1 << 6 } else { 1 << 10 };
    let seeds: Vec<u64> = opts.seeds(10).collect();

    let mut escape_fractions: Vec<f64> = Vec::new();
    let mut example_trace: Vec<u32> = Vec::new();
    for &seed in &seeds {
        let (_, traces) = path_traces(n, seed, 8, executor);
        if seed == seeds[0] {
            example_trace = traces.last().cloned().unwrap_or_default();
        }
        for trace in traces {
            for phi in 0..trace.len() {
                let m = trace[phi];
                if m >= 4 {
                    let later = *trace.get(phi + 2).unwrap_or(&0);
                    escape_fractions.push((m - later.min(m)) as f64 / m as f64);
                }
            }
        }
    }
    let s = Summary::of(&escape_fractions);

    let mut trace_table = Table::new(["phase", "balls on rightmost path"]);
    for (i, occ) in example_trace.iter().enumerate() {
        trace_table.row([(i + 1).to_string(), occ.to_string()]);
    }

    section(
        &format!("E6 — Lemmas 9–10: path drain (n = {n})"),
        &format!(
            "Two-phase escape fraction over all sampled paths and phases with \
             ≥ 4 balls ({} observations): mean {}, min {}, p95 {}.\n\
             Lemma 9 requires this to be bounded away from 0 — a constant \
             fraction escapes every two phases.\n\nOccupancy of the rightmost \
             path (seed {}):\n\n{}",
            s.count,
            f2(s.mean),
            f2(s.min),
            f2(s.p95),
            seeds[0],
            trace_table.render()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_drain_to_empty() {
        let (parents, traces) = path_traces(128, 3, 4, Executor::Clustered);
        assert!(!parents.is_empty());
        for trace in &traces {
            assert_eq!(*trace.last().unwrap(), 0, "{traces:?}");
        }
    }

    #[test]
    fn quick_run_reports_escape_fraction() {
        let out = run(&EvalOpts {
            quick: true,
            ..EvalOpts::default()
        });
        assert!(out.contains("E6"));
        assert!(out.contains("escape fraction"));
    }
}
