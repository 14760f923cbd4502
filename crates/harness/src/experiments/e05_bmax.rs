//! E5 — Lemma 6 (analysis part 1): the most populated node collapses to
//! `O(log² n)` balls within `O(log log n)` phases.
//!
//! An observer reads `bmax(φ)` — the maximum number of balls at any
//! single node at the end of each phase — directly out of the live local
//! tree. Lemma 4 predicts `bmax(2) ≈ √(n log n)` after the first phase
//! and Lemma 5 a repeated square-root collapse after that, crossing
//! below `log₂² n` within a couple of phases.

use bil_core::{BallsIntoLeaves, BilView};
use bil_runtime::adversary::NoFailures;
use bil_runtime::engine::EngineOptions;
use bil_runtime::view::{Cluster, FnObserver, ObserverCtx};
use bil_runtime::SeedTree;

use crate::experiments::{f2, section, EvalOpts};
use crate::scenario::{Algorithm, Executor, Scenario};
use crate::table::Table;

/// Per-phase `bmax` for one failure-free run on the given in-memory
/// executor (a wire executor calls no observer, so its trace is empty).
pub fn bmax_trace(n: usize, seed: u64, executor: Executor) -> Vec<u32> {
    let scenario = Scenario::failure_free(Algorithm::BilBase, n);
    let labels = scenario.labels(seed);
    let mut trace = Vec::new();
    let mut obs = FnObserver(|ctx: ObserverCtx<'_>, clusters: &[Cluster<BilView>]| {
        // Observation happens before decided members retire, so the
        // final sync round is visible too: a completed run's trace ends
        // at bmax = 1, every ball alone on its leaf. The emptiness guard
        // is defensive (a round can still end with no survivors).
        if ctx.round.is_sync_round() && !clusters.is_empty() {
            let bmax = clusters
                .iter()
                .filter_map(|c| c.view.tree().max_load_at())
                .map(|(_, count)| count)
                .max()
                .unwrap_or(0);
            trace.push(bmax);
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
    trace
}

/// Runs E5 and renders its markdown section.
pub fn run(opts: &EvalOpts) -> String {
    // Observer experiment: cap the grid by the executor that actually
    // runs (the wire executors' fallback is clustered — unbounded).
    let opts = opts.observed();
    let ns: Vec<usize> = opts.cap_sizes(if opts.quick {
        vec![1 << 6, 1 << 8]
    } else {
        vec![1 << 10, 1 << 14]
    });
    let seeds: Vec<u64> = opts.seeds(10).collect();

    // traces[i][seed] = per-phase bmax for ns[i].
    let mut all: Vec<Vec<Vec<u32>>> = Vec::new();
    for &n in &ns {
        all.push(
            seeds
                .iter()
                .map(|s| bmax_trace(n, *s, opts.executor))
                .collect(),
        );
    }
    let max_phases = all
        .iter()
        .flat_map(|t| t.iter().map(Vec::len))
        .max()
        .unwrap_or(0);

    let mut headers = vec!["phase".to_string()];
    for &n in &ns {
        headers.push(format!("bmax @ n={n} (mean/max)"));
        headers.push(format!("log2^2({n})"));
    }
    let mut table = Table::new(headers);
    for phase in 0..max_phases {
        let mut row = vec![(phase + 1).to_string()];
        for (i, &n) in ns.iter().enumerate() {
            let vals: Vec<u64> = all[i]
                .iter()
                .map(|t| *t.get(phase).unwrap_or(&0) as u64)
                .collect();
            let mean = vals.iter().sum::<u64>() as f64 / vals.len().max(1) as f64;
            let max = vals.iter().max().copied().unwrap_or(0);
            row.push(format!("{:.1}/{}", mean, max));
            let log2n = (n as f64).log2();
            row.push(f2(log2n * log2n));
        }
        table.row(row);
    }

    section(
        "E5 — Lemma 6: per-phase collapse of bmax (max balls at any node)",
        &format!(
            "Failure-free base algorithm, {} seeds. `bmax` is read at the end \
             of each phase; Lemma 6 predicts it drops below `O(log² n)` within \
             `O(log log n)` phases (double-exponential collapse).\n\n{}",
            seeds.len(),
            table.render()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bmax_starts_high_and_collapses() {
        let trace = bmax_trace(256, 1, Executor::Clustered);
        assert!(!trace.is_empty());
        // After phase 1 the root pile has dispersed: bmax(1) well below n.
        assert!(trace[0] < 256, "{trace:?}");
        // The trace collapses: its tail is far below its head, and no
        // recorded phase is empty (empty clusters are not recorded).
        assert!(*trace.last().unwrap() >= 1, "{trace:?}");
        assert!(trace.last().unwrap() <= &trace[0], "{trace:?}");
        assert!(*trace.last().unwrap() <= 4, "{trace:?}");
    }

    #[test]
    fn quick_run_renders() {
        let out = run(&EvalOpts {
            quick: true,
            ..EvalOpts::default()
        });
        assert!(out.contains("E5"));
        assert!(out.contains("bmax"));
    }
}
