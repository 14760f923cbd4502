//! E14 — long-lived churn: the epoch-batched renaming service under
//! Poisson, bursty, and adversarial arrival–departure schedules.
//!
//! Everything before this experiment is one-shot; E14 exercises the
//! `bil-service` layer: a fixed namespace, served by a one-shard
//! `ShardedService`, answers a continuous stream of acquire/release
//! requests with one Balls-into-Leaves execution per epoch over the
//! names free when it starts, with a crash adversary firing inside every
//! epoch. Reported per schedule: per-epoch round summary
//! (the one-shot `O(log log n)` bound should keep holding at every
//! density the schedule reaches), the name-space density profile, and —
//! the observable core of long-lived renaming — how many grants recycled
//! a previously-released name.

use bil_runtime::adversary::RandomCrash;
use bil_runtime::{Label, SeedTree};
use bil_service::{ServiceOptions, ShardedOptions, ShardedService};

use crate::experiments::{f2, pct, section, EvalOpts};
use crate::stats::Summary;
use crate::table::Table;
use crate::workload::{ArrivalModel, ChurnWorkload};

/// Aggregates of one churn run (one schedule over many epochs).
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// Rounds of every epoch that ran a protocol instance.
    pub rounds: Vec<u64>,
    /// Post-epoch namespace density, every epoch.
    pub density: Vec<f64>,
    /// Total grants, recycled grants, crashed contenders.
    pub granted: u64,
    /// Grants whose name had a previous holder.
    pub recycled: u64,
    /// Contenders crashed mid-epoch.
    pub crashed: u64,
    /// Requests still queued when the run ended.
    pub backlog: usize,
}

/// Drives a fresh service through `epochs` epochs of the given schedule
/// with a per-epoch crash adversary, on the evaluation's executor.
pub fn churn_run(
    capacity: usize,
    epochs: u64,
    model: ArrivalModel,
    departure_rate: f64,
    seed: u64,
    opts: &EvalOpts,
) -> ChurnOutcome {
    let options = ShardedOptions {
        shard: ServiceOptions {
            executor: opts.executor,
            ..ServiceOptions::default()
        },
        concurrent: false,
    };
    let mut service = ShardedService::new(capacity, 1, seed, options).expect("valid capacity");
    let mut workload = ChurnWorkload::new(capacity, seed ^ 0x5EED, model, departure_rate);
    let mut outcome = ChurnOutcome {
        rounds: Vec::new(),
        density: Vec::new(),
        granted: 0,
        recycled: 0,
        crashed: 0,
        backlog: 0,
    };
    for epoch in 0..epochs {
        let holders: Vec<Label> = service.holders().map(|(l, _)| l).collect();
        let batch = workload.next_batch(&holders);
        let adversary =
            |_| RandomCrash::new(2, 0.5, SeedTree::new(seed).epoch(epoch).adversary_rng());
        let report = service
            .step_against(&batch, adversary)
            .expect("valid churn batch")
            .shards
            .swap_remove(0)
            .expect("churn epochs complete");
        if report.run.is_some() {
            outcome.rounds.push(report.rounds);
        }
        outcome.density.push(report.density);
        outcome.granted += report.granted.len() as u64;
        outcome.recycled += report.recycled.len() as u64;
        outcome.crashed += report.crashed.len() as u64;
    }
    outcome.backlog = service.backlog();
    outcome
}

/// Runs E14 and renders its markdown section.
pub fn run(opts: &EvalOpts) -> String {
    let capacity: usize = if opts.quick { 64 } else { 512 };
    let epochs: u64 = if opts.quick { 12 } else { 48 };
    let schedules: [(&str, ArrivalModel, f64); 3] = [
        (
            "poisson",
            ArrivalModel::Poisson {
                rate: capacity as f64 / 8.0,
            },
            0.20,
        ),
        (
            "bursty",
            ArrivalModel::Bursty {
                burst: capacity / 3,
                period: 4,
            },
            0.25,
        ),
        ("adversarial", ArrivalModel::Adversarial, 0.15),
    ];

    let mut table = Table::new([
        "schedule",
        "epochs",
        "rounds mean",
        "rounds p95",
        "rounds max",
        "density mean",
        "density max",
        "granted",
        "recycled",
        "crashed",
    ]);
    let mut all_recycled = 0u64;
    for (name, model, departure_rate) in schedules {
        let o = churn_run(capacity, epochs, model, departure_rate, 2014, opts);
        let rounds = Summary::of_counts(o.rounds.iter().copied());
        let density = Summary::of(&o.density);
        all_recycled += o.recycled;
        table.row([
            name.to_string(),
            epochs.to_string(),
            f2(rounds.mean),
            f2(rounds.p95),
            format!("{:.0}", rounds.max),
            pct(density.mean),
            pct(density.max),
            o.granted.to_string(),
            o.recycled.to_string(),
            o.crashed.to_string(),
        ]);
    }

    section(
        &format!("E14 — long-lived churn service (N = {capacity}, {epochs} epochs)"),
        &format!(
            "Each epoch batches the arrivals, runs one Balls-into-Leaves \
             execution on a tree of the names free among the {capacity}, \
             maps each decided leaf back to its name, and recycles released \
             names; a random crash adversary (budget 2 per epoch) fires \
             inside every epoch. Per-epoch rounds stay in the one-shot \
             `O(log log n)` regime at every density the schedules reach, \
             and released names are observably reissued \
             (recycled > 0).\n\n{}\n\
             Recycled grants across all schedules: {all_recycled}.",
            table.render()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_run_recycles_names() {
        let opts = EvalOpts {
            quick: true,
            ..EvalOpts::default()
        };
        let o = churn_run(32, 16, ArrivalModel::Poisson { rate: 6.0 }, 0.3, 7, &opts);
        assert!(o.granted > 0);
        assert!(
            o.recycled > 0,
            "a churning service must reissue released names: {o:?}"
        );
        assert!(!o.rounds.is_empty());
        // Round counts stay in the sub-logarithmic regime (log2 32 = 5;
        // an epoch is 1 + 2·phases, so even double-digit rounds would
        // mean something is badly wrong).
        assert!(o.rounds.iter().all(|r| *r <= 21), "{:?}", o.rounds);
    }

    #[test]
    fn quick_run_renders_section() {
        let out = run(&EvalOpts {
            quick: true,
            ..EvalOpts::default()
        });
        assert!(out.contains("E14"));
        assert!(out.contains("poisson"));
        assert!(out.contains("adversarial"));
    }
}
