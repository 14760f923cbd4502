//! E15 — service scale-out: the sharded namespace front-end at
//! million-name scale, with pipelined per-shard epochs.
//!
//! E14 shows one epoch engine serving one namespace; E15 shows the
//! scale-out story: `bil-service`'s [`ShardedService`] range-partitions
//! the namespace across many per-shard engines, routes acquires by a
//! deterministic label hash (with ring spill when a shard books solid),
//! routes releases back to the shard that issued the name, and overlaps
//! epoch `k+1`'s admission with epoch `k`'s protocol rounds. Reported
//! per schedule: peak names held, grants (and how many spilled off their
//! home shard), recycled names, per-shard-epoch round summary, and
//! sustained acquire throughput. The full grid holds over a million
//! names at once; the quick grid keeps the same shape at CI size.

use std::time::{Duration, Instant};

use bil_runtime::adversary::RandomCrash;
use bil_runtime::{Label, ProcId, SeedTree};
use bil_service::{ServiceOptions, ShardedOptions, ShardedService};

use crate::experiments::{f2, pct, section, EvalOpts};
use crate::scenario::Executor;
use crate::stats::Summary;
use crate::table::Table;
use crate::workload::{ArrivalModel, ChurnWorkload};

/// Aggregates of one sharded churn run (one schedule over many epochs).
#[derive(Debug, Clone)]
pub struct ScaleOutcome {
    /// Namespace size and shard count the run used.
    pub capacity: usize,
    /// Shards the namespace was partitioned into.
    pub shards: usize,
    /// Most names held at the end of any epoch.
    pub held_peak: usize,
    /// Total grants across all epochs and shards.
    pub granted: u64,
    /// Grants issued by a shard other than the label's home shard.
    pub spilled: u64,
    /// Grants whose name had a previous holder.
    pub recycled: u64,
    /// Contenders crashed mid-epoch.
    pub crashed: u64,
    /// Rounds of every per-shard epoch that ran a protocol instance.
    pub rounds: Vec<u64>,
    /// Wall-clock time of the whole pipelined drive.
    pub elapsed: Duration,
}

impl ScaleOutcome {
    /// Sustained acquire throughput: grants per wall-clock second.
    pub fn acquires_per_sec(&self) -> f64 {
        self.granted as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }
}

/// Shard layout for this evaluation: aim for `2^14`-name shards, but
/// shrink the shard (and grow the shard count) when the chosen
/// executor's feasible per-run size is smaller — a shard epoch admits up
/// to one shard's worth of contenders.
pub fn shard_layout(capacity: usize, opts: &EvalOpts) -> (usize, usize) {
    let target = 1usize << 14;
    let shard_capacity = opts
        .executor
        .max_n()
        .map_or(target, |cap| target.min(cap))
        .min(capacity);
    let shards = capacity.div_ceil(shard_capacity);
    (shards, shard_capacity)
}

/// One arrival–departure–crash schedule for [`scale_run`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleSchedule {
    /// Arrival process feeding the churn workload.
    pub model: ArrivalModel,
    /// Per-epoch probability that a holder departs.
    pub departure_rate: f64,
    /// Crash budget of each shard epoch's adversary.
    pub crash_budget: usize,
}

impl ScaleSchedule {
    /// Crash-free adversarial arrivals: fills the namespace in the
    /// first epoch and keeps it saturated.
    pub fn saturating() -> ScaleSchedule {
        ScaleSchedule {
            model: ArrivalModel::Adversarial,
            departure_rate: 0.0,
            crash_budget: 0,
        }
    }
}

/// Drives a fresh sharded service through `epochs` pipelined epochs of
/// the given schedule, with a per-shard crash adversary, on the
/// evaluation's executor.
pub fn scale_run(
    capacity: usize,
    shards: usize,
    epochs: u64,
    schedule: ScaleSchedule,
    seed: u64,
    opts: &EvalOpts,
) -> ScaleOutcome {
    let options = ShardedOptions {
        shard: ServiceOptions {
            executor: opts.executor,
            ..ServiceOptions::default()
        },
        // A threaded shard epoch already runs one worker thread per
        // core (`SocketOptions::workers`); running shards concurrently
        // on top would multiply that by the shard count.
        concurrent: opts.executor != Executor::Threaded,
    };
    let mut service =
        ShardedService::new(capacity, shards, seed, options).expect("valid partition");
    let mut workload = ChurnWorkload::new(
        capacity,
        seed ^ 0x5EED,
        schedule.model,
        schedule.departure_rate,
    );
    let start = Instant::now();
    let reports = service
        .run_epochs(
            epochs,
            |_, svc| {
                let holders: Vec<Label> = svc.holders().map(|(l, _)| l).collect();
                workload.next_batch(&holders)
            },
            |e, s| {
                RandomCrash::new(
                    schedule.crash_budget,
                    0.5,
                    SeedTree::new(seed).epoch(e).process_rng(ProcId(s as u32)),
                )
            },
        )
        .expect("scale epochs complete");
    let elapsed = start.elapsed();

    let mut outcome = ScaleOutcome {
        capacity,
        shards,
        held_peak: 0,
        granted: 0,
        spilled: 0,
        recycled: 0,
        crashed: 0,
        rounds: Vec::new(),
        elapsed,
    };
    let partition = *service.partition();
    for report in &reports {
        outcome.held_peak = outcome.held_peak.max(report.held);
        outcome.granted += report.granted.len() as u64;
        outcome.recycled += report.recycled.len() as u64;
        outcome.crashed += report.crashed.len() as u64;
        outcome.spilled += report
            .granted
            .iter()
            .filter(|(l, n)| partition.shard_of(n.0 as usize) != partition.home_shard(*l))
            .count() as u64;
        for shard_report in report.shards.iter().flatten() {
            if shard_report.run.is_some() {
                outcome.rounds.push(shard_report.rounds);
            }
        }
    }
    outcome
}

/// Runs E15 and renders its markdown section.
pub fn run(opts: &EvalOpts) -> String {
    let capacity: usize = if opts.quick { 256 } else { 1 << 20 };
    let epochs: u64 = 6;
    let (shards, shard_capacity) = if opts.quick {
        (8, 32)
    } else {
        shard_layout(capacity, opts)
    };
    // Poisson's product-of-uniforms sampler is only exact for small
    // rates, so the million-name grid sticks to the saturating and
    // bursty schedules.
    let schedules: [(&str, ScaleSchedule); 2] = [
        ("saturating", ScaleSchedule::saturating()),
        (
            "bursty churn",
            ScaleSchedule {
                model: ArrivalModel::Bursty {
                    burst: capacity / 4,
                    period: 2,
                },
                departure_rate: 0.10,
                crash_budget: 2,
            },
        ),
    ];

    let mut table = Table::new([
        "schedule",
        "epochs",
        "held peak",
        "granted",
        "spilled",
        "recycled",
        "crashed",
        "rounds mean",
        "rounds max",
        "acquires/sec",
    ]);
    let mut peak = 0usize;
    for (name, schedule) in schedules {
        let o = scale_run(capacity, shards, epochs, schedule, 2014, opts);
        let rounds = Summary::of_counts(o.rounds.iter().copied());
        peak = peak.max(o.held_peak);
        table.row([
            name.to_string(),
            epochs.to_string(),
            o.held_peak.to_string(),
            o.granted.to_string(),
            o.spilled.to_string(),
            o.recycled.to_string(),
            o.crashed.to_string(),
            f2(rounds.mean),
            format!("{:.0}", rounds.max),
            format!("{:.0}", o.acquires_per_sec()),
        ]);
    }

    section(
        &format!(
            "E15 — sharded service scale-out (N = {capacity}, {shards} shards × {shard_capacity} \
             names, {epochs} pipelined epochs)"
        ),
        &format!(
            "The sharded front-end range-partitions the namespace across \
             {shards} per-shard engines, routes acquires by deterministic \
             label hash with ring spill, and pipelines admission of epoch \
             k+1 under epoch k's protocol rounds. Per-shard epochs keep \
             the one-shot `O(log log n)` round regime; spilled grants show \
             cross-shard overflow routing at work; peak occupancy reached \
             {pk} of {capacity} names ({dens}).\n\n{tbl}",
            pk = peak,
            dens = pct(peak as f64 / capacity as f64),
            tbl = table.render()
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_run_fills_the_namespace() {
        let opts = EvalOpts {
            quick: true,
            ..EvalOpts::default()
        };
        let o = scale_run(128, 4, 3, ScaleSchedule::saturating(), 7, &opts);
        assert_eq!(o.held_peak, 128, "crash-free saturation must fill");
        assert_eq!(o.granted, 128);
        assert!(o.spilled > 0, "hash routing into 4 shards must spill some");
        assert!(!o.rounds.is_empty());
        assert!(o.rounds.iter().all(|r| *r <= 21), "{:?}", o.rounds);
    }

    #[test]
    fn churn_run_recycles_under_crashes() {
        let opts = EvalOpts {
            quick: true,
            ..EvalOpts::default()
        };
        let o = scale_run(
            64,
            4,
            10,
            ScaleSchedule {
                model: ArrivalModel::Bursty {
                    burst: 16,
                    period: 1,
                },
                departure_rate: 0.3,
                crash_budget: 1,
            },
            11,
            &opts,
        );
        assert!(o.granted > 0);
        assert!(o.recycled > 0, "churn must reissue released names: {o:?}");
    }

    #[test]
    fn shard_layout_respects_executor_caps() {
        let full = EvalOpts::default();
        assert_eq!(shard_layout(1 << 20, &full), (64, 1 << 14));
        let threaded = EvalOpts {
            executor: Executor::Threaded,
            ..EvalOpts::default()
        };
        // Threaded caps a run at 2^16 contenders — above the 2^14-name
        // shard target, so the layout stays the default.
        assert_eq!(shard_layout(1 << 20, &threaded), (64, 1 << 14));
    }

    #[test]
    fn quick_run_renders_section() {
        let out = run(&EvalOpts {
            quick: true,
            ..EvalOpts::default()
        });
        assert!(out.contains("E15"));
        assert!(out.contains("saturating"));
        assert!(out.contains("bursty churn"));
    }
}
