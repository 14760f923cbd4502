//! # bil-bench — the recorded wall-clock snapshots
//!
//! Two binaries time the system and upsert their rows into a committed
//! file at the repo root: `round_kernel` (per-round throughput of every
//! executor → `BENCH_round_kernel.json`, gated in CI) and
//! `service_scale` (the sharded service's capacity and acquire rate →
//! `BENCH_service_scale.json`). Both files are read and written by
//! [`snapshot`]; this crate root defines their rows. The round-count
//! *results* the paper's claims are about come from the `paper-eval`
//! binary in `bil-harness`, and the end-to-end benchmark with its
//! per-layer split is `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod snapshot;

use snapshot::Row;

/// One `round_kernel` cell: per-round throughput of one executor at one
/// size, keyed by `(bench, n, executor)`.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelRow {
    /// Which bench produced the row (`round_kernel`).
    pub bench: String,
    /// System size (balls = target names).
    pub n: usize,
    /// Executor name as printed by the harness (`clustered`, …).
    pub executor: String,
    /// Rounds driven per measured run (the round cap).
    pub rounds: u64,
    /// Timed runs the fastest iteration was drawn from.
    pub iters: u64,
    /// Protocol rounds completed per wall-clock second (fastest run).
    pub rounds_per_sec: f64,
    /// Nanoseconds of wall-clock per ball per round (fastest run).
    pub ns_per_ball_round: f64,
}

impl Row for KernelRow {
    const FILE: &'static str = "BENCH_round_kernel.json";
    const SCHEMA: &'static str = "bil-round-kernel/v1";
    const FIELDS: &'static [&'static str] = &[
        "bench",
        "n",
        "executor",
        "rounds",
        "iters",
        "rounds_per_sec",
        "ns_per_ball_round",
    ];
    type Key = (String, usize, String);

    fn key(&self) -> Self::Key {
        (self.bench.clone(), self.n, self.executor.clone())
    }

    fn values(&self) -> Vec<String> {
        vec![
            format!("\"{}\"", self.bench),
            self.n.to_string(),
            format!("\"{}\"", self.executor),
            self.rounds.to_string(),
            self.iters.to_string(),
            format!("{:.1}", self.rounds_per_sec),
            format!("{:.1}", self.ns_per_ball_round),
        ]
    }

    fn parse(values: &[&str]) -> Option<Self> {
        let [bench, n, executor, rounds, iters, rounds_per_sec, ns_per_ball_round] = values else {
            return None;
        };
        Some(KernelRow {
            bench: bench.to_string(),
            n: n.parse().ok()?,
            executor: executor.to_string(),
            rounds: rounds.parse().ok()?,
            iters: iters.parse().ok()?,
            rounds_per_sec: rounds_per_sec.parse().ok()?,
            ns_per_ball_round: ns_per_ball_round.parse().ok()?,
        })
    }
}

/// One `service_scale` cell: capacity and throughput of one shard
/// layout on one executor, keyed by `(bench, capacity, shards,
/// executor)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRow {
    /// Which bench produced the row (`service_scale`).
    pub bench: String,
    /// Total namespace size.
    pub capacity: usize,
    /// Shard count.
    pub shards: usize,
    /// Names per shard (the widest shard, for uneven splits).
    pub shard_capacity: usize,
    /// Executor name as printed by the harness (`clustered`, …).
    pub executor: String,
    /// Pipelined epochs driven.
    pub epochs: u64,
    /// Peak names held simultaneously (the headline capacity figure).
    pub names_held: usize,
    /// Grants per wall-clock second over the whole drive.
    pub acquires_per_sec: f64,
}

impl Row for ServiceRow {
    const FILE: &'static str = "BENCH_service_scale.json";
    const SCHEMA: &'static str = "bil-service-scale/v1";
    const FIELDS: &'static [&'static str] = &[
        "bench",
        "capacity",
        "shards",
        "shard_capacity",
        "executor",
        "epochs",
        "names_held",
        "acquires_per_sec",
    ];
    type Key = (String, usize, usize, String);

    fn key(&self) -> Self::Key {
        (
            self.bench.clone(),
            self.capacity,
            self.shards,
            self.executor.clone(),
        )
    }

    fn values(&self) -> Vec<String> {
        vec![
            format!("\"{}\"", self.bench),
            self.capacity.to_string(),
            self.shards.to_string(),
            self.shard_capacity.to_string(),
            format!("\"{}\"", self.executor),
            self.epochs.to_string(),
            self.names_held.to_string(),
            format!("{:.1}", self.acquires_per_sec),
        ]
    }

    fn parse(values: &[&str]) -> Option<Self> {
        let [bench, capacity, shards, shard_capacity, executor, epochs, names_held, acquires_per_sec] =
            values
        else {
            return None;
        };
        Some(ServiceRow {
            bench: bench.to_string(),
            capacity: capacity.parse().ok()?,
            shards: shards.parse().ok()?,
            shard_capacity: shard_capacity.parse().ok()?,
            executor: executor.to_string(),
            epochs: epochs.parse().ok()?,
            names_held: names_held.parse().ok()?,
            acquires_per_sec: acquires_per_sec.parse().ok()?,
        })
    }
}
