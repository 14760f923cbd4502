//! End-to-end benchmark of the balls-into-leaves system, with a traced
//! per-layer split.
//!
//! The paper's quantity is rounds to completion; what a user pays is
//! rounds × per-round cost. This package measures that end to end — a
//! one-shot rename of `n` processes run to completion on several
//! executors, and long-lived acquire/release churn on the sharded
//! service — and, in a separate traced run, attributes it to the layers
//! (pipeline, transport, kernel, tree, wire, adversary, service stages).
//! It drives the system only through its public APIs (`Scenario::run`,
//! `check_tight_renaming`, the `ShardedService` stage calls, and the
//! round plane's public traits for tracing), so it keeps compiling across
//! refactors of the code it measures. See `README.md` for the workloads,
//! the metric dictionary and how to run it.

#![forbid(unsafe_code)]

pub mod oneshot;
pub mod report;
pub mod service;
pub mod stats;
pub mod trace;
pub mod workload;
