//! # balls-into-leaves — facade crate
//!
//! A production-quality Rust reproduction of *Balls-into-Leaves:
//! Sub-logarithmic Renaming in Synchronous Message-Passing Systems*
//! (Dan Alistarh, Oksana Denysyuk, Luis Rodrigues, Nir Shavit;
//! PODC 2014).
//!
//! This crate re-exports the workspace's public API under one roof:
//!
//! * [`core`] — the Balls-into-Leaves algorithm and its variants
//!   (base, early-terminating, deterministic baseline), the renaming
//!   specification checker, and protocol-aware adversaries;
//! * [`runtime`] — the synchronous crash-prone message-passing
//!   substrate: one shared round pipeline behind five interchangeable
//!   executors (clustered, per-process, data-parallel, and slot-range
//!   workers exchanging wire bytes over in-process channels or loopback
//!   TCP) and the strong adaptive adversary interface;
//! * [`tree`] — the capacity tree (local views, remaining capacity, the
//!   priority order `<R`, candidate paths);
//! * [`baselines`] — every comparison point the paper names;
//! * [`service`] — the long-lived renaming service: epoch-batched
//!   acquire/release over a fixed namespace with name recycling, each
//!   epoch one Balls-into-Leaves run over the partially-occupied tree;
//! * [`harness`] — the experiment harness regenerating the paper's
//!   claims (`cargo run --release -p bil-harness --bin paper-eval`);
//! * [`modelcheck`] — bounded exhaustive verification against the full
//!   adaptive adversary at small sizes.
//!
//! ## Quick start
//!
//! ```
//! use balls_into_leaves::prelude::*;
//!
//! // Eight servers, arbitrary unique ids, want names 0..8.
//! let servers: Vec<Label> = [19, 4, 2025, 7, 42, 99, 1, 512].map(Label).to_vec();
//! let report = solve_tight_renaming(servers, 2014)?;
//! assert!(check_tight_renaming(&report).holds());
//! # Ok::<(), balls_into_leaves::runtime::RunError>(())
//! ```
//!
//! See `examples/` for runnable scenarios and `DESIGN.md` /
//! `EXPERIMENTS.md` for the reproduction methodology.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bil_baselines as baselines;
pub use bil_core as core;
pub use bil_harness as harness;
pub use bil_modelcheck as modelcheck;
pub use bil_runtime as runtime;
pub use bil_service as service;
pub use bil_tree as tree;

/// The most common imports, bundled.
pub mod prelude {
    pub use bil_baselines::{FloodRank, RetryBins};
    pub use bil_core::{
        assignment, check_tight_renaming, solve_tight_renaming, BallsIntoLeaves, BilConfig,
        EpochBil, PathRule, RenamingVerdict,
    };
    pub use bil_harness::Executor;
    pub use bil_runtime::adversary::NoFailures;
    pub use bil_runtime::engine::EngineOptions;
    pub use bil_runtime::socket::SocketOptions;
    pub use bil_runtime::{
        ExecutorKind, Label, Name, Outcome, ProcId, Round, RunError, RunReport, SeedTree,
    };
    pub use bil_service::{
        RenamingService, Request, ServiceOptions, ShardedOptions, ShardedService,
    };
    pub use bil_tree::{CoinRule, LocalTree, Topology};
}
