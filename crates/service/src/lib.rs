//! # bil-service — a long-lived, epoch-batched renaming service
//!
//! The paper (and every experiment up to E13) answers **one-shot** tight
//! renaming: a fixed batch of `n` processes names itself and the run
//! ends. This crate turns the reproduction into a *service*: a fixed
//! namespace of `N` names stays alive indefinitely while clients
//! **acquire** a name, hold it, and **release** it, with new contenders
//! arriving the whole time — the long-lived/adaptive renaming setting of
//! Helmi–Higham–Woelfel and Chlebus–Kowalski, built from the paper's
//! one-shot algorithm.
//!
//! ## Epoch model
//!
//! [`ShardedService`] is the one front end. It splits the namespace into
//! shards and runs one epoch on every shard per batch;
//! [`ShardedService::step`] consumes one batch of [`Request`]s — an
//! *epoch*. Each request is validated once, at the front end, and routed
//! to one shard. On each shard:
//!
//! 1. **Releases** apply first: each released name is free again, in
//!    this very epoch.
//! 2. **Acquires** join a FIFO backlog; the epoch *admits* the head of
//!    it, as many as there are free names (the rest stay queued —
//!    admission control, not an error).
//! 3. Admitted contenders run **one Balls-into-Leaves execution**
//!    ([`bil_core::EpochBil`]) on a tree with one leaf per free name;
//!    each decided leaf maps back to its name, and held names never
//!    enter the run. Which executor carries the rounds is a plain
//!    [`ExecutorKind`](bil_runtime::ExecutorKind) choice; all five yield
//!    bit-identical epochs.
//! 4. Decisions become grants; contenders crashed by the adversary are
//!    dropped (their request dies with them). The service records which
//!    granted names are **recycled** — previously released and now
//!    reissued.
//!
//! Every shard derives its seed from the service's root seed, and its
//! epoch `e` runs from the deterministic seed tree
//! [`SeedTree::epoch`](bil_runtime::SeedTree::epoch)`(e)` of that seed,
//! so an entire multi-epoch history is one deterministic function of
//! `(root seed, request stream, adversary choices)` — on every executor.
//!
//! ## Crate layout
//!
//! * [`mod@error`] — [`ServiceError`] (per-shard engine errors),
//!   [`ShardError`] (front end, request validation included) and
//!   [`Rejected`] (refused outcomes, handed back).
//! * [`mod@epoch`] — [`Request`], [`ServiceOptions`], [`EpochReport`],
//!   and the detached [`EpochRun`] / [`EpochOutcome`] pair that makes
//!   epoch pipelining possible.
//! * [`mod@shard`] — [`RenamingService`], the per-shard engine with its
//!   two-stage admission queue (stage → begin → finish), driven only by
//!   the front end and read through [`ShardedService::shard`].
//! * [`mod@sharded`] — [`ShardedService`], the front end:
//!   [`NamePartition`], deterministic hash routing with ring spill, the
//!   one request validation, and pipelined per-shard epochs
//!   ([`ShardedService::run_epochs`]).
//!
//! ## Example
//!
//! ```
//! use bil_runtime::Label;
//! use bil_service::{Request, ShardedOptions, ShardedService};
//!
//! // 64 names split across 4 shards, epochs pipelined per shard; a
//! // one-shard service is `ShardedService::new(64, 1, ..)`.
//! let mut svc = ShardedService::new(64, 4, 2014, ShardedOptions::default())?;
//! let batch: Vec<Request> = (0..48).map(|i| Request::Acquire(Label(i))).collect();
//! let report = svc.step(&batch)?;
//! assert_eq!(report.granted.len(), 48);
//! assert_eq!(svc.held(), 48);
//! # Ok::<(), bil_service::ShardError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod epoch;
pub mod error;
pub mod shard;
pub mod sharded;

pub use epoch::{EpochOutcome, EpochReport, EpochRun, Request, ServiceOptions};
pub use error::{Rejected, ServiceError, ShardError};
pub use shard::RenamingService;
pub use sharded::{NamePartition, ShardedEpochReport, ShardedOptions, ShardedService};
