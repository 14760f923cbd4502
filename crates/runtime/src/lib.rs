//! # bil-runtime — the synchronous message-passing substrate
//!
//! This crate implements the system model of *Balls-into-Leaves:
//! Sub-logarithmic Renaming in Synchronous Message-Passing Systems*
//! (Alistarh, Denysyuk, Rodrigues, Shavit; PODC 2014), §3:
//!
//! > a round-based synchronous message-passing model with a
//! > fully-connected network and `n` processes, where `n` is known a
//! > priori. […] Up to `t < n` processes may fail by crashing.
//!
//! plus the **strong adaptive adversary** the paper's analysis is carried
//! out against: one that observes every message of the current round —
//! including the outcomes of this round's coin flips — before deciding
//! whom to crash and which recipients still receive a dying broadcast.
//!
//! ## Architecture
//!
//! Algorithms are written once against the [`view::ViewProtocol`]
//! abstraction (compose a broadcast / fold an inbox / read a decision).
//! A single shared round loop — [`pipeline::RoundPipeline`] — owns the
//! lock-step structure (compose → adversary → deliver → apply → status
//! sweep), all model bookkeeping, and the per-round shared message
//! buffers ([`pipeline::RoundMessages`]); executors differ only in the
//! [`pipeline::Transport`] they plug in:
//!
//! | [`ExecutorKind`] | transport | use it for |
//! |---|---|---|
//! | `PerProcess` | [`pipeline::LocalTransport::per_process`]: in-memory, views shared by delivery history, never re-merged | fidelity cross-checks (reference semantics) |
//! | `Clustered` | [`pipeline::LocalTransport::clustered`]: in-memory, identical views shared | large-`n` experiment sweeps |
//! | `Parallel` | [`parallel::ParallelTransport`]: the clustered store, compose and apply chunked across OS threads | multi-core sweeps |
//! | `Threaded` | [`threaded::ChannelTransport`]: slot-range worker threads over crossbeam channels | demonstrating the protocol over real message passing |
//! | `Socket` | [`socket::SocketTransport`]: the same workers over loopback TCP, length-prefixed frames ([`frame`]) of wire bytes | messages crossing a real OS boundary |
//!
//! A run starts one way: [`ExecutorKind::run`] (or
//! [`ExecutorKind::run_observed`], which also hands an observer the
//! in-memory executors' views), with one [`engine::EngineOptions`].
//!
//! All five produce bit-identical [`trace::RunReport`]s for the same
//! `(protocol, labels, adversary, seed)`; tests enforce this. Views live
//! in one cluster store, [`pipeline::LocalTransport`], everywhere: each
//! wire worker runs a per-process store over its slot range. The two
//! wire executors are one coordinator↔worker protocol ([`worker`]) over
//! two carriers, and they are fallible — malformed frames and hung workers surface as
//! a structured [`error::RunError`], never as a worker-thread panic.
//!
//! ## Example
//!
//! ```
//! use bil_runtime::adversary::NoFailures;
//! use bil_runtime::engine::EngineOptions;
//! use bil_runtime::testproto::RankOnce;
//! use bil_runtime::{ExecutorKind, Label, SeedTree};
//!
//! # fn main() -> Result<(), bil_runtime::RunError> {
//! let labels: Vec<Label> = (0..16).map(|i| Label(100 + 3 * i)).collect();
//! let report = ExecutorKind::Clustered.run(
//!     RankOnce,
//!     labels,
//!     NoFailures,
//!     SeedTree::new(1),
//!     EngineOptions::default(),
//! )?;
//! assert!(report.completed());
//! assert_eq!(report.rounds, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod engine;
pub mod error;
pub mod exec;
pub mod frame;
pub mod ids;
pub mod parallel;
pub mod pipeline;
pub mod rng;
pub mod socket;
pub mod testproto;
pub mod threaded;
pub mod trace;
pub mod view;
pub mod wire;
pub mod worker;

pub use error::RunError;
pub use exec::ExecutorKind;
pub use ids::{Label, Name, ProcId, Round};
pub use rng::SeedTree;
pub use trace::{CrashEvent, Decision, Outcome, RunReport};
pub use view::{InboxBuf, RoundInbox, Status, ViewProtocol};
