//! # bil-core — Balls-into-Leaves
//!
//! A from-scratch reproduction of the primary contribution of
//! *Balls-into-Leaves: Sub-logarithmic Renaming in Synchronous
//! Message-Passing Systems* (Alistarh, Denysyuk, Rodrigues, Shavit;
//! PODC 2014): a randomized algorithm solving **tight renaming** — `n`
//! crash-prone processes assign themselves one-to-one to `n` names — in
//! `O(log log n)` communication rounds w.h.p. against a strong adaptive
//! adversary, with deterministic `O(n)`-phase termination in the worst
//! case.
//!
//! Three variants share one implementation ([`BallsIntoLeaves`]),
//! selected by [`BilConfig`]:
//!
//! * **base** (§4, Algorithm 1): fresh capacity-weighted random candidate
//!   paths every phase — `O(log log n)` rounds w.h.p. (Theorem 2);
//! * **early-terminating** (§6): a deterministic rank-indexed first
//!   phase, then random — `O(1)` rounds failure-free (Theorem 3) and
//!   `O(log log f)` rounds with `f` crashes (Theorem 4);
//! * **deterministic-rank**: rank-indexed descent every phase — the
//!   comparison-based deterministic baseline subject to the
//!   Chaudhuri–Herlihy–Tuttle `Ω(log n)` lower bound.
//!
//! The protocol-aware adversaries of [`adversary`] (including the paper's
//! §6 sandwich pattern) provide the hostile schedules the analysis is
//! measured against, and [`check_tight_renaming`] checks any run against
//! the §3 problem specification.
//!
//! ## Quick start
//!
//! ```
//! use bil_core::{assignment, check_tight_renaming, solve_tight_renaming};
//! use bil_runtime::Label;
//!
//! // Eight servers with arbitrary unique ids claim names 0..8.
//! let servers: Vec<Label> = [3, 141, 59, 26, 535, 89, 7, 9].map(Label).to_vec();
//! let report = solve_tight_renaming(servers, 42)?;
//! assert!(check_tight_renaming(&report).holds());
//! for (label, name) in assignment(&report) {
//!     println!("server {label} -> name {name}");
//! }
//! # Ok::<(), bil_runtime::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
mod config;
mod epoch;
mod messages;
mod protocol;
mod renaming;

pub use config::{BilConfig, PathRule};
pub use epoch::{EpochBil, EpochError};
pub use messages::BilMsg;
pub use protocol::{Anomalies, BallsIntoLeaves, BilView};
pub use renaming::{
    assignment, check_tight_renaming, is_order_preserving, solve_tight_renaming, RenamingVerdict,
};
