//! # bil-baselines — the algorithms Balls-into-Leaves is measured against
//!
//! Every comparison point named by the paper's introduction and
//! related-work survey, implemented on the same [`bil_runtime`]
//! substrate so that round counts, message counts, and failure behaviour
//! are directly comparable:
//!
//! | baseline | paper reference | behaviour |
//! |---|---|---|
//! | [`FloodRank`] | §2: renaming via reliable broadcast / consensus [6, 15, 11] | deterministic, wait-free, `t + 1` rounds (linear) |
//! | [`BallsIntoLeaves::deterministic_rank`](bil_core::BallsIntoLeaves::deterministic_rank) (in `bil-core`) | §2: Chaudhuri–Herlihy–Tuttle deterministic renaming \[9\] | comparison-based, `Θ(log ·)` under the sandwich pattern (see `DESIGN.md` substitutions) |
//! | [`RetryBins::uniform`] | §2: naive parallel balls-into-bins, repaired for faults | safe, `Θ(log n)` rounds, **not** wait-free per-ball |
//! | [`RetryBins::two_choice`] | §2: parallel load balancing [1, 17, 18] | as above, with power-of-two-choices claims |
//! | [`RetryBins::eager_strict`] | §2: "naive random balls-into-bins strategy" | wait-free and safe, but `Θ(log n)` rounds — never sub-logarithmic |
//! | [`RetryBins::eager_reclaim`] | §1: "do not ensure one-to-one allocation" | wait-free, reassigns silent owners' bins → duplicate names (even failure-free) |
//!
//! The last two exist to *demonstrate* the paper's motivating claim that
//! classic load-balancing techniques cannot be used for fault-tolerant
//! tight renaming; experiment E13 quantifies their failure rates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bins;
mod flood;

pub use bins::{Bin, BinsMsg, BinsView, DecideRule, RetryBins};
pub use flood::{FloodRank, IdSet};
