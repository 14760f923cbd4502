//! `DetRank`: the deterministic comparison-based baseline.
//!
//! The paper cites Chaudhuri, Herlihy, and Tuttle [9] for the matching
//! `Θ(log n)` bounds on deterministic comparison-based synchronous tight
//! renaming. Their pseudocode is not reproduced in the paper, so — per
//! the substitution policy in `DESIGN.md` — the baseline here is the
//! Balls-into-Leaves *framework* with the random path rule replaced by
//! fully deterministic rank-indexed descent (the same rule the paper's
//! §6 uses for its phase 1):
//!
//! * it is **comparison-based**: all decisions derive from label
//!   comparisons, so the CHT `Ω(log n)` lower bound (the "sandwich"
//!   order-equivalence argument) applies to it;
//! * it is wait-free and solves tight renaming in **one phase** when
//!   failure-free;
//! * under the sandwich failure pattern its round count grows with the
//!   crash budget (experiment E2/E8 measures the growth), while
//!   Balls-into-Leaves stays at `O(log log n)` under the same adversary
//!   because random choices cannot be "sandwiched".

use bil_core::{BallsIntoLeaves, BilConfig};

/// Constructs the deterministic comparison-based baseline.
///
/// # Examples
///
/// ```
/// use bil_baselines::det_rank;
/// use bil_runtime::adversary::NoFailures;
/// use bil_runtime::engine::EngineOptions;
/// use bil_runtime::{ExecutorKind, Label, SeedTree};
///
/// # fn main() -> Result<(), bil_runtime::RunError> {
/// let labels: Vec<Label> = (0..32).map(|i| Label(i * 2 + 1)).collect();
/// let report = ExecutorKind::Clustered.run(
///     det_rank(),
///     labels,
///     NoFailures,
///     SeedTree::new(0),
///     EngineOptions::default(),
/// )?;
/// // One phase when failure-free: init + 2 rounds.
/// assert_eq!(report.rounds, 3);
/// # Ok(())
/// # }
/// ```
pub fn det_rank() -> BallsIntoLeaves {
    BallsIntoLeaves::new(BilConfig::deterministic_rank())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bil_core::adversary::Sandwich;
    use bil_core::check_tight_renaming;
    use bil_runtime::adversary::NoFailures;
    use bil_runtime::engine::EngineOptions;
    use bil_runtime::{ExecutorKind, Label, SeedTree};

    fn labels(n: u64) -> Vec<Label> {
        (0..n).map(|i| Label(i * 13 + 7)).collect()
    }

    #[test]
    fn failure_free_single_phase_for_many_sizes() {
        for n in [2u64, 3, 8, 31, 64] {
            let report = ExecutorKind::Clustered
                .run(
                    det_rank(),
                    labels(n),
                    NoFailures,
                    SeedTree::new(1),
                    EngineOptions::default(),
                )
                .unwrap();
            assert!(report.completed());
            assert_eq!(report.rounds, 3, "n={n}");
            assert!(check_tight_renaming(&report).holds());
        }
    }

    #[test]
    fn sandwich_pattern_slows_det_rank_down() {
        // The sandwich adversary must cost DetRank at least one extra
        // phase relative to its failure-free single phase.
        let report = ExecutorKind::Clustered
            .run(
                det_rank(),
                labels(32),
                Sandwich::new(16),
                SeedTree::new(2),
                EngineOptions::default(),
            )
            .unwrap();
        assert!(report.completed());
        assert!(check_tight_renaming(&report).holds());
        assert!(
            report.rounds > 3,
            "sandwich should force extra phases, got {} rounds",
            report.rounds
        );
    }
}
