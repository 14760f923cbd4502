//! The renaming problem: specification-level checking and a convenience
//! solver.
//!
//! The paper's §3 defines renaming by three conditions — *Termination*,
//! *Validity*, *Uniqueness* — over the decisions of correct processes.
//! [`check_tight_renaming`] turns a [`RunReport`] into a
//! [`RenamingVerdict`] against exactly those conditions (with uniqueness
//! strengthened to cover processes that decided *before* crashing: a
//! decided name may already have been acted upon externally, so it must
//! never be reissued).

use std::fmt;

use bil_runtime::adversary::NoFailures;
use bil_runtime::engine::EngineOptions;
use bil_runtime::{ExecutorKind, Label, Name, RunError, RunReport, SeedTree};

use crate::protocol::BallsIntoLeaves;

/// The verdict of checking a run against the tight-renaming
/// specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenamingVerdict {
    /// Termination: the run completed and every correct process decided.
    pub termination: bool,
    /// Validity: every decided name lies in the target namespace `0..n`.
    pub validity: bool,
    /// Uniqueness: no name decided twice (counting decided-then-crashed).
    pub uniqueness: bool,
    /// Human-readable explanations for every violated condition.
    pub issues: Vec<String>,
}

impl RenamingVerdict {
    /// `true` when all three conditions hold.
    pub fn holds(&self) -> bool {
        self.termination && self.validity && self.uniqueness
    }
}

impl fmt::Display for RenamingVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.holds() {
            write!(f, "tight renaming: OK")
        } else {
            write!(f, "tight renaming VIOLATED: {}", self.issues.join("; "))
        }
    }
}

/// Checks `report` against the tight-renaming specification (`m = n`).
///
/// # Examples
///
/// ```
/// use bil_core::{check_tight_renaming, solve_tight_renaming};
/// use bil_runtime::Label;
///
/// let labels: Vec<Label> = (0..8).map(|i| Label(50 + i)).collect();
/// let report = solve_tight_renaming(labels, 7)?;
/// assert!(check_tight_renaming(&report).holds());
/// # Ok::<(), bil_runtime::RunError>(())
/// ```
pub fn check_tight_renaming(report: &RunReport) -> RenamingVerdict {
    let n = report.n;
    let mut issues = Vec::new();

    // Termination: every correct (never-crashed) process decided.
    let crashed: Vec<usize> = report.crashes.iter().map(|c| c.pid.index()).collect();
    let mut termination = report.completed();
    if !termination {
        issues.push("run hit the round limit".to_string());
    }
    for (pid, d) in report.decisions.iter().enumerate() {
        if !crashed.contains(&pid) && d.is_none() {
            termination = false;
            issues.push(format!(
                "correct process {} (label {}) never decided",
                pid, report.labels[pid]
            ));
        }
    }

    // Validity: names in 0..n.
    let mut validity = true;
    for (pid, d) in report.decisions.iter().enumerate() {
        if let Some(d) = d {
            if d.name.0 as usize >= n {
                validity = false;
                issues.push(format!(
                    "process {} decided name {} outside 0..{}",
                    pid, d.name, n
                ));
            }
        }
    }

    // Uniqueness over every decision ever made.
    let mut uniqueness = true;
    let mut names: Vec<(Name, usize)> = report
        .decisions
        .iter()
        .enumerate()
        .filter_map(|(pid, d)| d.map(|d| (d.name, pid)))
        .collect();
    names.sort_unstable();
    for w in names.windows(2) {
        if w[0].0 == w[1].0 {
            uniqueness = false;
            issues.push(format!(
                "name {} decided by both process {} and process {}",
                w[0].0, w[0].1, w[1].1
            ));
        }
    }

    RenamingVerdict {
        termination,
        validity,
        uniqueness,
        issues,
    }
}

/// Convenience: run the base Balls-into-Leaves algorithm failure-free
/// over `labels` and return the report.
///
/// # Errors
///
/// Returns [`RunError::Config`] if `labels` is empty or contains
/// duplicates; the clustered executor it runs on never fails otherwise.
pub fn solve_tight_renaming(labels: Vec<Label>, seed: u64) -> Result<RunReport, RunError> {
    ExecutorKind::Clustered.run(
        BallsIntoLeaves::base(),
        labels,
        NoFailures,
        SeedTree::new(seed),
        EngineOptions::default(),
    )
}

/// Whether the decided names preserve the order of the original ids —
/// the stronger *order-preserving* renaming property of Okun's line of
/// work (paper §2). Balls-into-Leaves does not guarantee it (random
/// leaves), but the early-terminating variant achieves it in
/// failure-free runs, since its first phase is rank-indexed descent.
///
/// # Examples
///
/// ```
/// use bil_core::{is_order_preserving, solve_tight_renaming};
/// use bil_runtime::Label;
///
/// let report = solve_tight_renaming((0..8).map(Label).collect(), 3)?;
/// // The base algorithm may or may not be order-preserving — but the
/// // check itself is well-defined on any report.
/// let _ = is_order_preserving(&report);
/// # Ok::<(), bil_runtime::RunError>(())
/// ```
pub fn is_order_preserving(report: &RunReport) -> bool {
    let asg = assignment(report);
    asg.windows(2).all(|w| w[0].1 < w[1].1)
}

/// Convenience: the decided `(label, name)` assignment of a report, for
/// processes that decided, sorted by label.
pub fn assignment(report: &RunReport) -> Vec<(Label, Name)> {
    let mut out: Vec<(Label, Name)> = report
        .decisions
        .iter()
        .enumerate()
        .filter_map(|(pid, d)| d.map(|d| (report.labels[pid], d.name)))
        .collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use bil_runtime::trace::{CrashEvent, Decision, Outcome};
    use bil_runtime::{ProcId, Round};

    fn report_with(decisions: Vec<Option<Decision>>, crashes: Vec<CrashEvent>) -> RunReport {
        let n = decisions.len();
        RunReport {
            n,
            seed: 0,
            rounds: 5,
            labels: (0..n as u64).map(Label).collect(),
            decisions,
            crashes,
            messages_sent: 0,
            messages_delivered: 0,
            wire_bytes_sent: 0,
            outcome: Outcome::Completed,
        }
    }

    fn dec(name: u32) -> Option<Decision> {
        Some(Decision {
            name: Name(name),
            round: Round(4),
        })
    }

    #[test]
    fn clean_run_passes() {
        let r = report_with(vec![dec(0), dec(2), dec(1)], vec![]);
        let v = check_tight_renaming(&r);
        assert!(v.holds(), "{v}");
        assert_eq!(v.to_string(), "tight renaming: OK");
    }

    #[test]
    fn missing_decision_fails_termination() {
        let r = report_with(vec![dec(0), None], vec![]);
        let v = check_tight_renaming(&r);
        assert!(!v.termination);
        assert!(!v.holds());
        assert!(v.to_string().contains("VIOLATED"));
    }

    #[test]
    fn crashed_process_may_be_undecided() {
        let r = report_with(
            vec![dec(0), None],
            vec![CrashEvent {
                pid: ProcId(1),
                label: Label(1),
                round: Round(1),
            }],
        );
        let v = check_tight_renaming(&r);
        assert!(v.holds(), "{v}");
    }

    #[test]
    fn out_of_range_name_fails_validity() {
        let r = report_with(vec![dec(0), dec(2)], vec![]);
        let v = check_tight_renaming(&r);
        assert!(!v.validity);
    }

    #[test]
    fn duplicate_name_fails_uniqueness_even_for_crashed_decider() {
        let r = report_with(
            vec![dec(1), dec(1)],
            vec![CrashEvent {
                pid: ProcId(0),
                label: Label(0),
                round: Round(4),
            }],
        );
        let v = check_tight_renaming(&r);
        assert!(!v.uniqueness);
    }

    #[test]
    fn solve_and_assignment() {
        let labels: Vec<Label> = [30u64, 10, 20].iter().map(|l| Label(*l)).collect();
        let report = solve_tight_renaming(labels, 1).unwrap();
        let asg = assignment(&report);
        assert_eq!(asg.len(), 3);
        // Sorted by label.
        assert!(asg.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(check_tight_renaming(&report).holds());
    }

    #[test]
    fn solve_rejects_duplicates() {
        assert!(solve_tight_renaming(vec![Label(1), Label(1)], 0).is_err());
    }

    #[test]
    fn order_preservation_detected() {
        let ordered = report_with(vec![dec(0), dec(1)], vec![]);
        assert!(is_order_preserving(&ordered));
        let swapped = report_with(vec![dec(1), dec(0)], vec![]);
        assert!(!is_order_preserving(&swapped));
    }

    #[test]
    fn early_terminating_failure_free_is_order_preserving() {
        use crate::protocol::BallsIntoLeaves;
        use bil_runtime::adversary::NoFailures;
        use bil_runtime::engine::EngineOptions;
        use bil_runtime::{ExecutorKind, SeedTree};
        let labels: Vec<Label> = [90u64, 10, 50, 30, 70].iter().map(|l| Label(*l)).collect();
        let report = ExecutorKind::Clustered
            .run(
                BallsIntoLeaves::early_terminating(),
                labels,
                NoFailures,
                SeedTree::new(4),
                EngineOptions::default(),
            )
            .unwrap();
        assert!(is_order_preserving(&report));
    }
}
