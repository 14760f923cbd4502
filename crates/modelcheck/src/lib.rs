//! # bil-modelcheck — bounded exhaustive verification
//!
//! The paper's Theorem 1 quantifies over *every* strategy of the strong
//! adaptive adversary. Property tests sample that space; this crate
//! **enumerates** it, exactly, at small sizes: a depth-first exploration
//! of the adversary's full decision tree — in every round, every choice
//! of victim and every delivery subset for its dying broadcast, chosen
//! *adaptively* against the observed execution so far (strictly stronger
//! than replaying pre-committed schedules).
//!
//! Every explored schedule is a whole [`ExecutorKind::Clustered`] run,
//! through the round pipeline that every executor and the renaming
//! service share, so the checker has no round loop of its own. The
//! search is stateless: a schedule is a path of [`DecisionTrace`]s, one
//! crash per round. A replay adversary crashes each listed victim in its
//! round and nobody after, and in every later round records the crashes
//! it could have made instead; each of those extends the path into a
//! schedule still to visit.
//!
//! At each terminal state the §3 specification (termination, validity,
//! uniqueness) is checked; a reported [`Violation`] carries the exact
//! decision path, and [`Explorer::check`] replays it. The checker is
//! protocol-generic, so it both *verifies* the Balls-into-Leaves family
//! and *finds the counterexample* for the broken reclaim baseline (a
//! useful negative control: the tool can actually detect bugs).
//!
//! ## Example
//!
//! ```
//! use bil_core::BallsIntoLeaves;
//! use bil_modelcheck::{Explorer, ExploreConfig};
//!
//! let stats = Explorer::new(
//!     BallsIntoLeaves::early_terminating(),
//!     3,
//!     ExploreConfig { crash_budget: 1, ..ExploreConfig::default() },
//! )
//! .explore();
//! assert!(stats.violations.is_empty());
//! assert!(stats.terminal_states > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::collections::BTreeSet;
use std::fmt;

use bil_runtime::adversary::{Adversary, AdversaryView, Crash, CrashPlan, Recipients};
use bil_runtime::engine::EngineOptions;
use bil_runtime::{ExecutorKind, Label, Name, ProcId, Round, RunReport, SeedTree, ViewProtocol};

/// How delivery subsets for a dying broadcast are enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubsetPolicy {
    /// All `2^(n−1)` subsets of the other processes — fully exhaustive.
    Exhaustive,
    /// All label-sorted prefixes (`n` subsets) plus the parity split —
    /// a symmetry-reduced frontier for slightly larger `n`.
    Prefixes,
}

impl SubsetPolicy {
    /// The delivery masks to branch over for `victim` among `n` slots,
    /// ascending; none includes the victim.
    fn masks(self, n: usize, victim: ProcId) -> Vec<u64> {
        let others = ((1u64 << n) - 1) & !(1 << victim.0);
        match self {
            SubsetPolicy::Exhaustive => (0..1u64 << n).filter(|m| m & !others == 0).collect(),
            SubsetPolicy::Prefixes => {
                let even = 0x5555_5555_5555_5555u64;
                let mut masks: Vec<u64> = (0..=n)
                    .map(|k| ((1u64 << k) - 1) & others)
                    .chain([even & others, !even & others, others])
                    .collect();
                masks.sort_unstable();
                masks.dedup();
                masks
            }
        }
    }
}

/// Bounds of one exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreConfig {
    /// Total crashes the adversary may spend (clamped to `n − 1`), at
    /// most one per round: that keeps branching tractable and already
    /// covers the paper's failure patterns round by round.
    pub crash_budget: usize,
    /// Rounds after which a branch is reported as a liveness violation.
    pub max_rounds: u64,
    /// Delivery-subset enumeration policy.
    pub subsets: SubsetPolicy,
    /// Master seed for the protocol's coin flips (the *adversary* is
    /// exhaustive; the coin space for randomized protocols is explored
    /// one seed at a time).
    pub seed: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            crash_budget: 1,
            max_rounds: 40,
            subsets: SubsetPolicy::Exhaustive,
            seed: 0,
        }
    }
}

/// One adversary decision on the path to a violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionTrace {
    /// The round of the crash.
    pub round: Round,
    /// The victim slot.
    pub victim: ProcId,
    /// Bitmask over slots that still received the dying broadcast.
    pub recipients_mask: u64,
}

/// What went wrong on some adversary path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two processes decided the same name.
    DuplicateName {
        /// The duplicated name.
        name: Name,
        /// The adversary path leading here.
        path: Vec<DecisionTrace>,
    },
    /// A decided name fell outside `0..n`.
    InvalidName {
        /// The offending name.
        name: Name,
        /// The adversary path leading here.
        path: Vec<DecisionTrace>,
    },
    /// A correct process was still undecided at `max_rounds`.
    NonTermination {
        /// The adversary path leading here.
        path: Vec<DecisionTrace>,
    },
}

impl Violation {
    /// The adversary path leading here; [`Explorer::check`] replays it.
    pub fn path(&self) -> &[DecisionTrace] {
        match self {
            Violation::DuplicateName { path, .. }
            | Violation::InvalidName { path, .. }
            | Violation::NonTermination { path } => path,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateName { name, .. } => write!(f, "duplicate name {name}")?,
            Violation::InvalidName { name, .. } => write!(f, "invalid name {name}")?,
            Violation::NonTermination { .. } => write!(f, "non-termination")?,
        }
        write!(f, " after {} crashes", self.path().len())
    }
}

/// Exploration statistics and findings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Branch states stepped through (round transitions).
    pub states_explored: u64,
    /// Branches that ran to global decision (or violation).
    pub terminal_states: u64,
    /// All violations found (empty = verified within bounds).
    pub violations: Vec<Violation>,
}

/// The adversary of one explored run: crashes each decision of `path` in
/// its round and nobody after. In every round past the path where a
/// crash is still possible — budget left and more than one process
/// broadcasting — it records in `branches` every victim × delivery-mask
/// decision it could have made instead, in slot and mask order.
struct Replay<'a> {
    path: &'a [DecisionTrace],
    cfg: &'a ExploreConfig,
    branches: &'a mut Vec<DecisionTrace>,
}

impl<M> Adversary<M> for Replay<'_> {
    fn plan(&mut self, view: &AdversaryView<'_, M>) -> CrashPlan {
        let past = self.path.iter().all(|d| d.round < view.round);
        if past && view.budget_left > 0 && view.participant_count() > 1 {
            for &victim in view.participants {
                for recipients_mask in self.cfg.subsets.masks(view.n, victim) {
                    self.branches.push(DecisionTrace {
                        round: view.round,
                        victim,
                        recipients_mask,
                    });
                }
            }
        }
        let crashes = self.path.iter().filter(|d| d.round == view.round);
        CrashPlan {
            crashes: crashes
                .map(|d| Crash {
                    victim: d.victim,
                    deliver_to: Recipients::Set(
                        (0..view.n as u32)
                            .filter(|b| (d.recipients_mask >> b) & 1 == 1)
                            .map(ProcId)
                            .collect(),
                    ),
                })
                .collect(),
        }
    }

    fn budget(&self) -> usize {
        self.cfg.crash_budget
    }
}

/// Bounded exhaustive explorer over the adaptive adversary's choices.
pub struct Explorer<P: ViewProtocol> {
    protocol: P,
    labels: Vec<Label>,
    cfg: ExploreConfig,
}

impl<P: ViewProtocol + fmt::Debug> fmt::Debug for Explorer<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Explorer")
            .field("protocol", &self.protocol)
            .field("n", &self.labels.len())
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl<P: ViewProtocol + Clone + Send + 'static> Explorer<P> {
    /// An explorer over `n` processes with labels `3, 10, 17, …`
    /// (non-contiguous by design).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 16` (the enumeration is exponential in
    /// `n`; 16 slots also bound the recipient masks).
    pub fn new(protocol: P, n: usize, cfg: ExploreConfig) -> Self {
        assert!((1..=16).contains(&n), "model checking is bounded to 1..=16");
        Explorer {
            protocol,
            labels: (0..n as u64).map(|i| Label(i * 7 + 3)).collect(),
            cfg,
        }
    }

    /// Runs the exploration to completion: one run per terminal state,
    /// in the order a recursive search over the decision tree visits
    /// them.
    pub fn explore(&self) -> ExploreStats {
        let mut stats = ExploreStats::default();
        let mut stack = vec![Vec::new()];
        while let Some(path) = stack.pop() {
            let mut branches = Vec::new();
            let report = self.run(&path, &mut branches);
            // This run's own round transitions: its last crash and every
            // round after it (earlier rounds belong to shorter paths).
            stats.states_explored += report.rounds - path.last().map_or(0, |d| d.round.0);
            stats.terminal_states += 1;
            stats.violations.extend(self.verdict(&report, &path));
            // A later round's branches are visited before an earlier
            // round's, each round's in victim × mask order; the stack
            // pops the last push first.
            for round in branches.chunk_by(|a, b| a.round == b.round) {
                stack.extend(
                    round
                        .iter()
                        .rev()
                        .map(|d| [&path[..], std::slice::from_ref(d)].concat()),
                );
            }
        }
        stats
    }

    /// Replays one decision path — a reported [`Violation::path`], or
    /// any crash schedule — and returns the violations of the run it
    /// reaches. Each listed crash happens in its round (several may
    /// share one) and nobody crashes after; the pipeline drops a crash
    /// of a crashed or decided victim, or one beyond the crash budget,
    /// as in any run.
    pub fn check(&self, path: &[DecisionTrace]) -> Vec<Violation> {
        let report = self.run(path, &mut Vec::new());
        self.verdict(&report, path)
    }

    /// Runs the clustered executor against the replay of `path`,
    /// collecting in `branches` the decisions past it still to visit.
    fn run(&self, path: &[DecisionTrace], branches: &mut Vec<DecisionTrace>) -> RunReport {
        let replay = Replay {
            path,
            cfg: &self.cfg,
            branches,
        };
        let options = EngineOptions {
            max_rounds: Some(self.cfg.max_rounds),
            ..EngineOptions::default()
        };
        let (protocol, labels) = (self.protocol.clone(), self.labels.clone());
        let seeds = SeedTree::new(self.cfg.seed);
        ExecutorKind::Clustered
            .run(protocol, labels, replay, seeds, options)
            .expect("the in-memory executor never fails on distinct labels")
    }

    /// The §3 violations of the run that `path` reached.
    fn verdict(&self, report: &RunReport, path: &[DecisionTrace]) -> Vec<Violation> {
        let path = || path.to_vec();
        if !report.completed() {
            return vec![Violation::NonTermination { path: path() }];
        }
        let mut violations = Vec::new();
        let mut seen = BTreeSet::new();
        for name in report.all_names() {
            if name.0 as usize >= report.n {
                violations.push(Violation::InvalidName { name, path: path() });
            }
            if !seen.insert(name) {
                violations.push(Violation::DuplicateName { name, path: path() });
            }
        }
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bil_baselines::RetryBins;
    use bil_core::{BallsIntoLeaves, BilConfig};

    #[test]
    fn early_terminating_verified_n3_budget2() {
        let stats = Explorer::new(
            BallsIntoLeaves::early_terminating(),
            3,
            ExploreConfig {
                crash_budget: 2,
                ..ExploreConfig::default()
            },
        )
        .explore();
        assert!(
            stats.violations.is_empty(),
            "{:?}",
            stats.violations.first()
        );
        assert!(stats.terminal_states > 100, "{stats:?}");
    }

    #[test]
    fn det_rank_verified_n4_budget1() {
        let stats = Explorer::new(
            BallsIntoLeaves::deterministic_rank(),
            4,
            ExploreConfig::default(),
        )
        .explore();
        assert!(
            stats.violations.is_empty(),
            "{:?}",
            stats.violations.first()
        );
    }

    #[test]
    fn base_algorithm_verified_n3_budget2_multiple_seeds() {
        for seed in 0..4 {
            let stats = Explorer::new(
                BallsIntoLeaves::base(),
                3,
                ExploreConfig {
                    crash_budget: 2,
                    seed,
                    ..ExploreConfig::default()
                },
            )
            .explore();
            assert!(
                stats.violations.is_empty(),
                "seed {seed}: {:?}",
                stats.violations.first()
            );
        }
    }

    #[test]
    fn decide_at_leaf_verified_n3_budget2() {
        let stats = Explorer::new(
            BallsIntoLeaves::new(BilConfig::new().with_decide_at_leaf(true)),
            3,
            ExploreConfig {
                crash_budget: 2,
                ..ExploreConfig::default()
            },
        )
        .explore();
        assert!(
            stats.violations.is_empty(),
            "{:?}",
            stats.violations.first()
        );
    }

    /// Negative control: the checker *finds* the reclaim baseline's
    /// uniqueness violation. The bug needs claim contention to arise
    /// (coin-dependent), so the coin space is scanned seed by seed; the
    /// adversary space is exhaustive within each. If this test ever
    /// fails, the checker has lost its teeth.
    #[test]
    fn reclaim_baseline_counterexample_found() {
        let mut found = false;
        let mut last = ExploreStats::default();
        for seed in 0..64 {
            let stats = Explorer::new(
                RetryBins::eager_reclaim(),
                4,
                ExploreConfig {
                    crash_budget: 1,
                    max_rounds: 24,
                    seed,
                    ..ExploreConfig::default()
                },
            )
            .explore();
            if stats
                .violations
                .iter()
                .any(|v| matches!(v, Violation::DuplicateName { .. }))
            {
                found = true;
                break;
            }
            last = stats;
        }
        assert!(
            found,
            "expected a duplicate-name counterexample; last: {last:?}"
        );
    }

    /// The strict baseline is safe (never duplicates) within bounds —
    /// the checker agrees with the pen-and-paper argument.
    #[test]
    fn eager_strict_no_duplicates_within_bounds() {
        let stats = Explorer::new(
            RetryBins::eager_strict(),
            3,
            ExploreConfig {
                crash_budget: 2,
                max_rounds: 24,
                ..ExploreConfig::default()
            },
        )
        .explore();
        assert!(
            !stats
                .violations
                .iter()
                .any(|v| matches!(v, Violation::DuplicateName { .. })),
            "{:?}",
            stats.violations.first()
        );
    }

    #[test]
    fn prefix_policy_shrinks_branching() {
        let ex = Explorer::new(
            BallsIntoLeaves::early_terminating(),
            4,
            ExploreConfig {
                crash_budget: 1,
                subsets: SubsetPolicy::Exhaustive,
                ..ExploreConfig::default()
            },
        )
        .explore();
        let pf = Explorer::new(
            BallsIntoLeaves::early_terminating(),
            4,
            ExploreConfig {
                crash_budget: 1,
                subsets: SubsetPolicy::Prefixes,
                ..ExploreConfig::default()
            },
        )
        .explore();
        assert!(pf.states_explored < ex.states_explored);
        assert!(pf.violations.is_empty() && ex.violations.is_empty());
    }

    /// Pins the exploration itself, not only its verdict: the exact
    /// `(violations, states, terminal states)` counts at seed 0. Any
    /// change to how a branch composes, delivers, merges or sweeps shows
    /// up here.
    #[test]
    fn exploration_counts_are_pinned() {
        let counts = |protocol: BallsIntoLeaves, n, cfg: ExploreConfig| {
            let stats = Explorer::new(protocol, n, cfg).explore();
            (
                stats.violations.len(),
                stats.states_explored,
                stats.terminal_states,
            )
        };
        let budget = |crash_budget| ExploreConfig {
            crash_budget,
            ..ExploreConfig::default()
        };
        assert_eq!(
            counts(BallsIntoLeaves::base(), 3, budget(2)),
            (0, 1227, 749)
        );
        assert_eq!(
            counts(
                BallsIntoLeaves::base(),
                5,
                ExploreConfig {
                    subsets: SubsetPolicy::Prefixes,
                    ..budget(2)
                }
            ),
            (0, 19458, 9976)
        );
        assert_eq!(
            counts(BallsIntoLeaves::early_terminating(), 3, budget(2)),
            (0, 501, 341)
        );
        assert_eq!(
            counts(
                BallsIntoLeaves::new(BilConfig::new().with_decide_at_leaf(true)),
                4,
                budget(1)
            ),
            (0, 324, 129)
        );
    }

    #[test]
    #[should_panic(expected = "bounded to 1..=16")]
    fn oversized_n_rejected() {
        let _ = Explorer::new(BallsIntoLeaves::base(), 17, ExploreConfig::default());
    }

    #[test]
    fn violation_display_nonempty() {
        for v in [
            Violation::DuplicateName {
                name: Name(1),
                path: vec![],
            },
            Violation::InvalidName {
                name: Name(9),
                path: vec![],
            },
            Violation::NonTermination { path: vec![] },
        ] {
            assert!(!v.to_string().is_empty());
        }
    }

    /// A reported counterexample replays: [`Explorer::check`] on the
    /// eager-reclaim baseline's duplicate-name path reaches the same
    /// violation.
    #[test]
    fn reported_violation_replays_through_check() {
        let found = (0..64).find_map(|seed| {
            let explorer = Explorer::new(
                RetryBins::eager_reclaim(),
                4,
                ExploreConfig {
                    crash_budget: 1,
                    max_rounds: 24,
                    seed,
                    ..ExploreConfig::default()
                },
            );
            let stats = explorer.explore();
            let duplicate = stats
                .violations
                .into_iter()
                .find(|v| matches!(v, Violation::DuplicateName { .. }))?;
            Some((explorer, duplicate))
        });
        let (explorer, duplicate) = found.expect("a duplicate-name counterexample");
        assert!(!duplicate.path().is_empty(), "{duplicate}");
        assert!(
            explorer.check(duplicate.path()).contains(&duplicate),
            "{duplicate:?}"
        );
    }
}
