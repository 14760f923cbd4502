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
//! At each terminal state the §3 specification (termination, validity,
//! uniqueness) is checked; a reported [`Violation`] carries the exact
//! decision path for replay. The checker is protocol-generic, so it
//! both *verifies* the Balls-into-Leaves family and *finds the
//! counterexample* for the broken reclaim baseline (a useful negative
//! control: the tool can actually detect bugs).
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

use std::collections::BTreeMap;
use std::fmt;

use bil_runtime::adversary::Recipients;
use bil_runtime::pipeline::{LocalTransport, RoundMessages, Transport};
use bil_runtime::{Label, Name, ProcId, Round, SeedTree, Status, ViewProtocol};

/// How delivery subsets for a dying broadcast are enumerated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubsetPolicy {
    /// All `2^(n−1)` subsets of the other processes — fully exhaustive.
    Exhaustive,
    /// All label-sorted prefixes (`n` subsets) plus the parity split —
    /// a symmetry-reduced frontier for slightly larger `n`.
    Prefixes,
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

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DuplicateName { name, path } => {
                write!(f, "duplicate name {name} after {} crashes", path.len())
            }
            Violation::InvalidName { name, path } => {
                write!(f, "invalid name {name} after {} crashes", path.len())
            }
            Violation::NonTermination { path } => {
                write!(f, "non-termination after {} crashes", path.len())
            }
        }
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

/// One branchable execution state: the clustered engine's own store
/// ([`LocalTransport::clustered`]), cloned at every branch, plus
/// liveness, decisions, the crash budget and the decision path.
#[derive(Clone)]
struct BranchState<P: ViewProtocol> {
    round: Round,
    transport: LocalTransport<P>,
    alive: Vec<bool>,
    decided: Vec<Option<Name>>,
    budget_left: usize,
    path: Vec<DecisionTrace>,
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

impl<P: ViewProtocol + Clone> Explorer<P> {
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

    /// Runs the exploration to completion.
    pub fn explore(&self) -> ExploreStats {
        let n = self.labels.len();
        let seeds = SeedTree::new(self.cfg.seed);
        let root = BranchState {
            round: Round(0),
            transport: LocalTransport::clustered(self.protocol.clone(), &self.labels, &seeds),
            alive: vec![true; n],
            decided: vec![None; n],
            budget_left: self.cfg.crash_budget.min(n.saturating_sub(1)),
            path: Vec::new(),
        };
        let mut stats = ExploreStats::default();
        self.dfs(root, &mut stats);
        stats
    }

    fn dfs(&self, mut state: BranchState<P>, stats: &mut ExploreStats) {
        let n = self.labels.len();
        // Terminal: everyone alive decided.
        if (0..n).all(|p| !state.alive[p] || state.decided[p].is_some()) {
            stats.terminal_states += 1;
            self.check_terminal(&state, stats);
            return;
        }
        if state.round.0 >= self.cfg.max_rounds {
            stats.terminal_states += 1;
            stats.violations.push(Violation::NonTermination {
                path: state.path.clone(),
            });
            return;
        }

        // Compose this round's broadcasts once; branches differ only in
        // delivery.
        let participants: Vec<ProcId> = (0..n as u32)
            .map(ProcId)
            .filter(|p| state.alive[p.index()] && state.decided[p.index()].is_none())
            .collect();
        let outgoing = state
            .transport
            .compose(state.round, &participants)
            .expect("the in-memory transport is infallible");

        // Branch 1: no crash this round.
        stats.states_explored += 1;
        let next = self.deliver(&state, &participants, &outgoing, None);
        self.dfs(next, stats);

        // Branches 2..: every victim × every delivery subset, while
        // budget and participant count allow.
        if state.budget_left == 0 || outgoing.len() <= 1 {
            return;
        }
        for &victim in &participants {
            for mask in self.masks_for(victim) {
                stats.states_explored += 1;
                let mut next = self.deliver(&state, &participants, &outgoing, Some((victim, mask)));
                next.path.push(DecisionTrace {
                    round: state.round,
                    victim,
                    recipients_mask: mask,
                });
                self.dfs(next, stats);
            }
        }
    }

    /// The delivery masks to branch over for `victim`.
    fn masks_for(&self, victim: ProcId) -> Vec<u64> {
        let n = self.labels.len();
        let all = ((1u64 << n) - 1) & !(1 << victim.0);
        match self.cfg.subsets {
            SubsetPolicy::Exhaustive => {
                // Enumerate subsets of the other slots by masking out the
                // victim bit from a dense enumeration.
                let others: Vec<u32> = (0..n as u32).filter(|b| *b != victim.0).collect();
                (0u64..(1 << others.len()))
                    .map(|m| {
                        let mut mask = 0u64;
                        for (i, b) in others.iter().enumerate() {
                            if (m >> i) & 1 == 1 {
                                mask |= 1 << b;
                            }
                        }
                        mask
                    })
                    .collect()
            }
            SubsetPolicy::Prefixes => {
                let mut masks: Vec<u64> = (0..=n)
                    .map(|k| {
                        let mut mask = 0u64;
                        for b in 0..k {
                            mask |= 1 << b;
                        }
                        mask & !(1 << victim.0)
                    })
                    .collect();
                // Parity split, both phases.
                let mut even = 0u64;
                let mut odd = 0u64;
                for b in 0..n as u32 {
                    if b % 2 == 0 {
                        even |= 1 << b;
                    } else {
                        odd |= 1 << b;
                    }
                }
                masks.push(even & !(1 << victim.0));
                masks.push(odd & !(1 << victim.0));
                masks.push(all);
                masks.sort_unstable();
                masks.dedup();
                masks
            }
        }
    }

    /// Delivers and applies one round with an optional
    /// `(victim, recipients_mask)` crash, returning the successor state:
    /// the round's messages go through the pipeline's own
    /// [`RoundMessages`], and the branch's store applies and sweeps them.
    fn deliver(
        &self,
        state: &BranchState<P>,
        participants: &[ProcId],
        outgoing: &[(ProcId, Label, P::Msg)],
        crash: Option<(ProcId, u64)>,
    ) -> BranchState<P> {
        let mut next = state.clone();
        let mut crashes = Vec::new();
        if let Some((victim, mask)) = crash {
            next.alive[victim.index()] = false;
            next.budget_left -= 1;
            let heard = (0..self.labels.len() as u32)
                .filter(|b| (mask >> b) & 1 == 1)
                .map(ProcId)
                .collect();
            crashes.push((victim, Recipients::Set(heard)));
        }
        let survivors: Vec<ProcId> = participants
            .iter()
            .copied()
            .filter(|pid| next.alive[pid.index()])
            .collect();
        let mut msgs = RoundMessages::new(outgoing.to_vec(), &next.alive, &crashes);
        msgs.prepare(&survivors);
        let infallible = "the in-memory transport is infallible";
        next.transport
            .apply(next.round, &next.alive, &survivors, &msgs)
            .expect(infallible);
        for (pid, status) in next.transport.sweep(next.round).expect(infallible) {
            if let Status::Decided(name) = status {
                next.decided[pid.index()] = Some(name);
            }
        }
        next.round = next.round.next();
        next
    }

    fn check_terminal(&self, state: &BranchState<P>, stats: &mut ExploreStats) {
        let n = self.labels.len();
        let mut seen: BTreeMap<Name, ProcId> = BTreeMap::new();
        for (pid, decision) in state.decided.iter().enumerate() {
            let Some(name) = decision else { continue };
            if name.0 as usize >= n {
                stats.violations.push(Violation::InvalidName {
                    name: *name,
                    path: state.path.clone(),
                });
            }
            if seen.insert(*name, ProcId(pid as u32)).is_some() {
                stats.violations.push(Violation::DuplicateName {
                    name: *name,
                    path: state.path.clone(),
                });
            }
        }
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
}
