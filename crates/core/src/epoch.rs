//! Epoch-scoped Balls-into-Leaves: one protocol instance of a
//! *long-lived* renaming execution.
//!
//! The paper solves **one-shot** tight renaming: `n` processes, `n`
//! names, one run. A long-lived service (the `bil-service` crate) keeps
//! a fixed namespace of `N` names alive across many runs: processes
//! acquire a name, hold it for a while, release it, and new contenders
//! keep arriving. Each *epoch* is one Balls-into-Leaves execution over
//! the same `N`-leaf tree, with the leaves of currently-held names
//! **masked out** — not by special-casing them in the algorithm, but by
//! seeding every initial view with a *resident ball* sitting on each
//! occupied leaf:
//!
//! * a resident consumes its leaf's capacity, so the paper's Lemma 1
//!   (no subtree ever holds more balls than leaves) keeps every
//!   contender's candidate path away from held names — the same
//!   invariant that keeps concurrent contenders apart now also fences
//!   off previous epochs' winners;
//! * a resident is recorded as **committed** from round 0, so the
//!   protocol's existing silence rules (a committed ball that stops
//!   broadcasting is decided, not crashed) keep it in place for the
//!   whole epoch even though no process speaks for it;
//! * everything else — priorities, path composition, crash handling,
//!   commit echoes — is byte-for-byte the one-shot protocol, which is
//!   why every executor remains bit-identical in epoch mode.
//!
//! Released names simply have no resident in the next epoch: their
//! leaves become ordinary free capacity and get recycled.
//!
//! # Examples
//!
//! Second epoch of a service over 8 names, with three names held over:
//!
//! ```
//! use bil_core::EpochBil;
//! use bil_core::BilConfig;
//! use bil_runtime::adversary::NoFailures;
//! use bil_runtime::engine::EngineOptions;
//! use bil_runtime::{ExecutorKind, Label, Name, SeedTree};
//!
//! let holders = [(Label(100), Name(1)), (Label(101), Name(4)), (Label(102), Name(6))];
//! let epoch = EpochBil::new(BilConfig::new(), 8, &holders)?;
//! assert_eq!(epoch.free(), 5);
//! let contenders: Vec<Label> = [7, 9, 21].map(Label).to_vec();
//! let report = ExecutorKind::Clustered
//!     .run(epoch, contenders, NoFailures, SeedTree::new(3), EngineOptions::default())
//!     .expect("valid configuration");
//! assert!(report.completed());
//! for name in report.all_names() {
//!     // New names avoid every held name.
//!     assert!(![1, 4, 6].contains(&name.0));
//! }
//! # Ok::<(), bil_core::EpochError>(())
//! ```

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use rand::rngs::SmallRng;

use bil_runtime::{Label, Name, Round, RoundInbox, Status, ViewProtocol};
use bil_tree::{NodeId, Topology, TreeError};

use crate::config::BilConfig;
use crate::messages::BilMsg;
use crate::protocol::{BallsIntoLeaves, BilView};

/// Invalid epoch construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EpochError {
    /// The namespace size is not a valid tree (`0` or beyond
    /// [`bil_tree::MAX_LEAVES`]).
    BadNamespace(TreeError),
    /// A holder's name is outside `0 .. namespace`.
    NameOutOfRange {
        /// The offending holder.
        label: Label,
        /// Its recorded name.
        name: Name,
        /// The namespace size.
        namespace: usize,
    },
    /// Two holders share a label.
    DuplicateLabel(Label),
    /// Two holders share a name — the service state is corrupt.
    DuplicateName(Name),
}

impl fmt::Display for EpochError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EpochError::BadNamespace(e) => write!(f, "invalid namespace: {e}"),
            EpochError::NameOutOfRange {
                label,
                name,
                namespace,
            } => write!(
                f,
                "holder {label} has name {name} outside the namespace 0..{namespace}"
            ),
            EpochError::DuplicateLabel(l) => write!(f, "holder label {l} appears twice"),
            EpochError::DuplicateName(n) => write!(f, "name {n} is held twice"),
        }
    }
}

impl Error for EpochError {}

/// One epoch of a long-lived renaming execution: Balls-into-Leaves over
/// a namespace of `N` names with the currently-held names masked out by
/// resident balls (see the module docs).
///
/// Cheap to clone (the resident set is shared), as the wire executors
/// require.
#[derive(Debug, Clone)]
pub struct EpochBil {
    inner: BallsIntoLeaves,
    topo: Topology,
    /// `(label, leaf)` per current name holder, sorted by label.
    residents: Arc<Vec<(Label, NodeId)>>,
}

impl EpochBil {
    /// An epoch instance over `namespace` names, with `holders` — the
    /// `(label, name)` pairs that currently hold a name — masked out.
    ///
    /// # Errors
    ///
    /// Returns [`EpochError`] for an invalid namespace, an out-of-range
    /// name, or duplicate holder labels/names.
    pub fn new(
        cfg: BilConfig,
        namespace: usize,
        holders: &[(Label, Name)],
    ) -> Result<EpochBil, EpochError> {
        let topo = Topology::new(namespace).map_err(EpochError::BadNamespace)?;
        let mut residents = Vec::with_capacity(holders.len());
        for (label, name) in holders {
            let leaf = topo
                .leaf_for_rank(name.0)
                .map_err(|_| EpochError::NameOutOfRange {
                    label: *label,
                    name: *name,
                    namespace,
                })?;
            residents.push((*label, leaf));
        }
        residents.sort_unstable();
        for w in residents.windows(2) {
            if w[0].0 == w[1].0 {
                return Err(EpochError::DuplicateLabel(w[0].0));
            }
        }
        let mut by_leaf: Vec<NodeId> = residents.iter().map(|(_, leaf)| *leaf).collect();
        by_leaf.sort_unstable();
        for w in by_leaf.windows(2) {
            if w[0] == w[1] {
                return Err(EpochError::DuplicateName(Name(topo.leaf_rank(w[0]))));
            }
        }
        Ok(EpochBil {
            inner: BallsIntoLeaves::new(cfg),
            topo,
            residents: Arc::new(residents),
        })
    }

    /// The namespace size `N` (number of leaves of the epoch tree).
    pub fn namespace(&self) -> usize {
        self.topo.leaves()
    }

    /// Number of names currently held (resident balls).
    pub fn holders(&self) -> usize {
        self.residents.len()
    }

    /// Free names — the maximum number of contenders this epoch admits.
    pub fn free(&self) -> usize {
        self.namespace() - self.holders()
    }

    /// The epoch's protocol configuration.
    pub fn config(&self) -> &BilConfig {
        self.inner.config()
    }
}

impl ViewProtocol for EpochBil {
    type Msg = BilMsg;
    type View = BilView;

    /// # Panics
    ///
    /// Panics if `n` (the number of contenders) exceeds [`EpochBil::free`]
    /// — such an epoch could not terminate with unique names, so it must
    /// never start. The service layer enforces admission before the
    /// engines get here. A contender label colliding with a resident's
    /// cannot be asserted here (only `n` is visible): such a contender is
    /// never admitted at round 0 (the collision is counted as a
    /// `malformed_init` anomaly), it stays `Running` forever, and the run
    /// surfaces loudly as `Outcome::RoundLimit` — callers must keep
    /// contender labels disjoint from holders, as `RenamingService`'s
    /// validation does.
    fn init_view(&self, n: usize) -> BilView {
        assert!(
            n <= self.free(),
            "epoch admits at most {} contenders, got {n}",
            self.free()
        );
        BilView::occupied(self.topo, &self.residents)
            .expect("validated residents fit the namespace")
    }

    fn compose(&self, view: &BilView, ball: Label, round: Round, rng: &mut SmallRng) -> BilMsg {
        self.inner.compose(view, ball, round, rng)
    }

    fn compose_batch(
        &self,
        view: &BilView,
        balls: &[Label],
        round: Round,
        rngs: &mut [&mut SmallRng],
        out: &mut Vec<(Label, BilMsg)>,
    ) {
        self.inner.compose_batch(view, balls, round, rngs, out);
    }

    fn apply(&self, view: &mut BilView, round: Round, inbox: RoundInbox<'_, BilMsg>) {
        self.inner.apply(view, round, inbox);
    }

    fn status(&self, view: &BilView, ball: Label, round: Round) -> Status {
        self.inner.status(view, ball, round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bil_runtime::adversary::{NoFailures, RandomCrash, Scripted, ScriptedCrash};
    use bil_runtime::engine::EngineOptions;
    use bil_runtime::{ExecutorKind, SeedTree};
    use bil_tree::ROOT;

    fn holders(names: &[u32]) -> Vec<(Label, Name)> {
        names
            .iter()
            .enumerate()
            .map(|(i, n)| (Label(1000 + i as u64), Name(*n)))
            .collect()
    }

    #[test]
    fn construction_validates_holders() {
        assert!(matches!(
            EpochBil::new(BilConfig::new(), 0, &[]),
            Err(EpochError::BadNamespace(_))
        ));
        assert!(matches!(
            EpochBil::new(BilConfig::new(), 4, &[(Label(1), Name(4))]),
            Err(EpochError::NameOutOfRange { .. })
        ));
        assert!(matches!(
            EpochBil::new(
                BilConfig::new(),
                4,
                &[(Label(1), Name(0)), (Label(1), Name(2))]
            ),
            Err(EpochError::DuplicateLabel(Label(1)))
        ));
        assert!(matches!(
            EpochBil::new(
                BilConfig::new(),
                4,
                &[(Label(1), Name(2)), (Label(2), Name(2))]
            ),
            Err(EpochError::DuplicateName(Name(2)))
        ));
        let e = EpochBil::new(BilConfig::new(), 8, &holders(&[0, 3, 7])).unwrap();
        assert_eq!(e.namespace(), 8);
        assert_eq!(e.holders(), 3);
        assert_eq!(e.free(), 5);
    }

    #[test]
    fn empty_holder_set_matches_one_shot_protocol() {
        // With no residents and namespace = n, an epoch is exactly the
        // one-shot algorithm: bit-identical reports.
        let labels: Vec<Label> = (0..8u64).map(|i| Label(i * 13 + 5)).collect();
        let epoch = EpochBil::new(BilConfig::new(), 8, &[]).unwrap();
        let a = ExecutorKind::Clustered
            .run(
                epoch,
                labels.clone(),
                NoFailures,
                SeedTree::new(11),
                EngineOptions::default(),
            )
            .unwrap();
        let b = ExecutorKind::Clustered
            .run(
                BallsIntoLeaves::base(),
                labels,
                NoFailures,
                SeedTree::new(11),
                EngineOptions::default(),
            )
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn contenders_avoid_held_names_in_every_variant() {
        let held = [0u32, 2, 3, 7, 8, 12];
        for cfg in [
            BilConfig::new(),
            BilConfig::new().with_decide_at_leaf(true),
            BilConfig::early_terminating(),
            BilConfig::deterministic_rank(),
        ] {
            for seed in 0..6 {
                let epoch = EpochBil::new(cfg, 16, &holders(&held)).unwrap();
                let contenders: Vec<Label> = (0..epoch.free() as u64).map(Label).collect();
                let report = ExecutorKind::Clustered
                    .run(
                        epoch,
                        contenders,
                        NoFailures,
                        SeedTree::new(seed),
                        EngineOptions::default(),
                    )
                    .unwrap();
                assert!(report.completed(), "{cfg:?} seed={seed}");
                let mut names: Vec<u32> = report.all_names().iter().map(|n| n.0).collect();
                names.sort_unstable();
                let expect: Vec<u32> = (0..16u32).filter(|n| !held.contains(n)).collect();
                assert_eq!(names, expect, "{cfg:?} seed={seed}");
            }
        }
    }

    #[test]
    fn crashes_in_an_occupied_epoch_stay_safe() {
        let held = [1u32, 4, 6, 9];
        for seed in 0..8 {
            let adv = Scripted::new(vec![
                ScriptedCrash {
                    round: Round(1),
                    victim_index: 1,
                    modulus: 2,
                    residue: 0,
                },
                ScriptedCrash {
                    round: Round(2),
                    victim_index: 0,
                    modulus: 3,
                    residue: 1,
                },
            ]);
            let epoch = EpochBil::new(BilConfig::new(), 12, &holders(&held)).unwrap();
            let contenders: Vec<Label> = (0..8u64).map(|i| Label(i * 7 + 2)).collect();
            let report = ExecutorKind::Clustered
                .run(
                    epoch,
                    contenders,
                    adv,
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap();
            assert!(report.completed(), "seed={seed}");
            let names = report.all_names();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "duplicate names, seed={seed}");
            for n in &names {
                assert!(!held.contains(&n.0), "held name {n} reissued, seed={seed}");
            }
        }
    }

    #[test]
    fn crash_heavy_occupied_epochs_stay_safe_with_decide_at_leaf() {
        let held = [0u32, 5, 10, 11];
        for seed in 0..6 {
            let adv = RandomCrash::new(4, 0.8, SeedTree::new(seed).adversary_rng());
            let epoch = EpochBil::new(
                BilConfig::new().with_decide_at_leaf(true),
                12,
                &holders(&held),
            )
            .unwrap();
            let contenders: Vec<Label> = (0..8u64).map(|i| Label(i * 3 + 1)).collect();
            let report = ExecutorKind::Clustered
                .run(
                    epoch,
                    contenders,
                    adv,
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap();
            assert!(report.completed(), "seed={seed}");
            let names = report.all_names();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "seed={seed}");
            for n in &names {
                assert!(!held.contains(&n.0), "seed={seed}");
            }
        }
    }

    #[test]
    fn occupied_view_seeds_residents_as_committed() {
        let epoch = EpochBil::new(BilConfig::new(), 8, &holders(&[2, 5])).unwrap();
        let view = epoch.init_view(3);
        assert_eq!(view.tree().len(), 2);
        assert_eq!(view.committed().count(), 2);
        // Residents sit on their leaves; the root already carries their
        // load.
        assert_eq!(view.tree().load(ROOT), 2);
        assert_eq!(view.tree().remaining_capacity(ROOT), 6);
        view.tree().validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "epoch admits at most")]
    fn over_admission_is_refused() {
        let epoch = EpochBil::new(BilConfig::new(), 4, &holders(&[0, 1, 2])).unwrap();
        let _ = epoch.init_view(2);
    }

    #[test]
    fn error_display() {
        for e in [
            EpochBil::new(BilConfig::new(), 0, &[]).unwrap_err(),
            EpochBil::new(BilConfig::new(), 2, &[(Label(9), Name(7))]).unwrap_err(),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
