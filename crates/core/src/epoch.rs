//! Epoch-scoped Balls-into-Leaves: one protocol instance of a
//! *long-lived* renaming execution.
//!
//! The paper solves **one-shot** tight renaming: `n` processes, `n`
//! names, one run. A long-lived service (the `bil-service` crate) keeps
//! a fixed namespace of `N` names alive across many runs: processes
//! acquire a name, hold it for a while, release it, and new contenders
//! keep arriving. Each *epoch* runs the paper's one-shot algorithm over
//! the names that are free when it starts, as in the long-lived setting
//! of Helmi–Higham–Woelfel:
//!
//! * the epoch's tree has one leaf per **free name**: leaf rank `r`
//!   stands for the `r`-th smallest free name. Held names are not in the
//!   tree, so no path can lead to one, and holders' labels never enter
//!   a view;
//! * every view is a fresh one-shot view over that tree, and
//!   compose/apply are byte-for-byte the one-shot protocol, which is why
//!   every executor remains bit-identical in epoch mode;
//! * `status` maps a decided leaf rank back to its free name.
//!
//! Released names rejoin the free names of the next epoch's tree and get
//! recycled.
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
use bil_tree::{Topology, TreeError};

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
/// the free names of a namespace of `N` names (see the module docs).
///
/// Cheap to clone (the free names are shared), as the wire executors
/// require.
#[derive(Debug, Clone)]
pub struct EpochBil {
    inner: BallsIntoLeaves,
    namespace: usize,
    /// The names no holder holds, ascending: leaf rank `r` of every view
    /// stands for `free[r]`.
    free: Arc<[Name]>,
}

impl EpochBil {
    /// An epoch instance over `namespace` names, with `holders` — the
    /// `(label, name)` pairs that currently hold a name — left out of its
    /// tree.
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
        Topology::new(namespace).map_err(EpochError::BadNamespace)?;
        if let Some(&(label, name)) = holders.iter().find(|(_, n)| n.0 as usize >= namespace) {
            return Err(EpochError::NameOutOfRange {
                label,
                name,
                namespace,
            });
        }
        let mut labels: Vec<Label> = holders.iter().map(|&(label, _)| label).collect();
        labels.sort_unstable();
        if let Some(w) = labels.windows(2).find(|w| w[0] == w[1]) {
            return Err(EpochError::DuplicateLabel(w[0]));
        }
        let mut held: Vec<Name> = holders.iter().map(|&(_, name)| name).collect();
        held.sort_unstable();
        if let Some(w) = held.windows(2).find(|w| w[0] == w[1]) {
            return Err(EpochError::DuplicateName(w[0]));
        }
        let mut held = held.into_iter().peekable();
        let free = (0..namespace as u32)
            .map(Name)
            .filter(|name| held.next_if_eq(name).is_none())
            .collect();
        Ok(EpochBil {
            inner: BallsIntoLeaves::new(cfg),
            namespace,
            free,
        })
    }

    /// The namespace size `N`.
    pub fn namespace(&self) -> usize {
        self.namespace
    }

    /// Number of names currently held.
    pub fn holders(&self) -> usize {
        self.namespace - self.free()
    }

    /// Free names — the leaves of every view's tree, and the maximum
    /// number of contenders this epoch admits.
    pub fn free(&self) -> usize {
        self.free.len()
    }

    /// The epoch's protocol configuration.
    pub fn config(&self) -> &BilConfig {
        self.inner.config()
    }
}

impl ViewProtocol for EpochBil {
    type Msg = BilMsg;
    type View = BilView;

    /// A fresh one-shot view over a tree of [`EpochBil::free`] leaves.
    ///
    /// Contender labels must be disjoint from the holders' labels, as
    /// the service front end's validation (`AlreadyHolding`) ensures.
    /// Holders never enter a view, so nothing here could refuse a
    /// contender that reuses a holder's label: it would be granted a
    /// second name.
    ///
    /// # Panics
    ///
    /// Panics if `n` (the number of contenders) exceeds [`EpochBil::free`]
    /// — such an epoch could not terminate with unique names, so it must
    /// never start. The service layer enforces admission before the
    /// engines get here.
    fn init_view(&self, n: usize) -> BilView {
        assert!(
            n <= self.free(),
            "epoch admits at most {} contenders, got {n}",
            self.free()
        );
        self.inner.init_view(self.free())
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

    fn remove_silent(&self, view: &mut BilView, round: Round, inbox: RoundInbox<'_, BilMsg>) {
        self.inner.remove_silent(view, round, inbox);
    }

    /// Maps a decided leaf rank `r` to the `r`-th free name; a rank beyond
    /// them (no correct run reaches one) keeps the ball `Running`.
    fn status(&self, view: &BilView, ball: Label, round: Round) -> Status {
        match self.inner.status(view, ball, round) {
            Status::Decided(Name(rank)) => self
                .free
                .get(rank as usize)
                .map_or(Status::Running, |&name| Status::Decided(name)),
            Status::Running => Status::Running,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bil_runtime::adversary::{NoFailures, RandomCrash, Scripted, ScriptedCrash};
    use bil_runtime::engine::EngineOptions;
    use bil_runtime::{ExecutorKind, SeedTree};

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
        // With no holders and namespace = n, an epoch is exactly the
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
    fn epoch_view_is_a_fresh_tree_of_the_free_names() {
        let epoch = EpochBil::new(BilConfig::new(), 8, &holders(&[2, 5])).unwrap();
        let view = epoch.init_view(3);
        // One leaf per free name, and nothing placed or committed before
        // round 0: holders never enter a view.
        assert_eq!(view.tree().topology().leaves(), epoch.free());
        assert!(view.tree().is_empty());
        assert_eq!(view.committed().count(), 0);
        view.tree().validate().unwrap();
    }

    #[test]
    fn rank_descents_grant_the_smallest_free_names_in_label_order() {
        // Failure-free, phase 1 of the early-terminating and det-rank
        // descents sends the contender of label rank `i` to the `i`-th
        // free name, whatever the holders: 3 rounds, order-preserving.
        let cases: [(usize, &[u32]); 3] = [
            (16, &[0, 3, 4, 9, 15]),
            (37, &[1, 2, 6, 10, 11, 20, 28, 35, 36]),
            (64, &[0, 5, 7, 8, 13, 21, 22, 34, 40, 41, 55, 63]),
        ];
        for (namespace, held) in cases {
            let free: Vec<Name> = (0..namespace as u32)
                .filter(|n| !held.contains(n))
                .map(Name)
                .collect();
            assert!(!free.len().is_power_of_two());
            for cfg in [
                BilConfig::early_terminating(),
                BilConfig::deterministic_rank(),
            ] {
                for k in [1, free.len() / 2, free.len()] {
                    let epoch = EpochBil::new(cfg, namespace, &holders(held)).unwrap();
                    // Labels descend with the slot, so slot order is not
                    // label order.
                    let contenders: Vec<Label> =
                        (0..k as u64).map(|i| Label(5 * (k as u64 - i))).collect();
                    let report = ExecutorKind::Clustered
                        .run(
                            epoch,
                            contenders.clone(),
                            NoFailures,
                            SeedTree::new(9),
                            EngineOptions::default(),
                        )
                        .unwrap();
                    assert!(report.completed(), "{cfg:?} N={namespace} k={k}");
                    assert_eq!(report.rounds, 3, "{cfg:?} N={namespace} k={k}");
                    for (pid, label) in contenders.iter().enumerate() {
                        let rank = contenders.iter().filter(|l| *l < label).count();
                        assert_eq!(
                            report.decisions[pid].unwrap().name,
                            free[rank],
                            "{cfg:?} N={namespace} k={k} {label}"
                        );
                    }
                }
            }
        }
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
