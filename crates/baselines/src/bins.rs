//! Classic parallel balls-into-bins allocation, reproduced as renaming
//! baselines.
//!
//! The paper's motivation (§1, §2): randomized load balancing has elegant
//! sub-logarithmic algorithms, *"however, careful examination reveals
//! that such solutions do not really apply to our scenario, because they
//! are not fault tolerant or do not ensure one-to-one allocation"* —
//! they *"require balls to always have consistent views when making
//! their choice (which cannot be guaranteed under crash faults)"*.
//!
//! [`RetryBins`] implements the natural retry protocol — each unplaced
//! ball claims a uniformly random free bin (or the better of two, for
//! the power-of-two-choices variant); each bin accepts the smallest
//! label — with two policy axes that span the paper's dilemma:
//!
//! * [`DecideRule`] — **Hold**: a placed ball keeps broadcasting
//!   `Hold(bin)` until *everyone* is placed (consistent views are
//!   maintained by brute force; safe, but not wait-free per-ball, and
//!   round complexity is `Θ(log n)` because free bins stay as scarce as
//!   unplaced balls). **Eager**: a ball decides the moment it wins a bin
//!   and goes silent (wait-free — and now silence is ambiguous).
//! * `reclaim` — whether a bin whose recorded owner went silent is
//!   released. With **Eager + reclaim**, a decided ball's silence is
//!   indistinguishable from a crash, so its name gets reassigned →
//!   **uniqueness violations, even in failure-free runs**. With
//!   **Eager + strict**, no released bin is ever re-offered, which keeps
//!   the protocol safe (each crash "wastes" at most one booking per
//!   view, so a free bin always remains) — but free bins stay as scarce
//!   as unplaced balls, pinning round complexity at `Θ(log n)`: this is
//!   precisely why the paper says no parallel load-balancing technique
//!   yields **sub-logarithmic** wait-free tight renaming. Experiment E13
//!   quantifies both horns; Balls-into-Leaves suffers neither.

use std::collections::BTreeMap;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rand::rngs::SmallRng;
use rand::Rng;

use bil_runtime::wire::{get_varint, put_varint, varint_len, Wire, WireError};
use bil_runtime::{Label, Name, Round, RoundInbox, Status, ViewProtocol};

/// A bin index in `0..n`.
pub type Bin = u32;

/// Messages of the retry protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinsMsg {
    /// Claim one bin.
    Claim(Bin),
    /// Claim the better of two bins (power of two choices).
    Claim2(Bin, Bin),
    /// Re-assert ownership of a won bin (Hold decide-rule only).
    Hold(Bin),
    /// No free bin in the sender's view.
    Stuck,
}

const TAG_CLAIM: u8 = 0;
const TAG_CLAIM2: u8 = 1;
const TAG_HOLD: u8 = 2;
const TAG_STUCK: u8 = 3;

impl Wire for BinsMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            BinsMsg::Claim(b) => {
                buf.put_u8(TAG_CLAIM);
                put_varint(buf, *b as u64);
            }
            BinsMsg::Claim2(a, b) => {
                buf.put_u8(TAG_CLAIM2);
                put_varint(buf, *a as u64);
                put_varint(buf, *b as u64);
            }
            BinsMsg::Hold(b) => {
                buf.put_u8(TAG_HOLD);
                put_varint(buf, *b as u64);
            }
            BinsMsg::Stuck => buf.put_u8(TAG_STUCK),
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        let getb = |buf: &mut Bytes| -> Result<Bin, WireError> {
            let v = get_varint(buf)?;
            Bin::try_from(v).map_err(|_| WireError::LengthOverflow(v))
        };
        match buf.get_u8() {
            TAG_CLAIM => Ok(BinsMsg::Claim(getb(buf)?)),
            TAG_CLAIM2 => Ok(BinsMsg::Claim2(getb(buf)?, getb(buf)?)),
            TAG_HOLD => Ok(BinsMsg::Hold(getb(buf)?)),
            TAG_STUCK => Ok(BinsMsg::Stuck),
            tag => Err(WireError::BadTag(tag)),
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            BinsMsg::Claim(b) | BinsMsg::Hold(b) => 1 + varint_len(*b as u64),
            BinsMsg::Claim2(a, b) => 1 + varint_len(*a as u64) + varint_len(*b as u64),
            BinsMsg::Stuck => 1,
        }
    }
}

/// When a ball decides its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecideRule {
    /// Decide the moment the ball wins a bin, then go silent (wait-free).
    Eager,
    /// Keep broadcasting `Hold` until no claims remain in the system.
    Hold,
}

/// The retry protocol's shared view.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BinsView {
    n: u32,
    /// Bin → recorded owner.
    owners: BTreeMap<Bin, Label>,
    /// Whether the last applied round still carried claims (or stuck
    /// markers) — i.e., allocation is not globally finished.
    pending: bool,
}

impl BinsView {
    /// The bin `ball` owns in this view, if any (smallest, if divergence
    /// has recorded several).
    pub fn bin_of(&self, ball: Label) -> Option<Bin> {
        self.owners
            .iter()
            .find(|(_, l)| **l == ball)
            .map(|(b, _)| *b)
    }
}

/// The retry balls-into-bins baseline. See the module docs.
///
/// # Examples
///
/// ```
/// use bil_baselines::RetryBins;
/// use bil_core::check_tight_renaming;
/// use bil_runtime::adversary::NoFailures;
/// use bil_runtime::engine::EngineOptions;
/// use bil_runtime::{ExecutorKind, Label, SeedTree};
///
/// # fn main() -> Result<(), bil_runtime::RunError> {
/// let labels: Vec<Label> = (0..16).map(|i| Label(i + 1)).collect();
/// let report = ExecutorKind::Clustered.run(
///     RetryBins::uniform(),
///     labels,
///     NoFailures,
///     SeedTree::new(4),
///     EngineOptions::default(),
/// )?;
/// assert!(check_tight_renaming(&report).holds());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryBins {
    choices: u8,
    decide: DecideRule,
    reclaim: bool,
}

impl RetryBins {
    /// One uniform choice per round; safe Hold rule with reclaim — the
    /// honest fault-tolerant repair (`Θ(log n)` rounds, not wait-free).
    pub fn uniform() -> Self {
        RetryBins {
            choices: 1,
            decide: DecideRule::Hold,
            reclaim: true,
        }
    }

    /// Power of two choices per round; safe Hold rule with reclaim.
    pub fn two_choice() -> Self {
        RetryBins {
            choices: 2,
            decide: DecideRule::Hold,
            reclaim: true,
        }
    }

    /// Wait-free (eager decision), bins never released: safe, but bins
    /// leak to ghosts in divergent views and free bins stay scarce —
    /// `Θ(log n)` rounds, the naive-retry cost the paper improves on.
    pub fn eager_strict() -> Self {
        RetryBins {
            choices: 1,
            decide: DecideRule::Eager,
            reclaim: false,
        }
    }

    /// Wait-free (eager decision), silent owners' bins released: decided
    /// balls' names get reassigned — uniqueness violations even in
    /// failure-free runs, demonstrating that silence-based recovery and
    /// wait-free termination are incompatible.
    pub fn eager_reclaim() -> Self {
        RetryBins {
            choices: 1,
            decide: DecideRule::Eager,
            reclaim: true,
        }
    }
}

impl ViewProtocol for RetryBins {
    type Msg = BinsMsg;
    type View = BinsView;

    fn init_view(&self, n: usize) -> BinsView {
        BinsView {
            n: n as u32,
            owners: BTreeMap::new(),
            pending: true,
        }
    }

    fn compose(&self, view: &BinsView, ball: Label, _round: Round, rng: &mut SmallRng) -> BinsMsg {
        if let Some(bin) = view.bin_of(ball) {
            // Only reachable under the Hold rule: Eager deciders are
            // silenced by the engine in the round after they win.
            return BinsMsg::Hold(bin);
        }
        let free: Vec<Bin> = (0..view.n)
            .filter(|b| !view.owners.contains_key(b))
            .collect();
        match free.len() {
            0 => BinsMsg::Stuck,
            1 => BinsMsg::Claim(free[0]),
            len => {
                if self.choices == 1 {
                    BinsMsg::Claim(free[rng.random_range(0..len)])
                } else {
                    let i = rng.random_range(0..len);
                    let j = (i + 1 + rng.random_range(0..len - 1)) % len;
                    BinsMsg::Claim2(free[i], free[j])
                }
            }
        }
    }

    fn apply(&self, view: &mut BinsView, round: Round, inbox: RoundInbox<'_, BinsMsg>) {
        // 1. Reclaim: release bins whose recorded owner sent nothing.
        if self.reclaim && !round.is_init() {
            view.owners
                .retain(|_, owner| inbox.labels().contains(owner));
        }
        // 2. Holds refresh (and repair divergent) ownership.
        for (label, msg) in inbox.iter() {
            if let BinsMsg::Hold(bin) = msg {
                view.owners.insert(*bin, label);
            }
        }
        // 3. Claims: each bin accepts its smallest claimant; each winner
        // takes the smallest bin it won (a declined bin stays free this
        // round). This is a deterministic function of the claim multiset,
        // so views that heard the same claims stay identical.
        let mut claimants: BTreeMap<Bin, Vec<Label>> = BTreeMap::new();
        for (label, msg) in inbox.iter() {
            match msg {
                BinsMsg::Claim(b) => claimants.entry(*b).or_default().push(label),
                BinsMsg::Claim2(a, b) => {
                    claimants.entry(*a).or_default().push(label);
                    claimants.entry(*b).or_default().push(label);
                }
                _ => {}
            }
        }
        let mut winners: BTreeMap<Label, Bin> = BTreeMap::new();
        for (bin, labels) in &claimants {
            if *bin < view.n && !view.owners.contains_key(bin) {
                let w = *labels.iter().min().expect("non-empty claimant list");
                // Smallest bin wins if a ball won several.
                let entry = winners.entry(w).or_insert(*bin);
                *entry = (*entry).min(*bin);
            }
        }
        for (ball, bin) in winners {
            view.owners.insert(bin, ball);
        }
        // 4. Global-completion tracking for the Hold rule.
        view.pending = inbox.msgs().iter().any(|m| {
            matches!(
                m,
                BinsMsg::Claim(_) | BinsMsg::Claim2(_, _) | BinsMsg::Stuck
            )
        });
    }

    fn status(&self, view: &BinsView, ball: Label, _round: Round) -> Status {
        let Some(bin) = view.bin_of(ball) else {
            return Status::Running;
        };
        match self.decide {
            DecideRule::Eager => Status::Decided(Name(bin)),
            DecideRule::Hold => {
                if view.pending {
                    Status::Running
                } else {
                    Status::Decided(Name(bin))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bil_core::check_tight_renaming;
    use bil_runtime::adversary::{NoFailures, Scripted, ScriptedCrash};
    use bil_runtime::engine::EngineOptions;
    use bil_runtime::{ExecutorKind, Outcome, SeedTree};

    fn labels(n: u64) -> Vec<Label> {
        (0..n).map(|i| Label(i * 3 + 1)).collect()
    }

    fn wire_roundtrip(msg: BinsMsg) {
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(BinsMsg::from_bytes(bytes).unwrap(), msg);
    }

    #[test]
    fn message_wire_roundtrips() {
        wire_roundtrip(BinsMsg::Claim(0));
        wire_roundtrip(BinsMsg::Claim(u32::MAX));
        wire_roundtrip(BinsMsg::Claim2(3, 77777));
        wire_roundtrip(BinsMsg::Hold(12));
        wire_roundtrip(BinsMsg::Stuck);
        assert!(BinsMsg::from_bytes(Bytes::from_static(&[7])).is_err());
    }

    #[test]
    fn hold_variants_solve_renaming_failure_free() {
        for proto in [RetryBins::uniform(), RetryBins::two_choice()] {
            for seed in 0..4 {
                let report = ExecutorKind::Clustered
                    .run(
                        proto,
                        labels(16),
                        NoFailures,
                        SeedTree::new(seed),
                        EngineOptions::default(),
                    )
                    .unwrap();
                let v = check_tight_renaming(&report);
                assert!(v.holds(), "{proto:?} seed={seed}: {v}");
            }
        }
    }

    #[test]
    fn eager_strict_solves_renaming_failure_free() {
        for seed in 0..4 {
            let report = ExecutorKind::Clustered
                .run(
                    RetryBins::eager_strict(),
                    labels(16),
                    NoFailures,
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap();
            let v = check_tight_renaming(&report);
            assert!(v.holds(), "seed={seed}: {v}");
        }
    }

    /// Eager + reclaim is broken *by construction*: a winner decides and
    /// goes silent, peers cannot distinguish that from a crash, release
    /// its bin, and reassign its name — no failures needed. This is the
    /// impossibility the paper's motivation points at.
    #[test]
    fn eager_reclaim_duplicates_even_failure_free() {
        let mut violated = false;
        for seed in 0..20 {
            let report = ExecutorKind::Clustered
                .run(
                    RetryBins::eager_reclaim(),
                    labels(16),
                    NoFailures,
                    SeedTree::new(seed),
                    EngineOptions {
                        max_rounds: Some(64),
                        ..EngineOptions::default()
                    },
                )
                .unwrap();
            if !check_tight_renaming(&report).uniqueness {
                violated = true;
                break;
            }
        }
        assert!(violated, "reclaim must reassign decided names");
    }

    #[test]
    fn single_ball_decides_quickly() {
        let report = ExecutorKind::Clustered
            .run(
                RetryBins::eager_strict(),
                labels(1),
                NoFailures,
                SeedTree::new(0),
                EngineOptions::default(),
            )
            .unwrap();
        assert!(report.completed());
        assert_eq!(report.rounds, 1);
        let hold = ExecutorKind::Clustered
            .run(
                RetryBins::uniform(),
                labels(1),
                NoFailures,
                SeedTree::new(0),
                EngineOptions::default(),
            )
            .unwrap();
        assert!(hold.completed());
        assert_eq!(hold.rounds, 2);
    }

    /// A split-delivery crash plus the reclaim rule reassigns a decided
    /// ball's bin: the uniqueness violation the paper warns about. We
    /// scan seeds until the violation materializes (contention is
    /// randomized, so no single seed is guaranteed).
    #[test]
    fn eager_reclaim_violates_uniqueness_under_crashes() {
        let mut violated = false;
        for seed in 0..200 {
            let script = vec![
                ScriptedCrash {
                    round: Round(0),
                    victim_index: 0,
                    modulus: 2,
                    residue: 0,
                },
                ScriptedCrash {
                    round: Round(0),
                    victim_index: 1,
                    modulus: 2,
                    residue: 1,
                },
            ];
            let report = ExecutorKind::Clustered
                .run(
                    RetryBins::eager_reclaim(),
                    labels(8),
                    Scripted::new(script),
                    SeedTree::new(seed),
                    EngineOptions {
                        max_rounds: Some(64),
                        ..EngineOptions::default()
                    },
                )
                .unwrap();
            let v = check_tight_renaming(&report);
            if !v.uniqueness {
                violated = true;
                break;
            }
        }
        assert!(
            violated,
            "expected at least one uniqueness violation across 200 seeds"
        );
    }

    /// The strict wait-free variant never duplicates names and always
    /// terminates: every crash wastes at most one booking per view, so an
    /// unplaced ball always finds a free bin. (The cost is rounds, not
    /// safety — E13/E2 measure the `Θ(log n)` growth.)
    #[test]
    fn eager_strict_is_safe_and_terminates_under_crashes() {
        for seed in 0..100 {
            let script = vec![
                ScriptedCrash {
                    round: Round(0),
                    victim_index: 0,
                    modulus: 2,
                    residue: 0,
                },
                ScriptedCrash {
                    round: Round(1),
                    victim_index: 0,
                    modulus: 2,
                    residue: 1,
                },
                ScriptedCrash {
                    round: Round(2),
                    victim_index: 1,
                    modulus: 2,
                    residue: 0,
                },
            ];
            let report = ExecutorKind::Clustered
                .run(
                    RetryBins::eager_strict(),
                    labels(8),
                    Scripted::new(script),
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap();
            assert_ne!(report.outcome, Outcome::RoundLimit, "seed={seed}");
            let v = check_tight_renaming(&report);
            assert!(v.holds(), "seed={seed}: {v}");
        }
    }

    /// The Hold+reclaim repair stays safe under arbitrary crash
    /// schedules (it maintains consistent views by force — at the price
    /// of per-ball wait-freedom, which E13 quantifies).
    #[test]
    fn hold_reclaim_safe_under_crashes() {
        for seed in 0..20 {
            let script = vec![
                ScriptedCrash {
                    round: Round(seed % 5),
                    victim_index: seed as usize,
                    modulus: 2,
                    residue: 0,
                },
                ScriptedCrash {
                    round: Round((seed + 2) % 6),
                    victim_index: (seed + 1) as usize,
                    modulus: 3,
                    residue: 1,
                },
            ];
            let report = ExecutorKind::Clustered
                .run(
                    RetryBins::uniform(),
                    labels(12),
                    Scripted::new(script),
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap();
            let v = check_tight_renaming(&report);
            assert!(v.holds(), "seed={seed}: {v}");
        }
    }

    #[test]
    fn two_choice_not_slower_than_uniform_on_average() {
        let mut uni = 0u64;
        let mut two = 0u64;
        for seed in 0..24 {
            uni += ExecutorKind::Clustered
                .run(
                    RetryBins::uniform(),
                    labels(64),
                    NoFailures,
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap()
                .rounds;
            two += ExecutorKind::Clustered
                .run(
                    RetryBins::two_choice(),
                    labels(64),
                    NoFailures,
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap()
                .rounds;
        }
        assert!(
            two <= uni + 24,
            "two-choice should not be meaningfully slower: {two} vs {uni}"
        );
    }
}
