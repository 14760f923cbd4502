//! Tiny protocols used by tests, benchmarks, and doc examples.
//!
//! These are deliberately *not* correct renaming algorithms under crashes;
//! they exist to exercise engine mechanics (view splitting, re-merging,
//! decision plumbing) with the smallest possible state. The real
//! algorithms live in `bil-core` and `bil-baselines`.

use bytes::{Bytes, BytesMut};
use rand::rngs::SmallRng;

use crate::ids::{Label, Name, Round};
use crate::view::{RoundInbox, Status, ViewProtocol};
use crate::wire::{Wire, WireError};

/// Message carrying a set of labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelSet(pub Vec<Label>);

impl Wire for LabelSet {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(LabelSet(Vec::<Label>::decode(buf)?))
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

/// One-round protocol: broadcast labels, decide your rank among the labels
/// you heard. Correct only in failure-free runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankOnce;

impl ViewProtocol for RankOnce {
    type Msg = LabelSet;
    type View = Vec<Label>;

    fn init_view(&self, _n: usize) -> Self::View {
        Vec::new()
    }

    fn compose(
        &self,
        _view: &Self::View,
        ball: Label,
        _round: Round,
        _rng: &mut SmallRng,
    ) -> Self::Msg {
        LabelSet(vec![ball])
    }

    fn apply(&self, view: &mut Self::View, _round: Round, inbox: RoundInbox<'_, Self::Msg>) {
        // The label column is already sorted — SoA pays off directly.
        *view = inbox.labels().to_vec();
    }

    fn status(&self, view: &Self::View, ball: Label, _round: Round) -> Status {
        match view.binary_search(&ball) {
            Ok(rank) => Status::Decided(Name(rank as u32)),
            Err(_) => Status::Running,
        }
    }
}

/// Multi-round flooding: repeatedly broadcast all known labels, union the
/// inboxes, decide your rank after a fixed number of rounds. With more
/// rounds than crashes this reaches identical views (there is a crash-free
/// round), so ranks are distinct — it is the skeleton of the `FloodRank`
/// baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnionRank {
    rounds: u64,
}

impl UnionRank {
    /// Decide at the end of round `rounds − 1`.
    ///
    /// # Panics
    ///
    /// Panics if `rounds == 0`.
    pub fn rounds(rounds: u64) -> Self {
        assert!(rounds > 0, "UnionRank needs at least one round");
        UnionRank { rounds }
    }
}

impl ViewProtocol for UnionRank {
    type Msg = LabelSet;
    type View = Vec<Label>;

    fn init_view(&self, _n: usize) -> Self::View {
        Vec::new()
    }

    fn compose(
        &self,
        view: &Self::View,
        ball: Label,
        _round: Round,
        _rng: &mut SmallRng,
    ) -> Self::Msg {
        let mut known = view.clone();
        if let Err(i) = known.binary_search(&ball) {
            known.insert(i, ball);
        }
        LabelSet(known)
    }

    fn apply(&self, view: &mut Self::View, _round: Round, inbox: RoundInbox<'_, Self::Msg>) {
        for LabelSet(labels) in inbox.msgs() {
            for l in labels {
                if let Err(i) = view.binary_search(l) {
                    view.insert(i, *l);
                }
            }
        }
    }

    fn status(&self, view: &Self::View, ball: Label, round: Round) -> Status {
        if round.0 + 1 < self.rounds {
            return Status::Running;
        }
        match view.binary_search(&ball) {
            Ok(rank) => Status::Decided(Name(rank as u32)),
            Err(_) => Status::Running,
        }
    }
}

/// [`UnionRank`] whose processes retire in different rounds: label `l`
/// decides its rank at the end of round `rounds − 1 − l mod rounds`, so
/// a run of `rounds` rounds retires processes in each of them and the
/// executors' stores lose members while others keep composing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaggeredRank(pub UnionRank);

impl ViewProtocol for StaggeredRank {
    type Msg = LabelSet;
    type View = Vec<Label>;

    fn init_view(&self, n: usize) -> Self::View {
        self.0.init_view(n)
    }

    fn compose(
        &self,
        view: &Self::View,
        ball: Label,
        round: Round,
        rng: &mut SmallRng,
    ) -> LabelSet {
        self.0.compose(view, ball, round, rng)
    }

    fn apply(&self, view: &mut Self::View, round: Round, inbox: RoundInbox<'_, LabelSet>) {
        self.0.apply(view, round, inbox);
    }

    fn status(&self, view: &Self::View, ball: Label, round: Round) -> Status {
        // Shifted by `l mod rounds`, round `rounds − 1 − l mod rounds`
        // reads as [`UnionRank`]'s deciding round.
        self.0
            .status(view, ball, Round(round.0 + ball.0 % self.0.rounds))
    }
}

/// A message whose encoding deliberately fails to decode: `encode` emits
/// a byte that `decode` rejects as [`WireError::BadTag`]. Used to
/// exercise the wire executors' structured decode-error paths (a
/// malformed frame must surface as a [`crate::error::RunError`], never a
/// panic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Mangled;

impl Wire for Mangled {
    fn encode(&self, buf: &mut BytesMut) {
        use bytes::BufMut;
        buf.put_u8(0xEE);
    }

    fn decode(_buf: &mut Bytes) -> Result<Self, WireError> {
        Err(WireError::BadTag(0xEE))
    }

    fn encoded_len(&self) -> usize {
        1
    }
}

/// Protocol whose every broadcast is a [`Mangled`] message — any executor
/// that actually moves bytes must turn it into a decode error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrokenWire;

impl ViewProtocol for BrokenWire {
    type Msg = Mangled;
    type View = u32;

    fn init_view(&self, _n: usize) -> Self::View {
        0
    }

    fn compose(
        &self,
        _view: &Self::View,
        _ball: Label,
        _round: Round,
        _rng: &mut SmallRng,
    ) -> Self::Msg {
        Mangled
    }

    fn apply(&self, view: &mut Self::View, _round: Round, inbox: RoundInbox<'_, Self::Msg>) {
        *view += inbox.len() as u32;
    }

    fn status(&self, _view: &Self::View, _ball: Label, _round: Round) -> Status {
        Status::Running
    }
}

/// `n` distinct, non-contiguous labels for the executor tests.
#[cfg(test)]
pub(crate) fn labels(n: u64) -> Vec<Label> {
    (0..n).map(|i| Label(i * 19 + 3)).collect()
}

/// Two scripted crashes with partial deliveries, in rounds 0 and 1: the
/// fixed schedule the executor tests compare runs under.
#[cfg(test)]
pub(crate) fn two_crashes() -> crate::adversary::Scripted {
    use crate::adversary::{Scripted, ScriptedCrash};
    let crash = |round, victim_index, modulus, residue| ScriptedCrash {
        round: Round(round),
        victim_index,
        modulus,
        residue,
    };
    Scripted::new(vec![crash(0, 2, 2, 0), crash(1, 4, 3, 1)])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn label_set_wire_roundtrip() {
        let set = LabelSet(vec![Label(1), Label(1 << 40)]);
        let bytes = set.to_bytes();
        assert_eq!(LabelSet::from_bytes(bytes).unwrap(), set);
    }

    #[test]
    fn rank_once_status_before_apply_is_running() {
        let p = RankOnce;
        let view = p.init_view(4);
        assert_eq!(p.status(&view, Label(3), Round(0)), Status::Running);
    }

    #[test]
    fn union_rank_compose_includes_self() {
        let p = UnionRank::rounds(2);
        let view = vec![Label(5)];
        let mut rng = SmallRng::seed_from_u64(0);
        let LabelSet(m) = p.compose(&view, Label(2), Round(1), &mut rng);
        assert_eq!(m, vec![Label(2), Label(5)]);
    }

    #[test]
    fn staggered_rank_decides_label_l_at_round_rounds_minus_1_minus_l_mod_rounds() {
        let p = StaggeredRank(UnionRank::rounds(3));
        let view: Vec<Label> = (0..6).map(Label).collect();
        for l in 0..6u64 {
            let decides_at = 2 - l % 3;
            for r in 0..4 {
                let status = p.status(&view, Label(l), Round(r));
                assert_eq!(
                    status == Status::Running,
                    r < decides_at,
                    "label {l}, round {r}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn union_rank_zero_rounds_panics() {
        let _ = UnionRank::rounds(0);
    }

    #[test]
    fn mangled_never_roundtrips() {
        let bytes = Mangled.to_bytes();
        assert_eq!(bytes.len(), Mangled.encoded_len());
        assert!(matches!(
            Mangled::from_bytes(bytes),
            Err(WireError::BadTag(0xEE))
        ));
    }
}
