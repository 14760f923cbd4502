//! `FloodRank`: tight renaming by flooding, in `t + 1` rounds.
//!
//! The paper's related-work section (§2): *"In synchronous systems,
//! wait-free tight renaming can be solved using reliable broadcast or
//! consensus to agree on the set of existing ids. This approach requires
//! linear round complexity."* This is that approach: every process
//! floods the set of ids it knows for `t + 1` rounds; because at most `t`
//! processes crash, some round is crash-free, after which all correct
//! processes hold identical sets and can decide the rank of their own id.
//! Round complexity `t + 1 = Θ(n)` for the wait-free setting `t = n − 1`
//! — the linear baseline of experiment E2.

use bytes::{Bytes, BytesMut};
use rand::rngs::SmallRng;

use bil_runtime::wire::{Wire, WireError};
use bil_runtime::{Label, Name, Round, RoundInbox, Status, ViewProtocol};

/// The flooded payload: all ids known to the sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdSet(pub Vec<Label>);

impl Wire for IdSet {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(IdSet(Vec::<Label>::decode(buf)?))
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

/// Flooding-based tight renaming tolerating `t` crashes in `t + 1`
/// rounds.
///
/// # Examples
///
/// ```
/// use bil_baselines::FloodRank;
/// use bil_runtime::adversary::NoFailures;
/// use bil_runtime::engine::EngineOptions;
/// use bil_runtime::{ExecutorKind, Label, SeedTree};
///
/// # fn main() -> Result<(), bil_runtime::RunError> {
/// let labels: Vec<Label> = (0..8).map(|i| Label(i * 5)).collect();
/// let report = ExecutorKind::Clustered.run(
///     FloodRank::tolerating(7),
///     labels,
///     NoFailures,
///     SeedTree::new(0),
///     EngineOptions::default(),
/// )?;
/// assert!(report.completed());
/// assert_eq!(report.rounds, 8); // t + 1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FloodRank {
    t: u64,
}

impl FloodRank {
    /// Tolerates up to `t` crashes; decides at the end of round `t`
    /// (i.e. after `t + 1` rounds).
    pub fn tolerating(t: usize) -> Self {
        FloodRank { t: t as u64 }
    }

    /// The wait-free instantiation for `n` processes (`t = n − 1`).
    pub fn wait_free(n: usize) -> Self {
        Self::tolerating(n.saturating_sub(1))
    }

    /// The crash budget this instance tolerates.
    pub fn tolerance(&self) -> usize {
        self.t as usize
    }
}

impl ViewProtocol for FloodRank {
    type Msg = IdSet;
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
        IdSet(known)
    }

    fn apply(&self, view: &mut Self::View, _round: Round, inbox: RoundInbox<'_, Self::Msg>) {
        for IdSet(ids) in inbox.msgs() {
            for id in ids {
                if let Err(i) = view.binary_search(id) {
                    view.insert(i, *id);
                }
            }
        }
    }

    fn status(&self, view: &Self::View, ball: Label, round: Round) -> Status {
        if round.0 < self.t {
            return Status::Running;
        }
        match view.binary_search(&ball) {
            Ok(rank) => Status::Decided(Name(rank as u32)),
            Err(_) => Status::Running,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bil_core::check_tight_renaming;
    use bil_runtime::adversary::{NoFailures, Scripted, ScriptedCrash};
    use bil_runtime::engine::EngineOptions;
    use bil_runtime::{ExecutorKind, SeedTree};

    fn labels(n: u64) -> Vec<Label> {
        (0..n).map(|i| Label(i * 7 + 3)).collect()
    }

    #[test]
    fn failure_free_decides_in_t_plus_one_rounds() {
        for n in [1usize, 2, 5, 16] {
            let report = ExecutorKind::Clustered
                .run(
                    FloodRank::wait_free(n),
                    labels(n as u64),
                    NoFailures,
                    SeedTree::new(1),
                    EngineOptions::default(),
                )
                .unwrap();
            assert!(report.completed());
            assert_eq!(report.rounds, n as u64, "t + 1 = n rounds");
            assert!(check_tight_renaming(&report).holds());
        }
    }

    #[test]
    fn renaming_holds_under_crashes_within_tolerance() {
        for seed in 0..8 {
            let script: Vec<ScriptedCrash> = (0..4)
                .map(|i| ScriptedCrash {
                    round: Round(i),
                    victim_index: (seed as usize + i as usize) % 13,
                    modulus: 2 + (i as usize % 3),
                    residue: i as usize,
                })
                .collect();
            let report = ExecutorKind::Clustered
                .run(
                    FloodRank::wait_free(10),
                    labels(10),
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
    fn names_preserve_label_order_failure_free() {
        let ls = labels(9);
        let report = ExecutorKind::Clustered
            .run(
                FloodRank::wait_free(9),
                ls.clone(),
                NoFailures,
                SeedTree::new(2),
                EngineOptions::default(),
            )
            .unwrap();
        let mut sorted = ls.clone();
        sorted.sort_unstable();
        for (pid, l) in ls.iter().enumerate() {
            let rank = sorted.iter().position(|x| x == l).unwrap() as u32;
            assert_eq!(report.decisions[pid].unwrap().name.0, rank);
        }
    }

    #[test]
    fn tolerance_accessor() {
        assert_eq!(FloodRank::tolerating(5).tolerance(), 5);
        assert_eq!(FloodRank::wait_free(8).tolerance(), 7);
    }
}
