//! Crash-failure adversaries.
//!
//! The paper's model (§3): up to `t < n` processes crash; a process may
//! crash *while broadcasting*, in which case an arbitrary subset of the
//! recipients receives its final message. The complexity analysis holds
//! against a **strong adaptive adversary**: one that, in every round, sees
//! all process states and all messages produced in that round — including
//! the outcomes of this round's coin flips — *before* deciding whom to
//! crash and who still hears the dying broadcast.
//!
//! [`Adversary::plan`] is handed exactly that view: the round's
//! participants in slot order, and their broadcasts in label order, the
//! order the round delivers them in. Position-based choices (a scripted
//! victim index, a random pick) index the slot-ordered participants, so
//! they do not depend on how the round orders its broadcasts. Generic
//! adversaries (failure-free, oblivious random, bursts, scripted
//! schedules) live here; adversaries that inspect Balls-into-Leaves
//! message *content* live in `bil-core::adversary`, since they are
//! protocol-specific.

use rand::rngs::SmallRng;
use rand::Rng;

use crate::ids::{Label, ProcId, Round};

/// Which recipients still receive the final broadcast of a crashing
/// process (the paper's "some balls may receive this broadcast, while
/// others do not").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recipients {
    /// Nobody receives the final message (crash before sending).
    None,
    /// Everyone receives the final message (crash just after sending).
    All,
    /// Exactly this set of process slots receives the final message.
    Set(Vec<ProcId>),
}

impl Recipients {
    /// Whether `dst` receives the dying broadcast.
    pub fn contains(&self, dst: ProcId) -> bool {
        match self {
            Recipients::None => false,
            Recipients::All => true,
            Recipients::Set(set) => set.contains(&dst),
        }
    }
}

/// One crash directive: `victim` crashes this round, and `deliver_to`
/// receives its final message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Crash {
    /// The process that crashes this round.
    pub victim: ProcId,
    /// Who still receives its outgoing message(s) from this round.
    pub deliver_to: Recipients,
}

/// The adversary's decision for one round.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashPlan {
    /// Crash directives; victims must be alive, undecided, and within the
    /// remaining budget (the engine enforces all three).
    pub crashes: Vec<Crash>,
}

impl CrashPlan {
    /// The empty plan: nobody crashes.
    pub fn none() -> Self {
        CrashPlan::default()
    }

    /// Plan with a single crash.
    pub fn one(victim: ProcId, deliver_to: Recipients) -> Self {
        CrashPlan {
            crashes: vec![Crash { victim, deliver_to }],
        }
    }
}

/// Everything the strong adaptive adversary sees in a round, *before*
/// delivery: every participating process's outgoing message for this round
/// (coin flips included), plus liveness/decision status.
///
/// The round's participants come in two orders: `participants` in slot
/// order, and `outgoing` in label order, the order the round delivers
/// in. An adversary that picks a victim by position reads
/// `participants`; one that inspects messages reads `outgoing`.
#[derive(Debug)]
pub struct AdversaryView<'a, M> {
    /// The current round.
    pub round: Round,
    /// Every alive, undecided process, in slot order.
    pub participants: &'a [ProcId],
    /// `(slot, label, message)` for every participant, sorted by label.
    /// Processes broadcast, so one entry per participant.
    pub outgoing: &'a [(ProcId, Label, M)],
    /// `alive[p]` is false once `p` has crashed.
    pub alive: &'a [bool],
    /// `decided[p]` is true once `p` has decided and gone silent.
    pub decided: &'a [bool],
    /// How many more crashes the budget `t` allows.
    pub budget_left: usize,
    /// Total number of processes `n`.
    pub n: usize,
}

impl<M> AdversaryView<'_, M> {
    /// Slots that are alive and undecided this round, in slot order.
    pub fn participants(&self) -> impl Iterator<Item = ProcId> + '_ {
        self.participants.iter().copied()
    }

    /// Number of alive, undecided processes.
    pub fn participant_count(&self) -> usize {
        self.participants.len()
    }
}

/// A crash-failure adversary with budget `t < n`.
///
/// Implementations are driven once per round by the engines. They may keep
/// state across rounds (the adversary is a full-information automaton).
pub trait Adversary<M> {
    /// Decide this round's crashes given the full-information view.
    ///
    /// Directives that name dead, decided, or repeated victims, or exceed
    /// `view.budget_left`, are dropped by the engine (extra directives are
    /// ignored in plan order).
    fn plan(&mut self, view: &AdversaryView<'_, M>) -> CrashPlan;

    /// The total crash budget `t`. Engines additionally clamp to `n − 1`
    /// so that at least one process survives, per the model.
    fn budget(&self) -> usize;
}

impl<M> Adversary<M> for Box<dyn Adversary<M> + Send + '_> {
    fn plan(&mut self, view: &AdversaryView<'_, M>) -> CrashPlan {
        (**self).plan(view)
    }

    fn budget(&self) -> usize {
        (**self).budget()
    }
}

/// The failure-free adversary: never crashes anyone.
///
/// # Examples
///
/// ```
/// use bil_runtime::adversary::{Adversary, NoFailures};
/// let a = NoFailures;
/// assert_eq!(<NoFailures as Adversary<()>>::budget(&a), 0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoFailures;

impl<M> Adversary<M> for NoFailures {
    fn plan(&mut self, _view: &AdversaryView<'_, M>) -> CrashPlan {
        CrashPlan::none()
    }

    fn budget(&self) -> usize {
        0
    }
}

/// Oblivious random adversary: each round, each remaining budget unit
/// fires with probability `rate`, crashing a uniformly random participant
/// and delivering its dying broadcast to an i.i.d. coin-flip subset.
#[derive(Debug, Clone)]
pub struct RandomCrash {
    budget: usize,
    rate: f64,
    rng: SmallRng,
}

impl RandomCrash {
    /// Creates a random adversary with total `budget` crashes, per-round
    /// firing probability `rate` per budget unit, and its own RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `0.0..=1.0`.
    pub fn new(budget: usize, rate: f64, rng: SmallRng) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        RandomCrash { budget, rate, rng }
    }
}

impl<M> Adversary<M> for RandomCrash {
    fn plan(&mut self, view: &AdversaryView<'_, M>) -> CrashPlan {
        let mut plan = CrashPlan::none();
        if view.participant_count() <= 1 {
            return plan;
        }
        let mut chosen: Vec<ProcId> = Vec::new();
        for _ in 0..view.budget_left {
            if !self.rng.random_bool(self.rate) {
                continue;
            }
            let candidates: Vec<ProcId> = view
                .participants()
                .filter(|p| !chosen.contains(p))
                .collect();
            if candidates.is_empty() {
                break;
            }
            let victim = candidates[self.rng.random_range(0..candidates.len())];
            chosen.push(victim);
            let mut set = Vec::new();
            for dst in 0..view.n as u32 {
                let dst = ProcId(dst);
                if dst != victim && self.rng.random_bool(0.5) {
                    set.push(dst);
                }
            }
            plan.crashes.push(Crash {
                victim,
                deliver_to: Recipients::Set(set),
            });
        }
        plan
    }

    fn budget(&self) -> usize {
        self.budget
    }
}

/// Crashes `count` random participants in a single, fixed `round`, each
/// delivering its dying broadcast to alternating halves of the others
/// (slot-parity split) to maximize view divergence.
#[derive(Debug, Clone)]
pub struct CrashBurst {
    round: Round,
    count: usize,
    rng: SmallRng,
}

impl CrashBurst {
    /// Burst of `count` crashes in `round`.
    pub fn new(round: Round, count: usize, rng: SmallRng) -> Self {
        CrashBurst { round, count, rng }
    }
}

impl<M> Adversary<M> for CrashBurst {
    fn plan(&mut self, view: &AdversaryView<'_, M>) -> CrashPlan {
        if view.round != self.round {
            return CrashPlan::none();
        }
        let mut participants: Vec<ProcId> = view.participants().collect();
        let mut plan = CrashPlan::none();
        let k = self.count.min(view.budget_left);
        for i in 0..k {
            if participants.len() <= 1 {
                break;
            }
            let idx = self.rng.random_range(0..participants.len());
            let victim = participants.swap_remove(idx);
            // Alternate splits per victim so different victims partition
            // the survivors differently.
            let set: Vec<ProcId> = (0..view.n as u32)
                .map(ProcId)
                .filter(|d| *d != victim && (d.0 as usize + i).is_multiple_of(2))
                .collect();
            plan.crashes.push(Crash {
                victim,
                deliver_to: Recipients::Set(set),
            });
        }
        plan
    }

    fn budget(&self) -> usize {
        self.count
    }
}

/// Crashes exactly one participant per round (lowest label first),
/// delivering to the odd-slot half, until the budget runs out. A simple
/// deterministic "steady attrition" adversary.
#[derive(Debug, Clone, Copy)]
pub struct SteadyAttrition {
    budget: usize,
}

impl SteadyAttrition {
    /// One crash per round, `budget` crashes in total.
    pub fn new(budget: usize) -> Self {
        SteadyAttrition { budget }
    }
}

impl<M> Adversary<M> for SteadyAttrition {
    fn plan(&mut self, view: &AdversaryView<'_, M>) -> CrashPlan {
        if view.budget_left == 0 || view.participant_count() <= 1 {
            return CrashPlan::none();
        }
        let victim = view
            .outgoing
            .iter()
            .min_by_key(|(_, label, _)| *label)
            .map(|(p, _, _)| *p)
            // bil-lint: allow(hot-path-panic): the participant_count guard above returns early when nobody is outgoing
            .expect("participant_count > 1");
        let set: Vec<ProcId> = (0..view.n as u32)
            .map(ProcId)
            .filter(|d| *d != victim && d.0 % 2 == 1)
            .collect();
        CrashPlan::one(victim, Recipients::Set(set))
    }

    fn budget(&self) -> usize {
        self.budget
    }
}

/// One scripted crash directive: round, victim chosen by index into the
/// participant list (mod its length), and a recipient pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptedCrash {
    /// The round in which to crash.
    pub round: Round,
    /// Index into the round's participant list (slot order), taken mod
    /// its length.
    pub victim_index: usize,
    /// Recipient pattern: `dst` receives iff `(dst.0 as usize) % modulus == residue`.
    /// `modulus == 0` means deliver to nobody; `modulus == 1` to everyone.
    pub modulus: usize,
    /// Residue class selecting the recipients.
    pub residue: usize,
}

/// Replays an explicit crash schedule. This is the adversary that
/// proptest drives: arbitrary `(round, victim, recipient-pattern)` vectors
/// exercise every interleaving of crash timing and partial delivery.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scripted {
    script: Vec<ScriptedCrash>,
}

impl Scripted {
    /// An adversary replaying `script`. Directives for the same round are
    /// applied in order.
    pub fn new(script: Vec<ScriptedCrash>) -> Self {
        Scripted { script }
    }

    /// Number of scripted directives.
    pub fn len(&self) -> usize {
        self.script.len()
    }

    /// `true` if no crash is scripted.
    pub fn is_empty(&self) -> bool {
        self.script.is_empty()
    }
}

impl<M> Adversary<M> for Scripted {
    fn plan(&mut self, view: &AdversaryView<'_, M>) -> CrashPlan {
        let mut plan = CrashPlan::none();
        for d in self.script.iter().filter(|d| d.round == view.round) {
            let k = view.participant_count();
            if k <= 1 {
                break;
            }
            let victim = view.participants[d.victim_index % k];
            let deliver_to = match d.modulus {
                0 => Recipients::None,
                1 => Recipients::All,
                m => Recipients::Set(
                    (0..view.n as u32)
                        .map(ProcId)
                        .filter(|p| *p != victim && (p.0 as usize) % m == d.residue % m)
                        .collect(),
                ),
            };
            plan.crashes.push(Crash { victim, deliver_to });
        }
        plan
    }

    fn budget(&self) -> usize {
        self.script.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedTree;

    fn view_of<'a>(
        participants: &'a [ProcId],
        outgoing: &'a [(ProcId, Label, u32)],
        alive: &'a [bool],
        decided: &'a [bool],
        budget_left: usize,
    ) -> AdversaryView<'a, u32> {
        AdversaryView {
            round: Round(1),
            participants,
            outgoing,
            alive,
            decided,
            budget_left,
            n: alive.len(),
        }
    }

    /// Slots `0..n`, each labelled with its own index, so label order is
    /// slot order.
    fn mk_outgoing(n: u32) -> (Vec<ProcId>, Vec<(ProcId, Label, u32)>) {
        let out: Vec<_> = (0..n).map(|i| (ProcId(i), Label(i as u64), i)).collect();
        (out.iter().map(|&(p, _, _)| p).collect(), out)
    }

    #[test]
    fn recipients_contains() {
        assert!(!Recipients::None.contains(ProcId(0)));
        assert!(Recipients::All.contains(ProcId(0)));
        let set = Recipients::Set(vec![ProcId(1), ProcId(3)]);
        assert!(set.contains(ProcId(1)));
        assert!(!set.contains(ProcId(2)));
    }

    #[test]
    fn no_failures_never_crashes() {
        let (slots, out) = mk_outgoing(4);
        let alive = vec![true; 4];
        let decided = vec![false; 4];
        let mut a = NoFailures;
        let plan = Adversary::<u32>::plan(&mut a, &view_of(&slots, &out, &alive, &decided, 3));
        assert!(plan.crashes.is_empty());
    }

    #[test]
    fn random_crash_respects_budget_left() {
        let (slots, out) = mk_outgoing(8);
        let alive = vec![true; 8];
        let decided = vec![false; 8];
        let mut a = RandomCrash::new(8, 1.0, SeedTree::new(1).adversary_rng());
        let plan = Adversary::<u32>::plan(&mut a, &view_of(&slots, &out, &alive, &decided, 3));
        assert!(plan.crashes.len() <= 3);
        // With rate 1.0 and budget_left 3 and 8 participants, all 3 fire.
        assert_eq!(plan.crashes.len(), 3);
        // Victims are distinct.
        let mut victims: Vec<ProcId> = plan.crashes.iter().map(|c| c.victim).collect();
        victims.dedup();
        assert_eq!(victims.len(), 3);
    }

    #[test]
    fn random_crash_spares_last_participant() {
        let (slots, out) = mk_outgoing(1);
        let alive = vec![true];
        let decided = vec![false];
        let mut a = RandomCrash::new(4, 1.0, SeedTree::new(2).adversary_rng());
        let plan = Adversary::<u32>::plan(&mut a, &view_of(&slots, &out, &alive, &decided, 4));
        assert!(plan.crashes.is_empty());
    }

    #[test]
    fn crash_burst_fires_only_in_its_round() {
        let (slots, out) = mk_outgoing(6);
        let alive = vec![true; 6];
        let decided = vec![false; 6];
        let mut a = CrashBurst::new(Round(1), 2, SeedTree::new(3).adversary_rng());
        let plan = Adversary::<u32>::plan(&mut a, &view_of(&slots, &out, &alive, &decided, 5));
        assert_eq!(plan.crashes.len(), 2);

        let mut a2 = CrashBurst::new(Round(7), 2, SeedTree::new(3).adversary_rng());
        let plan2 = Adversary::<u32>::plan(&mut a2, &view_of(&slots, &out, &alive, &decided, 5));
        assert!(plan2.crashes.is_empty());
    }

    #[test]
    fn steady_attrition_picks_lowest_label() {
        let slots = [ProcId(0), ProcId(1), ProcId(2)];
        let out = vec![
            (ProcId(1), Label(10), 1u32),
            (ProcId(2), Label(20), 2),
            (ProcId(0), Label(30), 0),
        ];
        let alive = vec![true; 3];
        let decided = vec![false; 3];
        let mut a = SteadyAttrition::new(2);
        let plan = Adversary::<u32>::plan(&mut a, &view_of(&slots, &out, &alive, &decided, 2));
        assert_eq!(plan.crashes.len(), 1);
        assert_eq!(plan.crashes[0].victim, ProcId(1));
    }

    #[test]
    fn scripted_replays_patterns() {
        let (slots, out) = mk_outgoing(4);
        let alive = vec![true; 4];
        let decided = vec![false; 4];
        let mut a = Scripted::new(vec![ScriptedCrash {
            round: Round(1),
            victim_index: 2,
            modulus: 2,
            residue: 0,
        }]);
        assert_eq!(a.len(), 1);
        assert!(!a.is_empty());
        let plan = Adversary::<u32>::plan(&mut a, &view_of(&slots, &out, &alive, &decided, 4));
        assert_eq!(plan.crashes.len(), 1);
        assert_eq!(plan.crashes[0].victim, ProcId(2));
        match &plan.crashes[0].deliver_to {
            Recipients::Set(set) => assert_eq!(set, &vec![ProcId(0)]),
            other => panic!("expected Set, got {other:?}"),
        }
    }

    #[test]
    fn scripted_indexes_participants_in_slot_order_not_label_order() {
        // Label order (outgoing) is 2, 0, 3, 1; slot order is 0, 1, 2, 3.
        let slots = [ProcId(0), ProcId(1), ProcId(2), ProcId(3)];
        let out = vec![
            (ProcId(2), Label(5), 2u32),
            (ProcId(0), Label(7), 0),
            (ProcId(3), Label(8), 3),
            (ProcId(1), Label(9), 1),
        ];
        let alive = vec![true; 4];
        let decided = vec![false; 4];
        for (index, victim) in [(0, 0), (1, 1), (2, 2), (3, 3), (6, 2)] {
            let mut a = Scripted::new(vec![ScriptedCrash {
                round: Round(1),
                victim_index: index,
                modulus: 0,
                residue: 0,
            }]);
            let plan = Adversary::<u32>::plan(&mut a, &view_of(&slots, &out, &alive, &decided, 4));
            assert_eq!(plan.crashes[0].victim, ProcId(victim), "index {index}");
        }
    }

    #[test]
    fn scripted_modulus_extremes() {
        let (slots, out) = mk_outgoing(3);
        let alive = vec![true; 3];
        let decided = vec![false; 3];
        let mut a = Scripted::new(vec![
            ScriptedCrash {
                round: Round(1),
                victim_index: 0,
                modulus: 0,
                residue: 0,
            },
            ScriptedCrash {
                round: Round(1),
                victim_index: 1,
                modulus: 1,
                residue: 0,
            },
        ]);
        let plan = Adversary::<u32>::plan(&mut a, &view_of(&slots, &out, &alive, &decided, 4));
        assert_eq!(plan.crashes[0].deliver_to, Recipients::None);
        assert_eq!(plan.crashes[1].deliver_to, Recipients::All);
    }

    #[test]
    fn plan_constructors() {
        assert!(CrashPlan::none().crashes.is_empty());
        let p = CrashPlan::one(ProcId(1), Recipients::All);
        assert_eq!(p.crashes.len(), 1);
    }
}
