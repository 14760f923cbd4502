//! Run reports: everything an experiment needs to know about one execution.

use crate::ids::{Label, Name, ProcId, Round};

/// One process's decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// The decided name.
    pub name: Name,
    /// The round (0-based) at the end of which the process decided.
    pub round: Round,
}

/// A crash that actually happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// Crashed process slot.
    pub pid: ProcId,
    /// Its label.
    pub label: Label,
    /// The round in which it crashed.
    pub round: Round,
}

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every correct process decided.
    Completed,
    /// The engine hit its round limit with undecided correct processes —
    /// either a liveness bug or a deliberately hostile scenario.
    RoundLimit,
}

/// The full account of one synchronous execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Number of processes `n`.
    pub n: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// Rounds executed (the paper's communication rounds; round 0, the
    /// initialization broadcast, counts as one round).
    pub rounds: u64,
    /// Per-slot decision, `None` for processes that crashed undecided or
    /// were still running at the round limit.
    pub decisions: Vec<Option<Decision>>,
    /// Labels by slot, as assigned at construction.
    pub labels: Vec<Label>,
    /// All crashes, in order of occurrence.
    pub crashes: Vec<CrashEvent>,
    /// Point-to-point messages sent (a broadcast counts `n − 1`).
    pub messages_sent: u64,
    /// Point-to-point messages actually delivered.
    pub messages_delivered: u64,
    /// Wire bytes sent (encoded length × recipients).
    pub wire_bytes_sent: u64,
    /// Whether the run completed or hit the round limit.
    pub outcome: Outcome,
}

impl RunReport {
    /// `true` if every correct process decided.
    pub fn completed(&self) -> bool {
        self.outcome == Outcome::Completed
    }

    /// Number of crashes that occurred (the paper's `f`).
    pub fn failures(&self) -> usize {
        self.crashes.len()
    }

    /// Names decided by *correct* processes (crashed processes may have
    /// decided before crashing; those decisions are excluded here, matching
    /// the problem definition, which constrains correct processes).
    pub fn correct_names(&self) -> Vec<Name> {
        let crashed: Vec<ProcId> = self.crashes.iter().map(|c| c.pid).collect();
        self.decisions
            .iter()
            .enumerate()
            .filter(|(pid, _)| !crashed.contains(&ProcId(*pid as u32)))
            .filter_map(|(_, d)| d.map(|d| d.name))
            .collect()
    }

    /// All decided names including those of processes that decided and
    /// later crashed. Uniqueness must hold here too: a decided-then-crashed
    /// process has externally acted on its name.
    pub fn all_names(&self) -> Vec<Name> {
        self.decisions
            .iter()
            .filter_map(|d| d.map(|d| d.name))
            .collect()
    }

    /// Per-process decision latency (rounds until decision), for processes
    /// that decided. Round 0 counts, so a decision at the end of round `r`
    /// has latency `r + 1`.
    pub fn decision_latencies(&self) -> Vec<u64> {
        self.decisions
            .iter()
            .filter_map(|d| d.map(|d| d.round.0 + 1))
            .collect()
    }

    /// The phase count: `rounds = 1 (init) + 2 · phases` when the run
    /// completed on a phase boundary; rounded up otherwise.
    pub fn phases(&self) -> u64 {
        self.rounds.saturating_sub(1).div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            n: 3,
            seed: 1,
            rounds: 5,
            decisions: vec![
                Some(Decision {
                    name: Name(0),
                    round: Round(4),
                }),
                None,
                Some(Decision {
                    name: Name(2),
                    round: Round(2),
                }),
            ],
            labels: vec![Label(10), Label(20), Label(30)],
            crashes: vec![CrashEvent {
                pid: ProcId(1),
                label: Label(20),
                round: Round(1),
            }],
            messages_sent: 12,
            messages_delivered: 11,
            wire_bytes_sent: 99,
            outcome: Outcome::Completed,
        }
    }

    #[test]
    fn completed_and_failures() {
        let r = sample();
        assert!(r.completed());
        assert_eq!(r.failures(), 1);
    }

    #[test]
    fn correct_names_excludes_crashed() {
        let mut r = sample();
        // Give the crashed process a (pre-crash) decision; it should be in
        // all_names but not correct_names.
        r.decisions[1] = Some(Decision {
            name: Name(1),
            round: Round(0),
        });
        assert_eq!(r.correct_names(), vec![Name(0), Name(2)]);
        assert_eq!(r.all_names(), vec![Name(0), Name(1), Name(2)]);
    }

    #[test]
    fn decision_latencies_count_round_zero() {
        let r = sample();
        assert_eq!(r.decision_latencies(), vec![5, 3]);
    }

    #[test]
    fn phases_from_rounds() {
        let r = sample();
        // 5 rounds = init + 2 phases.
        assert_eq!(r.phases(), 2);
    }
}
