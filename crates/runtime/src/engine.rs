//! The deterministic lock-step executor.
//!
//! [`SyncEngine`] implements the paper's synchronous model (§3): in each
//! round every alive, undecided process broadcasts one message, the strong
//! adaptive adversary chooses crashes and partial deliveries *after* seeing
//! all of this round's messages, and every surviving process then folds its
//! inbox into its local view.
//!
//! The round structure itself lives in [`crate::pipeline::RoundPipeline`];
//! this engine is a thin driver that picks a transport for one of three
//! observationally-equivalent modes ([`EngineMode`]):
//!
//! * [`EngineMode::PerProcess`] — the reference semantics: a process's
//!   view is exactly what its own delivery history dictates. Views are
//!   physically shared by delivery history (one cluster until partial
//!   deliveries diverge inboxes) but, unlike the clustered mode, diverged
//!   views **never re-merge** — so the mode exercises the
//!   no-recoalescing execution shape without paying `n` identical views.
//! * [`EngineMode::Clustered`] — processes with bit-identical views share
//!   one view; views split on partial deliveries and re-merge when they
//!   become equal again (which the paper's position-resynchronization round
//!   makes the common case). Failure-free this is a single shared view.
//! * [`EngineMode::Parallel`] — clustered semantics with each round's
//!   compose and apply work sharded across OS threads
//!   ([`crate::parallel::ParallelTransport`]: the clustered store with a
//!   shard count above 1), merged deterministically.
//!
//! Equivalence of the modes is asserted by unit, property, and workspace
//! tests.

use std::fmt;

use crate::adversary::Adversary;
use crate::ids::Label;
use crate::parallel::ParallelTransport;
use crate::pipeline::{LocalTransport, RoundPipeline};
use crate::rng::SeedTree;
use crate::trace::RunReport;
use crate::view::{NoObserver, Observer, ViewProtocol};

pub use crate::pipeline::ConfigError;

/// Execution mode; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineMode {
    /// Share identical views between processes (fast, default).
    #[default]
    Clustered,
    /// Views shared by delivery history, never re-merged (reference
    /// semantics).
    PerProcess,
    /// Clustered semantics with per-round work sharded across OS threads.
    Parallel,
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineOptions {
    /// Hard stop after this many rounds; `None` picks `8·n + 64`, which is
    /// far above the paper's deterministic `O(n)`-phase termination bound
    /// (Lemma 11) and therefore only trips on genuine liveness failures.
    pub max_rounds: Option<u64>,
    /// Execution mode.
    pub mode: EngineMode,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            max_rounds: None,
            mode: EngineMode::Clustered,
        }
    }
}

impl EngineOptions {
    pub(crate) fn round_limit(&self, n: usize) -> u64 {
        self.max_rounds.unwrap_or(8 * n as u64 + 64)
    }
}

/// One lock-step execution of a [`ViewProtocol`] against an
/// [`Adversary`].
///
/// # Examples
///
/// ```
/// # use bil_runtime::engine::{SyncEngine, EngineOptions};
/// # use bil_runtime::adversary::NoFailures;
/// # use bil_runtime::rng::SeedTree;
/// # use bil_runtime::Label;
/// # use bil_runtime::testproto::RankOnce;
/// let labels: Vec<Label> = (0..8).map(|i| Label(10 * i + 3)).collect();
/// let engine = SyncEngine::new(RankOnce, labels, NoFailures, SeedTree::new(7))?;
/// let report = engine.run();
/// assert!(report.completed());
/// # Ok::<(), bil_runtime::engine::ConfigError>(())
/// ```
pub struct SyncEngine<P: ViewProtocol, A> {
    protocol: P,
    /// Built, and its labels validated, at construction.
    pipeline: RoundPipeline<A>,
    seeds: SeedTree,
    options: EngineOptions,
}

impl<P: ViewProtocol + fmt::Debug, A: fmt::Debug> fmt::Debug for SyncEngine<P, A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SyncEngine")
            .field("protocol", &self.protocol)
            .field("pipeline", &self.pipeline)
            .field("options", &self.options)
            .finish()
    }
}

impl<P, A> SyncEngine<P, A>
where
    P: ViewProtocol,
    A: Adversary<P::Msg>,
{
    /// Creates an engine with default options.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `labels` is empty or contains duplicates.
    pub fn new(
        protocol: P,
        labels: Vec<Label>,
        adversary: A,
        seeds: SeedTree,
    ) -> Result<Self, ConfigError> {
        Self::with_options(protocol, labels, adversary, seeds, EngineOptions::default())
    }

    /// Creates an engine with explicit [`EngineOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `labels` is empty or contains duplicates.
    pub fn with_options(
        protocol: P,
        labels: Vec<Label>,
        adversary: A,
        seeds: SeedTree,
        options: EngineOptions,
    ) -> Result<Self, ConfigError> {
        let round_limit = options.round_limit(labels.len());
        Ok(SyncEngine {
            protocol,
            pipeline: RoundPipeline::new(labels, adversary, seeds, round_limit)?,
            seeds,
            options,
        })
    }

    /// Runs to completion (or the round limit) without observation.
    pub fn run(self) -> RunReport {
        self.run_observed(&mut NoObserver)
    }

    /// Runs to completion (or the round limit), calling `observer` after
    /// every round's views are updated — and before decided members
    /// retire from their clusters, so a deciding process's final view is
    /// observable.
    ///
    /// Every [`EngineMode`] is backed by an in-memory transport, which is
    /// infallible past construction — unlike the two wire executors
    /// ([`crate::threaded::run_threaded`], [`crate::socket::run_socket`]:
    /// one [`crate::worker::WorkerTransport`] over two carriers), whose
    /// drivers return a [`crate::error::RunError`].
    pub fn run_observed(self, observer: &mut dyn Observer<P>) -> RunReport {
        let SyncEngine {
            protocol,
            pipeline,
            seeds,
            options,
        } = self;
        let labels = pipeline.labels();
        let mut transport = match options.mode {
            EngineMode::Clustered => LocalTransport::clustered(protocol, labels, &seeds),
            EngineMode::PerProcess => LocalTransport::per_process(protocol, labels, &seeds),
            EngineMode::Parallel => ParallelTransport::new(protocol, labels, &seeds),
        };
        let result = pipeline.run(&mut transport, observer);
        // bil-lint: allow(no-panic): in-memory transports are infallible past construction; `run` keeps its infallible API
        result.expect("in-memory transports are infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{NoFailures, Scripted, ScriptedCrash};
    use crate::ids::{Name, ProcId, Round};
    use crate::testproto::{RankOnce, UnionRank};

    fn labels(n: u64) -> Vec<Label> {
        // Deliberately non-contiguous, shuffled-ish labels.
        (0..n).map(|i| Label((i * 37 + 11) % (n * 40))).collect()
    }

    #[test]
    fn rank_once_failure_free_decides_ranks() {
        let ls = labels(8);
        let engine = SyncEngine::new(RankOnce, ls.clone(), NoFailures, SeedTree::new(1)).unwrap();
        let report = engine.run();
        assert!(report.completed());
        assert_eq!(report.rounds, 1);
        let mut sorted = ls.clone();
        sorted.sort_unstable();
        for (pid, l) in ls.iter().enumerate() {
            let rank = sorted.iter().position(|x| x == l).unwrap() as u32;
            assert_eq!(report.decisions[pid].unwrap().name, Name(rank));
        }
    }

    #[test]
    fn message_accounting_failure_free() {
        let ls = labels(4);
        let engine = SyncEngine::new(RankOnce, ls, NoFailures, SeedTree::new(1)).unwrap();
        let report = engine.run();
        // One round, 4 broadcasts of n−1 = 3 messages.
        assert_eq!(report.messages_sent, 12);
        assert_eq!(report.messages_delivered, 12);
        assert!(report.wire_bytes_sent > 0);
    }

    #[test]
    fn crash_mid_broadcast_splits_views() {
        let ls = labels(6);
        // Crash participant index 0 in round 0, delivering to even slots.
        let adv = Scripted::new(vec![ScriptedCrash {
            round: Round(0),
            victim_index: 0,
            modulus: 2,
            residue: 0,
        }]);
        let engine = SyncEngine::new(RankOnce, ls, adv, SeedTree::new(2)).unwrap();
        let report = engine.run();
        assert!(report.completed());
        assert_eq!(report.failures(), 1);
        // Survivors who heard the victim computed ranks over 6 labels;
        // the others over 5 — so names may collide under RankOnce, which
        // is exactly why RankOnce is NOT a correct renaming algorithm under
        // crashes. Here we only assert engine mechanics: all correct
        // processes decided *something* and the victim decided nothing.
        let victim = report.crashes[0].pid;
        assert!(report.decisions[victim.index()].is_none());
        for p in 0..6 {
            if ProcId(p as u32) != victim {
                assert!(report.decisions[p].is_some());
            }
        }
    }

    #[test]
    fn union_rank_remerges_clusters_and_agrees() {
        let ls = labels(6);
        let adv = Scripted::new(vec![ScriptedCrash {
            round: Round(0),
            victim_index: 0,
            modulus: 2,
            residue: 1,
        }]);
        let engine = SyncEngine::new(UnionRank::rounds(3), ls, adv, SeedTree::new(3)).unwrap();
        let report = engine.run();
        assert!(report.completed());
        // After a crash-free round of flooding, all views agree, so all
        // correct names are distinct.
        let mut names = report.correct_names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 5);
    }

    #[test]
    fn deterministic_replay() {
        let ls = labels(9);
        let mk = || {
            SyncEngine::new(
                UnionRank::rounds(3),
                ls.clone(),
                Scripted::new(vec![ScriptedCrash {
                    round: Round(1),
                    victim_index: 2,
                    modulus: 2,
                    residue: 0,
                }]),
                SeedTree::new(11),
            )
            .unwrap()
        };
        assert_eq!(mk().run(), mk().run());
    }

    #[test]
    fn budget_clamped_to_n_minus_1() {
        let ls = labels(3);
        // Script wants to kill one per round for 5 rounds; budget must be
        // clamped to n−1 = 2 by the engine.
        let script: Vec<ScriptedCrash> = (0..5)
            .map(|r| ScriptedCrash {
                round: Round(r),
                victim_index: 0,
                modulus: 1,
                residue: 0,
            })
            .collect();
        let engine = SyncEngine::new(
            UnionRank::rounds(6),
            ls,
            Scripted::new(script),
            SeedTree::new(4),
        )
        .unwrap();
        let report = engine.run();
        assert!(report.failures() <= 2);
        assert!(report.completed());
    }

    #[test]
    fn observer_sees_every_round() {
        use crate::view::{Cluster, FnObserver, ObserverCtx};
        let ls = labels(5);
        let mut rounds_seen = Vec::new();
        {
            let mut obs = FnObserver(|ctx: ObserverCtx<'_>, _: &[Cluster<_>]| {
                rounds_seen.push(ctx.round);
            });
            let engine =
                SyncEngine::new(UnionRank::rounds(3), ls, NoFailures, SeedTree::new(6)).unwrap();
            engine.run_observed(&mut obs);
        }
        assert_eq!(rounds_seen, vec![Round(0), Round(1), Round(2)]);
    }
}
