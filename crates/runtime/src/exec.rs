//! The one way to start a run: pick one of the five executors.
//!
//! Every executor in this crate runs the same [`crate::pipeline`] round
//! loop and produces a bit-identical [`RunReport`] for the same
//! `(protocol, labels, adversary, seed)`; they differ only in where
//! views live and how messages travel. [`ExecutorKind`] names the five
//! choices as plain data, and [`ExecutorKind::run`] builds the kind's
//! [`crate::pipeline::Transport`] and runs the pipeline over it — so
//! higher layers (the experiment harness's scenario dispatch, the
//! long-lived renaming service's epochs) can carry an executor choice
//! around without re-rolling the dispatch match.
//!
//! # Examples
//!
//! ```
//! use bil_runtime::adversary::NoFailures;
//! use bil_runtime::engine::EngineOptions;
//! use bil_runtime::exec::ExecutorKind;
//! use bil_runtime::testproto::RankOnce;
//! use bil_runtime::{Label, SeedTree};
//!
//! let labels: Vec<Label> = (0..8).map(|i| Label(5 * i + 2)).collect();
//! let report = ExecutorKind::Clustered.run(
//!     RankOnce,
//!     labels,
//!     NoFailures,
//!     SeedTree::new(3),
//!     EngineOptions::default(),
//! )?;
//! assert!(report.completed());
//! # Ok::<(), bil_runtime::RunError>(())
//! ```

use std::fmt;

use crate::adversary::Adversary;
use crate::engine::EngineOptions;
use crate::error::RunError;
use crate::ids::Label;
use crate::parallel::ParallelTransport;
use crate::pipeline::{LocalTransport, RoundPipeline};
use crate::rng::SeedTree;
use crate::socket::SocketTransport;
use crate::threaded::ChannelTransport;
use crate::trace::RunReport;
use crate::view::{NoObserver, Observer, ViewProtocol};

/// One of the five interchangeable executors (see the crate docs for the
/// table). All of them produce bit-identical reports; the choice picks a
/// cost profile and what is being demonstrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// Cluster-sharing in-memory engine (fast, default).
    #[default]
    Clustered,
    /// Views shared by delivery history, never re-merged (reference
    /// semantics).
    PerProcess,
    /// Slot-range worker threads over in-process channels.
    Threaded,
    /// Clustered views with rounds sharded across OS threads.
    Parallel,
    /// Slot-range worker threads over loopback TCP, exchanging
    /// length-prefixed frames of wire bytes.
    Socket,
}

impl ExecutorKind {
    /// Every kind, in the order used by comparison sweeps.
    pub const ALL: [ExecutorKind; 5] = [
        ExecutorKind::Clustered,
        ExecutorKind::PerProcess,
        ExecutorKind::Threaded,
        ExecutorKind::Parallel,
        ExecutorKind::Socket,
    ];

    /// Parses a CLI name (`clustered`, `per-process`, `threaded`,
    /// `parallel`, `socket`): the inverse of [`fmt::Display`].
    pub fn parse(name: &str) -> Option<ExecutorKind> {
        Self::ALL.into_iter().find(|kind| kind.to_string() == name)
    }

    /// The largest `n` this executor can feasibly carry, if bounded.
    ///
    /// The wire executors (threaded and socket) both run a few
    /// slot-range workers that share views by delivery history (one
    /// view per divergence class instead of one per slot), so neither
    /// is bounded by threads or per-slot view memory; both are capped
    /// at `2^16` by per-round wire traffic — every round still ships
    /// `O(n)` encoded broadcasts across the thread (resp. loopback)
    /// boundary. Per-process is the same cluster store as clustered with
    /// re-merge off: views that crashes split never coalesce again, so a
    /// crash-heavy run can accumulate up to one view per slot, and it
    /// keeps the `2^16` cap of the wire workers, which run that same
    /// store. Callers such as the experiment harness refuse larger
    /// systems loudly instead of crashing or running out of memory
    /// mid-sweep; the clustered and parallel executors are unbounded.
    pub fn max_n(self) -> Option<usize> {
        match self {
            ExecutorKind::Clustered | ExecutorKind::Parallel => None,
            ExecutorKind::PerProcess | ExecutorKind::Threaded | ExecutorKind::Socket => {
                Some(1 << 16)
            }
        }
    }

    /// Runs `(protocol, labels, adversary, seeds)` on this executor to
    /// completion (or the round limit of `options`).
    ///
    /// # Errors
    ///
    /// Returns [`RunError::Config`] for invalid labels, and the wire
    /// executors' transport failures ([`RunError::Decode`],
    /// [`RunError::Io`], …); the in-memory executors never fail past
    /// construction.
    pub fn run<P, A>(
        self,
        protocol: P,
        labels: Vec<Label>,
        adversary: A,
        seeds: SeedTree,
        options: EngineOptions,
    ) -> Result<RunReport, RunError>
    where
        P: ViewProtocol + Clone + Send + 'static,
        A: Adversary<P::Msg>,
    {
        self.run_observed(protocol, labels, adversary, seeds, options, &mut NoObserver)
    }

    /// [`ExecutorKind::run`], calling `observer` after every round's
    /// views are updated — and before decided members retire from their
    /// clusters, so a deciding process's final view is observable.
    ///
    /// Only the in-memory executors (clustered, per-process, parallel)
    /// call `observer`. The wire executors (threaded, socket) keep their
    /// views in worker threads, not in the calling thread, so they never
    /// call it; their reports are still bit-identical.
    ///
    /// # Errors
    ///
    /// As for [`ExecutorKind::run`].
    pub fn run_observed<P, A>(
        self,
        protocol: P,
        labels: Vec<Label>,
        adversary: A,
        seeds: SeedTree,
        options: EngineOptions,
        observer: &mut dyn Observer<P>,
    ) -> Result<RunReport, RunError>
    where
        P: ViewProtocol + Clone + Send + 'static,
        A: Adversary<P::Msg>,
    {
        // Validate the configuration before building a transport, so no
        // worker is spawned for a run that cannot start.
        let round_limit = options.round_limit(labels.len());
        let pipeline = RoundPipeline::new(labels, adversary, seeds, round_limit)?;
        let labels = pipeline.labels();
        let mut local = match self {
            ExecutorKind::Clustered => LocalTransport::clustered(protocol, labels, &seeds),
            ExecutorKind::PerProcess => LocalTransport::per_process(protocol, labels, &seeds),
            ExecutorKind::Parallel => ParallelTransport::new(protocol, labels, &seeds),
            ExecutorKind::Threaded => {
                let mut wire =
                    ChannelTransport::spawn_with(&protocol, labels, &seeds, options.wire);
                return pipeline.run(&mut wire, observer);
            }
            ExecutorKind::Socket => {
                let mut wire = SocketTransport::spawn(&protocol, labels, &seeds, options.wire)?;
                return pipeline.run(&mut wire, observer);
            }
        };
        pipeline.run(&mut local, observer)
    }
}

impl fmt::Display for ExecutorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ExecutorKind::Clustered => "clustered",
            ExecutorKind::PerProcess => "per-process",
            ExecutorKind::Threaded => "threaded",
            ExecutorKind::Parallel => "parallel",
            ExecutorKind::Socket => "socket",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    //! One table over all five executors: bad labels, equivalence with
    //! the clustered engine, round mechanics under scripted crashes, the
    //! round limit, and observation.

    use super::*;
    use crate::adversary::{NoFailures, Scripted, ScriptedCrash};
    use crate::engine::ConfigError;
    use crate::ids::{Name, ProcId, Round};
    use crate::pipeline::{RoundMessages, Transport};
    use crate::socket::SocketOptions;
    use crate::testproto::{labels, two_crashes, RankOnce, UnionRank};
    use crate::trace::Outcome;
    use crate::view::{Cluster, FnObserver, ObserverCtx, Status};

    fn run<P, A>(kind: ExecutorKind, protocol: P, n: u64, adversary: A, seed: u64) -> RunReport
    where
        P: ViewProtocol + Clone + Send + 'static,
        A: Adversary<P::Msg>,
    {
        let (labels, seeds) = (labels(n), SeedTree::new(seed));
        let report = kind.run(protocol, labels, adversary, seeds, EngineOptions::default());
        report.unwrap_or_else(|e| panic!("{kind}: {e}"))
    }

    /// A crash in `round` of participant `victim_index`, whose broadcast
    /// reaches the slots `≡ residue (mod modulus)`.
    fn crash(round: u64, victim_index: usize, modulus: usize, residue: usize) -> ScriptedCrash {
        ScriptedCrash {
            round: Round(round),
            victim_index,
            modulus,
            residue,
        }
    }

    #[test]
    fn every_kind_matches_the_clustered_engine() {
        // Random crash schedules are covered by the runtime property
        // suite; these fixed ones pin the table in unit-test time. The
        // clustered row replays each run, so it also pins determinism.
        let late_crash = || Scripted::new(vec![crash(1, 2, 2, 0)]);
        for kind in ExecutorKind::ALL {
            let clustered = ExecutorKind::Clustered;
            assert_eq!(
                run(clustered, RankOnce, 10, NoFailures, 9),
                run(kind, RankOnce, 10, NoFailures, 9),
                "{kind}"
            );
            for seed in 0..5 {
                assert_eq!(
                    run(clustered, UnionRank::rounds(4), 12, two_crashes(), seed),
                    run(kind, UnionRank::rounds(4), 12, two_crashes(), seed),
                    "{kind}, seed {seed}"
                );
            }
            assert_eq!(
                run(clustered, UnionRank::rounds(3), 9, late_crash(), 11),
                run(kind, UnionRank::rounds(3), 9, late_crash(), 11),
                "{kind}"
            );
        }
    }

    #[test]
    fn every_kind_decides_ranks_and_counts_messages() {
        for kind in ExecutorKind::ALL {
            let report = run(kind, RankOnce, 8, NoFailures, 1);
            assert!(report.completed(), "{kind}");
            assert_eq!(report.rounds, 1, "{kind}");
            // `labels` is ascending, so each process's rank is its slot.
            for (pid, decision) in report.decisions.iter().enumerate() {
                assert_eq!(decision.unwrap().name, Name(pid as u32), "{kind}");
            }
            // One round, 4 broadcasts of n − 1 = 3 messages.
            let report = run(kind, RankOnce, 4, NoFailures, 1);
            assert_eq!(report.messages_sent, 12, "{kind}");
            assert_eq!(report.messages_delivered, 12, "{kind}");
            assert!(report.wire_bytes_sent > 0, "{kind}");
        }
    }

    #[test]
    fn every_kind_splits_remerges_and_clamps_under_scripted_crashes() {
        for kind in ExecutorKind::ALL {
            // A crash mid-broadcast splits views: survivors who heard the
            // victim rank over 6 labels, the others over 5, so RankOnce
            // may hand out duplicates — which is why it is NOT a correct
            // renaming algorithm under crashes. Only the mechanics are
            // asserted: every correct process decided something and the
            // victim decided nothing.
            let split = Scripted::new(vec![crash(0, 0, 2, 0)]);
            let report = run(kind, RankOnce, 6, split, 2);
            assert!(report.completed(), "{kind}");
            assert_eq!(report.failures(), 1, "{kind}");
            let victim = report.crashes[0].pid;
            assert!(report.decisions[victim.index()].is_none(), "{kind}");
            for p in (0..6).filter(|&p| ProcId(p) != victim) {
                assert!(report.decisions[p as usize].is_some(), "{kind}");
            }

            // After a crash-free round of flooding the split views agree
            // again, so every correct name is distinct.
            let split = Scripted::new(vec![crash(0, 0, 2, 1)]);
            let report = run(kind, UnionRank::rounds(3), 6, split, 3);
            assert!(report.completed(), "{kind}");
            let mut names = report.correct_names();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), 5, "{kind}");

            // A script that kills one process per round for 5 rounds is
            // clamped to the budget of n − 1 = 2.
            let script = Scripted::new((0..5).map(|r| crash(r, 0, 1, 0)).collect());
            let report = run(kind, UnionRank::rounds(6), 3, script, 4);
            assert!(report.failures() <= 2, "{kind}");
            assert!(report.completed(), "{kind}");
        }
    }

    #[test]
    fn every_kind_rejects_bad_labels_before_running() {
        for kind in ExecutorKind::ALL {
            let run = |labels| {
                kind.run(
                    RankOnce,
                    labels,
                    NoFailures,
                    SeedTree::new(0),
                    EngineOptions::default(),
                )
            };
            assert_eq!(
                run(vec![]),
                Err(RunError::Config(ConfigError::EmptySystem)),
                "{kind}"
            );
            assert_eq!(
                run(vec![Label(1), Label(2), Label(1)]),
                Err(RunError::Config(ConfigError::DuplicateLabel(Label(1)))),
                "{kind}"
            );
        }
    }

    #[test]
    fn every_kind_stops_at_the_round_limit() {
        for kind in ExecutorKind::ALL {
            let report = kind
                .run(
                    UnionRank::rounds(100),
                    labels(4),
                    NoFailures,
                    SeedTree::new(1),
                    EngineOptions {
                        max_rounds: Some(2),
                        ..EngineOptions::default()
                    },
                )
                .unwrap();
            assert_eq!(report.outcome, Outcome::RoundLimit, "{kind}");
            assert_eq!(report.rounds, 2, "{kind}");
        }
    }

    #[test]
    fn in_memory_kinds_observe_every_round_and_wire_kinds_none() {
        for kind in ExecutorKind::ALL {
            let mut rounds_seen = Vec::new();
            let mut obs = FnObserver(|ctx: ObserverCtx<'_>, _: &[Cluster<_>]| {
                rounds_seen.push(ctx.round);
            });
            let report = kind
                .run_observed(
                    UnionRank::rounds(3),
                    labels(5),
                    NoFailures,
                    SeedTree::new(6),
                    EngineOptions::default(),
                    &mut obs,
                )
                .unwrap();
            assert!(report.completed(), "{kind}");
            let expected = match kind {
                ExecutorKind::Threaded | ExecutorKind::Socket => vec![],
                _ => vec![Round(0), Round(1), Round(2)],
            };
            assert_eq!(rounds_seen, expected, "{kind}");
        }
    }

    /// Forwards every call to `inner`, checking each compose against
    /// the transport contract: exactly the participants, each with its
    /// own label, strictly label-ascending. Counts the clusters the
    /// in-memory stores show, to prove the schedule split them.
    struct ContractCheck<T> {
        inner: T,
        labels: Vec<Label>,
        most_clusters: usize,
    }

    impl<P: ViewProtocol, T: Transport<P>> Transport<P> for ContractCheck<T> {
        fn compose(
            &mut self,
            round: Round,
            participants: &[ProcId],
        ) -> Result<Vec<(ProcId, Label, P::Msg)>, RunError> {
            let out = self.inner.compose(round, participants)?;
            let order: Vec<Label> = out.iter().map(|&(_, label, _)| label).collect();
            assert!(order.windows(2).all(|w| w[0] < w[1]), "{round}: {order:?}");
            for &(p, label, _) in &out {
                assert_eq!(label, self.labels[p.index()], "{round}: {p}'s label");
            }
            let mut slots: Vec<ProcId> = out.iter().map(|&(p, _, _)| p).collect();
            slots.sort_unstable();
            assert_eq!(slots, participants, "{round}: composed slots");
            Ok(out)
        }

        fn crashed(&mut self, pid: ProcId) -> Result<(), RunError> {
            self.inner.crashed(pid)
        }

        fn apply(
            &mut self,
            round: Round,
            alive: &[bool],
            survivors: &[ProcId],
            msgs: &RoundMessages<P::Msg>,
        ) -> Result<(), RunError> {
            self.inner.apply(round, alive, survivors, msgs)
        }

        fn observe(&mut self, ctx: ObserverCtx<'_>, _: &mut dyn Observer<P>) {
            let most = &mut self.most_clusters;
            let mut count = FnObserver(|_: ObserverCtx<'_>, clusters: &[Cluster<P::View>]| {
                *most = (*most).max(clusters.len());
            });
            self.inner.observe(ctx, &mut count);
        }

        fn sweep(&mut self, round: Round) -> Result<Vec<(ProcId, Status)>, RunError> {
            self.inner.sweep(round)
        }

        fn shutdown(&mut self) {
            self.inner.shutdown();
        }
    }

    /// Labels a permutation of slot order, and crashes in rounds 0–2
    /// whose partial deliveries split the views, so later rounds compose
    /// from several clusters.
    fn contract_run() -> (Vec<Label>, SeedTree, Scripted) {
        let labels = (0..12u64).map(|i| Label(i * 5 % 12 * 3 + 1)).collect();
        let schedule = vec![crash(0, 3, 2, 0), crash(1, 5, 3, 1), crash(2, 1, 2, 1)];
        (labels, SeedTree::new(21), Scripted::new(schedule))
    }

    /// Runs [`contract_run`] over `inner` wrapped in a [`ContractCheck`],
    /// returning the report and the most clusters any round showed.
    fn run_checked<P: ViewProtocol, T: Transport<P>>(inner: T) -> (RunReport, usize) {
        let (labels, seeds, schedule) = contract_run();
        let mut t = ContractCheck {
            inner,
            labels: labels.clone(),
            most_clusters: 0,
        };
        let pipeline = RoundPipeline::new(labels, schedule, seeds, 100).unwrap();
        let report = pipeline.run(&mut t, &mut NoObserver).unwrap();
        (report, t.most_clusters)
    }

    #[test]
    fn every_kind_composes_exactly_the_participants_in_label_order() {
        // The parallel store over 3 shards, each wire kind over 3
        // workers, so runs of several clusters cross shard and worker
        // boundaries.
        let (labels, seeds, schedule) = contract_run();
        let p = UnionRank::rounds(6);
        let reference = ExecutorKind::Clustered
            .run(p, labels.clone(), schedule, seeds, EngineOptions::default())
            .unwrap();
        assert_eq!(reference.failures(), 3);
        let three = SocketOptions {
            workers: Some(3),
            ..SocketOptions::default()
        };
        let socket = SocketTransport::spawn(&p, &labels, &seeds, three).unwrap();
        let runs = [
            (
                ExecutorKind::Clustered,
                run_checked(LocalTransport::clustered(p, &labels, &seeds)),
            ),
            (
                ExecutorKind::PerProcess,
                run_checked(LocalTransport::per_process(p, &labels, &seeds)),
            ),
            (
                ExecutorKind::Parallel,
                run_checked(ParallelTransport::with_threads(p, &labels, &seeds, 3)),
            ),
            (
                ExecutorKind::Threaded,
                run_checked(ChannelTransport::spawn_with(&p, &labels, &seeds, three)),
            ),
            (ExecutorKind::Socket, run_checked(socket)),
        ];
        for (kind, (report, most_clusters)) in runs {
            assert_eq!(report, reference, "{kind}");
            let in_memory = !matches!(kind, ExecutorKind::Threaded | ExecutorKind::Socket);
            assert!(
                !in_memory || most_clusters >= 2,
                "{kind}: views never split"
            );
        }
    }

    #[test]
    fn display_names() {
        let names: Vec<String> = ExecutorKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(
            names,
            ["clustered", "per-process", "threaded", "parallel", "socket"]
        );
        for kind in ExecutorKind::ALL {
            assert_eq!(ExecutorKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(ExecutorKind::parse("warp-drive"), None);
    }
}
