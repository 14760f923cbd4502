//! Uniform dispatch over the five executors.
//!
//! Every executor in this crate runs the same [`crate::pipeline`] round
//! loop and produces a bit-identical [`RunReport`] for the same
//! `(protocol, labels, adversary, seed)`; they differ only in where
//! views live and how messages travel. [`ExecutorKind`] names the five
//! choices as plain data, and [`ExecutorKind::run`] maps a kind onto the
//! concrete driver — so higher layers (the experiment harness's scenario
//! dispatch, the long-lived renaming service's epoch driver) can carry
//! an executor choice around without re-rolling the dispatch match.
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
use crate::engine::{EngineMode, EngineOptions, SyncEngine};
use crate::error::RunError;
use crate::ids::Label;
use crate::pipeline::RoundPipeline;
use crate::rng::SeedTree;
use crate::socket::{SocketOptions, SocketTransport};
use crate::threaded::ChannelTransport;
use crate::trace::RunReport;
use crate::view::{NoObserver, ViewProtocol};

/// One of the five interchangeable executors (see the crate docs for the
/// table). All of them produce bit-identical reports; the choice picks a
/// cost profile and what is being demonstrated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutorKind {
    /// Cluster-sharing in-memory engine (fast, default).
    #[default]
    Clustered,
    /// One view per process (reference semantics).
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
    /// boundary. Per-process is capped at `2^16` by its `O(n)` per-slot
    /// round bookkeeping (RNG streams, compose fan-out). Callers such as
    /// the experiment harness refuse larger systems loudly instead of
    /// crashing or running out of memory mid-sweep; the clustered and
    /// parallel executors are unbounded.
    pub fn max_n(self) -> Option<usize> {
        match self {
            ExecutorKind::Clustered | ExecutorKind::Parallel => None,
            ExecutorKind::PerProcess | ExecutorKind::Threaded | ExecutorKind::Socket => {
                Some(1 << 16)
            }
        }
    }

    /// The [`EngineMode`] backing this kind, or `None` for the wire
    /// executors (channel and socket), which are standalone drivers.
    pub fn engine_mode(self) -> Option<EngineMode> {
        match self {
            ExecutorKind::Clustered => Some(EngineMode::Clustered),
            ExecutorKind::PerProcess => Some(EngineMode::PerProcess),
            ExecutorKind::Parallel => Some(EngineMode::Parallel),
            ExecutorKind::Threaded | ExecutorKind::Socket => None,
        }
    }

    /// Runs `(protocol, labels, adversary, seeds)` on this executor with
    /// default [`SocketOptions`].
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
        self.run_with(
            protocol,
            labels,
            adversary,
            seeds,
            options,
            SocketOptions::default(),
        )
    }

    /// [`ExecutorKind::run`] with explicit [`SocketOptions`]: the worker
    /// count of both wire executors, and the socket executor's I/O
    /// timeout. The in-memory executors ignore them, and the report is
    /// independent of them everywhere (they only change wall-clock time).
    ///
    /// # Errors
    ///
    /// As for [`ExecutorKind::run`].
    pub fn run_with<P, A>(
        self,
        protocol: P,
        labels: Vec<Label>,
        adversary: A,
        seeds: SeedTree,
        options: EngineOptions,
        wire: SocketOptions,
    ) -> Result<RunReport, RunError>
    where
        P: ViewProtocol + Clone + Send + 'static,
        A: Adversary<P::Msg>,
    {
        if let Some(mode) = self.engine_mode() {
            let options = EngineOptions { mode, ..options };
            return Ok(
                SyncEngine::with_options(protocol, labels, adversary, seeds, options)?.run(),
            );
        }
        // Validate the configuration before spawning any worker.
        let round_limit = options.round_limit(labels.len());
        let pipeline = RoundPipeline::new(labels, adversary, seeds, round_limit)?;
        let labels = pipeline.labels();
        if self == ExecutorKind::Socket {
            let mut transport = SocketTransport::spawn(&protocol, labels, &seeds, wire)?;
            pipeline.run(&mut transport, &mut NoObserver)
        } else {
            let mut transport = ChannelTransport::spawn_with(&protocol, labels, &seeds, wire);
            pipeline.run(&mut transport, &mut NoObserver)
        }
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
    //! the clustered engine, and the round limit.

    use super::*;
    use crate::adversary::NoFailures;
    use crate::engine::ConfigError;
    use crate::testproto::{labels, two_crashes, RankOnce, UnionRank};
    use crate::trace::Outcome;

    #[test]
    fn every_kind_matches_the_clustered_engine() {
        // Random crash schedules are covered by the runtime property
        // suite; these fixed ones pin the table in unit-test time.
        let rank_once = |kind: ExecutorKind| {
            kind.run(
                RankOnce,
                labels(10),
                NoFailures,
                SeedTree::new(9),
                EngineOptions::default(),
            )
        };
        let union_rank = |kind: ExecutorKind, seed| {
            let options = EngineOptions::default();
            kind.run(
                UnionRank::rounds(4),
                labels(12),
                two_crashes(),
                SeedTree::new(seed),
                options,
            )
        };
        for kind in ExecutorKind::ALL {
            assert_eq!(
                rank_once(ExecutorKind::Clustered),
                rank_once(kind),
                "{kind}"
            );
            for seed in 0..5 {
                let reference = union_rank(ExecutorKind::Clustered, seed);
                assert_eq!(reference, union_rank(kind, seed), "{kind}, seed {seed}");
            }
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
