//! Scenario dispatch: `(algorithm, n, adversary, seed) → RunReport`.
//!
//! Experiments describe *what* to run with plain-data [`Scenario`]
//! values; this module owns the mapping onto concrete protocol types and
//! adversaries, workload generation (shuffled non-contiguous labels), and
//! batch aggregation.

use std::error::Error;
use std::fmt;

use bil_baselines::{FloodRank, RetryBins};
use bil_core::adversary::{AdaptiveSplitter, LeafDenier, Sandwich, SyncSplitter};
use bil_core::{check_tight_renaming, BallsIntoLeaves, BilConfig, BilMsg, PathRule};
use bil_runtime::adversary::{Adversary, CrashBurst, NoFailures, RandomCrash, SteadyAttrition};
use bil_runtime::engine::{ConfigError, EngineOptions};
use bil_runtime::rng::split_mix64;
use bil_runtime::{Label, Round, RunError, RunReport, SeedTree, ViewProtocol};
use bil_tree::CoinRule;
use rand::seq::SliceRandom;

use crate::stats::Summary;

/// Which algorithm a scenario runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Balls-into-Leaves, base randomized variant (§4).
    BilBase,
    /// Balls-into-Leaves, early-terminating extension (§6).
    BilEarly,
    /// Balls-into-Leaves with the uniform-coin ablation.
    BilUniformCoin,
    /// Balls-into-Leaves base with per-ball decision at the leaf.
    BilDecideAtLeaf,
    /// Deterministic comparison-based baseline (rank descent).
    DetRank,
    /// Flooding consensus-style renaming, `t = n − 1`.
    FloodRank,
    /// Retry balls-into-bins, Hold + reclaim (safe repair).
    RetryUniform,
    /// Power-of-two-choices retry, Hold + reclaim.
    TwoChoice,
    /// Wait-free strict retry (safe, `Θ(log n)`).
    EagerStrict,
    /// Wait-free reclaiming retry (duplicates names).
    EagerReclaim,
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Algorithm::BilBase => "balls-into-leaves",
            Algorithm::BilEarly => "bil-early-terminating",
            Algorithm::BilUniformCoin => "bil-uniform-coin",
            Algorithm::BilDecideAtLeaf => "bil-decide-at-leaf",
            Algorithm::DetRank => "det-rank",
            Algorithm::FloodRank => "flood-rank",
            Algorithm::RetryUniform => "retry-uniform",
            Algorithm::TwoChoice => "retry-two-choice",
            Algorithm::EagerStrict => "retry-eager-strict",
            Algorithm::EagerReclaim => "retry-eager-reclaim",
        };
        f.write_str(s)
    }
}

/// Which executor carries a scenario's rounds: the runtime's
/// [`bil_runtime::ExecutorKind`], under the name the harness and its CLI use. All
/// five produce bit-identical [`RunReport`]s (enforced by workspace
/// tests), so the choice only affects wall-clock time and what is being
/// demonstrated.
pub use bil_runtime::ExecutorKind as Executor;

/// Which adversary a scenario runs against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversarySpec {
    /// No crashes.
    None,
    /// Oblivious random crashes with total `budget`; roughly
    /// `expected_per_round` crashes fire each round.
    Random {
        /// Total crash budget.
        budget: usize,
        /// Expected crashes per round (clamped into the budget).
        expected_per_round: f64,
    },
    /// `count` crashes in round `round` with parity-split deliveries.
    Burst {
        /// The round in which the burst fires.
        round: u64,
        /// Number of crashes in the burst.
        count: usize,
    },
    /// One crash per round, lowest label first.
    Attrition {
        /// Total crash budget.
        budget: usize,
    },
    /// Full-information contention splitter (Balls-into-Leaves only).
    AdaptiveSplitter {
        /// Total crash budget.
        budget: usize,
    },
    /// The paper's §6 sandwich pattern (Balls-into-Leaves only).
    Sandwich {
        /// Total crash budget.
        budget: usize,
    },
    /// Position-round splitter (Balls-into-Leaves only).
    SyncSplitter {
        /// Total crash budget.
        budget: usize,
    },
    /// Silent killer of contention winners (Balls-into-Leaves only).
    LeafDenier {
        /// Total crash budget.
        budget: usize,
    },
}

impl fmt::Display for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversarySpec::None => write!(f, "failure-free"),
            AdversarySpec::Random { budget, .. } => write!(f, "random(t={budget})"),
            AdversarySpec::Burst { round, count } => write!(f, "burst(r{round}, f={count})"),
            AdversarySpec::Attrition { budget } => write!(f, "attrition(t={budget})"),
            AdversarySpec::AdaptiveSplitter { budget } => {
                write!(f, "adaptive-splitter(t={budget})")
            }
            AdversarySpec::Sandwich { budget } => write!(f, "sandwich(t={budget})"),
            AdversarySpec::SyncSplitter { budget } => write!(f, "sync-splitter(t={budget})"),
            AdversarySpec::LeafDenier { budget } => write!(f, "leaf-denier(t={budget})"),
        }
    }
}

/// A scenario construction or execution error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// Engine rejected the configuration (empty system etc.).
    Config(ConfigError),
    /// A Balls-into-Leaves-specific adversary was paired with a
    /// non-Balls-into-Leaves algorithm.
    AdversaryRequiresBil,
    /// The requested system size exceeds what the chosen executor can
    /// feasibly carry (see [`Executor::max_n`]).
    ExecutorInfeasible {
        /// The chosen executor.
        executor: Executor,
        /// The requested system size.
        n: usize,
        /// The executor's cap.
        max_n: usize,
    },
    /// A wire executor failed mid-run (malformed frame, worker
    /// disconnect, socket I/O); the in-memory executors never produce
    /// this.
    Run(RunError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Config(e) => write!(f, "engine configuration: {e}"),
            ScenarioError::AdversaryRequiresBil => {
                write!(
                    f,
                    "this adversary inspects BilMsg and needs a BiL algorithm"
                )
            }
            ScenarioError::ExecutorInfeasible { executor, n, max_n } => {
                // The hint reflects the executor that was actually asked
                // for, and only suggests executors whose cap (from
                // `Executor::max_n`) really admits this n.
                let feasible: Vec<String> = Executor::ALL
                    .iter()
                    .filter(|e| *e != executor && e.max_n().is_none_or(|cap| *n <= cap))
                    .map(|e| e.to_string())
                    .collect();
                write!(
                    f,
                    "the {executor} executor cannot feasibly carry n = {n} \
                     (its cap is {max_n}); ",
                )?;
                if feasible.is_empty() {
                    write!(f, "no executor admits a system this large")
                } else {
                    write!(f, "use {} instead", feasible.join(" or "))
                }
            }
            ScenarioError::Run(e) => write!(f, "executor failed: {e}"),
        }
    }
}

impl Error for ScenarioError {}

impl From<ConfigError> for ScenarioError {
    fn from(e: ConfigError) -> Self {
        ScenarioError::Config(e)
    }
}

impl From<RunError> for ScenarioError {
    fn from(e: RunError) -> Self {
        match e {
            RunError::Config(c) => ScenarioError::Config(c),
            other => ScenarioError::Run(other),
        }
    }
}

/// One experiment configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The algorithm under test.
    pub algorithm: Algorithm,
    /// System size (processes = target names).
    pub n: usize,
    /// The adversary.
    pub adversary: AdversarySpec,
    /// Optional round cap (defaults to the engine's `8n + 64`).
    pub max_rounds: Option<u64>,
    /// Which executor carries the rounds.
    pub executor: Executor,
}

impl Scenario {
    /// A failure-free scenario.
    pub fn failure_free(algorithm: Algorithm, n: usize) -> Self {
        Scenario {
            algorithm,
            n,
            adversary: AdversarySpec::None,
            max_rounds: None,
            executor: Executor::default(),
        }
    }

    /// This scenario against a different adversary.
    pub fn against(mut self, adversary: AdversarySpec) -> Self {
        self.adversary = adversary;
        self
    }

    /// This scenario on a different executor.
    pub fn on_executor(mut self, executor: Executor) -> Self {
        self.executor = executor;
        self
    }

    /// This scenario with an explicit round cap (benchmarks measuring
    /// per-round cost pin this to a small constant).
    pub fn with_max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = Some(max_rounds);
        self
    }

    /// Generates the shuffled, non-contiguous label assignment for
    /// `seed`. Distinctness is by construction (`hash << 24 | index`).
    pub fn labels(&self, seed: u64) -> Vec<Label> {
        let seeds = SeedTree::new(seed);
        let mut rng = seeds.workload_rng();
        let mut labels: Vec<Label> = (0..self.n as u64)
            .map(|i| Label((split_mix64(seed ^ (i * 7 + 1)) >> 40 << 24) | i))
            .collect();
        labels.shuffle(&mut rng);
        labels
    }

    /// Runs the scenario once.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] for invalid sizes or an adversary /
    /// algorithm mismatch.
    pub fn run(&self, seed: u64) -> Result<RunReport, ScenarioError> {
        let seeds = SeedTree::new(seed);
        let labels = self.labels(seed);
        let options = EngineOptions {
            max_rounds: self.max_rounds,
            ..EngineOptions::default()
        };

        match self.algorithm {
            Algorithm::BilBase => self.run_bil(BallsIntoLeaves::base(), labels, seeds, options),
            Algorithm::BilEarly => {
                self.run_bil(BallsIntoLeaves::early_terminating(), labels, seeds, options)
            }
            Algorithm::BilUniformCoin => self.run_bil(
                BallsIntoLeaves::new(
                    BilConfig::new().with_path_rule(PathRule::Random(CoinRule::Uniform)),
                ),
                labels,
                seeds,
                options,
            ),
            Algorithm::BilDecideAtLeaf => self.run_bil(
                BallsIntoLeaves::new(BilConfig::new().with_decide_at_leaf(true)),
                labels,
                seeds,
                options,
            ),
            Algorithm::DetRank => self.run_bil(
                BallsIntoLeaves::deterministic_rank(),
                labels,
                seeds,
                options,
            ),
            Algorithm::FloodRank => {
                self.run_generic(FloodRank::wait_free(self.n), labels, seeds, options)
            }
            Algorithm::RetryUniform => {
                self.run_generic(RetryBins::uniform(), labels, seeds, options)
            }
            Algorithm::TwoChoice => {
                self.run_generic(RetryBins::two_choice(), labels, seeds, options)
            }
            Algorithm::EagerStrict => {
                self.run_generic(RetryBins::eager_strict(), labels, seeds, options)
            }
            Algorithm::EagerReclaim => {
                self.run_generic(RetryBins::eager_reclaim(), labels, seeds, options)
            }
        }
    }

    fn run_bil(
        &self,
        protocol: BallsIntoLeaves,
        labels: Vec<Label>,
        seeds: SeedTree,
        options: EngineOptions,
    ) -> Result<RunReport, ScenarioError> {
        let adversary = self.bil_adversary(seeds);
        self.dispatch(protocol, labels, adversary, seeds, options)
    }

    fn run_generic<P>(
        &self,
        protocol: P,
        labels: Vec<Label>,
        seeds: SeedTree,
        options: EngineOptions,
    ) -> Result<RunReport, ScenarioError>
    where
        P: ViewProtocol + Clone + Send + 'static,
    {
        let adversary = self.generic_adversary::<P::Msg>(seeds)?;
        self.dispatch(protocol, labels, adversary, seeds, options)
    }

    /// Runs `(protocol, labels, adversary, seed)` on the scenario's
    /// executor; every choice yields a bit-identical report.
    fn dispatch<P>(
        &self,
        protocol: P,
        labels: Vec<Label>,
        adversary: Box<dyn Adversary<P::Msg> + Send>,
        seeds: SeedTree,
        options: EngineOptions,
    ) -> Result<RunReport, ScenarioError>
    where
        P: ViewProtocol + Clone + Send + 'static,
    {
        if let Some(max_n) = self.executor.max_n() {
            if self.n > max_n {
                return Err(ScenarioError::ExecutorInfeasible {
                    executor: self.executor,
                    n: self.n,
                    max_n,
                });
            }
        }
        Ok(self
            .executor
            .run(protocol, labels, adversary, seeds, options)?)
    }

    fn bil_adversary(&self, seeds: SeedTree) -> Box<dyn Adversary<BilMsg> + Send> {
        match self.adversary {
            AdversarySpec::AdaptiveSplitter { budget } => Box::new(AdaptiveSplitter::new(budget)),
            AdversarySpec::Sandwich { budget } => Box::new(Sandwich::new(budget)),
            AdversarySpec::SyncSplitter { budget } => Box::new(SyncSplitter::new(budget)),
            AdversarySpec::LeafDenier { budget } => Box::new(LeafDenier::new(budget)),
            _ => self
                .generic_adversary::<BilMsg>(seeds)
                .expect("generic adversaries never fail"),
        }
    }

    fn generic_adversary<M: 'static>(
        &self,
        seeds: SeedTree,
    ) -> Result<Box<dyn Adversary<M> + Send>, ScenarioError> {
        Ok(match self.adversary {
            AdversarySpec::None => Box::new(NoFailures),
            AdversarySpec::Random {
                budget,
                expected_per_round,
            } => {
                let rate = if budget == 0 {
                    0.0
                } else {
                    (expected_per_round / budget as f64).clamp(0.0, 1.0)
                };
                Box::new(RandomCrash::new(budget, rate, seeds.adversary_rng()))
            }
            AdversarySpec::Burst { round, count } => {
                Box::new(CrashBurst::new(Round(round), count, seeds.adversary_rng()))
            }
            AdversarySpec::Attrition { budget } => Box::new(SteadyAttrition::new(budget)),
            AdversarySpec::AdaptiveSplitter { .. }
            | AdversarySpec::Sandwich { .. }
            | AdversarySpec::SyncSplitter { .. }
            | AdversarySpec::LeafDenier { .. } => return Err(ScenarioError::AdversaryRequiresBil),
        })
    }
}

/// Aggregated results of running one scenario over many seeds.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The scenario that produced this batch.
    pub scenario: Scenario,
    /// One report per seed, in seed order.
    pub reports: Vec<RunReport>,
}

impl Batch {
    /// Runs `scenario` for every seed.
    ///
    /// # Errors
    ///
    /// Propagates the first [`ScenarioError`].
    pub fn run<I: IntoIterator<Item = u64>>(
        scenario: Scenario,
        seeds: I,
    ) -> Result<Batch, ScenarioError> {
        let mut reports = Vec::new();
        for seed in seeds {
            reports.push(scenario.run(seed)?);
        }
        Ok(Batch { scenario, reports })
    }

    /// Summary of total rounds per run.
    pub fn rounds(&self) -> Summary {
        Summary::of_counts(self.reports.iter().map(|r| r.rounds))
    }

    /// Summary of per-process decision latencies, pooled over runs.
    pub fn decision_latency(&self) -> Summary {
        Summary::of_counts(self.reports.iter().flat_map(|r| r.decision_latencies()))
    }

    /// Fraction of runs that completed (no round-limit liveness failure).
    pub fn completion_rate(&self) -> f64 {
        let done = self.reports.iter().filter(|r| r.completed()).count();
        done as f64 / self.reports.len().max(1) as f64
    }

    /// Fraction of runs in which uniqueness held.
    pub fn uniqueness_rate(&self) -> f64 {
        let ok = self
            .reports
            .iter()
            .filter(|r| check_tight_renaming(r).uniqueness)
            .count();
        ok as f64 / self.reports.len().max(1) as f64
    }

    /// Fraction of runs satisfying the full tight-renaming spec.
    pub fn spec_rate(&self) -> f64 {
        let ok = self
            .reports
            .iter()
            .filter(|r| check_tight_renaming(r).holds())
            .count();
        ok as f64 / self.reports.len().max(1) as f64
    }

    /// Mean number of crashes that occurred.
    pub fn mean_failures(&self) -> f64 {
        let total: usize = self.reports.iter().map(|r| r.failures()).sum();
        total as f64 / self.reports.len().max(1) as f64
    }

    /// Mean point-to-point messages sent per run.
    pub fn mean_messages(&self) -> f64 {
        let total: u64 = self.reports.iter().map(|r| r.messages_sent).sum();
        total as f64 / self.reports.len().max(1) as f64
    }

    /// Mean wire bytes sent per run.
    pub fn mean_wire_bytes(&self) -> f64 {
        let total: u64 = self.reports.iter().map(|r| r.wire_bytes_sent).sum();
        total as f64 / self.reports.len().max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_algorithms_run_failure_free() {
        for algo in [
            Algorithm::BilBase,
            Algorithm::BilEarly,
            Algorithm::BilUniformCoin,
            Algorithm::BilDecideAtLeaf,
            Algorithm::DetRank,
            Algorithm::FloodRank,
            Algorithm::RetryUniform,
            Algorithm::TwoChoice,
            Algorithm::EagerStrict,
            Algorithm::EagerReclaim,
        ] {
            let report = Scenario::failure_free(algo, 8).run(1).unwrap();
            assert!(report.completed(), "{algo}");
            assert_eq!(report.n, 8, "{algo}");
        }
    }

    #[test]
    fn labels_are_distinct_and_seed_dependent() {
        let s = Scenario::failure_free(Algorithm::BilBase, 64);
        let l1 = s.labels(1);
        let l2 = s.labels(2);
        assert_ne!(l1, l2);
        let mut sorted = l1.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64);
    }

    #[test]
    fn bil_specific_adversary_rejected_for_bins() {
        let s = Scenario::failure_free(Algorithm::RetryUniform, 8)
            .against(AdversarySpec::Sandwich { budget: 2 });
        assert_eq!(s.run(0), Err(ScenarioError::AdversaryRequiresBil));
    }

    #[test]
    fn bil_specific_adversary_accepted_for_bil() {
        let s = Scenario::failure_free(Algorithm::BilBase, 8)
            .against(AdversarySpec::Sandwich { budget: 2 });
        let report = s.run(0).unwrap();
        assert!(report.completed());
    }

    #[test]
    fn batch_aggregation() {
        let s = Scenario::failure_free(Algorithm::BilBase, 16)
            .against(AdversarySpec::Burst { round: 1, count: 3 });
        let batch = Batch::run(s, 0..10).unwrap();
        assert_eq!(batch.reports.len(), 10);
        assert!(batch.rounds().mean >= 3.0);
        assert_eq!(batch.completion_rate(), 1.0);
        assert_eq!(batch.uniqueness_rate(), 1.0);
        assert_eq!(batch.spec_rate(), 1.0);
        assert!(batch.mean_failures() > 0.0);
        assert!(batch.mean_messages() > 0.0);
        assert!(batch.mean_wire_bytes() > 0.0);
        assert!(batch.decision_latency().count > 0);
    }

    #[test]
    fn display_impls() {
        assert_eq!(Algorithm::BilBase.to_string(), "balls-into-leaves");
        assert_eq!(
            AdversarySpec::Sandwich { budget: 4 }.to_string(),
            "sandwich(t=4)"
        );
        assert!(ScenarioError::AdversaryRequiresBil
            .to_string()
            .contains("BiL"));
    }

    #[test]
    fn executor_names_round_trip() {
        for e in Executor::ALL {
            assert_eq!(Executor::parse(&e.to_string()), Some(e));
        }
        assert_eq!(Executor::parse("warp-drive"), None);
        assert_eq!(Executor::parse("socket"), Some(Executor::Socket));
    }

    #[test]
    fn infeasible_executor_sizes_rejected_loudly() {
        // Both wire executors cluster views by delivery history across a
        // few slot-range workers, so they outgrow the old per-thread and
        // per-slot-view walls; the wire-traffic cap at 2^16 still
        // rejects larger systems.
        let too_big = (1 << 16) + 1;
        let err = Scenario::failure_free(Algorithm::BilBase, too_big)
            .on_executor(Executor::Threaded)
            .run(0)
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::ExecutorInfeasible { n, .. } if n == too_big),
            "{err}"
        );
        assert!(err.to_string().contains("threaded"));
        let err = Scenario::failure_free(Algorithm::BilBase, too_big)
            .on_executor(Executor::Socket)
            .run(0)
            .unwrap_err();
        assert!(
            matches!(err, ScenarioError::ExecutorInfeasible { n, .. } if n == too_big),
            "{err}"
        );
        assert!(err.to_string().contains("socket"));
        // The unbounded executors accept the same size (not run here —
        // that is what the sweeps are for).
        assert_eq!(Executor::Clustered.max_n(), None);
        assert_eq!(Executor::Parallel.max_n(), None);
    }

    #[test]
    fn infeasible_hint_reflects_actual_executor_and_caps() {
        // Threaded at 2^16 + 1: every capped executor is out; only the
        // unbounded two may be suggested, never the failing executor.
        let err = ScenarioError::ExecutorInfeasible {
            executor: Executor::Threaded,
            n: (1 << 16) + 1,
            max_n: 1 << 16,
        }
        .to_string();
        assert!(err.contains("the threaded executor"), "{err}");
        assert!(err.contains("its cap is 65536"), "{err}");
        assert!(err.contains("clustered"), "{err}");
        assert!(err.contains("parallel"), "{err}");
        assert!(!err.contains("per-process"), "{err}");
        assert!(!err.contains("socket"), "{err}");
        // Socket at 2^16 + 1: same caps, symmetric hint.
        let err = ScenarioError::ExecutorInfeasible {
            executor: Executor::Socket,
            n: (1 << 16) + 1,
            max_n: 1 << 16,
        }
        .to_string();
        assert!(err.contains("the socket executor"), "{err}");
        assert!(err.contains("its cap is 65536"), "{err}");
        assert!(err.contains("clustered"), "{err}");
        assert!(err.contains("parallel"), "{err}");
        assert!(!err.contains("per-process"), "{err}");
        assert!(!err.contains("threaded"), "{err}");
    }

    #[test]
    fn all_executors_agree_on_reports() {
        let base = Scenario::failure_free(Algorithm::BilBase, 12)
            .against(AdversarySpec::Burst { round: 1, count: 3 });
        let reference = base.run(5).unwrap();
        for executor in Executor::ALL {
            let report = base.clone().on_executor(executor).run(5).unwrap();
            assert_eq!(reference, report, "{executor}");
        }
    }

    #[test]
    fn baseline_algorithms_run_on_every_executor() {
        for algo in [Algorithm::FloodRank, Algorithm::RetryUniform] {
            for executor in Executor::ALL {
                let report = Scenario::failure_free(algo, 6)
                    .on_executor(executor)
                    .run(2)
                    .unwrap();
                assert!(report.completed(), "{algo} on {executor}");
            }
        }
    }

    #[test]
    fn deterministic_across_repeat_runs() {
        let s = Scenario::failure_free(Algorithm::BilBase, 12).against(AdversarySpec::Random {
            budget: 4,
            expected_per_round: 1.0,
        });
        assert_eq!(s.run(7).unwrap(), s.run(7).unwrap());
    }
}
