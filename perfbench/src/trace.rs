//! Per-layer tracing from the outside: timing wrappers around the round
//! plane's public traits, and the code that runs [`RoundPipeline::run`]
//! over them.
//!
//! * [`Traced`] wraps a [`ViewProtocol`] (the `bil-core` kernel) and
//!   times `compose_batch` and `apply`. It forwards `compose_batch`
//!   explicitly: the trait's default is a per-ball loop over `compose`,
//!   which would silently replace the batched kernel being measured.
//! * [`TimedTransport`] wraps any [`Transport`] and times its per-round
//!   calls; whatever the pipeline spends outside them and the adversary
//!   is the pipeline's own self time (deliver plus accounting).
//! * [`TimedAdversary`] wraps an [`Adversary`], times `plan`, and keeps a
//!   sample of each round's outgoing messages for the wire replay.
//!
//! The tree and wire layers cannot be timed in place without changing
//! the program, so the wrappers keep samples (a few tree snapshots, a
//! few hundred messages per round) and the fold into [`Layers`] re-runs the public
//! calls (`random_path`, `place_along`, `Wire::encode`/`decode`) on them
//! after the run, outside every timed interval. Wrapping never changes a
//! report: every wrapper forwards its inputs untouched, which
//! `tests/trace_wrappers.rs` pins against `Scenario::run` on all five
//! executors.

use std::cell::RefCell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bil_core::{BallsIntoLeaves, BilMsg, BilView};
use bil_harness::{AdversarySpec, Executor, Scenario};
use bil_runtime::adversary::{Adversary, AdversaryView, CrashPlan, NoFailures, RandomCrash};
use bil_runtime::parallel::ParallelTransport;
use bil_runtime::pipeline::{LocalTransport, RoundMessages, RoundPipeline, Transport};
use bil_runtime::socket::{SocketOptions, SocketTransport};
use bil_runtime::threaded::ChannelTransport;
use bil_runtime::view::{NoObserver, Observer, ObserverCtx, RoundInbox, Status, ViewProtocol};
use bil_runtime::wire::Wire;
use bil_runtime::{Label, ProcId, Round, RunError, RunReport, SeedTree};
use bil_tree::{CoinRule, LocalTree};
use bytes::BytesMut;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::stats::ns_since;

/// Tree snapshots kept per traced run (one per path round at most).
const MAX_SNAPSHOTS: u64 = 4;

/// Balls per snapshot replayed through `random_path` and `place_along`.
const BALLS_PER_SNAPSHOT: usize = 256;

/// Outgoing messages per round kept for the wire replay.
const MSGS_PER_ROUND: usize = 256;

/// The engines' default round cap (`8n + 64`), which `Scenario::run`
/// and the service's epochs use when no cap is given.
fn default_round_limit(n: usize) -> u64 {
    8 * n as u64 + 64
}

/// A tree as one view held it at the start of a path round, with the
/// balls that composed against it.
#[derive(Debug)]
struct TreeSnapshot {
    tree: LocalTree,
    balls: Vec<Label>,
}

/// Kernel counters, shared by every clone of a [`Traced`] protocol (the
/// wire executors clone it into their worker threads, so times are
/// summed over threads).
#[derive(Debug, Default)]
pub struct KernelStats {
    compose_batch_ns: AtomicU64,
    compose_batch_calls: AtomicU64,
    composed_balls: AtomicU64,
    compose_calls: AtomicU64,
    apply_ns: AtomicU64,
    apply_calls: AtomicU64,
    anomalies: AtomicU64,
    /// `round + 1` of the last snapshot taken (0: none yet).
    snapshot_round: AtomicU64,
    snapshot_count: AtomicU64,
    snapshots: Mutex<Vec<TreeSnapshot>>,
}

impl KernelStats {
    /// Keeps a copy of `tree` for the tree replay: the first view that
    /// composes in a path round, up to [`MAX_SNAPSHOTS`] per run.
    fn maybe_snapshot(&self, tree: &LocalTree, balls: &[Label], round: Round) {
        if !round.is_path_round()
            || balls.is_empty()
            || self.snapshot_count.load(Relaxed) >= MAX_SNAPSHOTS
            || self.snapshot_round.swap(round.0 + 1, Relaxed) == round.0 + 1
        {
            return;
        }
        self.snapshot_count.fetch_add(1, Relaxed);
        let step = balls.len().div_ceil(BALLS_PER_SNAPSHOT);
        let snapshot = TreeSnapshot {
            tree: tree.clone(),
            balls: balls.iter().copied().step_by(step).collect(),
        };
        if let Ok(mut snapshots) = self.snapshots.lock() {
            snapshots.push(snapshot);
        }
    }
}

/// A [`ViewProtocol`] that times the kernel it wraps.
#[derive(Debug, Clone)]
pub struct Traced<P> {
    inner: P,
    stats: Arc<KernelStats>,
}

impl<P> Traced<P> {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: P, stats: Arc<KernelStats>) -> Self {
        Traced { inner, stats }
    }
}

impl<P: ViewProtocol<View = BilView>> ViewProtocol for Traced<P> {
    type Msg = P::Msg;
    type View = BilView;

    fn init_view(&self, n: usize) -> BilView {
        self.inner.init_view(n)
    }

    fn compose(&self, view: &BilView, ball: Label, round: Round, rng: &mut SmallRng) -> P::Msg {
        self.stats.compose_calls.fetch_add(1, Relaxed);
        self.inner.compose(view, ball, round, rng)
    }

    fn compose_batch(
        &self,
        view: &BilView,
        balls: &[Label],
        round: Round,
        rngs: &mut [&mut SmallRng],
        out: &mut Vec<(Label, P::Msg)>,
    ) {
        self.stats.maybe_snapshot(view.tree(), balls, round);
        let t = Instant::now();
        self.inner.compose_batch(view, balls, round, rngs, out);
        let s = &self.stats;
        s.compose_batch_ns.fetch_add(ns_since(t), Relaxed);
        s.compose_batch_calls.fetch_add(1, Relaxed);
        s.composed_balls.fetch_add(balls.len() as u64, Relaxed);
    }

    fn apply(&self, view: &mut BilView, round: Round, inbox: RoundInbox<'_, P::Msg>) {
        let before = view.anomalies().total();
        let t = Instant::now();
        self.inner.apply(view, round, inbox);
        let s = &self.stats;
        s.apply_ns.fetch_add(ns_since(t), Relaxed);
        s.apply_calls.fetch_add(1, Relaxed);
        s.anomalies
            .fetch_add(view.anomalies().total().saturating_sub(before), Relaxed);
    }

    fn status(&self, view: &BilView, ball: Label, round: Round) -> Status {
        self.inner.status(view, ball, round)
    }
}

/// Time spent in each [`Transport`] call of one run.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransportStats {
    /// `compose` time.
    pub compose_ns: u64,
    /// `apply` time.
    pub apply_ns: u64,
    /// `sweep` time.
    pub sweep_ns: u64,
    /// `crashed`, `observe` and `shutdown` time.
    pub other_ns: u64,
    /// Rounds applied.
    pub rounds: u64,
    /// Σ delivery signatures (`RoundMessages::variant_count`) per round.
    pub signatures: u64,
}

impl TransportStats {
    /// Time inside every wrapped call.
    pub fn total_ns(&self) -> u64 {
        self.compose_ns + self.apply_ns + self.sweep_ns + self.other_ns
    }
}

/// A [`Transport`] that times the transport it wraps.
#[derive(Debug)]
pub struct TimedTransport<T> {
    inner: T,
    stats: TransportStats,
}

impl<T> TimedTransport<T> {
    /// Wraps `inner`.
    pub fn new(inner: T) -> Self {
        TimedTransport {
            inner,
            stats: TransportStats::default(),
        }
    }

    /// What the wrapped transport spent so far.
    pub fn stats(&self) -> TransportStats {
        self.stats
    }
}

impl<P: ViewProtocol, T: Transport<P>> Transport<P> for TimedTransport<T> {
    fn compose(
        &mut self,
        round: Round,
        participants: &[ProcId],
    ) -> Result<Vec<(ProcId, Label, P::Msg)>, RunError> {
        let t = Instant::now();
        let out = self.inner.compose(round, participants);
        self.stats.compose_ns += ns_since(t);
        out
    }

    fn crashed(&mut self, pid: ProcId) -> Result<(), RunError> {
        let t = Instant::now();
        let out = self.inner.crashed(pid);
        self.stats.other_ns += ns_since(t);
        out
    }

    fn apply(
        &mut self,
        round: Round,
        alive: &[bool],
        survivors: &[ProcId],
        msgs: &RoundMessages<P::Msg>,
    ) -> Result<(), RunError> {
        self.stats.rounds += 1;
        self.stats.signatures += msgs.variant_count() as u64;
        let t = Instant::now();
        let out = self.inner.apply(round, alive, survivors, msgs);
        self.stats.apply_ns += ns_since(t);
        out
    }

    fn observe(&mut self, ctx: ObserverCtx<'_>, observer: &mut dyn Observer<P>) {
        let t = Instant::now();
        self.inner.observe(ctx, observer);
        self.stats.other_ns += ns_since(t);
    }

    fn sweep(&mut self, round: Round) -> Result<Vec<(ProcId, Status)>, RunError> {
        let t = Instant::now();
        let out = self.inner.sweep(round);
        self.stats.sweep_ns += ns_since(t);
        out
    }

    fn shutdown(&mut self) {
        let t = Instant::now();
        self.inner.shutdown();
        self.stats.other_ns += ns_since(t);
    }
}

/// What the adversary wrapper saw and spent in one run.
#[derive(Debug)]
pub struct AdversaryStats<M> {
    /// Time inside the wrapped `plan`.
    pub plan_ns: u64,
    /// Time inside the whole wrapper, sampling included.
    pub wrapper_ns: u64,
    /// Outgoing messages kept for the wire replay.
    pub sample: Vec<M>,
}

impl<M> Default for AdversaryStats<M> {
    fn default() -> Self {
        AdversaryStats {
            plan_ns: 0,
            wrapper_ns: 0,
            sample: Vec::new(),
        }
    }
}

/// An [`Adversary`] that times the adversary it wraps.
#[derive(Debug)]
pub struct TimedAdversary<'a, A, M> {
    inner: A,
    stats: &'a RefCell<AdversaryStats<M>>,
}

impl<'a, A, M> TimedAdversary<'a, A, M> {
    /// Wraps `inner`, recording into `stats`.
    pub fn new(inner: A, stats: &'a RefCell<AdversaryStats<M>>) -> Self {
        TimedAdversary { inner, stats }
    }
}

impl<M: Clone, A: Adversary<M>> Adversary<M> for TimedAdversary<'_, A, M> {
    fn plan(&mut self, view: &AdversaryView<'_, M>) -> CrashPlan {
        let start = Instant::now();
        let mut stats = self.stats.borrow_mut();
        let step = view.outgoing.len().div_ceil(MSGS_PER_ROUND).max(1);
        stats.sample.extend(
            view.outgoing
                .iter()
                .step_by(step)
                .map(|(_, _, msg)| msg.clone()),
        );
        let t = Instant::now();
        let plan = self.inner.plan(view);
        stats.plan_ns += ns_since(t);
        stats.wrapper_ns += ns_since(start);
        plan
    }

    fn budget(&self) -> usize {
        self.inner.budget()
    }
}

/// Per-layer totals over any number of traced runs.
#[derive(Debug, Default)]
pub struct Layers {
    /// Traced runs folded in.
    pub runs: u64,
    /// Wall time of the traced operations (input generation through the
    /// end of the run), replays excluded.
    pub wall_ns: u64,
    /// Input generation (labels) inside [`Layers::wall_ns`].
    pub loadgen_ns: u64,
    /// Σ rounds × n: the ball-rounds every per-ball-round figure divides by.
    pub ball_rounds: u64,
    /// Σ rounds.
    pub rounds: u64,
    /// Wall time of `RoundPipeline::run`.
    pub run_ns: u64,
    /// Transport construction (spawn and handshake included).
    pub setup_ns: u64,
    /// The wrapped transports.
    pub transport: TransportStats,
    /// Inside `Adversary::plan`.
    pub plan_ns: u64,
    /// Inside the adversary wrapper, sampling included.
    pub adversary_wrapper_ns: u64,
    /// Crashes that happened.
    pub crashes: u64,
    /// Kernel `compose_batch` time, calls and balls composed.
    pub compose_batch_ns: u64,
    /// See [`Layers::compose_batch_ns`].
    pub compose_batch_calls: u64,
    /// See [`Layers::compose_batch_ns`].
    pub composed_balls: u64,
    /// Per-ball `compose` calls.
    pub compose_calls: u64,
    /// Kernel `apply` time and calls.
    pub apply_ns: u64,
    /// See [`Layers::apply_ns`].
    pub apply_calls: u64,
    /// Corrupt inputs the views rejected.
    pub anomalies: u64,
    /// Tree replay: `random_path` time, `place_along` time, balls.
    pub descend_ns: u64,
    /// See [`Layers::descend_ns`].
    pub place_ns: u64,
    /// See [`Layers::descend_ns`].
    pub tree_balls: u64,
    /// Wire replay: encode time, decode time, messages.
    pub encode_ns: u64,
    /// See [`Layers::encode_ns`].
    pub decode_ns: u64,
    /// See [`Layers::encode_ns`].
    pub wire_msgs: u64,
    /// Point-to-point messages and their wire bytes, from the reports.
    pub messages_sent: u64,
    /// See [`Layers::messages_sent`].
    pub wire_bytes: u64,
}

impl Layers {
    /// The pipeline's self time: the run minus every wrapped transport
    /// and adversary call.
    pub fn pipeline_self_ns(&self) -> u64 {
        self.run_ns
            .saturating_sub(self.transport.total_ns())
            .saturating_sub(self.adversary_wrapper_ns)
    }

    fn fold_run(
        &mut self,
        report: &RunReport,
        run_ns: u64,
        setup_ns: u64,
        transport: TransportStats,
        kernel: &KernelStats,
        adversary: AdversaryStats<BilMsg>,
    ) {
        self.runs += 1;
        self.rounds += report.rounds;
        self.ball_rounds += report.rounds * report.n as u64;
        self.run_ns += run_ns;
        self.setup_ns += setup_ns;
        let t = &mut self.transport;
        t.compose_ns += transport.compose_ns;
        t.apply_ns += transport.apply_ns;
        t.sweep_ns += transport.sweep_ns;
        t.other_ns += transport.other_ns;
        t.rounds += transport.rounds;
        t.signatures += transport.signatures;
        self.plan_ns += adversary.plan_ns;
        self.adversary_wrapper_ns += adversary.wrapper_ns;
        self.crashes += report.crashes.len() as u64;
        self.compose_batch_ns += kernel.compose_batch_ns.load(Relaxed);
        self.compose_batch_calls += kernel.compose_batch_calls.load(Relaxed);
        self.composed_balls += kernel.composed_balls.load(Relaxed);
        self.compose_calls += kernel.compose_calls.load(Relaxed);
        self.apply_ns += kernel.apply_ns.load(Relaxed);
        self.apply_calls += kernel.apply_calls.load(Relaxed);
        self.anomalies += kernel.anomalies.load(Relaxed);
        self.messages_sent += report.messages_sent;
        self.wire_bytes += report.wire_bytes_sent;
        let snapshots = kernel
            .snapshots
            .lock()
            .map(|mut s| std::mem::take(&mut *s))
            .unwrap_or_default();
        self.replay(&snapshots, &adversary.sample, report.seed);
    }

    /// Re-runs the tree and wire calls on the samples a run kept. Runs
    /// after the traced run, so none of it is inside a timed interval.
    fn replay(&mut self, snapshots: &[TreeSnapshot], msgs: &[BilMsg], seed: u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        for snap in snapshots {
            let t = Instant::now();
            let paths: Vec<_> = snap
                .balls
                .iter()
                .map(|&ball| snap.tree.random_path(ball, CoinRule::Weighted, &mut rng))
                .collect();
            self.descend_ns += ns_since(t);
            let mut tree = snap.tree.clone();
            let t = Instant::now();
            for (&ball, path) in snap.balls.iter().zip(&paths) {
                if let Ok(path) = path {
                    black_box(tree.place_along(ball, path).ok());
                }
            }
            self.place_ns += ns_since(t);
            self.tree_balls += snap.balls.len() as u64;
            black_box(&tree);
        }
        let mut buf = BytesMut::new();
        let t = Instant::now();
        for msg in msgs {
            msg.encode(&mut buf);
        }
        self.encode_ns += ns_since(t);
        let mut bytes = buf.freeze();
        let t = Instant::now();
        for _ in msgs {
            black_box(BilMsg::decode(&mut bytes).ok());
        }
        self.decode_ns += ns_since(t);
        self.wire_msgs += msgs.len() as u64;
    }
}

/// The adversary `Scenario::run` builds for `spec`; `None` for the
/// protocol-specific adversaries, which no workload traces.
fn scenario_adversary(
    spec: AdversarySpec,
    seeds: SeedTree,
) -> Option<Box<dyn Adversary<BilMsg> + Send>> {
    match spec {
        AdversarySpec::None => Some(Box::new(NoFailures)),
        AdversarySpec::Random {
            budget,
            expected_per_round,
        } => {
            let rate = if budget == 0 {
                0.0
            } else {
                (expected_per_round / budget as f64).clamp(0.0, 1.0)
            };
            Some(Box::new(RandomCrash::new(
                budget,
                rate,
                seeds.adversary_rng(),
            )))
        }
        _ => None,
    }
}

/// Runs `pipeline` over `transport` with the timing wrappers and folds
/// the run into `layers`.
fn run_traced<P, T>(
    pipeline: RoundPipeline<TimedAdversary<'_, Box<dyn Adversary<BilMsg> + Send>, BilMsg>>,
    transport: T,
    started: Instant,
    setup_ns: u64,
    kernel: &KernelStats,
    adversary: &RefCell<AdversaryStats<BilMsg>>,
    layers: &mut Layers,
) -> Result<RunReport, RunError>
where
    P: ViewProtocol<Msg = BilMsg>,
    T: Transport<P>,
{
    let mut transport = TimedTransport::new(transport);
    let t = Instant::now();
    let report = pipeline.run::<P, _>(&mut transport, &mut NoObserver)?;
    let run_ns = ns_since(t);
    layers.wall_ns += ns_since(started);
    layers.fold_run(
        &report,
        run_ns,
        setup_ns,
        transport.stats(),
        kernel,
        adversary.take(),
    );
    Ok(report)
}

/// The traced equivalent of `scenario.run(seed)` for a base
/// balls-into-leaves scenario that is failure-free or against random
/// crashes: the same labels,
/// seeds, adversary and executor, driven through [`RoundPipeline::run`]
/// with every layer wrapped. Returns the report, which must equal the
/// untraced one.
///
/// # Errors
///
/// The executor's [`RunError`], as `Scenario::run` would report it, or
/// [`RunError::Protocol`] for an adversary [`scenario_adversary`] does
/// not build.
pub fn traced_scenario(
    scenario: &Scenario,
    seed: u64,
    layers: &mut Layers,
) -> Result<RunReport, RunError> {
    let started = Instant::now();
    let labels = scenario.labels(seed);
    layers.loadgen_ns += ns_since(started);
    let seeds = SeedTree::new(seed);
    let n = labels.len();
    let kernel = Arc::new(KernelStats::default());
    let adversary = RefCell::new(AdversaryStats::default());
    let inner =
        scenario_adversary(scenario.adversary, seeds).ok_or_else(|| RunError::Protocol {
            context: "building a traced scenario",
            detail: format!(
                "no traced equivalent of the {} adversary",
                scenario.adversary
            ),
        })?;
    let pipeline = RoundPipeline::new(
        labels.clone(),
        TimedAdversary::new(inner, &adversary),
        seeds,
        scenario.max_rounds.unwrap_or(default_round_limit(n)),
    )?;
    let protocol = Traced::new(BallsIntoLeaves::base(), Arc::clone(&kernel));
    let t = Instant::now();
    match scenario.executor {
        Executor::Clustered => {
            let transport = LocalTransport::clustered(protocol, &labels, &seeds);
            run_traced(
                pipeline,
                transport,
                started,
                ns_since(t),
                &kernel,
                &adversary,
                layers,
            )
        }
        Executor::PerProcess => {
            let transport = LocalTransport::per_process(protocol, &labels, &seeds);
            run_traced(
                pipeline,
                transport,
                started,
                ns_since(t),
                &kernel,
                &adversary,
                layers,
            )
        }
        Executor::Parallel => {
            let transport = ParallelTransport::new(protocol, &labels, &seeds);
            run_traced(
                pipeline,
                transport,
                started,
                ns_since(t),
                &kernel,
                &adversary,
                layers,
            )
        }
        Executor::Threaded => {
            let transport = ChannelTransport::spawn(&protocol, &labels, &seeds);
            run_traced(
                pipeline,
                transport,
                started,
                ns_since(t),
                &kernel,
                &adversary,
                layers,
            )
        }
        Executor::Socket => {
            let transport =
                SocketTransport::spawn(&protocol, &labels, &seeds, SocketOptions::default())?;
            run_traced(
                pipeline,
                transport,
                started,
                ns_since(t),
                &kernel,
                &adversary,
                layers,
            )
        }
    }
}

/// Replays one shard epoch of the service through the traced pipeline on
/// the clustered transport: the service's protocol instance (`protocol`,
/// built from the shard's holders at admission), the admitted cohort and
/// seed recorded in the epoch's `run`, and the same `adversary`. Returns
/// the replayed report, which must equal `run`.
///
/// # Errors
///
/// [`RunError::Config`] if `run` names no valid cohort.
pub fn traced_epoch<P>(
    protocol: P,
    run: &RunReport,
    adversary: Box<dyn Adversary<BilMsg> + Send>,
    layers: &mut Layers,
) -> Result<RunReport, RunError>
where
    P: ViewProtocol<Msg = BilMsg, View = BilView>,
{
    let started = Instant::now();
    let seeds = SeedTree::new(run.seed);
    let kernel = Arc::new(KernelStats::default());
    let stats = RefCell::new(AdversaryStats::default());
    let pipeline = RoundPipeline::new(
        run.labels.clone(),
        TimedAdversary::new(adversary, &stats),
        seeds,
        default_round_limit(run.labels.len()),
    )?;
    let t = Instant::now();
    let transport = LocalTransport::clustered(
        Traced::new(protocol, Arc::clone(&kernel)),
        &run.labels,
        &seeds,
    );
    run_traced(
        pipeline,
        transport,
        started,
        ns_since(t),
        &kernel,
        &stats,
        layers,
    )
}
