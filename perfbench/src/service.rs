//! The service-churn workload: closed-loop epochs on the sharded
//! namespace service.
//!
//! One pass sets a fresh service up (construction plus a crash-free fill
//! to 90 % occupancy), then runs a fixed number of churn epochs. In each
//! churn epoch every committed holder releases with probability 0.1 and
//! 0.09·capacity fresh labels acquire, so releases arrive beside acquires
//! and occupancy stays near 90 %; every shard epoch allows up to two
//! crashes. Epochs are pipelined as in `ShardedService::run_epochs`:
//! batch `k + 1` is generated and submitted while epoch `k` executes on
//! a scoped thread. The loop is closed: the next batch waits for the
//! previous commit. A pass always runs the same number of epochs, so the
//! measured distribution does not drift with how many passes fit.

use std::thread;
use std::time::Instant;

use bil_core::EpochBil;
use bil_runtime::adversary::RandomCrash;
use bil_runtime::{Label, ProcId, SeedTree};
use bil_service::{
    EpochOutcome, EpochRun, Request, ServiceOptions, ShardedEpochReport, ShardedOptions,
    ShardedService,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::{mean, median, ns_since, quantile, weighted_quantile, Digest};
use crate::trace::{traced_epoch, Layers};
use crate::workload::{end_to_end, per_layer, Outcome, RunConfig};

/// Share of the namespace the set-up fills.
const FILL: f64 = 0.9;

/// Chance that a committed holder releases in a churn epoch.
const RELEASE_P: f64 = 0.1;

/// Fresh acquires per churn epoch, as a share of the namespace. Beside
/// `RELEASE_P × FILL` releases this keeps occupancy near `FILL`.
const ACQUIRE_FRAC: f64 = 0.09;

/// Crashes each shard epoch allows, and the per-unit firing chance.
const CRASH_BUDGET: usize = 2;
const CRASH_RATE: f64 = 0.5;

/// Passes every run makes however little time it is given (the set-up
/// figure is their median); the outputs digest covers the first.
const MIN_PASSES: u64 = 3;

/// Fresh labels are `high bits from the seed | counter`.
const COUNTER_MASK: u64 = 0xFFFF_FFFF;

/// A churn workload over `capacity` names in `shards` shards.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    capacity: usize,
    shards: usize,
    epochs: u64,
}

/// Front-end stage times and queue counts over a traced run's epochs.
#[derive(Debug, Clone, Default)]
pub struct StageTotals {
    /// Wall time of the traced epochs.
    pub step_ns: u64,
    /// Inside `submit`.
    pub submit_ns: u64,
    /// Inside `begin`.
    pub begin_ns: u64,
    /// Executing the shard runs (on the executor thread).
    pub execute_ns: u64,
    /// Inside `complete`.
    pub complete_ns: u64,
    /// The front-end waiting on the executor thread after staging.
    pub join_wait_ns: u64,
    /// Generating batches (the benchmark's own load generator).
    pub loadgen_ns: u64,
    /// Epochs, requests submitted, and Σ over epochs of the slowest
    /// shard epoch ÷ the median one.
    pub epochs: u64,
    /// See [`StageTotals::epochs`].
    pub requests: u64,
    /// See [`StageTotals::epochs`].
    pub skew_sum: f64,
    /// Acquires queued at admission, summed over epochs.
    pub backlog: u64,
    /// Acquires deferred past admission, summed over epochs.
    pub deferred: u64,
    /// Contenders crashed.
    pub crashed: u64,
    /// Contenders admitted, names granted, and grants that spilled off
    /// their home shard.
    pub admitted: u64,
    /// See [`StageTotals::admitted`].
    pub granted: u64,
    /// See [`StageTotals::admitted`].
    pub spilled: u64,
}

/// Each shard epoch's adversary, as in experiment E15.
fn adversary(seed: u64, epoch: u64, shard: usize) -> RandomCrash {
    RandomCrash::new(
        CRASH_BUDGET,
        CRASH_RATE,
        SeedTree::new(seed)
            .epoch(epoch)
            .process_rng(ProcId(shard as u32)),
    )
}

/// Executes one epoch's shard runs in shard order; traced, each run is
/// timed alone (equivalent to `execute_all` without concurrency).
fn execute(
    runs: Vec<EpochRun>,
    adversaries: Vec<RandomCrash>,
    timed: bool,
) -> (Vec<EpochOutcome>, Vec<u64>) {
    if !timed {
        return (
            ShardedService::execute_all(runs, adversaries, false),
            Vec::new(),
        );
    }
    runs.into_iter()
        .zip(adversaries)
        .map(|(run, adversary)| {
            let t = Instant::now();
            let outcome = run.execute(adversary);
            (outcome, ns_since(t))
        })
        .unzip()
}

fn fold_digest(digest: &mut Digest, report: &ShardedEpochReport) {
    digest.word(report.epoch);
    digest.word(report.held as u64);
    for (label, name) in report.granted.iter().chain(&report.released) {
        digest.word(label.0);
        digest.word(u64::from(name.0));
    }
    for label in &report.crashed {
        digest.word(label.0);
    }
}

/// One service instance under churn, with the bookkeeping the
/// correctness checks need.
struct Tenant {
    svc: ShardedService,
    capacity: usize,
    seed: u64,
    rng: SmallRng,
    label_high: u64,
    next_label: u64,
    acquires: usize,
    /// Committed holders not yet asked to release, in grant order.
    holders: Vec<Label>,
    /// Indexed by label counter: granted at some point.
    ever_granted: Vec<bool>,
    granted: u64,
    released: u64,
    /// `(first label counter, submit instant)` of each churn batch.
    batches: Vec<(u64, Instant)>,
    runs: Option<Vec<EpochRun>>,
}

impl Tenant {
    /// Builds a service and fills it: the workload's set-up.
    fn new(
        churn: &Churn,
        seed: u64,
        out: &mut Outcome,
    ) -> Result<(Tenant, ShardedEpochReport), String> {
        let options = ShardedOptions {
            shard: ServiceOptions::default(),
            concurrent: false,
        };
        let svc = ShardedService::new(churn.capacity, churn.shards, seed, options)
            .map_err(|e| e.to_string())?;
        let mut tenant = Tenant {
            svc,
            capacity: churn.capacity,
            seed,
            rng: SmallRng::seed_from_u64(seed),
            label_high: bil_runtime::rng::split_mix64(seed) & !COUNTER_MASK,
            next_label: 0,
            acquires: (churn.capacity as f64 * ACQUIRE_FRAC) as usize,
            holders: Vec::new(),
            ever_granted: Vec::new(),
            granted: 0,
            released: 0,
            batches: Vec::new(),
            runs: None,
        };
        let fill = tenant.fresh((churn.capacity as f64 * FILL) as usize);
        let report = tenant.svc.step(&fill).map_err(|e| e.to_string())?;
        let verdict = tenant.check(&report);
        record(&report, verdict, out);
        Ok((tenant, report))
    }

    fn fresh(&mut self, count: usize) -> Vec<Request> {
        let first = self.next_label;
        self.next_label += count as u64;
        self.ever_granted.resize(self.next_label as usize, false);
        (first..self.next_label)
            .map(|c| Request::Acquire(Label(self.label_high | c)))
            .collect()
    }

    /// The next churn batch: releases by coin flip over the committed
    /// holders, then fresh acquires.
    fn next_batch(&mut self) -> Vec<Request> {
        let mut batch = Vec::new();
        let rng = &mut self.rng;
        self.holders.retain(|&label| {
            let release = rng.random_bool(RELEASE_P);
            if release {
                batch.push(Request::Release(label));
            }
            !release
        });
        batch.extend(self.fresh(self.acquires));
        batch
    }

    /// Generates and submits the next batch; returns the generator's and
    /// `submit`'s time and the batch size.
    fn submit_next(&mut self) -> Result<(u64, u64, u64), String> {
        let t = Instant::now();
        let first = self.next_label;
        let batch = self.next_batch();
        let generated = ns_since(t);
        let submitted_at = Instant::now();
        self.svc.submit(&batch).map_err(|e| e.to_string())?;
        self.batches.push((first, submitted_at));
        Ok((generated, ns_since(submitted_at), batch.len() as u64))
    }

    /// Stages the first churn batch and begins its epoch.
    fn start(&mut self) -> Result<(), String> {
        self.submit_next()?;
        self.runs = Some(self.svc.begin().map_err(|e| e.to_string())?);
        Ok(())
    }

    /// One pipelined epoch: the in-flight epoch executes on a scoped
    /// thread while (unless this is the last) the next batch is generated
    /// and submitted; then the epoch commits, its invariants are checked,
    /// and the next one begins. Returns the report, the commit instant
    /// and the check's verdict.
    fn step(&mut self, next: bool, stages: Option<&mut StageTotals>) -> Result<Step, String> {
        let started = Instant::now();
        let epoch = self.svc.epoch();
        let runs = self.runs.take().ok_or("no epoch in flight")?;
        let adversaries = (0..runs.len())
            .map(|s| adversary(self.seed, epoch, s))
            .collect();
        let timed = stages.is_some();
        let (executed, submitted, join_wait_ns) = thread::scope(|scope| {
            let handle = scope.spawn(move || execute(runs, adversaries, timed));
            let submitted = if next {
                self.submit_next()
            } else {
                Ok((0, 0, 0))
            };
            let t = Instant::now();
            let executed = handle.join();
            (executed, submitted, ns_since(t))
        });
        let (outcomes, shard_ns) = executed.map_err(|_| "shard epoch thread panicked")?;
        let t = Instant::now();
        let report = self.svc.complete(outcomes).map_err(|e| e.to_string())?;
        let complete_ns = ns_since(t);
        let committed = Instant::now();
        let (loadgen_ns, submit_ns, requests) = submitted?;
        let verdict = self.check(&report);
        let backlog = self.svc.backlog() as u64;
        let mut begin_ns = 0;
        if next {
            let t = Instant::now();
            self.runs = Some(self.svc.begin().map_err(|e| e.to_string())?);
            begin_ns = ns_since(t);
        }
        if let Some(s) = stages {
            s.step_ns += ns_since(started);
            s.submit_ns += submit_ns;
            s.begin_ns += begin_ns;
            s.execute_ns += shard_ns.iter().sum::<u64>();
            s.complete_ns += complete_ns;
            s.join_wait_ns += join_wait_ns;
            s.loadgen_ns += loadgen_ns;
            s.epochs += 1;
            s.requests += requests;
            let busy: Vec<f64> = shard_ns.iter().map(|&ns| ns as f64).collect();
            s.skew_sum += quantile(&busy, 1.0) / median(&busy);
            s.backlog += backlog;
            let partition = self.svc.partition();
            for shard in report.shards.iter().flatten() {
                s.deferred += shard.deferred as u64;
                s.admitted += shard.admitted.len() as u64;
            }
            s.crashed += report.crashed.len() as u64;
            s.granted += report.granted.len() as u64;
            s.spilled += report
                .granted
                .iter()
                .filter(|(l, n)| partition.shard_of(n.0 as usize) != partition.home_shard(*l))
                .count() as u64;
        }
        Ok(Step {
            report,
            committed,
            verdict,
        })
    }

    /// Folds a committed epoch into the bookkeeping and checks the
    /// service's invariants: no label was granted twice, held = Σ granted
    /// − Σ released, and the held names are unique and inside the
    /// namespace. Must run before the next `begin` applies releases.
    fn check(&mut self, report: &ShardedEpochReport) -> Result<(), String> {
        let mut result = Ok(());
        for &(label, name) in &report.granted {
            let counter = (label.0 & COUNTER_MASK) as usize;
            match self.ever_granted.get_mut(counter) {
                Some(seen) if !*seen => *seen = true,
                _ => result = Err(format!("label {label} granted twice or never asked for")),
            }
            if name.0 as usize >= self.capacity {
                result = Err(format!("name {name} outside 0..{}", self.capacity));
            }
            self.holders.push(label);
        }
        self.granted += report.granted.len() as u64;
        self.released += report.released.len() as u64;
        if report.held as u64 != self.granted - self.released {
            result = Err(format!(
                "held {} != granted {} - released {}",
                report.held, self.granted, self.released
            ));
        }
        let mut taken = vec![false; self.capacity];
        let mut held = 0;
        for (label, name) in self.svc.holders() {
            match taken.get_mut(name.0 as usize) {
                Some(t) if !*t => *t = true,
                _ => {
                    result = Err(format!(
                        "name {name} of {label} is out of range or held twice"
                    ))
                }
            }
            held += 1;
        }
        if held != report.held {
            result = Err(format!("{held} holders listed, {} reported", report.held));
        }
        result
    }

    /// When churn batch `label`'s acquire was submitted.
    fn submitted_at(&self, label: Label) -> Option<Instant> {
        let counter = label.0 & COUNTER_MASK;
        let i = self.batches.partition_point(|&(first, _)| first <= counter);
        i.checked_sub(1).map(|i| self.batches[i].1)
    }
}

/// One committed epoch: its report, when it committed, and whether the
/// invariants held after it.
struct Step {
    report: ShardedEpochReport,
    committed: Instant,
    verdict: Result<(), String>,
}

/// Records each shard epoch of a committed front-end epoch as one
/// operation: it fails if its own run failed, and every one of them
/// fails if the invariants broke.
fn record(report: &ShardedEpochReport, verdict: Result<(), String>, out: &mut Outcome) {
    for shard in &report.shards {
        out.record(match (&verdict, shard) {
            (Err(e), _) => Err(format!("epoch {}: {e}", report.epoch)),
            (Ok(()), Err(e)) => Err(format!("epoch {}: {e}", report.epoch)),
            (Ok(()), Ok(_)) => Ok(()),
        });
    }
}

impl Churn {
    /// A churn workload.
    pub const fn new(capacity: usize, shards: usize, epochs: u64) -> Self {
        Churn {
            capacity,
            shards,
            epochs,
        }
    }

    /// The untraced run: end-to-end metrics.
    pub fn measure(&self, cfg: &RunConfig) -> Outcome {
        let mut out = Outcome::default();
        let mut setups = Vec::new();
        let (mut latencies, mut epoch_ms, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
        let (mut names_per_s, mut ns_per_ball_round) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut pass = 0;
        while pass < MIN_PASSES || start.elapsed().as_secs_f64() < cfg.seconds {
            let t = Instant::now();
            let (mut d, fill) = match Tenant::new(self, cfg.sub_seed(pass), &mut out) {
                Ok(tenant) => tenant,
                Err(e) => {
                    out.record(Err(e));
                    break;
                }
            };
            setups.push(t.elapsed().as_secs_f64());
            if pass == 0 {
                fold_digest(&mut out.digest, &fill);
            }
            let window = Instant::now();
            let mut last = window;
            if let Err(e) = d.start() {
                out.record(Err(e));
                break;
            }
            for k in 0..self.epochs {
                let Step {
                    report,
                    committed,
                    verdict,
                } = match d.step(k + 1 < self.epochs, None) {
                    Ok(step) => step,
                    Err(e) => {
                        out.record(Err(e));
                        break;
                    }
                };
                // Acquires of one batch share their submit instant, so
                // latencies are kept as (value, count) pairs.
                let mut by_batch: Vec<(Instant, u64)> = Vec::new();
                for (label, _) in &report.granted {
                    let Some(at) = d.submitted_at(*label) else {
                        continue;
                    };
                    match by_batch.iter_mut().find(|(t, _)| *t == at) {
                        Some((_, count)) => *count += 1,
                        None => by_batch.push((at, 1)),
                    }
                }
                for (at, count) in by_batch {
                    latencies.push(((committed - at).as_secs_f64() * 1e3, count));
                }
                let interval = (committed - last).as_secs_f64();
                last = committed;
                epoch_ms.push(interval * 1e3);
                let mut ball_rounds = 0;
                for shard in report.shards.iter().flatten() {
                    if let Some(run) = &shard.run {
                        rounds.push(run.rounds as f64);
                        ball_rounds += run.rounds * run.n as u64;
                    }
                }
                names_per_s.push(report.granted.len() as f64 / interval);
                ns_per_ball_round.push(interval * 1e9 / ball_rounds.max(1) as f64);
                record(&report, verdict, &mut out);
                if pass == 0 {
                    fold_digest(&mut out.digest, &report);
                }
            }
            pass += 1;
        }

        out.notes.push(format!(
            "{pass} passes of {} churn epochs over {} names / {} shards: {} acquire latencies, p10 {:.3} ms, p50 {:.3} ms, p99 {:.3} ms; epoch interval p50 {:.3} ms, p99 {:.3} ms",
            self.epochs,
            self.capacity,
            self.shards,
            latencies.iter().map(|&(_, c)| c).sum::<u64>(),
            weighted_quantile(&latencies, 0.1),
            weighted_quantile(&latencies, 0.5),
            weighted_quantile(&latencies, 0.99),
            quantile(&epoch_ms, 0.5),
            quantile(&epoch_ms, 0.99),
        ));
        out.metrics = end_to_end(
            weighted_quantile(&latencies, 0.1),
            quantile(&names_per_s, 0.9),
            quantile(&ns_per_ball_round, 0.1),
            mean(&rounds),
            median(&setups),
        );
        out
    }

    /// The traced run: two identical services step in alternation, one
    /// untraced and one with its stages timed; their reports must be
    /// identical. One shard epoch per front-end epoch is replayed
    /// through the traced round plane for the per-layer split, and the
    /// replay must reproduce the service's own report of it.
    pub fn trace(&self, cfg: &RunConfig) -> Outcome {
        let mut out = Outcome::default();
        let mut stages = StageTotals::default();
        let mut layers = Layers::default();
        let (mut untraced_ns, mut traced_ns) = (0u64, 0u64);
        let start = Instant::now();
        let mut pass = 0;
        while pass < 1 || start.elapsed().as_secs_f64() < cfg.seconds {
            let seed = cfg.sub_seed(pass);
            let pair = Tenant::new(self, seed, &mut out).and_then(|(mut a, fa)| {
                let (mut b, fb) = Tenant::new(self, seed, &mut out)?;
                if fa != fb {
                    return Err("traced fill differs from untraced".to_string());
                }
                if pass == 0 {
                    fold_digest(&mut out.digest, &fb);
                }
                a.start()?;
                b.start()?;
                Ok((a, b))
            });
            let (mut a, mut b) = match pair {
                Ok(pair) => pair,
                Err(e) => {
                    out.record(Err(e));
                    break;
                }
            };
            for k in 0..self.epochs {
                let next = k + 1 < self.epochs;
                let epoch = b.svc.epoch();
                let shard = (epoch % self.shards as u64) as usize;
                let holders: Vec<_> = b.svc.shard(shard).holders().collect();
                let (ra, rb) = if k % 2 == 0 {
                    let t = Instant::now();
                    let ra = a.step(next, None);
                    untraced_ns += ns_since(t);
                    let t = Instant::now();
                    let rb = b.step(next, Some(&mut stages));
                    traced_ns += ns_since(t);
                    (ra, rb)
                } else {
                    let t = Instant::now();
                    let rb = b.step(next, Some(&mut stages));
                    traced_ns += ns_since(t);
                    let t = Instant::now();
                    let ra = a.step(next, None);
                    untraced_ns += ns_since(t);
                    (ra, rb)
                };
                let (sa, sb) = match (ra, rb) {
                    (Ok(ra), Ok(rb)) => (ra, rb),
                    (Err(e), _) | (_, Err(e)) => {
                        out.record(Err(e));
                        break;
                    }
                };
                let (ra, rb) = (&sa.report, &sb.report);
                if ra != rb {
                    out.record(Err(format!(
                        "epoch {epoch}: traced report differs from untraced"
                    )));
                }
                if let Some(run) = rb.shards[shard].as_ref().ok().and_then(|r| r.run.as_ref()) {
                    let replayed = EpochBil::new(
                        ServiceOptions::default().config,
                        b.svc.shard(shard).capacity(),
                        &holders,
                    )
                    .map_err(|e| e.to_string())
                    .and_then(|protocol| {
                        traced_epoch(
                            protocol,
                            run,
                            Box::new(adversary(seed, epoch, shard)),
                            &mut layers,
                        )
                        .map_err(|e| e.to_string())
                    });
                    out.record(match replayed {
                        Ok(r) if r == *run => Ok(()),
                        Ok(_) => Err(format!("epoch {epoch} shard {shard}: replay differs")),
                        Err(e) => Err(e),
                    });
                }
                if pass == 0 {
                    fold_digest(&mut out.digest, rb);
                }
                record(ra, sa.verdict, &mut out);
                record(rb, sb.verdict, &mut out);
            }
            pass += 1;
        }
        let loadgen_ms = stages.loadgen_ns as f64 / stages.epochs.max(1) as f64 / 1e6;
        let overhead = traced_ns as f64 / untraced_ns as f64 - 1.0;
        out.notes.push(format!(
            "{} traced epochs: submit {:.2} us/request, begin {:.3} ms, execute {:.3} ms, complete {:.3} ms, front-end idle {:.3} ms per epoch; {} shard epochs replayed",
            stages.epochs,
            stages.submit_ns as f64 / stages.requests.max(1) as f64 / 1e3,
            stages.begin_ns as f64 / stages.epochs.max(1) as f64 / 1e6,
            stages.execute_ns as f64 / stages.epochs.max(1) as f64 / 1e6,
            stages.complete_ns as f64 / stages.epochs.max(1) as f64 / 1e6,
            stages.join_wait_ns as f64 / stages.epochs.max(1) as f64 / 1e6,
            layers.runs,
        ));
        out.metrics = per_layer(&layers, &stages, loadgen_ms, overhead);
        out
    }
}
