//! The workloads, their metrics, and what one run of a workload returns.

use bil_harness::{AdversarySpec, Executor};
use bil_runtime::rng::split_mix64;

use crate::oneshot::OneShot;
use crate::service::{Churn, StageTotals};
use crate::stats::Digest;
use crate::trace::Layers;

/// What a workload runs, at one size.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Renames to completion through `Scenario::run`.
    OneShot(OneShot),
    /// Closed-loop churn on the sharded service.
    Service(Churn),
}

/// One named workload: its full size and its `--smoke` size.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name `--workload` selects.
    pub name: &'static str,
    /// Why the workload exists (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
    /// The measured size.
    pub full: Kind,
    /// The tiny size `--smoke` runs.
    pub smoke: Kind,
}

const CRASHES: AdversarySpec = AdversarySpec::Random {
    budget: 8,
    expected_per_round: 4.0,
};

/// Every workload, in the order the all-workloads mode runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "oneshot-ff-2p15",
        why: "failure-free rename of 2^15 on clustered: one shared view, so the kernel and the in-memory transport do all the work",
        full: Kind::OneShot(OneShot::new(Executor::Clustered, 1 << 15, AdversarySpec::None)),
        smoke: Kind::OneShot(OneShot::new(Executor::Clustered, 1 << 10, AdversarySpec::None)),
    },
    Workload {
        name: "oneshot-crash-2p11",
        why: "random crashes split views every round, so delivery-signature interning, prepare and per-view apply dominate",
        full: Kind::OneShot(OneShot::new(Executor::Clustered, 1 << 11, CRASHES)),
        smoke: Kind::OneShot(OneShot::new(Executor::Clustered, 1 << 8, CRASHES)),
    },
    Workload {
        name: "oneshot-socket-2p13",
        why: "every broadcast crosses loopback TCP as wire frames, so encode, framing, syscalls, decode and coordination dominate",
        full: Kind::OneShot(OneShot::new(Executor::Socket, 1 << 13, AdversarySpec::None)),
        smoke: Kind::OneShot(OneShot::new(Executor::Socket, 1 << 9, AdversarySpec::None)),
    },
    Workload {
        name: "oneshot-channel-2p14",
        why: "the same slot-range worker protocol over in-process channels, separating carrier cost from the worker protocol",
        full: Kind::OneShot(OneShot::new(Executor::Threaded, 1 << 14, AdversarySpec::None)),
        smoke: Kind::OneShot(OneShot::new(Executor::Threaded, 1 << 9, AdversarySpec::None)),
    },
    Workload {
        name: "service-churn-2p16",
        why: "long-lived churn at 90% occupancy on the sharded service: routing, admission, commit and many small runs on occupied trees",
        full: Kind::Service(Churn::new(1 << 16, 16, 12)),
        smoke: Kind::Service(Churn::new(1 << 10, 4, 3)),
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// How one run is configured.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload seed; inputs are a pure function of it.
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// Traced (per-layer) instead of untraced (end-to-end).
    pub trace: bool,
    /// Run the workload's tiny `--smoke` size.
    pub smoke: bool,
}

impl RunConfig {
    /// The `i`-th input seed of this run.
    pub fn sub_seed(&self, i: u64) -> u64 {
        split_mix64(self.seed ^ split_mix64(i.wrapping_add(1)))
    }
}

/// One metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The metric's name.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// What one run of a workload found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (renames, or shard epochs).
    pub attempted: u64,
    /// Operations that failed or produced wrong outputs.
    pub failed: u64,
    /// Why the failed ones failed (first few).
    pub errors: Vec<String>,
    /// The metrics: [`end_to_end`] untraced, [`per_layer`] traced.
    pub metrics: Vec<Metric>,
    /// Fingerprint of the outputs of the run's first inputs.
    pub digest: Digest,
    /// Human-readable detail: sample counts, tails, raw stage times.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Counts one operation; a failed one is recorded with its reason.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// Whether every output checked out.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The end-to-end metrics of an untraced run, peak RSS read now.
///
/// Timings are quantiles over a run's operations: a rename to completion
/// on the one-shot workloads; on the service, an acquire for latency and
/// a front-end epoch for the rates. They are the fast decile, not the
/// median: interference on a shared host arrives in bursts of about a
/// second that slow every operation they overlap, so a run's median moves
/// with how much of the run the bursts covered, and its fast decile
/// barely does.
pub fn end_to_end(
    latency_ms: f64,
    names_per_s: f64,
    ns_per_ball_round: f64,
    rounds: f64,
    setup_s: f64,
) -> Vec<Metric> {
    vec![
        metric("latency_ms.p10", "ms", latency_ms),
        metric("names_per_s.p90", "1/s", names_per_s),
        metric("ns_per_ball_round.p10", "ns", ns_per_ball_round),
        metric("rounds.mean", "count", rounds),
        metric("peak_rss_mb", "MB", peak_rss_mb().unwrap_or(f64::NAN)),
        metric("setup_s", "s", setup_s),
    ]
}

/// The per-layer metrics of a traced run, from the round-plane layers
/// and the service stages. Layers a workload does not exercise read 0
/// (the `service.*` family on one-shot workloads).
pub fn per_layer(
    layers: &Layers,
    service: &StageTotals,
    loadgen_ms_per_op: f64,
    overhead: f64,
) -> Vec<Metric> {
    let br = layers.ball_rounds;
    let rounds = layers.rounds;
    let t = &layers.transport;
    let s = service;
    let stage = |ns: u64| ratio(ns, s.step_ns);
    vec![
        metric(
            "pipeline.self_ns_per_ball_round",
            "ns",
            ratio(layers.pipeline_self_ns(), br),
        ),
        metric(
            "pipeline.signatures_per_round",
            "count",
            ratio(t.signatures, t.rounds),
        ),
        metric(
            "transport.compose_ns_per_ball_round",
            "ns",
            ratio(t.compose_ns, br),
        ),
        metric(
            "transport.apply_ns_per_ball_round",
            "ns",
            ratio(t.apply_ns, br),
        ),
        metric(
            "transport.sweep_ns_per_ball_round",
            "ns",
            ratio(t.sweep_ns, br),
        ),
        metric(
            "transport.setup_ms",
            "ms",
            ratio(layers.setup_ns, layers.runs) / 1e6,
        ),
        metric(
            "kernel.compose_batch_ns_per_ball",
            "ns",
            ratio(layers.compose_batch_ns, layers.composed_balls),
        ),
        metric(
            "kernel.compose_batch_calls_per_round",
            "count",
            ratio(layers.compose_batch_calls, rounds),
        ),
        metric("kernel.compose_calls", "count", layers.compose_calls as f64),
        metric(
            "kernel.apply_ns_per_ball_round",
            "ns",
            ratio(layers.apply_ns, br),
        ),
        metric(
            "kernel.apply_calls_per_round",
            "count",
            ratio(layers.apply_calls, rounds),
        ),
        metric("kernel.anomalies", "count", layers.anomalies as f64),
        metric(
            "tree.descend_ns_per_ball",
            "ns",
            ratio(layers.descend_ns, layers.tree_balls),
        ),
        metric(
            "tree.place_ns_per_ball",
            "ns",
            ratio(layers.place_ns, layers.tree_balls),
        ),
        metric(
            "wire.encode_ns_per_msg",
            "ns",
            ratio(layers.encode_ns, layers.wire_msgs),
        ),
        metric(
            "wire.decode_ns_per_msg",
            "ns",
            ratio(layers.decode_ns, layers.wire_msgs),
        ),
        metric(
            "wire.bytes_per_msg",
            "bytes",
            ratio(layers.wire_bytes, layers.messages_sent),
        ),
        metric(
            "adversary.plan_ns_per_round",
            "ns",
            ratio(layers.plan_ns, rounds),
        ),
        metric(
            "adversary.crashes_per_run",
            "count",
            ratio(layers.crashes, layers.runs),
        ),
        metric("service.submit_frac", "fraction", stage(s.submit_ns)),
        metric("service.begin_frac", "fraction", stage(s.begin_ns)),
        metric("service.execute_frac", "fraction", stage(s.execute_ns)),
        metric("service.complete_frac", "fraction", stage(s.complete_ns)),
        metric("service.join_wait_frac", "fraction", stage(s.join_wait_ns)),
        metric(
            "service.shard_epoch_skew",
            "ratio",
            if s.epochs == 0 {
                0.0
            } else {
                s.skew_sum / s.epochs as f64
            },
        ),
        metric("service.backlog_mean", "count", ratio(s.backlog, s.epochs)),
        metric(
            "service.deferred_per_epoch",
            "count",
            ratio(s.deferred, s.epochs),
        ),
        metric(
            "service.spilled_frac",
            "fraction",
            ratio(s.spilled, s.granted),
        ),
        metric(
            "service.crashed_per_epoch",
            "count",
            ratio(s.crashed, s.epochs),
        ),
        metric(
            "service.grant_ratio",
            "fraction",
            ratio(s.granted, s.admitted),
        ),
        metric("loadgen.ms_per_op", "ms", loadgen_ms_per_op),
        metric("trace.overhead_frac", "fraction", overhead),
    ]
}

/// `(name, unit)` of every metric a run reports: per-layer when traced,
/// end-to-end otherwise.
pub fn reported(trace: bool) -> Vec<(&'static str, &'static str)> {
    let metrics = if trace {
        per_layer(&Layers::default(), &StageTotals::default(), 0.0, 0.0)
    } else {
        end_to_end(0.0, 0.0, 0.0, 0.0, 0.0)
    };
    metrics.iter().map(|m| (m.name, m.unit)).collect()
}

/// Runs `workload` once as configured.
pub fn run(workload: &Workload, cfg: &RunConfig) -> Outcome {
    let kind = if cfg.smoke {
        workload.smoke
    } else {
        workload.full
    };
    match (kind, cfg.trace) {
        (Kind::OneShot(w), false) => w.measure(cfg),
        (Kind::OneShot(w), true) => w.trace(cfg),
        (Kind::Service(w), false) => w.measure(cfg),
        (Kind::Service(w), true) => w.trace(cfg),
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
