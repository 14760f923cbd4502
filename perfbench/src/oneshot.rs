//! One-shot workloads: renames of `n` processes to completion.

use std::time::Instant;

use bil_core::check_tight_renaming;
use bil_harness::{AdversarySpec, Algorithm, Executor, Scenario};
use bil_runtime::RunReport;

use crate::service::StageTotals;
use crate::stats::{mean, median, ns_since, quantile, Digest};
use crate::trace::{traced_scenario, Layers};
use crate::workload::{end_to_end, per_layer, Outcome, RunConfig};

/// Zero-round runs timed for the set-up figure; the median is reported.
const SETUP_RUNS: u64 = 15;

/// Renames every run makes however little time it is given; the outputs
/// digest covers exactly these, so it is the same for a seed whatever
/// the machine's speed.
const MIN_RENAMES: u64 = 3;

/// The warm-up input's index, far from the measured ones.
const WARM_UP: u64 = u64::MAX;

/// A rename of `n` processes by base balls-into-leaves on one executor
/// against one adversary.
#[derive(Debug, Clone, Copy)]
pub struct OneShot {
    executor: Executor,
    n: usize,
    adversary: AdversarySpec,
}

/// Whether a rename's report is a correct tight renaming.
fn verify(report: &RunReport) -> Result<(), String> {
    let verdict = check_tight_renaming(report);
    if report.completed() && verdict.holds() {
        Ok(())
    } else {
        Err(format!("seed {:#x}: {verdict}", report.seed))
    }
}

fn fold_digest(digest: &mut Digest, report: &RunReport) {
    digest.word(report.seed);
    digest.word(report.rounds);
    digest.word(report.messages_sent);
    digest.word(report.wire_bytes_sent);
    for d in &report.decisions {
        digest.word(d.map_or(u64::MAX, |d| u64::from(d.name.0) << 32 | d.round.0));
    }
    for c in &report.crashes {
        digest.word(u64::from(c.pid.0) << 32 | c.round.0);
    }
}

impl OneShot {
    /// A one-shot workload.
    pub const fn new(executor: Executor, n: usize, adversary: AdversarySpec) -> Self {
        OneShot {
            executor,
            n,
            adversary,
        }
    }

    fn scenario(&self) -> Scenario {
        Scenario::failure_free(Algorithm::BilBase, self.n)
            .on_executor(self.executor)
            .against(self.adversary)
    }

    /// Set-up: the median wall time of a zero-round run, which pays for
    /// labels, transport construction (spawn and handshake on the wire
    /// executors) and teardown, but for no round.
    fn setup_s(&self, cfg: &RunConfig, out: &mut Outcome) -> f64 {
        let scenario = self.scenario().with_max_rounds(0);
        let mut times = Vec::new();
        for i in 0..SETUP_RUNS {
            let t = Instant::now();
            let result = scenario.run(cfg.sub_seed(i));
            times.push(t.elapsed().as_secs_f64());
            if let Err(e) = result {
                out.record(Err(format!("set-up run: {e}")));
            }
        }
        median(&times)
    }

    /// The untraced run: end-to-end metrics.
    pub fn measure(&self, cfg: &RunConfig) -> Outcome {
        let scenario = self.scenario();
        let mut out = Outcome::default();
        let setup_s = self.setup_s(cfg, &mut out);
        out.record(
            scenario
                .run(cfg.sub_seed(WARM_UP))
                .map_err(|e| e.to_string())
                .and_then(|r| verify(&r)),
        );

        let (mut ms, mut rounds) = (Vec::new(), Vec::new());
        let (mut names_per_s, mut ns_per_ball_round) = (Vec::new(), Vec::new());
        let start = Instant::now();
        let mut i = 0;
        while i < MIN_RENAMES || start.elapsed().as_secs_f64() < cfg.seconds {
            let t = Instant::now();
            let result = scenario.run(cfg.sub_seed(i));
            let elapsed = t.elapsed().as_secs_f64();
            match result {
                Ok(report) => {
                    out.record(verify(&report));
                    ms.push(elapsed * 1e3);
                    rounds.push(report.rounds as f64);
                    let names = report.decisions.iter().flatten().count();
                    names_per_s.push(names as f64 / elapsed);
                    ns_per_ball_round.push(elapsed * 1e9 / (report.rounds * self.n as u64) as f64);
                    if i < MIN_RENAMES {
                        fold_digest(&mut out.digest, &report);
                    }
                }
                Err(e) => out.record(Err(e.to_string())),
            }
            i += 1;
        }

        out.notes.push(format!(
            "{} renames of n = {} on {} against {}: latency p10 {:.3} ms, p50 {:.3} ms, p90 {:.3} ms; rounds {}..={}",
            ms.len(),
            self.n,
            self.executor,
            self.adversary,
            quantile(&ms, 0.1),
            quantile(&ms, 0.5),
            quantile(&ms, 0.9),
            quantile(&rounds, 0.0),
            quantile(&rounds, 1.0),
        ));
        out.metrics = end_to_end(
            quantile(&ms, 0.1),
            quantile(&names_per_s, 0.9),
            quantile(&ns_per_ball_round, 0.1),
            mean(&rounds),
            setup_s,
        );
        out
    }

    /// The traced run: alternates untraced and traced renames of the same
    /// inputs, checks their reports are identical, and reports the
    /// per-layer split of the traced ones.
    pub fn trace(&self, cfg: &RunConfig) -> Outcome {
        let scenario = self.scenario();
        let mut out = Outcome::default();
        let (mut warm_up, mut layers) = (Layers::default(), Layers::default());
        let mut untraced_ns = 0u64;
        let start = Instant::now();
        let mut i = 0;
        // Input 0 is the warm-up pair; its times are not counted. The
        // order alternates so drift in the machine's speed cancels.
        while i <= MIN_RENAMES || start.elapsed().as_secs_f64() < cfg.seconds {
            let seed = cfg.sub_seed(i);
            let sink = if i == 0 { &mut warm_up } else { &mut layers };
            let (untraced, traced) = if i % 2 == 0 {
                let t = Instant::now();
                let untraced = scenario.run(seed).map(|r| (r, ns_since(t)));
                (untraced, traced_scenario(&scenario, seed, sink))
            } else {
                let traced = traced_scenario(&scenario, seed, sink);
                let t = Instant::now();
                (scenario.run(seed).map(|r| (r, ns_since(t))), traced)
            };
            match (untraced, traced) {
                (Ok((u, u_ns)), Ok(t)) => {
                    out.record(if u == t {
                        verify(&t)
                    } else {
                        Err(format!(
                            "seed {seed:#x}: traced report differs from untraced"
                        ))
                    });
                    if i > 0 {
                        untraced_ns += u_ns;
                    }
                    if i < MIN_RENAMES {
                        fold_digest(&mut out.digest, &t);
                    }
                }
                (Err(e), _) => out.record(Err(e.to_string())),
                (_, Err(e)) => out.record(Err(format!("traced: {e}"))),
            }
            i += 1;
        }
        let loadgen_ms = layers.loadgen_ns as f64 / layers.runs.max(1) as f64 / 1e6;
        let overhead = layers.wall_ns as f64 / untraced_ns as f64 - 1.0;
        out.notes.push(format!(
            "{} traced renames, {:.3} ms of run each: transport {:.1}%, adversary {:.1}%, pipeline self {:.1}%",
            layers.runs,
            layers.run_ns as f64 / layers.runs.max(1) as f64 / 1e6,
            share(layers.transport.total_ns(), layers.run_ns),
            share(layers.adversary_wrapper_ns, layers.run_ns),
            share(layers.pipeline_self_ns(), layers.run_ns),
        ));
        out.metrics = per_layer(&layers, &StageTotals::default(), loadgen_ms, overhead);
        out
    }
}

/// `part` as a percentage of `whole`.
fn share(part: u64, whole: u64) -> f64 {
    100.0 * part as f64 / whole.max(1) as f64
}
