//! One module per experiment; each regenerates one figure or
//! theorem-level claim of the paper and returns a markdown section.
//!
//! The experiment index (ids E1–E13, fig1/2, fig4) is defined in
//! `DESIGN.md` §5; the measured-vs-paper comparison lives in
//! `EXPERIMENTS.md`, whose tables are produced by these functions via
//! the `paper-eval` binary.

pub mod e01_rounds_vs_n;
pub mod e02_separation;
pub mod e03_early_ff;
pub mod e04_early_f;
pub mod e05_bmax;
pub mod e06_path_drain;
pub mod e07_crashes;
pub mod e08_deterministic_termination;
pub mod e11_messages;
pub mod e12_ablations;
pub mod e13_baseline_failures;
pub mod e14_churn;
pub mod e15_service_scale;
pub mod figures;

use crate::scenario::{Algorithm, Executor, Scenario};

/// Global evaluation options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalOpts {
    /// Quick mode: small sizes and few seeds, suitable for CI and debug
    /// builds. Full mode (the default) reproduces the committed
    /// `EXPERIMENTS.md`.
    pub quick: bool,
    /// Which executor carries every scenario's rounds. The executors are
    /// bit-identical, so tables come out the same on all of them; this
    /// picks the cost profile (clustered for sweeps, threaded to
    /// demonstrate real message passing, socket to send every round over
    /// loopback TCP, …).
    pub executor: Executor,
}

impl EvalOpts {
    /// A failure-free scenario on this evaluation's executor; experiment
    /// modules start from this so `--executor` reaches every run.
    pub fn scenario(&self, algorithm: Algorithm, n: usize) -> Scenario {
        Scenario::failure_free(algorithm, n).on_executor(self.executor)
    }

    /// These options with the executor replaced by the in-memory one
    /// that observer-based experiments (E5, E6, the figures) will
    /// actually run: they read live cluster state, and the wire
    /// executors (threaded, socket) never call an observer, so they fall
    /// back to the clustered engine with a printed note instead of
    /// silently pretending. Size grids capped through the returned
    /// options therefore reflect the executor that really runs.
    pub(crate) fn observed(&self) -> EvalOpts {
        match self.executor {
            Executor::Clustered | Executor::PerProcess | Executor::Parallel => *self,
            Executor::Threaded | Executor::Socket => {
                eprintln!(
                    "note: the {} executor has no observer hooks; \
                     observer-based experiments run on the clustered engine",
                    self.executor
                );
                EvalOpts {
                    executor: Executor::Clustered,
                    ..*self
                }
            }
        }
    }

    /// Caps a size grid to what this evaluation's executor can feasibly
    /// carry, printing what was dropped (no silent truncation).
    fn cap_sizes(&self, ns: Vec<usize>) -> Vec<usize> {
        match self.executor.max_n() {
            None => ns,
            Some(max_n) => {
                let (keep, drop): (Vec<usize>, Vec<usize>) =
                    ns.into_iter().partition(|n| *n <= max_n);
                if !drop.is_empty() {
                    eprintln!(
                        "note: dropping sizes {drop:?} — beyond the {} executor's cap of {max_n}",
                        self.executor
                    );
                }
                keep
            }
        }
    }

    /// Seed range: `full` seeds normally, a handful in quick mode.
    pub fn seeds(&self, full: u64) -> std::ops::Range<u64> {
        if self.quick {
            0..full.min(3)
        } else {
            0..full
        }
    }

    /// Powers of two `2^lo ..= 2^hi` stepping the exponent by `step`,
    /// with `hi` clamped down in quick mode and the grid capped to the
    /// chosen executor's feasible sizes (dropped points are printed).
    pub fn pow2s(&self, lo: u32, hi: u32, step: u32) -> Vec<usize> {
        let hi = if self.quick { hi.min(8) } else { hi };
        self.cap_sizes(
            (lo..=hi)
                .step_by(step as usize)
                .map(|e| 1usize << e)
                .collect(),
        )
    }
}

/// Formats a float with two decimals for table cells.
pub(crate) fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a rate as a percentage.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

/// A markdown section with a title.
pub(crate) fn section(title: &str, body: &str) -> String {
    format!("## {title}\n\n{body}\n")
}

/// An experiment: runs under the given options and returns its
/// markdown section.
pub type Run = fn(&EvalOpts) -> String;

/// Every experiment as `(id, run)`, in index order: the ids
/// `paper-eval` accepts and the order [`run_all`] runs them in.
pub const ALL: &[(&str, Run)] = &[
    ("e1", e01_rounds_vs_n::run),
    ("e2", e02_separation::run),
    ("e3", e03_early_ff::run),
    ("e4", e04_early_f::run),
    ("e5", e05_bmax::run),
    ("e6", e06_path_drain::run),
    ("e7", e07_crashes::run),
    ("e8", e08_deterministic_termination::run),
    ("fig12", figures::run_fig12),
    ("fig4", figures::run_fig4),
    ("e11", e11_messages::run),
    ("e12", e12_ablations::run),
    ("e13", e13_baseline_failures::run),
    ("e14", e14_churn::run),
    ("e15", e15_service_scale::run),
];

/// Runs every experiment and concatenates the sections in index order.
pub fn run_all(opts: &EvalOpts) -> String {
    let parts: Vec<String> = ALL.iter().map(|(_, run)| run(opts)).collect();
    parts.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_opts_shrink_work() {
        let q = EvalOpts {
            quick: true,
            ..EvalOpts::default()
        };
        assert_eq!(q.seeds(100), 0..3);
        assert!(q.pow2s(4, 16, 2).iter().all(|n| *n <= 256));
        let f = EvalOpts::default();
        assert_eq!(f.seeds(10), 0..10);
        assert_eq!(f.pow2s(4, 8, 2), vec![16, 64, 256]);
    }

    #[test]
    fn size_grids_respect_executor_caps() {
        let threaded = EvalOpts {
            quick: false,
            executor: Executor::Threaded,
        };
        // Full e1-style grid: the threaded executor runs slot-range
        // workers now, so its cap sits at 2^16 like the socket's —
        // everything past it is dropped, not crashed into.
        assert_eq!(
            threaded.pow2s(4, 16, 2),
            vec![16, 64, 256, 1024, 4096, 16384, 65536]
        );
        let per_process = EvalOpts {
            quick: false,
            executor: Executor::PerProcess,
        };
        // Per-process shares views by delivery history now, so its cap
        // sits at 2^16 like the socket executor's.
        assert!(per_process.pow2s(4, 16, 2).iter().all(|n| *n <= 1 << 16));
        assert_eq!(per_process.pow2s(4, 16, 2).last(), Some(&65536));
        let socket = EvalOpts {
            quick: false,
            executor: Executor::Socket,
        };
        // Socket workers share views by delivery history, so the socket
        // cap sits at 2^16 and the full grid survives.
        assert!(socket.pow2s(4, 16, 2).iter().all(|n| *n <= 1 << 16));
        assert_eq!(socket.pow2s(4, 16, 2).last(), Some(&65536));
        // Unbounded executors keep the full grid.
        assert_eq!(EvalOpts::default().pow2s(4, 16, 2).last(), Some(&65536));
    }

    #[test]
    fn helpers_format() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(pct(0.5), "50%");
        assert!(section("T", "b").starts_with("## T"));
    }
}
