//! Run-level options, shared by every executor.
//!
//! A run is started in one way, [`crate::exec::ExecutorKind::run`] (or
//! [`crate::exec::ExecutorKind::run_observed`]), which takes one
//! [`EngineOptions`]. The options never change a report: the round
//! limit is part of the run's input on every executor, and the wire
//! settings only change wall-clock time.

use crate::socket::SocketOptions;

pub use crate::pipeline::ConfigError;

/// Run-level options of all five executors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineOptions {
    /// Hard stop after this many rounds; `None` picks `8·n + 64`, which is
    /// far above the paper's deterministic `O(n)`-phase termination bound
    /// (Lemma 11) and therefore only trips on genuine liveness failures.
    pub max_rounds: Option<u64>,
    /// Worker count and socket I/O timeout of the two wire executors
    /// (threaded and socket). The in-memory executors ignore it, and no
    /// report depends on it.
    pub wire: SocketOptions,
}

impl EngineOptions {
    pub(crate) fn round_limit(&self, n: usize) -> u64 {
        self.max_rounds.unwrap_or(8 * n as u64 + 64)
    }
}
