//! The data-parallel executor: clustered semantics, sharded rounds.
//!
//! [`ParallelTransport`] is the clustered
//! [`crate::pipeline::LocalTransport`] with a shard count above 1: the
//! same cluster store, whose two heavy stages fan out across scoped OS
//! threads (so nothing needs `'static`):
//!
//! * **compose** — one pass builds the round's ball list, cluster-major
//!   and label-ordered within a cluster, with each ball's RNG stream
//!   alongside; contiguous chunks of that list compose on their own
//!   threads, one batched sweep per cluster run inside a chunk;
//! * **apply** — each (cluster × delivery-signature) group folds its
//!   shared inbox into its own view, so the groups are chunked the same
//!   way.
//!
//! Determinism is by construction, not by luck: chunk results are joined
//! in list order and, with several clusters, merged into label order by
//! one walk over the label-sorted slots (compose), groups keep their
//! construction order and then pass through the same cluster-coalescing
//! pass as the clustered engine (apply), and every per-process RNG
//! stream is identical to the serial engines'. The thread count
//! therefore affects wall-clock time only — a
//! [`crate::trace::RunReport`] from this executor is bit-identical to the
//! other executors' for the same `(protocol, labels, adversary, seed)`,
//! which workspace tests enforce.

use crate::ids::Label;
use crate::pipeline::LocalTransport;
use crate::rng::SeedTree;
use crate::view::ViewProtocol;

/// A clustered in-memory [`crate::pipeline::Transport`] whose per-round
/// compose and apply stages run on several OS threads; see the module
/// docs.
pub type ParallelTransport<P> = LocalTransport<P>;

impl<P: ViewProtocol> LocalTransport<P> {
    /// A parallel transport using every available hardware thread.
    pub fn new(protocol: P, labels: &[Label], seeds: &SeedTree) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1);
        Self::with_threads(protocol, labels, seeds, threads)
    }

    /// A parallel transport with an explicit shard count (≥ 1; a count
    /// of 1 is the clustered transport). The produced
    /// [`crate::trace::RunReport`] does not depend on `threads`; tests
    /// use this to assert exactly that.
    pub fn with_threads(protocol: P, labels: &[Label], seeds: &SeedTree, threads: usize) -> Self {
        Self::with_range(protocol, labels.len(), 0, labels, seeds, true, threads)
    }

    /// The shard count this transport fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

#[cfg(test)]
mod tests {
    //! Bad labels, equivalence with the clustered engine, and the round
    //! limit are pinned for every executor by the table tests in
    //! `crate::exec`.

    use super::*;
    use crate::pipeline::RoundPipeline;
    use crate::testproto::{labels, two_crashes, UnionRank};
    use crate::view::NoObserver;

    #[test]
    fn report_is_independent_of_thread_count() {
        let ls = labels(14);
        let run_with = |threads: usize| {
            let seeds = SeedTree::new(13);
            let mut t = ParallelTransport::with_threads(UnionRank::rounds(4), &ls, &seeds, threads);
            assert_eq!(t.threads(), threads.max(1));
            RoundPipeline::new(ls.clone(), two_crashes(), seeds, 1000)
                .unwrap()
                .run(&mut t, &mut NoObserver)
                .unwrap()
        };
        let one = run_with(1);
        for threads in [2, 3, 8, 64] {
            assert_eq!(one, run_with(threads), "threads = {threads}");
        }
    }
}
