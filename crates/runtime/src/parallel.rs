//! The data-parallel executor: clustered semantics, sharded rounds.
//!
//! [`ParallelTransport`] keeps its views in memory exactly like the
//! clustered [`crate::pipeline::LocalTransport`], but fans each round's
//! two heavy stages out across OS threads (vendored crossbeam scoped
//! threads, so nothing needs `'static`):
//!
//! * **compose** — every participant's broadcast is independent (its own
//!   RNG stream, a shared read-only view), so participants are sharded
//!   into contiguous slot ranges, one thread per shard;
//! * **apply** — each (cluster × delivery-signature) group folds its
//!   shared inbox into its own view, so groups are sharded the same way.
//!
//! Determinism is by construction, not by luck: shard results are merged
//! back in slot order (compose) and in group-construction order followed
//! by the same label-ordered cluster-coalescing pass the clustered
//! engine runs (apply), and
//! every per-process RNG stream is identical to the serial engines'. The
//! thread count therefore affects wall-clock time only — a
//! [`crate::trace::RunReport`] from this executor is bit-identical to the
//! other three executors' for the same `(protocol, labels, adversary,
//! seed)`, which workspace tests enforce.

use std::fmt;

use crossbeam::thread as cb_thread;
use rand::rngs::SmallRng;

use crate::adversary::Adversary;
use crate::engine::{EngineMode, EngineOptions, SyncEngine};
use crate::error::RunError;
use crate::ids::{Label, ProcId, Round};
use crate::pipeline::{merge_clusters, LocalTransport, RoundMessages, Transport};
use crate::rng::SeedTree;
use crate::trace::RunReport;
use crate::view::{Cluster, Observer, ObserverCtx, Status, ViewProtocol};

/// A [`Transport`] with clustered in-memory views whose per-round compose
/// and apply stages run on multiple OS threads; see the module docs.
pub struct ParallelTransport<P: ViewProtocol> {
    inner: LocalTransport<P>,
    threads: usize,
}

impl<P: ViewProtocol + fmt::Debug> fmt::Debug for ParallelTransport<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelTransport")
            .field("inner", &self.inner)
            .field("threads", &self.threads)
            .finish()
    }
}

impl<P: ViewProtocol> ParallelTransport<P> {
    /// A parallel transport using every available hardware thread.
    pub fn new(protocol: P, labels: &[Label], seeds: &SeedTree) -> Self {
        let threads = std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1);
        Self::with_threads(protocol, labels, seeds, threads)
    }

    /// A parallel transport with an explicit shard count (≥ 1). The
    /// produced [`RunReport`] does not depend on `threads`; tests use
    /// this to assert exactly that.
    pub fn with_threads(protocol: P, labels: &[Label], seeds: &SeedTree, threads: usize) -> Self {
        ParallelTransport {
            inner: LocalTransport::clustered(protocol, labels, seeds),
            threads: threads.max(1),
        }
    }

    /// The shard count this transport fans out to.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl<P: ViewProtocol> Transport<P> for ParallelTransport<P> {
    fn compose(
        &mut self,
        round: Round,
        participants: &[ProcId],
    ) -> Result<Vec<(ProcId, Label, P::Msg)>, RunError> {
        if self.threads < 2 || participants.len() < 2 {
            // The serial transport already composes one batched sweep per
            // cluster; a one-shard run is exactly that.
            return self.inner.compose(round, participants);
        }
        let threads = self.threads;
        let LocalTransport {
            protocol,
            labels,
            clusters,
            rngs,
            ..
        } = &mut self.inner;

        // Flatten (member, shared view) pairs into slot order so shards
        // cover contiguous — and therefore disjoint — RNG ranges.
        let mut items: Vec<(ProcId, &P::View)> = clusters
            .iter()
            .flat_map(|c| c.members.iter().map(move |&pid| (pid, &c.view)))
            .collect();
        items.sort_unstable_by_key(|(p, _)| *p);
        debug_assert_eq!(items.len(), participants.len());

        let shard_len = items.len().div_ceil(threads);
        let protocol: &P = protocol;
        let labels: &[Label] = labels;
        let mut out: Vec<(ProcId, Label, P::Msg)> = Vec::with_capacity(items.len());
        let mut poisoned = false;
        cb_thread::scope(|s| {
            let mut handles = Vec::new();
            // Hand each shard the exact sub-slice of RNGs covering its
            // slot range; ranges are disjoint and increasing, so the
            // streams consumed match the serial engines' exactly.
            let mut rng_tail: &mut [SmallRng] = rngs.as_mut_slice();
            let mut consumed = 0usize;
            for shard in items.chunks(shard_len) {
                let (Some((first, _)), Some((last, _))) = (shard.first(), shard.last()) else {
                    // `chunks` never yields an empty slice.
                    continue;
                };
                let lo = first.index();
                let hi = last.index();
                let tail = std::mem::take(&mut rng_tail);
                let (_, tail) = tail.split_at_mut(lo - consumed);
                let (mine, rest) = tail.split_at_mut(hi - lo + 1);
                rng_tail = rest;
                consumed = hi + 1;
                handles.push(s.spawn(move || {
                    // Shard slots are in pid order, so members of one
                    // cluster form consecutive pointer-equal view runs;
                    // each run composes as one batched sweep. Per-process
                    // RNG streams make the label-ordered compose within a
                    // run unobservable, and re-sorting each run's output
                    // by slot keeps the shard's result slot-ordered.
                    let mut part: Vec<(ProcId, Label, P::Msg)> = Vec::with_capacity(shard.len());
                    let mut slots: Vec<Option<&mut SmallRng>> = mine.iter_mut().map(Some).collect();
                    let mut pairs: Vec<(Label, ProcId)> = Vec::new();
                    let mut balls: Vec<Label> = Vec::new();
                    let mut gathered: Vec<&mut SmallRng> = Vec::new();
                    let mut composed: Vec<(Label, P::Msg)> = Vec::new();
                    let mut i = 0;
                    while i < shard.len() {
                        let (_, view) = shard[i];
                        let mut j = i + 1;
                        while j < shard.len() && std::ptr::eq(shard[j].1, view) {
                            j += 1;
                        }
                        pairs.clear();
                        pairs.extend(
                            shard[i..j]
                                .iter()
                                .map(|&(pid, _)| (labels[pid.index()], pid)),
                        );
                        pairs.sort_unstable();
                        balls.clear();
                        balls.extend(pairs.iter().map(|&(label, _)| label));
                        gathered.clear();
                        for &(_, pid) in &pairs {
                            gathered.push(
                                slots[pid.index() - lo]
                                    .take()
                                    // bil-lint: allow(no-panic): local invariant — view runs partition the shard, so each RNG is taken exactly once; no wire input involved
                                    .expect("each participant composes once per round"),
                            );
                        }
                        composed.clear();
                        protocol.compose_batch(view, &balls, round, &mut gathered, &mut composed);
                        let start = part.len();
                        for ((label, msg), &(_, pid)) in composed.drain(..).zip(&pairs) {
                            part.push((pid, label, msg));
                        }
                        part[start..].sort_unstable_by_key(|(p, _, _)| *p);
                        i = j;
                    }
                    part
                }));
            }
            // Join in shard order: the concatenation is slot-ordered
            // regardless of thread scheduling.
            for h in handles {
                match h.join() {
                    Ok(part) => out.extend(part),
                    Err(_) => poisoned = true,
                }
            }
        });
        if poisoned {
            return Err(RunError::Protocol {
                context: "composing a round in parallel",
                detail: "a compose shard panicked".to_string(),
            });
        }
        Ok(out)
    }

    fn apply(
        &mut self,
        round: Round,
        alive: &[bool],
        _survivors: &[ProcId],
        msgs: &RoundMessages<P::Msg>,
    ) -> Result<(), RunError> {
        let threads = self.threads;
        let LocalTransport {
            protocol,
            clusters,
            merge,
            ..
        } = &mut self.inner;

        // Same deterministic (cluster × signature) work items as the
        // serial transport; only the folding is sharded.
        let mut items = LocalTransport::<P>::split_groups(clusters, alive, msgs);
        if threads < 2 || items.len() < 2 {
            for (sig, _, view) in items.iter_mut() {
                protocol.apply(view, round, msgs.inbox_by_id(*sig));
            }
        } else {
            let shard_len = items.len().div_ceil(threads);
            let protocol: &P = protocol;
            cb_thread::scope(|s| {
                for shard in items.chunks_mut(shard_len) {
                    s.spawn(move || {
                        for (sig, _, view) in shard.iter_mut() {
                            protocol.apply(view, round, msgs.inbox_by_id(*sig));
                        }
                    });
                }
            });
        }

        // Shards mutated disjoint items in place, so the merge is the
        // item order itself (cluster-major, then signature), followed by
        // the same label-ordered coalescing pass the clustered engine
        // runs.
        let mut next: Vec<Cluster<P::View>> = items
            .into_iter()
            .map(|(_, members, view)| Cluster { members, view })
            .collect();
        if *merge {
            next = merge_clusters(next);
        }
        *clusters = next;
        Ok(())
    }

    fn observe(&mut self, ctx: ObserverCtx<'_>, observer: &mut dyn Observer<P>) {
        self.inner.observe(ctx, observer);
    }

    fn sweep(&mut self, round: Round) -> Result<Vec<(ProcId, Status)>, RunError> {
        self.inner.sweep(round)
    }
}

/// Runs `protocol` on the data-parallel executor and returns the same
/// report every other executor would.
///
/// A convenience mirroring [`crate::threaded::run_threaded`]; equivalent
/// to [`crate::engine::SyncEngine`] with [`crate::engine::EngineMode::Parallel`]
/// (the `mode` in `options` is ignored).
///
/// # Errors
///
/// Returns [`RunError::Config`] if `labels` is empty or contains
/// duplicates; the in-memory transport itself is infallible.
pub fn run_parallel<P, A>(
    protocol: P,
    labels: Vec<Label>,
    adversary: A,
    seeds: SeedTree,
    options: EngineOptions,
) -> Result<RunReport, RunError>
where
    P: ViewProtocol,
    A: Adversary<P::Msg>,
{
    let options = EngineOptions {
        mode: EngineMode::Parallel,
        ..options
    };
    Ok(SyncEngine::with_options(protocol, labels, adversary, seeds, options)?.run())
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
