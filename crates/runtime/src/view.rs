//! The view-protocol abstraction: write the algorithm once, run it on any
//! executor.
//!
//! Full-information synchronous algorithms like Balls-into-Leaves have the
//! property that a process's entire state is a *deterministic function of
//! the broadcasts it has received* (its "local view" — the paper's local
//! tree). We exploit that structurally: an algorithm implements
//! [`ViewProtocol`] as three pure functions
//!
//! * [`ViewProtocol::compose`] — produce this round's broadcast from the
//!   current view (the only place randomness enters),
//! * [`ViewProtocol::apply`] — fold the round's inbox into the view,
//! * [`ViewProtocol::status`] — read a ball's decision off the view,
//!
//! and every executor ([`crate::exec::ExecutorKind`]) — the per-process
//! reference engine, the cluster-sharing engine, the data-parallel
//! executor ([`crate::parallel`]), and the slot-range worker executors
//! ([`crate::worker`]) — drives those same
//! functions through the one shared round loop
//! ([`crate::pipeline::RoundPipeline`]) and the one cluster store
//! ([`crate::pipeline::LocalTransport`]). Cross-executor equivalence is
//! enforced by tests.
//!
//! The payoff of the formulation is the **cluster engine**: processes whose
//! views are bit-identical (all of them, in failure-free rounds; all but a
//! few around a crash, by the paper's Proposition 1) share one physical
//! view, so a round costs `O(#clusters · n log n)` instead of
//! `O(n² log n)`, which is what makes the paper's `n = 2^16 … 2^20` sweeps
//! tractable on a laptop while remaining observationally identical to the
//! per-process semantics.

use std::fmt;
use std::hash::Hash;

use rand::rngs::SmallRng;

use crate::ids::{Label, Name, ProcId, Round};
use crate::wire::Wire;

/// A ball's liveness/decision status as read from a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Still participating.
    Running,
    /// Decided this name; the process goes silent from the next round.
    Decided(Name),
}

/// One round's delivered broadcasts in structure-of-arrays form: sender
/// labels and their messages as two parallel, label-sorted slices.
///
/// Splitting the columns keeps the message payloads contiguous — with
/// `Copy`-dominated messages (packed candidate paths) a shared inbox is
/// two dense arrays, which is what lets the round pipeline hand the same
/// physical buffer to every recipient with a given delivery signature
/// and leaves the layout open to columnar/SIMD delivery later. A
/// `RoundInbox` is a pair of borrows — `Copy`, allocation-free, and
/// cheap to pass by value.
#[derive(Debug)]
pub struct RoundInbox<'a, M> {
    labels: &'a [Label],
    msgs: &'a [M],
}

impl<M> Clone for RoundInbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for RoundInbox<'_, M> {}

impl<'a, M> RoundInbox<'a, M> {
    /// Number of delivered broadcasts.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The sender column (sorted ascending).
    pub fn labels(&self) -> &'a [Label] {
        self.labels
    }

    /// The message column, parallel to [`RoundInbox::labels`].
    pub fn msgs(&self) -> &'a [M] {
        self.msgs
    }

    /// The `i`-th delivery.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn get(&self, i: usize) -> (Label, &'a M) {
        (self.labels[i], &self.msgs[i])
    }

    /// Iterates `(sender, message)` pairs in label order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (Label, &'a M)> + '_ {
        self.labels.iter().copied().zip(self.msgs.iter())
    }
}

/// An owned, label-sorted inbox buffer in the same structure-of-arrays
/// layout as [`RoundInbox`]. This is what the executors build once per
/// (round × delivery signature) and share across recipients; tests use
/// it to hand literal inboxes to [`ViewProtocol::apply`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InboxBuf<M> {
    labels: Vec<Label>,
    msgs: Vec<M>,
}

impl<M> InboxBuf<M> {
    /// An empty buffer.
    pub fn new() -> Self {
        InboxBuf {
            labels: Vec::new(),
            msgs: Vec::new(),
        }
    }

    /// Builds a buffer from `(sender, message)` pairs, sorting by label.
    /// Senders are unique by the model (one broadcast per process per
    /// round), so the unstable sort is deterministic — and allocates no
    /// merge scratch.
    pub fn from_pairs(mut pairs: Vec<(Label, M)>) -> Self {
        pairs.sort_unstable_by_key(|(l, _)| *l);
        let (labels, msgs) = pairs.into_iter().unzip();
        InboxBuf { labels, msgs }
    }

    /// Wraps two parallel columns that are already strictly
    /// label-ascending, as the round pipeline builds them; nothing is
    /// sorted.
    pub(crate) fn from_sorted(labels: Vec<Label>, msgs: Vec<M>) -> Self {
        debug_assert_eq!(labels.len(), msgs.len(), "parallel columns");
        debug_assert!(
            labels.windows(2).all(|w| w[0] < w[1]),
            "inbox labels strictly ascend"
        );
        InboxBuf { labels, msgs }
    }

    /// Number of buffered broadcasts.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` if the buffer holds no broadcasts.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Borrows the buffer as a [`RoundInbox`].
    pub fn as_inbox(&self) -> RoundInbox<'_, M> {
        RoundInbox {
            labels: &self.labels,
            msgs: &self.msgs,
        }
    }
}

impl<M> FromIterator<(Label, M)> for InboxBuf<M> {
    fn from_iter<I: IntoIterator<Item = (Label, M)>>(iter: I) -> Self {
        InboxBuf::from_pairs(iter.into_iter().collect())
    }
}

/// A synchronous full-information protocol expressed over local views.
///
/// Semantics per round `r` (lock-step, crash-prone, per the paper's §3):
///
/// 1. every alive, undecided process `b` broadcasts
///    `compose(&view_b, b, r, rng_b)`;
/// 2. the adversary crashes up to its remaining budget, choosing which
///    recipients still receive each dying broadcast;
/// 3. every alive process folds its inbox — one `(label, msg)` entry per
///    heard sender, **including itself**, sorted by label — into its view
///    via `apply`;
/// 4. `status` is read; `Decided` processes go silent permanently.
///
/// # Determinism requirements
///
/// `apply` and `status` must be deterministic functions of their inputs,
/// and `compose` must consume randomness only from the supplied `rng`.
/// Views of processes that received identical broadcast prefixes must be
/// equal (`View: Eq`); the engines rely on this to share and re-merge
/// views, and `debug_assert` it in cross-checks. `View: Hash` must agree
/// with that equality (equal views hash equally): the clustered store
/// buckets views by a 64-bit digest and compares them with `Eq` only
/// within a bucket, so the hash should be cheap — `O(1)` for the
/// balls-into-leaves view, whose tree keeps its digest incrementally. A
/// hash that told equal views apart would only lose sharing, never
/// correctness.
///
/// Protocols, messages, and views must be `Sync`: the data-parallel
/// executor ([`crate::parallel`]) shares them read-only across its shard
/// threads. Protocols are pure function suites over plain data, so in
/// practice this costs nothing.
pub trait ViewProtocol: Sync {
    /// Broadcast message type.
    type Msg: Clone + Eq + fmt::Debug + Wire + Send + Sync + 'static;
    /// Local view (state) type.
    type View: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static;

    /// The view every process starts with, before round 0. Must not depend
    /// on the process's own label (all per-ball data is derived inside
    /// `compose`/`status` from the label argument).
    fn init_view(&self, n: usize) -> Self::View;

    /// Produce ball `ball`'s broadcast for `round`.
    fn compose(
        &self,
        view: &Self::View,
        ball: Label,
        round: Round,
        rng: &mut SmallRng,
    ) -> Self::Msg;

    /// Produce the broadcasts of every ball in `balls` against one shared
    /// `view`, appending `(ball, message)` pairs to `out` in input order.
    ///
    /// `rngs` is parallel to `balls`: `rngs[i]` is ball `balls[i]`'s
    /// private stream, and each ball's draws must be exactly the draws a
    /// per-ball [`ViewProtocol::compose`] call would make (streams are
    /// per-process, so cross-ball interleaving is unobservable). The
    /// default implementation is that per-ball loop; protocols with a
    /// sorted columnar view (the balls-into-leaves kernel) override it to
    /// share per-ball lookup and descent-prefix work across the batch.
    /// Executors call this once per shared view instead of once per ball.
    ///
    /// # Panics
    ///
    /// Panics if `balls` and `rngs` have different lengths.
    fn compose_batch(
        &self,
        view: &Self::View,
        balls: &[Label],
        round: Round,
        rngs: &mut [&mut SmallRng],
        out: &mut Vec<(Label, Self::Msg)>,
    ) {
        assert_eq!(
            balls.len(),
            rngs.len(),
            "compose_batch needs one rng per ball"
        );
        for (ball, rng) in balls.iter().zip(rngs.iter_mut()) {
            out.push((*ball, self.compose(view, *ball, round, rng)));
        }
    }

    /// Fold the round's inbox into the view. `inbox` is sorted by sender
    /// label and contains at most one message per sender (including the
    /// receiver itself).
    fn apply(&self, view: &mut Self::View, round: Round, inbox: RoundInbox<'_, Self::Msg>);

    /// Prunes from `view`, before `inbox` is applied to it, state that
    /// the fold would discard without reading it first — for
    /// Balls-into-Leaves, the balls `inbox` leaves silent.
    ///
    /// The contract: `apply(inbox)` on the pruned view must yield a view
    /// `==` to `apply(inbox)` on the untouched view. The clustered store
    /// ([`crate::pipeline::LocalTransport`]) prunes each split group's
    /// view against its own inbox and then folds each distinct
    /// (signature, pruned view) pair once, so groups whose views differed
    /// only in what the round discards share one `apply`. The default
    /// prunes nothing, which always meets the contract. A protocol
    /// wrapper must forward this hook, or the store folds every group.
    fn remove_silent(&self, view: &mut Self::View, round: Round, inbox: RoundInbox<'_, Self::Msg>) {
        let _ = (view, round, inbox);
    }

    /// Ball `ball`'s status after `round` has been applied.
    fn status(&self, view: &Self::View, ball: Label, round: Round) -> Status;
}

/// A set of processes currently sharing one identical local view.
#[derive(Debug, Clone)]
pub struct Cluster<V> {
    /// Member slots, sorted ascending. Invariant: non-empty and all
    /// alive. Between rounds all members are also undecided; an
    /// [`Observer`] additionally sees members that decided in the
    /// observed round, since observation happens before they retire.
    pub members: Vec<ProcId>,
    /// The shared view.
    pub view: V,
}

/// Read-only context handed to observers along with the cluster state.
#[derive(Debug, Clone, Copy)]
pub struct ObserverCtx<'a> {
    /// The round that was just applied.
    pub round: Round,
    /// Labels by slot.
    pub labels: &'a [Label],
    /// Liveness by slot.
    pub alive: &'a [bool],
}

/// A per-round hook over the engine's cluster state; used by experiments
/// that need tree internals (per-node ball counts, path occupancy, …)
/// without widening the public engine API.
pub trait Observer<P: ViewProtocol> {
    /// Called after every round's `apply` (and cluster re-merge), but
    /// *before* the status sweep retires members that decided this
    /// round — so the final view of a deciding process is observable.
    fn after_round(&mut self, ctx: ObserverCtx<'_>, clusters: &[Cluster<P::View>]);
}

/// The do-nothing observer.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl<P: ViewProtocol> Observer<P> for NoObserver {
    fn after_round(&mut self, _ctx: ObserverCtx<'_>, _clusters: &[Cluster<P::View>]) {}
}

/// An observer built from a closure, for ad-hoc experiment hooks.
pub struct FnObserver<F>(pub F);

impl<F> fmt::Debug for FnObserver<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FnObserver").finish_non_exhaustive()
    }
}

impl<P, F> Observer<P> for FnObserver<F>
where
    P: ViewProtocol,
    F: FnMut(ObserverCtx<'_>, &[Cluster<P::View>]),
{
    fn after_round(&mut self, ctx: ObserverCtx<'_>, clusters: &[Cluster<P::View>]) {
        (self.0)(ctx, clusters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_eq() {
        assert_eq!(Status::Running, Status::Running);
        assert_eq!(Status::Decided(Name(1)), Status::Decided(Name(1)));
        assert_ne!(Status::Decided(Name(1)), Status::Decided(Name(2)));
    }

    #[test]
    fn fn_observer_debug_nonempty() {
        let obs = FnObserver(|_: ObserverCtx<'_>, _: &[Cluster<u32>]| {});
        assert!(!format!("{obs:?}").is_empty());
    }

    #[test]
    fn inbox_buf_sorts_and_round_inbox_zips() {
        let buf: InboxBuf<u32> = vec![(Label(30), 3u32), (Label(10), 1), (Label(20), 2)]
            .into_iter()
            .collect();
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
        let inbox = buf.as_inbox();
        assert_eq!(inbox.labels(), &[Label(10), Label(20), Label(30)]);
        assert_eq!(inbox.msgs(), &[1, 2, 3]);
        assert_eq!(inbox.get(1), (Label(20), &2));
        let pairs: Vec<(Label, u32)> = inbox.iter().map(|(l, m)| (l, *m)).collect();
        assert_eq!(pairs, vec![(Label(10), 1), (Label(20), 2), (Label(30), 3)]);
        // A RoundInbox is Copy: both copies read the same columns.
        let a = inbox;
        let b = inbox;
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn empty_inbox_buf() {
        let buf: InboxBuf<u32> = InboxBuf::new();
        assert!(buf.is_empty());
        assert!(buf.as_inbox().is_empty());
        assert_eq!(buf.as_inbox().iter().count(), 0);
    }
}
