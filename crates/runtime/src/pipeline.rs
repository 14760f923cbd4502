//! The shared lock-step round pipeline.
//!
//! Every executor in this crate runs the same synchronous round structure
//! (the paper's §3): **compose** (every alive, undecided process
//! broadcasts) → **adversary** (full-information crash planning) →
//! **deliver** (reliable broadcasts plus the partial deliveries of dying
//! ones) → **apply** (fold inboxes into views) → **status sweep** (decided
//! processes retire and go silent). Historically each executor re-rolled
//! that loop by hand; this module owns it once, as [`RoundPipeline`],
//! parameterized by a [`Transport`].
//!
//! A [`Transport`] answers only the executor-specific questions — *where
//! do views live and how is a composed message carried to its recipients*:
//!
//! * [`LocalTransport`] — views in memory on the calling thread, messages
//!   passed by reference (the clustered and per-process engines);
//! * [`crate::parallel::ParallelTransport`] — in-memory views with
//!   per-round compose/apply work sharded across scoped threads;
//! * [`crate::worker::WorkerTransport`] — views in slot-range worker
//!   threads, broadcasts as wire-encoded bytes, over in-process channels
//!   ([`crate::threaded::ChannelTransport`]) or loopback TCP
//!   ([`crate::socket::SocketTransport`]).
//!
//! Everything else — adversary bookkeeping, crash budgets, message
//! accounting, inbox planning, round limits, report assembly — lives in
//! the pipeline, which is what makes the executors bit-identical **by
//! construction** rather than by parallel maintenance.
//!
//! ## Shared round messages
//!
//! A round's broadcasts are stored once, in a [`RoundMessages`]: the
//! reliably-delivered messages as a single label-sorted
//! structure-of-arrays buffer ([`InboxBuf`]) behind an [`Arc`], plus the
//! (rare) partial deliveries of crashing senders. Recipients with the
//! same *delivery signature* — the subset of dying broadcasts they hear
//! — share one physical inbox, so a failure-free round builds and sorts
//! **one** inbox for all `n` recipients instead of cloning `O(n)`
//! messages per recipient, and a round with `c` crashes builds at most
//! `2^c` (in practice a handful of) inbox variants. With
//! `Copy`-dominated messages (packed candidate paths), a failure-free
//! round's delivery is a constant number of buffer allocations total —
//! independent of `n` — and zero per recipient.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use rand::rngs::SmallRng;

use crate::adversary::{Adversary, AdversaryView, Recipients};
use crate::error::RunError;
use crate::ids::{Label, ProcId, Round};
use crate::rng::SeedTree;
use crate::trace::{CrashEvent, Decision, Outcome, RunReport};
use crate::view::{Cluster, InboxBuf, Observer, ObserverCtx, RoundInbox, Status, ViewProtocol};
use crate::wire::Wire;

/// Invalid executor construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `n == 0`.
    EmptySystem,
    /// Two processes were given the same label.
    DuplicateLabel(Label),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptySystem => write!(f, "system must have at least one process"),
            ConfigError::DuplicateLabel(l) => write!(f, "duplicate label {l}"),
        }
    }
}

impl Error for ConfigError {}

/// Checks that `labels` is non-empty and duplicate-free.
///
/// # Errors
///
/// Returns [`ConfigError`] otherwise.
pub fn validate_labels(labels: &[Label]) -> Result<(), ConfigError> {
    if labels.is_empty() {
        return Err(ConfigError::EmptySystem);
    }
    let mut sorted = labels.to_vec();
    sorted.sort_unstable();
    for w in sorted.windows(2) {
        if w[0] == w[1] {
            return Err(ConfigError::DuplicateLabel(w[0]));
        }
    }
    Ok(())
}

/// An interned delivery-signature id, assigned by
/// [`RoundMessages::prepare`]. Ids are dense (`0..variant_count`) and
/// deterministic: signatures are numbered in first-encounter order over
/// the survivors, which the pipeline visits in slot order.
pub type SigId = u32;

/// One round's broadcasts in shared form: a single label-sorted
/// structure-of-arrays buffer of reliably-delivered messages behind an
/// [`Arc`], plus the partial deliveries of senders that crashed
/// mid-broadcast.
///
/// Recipients are keyed by their *delivery signature* — which of the
/// round's dying broadcasts they hear. All recipients with the same
/// signature share one physical inbox; with no crashes that is the `base`
/// buffer itself, handed out by `Arc` clone. [`RoundMessages::prepare`]
/// interns each destination's signature once, so per-delivery lookups
/// ([`RoundMessages::inbox`], [`RoundMessages::sig_id`]) are
/// allocation-free — crash-free rounds never rebuild a signature vector
/// per recipient.
pub struct RoundMessages<M> {
    /// Broadcasts of senders that survived the round, sorted by label.
    base: Inbox<M>,
    /// Broadcasts of senders that crashed this round, with the recipient
    /// set the adversary chose for each.
    partial: Vec<(Label, M, Recipients)>,
    /// Distinct delivery signatures with their shared inboxes, indexed by
    /// [`SigId`]; built by [`RoundMessages::prepare`].
    variants: Vec<(Vec<bool>, Inbox<M>)>,
    /// Slot → interned signature id, filled by [`RoundMessages::prepare`].
    sig_of: Vec<Option<SigId>>,
}

/// A shared, label-sorted inbox buffer (structure-of-arrays).
type Inbox<M> = Arc<InboxBuf<M>>;

impl<M: fmt::Debug> fmt::Debug for RoundMessages<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoundMessages")
            .field("base", &self.base.len())
            .field("partial", &self.partial.len())
            .field("variants", &self.variants.len())
            .finish()
    }
}

impl<M: Clone> RoundMessages<M> {
    /// Splits a round's outgoing broadcasts into reliably-delivered and
    /// partially-delivered, according to post-crash liveness.
    pub fn new(
        outgoing: Vec<(ProcId, Label, M)>,
        alive: &[bool],
        crashes: &[(ProcId, Recipients)],
    ) -> Self {
        let mut pairs: Vec<(Label, M)> = Vec::with_capacity(outgoing.len());
        let mut partial: Vec<(Label, M, Recipients)> = Vec::new();
        for (pid, label, msg) in outgoing {
            if alive[pid.index()] {
                pairs.push((label, msg));
            } else {
                let rec = crashes
                    .iter()
                    .find(|(v, _)| *v == pid)
                    .map(|(_, r)| r.clone())
                    .unwrap_or(Recipients::None);
                partial.push((label, msg, rec));
            }
        }
        RoundMessages {
            base: Arc::new(InboxBuf::from_pairs(pairs)),
            partial,
            variants: Vec::new(),
            sig_of: vec![None; alive.len()],
        }
    }

    /// `dst`'s delivery signature: for each dying broadcast (in partial
    /// order), whether `dst` receives it. Empty in crash-free rounds.
    pub fn signature(&self, dst: ProcId) -> Vec<bool> {
        self.partial
            .iter()
            .map(|(_, _, r)| r.contains(dst))
            .collect()
    }

    /// Interns the signature of every `dst` and builds one shared inbox
    /// per distinct signature. In crash-free rounds this is a single
    /// variant — the base buffer itself — assigned to every destination
    /// without computing any signatures.
    pub fn prepare(&mut self, dsts: &[ProcId]) {
        if self.partial.is_empty() {
            if self.variants.is_empty() {
                self.variants.push((Vec::new(), Arc::clone(&self.base)));
            }
            for &dst in dsts {
                self.sig_of[dst.index()] = Some(0);
            }
            return;
        }
        for &dst in dsts {
            let sig = self.signature(dst);
            let id = match self.variants.iter().position(|(s, _)| *s == sig) {
                Some(i) => i,
                None => {
                    let inbox = self.build(&sig);
                    self.variants.push((sig, inbox));
                    self.variants.len() - 1
                }
            };
            self.sig_of[dst.index()] = Some(id as SigId);
        }
    }

    fn build(&self, sig: &[bool]) -> Inbox<M> {
        if !sig.iter().any(|&heard| heard) {
            // No dying broadcast heard: the shared base buffer *is* the
            // inbox — no clone, no sort.
            return Arc::clone(&self.base);
        }
        let heard = sig.iter().filter(|&&h| h).count();
        let mut pairs: Vec<(Label, M)> = Vec::with_capacity(self.base.len() + heard);
        pairs.extend(
            self.base
                .as_inbox()
                .iter()
                .map(|(label, msg)| (label, msg.clone())),
        );
        for (i, (label, msg, _)) in self.partial.iter().enumerate() {
            if sig[i] {
                pairs.push((*label, msg.clone()));
            }
        }
        Arc::new(InboxBuf::from_pairs(pairs))
    }

    /// The number of distinct delivery signatures interned so far.
    pub fn variant_count(&self) -> usize {
        self.variants.len()
    }

    /// `dst`'s interned signature id. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `dst` was not covered by [`RoundMessages::prepare`].
    pub fn sig_id(&self, dst: ProcId) -> SigId {
        // bil-lint: allow(no-panic): documented panic — `prepare` always precedes delivery; wire input cannot reach it
        self.sig_of[dst.index()].expect("destination prepared before delivery")
    }

    /// The shared inbox for interned signature `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by [`RoundMessages::prepare`].
    pub fn inbox_by_id(&self, id: SigId) -> RoundInbox<'_, M> {
        self.variants[id as usize].1.as_inbox()
    }

    /// The shared inbox buffer for interned signature `id`, by [`Arc`]
    /// clone — for transports that move a round's inboxes to worker
    /// threads without re-encoding them.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by [`RoundMessages::prepare`].
    pub fn inbox_arc(&self, id: SigId) -> Arc<InboxBuf<M>> {
        Arc::clone(&self.variants[id as usize].1)
    }

    /// The shared inbox of recipient `dst`. Allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `dst` was not covered by [`RoundMessages::prepare`].
    pub fn inbox(&self, dst: ProcId) -> RoundInbox<'_, M> {
        self.inbox_by_id(self.sig_id(dst))
    }
}

/// The executor-specific half of a synchronous execution: where views
/// live and how composed messages reach their recipients.
///
/// The [`RoundPipeline`] drives one `Transport` through the shared round
/// structure; implementations must uphold the determinism contract of
/// [`ViewProtocol`] (same views, same RNG streams, same apply order) so
/// that every transport yields a bit-identical [`RunReport`].
///
/// The per-round methods are fallible because the wire transport
/// ([`crate::worker::WorkerTransport`], over channels or sockets) moves
/// encoded bytes across thread and OS boundaries: a malformed frame or a hung
/// worker surfaces as a structured [`RunError`] that the pipeline
/// propagates to the driver (after best-effort teardown), never as a
/// panic inside a worker thread. The in-memory transports are
/// infallible and always return `Ok`.
pub trait Transport<P: ViewProtocol> {
    /// Composes the round broadcast of every process in `participants`
    /// (all alive and undecided, in slot order). The result must be
    /// sorted by slot with exactly one entry per participant.
    fn compose(
        &mut self,
        round: Round,
        participants: &[ProcId],
    ) -> Result<Vec<(ProcId, Label, P::Msg)>, RunError>;

    /// Notifies that `pid` crashed this round, before delivery. Its view
    /// receives no further updates.
    fn crashed(&mut self, pid: ProcId) -> Result<(), RunError> {
        let _ = pid;
        Ok(())
    }

    /// Folds the round's shared inboxes into the views of `survivors`
    /// (the participants still alive after the adversary's crashes, in
    /// slot order). `alive` is indexed by slot.
    fn apply(
        &mut self,
        round: Round,
        alive: &[bool],
        survivors: &[ProcId],
        msgs: &RoundMessages<P::Msg>,
    ) -> Result<(), RunError>;

    /// Observer hook, fired after [`Transport::apply`] and before
    /// [`Transport::sweep`] retires decided processes. Transports with
    /// in-memory views pass their cluster state; the default does
    /// nothing (a wire transport has no introspectable views).
    fn observe(&mut self, ctx: ObserverCtx<'_>, observer: &mut dyn Observer<P>) {
        let _ = (ctx, observer);
    }

    /// Reads the post-apply [`Status`] of every survivor (slot order) and
    /// retires the decided ones: they must not participate in later
    /// rounds.
    fn sweep(&mut self, round: Round) -> Result<Vec<(ProcId, Status)>, RunError>;

    /// Tears the transport down (join worker threads, release channels
    /// and sockets). Called exactly once, after the final round or after
    /// the first error; best-effort, so it is infallible.
    fn shutdown(&mut self) {}
}

/// The shared lock-step round loop: one instance drives any
/// [`Transport`] through compose → adversary → deliver → apply → sweep
/// until every correct process has decided or the round limit trips.
///
/// All model bookkeeping is here — liveness, crash budgets and events,
/// message/bit accounting, decisions, outcome classification — so a
/// [`RunReport`] depends only on `(protocol, labels, adversary, seed)`,
/// never on which transport carried the messages.
pub struct RoundPipeline<A> {
    labels: Vec<Label>,
    adversary: A,
    master_seed: u64,
    round_limit: u64,
}

impl<A: fmt::Debug> fmt::Debug for RoundPipeline<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoundPipeline")
            .field("n", &self.labels.len())
            .field("adversary", &self.adversary)
            .field("round_limit", &self.round_limit)
            .finish()
    }
}

impl<A> RoundPipeline<A> {
    /// Creates a pipeline over `labels` with a fixed round limit.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `labels` is empty or contains
    /// duplicates.
    pub fn new(
        labels: Vec<Label>,
        adversary: A,
        seeds: SeedTree,
        round_limit: u64,
    ) -> Result<Self, ConfigError> {
        validate_labels(&labels)?;
        Ok(RoundPipeline {
            labels,
            adversary,
            master_seed: seeds.master(),
            round_limit,
        })
    }

    /// Runs the synchronous execution to completion (or the round limit)
    /// over `transport`, reporting each round to `observer`.
    ///
    /// The transport is shut down exactly once before returning, on
    /// success and on error alike.
    ///
    /// # Errors
    ///
    /// Propagates the first [`RunError`] the transport reports (wire
    /// decode failures, worker disconnects, socket I/O). In-memory
    /// transports never fail.
    pub fn run<P, T>(
        mut self,
        transport: &mut T,
        observer: &mut dyn Observer<P>,
    ) -> Result<RunReport, RunError>
    where
        P: ViewProtocol,
        A: Adversary<P::Msg>,
        T: Transport<P>,
    {
        let result = self.drive(transport, observer);
        transport.shutdown();
        result
    }

    fn drive<P, T>(
        &mut self,
        transport: &mut T,
        observer: &mut dyn Observer<P>,
    ) -> Result<RunReport, RunError>
    where
        P: ViewProtocol,
        A: Adversary<P::Msg>,
        T: Transport<P>,
    {
        let n = self.labels.len();
        let mut alive = vec![true; n];
        let mut decided: Vec<Option<Decision>> = vec![None; n];
        let mut decided_flags = vec![false; n];
        let mut crash_events: Vec<CrashEvent> = Vec::new();
        let budget = Adversary::<P::Msg>::budget(&self.adversary).min(n.saturating_sub(1));
        let mut budget_used = 0usize;
        let mut messages_sent = 0u64;
        let mut messages_delivered = 0u64;
        let mut wire_bytes_sent = 0u64;
        let mut rounds_executed = 0u64;
        let mut outcome = Outcome::RoundLimit;

        for round_idx in 0..self.round_limit {
            let round = Round(round_idx);

            // Everyone alive has decided: done. (Checked at loop top so a
            // fully-decided system does not execute an empty round.)
            if (0..n).all(|p| !alive[p] || decided_flags[p]) {
                outcome = Outcome::Completed;
                break;
            }

            // 1. Compose: every alive, undecided process broadcasts.
            let participants: Vec<ProcId> = (0..n as u32)
                .map(ProcId)
                .filter(|p| alive[p.index()] && !decided_flags[p.index()])
                .collect();
            let outgoing = transport.compose(round, &participants)?;
            debug_assert!(
                outgoing.len() == participants.len()
                    && outgoing
                        .iter()
                        .zip(&participants)
                        .all(|((p, _, _), q)| p == q),
                "transport composed exactly the participants, in slot order"
            );

            // 2. Adversary plans crashes with the full-information view.
            let plan = self.adversary.plan(&AdversaryView {
                round,
                outgoing: &outgoing,
                alive: &alive,
                decided: &decided_flags,
                budget_left: budget - budget_used,
                n,
            });
            let mut round_crashes: Vec<(ProcId, Recipients)> = Vec::new();
            for c in plan.crashes {
                let p = c.victim;
                let dup = round_crashes.iter().any(|(v, _)| *v == p);
                if alive[p.index()] && !decided_flags[p.index()] && !dup && budget_used < budget {
                    round_crashes.push((p, c.deliver_to));
                    budget_used += 1;
                }
            }
            for (victim, _) in &round_crashes {
                alive[victim.index()] = false;
                crash_events.push(CrashEvent {
                    pid: *victim,
                    label: self.labels[victim.index()],
                    round,
                });
                transport.crashed(*victim)?;
            }

            // 3. Accounting: every broadcast is n−1 point-to-point sends.
            for (_, _, msg) in &outgoing {
                messages_sent += (n - 1) as u64;
                wire_bytes_sent += (msg.encoded_len() as u64) * (n - 1) as u64;
            }

            // 4. Deliver: split into the shared base buffer and partial
            // deliveries, and build one inbox per delivery signature.
            let mut msgs = RoundMessages::new(outgoing, &alive, &round_crashes);
            let survivors: Vec<ProcId> = participants
                .iter()
                .copied()
                .filter(|p| alive[p.index()])
                .collect();
            msgs.prepare(&survivors);
            for &dst in &survivors {
                // Wire deliveries: the inbox minus the loopback message.
                messages_delivered += msgs.inbox(dst).len().saturating_sub(1) as u64;
            }

            // 5. Apply the round on the transport's views.
            transport.apply(round, &alive, &survivors, &msgs)?;

            // Observe the round's resulting views *before* the status
            // sweep retires decided members, so the final state of a
            // deciding process (e.g. its ball placed on a leaf) is
            // visible to experiment observers.
            transport.observe(
                ObserverCtx {
                    round,
                    labels: &self.labels,
                    alive: &alive,
                },
                observer,
            );

            // 6. Status sweep: decided processes leave the computation
            // and go silent from the next round.
            for (pid, status) in transport.sweep(round)? {
                if let Status::Decided(name) = status {
                    decided[pid.index()] = Some(Decision { name, round });
                    decided_flags[pid.index()] = true;
                }
            }
            rounds_executed = round_idx + 1;
        }

        // The loop may also exit by exhausting `round_limit` iterations
        // with everyone already decided; classify correctly.
        if outcome == Outcome::RoundLimit && (0..n).all(|p| !alive[p] || decided_flags[p]) {
            outcome = Outcome::Completed;
        }

        Ok(RunReport {
            n,
            seed: self.master_seed,
            rounds: rounds_executed,
            decisions: decided,
            labels: std::mem::take(&mut self.labels),
            crashes: crash_events,
            messages_sent,
            messages_delivered,
            wire_bytes_sent,
            outcome,
        })
    }
}

/// The in-memory transport: views live on the calling thread as
/// [`Cluster`]s, messages are passed by reference. Both modes start from
/// one shared-view cluster and split members apart when a partial
/// delivery hands them different inboxes; with `merge` enabled this is
/// the clustered engine (equal views re-coalesce after every round),
/// without it the per-process engine, where diverged delivery histories
/// stay split forever. Either way a process's view is exactly what its
/// own delivery history dictates, so reports are bit-identical across
/// the two — but a failure-free run materializes one view instead of
/// `n`, which is what lets per-process mode scale past its former
/// one-view-per-slot 2^14 memory ceiling.
pub struct LocalTransport<P: ViewProtocol> {
    pub(crate) protocol: P,
    pub(crate) labels: Vec<Label>,
    pub(crate) clusters: Vec<Cluster<P::View>>,
    pub(crate) rngs: Vec<SmallRng>,
    pub(crate) merge: bool,
    /// `(label, slot)` pairs sorted by label, built once at
    /// construction: labels never change, so a cluster's label-ordered
    /// ball list is this sequence filtered by membership
    /// (order-preserving) — no per-round sort.
    by_label: Vec<(Label, ProcId)>,
    /// Scratch, reused across rounds: slot → index of its cluster this
    /// round (`u32::MAX` = not composing).
    cluster_of: Vec<u32>,
    /// Scratch, reused across rounds: per-cluster `(label, slot)`
    /// buckets, each strictly label-ascending.
    buckets: Vec<Vec<(Label, ProcId)>>,
}

impl<P: ViewProtocol + fmt::Debug> fmt::Debug for LocalTransport<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalTransport")
            .field("protocol", &self.protocol)
            .field("n", &self.labels.len())
            .field("clusters", &self.clusters.len())
            .field("merge", &self.merge)
            .finish()
    }
}

impl<P: ViewProtocol> LocalTransport<P> {
    /// A transport where all processes start in one shared-view cluster
    /// and equal views re-merge after every round.
    pub fn clustered(protocol: P, labels: &[Label], seeds: &SeedTree) -> Self {
        Self::with_merge(protocol, labels, seeds, true)
    }

    /// A transport where processes share views by delivery history:
    /// members split off a cluster when a partial delivery diverges
    /// their inboxes and never re-merge (unlike
    /// [`LocalTransport::clustered`]). A process's view is therefore a
    /// pure function of its own delivery history — the per-process
    /// reference semantics — without materializing `n` identical views.
    pub fn per_process(protocol: P, labels: &[Label], seeds: &SeedTree) -> Self {
        Self::with_merge(protocol, labels, seeds, false)
    }

    fn with_merge(protocol: P, labels: &[Label], seeds: &SeedTree, merge: bool) -> Self {
        let n = labels.len();
        // Both modes start from one shared cluster: views only diverge
        // when delivery histories do (`split_groups`), and `merge`
        // decides whether equal views re-coalesce afterwards.
        let clusters = vec![Cluster {
            members: (0..n as u32).map(ProcId).collect(),
            view: protocol.init_view(n),
        }];
        let mut by_label: Vec<(Label, ProcId)> = labels
            .iter()
            .enumerate()
            .map(|(i, &label)| (label, ProcId(i as u32)))
            .collect();
        by_label.sort_unstable();
        LocalTransport {
            protocol,
            labels: labels.to_vec(),
            clusters,
            rngs: (0..n)
                .map(|p| seeds.process_rng(ProcId(p as u32)))
                .collect(),
            merge,
            by_label,
            cluster_of: vec![u32::MAX; n],
            buckets: Vec::new(),
        }
    }

    /// Splits each cluster's live members into groups by interned
    /// delivery signature, handing each group an owned view (the sole —
    /// or last-constructed — group takes the view by move instead of
    /// clone). Returns `(sig_id, members, view)` work items in
    /// deterministic order; the caller applies the protocol and
    /// reassembles clusters.
    pub(crate) fn split_groups(
        clusters: &mut Vec<Cluster<P::View>>,
        alive: &[bool],
        msgs: &RoundMessages<P::Msg>,
    ) -> Vec<(SigId, Vec<ProcId>, P::View)> {
        let mut items = Vec::new();
        for cluster in clusters.drain(..) {
            let Cluster { members, view } = cluster;
            let live: Vec<ProcId> = members.into_iter().filter(|m| alive[m.index()]).collect();
            if live.is_empty() {
                continue;
            }
            // Partition members by which dying broadcasts they hear
            // (allocation-free: signatures were interned in `prepare`).
            let mut groups: BTreeMap<SigId, Vec<ProcId>> = BTreeMap::new();
            for m in live {
                groups.entry(msgs.sig_id(m)).or_default().push(m);
            }
            if groups.len() == 1 {
                // The common, failure-free case: every live member hears
                // the same broadcasts, so the cluster's view moves
                // without a clone.
                if let Some((sig, group_members)) = groups.pop_first() {
                    items.push((sig, group_members, view));
                }
            } else {
                for (sig, group_members) in groups {
                    items.push((sig, group_members, view.clone()));
                }
            }
        }
        items
    }
}

impl<P: ViewProtocol> Transport<P> for LocalTransport<P> {
    fn compose(
        &mut self,
        round: Round,
        participants: &[ProcId],
    ) -> Result<Vec<(ProcId, Label, P::Msg)>, RunError> {
        let LocalTransport {
            protocol,
            clusters,
            rngs,
            by_label,
            cluster_of,
            buckets,
            ..
        } = self;
        let mut outgoing: Vec<(ProcId, Label, P::Msg)> = Vec::with_capacity(participants.len());
        // Route each slot to its cluster for this round; slots outside
        // every cluster (decided or crashed) stay unmarked and drop out
        // of the label sweep below.
        cluster_of.fill(u32::MAX);
        while buckets.len() < clusters.len() {
            buckets.push(Vec::new());
        }
        for (ci, cluster) in clusters.iter().enumerate() {
            for &pid in &cluster.members {
                cluster_of[pid.index()] = ci as u32;
            }
            buckets[ci].clear();
        }
        // One pass over the label-sorted slot list: filtering preserves
        // order, so every bucket comes out strictly label-ascending —
        // the batched sweep's merge-join fast path — with no per-round
        // sort. Labels are validated duplicate-free up front.
        for &(label, pid) in by_label.iter() {
            let ci = cluster_of[pid.index()];
            if ci != u32::MAX {
                buckets[ci as usize].push((label, pid));
            }
        }
        // Each participant composes exactly once per round, so its RNG is
        // handed out at most once — which lets a cluster's RNGs be
        // gathered in label order (not slot order) without aliasing.
        let mut rng_slots: Vec<Option<&mut SmallRng>> = rngs.iter_mut().map(Some).collect();
        let mut balls: Vec<Label> = Vec::new();
        let mut gathered: Vec<&mut SmallRng> = Vec::new();
        let mut composed: Vec<(Label, P::Msg)> = Vec::new();
        for (ci, cluster) in clusters.iter().enumerate() {
            // One batched sweep per shared view. Per-process RNG streams
            // make the cross-ball compose order unobservable.
            let pairs = &buckets[ci];
            debug_assert_eq!(pairs.len(), cluster.members.len());
            balls.clear();
            balls.extend(pairs.iter().map(|&(label, _)| label));
            gathered.clear();
            for &(_, pid) in pairs {
                gathered.push(
                    rng_slots[pid.index()]
                        .take()
                        // bil-lint: allow(no-panic): local invariant — clusters partition the participants, so each RNG is taken exactly once; no wire input involved
                        .expect("each participant composes once per round"),
                );
            }
            composed.clear();
            protocol.compose_batch(&cluster.view, &balls, round, &mut gathered, &mut composed);
            for ((label, msg), &(_, pid)) in composed.drain(..).zip(pairs) {
                outgoing.push((pid, label, msg));
            }
        }
        // Slots are unique, so the unstable sort is deterministic (and
        // allocates no merge scratch).
        outgoing.sort_unstable_by_key(|(p, _, _)| *p);
        Ok(outgoing)
    }

    fn apply(
        &mut self,
        round: Round,
        alive: &[bool],
        _survivors: &[ProcId],
        msgs: &RoundMessages<P::Msg>,
    ) -> Result<(), RunError> {
        let items = Self::split_groups(&mut self.clusters, alive, msgs);
        let mut next: Vec<Cluster<P::View>> = Vec::with_capacity(items.len());
        for (sig, members, mut view) in items {
            self.protocol.apply(&mut view, round, msgs.inbox_by_id(sig));
            next.push(Cluster { members, view });
        }
        if self.merge {
            next = merge_clusters(next);
        }
        self.clusters = next;
        Ok(())
    }

    fn observe(&mut self, ctx: ObserverCtx<'_>, observer: &mut dyn Observer<P>) {
        observer.after_round(ctx, &self.clusters);
    }

    fn sweep(&mut self, round: Round) -> Result<Vec<(ProcId, Status)>, RunError> {
        let mut statuses = Vec::new();
        for cluster in &mut self.clusters {
            let protocol = &self.protocol;
            let labels = &self.labels;
            let view = &cluster.view;
            cluster.members.retain(|&pid| {
                let status = protocol.status(view, labels[pid.index()], round);
                statuses.push((pid, status));
                matches!(status, Status::Running)
            });
        }
        self.clusters.retain(|c| !c.members.is_empty());
        Ok(statuses)
    }
}

/// Coalesces clusters whose views are equal. Deterministic: output ordered
/// by smallest member slot, members sorted.
pub(crate) fn merge_clusters<V: Eq>(clusters: Vec<Cluster<V>>) -> Vec<Cluster<V>> {
    let mut out: Vec<Cluster<V>> = Vec::new();
    for c in clusters {
        if let Some(existing) = out.iter_mut().find(|e| e.view == c.view) {
            existing.members.extend(c.members);
        } else {
            out.push(c);
        }
    }
    for c in &mut out {
        c.members.sort_unstable();
    }
    out.sort_by_key(|c| c.members[0]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NoFailures;
    use crate::testproto::RankOnce;
    use crate::view::NoObserver;

    #[test]
    fn validate_labels_rejects_bad_input() {
        assert_eq!(validate_labels(&[]), Err(ConfigError::EmptySystem));
        assert_eq!(
            validate_labels(&[Label(3), Label(1), Label(3)]),
            Err(ConfigError::DuplicateLabel(Label(3)))
        );
        assert_eq!(validate_labels(&[Label(2), Label(9)]), Ok(()));
    }

    fn pairs_of(inbox: RoundInbox<'_, u32>) -> Vec<(Label, u32)> {
        inbox.iter().map(|(l, m)| (l, *m)).collect()
    }

    #[test]
    fn round_messages_share_base_without_crashes() {
        let outgoing = vec![(ProcId(0), Label(20), 1u32), (ProcId(1), Label(10), 2u32)];
        let alive = vec![true, true];
        let mut msgs = RoundMessages::new(outgoing, &alive, &[]);
        msgs.prepare(&[ProcId(0), ProcId(1)]);
        // One shared inbox, sorted by label.
        assert_eq!(msgs.variant_count(), 1);
        assert_eq!(
            pairs_of(msgs.inbox(ProcId(0))),
            vec![(Label(10), 2), (Label(20), 1)]
        );
        // Both recipients intern the same signature id.
        assert_eq!(msgs.sig_id(ProcId(0)), msgs.sig_id(ProcId(1)));
        let a = &msgs.variants[0].1;
        assert!(
            Arc::ptr_eq(a, &msgs.base),
            "crash-free inbox is the base buffer"
        );
    }

    #[test]
    fn round_messages_build_one_inbox_per_signature() {
        let outgoing = vec![
            (ProcId(0), Label(5), 0u32),
            (ProcId(1), Label(3), 1u32),
            (ProcId(2), Label(8), 2u32),
        ];
        // Slot 1 crashed, delivering only to slot 0.
        let alive = vec![true, false, true];
        let crashes = vec![(ProcId(1), Recipients::Set(vec![ProcId(0)]))];
        let mut msgs = RoundMessages::new(outgoing, &alive, &crashes);
        msgs.prepare(&[ProcId(0), ProcId(2)]);
        assert_eq!(msgs.variant_count(), 2);
        assert_ne!(msgs.sig_id(ProcId(0)), msgs.sig_id(ProcId(2)));
        assert_eq!(
            pairs_of(msgs.inbox(ProcId(0))),
            vec![(Label(3), 1), (Label(5), 0), (Label(8), 2)]
        );
        assert_eq!(
            pairs_of(msgs.inbox(ProcId(2))),
            vec![(Label(5), 0), (Label(8), 2)]
        );
    }

    #[test]
    fn pipeline_rejects_invalid_labels() {
        let p = RoundPipeline::new(vec![], NoFailures, SeedTree::new(0), 8);
        assert!(matches!(p, Err(ConfigError::EmptySystem)));
    }

    #[test]
    fn pipeline_runs_local_transport() {
        let labels: Vec<Label> = (0..6u64).map(|i| Label(i * 11 + 2)).collect();
        let seeds = SeedTree::new(3);
        let mut t = LocalTransport::clustered(RankOnce, &labels, &seeds);
        let report = RoundPipeline::new(labels, NoFailures, seeds, 64)
            .expect("valid configuration")
            .run(&mut t, &mut NoObserver)
            .expect("in-memory transports are infallible");
        assert!(report.completed());
        assert_eq!(report.rounds, 1);
    }

    #[test]
    fn per_process_clusters_by_delivery_history_and_never_remerges() {
        use crate::testproto::UnionRank;

        let labels: Vec<Label> = (0..6u64).map(Label).collect();
        let seeds = SeedTree::new(9);
        let mut t = LocalTransport::per_process(UnionRank::rounds(8), &labels, &seeds);
        assert_eq!(t.clusters.len(), 1, "one shared cluster, not n singletons");

        // Round 0, crash-free: every process hears the same inbox, so
        // one view serves all six slots.
        let all: Vec<ProcId> = (0..6).map(ProcId).collect();
        let alive = vec![true; 6];
        let outgoing = t.compose(Round(0), &all).unwrap();
        let mut msgs = RoundMessages::new(outgoing, &alive, &[]);
        msgs.prepare(&all);
        t.apply(Round(0), &alive, &all, &msgs).unwrap();
        assert_eq!(t.clusters.len(), 1);

        // Round 1: slot 5 crashes mid-broadcast, heard only by slot 0 —
        // slot 0's delivery history diverges and it splits off.
        let outgoing = t.compose(Round(1), &all).unwrap();
        let alive = vec![true, true, true, true, true, false];
        let crashes = vec![(ProcId(5), Recipients::Set(vec![ProcId(0)]))];
        let survivors: Vec<ProcId> = (0..5).map(ProcId).collect();
        let mut msgs = RoundMessages::new(outgoing, &alive, &crashes);
        msgs.prepare(&survivors);
        t.apply(Round(1), &alive, &survivors, &msgs).unwrap();
        assert_eq!(t.clusters.len(), 2, "diverged history splits the cluster");

        // By round 1 every view already knew all six labels, so the two
        // clusters hold *equal* views: the split keys on history, not on
        // view content, and a crash-free round later per-process mode
        // still refuses to re-merge (that is the clustered engine's move).
        assert_eq!(t.clusters[0].view, t.clusters[1].view);
        let outgoing = t.compose(Round(2), &survivors).unwrap();
        let mut msgs = RoundMessages::new(outgoing, &alive, &[]);
        msgs.prepare(&survivors);
        t.apply(Round(2), &alive, &survivors, &msgs).unwrap();
        assert_eq!(t.clusters.len(), 2, "per-process clusters never re-merge");
    }

    #[test]
    fn merge_clusters_coalesces_equal_views() {
        let clusters = vec![
            Cluster {
                members: vec![ProcId(2)],
                view: 7u32,
            },
            Cluster {
                members: vec![ProcId(0)],
                view: 7u32,
            },
            Cluster {
                members: vec![ProcId(1)],
                view: 9u32,
            },
        ];
        let merged = merge_clusters(clusters);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].members, vec![ProcId(0), ProcId(2)]);
        assert_eq!(merged[0].view, 7);
        assert_eq!(merged[1].members, vec![ProcId(1)]);
    }
}
