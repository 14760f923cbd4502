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
//! * [`LocalTransport`] — views in memory, messages passed by reference
//!   (the clustered and per-process engines, and, with a shard count
//!   above 1, [`crate::parallel::ParallelTransport`], whose compose and
//!   apply run on scoped threads);
//! * [`crate::worker::WorkerTransport`] — views in slot-range worker
//!   threads, broadcasts as wire-encoded bytes, over in-process channels
//!   ([`crate::threaded::ChannelTransport`]) or loopback TCP
//!   ([`crate::socket::SocketTransport`]).
//!
//! [`LocalTransport`] is also the one cluster store: each wire worker
//! runs one over its slot range, and `bil-modelcheck` steps one per
//! branch, so no other code holds clustered views or calls a protocol's
//! compose, apply or status.
//!
//! Everything else — adversary bookkeeping, crash budgets, message
//! accounting, inbox planning, round limits, report assembly — lives in
//! the pipeline, which is what makes the executors bit-identical **by
//! construction** rather than by parallel maintenance.
//!
//! ## Label order
//!
//! A round's broadcasts travel in one order: by label, the order of the
//! processes' original names. [`Transport::compose`] returns them sorted
//! by label, inboxes are label-sorted, and the kernel's merge-joins read
//! label order, so no stage of a round sorts, permutes or searches the
//! broadcasts. Slot order (process index order) is what the adversary
//! indexes by position: [`AdversaryView`] carries the slot-ordered
//! participant list beside the label-ordered broadcasts.
//!
//! ## Shared round messages
//!
//! A round's broadcasts are stored once, in a [`RoundMessages`]: the
//! reliably-delivered messages as a single label-sorted
//! structure-of-arrays buffer ([`InboxBuf`]) behind an [`Arc`], filled
//! from the label-sorted broadcasts without a sort, plus the (rare)
//! partial deliveries of crashing senders. Recipients with the same
//! *delivery signature* — the subset of dying broadcasts they hear —
//! share one physical inbox, so a failure-free round builds **one**
//! inbox for all `n` recipients instead of cloning `O(n)` messages per
//! recipient, and a round with `c` crashes builds at most `2^c` (in
//! practice a handful of) inbox variants, each the base buffer merged
//! with the dying broadcasts it hears. With `Copy`-dominated messages
//! (packed candidate paths), a failure-free round's delivery is a
//! constant number of buffer allocations total — independent of `n` —
//! and zero per recipient.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;
use std::thread;

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
    /// Broadcasts of senders that crashed this round, sorted by label,
    /// with the recipient set the adversary chose for each.
    partial: Vec<(Label, M, Recipients)>,
    /// The shared inbox of each distinct delivery signature, indexed by
    /// [`SigId`]; built by [`RoundMessages::prepare`].
    variants: Vec<Inbox<M>>,
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
    /// Splits a round's outgoing broadcasts — sorted by label, as
    /// [`Transport::compose`] returns them — into reliably-delivered and
    /// partially-delivered, according to post-crash liveness. The base
    /// inbox is the survivors' broadcasts in the order given: nothing is
    /// sorted.
    pub fn new(
        outgoing: Vec<(ProcId, Label, M)>,
        alive: &[bool],
        crashes: &[(ProcId, Recipients)],
    ) -> Self {
        let mut labels = Vec::with_capacity(outgoing.len());
        let mut partial: Vec<(Label, M, Recipients)> = Vec::new();
        // Collecting out of `outgoing` lets the message column reuse its
        // buffer, so the round never holds its broadcasts twice.
        let msgs: Vec<M> = outgoing
            .into_iter()
            .filter_map(|(pid, label, msg)| {
                if alive[pid.index()] {
                    labels.push(label);
                    return Some(msg);
                }
                let rec = crashes
                    .iter()
                    .find(|(v, _)| *v == pid)
                    .map(|(_, r)| r.clone())
                    .unwrap_or(Recipients::None);
                partial.push((label, msg, rec));
                None
            })
            .collect();
        debug_assert!(
            partial.windows(2).all(|w| w[0].0 < w[1].0),
            "dying broadcasts strictly ascend by label"
        );
        RoundMessages {
            base: Arc::new(InboxBuf::from_sorted(labels, msgs)),
            partial,
            variants: Vec::new(),
            sig_of: vec![None; alive.len()],
        }
    }

    /// Interns the signature of every `dst` and builds one shared inbox
    /// per distinct signature. In crash-free rounds this is a single
    /// variant — the base buffer itself — assigned to every destination
    /// without computing any signatures.
    ///
    /// With crashes, one walk over each dying broadcast's recipient set
    /// marks its bit in the heard-set of every slot it reaches (`All`,
    /// `None`, repeated and out-of-range slots read as
    /// [`Recipients::contains`] reads them); the survivors' heard-sets
    /// are then interned in `dsts` order.
    pub fn prepare(&mut self, dsts: &[ProcId]) {
        if self.partial.is_empty() {
            self.variants = vec![Arc::clone(&self.base)];
            for &dst in dsts {
                self.sig_of[dst.index()] = Some(0);
            }
            return;
        }
        let words = self.partial.len().div_ceil(64);
        let mut heard = vec![0u64; self.sig_of.len() * words];
        for (i, (_, _, recipients)) in self.partial.iter().enumerate() {
            let (word, bit) = (i / 64, 1u64 << (i % 64));
            match recipients {
                Recipients::None => {}
                Recipients::All => {
                    for &dst in dsts {
                        heard[dst.index() * words + word] |= bit;
                    }
                }
                Recipients::Set(set) => {
                    for dst in set {
                        if let Some(w) = heard.get_mut(dst.index() * words + word) {
                            *w |= bit;
                        }
                    }
                }
            }
        }
        let mut interned: BTreeMap<&[u64], SigId> = BTreeMap::new();
        for &dst in dsts {
            let sig = &heard[dst.index() * words..][..words];
            let id = match interned.get(sig) {
                Some(&id) => id,
                None => {
                    let id = self.variants.len() as SigId;
                    self.variants.push(self.build(sig));
                    interned.insert(sig, id);
                    id
                }
            };
            self.sig_of[dst.index()] = Some(id);
        }
    }

    /// The inbox of heard-set `sig`: the base buffer merged with the
    /// dying broadcasts whose bits are set. Both sides ascend by label,
    /// so each heard broadcast lands after one binary search and the
    /// base runs between them are copied whole.
    fn build(&self, sig: &[u64]) -> Inbox<M> {
        if sig.iter().all(|&w| w == 0) {
            // No dying broadcast heard: the shared base buffer *is* the
            // inbox — no copy.
            return Arc::clone(&self.base);
        }
        let heard = self
            .partial
            .iter()
            .enumerate()
            .filter(|(i, _)| (sig[i / 64] >> (i % 64)) & 1 == 1)
            .map(|(_, (label, msg, _))| (*label, msg));
        let base = self.base.as_inbox();
        let size = base.len() + sig.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        let (mut labels, mut msgs) = (Vec::with_capacity(size), Vec::with_capacity(size));
        let mut from = 0;
        for (label, msg) in heard {
            let to = from + base.labels()[from..].partition_point(|&l| l < label);
            labels.extend_from_slice(&base.labels()[from..to]);
            msgs.extend_from_slice(&base.msgs()[from..to]);
            labels.push(label);
            msgs.push(msg.clone());
            from = to;
        }
        labels.extend_from_slice(&base.labels()[from..]);
        msgs.extend_from_slice(&base.msgs()[from..]);
        Arc::new(InboxBuf::from_sorted(labels, msgs))
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
        self.variants[id as usize].as_inbox()
    }

    /// The shared inbox buffer for interned signature `id`, by [`Arc`]
    /// clone — for transports that move a round's inboxes to worker
    /// threads without re-encoding them.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by [`RoundMessages::prepare`].
    pub fn inbox_arc(&self, id: SigId) -> Arc<InboxBuf<M>> {
        Arc::clone(&self.variants[id as usize])
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
    /// (all alive and undecided, in slot order). The result must hold
    /// exactly one entry per participant, sorted by label — the order
    /// every inbox and merge-join kernel reads, so no later stage of the
    /// round sorts, permutes or searches the broadcasts.
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

    /// Reads the post-apply [`Status`] of every survivor (in any order)
    /// and retires the decided ones: they must not participate in later
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

    /// The validated labels, by slot.
    pub(crate) fn labels(&self) -> &[Label] {
        &self.labels
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
                    && outgoing.windows(2).all(|w| w[0].1 < w[1].1)
                    && outgoing.iter().all(|&(p, label, _)| {
                        label == self.labels[p.index()]
                            && alive[p.index()]
                            && !decided_flags[p.index()]
                    }),
                "transport composed exactly the participants, in label order"
            );

            // 2. Adversary plans crashes with the full-information view.
            let plan = self.adversary.plan(&AdversaryView {
                round,
                participants: &participants,
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

/// The in-memory cluster store, and the one every executor runs: views
/// live as [`Cluster`]s, messages are passed by reference. Processes
/// start in one shared-view cluster and split apart when a partial
/// delivery hands them different inboxes; with `merge` enabled this is
/// the clustered engine (equal views re-coalesce after every round),
/// without it the per-process engine, where diverged delivery histories
/// stay split forever. Either way a process's view is exactly what its
/// own delivery history dictates, so reports are bit-identical across
/// the two — but a failure-free run materializes one view instead of
/// `n`.
///
/// The same store serves every executor: the clustered and per-process
/// engines hold all `n` slots on one thread; the parallel executor
/// ([`crate::parallel::ParallelTransport`]) is a clustered store with a
/// shard count above 1; each wire worker ([`crate::worker`]) holds a
/// per-process store over its contiguous slot range; and
/// `bil-modelcheck` clones one per branch of the adversary's decision
/// tree.
#[derive(Clone)]
pub struct LocalTransport<P: ViewProtocol> {
    protocol: P,
    /// First slot held: the per-slot columns cover slots
    /// `base..base + labels.len()` of the system.
    base: usize,
    /// Labels of the held slots, by slot.
    labels: Vec<Label>,
    /// Seeds `rngs` at the first compose.
    seeds: SeedTree,
    clusters: Vec<Cluster<P::View>>,
    merge: bool,
    /// Compose and apply shard count; 1 runs both inline.
    pub(crate) threads: usize,
    /// `(label, slot)` pairs sorted by label, built once, at the first
    /// compose, so that constructing a store sorts nothing: labels never
    /// change, so a cluster's label-ordered ball list is this sequence
    /// filtered by membership (order-preserving) — no per-round sort.
    by_label: Vec<(Label, ProcId)>,
    /// Per-process RNG streams, parallel to `by_label` and seeded with
    /// it.
    rngs: Vec<SmallRng>,
    /// Scratch, reused across rounds: slot − `base` → index of its
    /// cluster this round (`u32::MAX` = not composing).
    cluster_of: Vec<u32>,
    /// Scratch: the round's ball list, cluster-major and label-ordered
    /// within a cluster.
    balls: Vec<Label>,
    /// Scratch: the slot of each entry of `balls`.
    ball_slots: Vec<ProcId>,
    /// Scratch: where each cluster's run of `balls` ends.
    ends: Vec<usize>,
}

impl<P: ViewProtocol + fmt::Debug> fmt::Debug for LocalTransport<P> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalTransport")
            .field("protocol", &self.protocol)
            .field("base", &self.base)
            .field("len", &self.labels.len())
            .field("clusters", &self.clusters.len())
            .field("merge", &self.merge)
            .field("threads", &self.threads)
            .finish()
    }
}

impl<P: ViewProtocol> LocalTransport<P> {
    /// A transport where all processes start in one shared-view cluster
    /// and equal views re-merge after every round.
    pub fn clustered(protocol: P, labels: &[Label], seeds: &SeedTree) -> Self {
        Self::with_range(protocol, labels.len(), 0, labels, seeds, true, 1)
    }

    /// A transport where processes share views by delivery history:
    /// members split off a cluster when a partial delivery diverges
    /// their inboxes and never re-merge (unlike
    /// [`LocalTransport::clustered`]). A process's view is therefore a
    /// pure function of its own delivery history — the per-process
    /// reference semantics — without materializing `n` identical views.
    pub fn per_process(protocol: P, labels: &[Label], seeds: &SeedTree) -> Self {
        Self::with_range(protocol, labels.len(), 0, labels, seeds, false, 1)
    }

    /// A store over slots `base..base + labels.len()` of an `n`-process
    /// system, all starting from `init_view(n)` in one cluster.
    /// `labels` are the held slots' labels, by slot; `threads` (≥ 1) is
    /// the compose/apply shard count.
    pub(crate) fn with_range(
        protocol: P,
        n: usize,
        base: usize,
        labels: &[Label],
        seeds: &SeedTree,
        merge: bool,
        threads: usize,
    ) -> Self {
        let len = labels.len();
        let view = protocol.init_view(n);
        LocalTransport {
            protocol,
            base,
            labels: labels.to_vec(),
            seeds: *seeds,
            clusters: vec![Cluster {
                members: (base..base + len).map(|p| ProcId(p as u32)).collect(),
                view,
            }],
            merge,
            threads: threads.max(1),
            by_label: Vec::new(),
            rngs: Vec::new(),
            cluster_of: vec![u32::MAX; len],
            balls: Vec::new(),
            ball_slots: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Composes the broadcast of every held process and returns them in
    /// label order.
    ///
    /// The round's balls form one list — cluster-major, label-ordered
    /// within a cluster — with each ball's RNG stream alongside.
    /// Contiguous chunks of the list compose on scoped threads (a single
    /// chunk, inline, with one shard), one batched sweep per cluster run
    /// inside a chunk. Per-process RNG streams make the chunking and the
    /// cross-ball order unobservable. With one cluster the list already
    /// is label order; with several, a second walk over the label-sorted
    /// slots takes each ball's entry from the front of its cluster's
    /// run.
    ///
    /// # Errors
    ///
    /// [`RunError::Protocol`] if a compose shard panicked.
    pub(crate) fn compose_held(
        &mut self,
        round: Round,
    ) -> Result<Vec<(ProcId, Label, P::Msg)>, RunError> {
        if self.by_label.is_empty() {
            let base = self.base;
            self.by_label = (base..)
                .zip(&self.labels)
                .map(|(slot, &label)| (label, ProcId(slot as u32)))
                .collect();
            // Labels are unique, so the label alone orders the pairs.
            self.by_label.sort_unstable_by_key(|&(label, _)| label);
            let seeds = self.seeds;
            self.rngs = self
                .by_label
                .iter()
                .map(|&(_, pid)| seeds.process_rng(pid))
                .collect();
        }
        let LocalTransport {
            protocol,
            base,
            clusters,
            threads,
            by_label,
            rngs,
            cluster_of,
            balls,
            ball_slots,
            ends,
            ..
        } = self;
        let base = *base;
        // Route each held slot to its cluster and size the clusters'
        // runs; `ends` starts as each run's write cursor.
        cluster_of.fill(u32::MAX);
        ends.clear();
        let mut total = 0;
        for (ci, cluster) in clusters.iter().enumerate() {
            for &pid in &cluster.members {
                cluster_of[pid.index() - base] = ci as u32;
            }
            ends.push(total);
            total += cluster.members.len();
        }
        // One pass over the label-sorted slots places every ball in its
        // cluster's run: filtering preserves order, so every run comes
        // out strictly label-ascending — the batched sweep's merge-join
        // fast path — with no per-round sort.
        balls.resize(total, Label(0));
        ball_slots.resize(total, ProcId(0));
        let mut gathered: Vec<Option<&mut SmallRng>> = Vec::new();
        gathered.resize_with(total, || None);
        for (&(label, pid), rng) in by_label.iter().zip(rngs.iter_mut()) {
            let ci = cluster_of[pid.index() - base];
            if ci != u32::MAX {
                let at = &mut ends[ci as usize];
                balls[*at] = label;
                ball_slots[*at] = pid;
                gathered[*at] = Some(rng);
                *at += 1;
            }
        }
        let mut rng_list: Vec<&mut SmallRng> = gathered.into_iter().flatten().collect();
        debug_assert_eq!(rng_list.len(), total, "every held slot has one RNG");

        // Composes list positions `lo..lo + balls.len()` as one batched
        // sweep per cluster run they overlap.
        let (protocol, clusters, ends): (&P, &[Cluster<P::View>], &[usize]) =
            (protocol, clusters, ends);
        let compose_chunk = |lo: usize,
                             balls: &[Label],
                             rngs: &mut [&mut SmallRng],
                             out: &mut Vec<(Label, P::Msg)>| {
            let hi = lo + balls.len();
            let mut start = 0;
            for (cluster, &end) in clusters.iter().zip(ends) {
                let (a, b) = (start.max(lo), end.min(hi));
                if a < b {
                    let (balls, rngs) = (&balls[a - lo..b - lo], &mut rngs[a - lo..b - lo]);
                    protocol.compose_batch(&cluster.view, balls, round, rngs, out);
                }
                start = end;
            }
        };
        let mut composed = Vec::with_capacity(total);
        if *threads < 2 || total < 2 {
            compose_chunk(0, balls, &mut rng_list, &mut composed);
        } else {
            let chunk = total.div_ceil(*threads);
            let compose_chunk = &compose_chunk;
            let parts: Vec<_> = thread::scope(|s| {
                let handles: Vec<_> = balls
                    .chunks(chunk)
                    .zip(rng_list.chunks_mut(chunk))
                    .enumerate()
                    .map(|(i, (balls, rngs))| {
                        s.spawn(move || {
                            let mut out = Vec::with_capacity(balls.len());
                            compose_chunk(i * chunk, balls, rngs, &mut out);
                            out
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            // Chunk order is list order, whatever the thread scheduling.
            for part in parts {
                composed.extend(part.map_err(|_| RunError::Protocol {
                    context: "composing a round in parallel",
                    detail: "a compose shard panicked".to_string(),
                })?);
            }
        }

        if ends.len() < 2 {
            return Ok(ball_slots
                .iter()
                .zip(composed)
                .map(|(&pid, (label, msg))| (pid, label, msg))
                .collect());
        }
        // Several runs, each label-ascending: split the list into one
        // iterator per run, then walk the label-sorted slots again and
        // take each composing slot's entry from the front of its run.
        let mut runs = Vec::with_capacity(ends.len());
        for w in ends.windows(2).rev() {
            runs.push(composed.split_off(w[0]).into_iter());
        }
        runs.push(composed.into_iter());
        runs.reverse();
        Ok(by_label
            .iter()
            .filter_map(|&(_, pid)| {
                let run = runs.get_mut(cluster_of[pid.index() - base] as usize)?;
                let (label, msg) = run.next()?;
                Some((pid, label, msg))
            })
            .collect())
    }

    /// Folds one round into the views. Each cluster's members split by
    /// delivery signature (`sig_of`; `None` drops a member that
    /// crashed), and every (cluster × signature) group folds
    /// `inboxes[sig]` into a view of its own: the last group of a
    /// cluster takes the cluster's view, only the others clone it. The
    /// groups' folds are sharded like compose's chunks; with `merge`,
    /// equal views then re-coalesce.
    pub(crate) fn apply_groups(
        &mut self,
        round: Round,
        sig_of: impl Fn(ProcId) -> Option<SigId>,
        inboxes: &[RoundInbox<'_, P::Msg>],
    ) {
        let mut items: Vec<(SigId, Cluster<P::View>)> = Vec::with_capacity(self.clusters.len());
        for Cluster { mut members, view } in self.clusters.drain(..) {
            let mut sigs = members.iter().filter_map(|&m| sig_of(m));
            let Some(first) = sigs.next() else {
                // Every member crashed: the view goes with them.
                continue;
            };
            if sigs.all(|sig| sig == first) {
                // The common, failure-free case: every live member hears
                // the same inbox, so the view moves without a clone.
                members.retain(|&m| sig_of(m).is_some());
                items.push((first, Cluster { members, view }));
                continue;
            }
            let mut groups: BTreeMap<SigId, Vec<ProcId>> = BTreeMap::new();
            for m in members {
                if let Some(sig) = sig_of(m) {
                    groups.entry(sig).or_default().push(m);
                }
            }
            let last = groups.pop_last();
            for (sig, members) in groups {
                let view = view.clone();
                items.push((sig, Cluster { members, view }));
            }
            if let Some((sig, members)) = last {
                items.push((sig, Cluster { members, view }));
            }
        }

        let protocol = &self.protocol;
        let fold = |items: &mut [(SigId, Cluster<P::View>)]| {
            for (sig, cluster) in items {
                protocol.apply(&mut cluster.view, round, inboxes[*sig as usize]);
            }
        };
        if self.threads < 2 || items.len() < 2 {
            fold(&mut items);
        } else {
            let chunk = items.len().div_ceil(self.threads);
            let fold = &fold;
            thread::scope(|s| {
                for part in items.chunks_mut(chunk) {
                    s.spawn(move || fold(part));
                }
            });
        }

        // Items keep their order (cluster-major, then signature) whatever
        // the sharding; the coalescing pass is order-independent.
        let mut next: Vec<Cluster<P::View>> = items.into_iter().map(|(_, c)| c).collect();
        if self.merge {
            next = merge_clusters(next);
        }
        self.clusters = next;
    }

    /// Reads the [`Status`] of every held process and retires the
    /// decided ones. Statuses come cluster by cluster, each cluster's in
    /// slot order.
    pub(crate) fn sweep_held(&mut self, round: Round) -> Vec<(ProcId, Status)> {
        let mut statuses = Vec::new();
        let LocalTransport {
            protocol,
            base,
            labels,
            clusters,
            ..
        } = self;
        for cluster in clusters.iter_mut() {
            let view = &cluster.view;
            cluster.members.retain(|&pid| {
                let status = protocol.status(view, labels[pid.index() - *base], round);
                statuses.push((pid, status));
                matches!(status, Status::Running)
            });
        }
        clusters.retain(|c| !c.members.is_empty());
        statuses
    }
}

impl<P: ViewProtocol> Transport<P> for LocalTransport<P> {
    /// Composes every held process — the pipeline's participants, by
    /// construction: the store holds exactly the alive, undecided slots.
    fn compose(
        &mut self,
        round: Round,
        _participants: &[ProcId],
    ) -> Result<Vec<(ProcId, Label, P::Msg)>, RunError> {
        self.compose_held(round)
    }

    fn apply(
        &mut self,
        round: Round,
        alive: &[bool],
        _survivors: &[ProcId],
        msgs: &RoundMessages<P::Msg>,
    ) -> Result<(), RunError> {
        let inboxes: Vec<RoundInbox<'_, P::Msg>> = (0..msgs.variant_count() as SigId)
            .map(|id| msgs.inbox_by_id(id))
            .collect();
        self.apply_groups(
            round,
            |m| alive[m.index()].then(|| msgs.sig_id(m)),
            &inboxes,
        );
        Ok(())
    }

    fn observe(&mut self, ctx: ObserverCtx<'_>, observer: &mut dyn Observer<P>) {
        observer.after_round(ctx, &self.clusters);
    }

    fn sweep(&mut self, round: Round) -> Result<Vec<(ProcId, Status)>, RunError> {
        Ok(self.sweep_held(round))
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
    use std::sync::atomic::{AtomicUsize, Ordering};

    use super::*;
    use crate::adversary::NoFailures;
    use crate::testproto::{LabelSet, RankOnce};
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
        // Composed in label order, as every transport returns it.
        let outgoing = vec![(ProcId(1), Label(10), 2u32), (ProcId(0), Label(20), 1u32)];
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
        let a = &msgs.variants[0];
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
    fn interned_signatures_match_the_per_destination_definition() {
        // Eight slots, labels descending with the slot; slots 1, 4, 5
        // and 6 die with every recipient shape: a set with repeats and
        // out-of-range slots, `All`, `None`, and a plain set.
        let n = 8u32;
        let mut outgoing: Vec<(ProcId, Label, u32)> = (0..n)
            .map(|p| (ProcId(p), Label(u64::from(100 - p)), p))
            .collect();
        outgoing.reverse();
        let dying = [
            (ProcId(4), Recipients::All),
            (ProcId(1), Recipients::None),
            (
                ProcId(5),
                Recipients::Set(vec![ProcId(7), ProcId(0), ProcId(7), ProcId(42)]),
            ),
            (ProcId(6), Recipients::Set(vec![ProcId(3), ProcId(0)])),
        ];
        let alive: Vec<bool> = (0..n).map(|p| ![1, 4, 5, 6].contains(&p)).collect();
        let survivors: Vec<ProcId> = (0..n).map(ProcId).filter(|p| alive[p.index()]).collect();
        let mut msgs = RoundMessages::new(outgoing.clone(), &alive, &dying);
        msgs.prepare(&survivors);

        // The definition: `dst` hears dying broadcast `i` iff its
        // recipient set contains `dst`; the partial list is label-ordered.
        let mut partial: Vec<(Label, u32, &Recipients)> = outgoing
            .iter()
            .filter(|(p, _, _)| !alive[p.index()])
            .map(|&(p, label, msg)| {
                let rec = &dying.iter().find(|(v, _)| *v == p).unwrap().1;
                (label, msg, rec)
            })
            .collect();
        partial.sort_by_key(|&(label, _, _)| label);
        let signature = |dst: ProcId| -> Vec<bool> {
            partial.iter().map(|(_, _, r)| r.contains(dst)).collect()
        };
        let mut seen: Vec<Vec<bool>> = Vec::new();
        for &dst in &survivors {
            let sig = signature(dst);
            let id = match seen.iter().position(|s| *s == sig) {
                Some(id) => id,
                None => {
                    seen.push(sig.clone());
                    seen.len() - 1
                }
            };
            assert_eq!(msgs.sig_id(dst) as usize, id, "{dst}: first-encounter id");
            let expected: InboxBuf<u32> = outgoing
                .iter()
                .filter(|(p, _, _)| alive[p.index()])
                .map(|&(_, label, msg)| (label, msg))
                .chain(
                    partial
                        .iter()
                        .zip(&sig)
                        .filter(|(_, &heard)| heard)
                        .map(|(&(label, msg, _), _)| (label, msg)),
                )
                .collect();
            assert_eq!(
                pairs_of(msgs.inbox(dst)),
                pairs_of(expected.as_inbox()),
                "{dst}"
            );
        }
        assert_eq!(msgs.variant_count(), seen.len());
        assert!(seen.len() >= 3, "the shapes split the survivors");
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

    /// A view that counts, in a counter its protocol shares, how often
    /// it is cloned.
    #[derive(Debug)]
    struct Counted {
        known: Vec<Label>,
        clones: Arc<AtomicUsize>,
    }

    impl Clone for Counted {
        fn clone(&self) -> Self {
            self.clones.fetch_add(1, Ordering::Relaxed);
            Counted {
                known: self.known.clone(),
                clones: Arc::clone(&self.clones),
            }
        }
    }

    impl PartialEq for Counted {
        fn eq(&self, other: &Self) -> bool {
            self.known == other.known
        }
    }

    impl Eq for Counted {}

    /// Broadcasts its own label and collects what it hears, never
    /// deciding; its views count their clones.
    #[derive(Debug, Default)]
    struct CountClones(Arc<AtomicUsize>);

    impl ViewProtocol for CountClones {
        type Msg = LabelSet;
        type View = Counted;

        fn init_view(&self, _n: usize) -> Counted {
            Counted {
                known: Vec::new(),
                clones: Arc::clone(&self.0),
            }
        }

        fn compose(&self, _: &Counted, ball: Label, _: Round, _: &mut SmallRng) -> LabelSet {
            LabelSet(vec![ball])
        }

        fn apply(&self, view: &mut Counted, _: Round, inbox: RoundInbox<'_, LabelSet>) {
            view.known.extend_from_slice(inbox.labels());
        }

        fn status(&self, _: &Counted, _: Label, _: Round) -> Status {
            Status::Running
        }
    }

    #[test]
    fn a_two_way_split_clones_the_view_once() {
        let protocol = CountClones::default();
        let clones = Arc::clone(&protocol.0);
        let labels: Vec<Label> = (0..4u64).map(Label).collect();
        let mut t = LocalTransport::per_process(protocol, &labels, &SeedTree::new(1));
        let all: Vec<ProcId> = (0..4).map(ProcId).collect();
        let outgoing = t.compose(Round(0), &all).unwrap();
        // Slot 3 crashes mid-broadcast, heard only by slot 0: the
        // survivors' one cluster splits into two signature groups.
        let alive = [true, true, true, false];
        let crashes = [(ProcId(3), Recipients::Set(vec![ProcId(0)]))];
        let mut msgs = RoundMessages::new(outgoing, &alive, &crashes);
        msgs.prepare(&all[..3]);
        t.apply(Round(0), &alive, &all[..3], &msgs).unwrap();
        assert_eq!(t.clusters.len(), 2);
        assert_eq!(
            clones.load(Ordering::Relaxed),
            1,
            "the last group takes the view by move"
        );
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
