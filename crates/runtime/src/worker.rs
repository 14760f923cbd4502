//! The wire executors' coordinator↔worker protocol, written once.
//!
//! The threaded executor ([`crate::threaded`]) and the socket executor
//! ([`crate::socket`]) are one design over two carriers. A few worker
//! threads each own a contiguous range of process slots (views and RNG
//! streams never leave their worker), and a coordinator — the
//! [`WorkerTransport`] the shared [`crate::pipeline::RoundPipeline`]
//! drives — lock-steps them with typed commands:
//!
//! | command | response | meaning |
//! |---|---|---|
//! | [`Cmd::Compose`] | [`Rsp::Composed`] | compose the listed slots' broadcasts; answer the encoded bytes, slot-ascending |
//! | [`Cmd::Deliver`] | [`Rsp::Applied`] | fold one shared inbox per delivery signature into its recipients' views; answer their statuses, slot-ascending |
//! | [`Cmd::Retire`] | — | slots crashed or decided: drop them |
//! | [`Cmd::Exit`] | — | end the worker's loop |
//!
//! A worker that cannot execute a command answers [`Rsp::Fault`] and
//! exits its loop; it never panics across the boundary. The coordinator
//! decodes every composed broadcast, so the codec runs every round on
//! both carriers.
//!
//! A [`Carrier`] only moves these values. [`crate::threaded`]'s channel
//! carrier hands them over as they are (inboxes by [`Arc`] clone);
//! [`crate::socket`]'s TCP carrier frames them over loopback sockets.
//! Everything else — per-worker grouping, response checks, decoding,
//! retire-on-decide, shutdown — lives here, once. Inside a worker, slots
//! share views by delivery history.

use std::collections::BTreeMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;
use std::thread;

use bytes::Bytes;
use rand::rngs::SmallRng;

use crate::error::RunError;
use crate::ids::{Label, ProcId, Round};
use crate::pipeline::{RoundMessages, SigId, Transport};
use crate::rng::SeedTree;
use crate::view::{InboxBuf, Status, ViewProtocol};
use crate::wire::{Wire, WireError};

/// One delivery group of a [`Cmd::Deliver`]: recipient slots and the
/// shared inbox they all heard.
pub type Group<M> = (Vec<u64>, Arc<InboxBuf<M>>);

/// A coordinator → worker command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cmd<M> {
    /// Compose the round's broadcasts of the listed slots (ascending,
    /// all owned by the worker).
    Compose(Round, Vec<u64>),
    /// Fold the round's shared inboxes: one group per delivery signature
    /// present at the worker.
    Deliver(Round, Vec<Group<M>>),
    /// Slots that crashed or decided; drop them. Fire-and-forget:
    /// carriers are FIFO, so it lands before the next command.
    Retire(Vec<u64>),
    /// End the worker's loop.
    Exit,
}

/// A worker's per-slot answers to one command, slot-ascending.
pub type Answers<T> = Vec<(u64, T)>;

/// A worker → coordinator response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rsp {
    /// Encoded broadcasts.
    Composed(Answers<Bytes>),
    /// Post-apply statuses.
    Applied(Answers<Status>),
    /// The command could not be executed; the worker has exited.
    Fault(Fault),
}

/// Why a worker could not execute a command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fault {
    /// A command, or a message inside one (from the sender, when
    /// known), failed to decode.
    Wire(Option<Label>, WireError),
    /// A command named a slot the worker does not own (or named one
    /// twice).
    UnknownSlot(u64),
}

impl From<WireError> for Fault {
    fn from(error: WireError) -> Self {
        Fault::Wire(None, error)
    }
}

/// The coordinator end of a carrier: one FIFO link per worker, indexed
/// by worker.
pub trait Carrier<M> {
    /// Sends `cmd` to `worker`; a broken link is a [`RunError`] naming
    /// `context`.
    fn send(&mut self, worker: usize, cmd: Cmd<M>, context: &'static str) -> Result<(), RunError>;

    /// Receives `worker`'s next response; a broken link or a malformed
    /// response is a [`RunError`] naming `context`.
    fn recv(&mut self, worker: usize, context: &'static str) -> Result<Rsp, RunError>;

    /// Drops every link, so a worker blocked on its link unblocks.
    fn hang_up(&mut self);
}

/// The worker end of one carrier link.
pub(crate) trait WorkerPort<M> {
    /// The next command: `None` once the coordinator has hung up,
    /// `Some(Err(_))` for a command that arrived but failed to decode.
    fn recv(&mut self) -> Option<Result<Cmd<M>, Fault>>;

    /// Sends one response; `false` once the coordinator has hung up.
    fn send(&mut self, rsp: Rsp) -> bool;
}

/// One shared view inside a worker: all member slots have witnessed the
/// same delivery history, and views are pure functions of that history,
/// so one materialized view stands for every member.
struct ViewCluster<V> {
    view: V,
    members: usize,
}

/// Per-slot worker state: label, private RNG stream, and the index of
/// the slot's view cluster in [`WorkerState::clusters`].
struct Proc {
    label: Label,
    rng: SmallRng,
    cluster: usize,
}

/// A worker's slots plus the view clusters they share — the clustered
/// engine's signature-refined partition: slots start in one cluster and
/// split off only when a round delivers them a different inbox than the
/// rest of their cluster (partial deliveries of dying broadcasts). A
/// failure-free run therefore holds one view per worker at any `n`.
struct WorkerState<P: ViewProtocol> {
    procs: BTreeMap<u64, Proc>,
    /// Every cluster has at least one member: an emptied cluster is
    /// removed at once, its view dropped.
    clusters: Vec<ViewCluster<P::View>>,
}

impl<P: ViewProtocol> WorkerState<P> {
    /// The state of a fresh worker owning `slots`: every slot starts from
    /// the same `init_view(n)` with an empty delivery history — one
    /// shared cluster for the whole worker.
    fn new(proto: &P, n: usize, slots: &[(u32, Label)], seeds: &SeedTree) -> Self {
        let procs: BTreeMap<u64, Proc> = slots
            .iter()
            .map(|&(slot, label)| {
                (
                    u64::from(slot),
                    Proc {
                        label,
                        rng: seeds.process_rng(ProcId(slot)),
                        cluster: 0,
                    },
                )
            })
            .collect();
        WorkerState {
            procs,
            clusters: vec![ViewCluster {
                view: proto.init_view(n),
                members: slots.len(),
            }],
        }
    }

    fn leave(&mut self, index: usize, count: usize) {
        let cluster = &mut self.clusters[index];
        debug_assert!(cluster.members >= count);
        cluster.members -= count;
        if cluster.members == 0 {
            // Drop the view eagerly: a fragmented run's dead clusters
            // must release their trees, not linger until exit. The last
            // cluster moves into the hole.
            self.clusters.swap_remove(index);
            let moved = self.clusters.len();
            for proc in self.procs.values_mut() {
                if proc.cluster == moved {
                    proc.cluster = index;
                }
            }
        }
    }

    /// Removes `slot` from the worker (it crashed or decided). Unknown
    /// slots are ignored — retirement commands can race a slot that
    /// already left.
    fn retire(&mut self, slot: u64) {
        if let Some(proc) = self.procs.remove(&slot) {
            self.leave(proc.cluster, 1);
        }
    }

    /// Composes the round broadcast of every requested slot, batched as
    /// **one [`ViewProtocol::compose_batch`] sweep per view cluster**
    /// (label-ordered within a cluster; per-process RNG streams make that
    /// ordering unobservable) instead of one tree walk per slot. Returns
    /// the encoded broadcasts sorted by slot.
    fn compose(&mut self, proto: &P, round: Round, slots: &[u64]) -> Result<Answers<Bytes>, Fault> {
        // Bucket the requested slots by their current cluster.
        let mut by_cluster: BTreeMap<usize, Vec<(Label, u64)>> = BTreeMap::new();
        for &slot in slots {
            let proc = self.procs.get(&slot).ok_or(Fault::UnknownSlot(slot))?;
            by_cluster
                .entry(proc.cluster)
                .or_default()
                .push((proc.label, slot));
        }
        // Gather every slot's RNG once so a cluster's draws can happen in
        // label order while the map is borrowed only here.
        let WorkerState { procs, clusters } = self;
        let mut rng_of: BTreeMap<u64, &mut SmallRng> = procs
            .iter_mut()
            .map(|(&slot, proc)| (slot, &mut proc.rng))
            .collect();
        let mut out: Vec<(u64, Bytes)> = Vec::with_capacity(slots.len());
        let mut balls: Vec<Label> = Vec::new();
        let mut gathered: Vec<&mut SmallRng> = Vec::new();
        let mut composed: Vec<(Label, P::Msg)> = Vec::new();
        for (ci, mut members) in by_cluster {
            // Labels are unique across the run, so the sort is strictly
            // label-ascending — the batched sweep's fast path.
            members.sort_unstable();
            balls.clear();
            balls.extend(members.iter().map(|&(label, _)| label));
            gathered.clear();
            for &(_, slot) in &members {
                // A slot requested twice finds its RNG already taken.
                gathered.push(rng_of.remove(&slot).ok_or(Fault::UnknownSlot(slot))?);
            }
            composed.clear();
            proto.compose_batch(
                &clusters[ci].view,
                &balls,
                round,
                &mut gathered,
                &mut composed,
            );
            for ((label, msg), &(ball, slot)) in composed.drain(..).zip(&members) {
                debug_assert_eq!(label, ball);
                out.push((slot, msg.to_bytes()));
            }
        }
        out.sort_unstable_by_key(|&(slot, _)| slot);
        Ok(out)
    }

    /// Folds each group's shared inbox into the views of its recipients —
    /// all recipients of one delivery signature — and returns every
    /// recipient's post-apply status, sorted by slot. Recipients are
    /// partitioned by current cluster: a cluster fully contained in the
    /// group applies the inbox once, in place; a partially-covered cluster
    /// splits — the covered slots move to a fresh cluster (cloned view)
    /// that then applies once. Views are pure functions of delivery
    /// history, so the shared result is exactly what per-slot application
    /// would have produced.
    fn deliver(
        &mut self,
        proto: &P,
        round: Round,
        groups: &[Group<P::Msg>],
    ) -> Result<Answers<Status>, Fault> {
        let mut statuses = Vec::new();
        for (dsts, inbox) in groups {
            let mut by_cluster: BTreeMap<usize, Vec<(u64, Label)>> = BTreeMap::new();
            for &slot in dsts {
                let proc = self.procs.get(&slot).ok_or(Fault::UnknownSlot(slot))?;
                by_cluster
                    .entry(proc.cluster)
                    .or_default()
                    .push((slot, proc.label));
            }
            // Only a split (never a full cover) touches the cluster list,
            // and a split cluster keeps members, so these indices hold.
            for (ci, members) in by_cluster {
                let target = if members.len() == self.clusters[ci].members {
                    ci
                } else {
                    let view = self.clusters[ci].view.clone();
                    self.leave(ci, members.len());
                    self.clusters.push(ViewCluster {
                        view,
                        members: members.len(),
                    });
                    for (slot, _) in &members {
                        if let Some(proc) = self.procs.get_mut(slot) {
                            proc.cluster = self.clusters.len() - 1;
                        }
                    }
                    self.clusters.len() - 1
                };
                let view = &mut self.clusters[target].view;
                proto.apply(view, round, inbox.as_inbox());
                for (slot, label) in members {
                    statuses.push((slot, proto.status(view, label, round)));
                }
            }
        }
        statuses.sort_unstable_by_key(|&(slot, _)| slot);
        Ok(statuses)
    }
}

/// One worker's command loop: serves commands from `port` against a
/// fresh [`WorkerState`] over `slots` until `Exit`, a hang-up, or a
/// fault, which it reports before returning.
fn serve<P: ViewProtocol>(
    proto: &P,
    n: usize,
    slots: &[(u32, Label)],
    seeds: &SeedTree,
    port: &mut impl WorkerPort<P::Msg>,
) {
    let mut state = WorkerState::new(proto, n, slots, seeds);
    while let Some(cmd) = port.recv() {
        let rsp = match cmd {
            Ok(Cmd::Compose(round, slots)) => {
                state.compose(proto, round, &slots).map(Rsp::Composed)
            }
            Ok(Cmd::Deliver(round, groups)) => {
                state.deliver(proto, round, &groups).map(Rsp::Applied)
            }
            Ok(Cmd::Retire(slots)) => {
                for slot in slots {
                    state.retire(slot);
                }
                continue;
            }
            Ok(Cmd::Exit) => return,
            Err(fault) => Err(fault),
        };
        let fatal = rsp.is_err();
        if !port.send(rsp.unwrap_or_else(Rsp::Fault)) || fatal {
            return;
        }
    }
}

/// Contiguous slot ranges over `0..n` for `workers` workers, remainder
/// spread over the first ranges. Ranges ascend, so concatenating
/// per-worker responses in worker order yields slot order.
fn slot_ranges(n: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let (base, rem) = (n / workers, n % workers);
    let mut start = 0;
    (0..workers)
        .map(|w| {
            let len = base + usize::from(w < rem);
            start += len;
            start - len..start
        })
        .collect()
}

/// Started worker threads plus the slot → worker map, waiting for the
/// coordinator end of their carrier (see [`WorkerTransport::new`]).
pub(crate) type Workers = (Vec<usize>, Vec<thread::JoinHandle<()>>);

/// Splits `labels` into `workers` contiguous slot ranges (`workers` is
/// clamped to `1..=n`) and starts one worker thread per range. `link(w)`
/// runs on the calling thread and returns what worker `w`'s thread runs
/// first to open its port (`None` gives up); the thread then serves
/// commands on that port.
pub(crate) fn spawn_workers<P, W, F>(
    protocol: &P,
    labels: &[Label],
    seeds: &SeedTree,
    workers: usize,
    mut link: impl FnMut(usize) -> F,
) -> Workers
where
    P: ViewProtocol + Clone + Send + 'static,
    W: WorkerPort<P::Msg>,
    F: FnOnce() -> Option<W> + Send + 'static,
{
    let n = labels.len();
    let mut worker_of = vec![0; n];
    let handles = slot_ranges(n, workers.clamp(1, n.max(1)))
        .into_iter()
        .enumerate()
        .map(|(w, range)| {
            worker_of[range.clone()].fill(w);
            let slots: Vec<(u32, Label)> = range.map(|s| (s as u32, labels[s])).collect();
            let proto = protocol.clone();
            let seeds = *seeds;
            let open = link(w);
            thread::spawn(move || {
                if let Some(mut port) = open() {
                    serve(&proto, n, &slots, &seeds, &mut port);
                }
            })
        })
        .collect();
    (worker_of, handles)
}

/// The wire transport: slot-range worker threads lock-stepped by the
/// [`crate::pipeline::RoundPipeline`] over carrier `C`. Views never
/// leave their worker thread.
pub struct WorkerTransport<P: ViewProtocol, C> {
    labels: Vec<Label>,
    carrier: C,
    /// Slot → owning worker index. Ranges are contiguous and ascending,
    /// so concatenating per-worker responses in worker order yields slot
    /// order.
    worker_of: Vec<usize>,
    workers: usize,
    handles: Vec<thread::JoinHandle<()>>,
    /// Statuses collected in [`Transport::apply`], drained by
    /// [`Transport::sweep`].
    statuses: Vec<(ProcId, Status)>,
    _protocol: PhantomData<P>,
}

impl<P: ViewProtocol, C> fmt::Debug for WorkerTransport<P, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerTransport")
            .field("n", &self.labels.len())
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

impl<P: ViewProtocol, C: Carrier<P::Msg>> WorkerTransport<P, C> {
    /// Joins started `workers` to the coordinator end of their carrier.
    pub(crate) fn new(labels: &[Label], carrier: C, (worker_of, handles): Workers) -> Self {
        WorkerTransport {
            labels: labels.to_vec(),
            carrier,
            worker_of,
            workers: handles.len(),
            handles,
            statuses: Vec::new(),
            _protocol: PhantomData,
        }
    }

    /// The number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Groups `pids` (slot-ascending) by owning worker, preserving order.
    fn per_worker(&self, pids: &[ProcId]) -> Vec<Vec<ProcId>> {
        let mut out: Vec<Vec<ProcId>> = vec![Vec::new(); self.workers];
        for &p in pids {
            out[self.worker_of[p.index()]].push(p);
        }
        out
    }

    /// Sends every worker with a non-empty group `cmd(group)`, then
    /// collects the responses in worker order, each checked by `unpack`
    /// to be the expected kind and to answer exactly its group's slots.
    /// Returns the answers paired with their processes, slot-ascending.
    fn exchange<T>(
        &mut self,
        groups: &[Vec<ProcId>],
        mut cmd: impl FnMut(&[ProcId]) -> Cmd<P::Msg>,
        (requesting, collecting): (&'static str, &'static str),
        unpack: fn(Rsp) -> Option<Answers<T>>,
    ) -> Result<Vec<(ProcId, T)>, RunError> {
        let busy = || groups.iter().enumerate().filter(|(_, g)| !g.is_empty());
        for (w, group) in busy() {
            self.carrier.send(w, cmd(group), requesting)?;
        }
        let mut out = Vec::new();
        for (w, group) in busy() {
            let protocol = |detail| RunError::Protocol {
                context: collecting,
                detail,
            };
            let batch = match self.carrier.recv(w, collecting)? {
                Rsp::Fault(Fault::Wire(sender, error)) => {
                    return Err(RunError::Decode { sender, error })
                }
                Rsp::Fault(Fault::UnknownSlot(slot)) => {
                    return Err(protocol(format!(
                        "worker {w} was handed unknown slot {slot}"
                    )))
                }
                rsp => unpack(rsp)
                    .ok_or_else(|| protocol(format!("worker {w} answered out of turn")))?,
            };
            if batch.len() != group.len() {
                let (got, want) = (batch.len(), group.len());
                return Err(protocol(format!(
                    "worker {w} answered {got} slots, expected {want}"
                )));
            }
            for (&p, (slot, answer)) in group.iter().zip(batch) {
                if slot != u64::from(p.0) {
                    return Err(protocol(format!(
                        "worker {w} answered slot {slot}, expected {p}"
                    )));
                }
                out.push((p, answer));
            }
        }
        Ok(out)
    }
}

fn composed(rsp: Rsp) -> Option<Answers<Bytes>> {
    match rsp {
        Rsp::Composed(batch) => Some(batch),
        _ => None,
    }
}

fn applied(rsp: Rsp) -> Option<Answers<Status>> {
    match rsp {
        Rsp::Applied(statuses) => Some(statuses),
        _ => None,
    }
}

fn slots_of(pids: &[ProcId]) -> Vec<u64> {
    pids.iter().map(|p| u64::from(p.0)).collect()
}

impl<P: ViewProtocol, C: Carrier<P::Msg>> Transport<P> for WorkerTransport<P, C> {
    fn compose(
        &mut self,
        round: Round,
        participants: &[ProcId],
    ) -> Result<Vec<(ProcId, Label, P::Msg)>, RunError> {
        let groups = self.per_worker(participants);
        let broadcasts = self.exchange(
            &groups,
            |pids| Cmd::Compose(round, slots_of(pids)),
            ("requesting broadcasts", "collecting broadcasts"),
            composed,
        )?;
        broadcasts
            .into_iter()
            .map(|(p, bytes)| {
                let label = self.labels[p.index()];
                let msg = P::Msg::from_bytes(bytes).map_err(|e| RunError::decode(label, e))?;
                Ok((p, label, msg))
            })
            .collect()
    }

    fn crashed(&mut self, pid: ProcId) -> Result<(), RunError> {
        let w = self.worker_of[pid.index()];
        let cmd = Cmd::Retire(vec![u64::from(pid.0)]);
        self.carrier.send(w, cmd, "retiring a crashed process")
    }

    fn apply(
        &mut self,
        round: Round,
        _alive: &[bool],
        survivors: &[ProcId],
        msgs: &RoundMessages<P::Msg>,
    ) -> Result<(), RunError> {
        // One shared inbox per delivery signature occurring at a worker,
        // listed with its recipients: delivery costs O(signatures)
        // inboxes per worker, never one per recipient.
        let deliver = |dsts: &[ProcId]| {
            let mut groups: Vec<(SigId, Vec<u64>)> = Vec::new();
            for &dst in dsts {
                let sig = msgs.sig_id(dst);
                match groups.iter_mut().find(|(s, _)| *s == sig) {
                    Some((_, g)) => g.push(u64::from(dst.0)),
                    None => groups.push((sig, vec![u64::from(dst.0)])),
                }
            }
            let groups = groups
                .into_iter()
                .map(|(sig, g)| (g, msgs.inbox_arc(sig)))
                .collect();
            Cmd::Deliver(round, groups)
        };
        let groups = self.per_worker(survivors);
        self.statuses = self.exchange(
            &groups,
            deliver,
            ("delivering inboxes", "collecting round statuses"),
            applied,
        )?;
        Ok(())
    }

    fn sweep(&mut self, _round: Round) -> Result<Vec<(ProcId, Status)>, RunError> {
        let statuses = std::mem::take(&mut self.statuses);
        let decided: Vec<ProcId> = statuses
            .iter()
            .filter(|(_, status)| matches!(status, Status::Decided(_)))
            .map(|&(pid, _)| pid)
            .collect();
        // One batched `Retire` per worker, not one per decided process.
        for (w, pids) in self.per_worker(&decided).iter().enumerate() {
            if !pids.is_empty() {
                let cmd = Cmd::Retire(slots_of(pids));
                self.carrier.send(w, cmd, "retiring decided processes")?;
            }
        }
        Ok(statuses)
    }

    fn shutdown(&mut self) {
        for w in 0..self.workers {
            // Best-effort: a worker that already exited has hung up.
            let _ = self.carrier.send(w, Cmd::Exit, "shutting down");
        }
        // Hanging up unblocks any worker still waiting on its link, so
        // joins cannot hang.
        self.carrier.hang_up();
        for h in self.handles.drain(..) {
            // A worker that panicked mid-run already surfaced as a
            // Disconnected/Protocol error to the driver; teardown only
            // reaps the thread, so a join error carries no new signal.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NoFailures;
    use crate::engine::{EngineOptions, SyncEngine};
    use crate::exec::ExecutorKind;
    use crate::pipeline::RoundPipeline;
    use crate::socket::{SocketOptions, SocketTransport};
    use crate::testproto::{labels, two_crashes, BrokenWire, RankOnce, UnionRank};
    use crate::threaded::ChannelTransport;
    use crate::view::NoObserver;

    // Bad configurations, equivalence with the simulator, and round
    // limits are pinned for every executor, both carriers included, by
    // the table tests in `crate::exec`.

    fn workers(count: usize) -> SocketOptions {
        SocketOptions {
            workers: Some(count),
            ..SocketOptions::default()
        }
    }

    #[test]
    fn slot_ranges_cover_every_slot_in_order() {
        assert_eq!(slot_ranges(10, 3), vec![0..4, 4..7, 7..10]);
        assert_eq!(slot_ranges(2, 2), vec![0..1, 1..2]);
    }

    #[test]
    fn malformed_wire_bytes_are_an_error_not_a_panic() {
        for kind in [ExecutorKind::Threaded, ExecutorKind::Socket] {
            let report = kind.run(
                BrokenWire,
                labels(4),
                NoFailures,
                SeedTree::new(3),
                EngineOptions::default(),
            );
            assert!(
                matches!(report, Err(RunError::Decode { .. })),
                "{kind}: expected a structured decode error, got {report:?}"
            );
        }
    }

    #[test]
    fn report_is_independent_of_worker_count() {
        let ls = labels(11);
        let seeds = SeedTree::new(13);
        let reference = SyncEngine::new(UnionRank::rounds(4), ls.clone(), two_crashes(), seeds)
            .unwrap()
            .run();
        for count in [1, 2, 3, 7, 64] {
            let expected = count.clamp(1, ls.len());
            let proto = UnionRank::rounds(4);
            let mut channel = ChannelTransport::spawn_with(&proto, &ls, &seeds, workers(count));
            let mut socket = SocketTransport::spawn(&proto, &ls, &seeds, workers(count)).unwrap();
            assert_eq!(channel.workers(), expected, "threaded, workers = {count}");
            assert_eq!(socket.workers(), expected, "socket, workers = {count}");
            let pipeline = || RoundPipeline::new(ls.clone(), two_crashes(), seeds, 1000).unwrap();
            let threaded = pipeline().run(&mut channel, &mut NoObserver).unwrap();
            let socket = pipeline().run(&mut socket, &mut NoObserver).unwrap();
            assert_eq!(reference, threaded, "threaded, workers = {count}");
            assert_eq!(reference, socket, "socket, workers = {count}");
        }
    }

    /// Sends worker 0 a `Compose` naming slot 99, which it does not own,
    /// and returns the coordinator's error after checking that the
    /// faulted worker's thread ended on its own, without panicking.
    fn unknown_slot_error<C: Carrier<crate::testproto::LabelSet>>(
        mut t: WorkerTransport<RankOnce, C>,
    ) -> RunError {
        let err = t
            .exchange(
                &[vec![ProcId(99)]],
                |pids| Cmd::Compose(Round(0), slots_of(pids)),
                ("requesting broadcasts", "collecting broadcasts"),
                composed,
            )
            .unwrap_err();
        let worker = t.handles.remove(0);
        assert!(worker.join().is_ok(), "the faulted worker must not panic");
        t.shutdown();
        assert!(t.handles.is_empty(), "every worker thread is joined");
        err
    }

    #[test]
    fn unknown_slot_is_the_same_fault_on_both_carriers() {
        let (ls, seeds) = (labels(4), SeedTree::new(5));
        let channel = ChannelTransport::spawn_with(&RankOnce, &ls, &seeds, workers(2));
        let socket = SocketTransport::spawn(&RankOnce, &ls, &seeds, workers(2)).unwrap();
        let channel = unknown_slot_error(channel);
        assert_eq!(
            channel,
            RunError::Protocol {
                context: "collecting broadcasts",
                detail: "worker 0 was handed unknown slot 99".into(),
            }
        );
        assert_eq!(channel, unknown_slot_error(socket));
    }
}
