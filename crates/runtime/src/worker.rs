//! The wire executors' coordinator↔worker protocol, written once.
//!
//! The threaded executor ([`crate::threaded`]) and the socket executor
//! ([`crate::socket`]) are one design over two carriers. A few worker
//! threads each own a contiguous range of process slots, held in a
//! per-process [`LocalTransport`] over that range (views and RNG streams
//! never leave their worker), and a coordinator — the [`WorkerTransport`]
//! the shared [`crate::pipeline::RoundPipeline`] drives — lock-steps them
//! with typed commands:
//!
//! | command | response | meaning |
//! |---|---|---|
//! | [`Cmd::Compose`] | [`Rsp::Composed`] | compose the round's broadcast of every held slot; answer the encoded bytes, label-ascending |
//! | [`Cmd::Deliver`] | [`Rsp::Applied`] | fold one shared inbox per delivery signature into its recipients' views, drop held slots no group names (they crashed), retire the decided; answer the recipients' statuses, slot-ascending |
//! | [`Cmd::Exit`] | — | end the worker's loop |
//!
//! A worker holds exactly its alive, undecided slots — the round's
//! participants — so `Compose` needs no slot list, and the coordinator's
//! count and slot checks reject any answer that disagrees. A worker
//! answers `Compose` in its store's label order, so the coordinator
//! merges the workers' runs by label, decoding every broadcast as it
//! goes, straight into the label order the round delivers in; the codec
//! runs every round on both carriers. A worker that cannot execute a
//! command answers [`Rsp::Fault`] and exits its loop; it never panics
//! across the boundary.
//!
//! A [`Carrier`] only moves these values. [`crate::threaded`]'s channel
//! carrier hands them over as they are (inboxes by [`Arc`] clone);
//! [`crate::socket`]'s TCP carrier frames them over loopback sockets.
//! Everything else — per-worker grouping, response checks, decoding,
//! shutdown — lives here, once; the views themselves live in the same
//! cluster store every in-memory executor runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;
use std::thread;

use bytes::Bytes;

use crate::error::RunError;
use crate::ids::{Label, ProcId, Round};
use crate::pipeline::{LocalTransport, RoundMessages, SigId, Transport};
use crate::rng::SeedTree;
use crate::view::{InboxBuf, RoundInbox, Status, ViewProtocol};
use crate::wire::{Wire, WireError};

/// One delivery group of a [`Cmd::Deliver`]: recipient slots and the
/// shared inbox they all heard.
pub type Group<M> = (Vec<u64>, Arc<InboxBuf<M>>);

/// A coordinator → worker command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cmd<M> {
    /// Compose the round's broadcasts of every slot the worker holds.
    Compose(Round),
    /// Fold the round's shared inboxes: one group per delivery signature
    /// present at the worker. Held slots in no group crashed.
    Deliver(Round, Vec<Group<M>>),
    /// End the worker's loop.
    Exit,
}

/// A worker's per-slot answers to one command: label-ascending for
/// [`Rsp::Composed`], slot-ascending for [`Rsp::Applied`].
pub type Answers<T> = Vec<(u64, T)>;

/// A worker → coordinator response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rsp {
    /// Encoded broadcasts, label-ascending.
    Composed(Answers<Bytes>),
    /// Post-apply statuses, slot-ascending.
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
    /// A `Deliver` named a slot the worker does not own (or named one
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

/// One worker's command loop: serves commands from `port` against a
/// per-process [`LocalTransport`] over slots `range` (labelled `labels`)
/// of an `n`-process system until `Exit`, a hang-up, or a fault, which
/// it reports before returning.
fn serve<P: ViewProtocol>(
    proto: P,
    n: usize,
    range: Range<usize>,
    labels: &[Label],
    seeds: &SeedTree,
    port: &mut impl WorkerPort<P::Msg>,
) {
    let mut local = LocalTransport::with_range(proto, n, range.start, labels, seeds, false, 1);
    // Slot − `range.start` → the signature of the `Deliver` group naming
    // it (`SigId::MAX`: none), reused across rounds.
    let mut sig_of = vec![SigId::MAX; range.len()];
    while let Some(cmd) = port.recv() {
        let rsp = match cmd {
            Ok(Cmd::Compose(round)) => {
                // One shard composes inline, which cannot fail; hang up,
                // as a panicking worker would, if it ever did. The store
                // answers in its label order, which the coordinator
                // merges across workers.
                let Ok(broadcasts) = local.compose_held(round) else {
                    return;
                };
                let encoded = broadcasts
                    .into_iter()
                    .map(|(p, _, msg)| (u64::from(p.0), msg.to_bytes()));
                Ok(Rsp::Composed(encoded.collect()))
            }
            Ok(Cmd::Deliver(round, groups)) => {
                deliver(&mut local, &range, &mut sig_of, round, &groups).map(Rsp::Applied)
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

/// Executes one `Deliver` on a worker's store: group `i` is delivery
/// signature `i`, held slots no group names are dropped (they crashed),
/// and the decided are retired. Returns the recipients' statuses,
/// slot-ascending.
fn deliver<P: ViewProtocol>(
    local: &mut LocalTransport<P>,
    range: &Range<usize>,
    sig_of: &mut [SigId],
    round: Round,
    groups: &[Group<P::Msg>],
) -> Result<Answers<Status>, Fault> {
    sig_of.fill(SigId::MAX);
    for (sig, (dsts, _)) in (0..).zip(groups) {
        for &slot in dsts {
            let at = usize::try_from(slot)
                .ok()
                .filter(|s| range.contains(s))
                .map(|s| s - range.start);
            match at {
                Some(i) if sig_of[i] == SigId::MAX => sig_of[i] = sig,
                _ => return Err(Fault::UnknownSlot(slot)),
            }
        }
    }
    let inboxes: Vec<RoundInbox<'_, P::Msg>> =
        groups.iter().map(|(_, inbox)| inbox.as_inbox()).collect();
    let sig = |p: ProcId| Some(sig_of[p.index() - range.start]).filter(|&s| s != SigId::MAX);
    local.apply_groups(round, sig, &inboxes);
    let mut statuses: Answers<Status> = local
        .sweep_held(round)
        .into_iter()
        .map(|(p, status)| (u64::from(p.0), status))
        .collect();
    statuses.sort_unstable_by_key(|&(slot, _)| slot);
    Ok(statuses)
}

/// Contiguous slot ranges over `0..n` for `workers` workers, remainder
/// spread over the first ranges. Ranges ascend, so concatenating
/// per-worker statuses in worker order yields slot order.
fn slot_ranges(n: usize, workers: usize) -> Vec<Range<usize>> {
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
            let labels = labels[range.clone()].to_vec();
            let proto = protocol.clone();
            let seeds = *seeds;
            let open = link(w);
            // The store is built on the worker's own thread, so workers
            // set up in parallel.
            thread::spawn(move || {
                if let Some(mut port) = open() {
                    serve(proto, n, range, &labels, &seeds, &mut port);
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
    /// so concatenating per-worker statuses in worker order yields slot
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
    /// to be the expected kind. Returns each busy worker's index and
    /// answers; the caller checks them against the worker's group.
    fn exchange<T>(
        &mut self,
        groups: &[Vec<ProcId>],
        mut cmd: impl FnMut(&[ProcId]) -> Cmd<P::Msg>,
        (requesting, collecting): (&'static str, &'static str),
        unpack: fn(Rsp) -> Option<Answers<T>>,
    ) -> Result<Vec<(usize, Answers<T>)>, RunError> {
        let busy = || groups.iter().enumerate().filter(|(_, g)| !g.is_empty());
        for (w, group) in busy() {
            self.carrier.send(w, cmd(group), requesting)?;
        }
        let mut out = Vec::new();
        for (w, _) in busy() {
            let batch = match self.carrier.recv(w, collecting)? {
                Rsp::Fault(Fault::Wire(sender, error)) => {
                    return Err(RunError::Decode { sender, error })
                }
                Rsp::Fault(Fault::UnknownSlot(slot)) => {
                    return Err(protocol_error(
                        collecting,
                        format!("worker {w} was handed unknown slot {slot}"),
                    ))
                }
                rsp => unpack(rsp).ok_or_else(|| {
                    protocol_error(collecting, format!("worker {w} answered out of turn"))
                })?,
            };
            out.push((w, batch));
        }
        Ok(out)
    }
}

fn protocol_error(context: &'static str, detail: String) -> RunError {
    RunError::Protocol { context, detail }
}

/// Checks worker `w`'s answer to [`Cmd::Compose`] against `group`, the
/// composing slots it holds (slot-ascending): every answered slot must
/// be in the group, the labels must strictly ascend — so no slot
/// repeats — and the answer must name as many slots as the group. The
/// answer then names exactly the group, in label order.
fn check_composed(
    w: usize,
    group: &[ProcId],
    batch: &Answers<Bytes>,
    labels: &[Label],
) -> Result<(), RunError> {
    let fail = |detail| Err(protocol_error("collecting broadcasts", detail));
    if batch.len() != group.len() {
        let (got, want) = (batch.len(), group.len());
        return fail(format!("worker {w} answered {got} slots, expected {want}"));
    }
    let mut last = None;
    for &(slot, _) in batch {
        let Ok(at) = group.binary_search_by_key(&slot, |p| u64::from(p.0)) else {
            return fail(format!(
                "worker {w} answered slot {slot}, which it does not compose"
            ));
        };
        let label = labels[group[at].index()];
        if last.is_some_and(|last| last >= label) {
            return fail(format!(
                "worker {w} answered slot {slot} out of label order"
            ));
        }
        last = Some(label);
    }
    Ok(())
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

impl<P: ViewProtocol, C: Carrier<P::Msg>> Transport<P> for WorkerTransport<P, C> {
    /// Each worker answers its composing slots in label order; once
    /// each answer is checked to name exactly the worker's group, a k-way
    /// merge of the workers' runs by label decodes every broadcast
    /// straight into the round's label order.
    fn compose(
        &mut self,
        round: Round,
        participants: &[ProcId],
    ) -> Result<Vec<(ProcId, Label, P::Msg)>, RunError> {
        let groups = self.per_worker(participants);
        let answers = self.exchange(
            &groups,
            |_| Cmd::Compose(round),
            ("requesting broadcasts", "collecting broadcasts"),
            composed,
        )?;
        for (w, batch) in &answers {
            check_composed(*w, &groups[*w], batch, &self.labels)?;
        }
        // Every answered slot is one of its worker's composing slots, so
        // it indexes `labels` and fits a `ProcId`.
        let labels = &self.labels;
        let head = |run: &std::vec::IntoIter<(u64, Bytes)>| {
            run.as_slice()
                .first()
                .map(|&(slot, _)| labels[slot as usize])
        };
        let mut runs: Vec<_> = answers
            .into_iter()
            .map(|(_, batch)| batch.into_iter())
            .collect();
        let mut heads: BinaryHeap<Reverse<(Label, usize)>> = runs
            .iter()
            .enumerate()
            .filter_map(|(r, run)| Some(Reverse((head(run)?, r))))
            .collect();
        let mut out = Vec::with_capacity(participants.len());
        while let Some(Reverse((label, r))) = heads.pop() {
            let Some((slot, bytes)) = runs[r].next() else {
                continue;
            };
            let msg = P::Msg::from_bytes(bytes).map_err(|e| RunError::decode(label, e))?;
            out.push((ProcId(slot as u32), label, msg));
            if let Some(next) = head(&runs[r]) {
                heads.push(Reverse((next, r)));
            }
        }
        Ok(out)
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
        let answers = self.exchange(
            &groups,
            deliver,
            ("delivering inboxes", "collecting round statuses"),
            applied,
        )?;
        // Statuses come slot-ascending: each must answer its group's
        // slot at the same position.
        let mut statuses = Vec::with_capacity(survivors.len());
        for (w, batch) in answers {
            let group = &groups[w];
            let fail = |detail| protocol_error("collecting round statuses", detail);
            if batch.len() != group.len() {
                let (got, want) = (batch.len(), group.len());
                return Err(fail(format!(
                    "worker {w} answered {got} slots, expected {want}"
                )));
            }
            for (&p, (slot, status)) in group.iter().zip(batch) {
                if slot != u64::from(p.0) {
                    return Err(fail(format!(
                        "worker {w} answered slot {slot}, expected {p}"
                    )));
                }
                statuses.push((p, status));
            }
        }
        self.statuses = statuses;
        Ok(())
    }

    fn sweep(&mut self, _round: Round) -> Result<Vec<(ProcId, Status)>, RunError> {
        // Workers retired their decided slots while answering `Deliver`.
        Ok(std::mem::take(&mut self.statuses))
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
    use crate::engine::EngineOptions;
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
    fn composed_answers_must_name_exactly_the_group_in_label_order() {
        // Worker 0 holds slots 0..3, worker 1 slots 3..6; slot 1 has
        // decided, so worker 0 composes slots 0 and 2: label order 2, 0.
        let labels = [50, 10, 40, 20, 30, 60].map(Label);
        let group = [ProcId(0), ProcId(2)];
        let check = |slots: &[u64]| {
            let batch: Answers<Bytes> = slots.iter().map(|&s| (s, Bytes::new())).collect();
            check_composed(0, &group, &batch, &labels)
        };
        assert_eq!(check(&[2, 0]), Ok(()));
        for (case, slots) in [
            ("out of label order", &[0, 2][..]),
            ("duplicated", &[2, 2]),
            ("held by another worker", &[2, 3]),
            ("not composing", &[1, 0]),
            ("out of range", &[2, 99]),
            ("missing", &[2]),
            ("extra", &[2, 0, 1]),
        ] {
            assert!(
                matches!(
                    check(slots),
                    Err(RunError::Protocol {
                        context: "collecting broadcasts",
                        ..
                    })
                ),
                "{case}: {:?}",
                check(slots)
            );
        }
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
        let reference = ExecutorKind::Clustered
            .run(
                UnionRank::rounds(4),
                ls.clone(),
                two_crashes(),
                seeds,
                EngineOptions::default(),
            )
            .unwrap();
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

    /// Sends worker 0 a `Deliver` naming slot 99, which it does not own,
    /// and returns the coordinator's error after checking that the
    /// faulted worker's thread ended on its own, without panicking.
    fn unknown_slot_error<C: Carrier<crate::testproto::LabelSet>>(
        mut t: WorkerTransport<RankOnce, C>,
    ) -> RunError {
        let err = t
            .exchange(
                &[vec![ProcId(99)]],
                |_| Cmd::Deliver(Round(0), vec![(vec![99], Arc::new(InboxBuf::new()))]),
                ("delivering inboxes", "collecting round statuses"),
                applied,
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
                context: "collecting round statuses",
                detail: "worker 0 was handed unknown slot 99".into(),
            }
        );
        assert_eq!(channel, unknown_slot_error(socket));
    }
}
