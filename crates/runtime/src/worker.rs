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
//! | [`Cmd::Compose`] | [`Rsp::Composed`] | compose the round's broadcast of every held slot; answer them encoded in one buffer, label-ascending |
//! | [`Cmd::Deliver`] | [`Rsp::Applied`] | fold one shared inbox per delivery signature into its recipients' views, drop held slots no group names (they crashed), retire the decided; answer the recipients' statuses, slot-ascending |
//! | [`Cmd::Exit`] | — | end the worker's loop |
//!
//! A worker holds exactly its alive, undecided slots — the round's
//! participants — so `Compose` needs no slot list, and the coordinator's
//! count and slot checks reject any answer that disagrees. A worker
//! answers `Compose` in its store's label order, in one buffer. The
//! coordinator walks every slot in label order and decodes each
//! composing slot's broadcast from the front of its worker's buffer, so
//! it reads every byte once: that walk builds the label order the round
//! delivers in, and is also the check that every worker answered exactly
//! its composing slots, in label order. The codec runs every round on
//! both carriers. A worker that cannot execute a command answers
//! [`Rsp::Fault`] and exits its loop; it never panics across the
//! boundary.
//!
//! A [`Carrier`] only moves these values. [`crate::threaded`]'s channel
//! carrier hands them over as they are (inboxes by [`Arc`] clone);
//! [`crate::socket`]'s TCP carrier frames them over loopback sockets.
//! Everything else — per-worker grouping, response checks, decoding,
//! shutdown — lives here, once; the views themselves live in the same
//! cluster store every in-memory executor runs.

use std::fmt;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;
use std::thread;

use bytes::{Bytes, BytesMut};

use crate::error::RunError;
use crate::ids::{Label, ProcId, Round};
use crate::pipeline::{LocalTransport, RoundMessages, SigId, Transport};
use crate::rng::SeedTree;
use crate::view::{InboxBuf, RoundInbox, Status, ViewProtocol};
use crate::wire::{get_sized, get_varint, put_sized, put_varint, Wire, WireError};

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

/// A worker's per-slot statuses, slot-ascending.
pub type Statuses = Vec<(u64, Status)>;

/// A worker → coordinator response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rsp {
    /// The worker's broadcasts, label-ascending, in one buffer: a varint
    /// count, then per broadcast its slot as a varint and its
    /// length-prefixed encoding ([`put_sized`]). The TCP carrier ships
    /// this body as it is.
    Composed(Bytes),
    /// Post-apply statuses, slot-ascending.
    Applied(Statuses),
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
    /// A `Deliver` inbox whose senders do not strictly ascend by label:
    /// this one repeats or descends from the one before it.
    InboxOrder(Label),
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
            // The store answers in its label order, which the
            // coordinator interleaves across workers.
            Ok(Cmd::Compose(round)) => Ok(Rsp::Composed(put_composed(&local.compose_held(round)))),
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
) -> Result<Statuses, Fault> {
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
    let heard = groups.iter().map(|(dsts, _)| dsts.len()).sum();
    local.apply_groups(round, heard, sig, &inboxes);
    let mut statuses: Statuses = local
        .sweep_held(round)
        .into_iter()
        .map(|(p, status)| (u64::from(p.0), status))
        .collect();
    statuses.sort_unstable_by_key(|&(slot, _)| slot);
    Ok(statuses)
}

/// Bytes a `Composed` body reserves per broadcast: a slot varint (up to
/// 3 bytes below 2^21 slots), a length byte and a few bytes of message.
const COMPOSED_BYTES_PER_BROADCAST: usize = 8;

/// Encodes `broadcasts`, in their order, as a [`Rsp::Composed`] body.
pub(crate) fn put_composed<M: Wire>(broadcasts: &[(ProcId, Label, M)]) -> Bytes {
    let mut buf = BytesMut::with_capacity(10 + broadcasts.len() * COMPOSED_BYTES_PER_BROADCAST);
    put_varint(&mut buf, broadcasts.len() as u64);
    for (p, _, msg) in broadcasts {
        put_varint(&mut buf, u64::from(p.0));
        put_sized(&mut buf, msg);
    }
    buf.freeze()
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
    /// `(label, slot)` pairs sorted by label: the order a round's
    /// broadcasts are assembled in. Built at the first compose, so a
    /// run of no rounds sorts nothing.
    by_label: Vec<(Label, ProcId)>,
    /// Scratch, by slot: whether the slot composes this round.
    composing: Vec<bool>,
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
            by_label: Vec::new(),
            composing: Vec::new(),
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
    /// answer; the caller checks it against the worker's group.
    fn exchange<T>(
        &mut self,
        groups: &[Vec<ProcId>],
        mut cmd: impl FnMut(&[ProcId]) -> Cmd<P::Msg>,
        (requesting, collecting): (&'static str, &'static str),
        unpack: fn(Rsp) -> Option<T>,
    ) -> Result<Vec<(usize, T)>, RunError> {
        let busy = || groups.iter().enumerate().filter(|(_, g)| !g.is_empty());
        for (w, group) in busy() {
            self.carrier.send(w, cmd(group), requesting)?;
        }
        let mut out = Vec::new();
        for (w, _) in busy() {
            let answer = match self.carrier.recv(w, collecting)? {
                Rsp::Fault(fault) => return Err(fault_error(w, fault, collecting)),
                rsp => unpack(rsp).ok_or_else(|| {
                    protocol_error(collecting, format!("worker {w} answered out of turn"))
                })?,
            };
            out.push((w, answer));
        }
        Ok(out)
    }
}

fn protocol_error(context: &'static str, detail: String) -> RunError {
    RunError::Protocol { context, detail }
}

/// The coordinator's report of worker `w`'s `fault`, met while `context`.
fn fault_error(w: usize, fault: Fault, context: &'static str) -> RunError {
    match fault {
        Fault::Wire(sender, error) => RunError::Decode { sender, error },
        Fault::UnknownSlot(slot) => protocol_error(
            context,
            format!("worker {w} was handed unknown slot {slot}"),
        ),
        Fault::InboxOrder(label) => protocol_error(
            context,
            format!("worker {w} was handed an inbox with sender {label} out of label order"),
        ),
    }
}

/// The context of every error met collecting a round's broadcasts.
const COLLECTING_BROADCASTS: &str = "collecting broadcasts";

fn composed(rsp: Rsp) -> Option<Bytes> {
    match rsp {
        Rsp::Composed(body) => Some(body),
        _ => None,
    }
}

fn applied(rsp: Rsp) -> Option<Statuses> {
    match rsp {
        Rsp::Applied(statuses) => Some(statuses),
        _ => None,
    }
}

impl<P: ViewProtocol, C: Carrier<P::Msg>> Transport<P> for WorkerTransport<P, C> {
    /// Each worker answers its composing slots in label order, in one
    /// buffer. A walk over the slots in label order takes each composing
    /// slot's broadcast from the front of its worker's buffer, so every
    /// byte is read once, straight into the round's label order, and the
    /// walk is also the check that each worker answered exactly its
    /// group in that order.
    fn compose(
        &mut self,
        round: Round,
        participants: &[ProcId],
    ) -> Result<Vec<(ProcId, Label, P::Msg)>, RunError> {
        let groups = self.per_worker(participants);
        let answers = self.exchange(
            &groups,
            |_| Cmd::Compose(round),
            ("requesting broadcasts", COLLECTING_BROADCASTS),
            composed,
        )?;
        let fail = |detail| protocol_error(COLLECTING_BROADCASTS, detail);
        let frame = |error| RunError::Frame {
            context: COLLECTING_BROADCASTS,
            error,
        };
        // Each busy worker's run: its buffer past the count, which must
        // be its group's size before anything is reserved.
        let mut runs = vec![Bytes::new(); self.workers];
        for (w, mut body) in answers {
            let (count, want) = (get_varint(&mut body).map_err(frame)?, groups[w].len());
            if usize::try_from(count) != Ok(want) {
                return Err(fail(format!(
                    "worker {w} answered {count} slots, expected {want}"
                )));
            }
            runs[w] = body;
        }
        if self.by_label.is_empty() {
            self.by_label = (0..)
                .zip(&self.labels)
                .map(|(slot, &label)| (label, ProcId(slot)))
                .collect();
            // Labels are unique, so the label alone orders the pairs.
            self.by_label.sort_unstable_by_key(|&(label, _)| label);
            self.composing = vec![false; self.labels.len()];
        }
        self.composing.fill(false);
        for &p in participants {
            self.composing[p.index()] = true;
        }
        // A slot that is not the next entry of its worker's run — out of
        // label order, repeated, another worker's, not composing, out of
        // range — fails the walk before it is used.
        let mut out = Vec::with_capacity(participants.len());
        for &(label, pid) in &self.by_label {
            if !self.composing[pid.index()] {
                continue;
            }
            let w = self.worker_of[pid.index()];
            let run = &mut runs[w];
            let slot = get_varint(run).map_err(frame)?;
            if slot != u64::from(pid.0) {
                return Err(fail(format!(
                    "worker {w} answered slot {slot} where slot {pid} is next in label order"
                )));
            }
            let msg = get_sized(run).map_err(|e| RunError::decode(label, e))?;
            out.push((pid, label, msg));
        }
        match runs.iter().find(|run| !run.is_empty()) {
            Some(run) => Err(frame(WireError::TrailingBytes(run.len()))),
            None => Ok(out),
        }
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
    use crate::testproto::{labels, two_crashes, BrokenWire, LabelSet, RankOnce, UnionRank};
    use crate::threaded::ChannelTransport;
    use crate::view::NoObserver;
    use proptest::prelude::*;

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

    /// A carrier whose workers answer from a script: worker `w`'s one
    /// response is `self.0[w]`.
    struct Scripted(Vec<Option<Rsp>>);

    impl<M> Carrier<M> for Scripted {
        fn send(&mut self, _: usize, _: Cmd<M>, _: &'static str) -> Result<(), RunError> {
            Ok(())
        }

        fn recv(&mut self, worker: usize, context: &'static str) -> Result<Rsp, RunError> {
            self.0[worker]
                .take()
                .ok_or(RunError::Disconnected { context, worker })
        }

        fn hang_up(&mut self) {}
    }

    /// The scripted system's labels: worker 0 holds slots 0..3 and
    /// worker 1 slots 3..6. Slot 1 has decided, so the participants are
    /// slots 0, 2, 3, 4 and 5, and label order interleaves the workers:
    /// slots 3, 4, 2, 0, 5.
    const LABELS: [u64; 6] = [50, 10, 40, 20, 30, 60];
    const PARTICIPANTS: [u32; 5] = [0, 2, 3, 4, 5];

    /// Worker 1's answer: its slots in label order, each broadcasting
    /// the empty set (length 1, byte 0).
    const WORKER_1: [u8; 10] = [3, 3, 1, 0, 4, 1, 0, 5, 1, 0];

    /// Composes a round of the scripted system in which worker 0
    /// answers `body` and worker 1 answers [`WORKER_1`].
    fn compose_scripted(body: Vec<u8>) -> Result<Vec<(ProcId, Label, LabelSet)>, RunError> {
        let carrier = Scripted(
            [body, WORKER_1.to_vec()]
                .map(|b| Some(Rsp::Composed(Bytes::from(b))))
                .into(),
        );
        let handles = (0..2).map(|_| thread::spawn(|| {})).collect();
        let workers = (vec![0, 0, 0, 1, 1, 1], handles);
        let mut t = WorkerTransport::<RankOnce, _>::new(&LABELS.map(Label), carrier, workers);
        let out = t.compose(Round(0), &PARTICIPANTS.map(ProcId));
        t.shutdown();
        out
    }

    /// Worker 0's answer naming `slots`, each broadcasting the empty set.
    fn answer(slots: &[u8]) -> Vec<u8> {
        let entries = slots.iter().flat_map(|&slot| [slot, 1, 0]);
        [slots.len() as u8].into_iter().chain(entries).collect()
    }

    #[test]
    fn composed_answers_must_name_exactly_the_group_in_label_order() {
        // Worker 0 composes slots 0 and 2: label order 2, 0.
        let in_label_order: Vec<_> = [(3, 20), (4, 30), (2, 40), (0, 50), (5, 60)]
            .map(|(slot, label)| (ProcId(slot), Label(label), LabelSet(vec![])))
            .into();
        assert_eq!(compose_scripted(answer(&[2, 0])), Ok(in_label_order));
        for (case, slots) in [
            ("out of label order", &[0, 2][..]),
            ("duplicated", &[2, 2]),
            ("held by another worker", &[2, 3]),
            ("not composing", &[1, 0]),
            ("out of range", &[2, 99]),
            ("missing", &[2]),
            ("extra", &[2, 0, 1]),
        ] {
            let result = compose_scripted(answer(slots));
            assert!(
                matches!(
                    result,
                    Err(RunError::Protocol {
                        context: "collecting broadcasts",
                        ..
                    })
                ),
                "{case}: {result:?}"
            );
        }
    }

    #[test]
    fn malformed_composed_bodies_are_structured_errors() {
        let frame = |error| RunError::Frame {
            context: "collecting broadcasts",
            error,
        };
        for (case, body, error) in [
            (
                "a message shorter than its declared 2 bytes",
                vec![2, 2, 2, 0, 7, 0, 1, 0],
                RunError::decode(Label(40), WireError::TrailingBytes(1)),
            ),
            (
                "a message longer than its declared byte",
                vec![2, 2, 1, 1, 5, 0, 1, 0],
                RunError::decode(Label(40), WireError::UnexpectedEnd),
            ),
            (
                "a byte after the last entry",
                [answer(&[2, 0]), vec![9]].concat(),
                frame(WireError::TrailingBytes(1)),
            ),
            (
                "a truncated slot varint",
                vec![2, 2, 1, 0, 0x80],
                frame(WireError::UnexpectedEnd),
            ),
            ("no count at all", vec![], frame(WireError::UnexpectedEnd)),
        ] {
            assert_eq!(compose_scripted(body), Err(error), "{case}");
        }
        // A count of 2^40 is refused before anything is reserved, and
        // nothing is ever sized by a worker's claim.
        let mut huge = BytesMut::new();
        put_varint(&mut huge, 1 << 40);
        assert_eq!(
            compose_scripted(huge.to_vec()),
            Err(RunError::Protocol {
                context: "collecting broadcasts",
                detail: "worker 0 answered 1099511627776 slots, expected 2".into(),
            })
        );
    }

    proptest! {
        /// Whatever bytes worker 0 answers — arbitrary, or a valid
        /// answer with one byte overwritten, or cut short and extended —
        /// the coordinator returns exactly the participants in label
        /// order or a structured error, and never panics.
        #[test]
        fn arbitrary_composed_bodies_never_panic(
            garbage in prop::collection::vec(any::<u8>(), 0..24),
            mode in 0u8..3,
            at in any::<usize>(),
        ) {
            let valid = answer(&[2, 0]);
            let body = match mode {
                0 => garbage,
                1 => {
                    let mut body = valid.clone();
                    body[at % valid.len()] = garbage.first().copied().unwrap_or(0x80);
                    body
                }
                _ => [&valid[..at % (valid.len() + 1)], &garbage].concat(),
            };
            match compose_scripted(body) {
                Ok(out) => {
                    let order: Vec<_> = out.iter().map(|&(p, l, _)| (p.0, l.0)).collect();
                    prop_assert_eq!(order, vec![(3, 20), (4, 30), (2, 40), (0, 50), (5, 60)]);
                }
                Err(RunError::Protocol { context, .. } | RunError::Frame { context, .. }) => {
                    prop_assert_eq!(context, "collecting broadcasts");
                }
                Err(RunError::Decode { sender, .. }) => {
                    prop_assert!(matches!(sender, Some(Label(40 | 50))), "{sender:?}");
                }
                Err(e) => prop_assert!(false, "unstructured error {e:?}"),
            }
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

    /// Sends worker 0 a `Deliver` of `groups`, which it must refuse, and
    /// returns the coordinator's error after checking that the faulted
    /// worker's thread ended on its own, without panicking.
    fn refused_deliver<C: Carrier<LabelSet>>(
        mut t: WorkerTransport<RankOnce, C>,
        dst: ProcId,
        groups: Vec<Group<LabelSet>>,
    ) -> RunError {
        let mut groups = Some(groups);
        let err = t
            .exchange(
                &[vec![dst]],
                |_| Cmd::Deliver(Round(0), groups.take().unwrap_or_default()),
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

    fn unknown_slot_error<C: Carrier<LabelSet>>(t: WorkerTransport<RankOnce, C>) -> RunError {
        let groups = vec![(vec![99], Arc::new(InboxBuf::new()))];
        refused_deliver(t, ProcId(99), groups)
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

    #[test]
    fn a_socket_inbox_that_repeats_a_sender_is_a_protocol_error() {
        // The channel carrier hands inboxes over as built, in strict
        // label order; only bytes off a socket can repeat a sender.
        let (ls, seeds) = (labels(4), SeedTree::new(5));
        let socket = SocketTransport::spawn(&RankOnce, &ls, &seeds, workers(2)).unwrap();
        let repeated = InboxBuf::from_pairs(vec![
            (Label(3), LabelSet(vec![Label(3)])),
            (Label(3), LabelSet(vec![])),
        ]);
        let groups = vec![(vec![0], Arc::new(repeated))];
        assert_eq!(
            refused_deliver(socket, ProcId(0), groups),
            RunError::Protocol {
                context: "collecting round statuses",
                detail: "worker 0 was handed an inbox with sender 3 out of label order".into(),
            }
        );
    }
}
