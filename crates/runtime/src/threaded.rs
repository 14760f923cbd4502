//! In-process wire executor: the worker protocol of [`crate::worker`]
//! over `std::sync::mpsc` channels.
//!
//! Where the in-memory transports *simulate* the synchronous network,
//! this executor *is* one, in miniature: slot-range worker threads
//! lock-stepped by the shared [`crate::pipeline::RoundPipeline`], as on
//! the socket executor ([`crate::socket`]). This module is only the
//! carrier: a command and a response channel per worker, moving [`Cmd`]
//! and [`Rsp`] values as they are. `Deliver` hands each worker the
//! round's shared inboxes by [`std::sync::Arc`] clone, never re-encoded;
//! composed broadcasts still come back encoded, so the codec runs every
//! round. Reports are **bit-identical** to the in-memory executors'.

use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender};

use crate::error::RunError;
use crate::ids::Label;
use crate::rng::SeedTree;
use crate::socket::SocketOptions;
use crate::view::ViewProtocol;
use crate::worker::{spawn_workers, Carrier, Cmd, Fault, Rsp, WorkerPort, WorkerTransport};

/// The coordinator end of the channel carrier: a command sender and a
/// response receiver per worker.
pub struct ChannelCarrier<M> {
    links: Vec<(Sender<Cmd<M>>, Receiver<Rsp>)>,
}

impl<M> fmt::Debug for ChannelCarrier<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelCarrier")
            .field("links", &self.links.len())
            .finish()
    }
}

impl<M> Carrier<M> for ChannelCarrier<M> {
    fn send(&mut self, worker: usize, cmd: Cmd<M>, context: &'static str) -> Result<(), RunError> {
        self.links[worker]
            .0
            .send(cmd)
            .map_err(|_| RunError::Disconnected { context, worker })
    }

    fn recv(&mut self, worker: usize, context: &'static str) -> Result<Rsp, RunError> {
        self.links[worker]
            .1
            .recv()
            .map_err(|_| RunError::Disconnected { context, worker })
    }

    fn hang_up(&mut self) {
        self.links.clear();
    }
}

/// The worker end of one channel link.
struct ChannelPort<M> {
    commands: Receiver<Cmd<M>>,
    responses: Sender<Rsp>,
}

impl<M> WorkerPort<M> for ChannelPort<M> {
    fn recv(&mut self) -> Option<Result<Cmd<M>, Fault>> {
        self.commands.recv().ok().map(Ok)
    }

    fn send(&mut self, rsp: Rsp) -> bool {
        self.responses.send(rsp).is_ok()
    }
}

/// The in-process wire transport: the shared [`WorkerTransport`] over
/// channels.
pub type ChannelTransport<P> = WorkerTransport<P, ChannelCarrier<<P as ViewProtocol>::Msg>>;

impl<P> WorkerTransport<P, ChannelCarrier<P::Msg>>
where
    P: ViewProtocol + Clone + Send + 'static,
{
    /// Spawns workers with default [`SocketOptions`]:
    /// `min(available_parallelism, n)` of them, each owning a contiguous
    /// slot range with its views and process RNG streams.
    pub fn spawn(protocol: &P, labels: &[Label], seeds: &SeedTree) -> Self {
        Self::spawn_with(protocol, labels, seeds, SocketOptions::default())
    }

    /// [`ChannelTransport::spawn`] with the worker count of `options`
    /// (its I/O timeout applies to sockets only). The produced
    /// [`crate::trace::RunReport`] does not depend on it.
    pub fn spawn_with(
        protocol: &P,
        labels: &[Label],
        seeds: &SeedTree,
        options: SocketOptions,
    ) -> Self {
        let mut links = Vec::new();
        let link = |_| {
            let (to_worker, commands) = channel();
            let (responses, from_worker) = channel();
            links.push((to_worker, from_worker));
            let port = ChannelPort {
                commands,
                responses,
            };
            move || Some(port)
        };
        let count = options.worker_count(labels.len());
        let workers = spawn_workers(protocol, labels, seeds, count, link);
        WorkerTransport::new(labels, ChannelCarrier { links }, workers)
    }
}
