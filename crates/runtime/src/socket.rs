//! Socket executor: the worker protocol of [`crate::worker`] over
//! loopback TCP.
//!
//! This is the executor where messages cross an actual OS boundary: the
//! coordinator binds a loopback listener, the slot-range workers connect
//! back through the kernel's socket layer, and every [`Cmd`] and [`Rsp`]
//! travels as one length-prefixed frame ([`crate::frame`]) with protocol
//! messages in their [`Wire`] encoding — the shape a multi-host
//! deployment would have. This module is only the carrier: the accept
//! loop, the `Hello` handshake that pins [`WIRE_FORMAT_VERSION`], the I/O
//! timeout, and one frame codec for commands and responses. A `Deliver`
//! inbox is encoded from the shared [`crate::view::InboxBuf`], so it
//! crosses the wire once per (worker × delivery signature).
//!
//! All I/O carries a timeout ([`SocketOptions::io_timeout`]): a hung peer
//! surfaces as [`RunError::Io`], never a stalled run; a malformed frame
//! as [`RunError::Frame`], a malformed message as [`RunError::Decode`], a
//! worker that dies mid-run as [`RunError::Disconnected`].

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};

use crate::error::RunError;
use crate::frame::{get_blob, put_blob, read_frame, write_frame, FrameDecoder};
use crate::ids::{Label, Name, Round};
use crate::rng::SeedTree;
use crate::view::{InboxBuf, Status, ViewProtocol};
use crate::wire::{get_varint, put_varint, Wire, WireError, WIRE_FORMAT_VERSION};
use crate::worker::{spawn_workers, Carrier, Cmd, Fault, Rsp, WorkerPort, WorkerTransport};

/// Frame tags of the coordinator↔worker protocol.
mod tag {
    pub const HELLO: u64 = 0;
    pub const DELIVER: u64 = 2;
    pub const EXIT: u64 = 4;
    pub const COMPOSED: u64 = 5;
    pub const APPLIED: u64 = 6;
    pub const FAULT: u64 = 7;
    /// The round alone. Tag 1 also carried a slot list; the round-only
    /// layout got a fresh tag so a peer that knows only the old layout
    /// rejects it instead of mis-decoding it. Tags 3 and 8 (retiring
    /// slots) are retired with their command.
    pub const COMPOSE: u64 = 9;
}

/// Fault kinds carried by a `Fault` frame.
mod fault {
    pub const WIRE: u64 = 0;
    pub const UNKNOWN_SLOT: u64 = 1;
}

/// Tuning knobs of the wire executors (threaded and socket): the
/// [`crate::engine::EngineOptions::wire`] field of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SocketOptions {
    /// Number of workers; `None` picks `min(available_parallelism, n)`.
    /// The produced [`crate::trace::RunReport`] does not depend on this
    /// — only wall-clock time does.
    pub workers: Option<usize>,
    /// Read/write/accept timeout on every socket. A hung peer then fails
    /// the run with [`RunError::Io`] instead of stalling it; `None`
    /// blocks forever (not recommended outside debugging). The channel
    /// carrier ignores it.
    pub io_timeout: Option<Duration>,
}

impl Default for SocketOptions {
    fn default() -> Self {
        SocketOptions {
            workers: None,
            io_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl SocketOptions {
    /// The worker count for `n` processes: `workers`, or the available
    /// parallelism, clamped to `1..=n`.
    pub(crate) fn worker_count(&self, n: usize) -> usize {
        let auto = || thread::available_parallelism().map_or(1, |t| t.get());
        self.workers.unwrap_or_else(auto).clamp(1, n.max(1))
    }
}

/// The error for an unrecognized tag or code: [`WireError::BadTag`] when
/// it fits a byte, an out-of-range [`WireError::LengthOverflow`] when not.
fn bad_tag(t: u64) -> WireError {
    u8::try_from(t).map_or(WireError::LengthOverflow(t), WireError::BadTag)
}

/// Reads a sequence length, rejecting one longer than the bytes left in
/// the frame (every element takes at least one byte), so a hostile count
/// cannot force a large allocation.
fn get_len(buf: &mut Bytes) -> Result<usize, WireError> {
    let len = get_varint(buf)?;
    usize::try_from(len)
        .ok()
        .filter(|&l| l <= buf.len())
        .ok_or(WireError::LengthOverflow(len))
}

fn put_slots(buf: &mut BytesMut, slots: &[u64]) {
    put_varint(buf, slots.len() as u64);
    for &slot in slots {
        put_varint(buf, slot);
    }
}

fn get_slots(buf: &mut Bytes) -> Result<Vec<u64>, WireError> {
    let len = get_len(buf)?;
    (0..len).map(|_| get_varint(buf)).collect()
}

fn get_end(buf: &Bytes) -> Result<(), WireError> {
    if buf.is_empty() {
        Ok(())
    } else {
        Err(WireError::TrailingBytes(buf.len()))
    }
}

fn put_cmd<M: Wire>(buf: &mut BytesMut, cmd: &Cmd<M>) {
    match cmd {
        Cmd::Compose(round) => {
            put_varint(buf, tag::COMPOSE);
            put_varint(buf, round.0);
        }
        Cmd::Deliver(round, groups) => {
            put_varint(buf, tag::DELIVER);
            put_varint(buf, round.0);
            put_varint(buf, groups.len() as u64);
            for (dsts, inbox) in groups {
                put_slots(buf, dsts);
                put_varint(buf, inbox.len() as u64);
                for (label, msg) in inbox.as_inbox().iter() {
                    put_varint(buf, label.0);
                    put_varint(buf, msg.encoded_len() as u64);
                    msg.encode(buf);
                }
            }
        }
        Cmd::Exit => put_varint(buf, tag::EXIT),
    }
}

fn get_cmd<M: Wire>(mut buf: Bytes) -> Result<Cmd<M>, Fault> {
    let cmd = match get_varint(&mut buf)? {
        tag::COMPOSE => Cmd::Compose(Round(get_varint(&mut buf)?)),
        tag::DELIVER => {
            let round = Round(get_varint(&mut buf)?);
            let count = get_len(&mut buf)?;
            let mut groups = Vec::with_capacity(count);
            for _ in 0..count {
                let dsts = get_slots(&mut buf)?;
                let len = get_len(&mut buf)?;
                let mut pairs = Vec::with_capacity(len);
                for _ in 0..len {
                    let label = Label(get_varint(&mut buf)?);
                    let msg = M::from_bytes(get_blob(&mut buf)?)
                        .map_err(|error| Fault::Wire(Some(label), error))?;
                    pairs.push((label, msg));
                }
                groups.push((dsts, Arc::new(InboxBuf::from_pairs(pairs))));
            }
            Cmd::Deliver(round, groups)
        }
        tag::EXIT => Cmd::Exit,
        t => return Err(bad_tag(t).into()),
    };
    get_end(&buf)?;
    Ok(cmd)
}

fn put_rsp(buf: &mut BytesMut, rsp: &Rsp) {
    match rsp {
        Rsp::Composed(batch) => {
            put_varint(buf, tag::COMPOSED);
            put_varint(buf, batch.len() as u64);
            for (slot, bytes) in batch {
                put_varint(buf, *slot);
                put_blob(buf, bytes);
            }
        }
        Rsp::Applied(statuses) => {
            put_varint(buf, tag::APPLIED);
            put_varint(buf, statuses.len() as u64);
            for &(slot, status) in statuses {
                put_varint(buf, slot);
                match status {
                    Status::Running => put_varint(buf, 0),
                    Status::Decided(name) => {
                        put_varint(buf, 1);
                        put_varint(buf, u64::from(name.0));
                    }
                }
            }
        }
        Rsp::Fault(f) => {
            put_varint(buf, tag::FAULT);
            put_fault(buf, f);
        }
    }
}

fn get_rsp(mut buf: Bytes) -> Result<Rsp, WireError> {
    let rsp = match get_varint(&mut buf)? {
        tag::COMPOSED => {
            let len = get_len(&mut buf)?;
            let mut batch = Vec::with_capacity(len);
            for _ in 0..len {
                batch.push((get_varint(&mut buf)?, get_blob(&mut buf)?));
            }
            Rsp::Composed(batch)
        }
        tag::APPLIED => {
            let len = get_len(&mut buf)?;
            let mut statuses = Vec::with_capacity(len);
            for _ in 0..len {
                let slot = get_varint(&mut buf)?;
                let status = match get_varint(&mut buf)? {
                    0 => Status::Running,
                    1 => Status::Decided(Name(u32::decode(&mut buf)?)),
                    t => return Err(bad_tag(t)),
                };
                statuses.push((slot, status));
            }
            Rsp::Applied(statuses)
        }
        tag::FAULT => Rsp::Fault(get_fault(&mut buf)?),
        t => return Err(bad_tag(t)),
    };
    get_end(&buf)?;
    Ok(rsp)
}

fn put_fault(buf: &mut BytesMut, f: &Fault) {
    match f {
        Fault::Wire(sender, error) => {
            put_varint(buf, fault::WIRE);
            match sender {
                Some(l) => {
                    put_varint(buf, 1);
                    put_varint(buf, l.0);
                }
                None => put_varint(buf, 0),
            }
            let (code, arg) = match error {
                WireError::UnexpectedEnd => (0, 0),
                WireError::VarintOverflow => (1, 0),
                WireError::BadTag(t) => (2, u64::from(*t)),
                WireError::LengthOverflow(l) => (3, *l),
                WireError::TrailingBytes(k) => (4, *k as u64),
            };
            put_varint(buf, code);
            put_varint(buf, arg);
        }
        Fault::UnknownSlot(slot) => {
            put_varint(buf, fault::UNKNOWN_SLOT);
            put_varint(buf, *slot);
        }
    }
}

/// Decodes a `Fault` frame body. Unknown kinds, flags and codes, and
/// arguments out of their type's range, are rejected, never coerced.
fn get_fault(buf: &mut Bytes) -> Result<Fault, WireError> {
    match get_varint(buf)? {
        fault::WIRE => {
            let sender = match get_varint(buf)? {
                0 => None,
                1 => Some(Label(get_varint(buf)?)),
                t => return Err(bad_tag(t)),
            };
            let code = get_varint(buf)?;
            let arg = get_varint(buf)?;
            let out_of_range = || WireError::LengthOverflow(arg);
            let error = match code {
                0 => WireError::UnexpectedEnd,
                1 => WireError::VarintOverflow,
                2 => WireError::BadTag(u8::try_from(arg).map_err(|_| out_of_range())?),
                3 => WireError::LengthOverflow(arg),
                4 => WireError::TrailingBytes(usize::try_from(arg).map_err(|_| out_of_range())?),
                c => return Err(bad_tag(c)),
            };
            Ok(Fault::Wire(sender, error))
        }
        fault::UNKNOWN_SLOT => Ok(Fault::UnknownSlot(get_varint(buf)?)),
        k => Err(bad_tag(k)),
    }
}

/// Reads a worker's `Hello` frame: its index and wire-format version.
fn get_hello(mut buf: Bytes) -> Result<(u64, u64), WireError> {
    let t = get_varint(&mut buf)?;
    if t != tag::HELLO {
        return Err(bad_tag(t));
    }
    let hello = (get_varint(&mut buf)?, get_varint(&mut buf)?);
    get_end(&buf)?;
    Ok(hello)
}

/// `TCP_NODELAY` plus read/write timeouts, on both ends of a link.
fn configure(stream: &TcpStream, io_timeout: Option<Duration>) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(io_timeout)?;
    stream.set_write_timeout(io_timeout)
}

fn write_msg(stream: &mut TcpStream, encode: impl FnOnce(&mut BytesMut)) -> std::io::Result<()> {
    let mut frame = BytesMut::new();
    encode(&mut frame);
    write_frame(stream, &frame)
}

/// The coordinator end of the TCP carrier: one accepted stream per
/// worker, in worker-index order.
#[derive(Debug)]
pub struct TcpCarrier {
    links: Vec<(TcpStream, FrameDecoder)>,
}

impl TcpCarrier {
    /// Accepts and handshakes `workers` connections on `listener`, within
    /// `io_timeout` (`None`: no deadline, consistently with the stream
    /// timeouts).
    fn accept(
        listener: &TcpListener,
        workers: usize,
        io_timeout: Option<Duration>,
    ) -> Result<Self, RunError> {
        listener
            .set_nonblocking(true)
            .map_err(|e| RunError::io("configuring the listener", &e))?;
        // bil-lint: allow(determinism): accept-loop IO deadline only — wall time never feeds protocol state
        let deadline = io_timeout.map(|t| Instant::now() + t);
        let mut links: Vec<Option<(TcpStream, FrameDecoder)>> =
            (0..workers).map(|_| None).collect();
        for accepted in 0..workers {
            let stream = loop {
                match listener.accept() {
                    Ok((stream, _)) => break stream,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        // bil-lint: allow(determinism): accept-loop IO deadline only — wall time never feeds protocol state
                        if deadline.is_some_and(|d| Instant::now() > d) {
                            return Err(RunError::Io {
                                context: "accepting workers",
                                detail: format!("only {accepted} of {workers} connected in time"),
                            });
                        }
                        thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(RunError::io("accepting workers", &e)),
                }
            };
            let (index, link) = Self::handshake(stream, workers, accepted, io_timeout)?;
            if links[index].replace(link).is_some() {
                return Err(RunError::Protocol {
                    context: "reading a handshake",
                    detail: format!("duplicate handshake from {index}"),
                });
            }
        }
        // `workers` distinct indices were filled, so every link is set.
        let links = links.into_iter().flatten().collect();
        Ok(TcpCarrier { links })
    }

    /// Configures an accepted stream and reads its `Hello`, returning the
    /// worker index it claims.
    fn handshake(
        mut stream: TcpStream,
        workers: usize,
        accepted: usize,
        io_timeout: Option<Duration>,
    ) -> Result<(usize, (TcpStream, FrameDecoder)), RunError> {
        let context = "reading a handshake";
        stream
            .set_nonblocking(false)
            .and_then(|()| configure(&stream, io_timeout))
            .map_err(|e| RunError::io("configuring a worker stream", &e))?;
        let mut decoder = FrameDecoder::new();
        let hello = read_frame(&mut stream, &mut decoder, context, accepted)?;
        let (index, version) =
            get_hello(hello).map_err(|error| RunError::Frame { context, error })?;
        let bad = |detail: String| RunError::Protocol { context, detail };
        let index = usize::try_from(index)
            .ok()
            .filter(|&i| i < workers)
            .ok_or_else(|| bad(format!("worker index {index} out of range")))?;
        // The handshake pins the wire-format version: a worker from a
        // different format generation is refused up front instead of
        // mis-decoding its frames.
        if version != WIRE_FORMAT_VERSION {
            return Err(bad(format!(
                "worker {index} speaks wire format v{version}, \
                 coordinator requires v{WIRE_FORMAT_VERSION}"
            )));
        }
        Ok((index, (stream, decoder)))
    }
}

impl<M: Wire> Carrier<M> for TcpCarrier {
    fn send(&mut self, worker: usize, cmd: Cmd<M>, context: &'static str) -> Result<(), RunError> {
        write_msg(&mut self.links[worker].0, |buf| put_cmd(buf, &cmd)).map_err(|e| RunError::Io {
            context,
            detail: format!("worker {worker}: {e}"),
        })
    }

    fn recv(&mut self, worker: usize, context: &'static str) -> Result<Rsp, RunError> {
        let (stream, decoder) = &mut self.links[worker];
        let frame = read_frame(stream, decoder, context, worker)?;
        get_rsp(frame).map_err(|error| RunError::Frame { context, error })
    }

    fn hang_up(&mut self) {
        // Closing the coordinator ends unblocks any worker still
        // mid-read or mid-write.
        self.links.clear();
    }
}

/// The worker end of one TCP link.
struct TcpPort {
    stream: TcpStream,
    decoder: FrameDecoder,
}

impl TcpPort {
    /// Connects worker `index` back to the coordinator at `addr` and
    /// sends its `Hello`; `None` if the coordinator is unreachable.
    fn connect(addr: SocketAddr, index: usize, io_timeout: Option<Duration>) -> Option<Self> {
        let mut stream = TcpStream::connect(addr).ok()?;
        // A worker without its timeouts still serves; the coordinator's
        // own timeouts bound the run.
        configure(&stream, io_timeout).ok();
        write_msg(&mut stream, |buf| {
            put_varint(buf, tag::HELLO);
            put_varint(buf, index as u64);
            put_varint(buf, WIRE_FORMAT_VERSION);
        })
        .ok()?;
        Some(TcpPort {
            stream,
            decoder: FrameDecoder::new(),
        })
    }
}

impl<M: Wire> WorkerPort<M> for TcpPort {
    fn recv(&mut self) -> Option<Result<Cmd<M>, Fault>> {
        // Any read failure means the coordinator is gone; the error,
        // which would name this worker, has no one to go to.
        let frame = read_frame(&mut self.stream, &mut self.decoder, "reading a command", 0).ok()?;
        Some(get_cmd(frame))
    }

    fn send(&mut self, rsp: Rsp) -> bool {
        write_msg(&mut self.stream, |buf| put_rsp(buf, &rsp)).is_ok()
    }
}

/// The socket transport: the shared [`WorkerTransport`] over loopback
/// TCP.
pub type SocketTransport<P> = WorkerTransport<P, TcpCarrier>;

impl<P> WorkerTransport<P, TcpCarrier>
where
    P: ViewProtocol + Clone + Send + 'static,
{
    /// Binds a loopback listener, spawns the worker threads, and
    /// completes the handshake with each.
    ///
    /// # Errors
    ///
    /// [`RunError::Io`] if binding, accepting, or the handshake times
    /// out or fails; [`RunError::Frame`] or [`RunError::Protocol`] on a
    /// malformed handshake.
    pub fn spawn(
        protocol: &P,
        labels: &[Label],
        seeds: &SeedTree,
        options: SocketOptions,
    ) -> Result<Self, RunError> {
        let listener = TcpListener::bind(("127.0.0.1", 0))
            .map_err(|e| RunError::io("binding loopback", &e))?;
        let addr = listener
            .local_addr()
            .map_err(|e| RunError::io("reading the listener address", &e))?;
        let io_timeout = options.io_timeout;
        let count = options.worker_count(labels.len());
        let workers = spawn_workers(protocol, labels, seeds, count, |index| {
            move || TcpPort::connect(addr, index, io_timeout)
        });
        let carrier = TcpCarrier::accept(&listener, count, io_timeout)?;
        Ok(WorkerTransport::new(labels, carrier, workers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testproto::LabelSet;

    fn varints(values: &[u64]) -> Bytes {
        let mut buf = BytesMut::new();
        for &v in values {
            put_varint(&mut buf, v);
        }
        buf.freeze()
    }

    #[test]
    fn commands_and_responses_roundtrip() {
        let inbox = InboxBuf::from_pairs(vec![
            (Label(3), LabelSet(vec![Label(3)])),
            (Label(1 << 40), LabelSet(vec![])),
        ]);
        let groups = vec![
            (vec![4, 6], Arc::new(inbox)),
            (vec![], Arc::new(InboxBuf::new())),
        ];
        for cmd in [
            Cmd::Compose(Round(7)),
            Cmd::Deliver(Round(2), groups),
            Cmd::Exit,
        ] {
            let mut buf = BytesMut::new();
            put_cmd(&mut buf, &cmd);
            assert_eq!(get_cmd::<LabelSet>(buf.freeze()), Ok(cmd));
        }
        for rsp in [
            Rsp::Composed(vec![(1, Bytes::from(vec![1, 2])), (2, Bytes::new())]),
            Rsp::Applied(vec![(1, Status::Running), (3, Status::Decided(Name(7)))]),
            Rsp::Fault(Fault::UnknownSlot(99)),
        ] {
            let mut buf = BytesMut::new();
            put_rsp(&mut buf, &rsp);
            assert_eq!(get_rsp(buf.freeze()), Ok(rsp));
        }
    }

    #[test]
    fn hostile_command_frames_fail_to_decode() {
        for (frame, error) in [
            // A group or slot count beyond the frame never sizes an
            // allocation.
            (
                vec![tag::DELIVER, 0, 1 << 40],
                WireError::LengthOverflow(1 << 40),
            ),
            (
                vec![tag::DELIVER, 0, 1, 1 << 40],
                WireError::LengthOverflow(1 << 40),
            ),
            (vec![300], WireError::LengthOverflow(300)),
            (vec![tag::EXIT, 0], WireError::TrailingBytes(1)),
            (vec![tag::COMPOSE, 0, 5], WireError::TrailingBytes(1)),
            // The retired slot-list layouts are rejected, not misread.
            (vec![1, 0, 0], WireError::BadTag(1)),
            (vec![8, 0], WireError::BadTag(8)),
        ] {
            assert_eq!(get_cmd::<LabelSet>(varints(&frame)), Err(error.into()));
        }
        // An undecodable message inside a `Deliver` names its sender.
        let deliver = varints(&[tag::DELIVER, 0, 1, 1, 4, 1, 8, 1, 0xEE]);
        assert!(matches!(
            get_cmd::<LabelSet>(deliver),
            Err(Fault::Wire(Some(Label(8)), _))
        ));
    }

    #[test]
    fn wire_error_frames_roundtrip() {
        for (sender, e) in [
            (None, WireError::UnexpectedEnd),
            (Some(Label(9)), WireError::BadTag(7)),
            (Some(Label(1 << 40)), WireError::LengthOverflow(99)),
            (None, WireError::TrailingBytes(3)),
            (Some(Label(0)), WireError::VarintOverflow),
        ] {
            let f = Fault::Wire(sender, e);
            let mut buf = BytesMut::new();
            put_fault(&mut buf, &f);
            assert_eq!(get_fault(&mut buf.freeze()), Ok(f), "fault roundtrip");
        }
        // Hostile bodies fail rather than decode as some other fault: an
        // unknown error code, an argument too wide for its type, an
        // unknown sender flag, an unknown fault kind. Inside a response
        // frame, the coordinator then sees a bad frame.
        for (body, error) in [
            (vec![fault::WIRE, 0, 9, 0], WireError::BadTag(9)),
            (vec![fault::WIRE, 0, 2, 300], WireError::LengthOverflow(300)),
            (vec![fault::WIRE, 2, 0, 0], WireError::BadTag(2)),
            (vec![5], WireError::BadTag(5)),
        ] {
            assert_eq!(get_fault(&mut varints(&body)), Err(error.clone()));
            let frame = varints(&[&[tag::FAULT][..], &body].concat());
            assert_eq!(get_rsp(frame), Err(error), "{body:?}");
        }
    }

    #[test]
    fn default_options_have_a_timeout() {
        let opts = SocketOptions::default();
        assert!(
            opts.io_timeout.is_some(),
            "hung sockets must fail, not stall"
        );
        assert_eq!(opts.worker_count(0), 1);
        assert_eq!(opts.worker_count(1), 1);
        let forced = SocketOptions {
            workers: Some(8),
            ..opts
        };
        assert_eq!(forced.worker_count(3), 3, "clamped to n");
        assert_eq!(forced.worker_count(100), 8);
    }
}
