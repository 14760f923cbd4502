//! Property-based tests of the runtime substrate itself, protocol-
//! agnostic: executor equivalence, crash semantics, accounting, and the
//! wire codec.

use bil_runtime::adversary::{Scripted, ScriptedCrash};
use bil_runtime::engine::EngineOptions;
use bil_runtime::error::RunError;
use bil_runtime::frame::{read_frame, write_frame};
use bil_runtime::parallel::ParallelTransport;
use bil_runtime::pipeline::{LocalTransport, RoundMessages, RoundPipeline, Transport};
use bil_runtime::socket::{SocketOptions, SocketTransport};
use bil_runtime::testproto::{LabelSet, RankOnce, StaggeredRank, UnionRank};
use bil_runtime::threaded::ChannelTransport;
use bil_runtime::view::{NoObserver, Observer, ObserverCtx, Status, ViewProtocol};
use bil_runtime::wire::Wire;
use bil_runtime::{ExecutorKind, Label, ProcId, Round, RunReport, SeedTree};
use bytes::{BufMut, BytesMut};
use proptest::prelude::*;
use std::io::{BufRead, BufReader};

fn schedules() -> impl Strategy<Value = Vec<ScriptedCrash>> {
    prop::collection::vec(
        (0u64..6, 0usize..16, 0usize..4, 0usize..4).prop_map(|(r, v, m, res)| ScriptedCrash {
            round: Round(r),
            victim_index: v,
            modulus: m,
            residue: res,
        }),
        0..6,
    )
}

/// `payloads`, framed back to back through one reused buffer.
fn framed(payloads: &[Vec<u8>]) -> Vec<u8> {
    let (mut stream, mut buf) = (Vec::new(), BytesMut::new());
    for p in payloads {
        write_frame(&mut stream, &mut buf, |b| b.put_slice(p)).unwrap();
    }
    stream
}

/// Reads frames from `r` until one fails: the payloads read, and the
/// failure that ended them.
fn read_frames(mut r: impl BufRead) -> (Vec<Vec<u8>>, RunError) {
    let mut out = Vec::new();
    loop {
        match read_frame(&mut r, "reading", 0) {
            Ok(frame) => out.push(frame.to_vec()),
            Err(end) => return (out, end),
        }
    }
}

fn labels(n: usize) -> Vec<Label> {
    (0..n as u64).map(|i| Label(i * 17 + 11)).collect()
}

/// Wire executors over two workers, so their per-worker grouping and
/// merges run even on single-core machines.
fn two_workers() -> SocketOptions {
    SocketOptions {
        workers: Some(2),
        ..SocketOptions::default()
    }
}

/// Runs `protocol` under `schedule` on every executor, the parallel one
/// also over three shards, and asserts that every report equals the
/// clustered engine's.
fn executors_agree_on<P>(protocol: P, n: usize, seed: u64, schedule: &[ScriptedCrash])
where
    P: ViewProtocol + Clone + Send + 'static,
{
    let two_workers = EngineOptions {
        wire: two_workers(),
        ..EngineOptions::default()
    };
    let run = |kind: ExecutorKind| {
        let adversary = Scripted::new(schedule.to_vec());
        let seeds = SeedTree::new(seed);
        let report = kind.run(protocol.clone(), labels(n), adversary, seeds, two_workers);
        report.unwrap()
    };
    let clustered = run(ExecutorKind::Clustered);
    for kind in ExecutorKind::ALL {
        assert_eq!(&clustered, &run(kind), "{kind}");
    }
    let (seeds, ls) = (SeedTree::new(seed), labels(n));
    let mut transport = ParallelTransport::with_threads(protocol, &ls, &seeds, 3);
    let parallel = RoundPipeline::new(
        ls,
        Scripted::new(schedule.to_vec()),
        seeds,
        8 * n as u64 + 64,
    )
    .unwrap()
    .run(&mut transport, &mut NoObserver)
    .unwrap();
    assert_eq!(&clustered, &parallel, "parallel over three shards");
}

/// Forwards every call to `inner` and recounts, apart from the
/// pipeline, what each round sends and delivers: participants × (n − 1)
/// messages, Σ encoded length × (n − 1) bytes, and Σ over the survivors
/// (the participants minus the round's crashes) of their inbox length
/// − 1 deliveries.
struct Recount<T> {
    inner: T,
    n: u64,
    participants: Vec<ProcId>,
    crashed: Vec<ProcId>,
    sent: u64,
    bytes: u64,
    delivered: u64,
    /// Rounds with a crash but a single delivery signature.
    silent_crash_rounds: usize,
}

impl<P: ViewProtocol, T: Transport<P>> Transport<P> for Recount<T> {
    fn compose(
        &mut self,
        round: Round,
        participants: &[ProcId],
    ) -> Result<Vec<(ProcId, Label, P::Msg)>, RunError> {
        let out = self.inner.compose(round, participants)?;
        let fanout = self.n - 1;
        self.sent += participants.len() as u64 * fanout;
        self.bytes += out
            .iter()
            .map(|(_, _, m)| m.encoded_len() as u64)
            .sum::<u64>()
            * fanout;
        self.participants = participants.to_vec();
        self.crashed.clear();
        Ok(out)
    }

    fn crashed(&mut self, pid: ProcId) -> Result<(), RunError> {
        self.crashed.push(pid);
        self.inner.crashed(pid)
    }

    fn apply(
        &mut self,
        round: Round,
        alive: &[bool],
        survivors: &[ProcId],
        msgs: &RoundMessages<P::Msg>,
    ) -> Result<(), RunError> {
        let participants = self.participants.iter().copied();
        let expected: Vec<ProcId> = participants.filter(|p| !self.crashed.contains(p)).collect();
        assert_eq!(survivors, expected, "{round}: survivors");
        for &dst in survivors {
            self.delivered += msgs.inbox(dst).len() as u64 - 1;
        }
        if !self.crashed.is_empty() && msgs.variant_count() == 1 {
            self.silent_crash_rounds += 1;
        }
        self.inner.apply(round, alive, survivors, msgs)
    }

    fn observe(&mut self, ctx: ObserverCtx<'_>, observer: &mut dyn Observer<P>) {
        self.inner.observe(ctx, observer);
    }

    fn sweep(&mut self, round: Round) -> Result<Vec<(ProcId, Status)>, RunError> {
        self.inner.sweep(round)
    }

    fn shutdown(&mut self) {
        self.inner.shutdown();
    }
}

/// Runs `UnionRank::rounds(5)` over `n` processes under `schedule` on
/// every executor, each transport wrapped in a [`Recount`], and asserts
/// that every report's accounting equals the recount. Returns the
/// clustered report and how many rounds crashed someone while every
/// survivor heard the same inbox.
fn recounted(n: usize, seed: u64, schedule: &[ScriptedCrash]) -> (RunReport, usize) {
    let (p, ls, seeds) = (UnionRank::rounds(5), labels(n), SeedTree::new(seed));
    fn run<T: Transport<UnionRank>>(
        inner: T,
        ls: &[Label],
        seeds: SeedTree,
        schedule: &[ScriptedCrash],
    ) -> (RunReport, usize) {
        let n = ls.len() as u64;
        let mut t = Recount {
            inner,
            n,
            participants: Vec::new(),
            crashed: Vec::new(),
            sent: 0,
            bytes: 0,
            delivered: 0,
            silent_crash_rounds: 0,
        };
        let adversary = Scripted::new(schedule.to_vec());
        let report = RoundPipeline::new(ls.to_vec(), adversary, seeds, 8 * n + 64)
            .unwrap()
            .run(&mut t, &mut NoObserver)
            .unwrap();
        assert_eq!(report.messages_sent, t.sent, "messages sent");
        assert_eq!(report.wire_bytes_sent, t.bytes, "wire bytes sent");
        assert_eq!(report.messages_delivered, t.delivered, "messages delivered");
        (report, t.silent_crash_rounds)
    }
    let socket = SocketTransport::spawn(&p, &ls, &seeds, two_workers()).unwrap();
    let reference = run(
        LocalTransport::clustered(p, &ls, &seeds),
        &ls,
        seeds,
        schedule,
    );
    let others = [
        run(
            LocalTransport::per_process(p, &ls, &seeds),
            &ls,
            seeds,
            schedule,
        ),
        run(
            ParallelTransport::with_threads(p, &ls, &seeds, 3),
            &ls,
            seeds,
            schedule,
        ),
        run(
            ChannelTransport::spawn_with(&p, &ls, &seeds, two_workers()),
            &ls,
            seeds,
            schedule,
        ),
        run(socket, &ls, seeds, schedule),
    ];
    for other in others {
        assert_eq!(other, reference);
    }
    reference
}

#[test]
fn accounting_is_exact_when_a_crash_reaches_nobody() {
    // Round 1 crashes one process whose broadcast reaches nobody
    // (modulus 0): a crash, yet every survivor hears one inbox. Each
    // recipient's count then comes from one signature's inbox, which
    // holds one broadcast fewer than the round composed.
    let silent = ScriptedCrash {
        round: Round(1),
        victim_index: 2,
        modulus: 0,
        residue: 0,
    };
    let (report, silent_rounds) = recounted(7, 5, &[silent]);
    assert_eq!(report.failures(), 1);
    assert_eq!(silent_rounds, 1, "round 1 crashed with one signature");
    // Round 0: 7 × 6 sent and delivered; round 1: 7 × 6 sent, 6 × 5
    // delivered; rounds 2–4: 6 × 6 sent, 6 × 5 delivered.
    assert_eq!(report.messages_sent, 42 + 42 + 3 * 36);
    assert_eq!(report.messages_delivered, 42 + 30 + 3 * 30);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The five executors agree bit-for-bit on every run. The parallel
    /// executor also runs with a forced shard count > 1, and both wire
    /// executors with a forced worker count > 1, so their fan-out/merge
    /// paths are exercised even on single-core CI machines. The second
    /// protocol retires its processes in different rounds, so the stores
    /// drop retired slots mid-run, beside the crashed ones.
    #[test]
    fn executors_agree(
        n in 1usize..10,
        rounds in 1u64..6,
        seed in any::<u64>(),
        schedule in schedules(),
    ) {
        executors_agree_on(UnionRank::rounds(rounds), n, seed, &schedule);
        executors_agree_on(StaggeredRank(UnionRank::rounds(rounds)), n, seed, &schedule);
    }

    /// Crash semantics: the engine crashes at most the budget, never the
    /// last process standing, each victim at most once, and crashed
    /// processes never decide afterwards.
    #[test]
    fn crash_semantics(
        n in 1usize..12,
        seed in any::<u64>(),
        schedule in schedules(),
    ) {
        let budget = schedule.len();
        let report = ExecutorKind::Clustered.run(
            UnionRank::rounds(6),
            labels(n),
            Scripted::new(schedule),
            SeedTree::new(seed),
            EngineOptions::default(),
        )
        .unwrap();
        prop_assert!(report.failures() <= budget.min(n.saturating_sub(1)));
        let mut victims: Vec<_> = report.crashes.iter().map(|c| c.pid).collect();
        victims.sort_unstable();
        victims.dedup();
        prop_assert_eq!(victims.len(), report.failures(), "duplicate victim");
        for c in &report.crashes {
            if let Some(d) = report.decisions[c.pid.index()] {
                prop_assert!(d.round < c.round, "decided after crashing");
            }
        }
        // At least one process survives.
        prop_assert!(report.failures() < n.max(1));
    }

    /// Message accounting, exactly, on every executor: each report's
    /// sends, bytes and deliveries equal a per-round recount made by a
    /// wrapping transport. Deliveries never exceed sends.
    #[test]
    fn accounting_is_exact(
        n in 1usize..12,
        seed in any::<u64>(),
        schedule in schedules(),
    ) {
        let (report, _) = recounted(n, seed, &schedule);
        prop_assert!(report.messages_delivered <= report.messages_sent);
        // Upper bound: everyone broadcasting every round.
        prop_assert!(report.messages_sent <= report.rounds * (n as u64) * (n as u64).saturating_sub(1));
        if n > 1 {
            prop_assert!(report.wire_bytes_sent >= report.messages_sent);
        }
    }

    /// Wire codec: `Vec<Label>` and `LabelSet` round-trip for arbitrary
    /// contents, and `encoded_len` is exact.
    #[test]
    fn wire_roundtrip(values in prop::collection::vec(any::<u64>(), 0..64)) {
        let labels: Vec<Label> = values.iter().map(|v| Label(*v)).collect();
        let bytes = labels.to_bytes();
        prop_assert_eq!(bytes.len(), labels.encoded_len());
        prop_assert_eq!(Vec::<Label>::from_bytes(bytes).unwrap(), labels.clone());

        let set = LabelSet(labels);
        let bytes = set.to_bytes();
        prop_assert_eq!(bytes.len(), set.encoded_len());
        prop_assert_eq!(LabelSet::from_bytes(bytes).unwrap(), set);
    }

    /// Decoding arbitrary bytes never panics — it returns a value or an
    /// error (fuzz-shaped safety for the codec).
    #[test]
    fn wire_decode_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = Vec::<Label>::from_bytes(bytes::Bytes::from(bytes.clone()));
        let _ = u64::from_bytes(bytes::Bytes::from(bytes.clone()));
        let _ = LabelSet::from_bytes(bytes::Bytes::from(bytes));
    }

    /// Framing round-trips to identity no matter how the byte stream is
    /// chunked — the partial-TCP-read regime: a frame split across reads
    /// must resume cleanly, never corrupt, never panic.
    #[test]
    fn frames_roundtrip_under_arbitrary_chunking(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..48), 0..8),
        chunk in 1usize..17,
    ) {
        let stream = framed(&payloads);
        let (out, end) = read_frames(BufReader::with_capacity(chunk, &stream[..]));
        prop_assert_eq!(out, payloads);
        prop_assert!(matches!(end, RunError::Disconnected { .. }), "{:?}", end);
    }

    /// Reading arbitrary (corrupted or truncated) bytes as frames never
    /// panics: every frame either parses or the reader reports a
    /// structured `Frame` error or the stream's end.
    #[test]
    fn frame_decoder_never_panics_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        chunk in 1usize..9,
    ) {
        let (_, end) = read_frames(BufReader::with_capacity(chunk, &bytes[..]));
        prop_assert!(
            matches!(end, RunError::Frame { .. } | RunError::Disconnected { .. }),
            "{:?}",
            end
        );
    }

    /// A legitimate frame stream cut at any point reads every complete
    /// frame, then `Disconnected` — never a `Frame` error, never a wrong
    /// payload.
    #[test]
    fn truncated_frame_streams_decode_their_complete_prefix(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..6),
        cut_hint in 0usize..4096,
        chunk in 1usize..17,
    ) {
        let stream = framed(&payloads);
        let cut = cut_hint % (stream.len() + 1);
        let (out, end) = read_frames(BufReader::with_capacity(chunk, &stream[..cut]));
        prop_assert!(matches!(end, RunError::Disconnected { .. }), "{:?}", end);
        // Exactly the frames that end at or before the cut.
        let complete = framed(&payloads[..out.len()]).len();
        prop_assert!(complete <= cut);
        if out.len() < payloads.len() {
            prop_assert!(framed(&payloads[..=out.len()]).len() > cut);
        }
        prop_assert_eq!(&out[..], &payloads[..out.len()]);
    }

    /// RankOnce under no failures: one round, names are exactly the label
    /// ranks — the engine's decision plumbing is lossless.
    #[test]
    fn rank_once_correctness(n in 1usize..32, seed in any::<u64>()) {
        let ls = labels(n);
        let report = ExecutorKind::Clustered.run(
            RankOnce,
            ls.clone(),
            bil_runtime::adversary::NoFailures,
            SeedTree::new(seed),
            EngineOptions::default(),
        )
        .unwrap();
        prop_assert!(report.completed());
        prop_assert_eq!(report.rounds, 1);
        let mut sorted = ls.clone();
        sorted.sort_unstable();
        for (pid, l) in ls.iter().enumerate() {
            let rank = sorted.iter().position(|x| x == l).unwrap() as u32;
            prop_assert_eq!(report.decisions[pid].unwrap().name.0, rank);
        }
    }
}
