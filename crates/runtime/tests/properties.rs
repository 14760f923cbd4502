//! Property-based tests of the runtime substrate itself, protocol-
//! agnostic: executor equivalence, crash semantics, accounting, and the
//! wire codec.

use bil_runtime::adversary::{Scripted, ScriptedCrash};
use bil_runtime::engine::EngineOptions;
use bil_runtime::frame::{encode_frame, FrameDecoder};
use bil_runtime::parallel::ParallelTransport;
use bil_runtime::pipeline::RoundPipeline;
use bil_runtime::socket::SocketOptions;
use bil_runtime::testproto::{LabelSet, RankOnce, UnionRank};
use bil_runtime::view::NoObserver;
use bil_runtime::wire::Wire;
use bil_runtime::{ExecutorKind, Label, Round, SeedTree};
use proptest::prelude::*;

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

fn labels(n: usize) -> Vec<Label> {
    (0..n as u64).map(|i| Label(i * 17 + 11)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The five executors agree bit-for-bit on every run. The parallel
    /// executor also runs with a forced shard count > 1, and both wire
    /// executors with a forced worker count > 1, so their fan-out/merge
    /// paths are exercised even on single-core CI machines.
    #[test]
    fn executors_agree(
        n in 1usize..10,
        rounds in 1u64..6,
        seed in any::<u64>(),
        schedule in schedules(),
    ) {
        let two_workers = EngineOptions {
            wire: SocketOptions { workers: Some(2), ..SocketOptions::default() },
            ..EngineOptions::default()
        };
        let run = |kind: ExecutorKind| {
            kind.run(
                UnionRank::rounds(rounds),
                labels(n),
                Scripted::new(schedule.clone()),
                SeedTree::new(seed),
                two_workers,
            )
            .unwrap()
        };
        let clustered = run(ExecutorKind::Clustered);
        for kind in ExecutorKind::ALL {
            prop_assert_eq!(&clustered, &run(kind), "{}", kind);
        }
        let parallel = {
            let seeds = SeedTree::new(seed);
            let ls = labels(n);
            let mut transport =
                ParallelTransport::with_threads(UnionRank::rounds(rounds), &ls, &seeds, 3);
            RoundPipeline::new(ls, Scripted::new(schedule.clone()), seeds, 8 * n as u64 + 64)
                .unwrap()
                .run(&mut transport, &mut NoObserver)
                .unwrap()
        };
        prop_assert_eq!(&clustered, &parallel);
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

    /// Message accounting: sends are exactly (participants per round) ×
    /// (n − 1); deliveries never exceed sends.
    #[test]
    fn accounting_bounds(
        n in 1usize..12,
        seed in any::<u64>(),
        schedule in schedules(),
    ) {
        let report = ExecutorKind::Clustered.run(
            UnionRank::rounds(5),
            labels(n),
            Scripted::new(schedule),
            SeedTree::new(seed),
            EngineOptions::default(),
        )
        .unwrap();
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
        let mut stream: Vec<u8> = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p));
        }
        let mut decoder = FrameDecoder::new();
        let mut out: Vec<Vec<u8>> = Vec::new();
        for piece in stream.chunks(chunk) {
            decoder.extend(piece);
            while let Some(frame) = decoder.next_frame().expect("well-formed stream") {
                out.push(frame.to_vec());
            }
        }
        prop_assert_eq!(out, payloads);
        prop_assert_eq!(decoder.pending(), 0);
        prop_assert!(decoder.next_frame().expect("drained stream").is_none());
    }

    /// Feeding the frame decoder arbitrary (corrupted or truncated)
    /// bytes never panics: every frame either parses or the decoder
    /// reports a structured `WireError` / asks for more input.
    #[test]
    fn frame_decoder_never_panics_on_garbage(
        bytes in prop::collection::vec(any::<u8>(), 0..96),
        chunk in 1usize..9,
    ) {
        let mut decoder = FrameDecoder::new();
        'outer: for piece in bytes.chunks(chunk) {
            decoder.extend(piece);
            loop {
                match decoder.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => break 'outer, // poisoned stream: structured, not a panic
                }
            }
        }
    }

    /// A legitimate frame stream truncated at any point decodes every
    /// complete frame and then reports "need more bytes" — never an
    /// error, never garbage.
    #[test]
    fn truncated_frame_streams_decode_their_complete_prefix(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..32), 1..6),
        cut_hint in 0usize..4096,
    ) {
        let mut stream: Vec<u8> = Vec::new();
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p));
        }
        let cut = cut_hint % (stream.len() + 1);
        let mut decoder = FrameDecoder::new();
        decoder.extend(&stream[..cut]);
        let mut decoded = 0usize;
        while let Some(frame) = decoder.next_frame().expect("prefix of a valid stream") {
            prop_assert_eq!(&frame[..], &payloads[decoded][..]);
            decoded += 1;
        }
        prop_assert!(decoded <= payloads.len());
        // Feeding the rest completes the remaining frames exactly.
        decoder.extend(&stream[cut..]);
        while let Some(frame) = decoder.next_frame().expect("completed stream") {
            prop_assert_eq!(&frame[..], &payloads[decoded][..]);
            decoded += 1;
        }
        prop_assert_eq!(decoded, payloads.len());
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
