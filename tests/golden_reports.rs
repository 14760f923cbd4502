//! Cross-commit report pins: each scenario's `RunReport`, reduced to a
//! 64-bit FNV-1a digest, is pinned to a constant, on every executor.
//!
//! The determinism suites compare executors with each other, so a change
//! that moves every executor the same way — an adversary that starts
//! picking different victims, a round that delivers in a different
//! order — passes all of them. These pins catch exactly that: a report
//! may only change in a commit that also re-pins it and says why.
//!
//! Labels are a permutation of slot order (`label_at`), so any code
//! that confuses label order with slot order moves a digest.

use balls_into_leaves::core::adversary::Sandwich;
use balls_into_leaves::core::{check_tight_renaming, BallsIntoLeaves, BilConfig, EpochBil};
use balls_into_leaves::prelude::*;
use balls_into_leaves::runtime::adversary::{
    Adversary, CrashBurst, RandomCrash, Scripted, ScriptedCrash,
};
use balls_into_leaves::runtime::ViewProtocol;

/// FNV-1a over 64-bit words, little-endian.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Everything a report says, in a fixed order: size, seed, rounds,
/// outcome, message and byte counts, each slot's label and decision,
/// and every crash.
fn digest(report: &RunReport) -> u64 {
    let mut h = Fnv::new();
    h.word(report.n as u64);
    h.word(report.seed);
    h.word(report.rounds);
    h.word(match report.outcome {
        Outcome::Completed => 1,
        Outcome::RoundLimit => 2,
    });
    h.word(report.messages_sent);
    h.word(report.messages_delivered);
    h.word(report.wire_bytes_sent);
    for (label, decision) in report.labels.iter().zip(&report.decisions) {
        h.word(label.0);
        match decision {
            Some(d) => {
                h.word(1);
                h.word(u64::from(d.name.0));
                h.word(d.round.0);
            }
            None => h.word(0),
        }
    }
    h.word(report.crashes.len() as u64);
    for c in &report.crashes {
        h.word(u64::from(c.pid.0));
        h.word(c.label.0);
        h.word(c.round.0);
    }
    h.0
}

/// Slot `i`'s label: a permutation of `1..=65537`, so labels are unique
/// for every `n` used here and never ascend with the slot.
fn label_at(i: u64) -> Label {
    Label(i * 7919 % 65537 + 1)
}

fn labels(n: u64) -> Vec<Label> {
    (0..n).map(label_at).collect()
}

/// Runs the scenario on every executor, checks each report against
/// `pinned`, and returns the clustered executor's report.
fn pinned_on_every_executor<P, A>(
    name: &str,
    protocol: P,
    labels: Vec<Label>,
    adversary: impl Fn() -> A,
    seed: u64,
    pinned: u64,
) -> RunReport
where
    P: ViewProtocol + Clone + Send + 'static,
    A: Adversary<P::Msg>,
{
    let mut first = None;
    for kind in ExecutorKind::ALL {
        let report = kind
            .run(
                protocol.clone(),
                labels.clone(),
                adversary(),
                SeedTree::new(seed),
                EngineOptions::default(),
            )
            .unwrap_or_else(|e| panic!("{name} on {kind}: {e}"));
        assert_eq!(
            digest(&report),
            pinned,
            "{name} on {kind}: the report moved (digest {:#018x})",
            digest(&report)
        );
        first.get_or_insert(report);
    }
    first.expect("ExecutorKind::ALL is not empty")
}

#[test]
fn failure_free_n4096() {
    let report = pinned_on_every_executor(
        "failure-free n = 4096",
        BallsIntoLeaves::base(),
        labels(4096),
        || NoFailures,
        2014,
        0xa50f_1afb_453c_bc1c,
    );
    assert!(report.completed());
    assert!(check_tight_renaming(&report).holds());
}

#[test]
fn random_crash_n256_budget8() {
    let report = pinned_on_every_executor(
        "random crash n = 256",
        BallsIntoLeaves::base(),
        labels(256),
        || RandomCrash::new(8, 0.5, SeedTree::new(31).adversary_rng()),
        31,
        0x1638_fb2f_5382_2f3e,
    );
    assert!(report.failures() >= 2, "the adversary fired");
    assert!(check_tight_renaming(&report).holds());
}

/// `tests/determinism.rs`'s schedule: crashes in the init, path and sync
/// rounds, with three different partial-delivery patterns.
fn determinism_schedule() -> Scripted {
    Scripted::new(vec![
        ScriptedCrash {
            round: Round(0),
            victim_index: 5,
            modulus: 2,
            residue: 1,
        },
        ScriptedCrash {
            round: Round(1),
            victim_index: 2,
            modulus: 3,
            residue: 0,
        },
        ScriptedCrash {
            round: Round(2),
            victim_index: 7,
            modulus: 0,
            residue: 0,
        },
    ])
}

#[test]
fn scripted_schedule_n24() {
    let report = pinned_on_every_executor(
        "scripted n = 24",
        BallsIntoLeaves::base(),
        labels(24),
        determinism_schedule,
        2014,
        0x8388_54c9_5d93_0a5b,
    );
    assert_eq!(report.failures(), 3);
    assert!(check_tight_renaming(&report).holds());
}

#[test]
fn crash_burst_n256() {
    let report = pinned_on_every_executor(
        "crash burst n = 256",
        BallsIntoLeaves::base(),
        labels(256),
        || CrashBurst::new(Round(1), 6, SeedTree::new(5).adversary_rng()),
        5,
        0xd9a7_48f0_4959_0678,
    );
    assert_eq!(report.failures(), 6);
    assert!(check_tight_renaming(&report).holds());
}

#[test]
fn sandwich_n64() {
    let report = pinned_on_every_executor(
        "sandwich n = 64",
        BallsIntoLeaves::base(),
        labels(64),
        || Sandwich::new(8),
        9,
        0xff4c_8ffb_e6a0_0923,
    );
    assert!(report.failures() >= 1, "the adversary fired");
    assert!(check_tight_renaming(&report).holds());
}

#[test]
fn decide_at_leaf_n128_random_crash() {
    let report = pinned_on_every_executor(
        "decide-at-leaf n = 128",
        BallsIntoLeaves::new(BilConfig::new().with_decide_at_leaf(true)),
        labels(128),
        || RandomCrash::new(6, 0.4, SeedTree::new(12).adversary_rng()),
        12,
        0x6239_bfc8_c94c_ca19,
    );
    assert!(report.completed());
    assert!(check_tight_renaming(&report).holds());
}

#[test]
fn epoch_with_residents() {
    // A 64-name namespace with every third name held; 20 contenders,
    // labelled apart from the residents, compete for the free 42.
    let holders: Vec<(Label, Name)> = (0..22u32)
        .map(|i| (Label(100_000 + u64::from(i)), Name(3 * i)))
        .collect();
    let epoch = EpochBil::new(BilConfig::new(), 64, &holders).expect("valid epoch");
    let report = pinned_on_every_executor(
        "epoch with residents",
        epoch,
        labels(20),
        || RandomCrash::new(3, 0.5, SeedTree::new(44).adversary_rng()),
        44,
        0x1f63_3291_f9b0_e2ed,
    );
    assert!(report.completed());
    let held: Vec<Name> = holders.iter().map(|&(_, name)| name).collect();
    for name in report.all_names() {
        assert!(!held.contains(&name), "{name} is held by a resident");
    }
}
