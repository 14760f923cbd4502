//! The paper's motivating scenario (§1): `n` failure-prone servers must
//! claim `n` distinct shards — fast, even while servers crash
//! mid-broadcast under an adaptive adversary.
//!
//! Two epochs are simulated. Epoch 1 uses the early-terminating variant
//! (Theorem 3/4: constant rounds when healthy, `O(log log f)` with `f`
//! crashes). After the crash wave, the survivors re-run renaming over
//! the shrunken shard table for epoch 2.
//!
//! ```text
//! cargo run --example cluster_failover
//! ```

use balls_into_leaves::core::adversary::Sandwich;
use balls_into_leaves::prelude::*;

fn epoch(
    title: &str,
    servers: Vec<Label>,
    seed: u64,
    crash_budget: usize,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let n = servers.len();
    let report = if crash_budget == 0 {
        ExecutorKind::Clustered.run(
            BallsIntoLeaves::early_terminating(),
            servers,
            NoFailures,
            SeedTree::new(seed),
            EngineOptions::default(),
        )?
    } else {
        ExecutorKind::Clustered.run(
            BallsIntoLeaves::early_terminating(),
            servers,
            Sandwich::new(crash_budget),
            SeedTree::new(seed),
            EngineOptions::default(),
        )?
    };

    let verdict = check_tight_renaming(&report);
    println!("== {title} ==");
    println!(
        "servers: {n}, crashes: {}, rounds: {}, verdict: {verdict}",
        report.failures(),
        report.rounds
    );
    for (label, name) in assignment(&report) {
        println!("  server {label:>5} owns shard {name}");
    }
    println!();
    assert!(verdict.holds());
    Ok(report)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let servers: Vec<Label> = (0..24u64).map(|i| Label(1000 + i * 37)).collect();

    // Epoch 1: healthy cluster — constant time (3 rounds).
    let healthy = epoch("epoch 1: healthy cluster", servers.clone(), 7, 0)?;
    assert_eq!(healthy.rounds, 3, "Theorem 3: constant rounds failure-free");

    // Epoch 2: the adversary crashes servers mid-broadcast while the
    // remaining ones (re)claim a shard table sized to the survivors.
    let stressed = epoch("epoch 2: crash wave during assignment", servers, 11, 6)?;

    // Epoch 3: survivors of the wave re-shard among themselves.
    let survivors: Vec<Label> = stressed
        .decisions
        .iter()
        .enumerate()
        .filter(|(_, d)| d.is_some())
        .map(|(pid, _)| stressed.labels[pid])
        .collect();
    let resharded = epoch("epoch 3: survivors re-shard", survivors, 13, 0)?;
    assert_eq!(resharded.rounds, 3);
    println!(
        "all epochs safe; shard ownership stayed one-to-one throughout \
         ({} crashes absorbed).",
        stressed.failures()
    );
    Ok(())
}
