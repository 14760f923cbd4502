//! The service-scale macro: how many names the sharded namespace
//! service holds at once, and at what sustained acquire throughput,
//! written to `BENCH_service_scale.json` (rows:
//! [`bil_bench::ServiceRow`]).
//!
//! Where `round_kernel` times one protocol round in isolation, this
//! binary times the whole service stack — front-end routing, two-stage
//! admission, pipelined per-shard epochs — under the E15 saturating
//! schedule: adversarial arrivals fill the namespace in epoch 0 and
//! later epochs verify it stays saturated. The headline row is the
//! million-name cell: `2^20` names over 64 shards of `2^14`.
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p bil-bench --bin service_scale            # full grid
//! cargo run --release -p bil-bench --bin service_scale -- --smoke # CI guard
//! cargo run --release -p bil-bench --bin service_scale -- --out target/x.json
//! ```
//!
//! `--smoke` drives a `2^14`-name, 16-shard fill on the clustered
//! executor, prints its figures, and exits non-zero if the namespace
//! does not saturate or the throughput figure is degenerate — CI wraps
//! it in a `timeout` so a routing or pipelining regression turns the
//! perf-smoke step red instead of silently landing.
//!
//! The full grid fails, and leaves the file as it is, when the snapshot
//! it would extend cannot be read.

use std::path::PathBuf;
use std::process::ExitCode;

use bil_bench::snapshot::Snapshot;
use bil_bench::ServiceRow;
use bil_harness::experiments::e15_service_scale::{scale_run, ScaleSchedule};
use bil_harness::experiments::EvalOpts;
use bil_harness::Executor;

/// Pipelined epochs per cell: epoch 0 fills, epoch 1 re-batches an
/// already-saturated namespace under the overlap path.
const EPOCHS: u64 = 2;

/// Smoke-mode namespace: big enough to exercise spill routing across
/// 16 shards, small enough for a debug-build CI lane.
const SMOKE_CAPACITY: usize = 1 << 14;

/// Smoke-mode shard count.
const SMOKE_SHARDS: usize = 16;

fn main() -> ExitCode {
    let mut out = Snapshot::<ServiceRow>::default_path();
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(p) => out = PathBuf::from(p),
                None => {
                    eprintln!("--out requires a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument: {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    if smoke {
        let row = measure(SMOKE_CAPACITY, SMOKE_SHARDS, Executor::Clustered);
        println!(
            "service_scale smoke: {} names / {} shards on {}: {} held, {:.1} acquires/sec",
            row.capacity, row.shards, row.executor, row.names_held, row.acquires_per_sec
        );
        // A crash-free saturating fill that leaves holes means routing
        // or admission broke; a degenerate rate means timing broke.
        if row.names_held != row.capacity {
            eprintln!(
                "service_scale smoke: FAIL — held {} of {} names",
                row.names_held, row.capacity
            );
            return ExitCode::FAILURE;
        }
        if !row.acquires_per_sec.is_finite() || row.acquires_per_sec <= 0.0 {
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }

    // The grid: the million-name layout (64 shards × 2^14) on the
    // in-memory executors. The wire executors carry every round of every
    // shard epoch through their workers — socket over loopback TCP, and
    // threaded one shard epoch at a time, since each already runs a
    // worker per core (E15 keeps a threaded service's shards
    // sequential) — so both are measured at the smoke layout instead
    // and every executor kind keeps a row.
    let grid: &[(Executor, usize, usize)] = &[
        (Executor::Clustered, 1 << 20, 64),
        (Executor::Parallel, 1 << 20, 64),
        (Executor::PerProcess, 1 << 20, 64),
        (Executor::Threaded, SMOKE_CAPACITY, SMOKE_SHARDS),
        (Executor::Socket, SMOKE_CAPACITY, SMOKE_SHARDS),
    ];

    let mut snapshot = match Snapshot::<ServiceRow>::load(&out) {
        Ok(snapshot) => snapshot,
        Err(e) => {
            eprintln!("service_scale: FAIL — cannot read {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for &(executor, capacity, shards) in grid {
        let row = measure(capacity, shards, executor);
        println!(
            "{:>9} names / {:>3} shards {:>11}: {:>9} held, {:>10.1} acquires/sec",
            row.capacity, row.shards, row.executor, row.names_held, row.acquires_per_sec
        );
        if row.names_held != row.capacity {
            eprintln!(
                "service_scale: FAIL — {} held only {} of {} names",
                row.executor, row.names_held, row.capacity
            );
            ok = false;
        }
        snapshot.upsert(row);
    }
    match snapshot.save(&out) {
        Ok(()) if ok => {
            println!("wrote {}", out.display());
            ExitCode::SUCCESS
        }
        Ok(()) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}

/// Drives a crash-free saturating fill (the E15 `saturating` schedule)
/// of `capacity` names across `shards` shards for [`EPOCHS`] pipelined
/// epochs on `executor`, and folds the outcome into a [`ServiceRow`].
/// Epoch 0 fills the namespace; later epochs find it saturated.
fn measure(capacity: usize, shards: usize, executor: Executor) -> ServiceRow {
    let opts = EvalOpts {
        quick: false,
        executor,
    };
    let outcome = scale_run(
        capacity,
        shards,
        EPOCHS,
        ScaleSchedule::saturating(),
        2014,
        &opts,
    );
    ServiceRow {
        bench: "service_scale".into(),
        capacity,
        shards,
        shard_capacity: capacity.div_ceil(shards),
        executor: executor.to_string(),
        epochs: EPOCHS,
        names_held: outcome.held_peak,
        acquires_per_sec: outcome.acquires_per_sec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_smoke_fills_a_tiny_namespace() {
        let row = measure(64, 4, Executor::Clustered);
        assert_eq!(row.names_held, 64, "crash-free saturation must fill");
        assert_eq!(row.shard_capacity, 16);
        assert!(row.acquires_per_sec > 0.0);
    }
}
