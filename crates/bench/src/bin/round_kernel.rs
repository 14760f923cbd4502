//! The round-kernel micro: per-round throughput of the failure-free
//! Balls-into-Leaves round across executors and sizes, written to
//! `BENCH_round_kernel.json` (schema: `bil_bench::report`).
//!
//! Unlike the criterion benches — whose shim prints medians but keeps
//! no history — this binary measures with plain `Instant` timing and
//! records machine-readable rows, so the perf trajectory is tracked
//! across PRs. Each cell runs the base protocol with a fixed round cap
//! (the run is dominated by steady-state rounds; setup is amortized
//! over them identically before and after any optimization, so ratios
//! between checked-in snapshots are meaningful).
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p bil-bench --bin round_kernel            # full grid
//! cargo run --release -p bil-bench --bin round_kernel -- --smoke # CI guard
//! cargo run --release -p bil-bench --bin round_kernel -- --gate  # CI perf gate
//! cargo run --release -p bil-bench --bin round_kernel -- --out target/x.json
//! ```
//!
//! `--smoke` runs only the [`GATE_CELLS`] — the n = 2^16 clustered and
//! parallel kernels plus the n = 2^12 worker transport over both
//! carriers (threaded and socket) — prints their figures,
//! and exits non-zero if a run misbehaves; CI wraps it in a `timeout`
//! so an accidental O(n log n) regression in the hot path turns the
//! perf-smoke step red instead of silently landing.
//!
//! `--gate` additionally compares each measured ns/ball-round against
//! the committed `BENCH_round_kernel.json` row for the same cell and
//! fails beyond a generous [`GATE_TOLERANCE`]× — wide enough to absorb
//! shared-runner noise, tight enough that an accidental return to the
//! per-round map-building regime (a ≥5× swing in PR 7's measurements)
//! or to per-ball re-encoded channel delivery (a ≥75× swing in the
//! batched-transport measurements) cannot land green.

use std::path::PathBuf;
use std::process::ExitCode;

use bil_bench::report::{self, Report};
use bil_harness::Executor;

/// Rounds each measured run drives (matches `executor_scaling`).
const ROUNDS: u64 = 4;

/// The smoke/gate cells. Clustered at n = 2^16 (the ≥2× acceptance
/// point of the SoA refactor) guards the in-memory round kernel, and
/// parallel at n = 2^16 the chunked compose and apply of the same
/// cluster store; threaded and socket at n = 2^12 guard the
/// range-batched worker transport over each carrier — the cell where
/// the old per-ball `Deliver` re-encoding was three orders of magnitude
/// off the in-memory figure.
const GATE_CELLS: &[(usize, Executor)] = &[
    (1 << 16, Executor::Clustered),
    (1 << 16, Executor::Parallel),
    (1 << 12, Executor::Threaded),
    (1 << 12, Executor::Socket),
];

/// How many × slower than the committed snapshot the gated cell may
/// measure before `--gate` fails.
const GATE_TOLERANCE: f64 = 2.5;

fn main() -> ExitCode {
    let mut out = report::default_path();
    let mut smoke = false;
    let mut gate = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--gate" => {
                smoke = true;
                gate = true;
            }
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
        let baseline = Report::load(&out);
        for &(n, executor) in GATE_CELLS {
            let row = report::measure("round_kernel", n, executor, ROUNDS);
            println!(
                "round_kernel smoke: n={} {}: {:.1} rounds/sec, {:.1} ns/ball-round",
                row.n, row.executor, row.rounds_per_sec, row.ns_per_ball_round
            );
            // A real regression shows up as the surrounding CI `timeout`
            // expiring; a zero/NaN figure means the measurement itself
            // broke.
            if !row.rounds_per_sec.is_finite() || row.rounds_per_sec <= 0.0 {
                return ExitCode::FAILURE;
            }
            if !gate {
                continue;
            }
            let committed = baseline
                .rows()
                .iter()
                .find(|r| r.bench == row.bench && r.n == row.n && r.executor == row.executor);
            match committed {
                None => {
                    // A missing row means the snapshot predates this
                    // cell; warn rather than block unrelated PRs.
                    println!(
                        "round_kernel gate: no committed row for n={} {} in {}; skipping comparison",
                        row.n,
                        row.executor,
                        out.display()
                    );
                }
                Some(committed) => {
                    let limit = committed.ns_per_ball_round * GATE_TOLERANCE;
                    println!(
                        "round_kernel gate: {} n={}: {:.1} ns/ball-round measured vs {:.1} committed (limit {:.1} = {GATE_TOLERANCE}x)",
                        row.executor, row.n, row.ns_per_ball_round, committed.ns_per_ball_round, limit
                    );
                    if row.ns_per_ball_round > limit {
                        eprintln!(
                            "round_kernel gate: FAIL — regression beyond {GATE_TOLERANCE}x; if intentional, re-run the full grid and commit the new {}",
                            out.display()
                        );
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        return ExitCode::SUCCESS;
    }

    // The grid: the unbounded executors scale to n = 2^20; the bounded
    // ones are measured at their feasible sizes. Both wire executors
    // now run range-batched workers, so threaded covers the same sizes
    // as socket; per-process is the clustered store with re-merge off,
    // which failure-free holds one shared view just as clustered does,
    // so one size pins it and its larger sizes are left to
    // `executor_scaling`.
    let grid: &[(Executor, &[usize])] = &[
        (Executor::Clustered, &[1 << 12, 1 << 16, 1 << 20]),
        (Executor::Parallel, &[1 << 12, 1 << 16, 1 << 20]),
        (Executor::PerProcess, &[1 << 12]),
        (Executor::Threaded, &[1 << 12, 1 << 14, 1 << 16]),
        (Executor::Socket, &[1 << 12, 1 << 14, 1 << 16]),
    ];

    let mut report = Report::load(&out);
    for (executor, sizes) in grid {
        for &n in *sizes {
            if executor.max_n().is_some_and(|cap| n > cap) {
                println!("skip {executor} at n={n}: exceeds its cap");
                continue;
            }
            let row = report::measure("round_kernel", n, *executor, ROUNDS);
            println!(
                "n={:>7} {:>11}: {:>8.1} rounds/sec, {:>8.1} ns/ball-round",
                row.n, row.executor, row.rounds_per_sec, row.ns_per_ball_round
            );
            report.upsert(row);
        }
    }
    match report.save(&out) {
        Ok(()) => {
            println!("wrote {}", out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}
