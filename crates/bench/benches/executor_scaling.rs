//! Per-round cost of the five executors at `n = 2^12 … 2^20`,
//! failure-free and under a crash burst.
//!
//! Each iteration runs a fixed, small number of rounds (`max_rounds`), so
//! the numbers compare *per-round executor overhead* — compose plumbing,
//! inbox construction, apply dispatch — rather than full-protocol
//! termination time. Two generations of per-round optimisation show up
//! here. First, the shared-`Arc` `RoundMessages` representation gives all
//! members with the same delivery signature one physical inbox (sorted
//! once per round), removing an `O(n²)` clone+sort term from per-process
//! mode. Second, the SoA round kernel: `LocalTree` keeps resident state
//! as dense columns (sorted label column + parallel node/occupancy/at-list
//! columns), `compose` reads packed paths straight off them, and `apply`
//! joins the sorted inbox against the label column with one linear
//! merge — no `BTreeMap` is built anywhere on the per-round path, so a
//! failure-free round allocates nothing after warm-up.
//!
//! The failure-free grid runs to `n = 2^20` on the unbounded executors;
//! the crash-burst grid stays at `≤ 2^16` (cluster splitting is the
//! point there, not raw size). Executor-specific size caps keep the grid
//! honest about physics rather than silently truncating it:
//!
//! * per-process shares views by delivery history now (it used to hold
//!   `n` distinct `O(n)` views and stop at `2^14`), so its bound is the
//!   `O(n)` per-slot round bookkeeping — it stops at `2^16`;
//! * threaded and socket run the same slot-range workers, which share
//!   one view per delivery history (failure-free: one view per worker),
//!   so their bound is the per-round wire traffic, not view memory —
//!   they stop at `2^16`, and the socket cells measure real
//!   kernel-boundary message passing, frames and all.
//!
//! Skipped cells are printed explicitly.
//!
//! Besides the criterion medians (human-readable, no history), the
//! failure-free grid also upserts machine-readable rows — tagged
//! `bench = "executor_scaling"` — into the repo-root
//! `BENCH_round_kernel.json` via `bil_bench::report`, so this bench and
//! the `round_kernel` binary feed the same durable perf record.

use bil_bench::report::{self, Report};
use bil_harness::{AdversarySpec, Algorithm, Executor, Scenario};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Failure-free sweep; the `2^20` point exercises the unbounded
/// (clustered, parallel) executors only — every capped executor skips it.
const SIZES_FF: [usize; 4] = [1 << 12, 1 << 14, 1 << 16, 1 << 20];

/// Crash-burst sweep: cluster splitting is what this grid stresses, so
/// it stays at the sizes where every splitting regime is reachable.
const SIZES_CRASH: [usize; 3] = [1 << 12, 1 << 14, 1 << 16];

/// The same feasibility caps scenario dispatch enforces
/// ([`Executor::max_n`]); keeping them shared means a cell is skipped
/// (with a printed note) rather than erroring mid-bench.
fn size_cap(executor: Executor) -> usize {
    executor.max_n().unwrap_or(usize::MAX)
}

fn bench_grid(
    c: &mut Criterion,
    group_name: &str,
    sizes: &[usize],
    adversary: AdversarySpec,
    rounds: u64,
) {
    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    for &n in sizes {
        let scenario = Scenario::failure_free(Algorithm::BilBase, n)
            .against(adversary)
            .with_max_rounds(rounds);
        for executor in Executor::ALL {
            if n > size_cap(executor) {
                eprintln!(
                    "{cell:<48} skipped (above {executor}'s size cap {cap})",
                    cell = format!("{group_name}/{executor}/{n}"),
                    cap = size_cap(executor)
                );
                continue;
            }
            let scenario = scenario.clone().on_executor(executor);
            group.bench_with_input(
                BenchmarkId::new(executor.to_string(), n),
                &scenario,
                |b, s| {
                    let mut seed = 0u64;
                    b.iter(|| {
                        seed += 1;
                        let report = s.run(seed).expect("bench scenario is valid");
                        black_box(report.rounds)
                    });
                },
            );
        }
    }
    group.finish();
}

fn bench_failure_free(c: &mut Criterion) {
    bench_grid(
        c,
        "executor_scaling/failure_free",
        &SIZES_FF,
        AdversarySpec::None,
        4,
    );
    record_json_rows(&SIZES_FF, 4);
}

/// Re-times every feasible failure-free cell with the shared `Instant`
/// kernel and upserts the rows into `BENCH_round_kernel.json`. The
/// criterion shim's medians are not recoverable programmatically, so
/// the durable record gets its own (identically-defined) measurement;
/// a write failure only warns — a read-only checkout must not fail the
/// bench run.
fn record_json_rows(sizes: &[usize], rounds: u64) {
    let path = report::default_path();
    let mut json = Report::load(&path);
    for &n in sizes {
        for executor in Executor::ALL {
            if n > size_cap(executor) {
                continue;
            }
            let row = report::measure("executor_scaling", n, executor, rounds);
            eprintln!(
                "json row: n={:>7} {:>11}: {:>8.1} rounds/sec, {:>8.1} ns/ball-round",
                row.n, row.executor, row.rounds_per_sec, row.ns_per_ball_round
            );
            json.upsert(row);
        }
    }
    match json.save(&path) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn bench_crashes(c: &mut Criterion) {
    // A round-1 burst with parity-split partial deliveries: the regime
    // where inboxes diverge and clusters split, i.e. where per-signature
    // inbox sharing is actually stressed.
    bench_grid(
        c,
        "executor_scaling/crash_burst",
        &SIZES_CRASH,
        AdversarySpec::Burst {
            round: 1,
            count: 24,
        },
        4,
    );
}

criterion_group!(benches, bench_failure_free, bench_crashes);
criterion_main!(benches);
