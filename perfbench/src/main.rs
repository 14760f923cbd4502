//! `benchmark`: the one-command end-to-end benchmark.
//!
//! ```sh
//! # one workload in this process (last line: the result JSON)
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload oneshot-ff-2p15 --seed 7 --seconds 15 --trace 0
//! # every workload, each in its own child process, with a summary table
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --out runs.jsonl
//! # the per-layer split of every workload
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --trace 1
//! # tiny sizes, a few seconds in all
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! # two sets of runs, metric by metric against the bounds in BENCHMARK.json
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare a.jsonl b.jsonl
//! ```
//!
//! Exits non-zero when an output check fails, a child fails, or
//! `--compare` finds a metric worse than its bound.

use std::fs::{self, OpenOptions};
use std::io::Write as _;
use std::process::{Command, ExitCode};

use bil_perfbench::report::{self, Json, Provenance};
use bil_perfbench::workload::{self, RunConfig, WORKLOADS};

/// The default workload seed (the paper's year).
const DEFAULT_SEED: u64 = 2014;

/// The default measured seconds per run, and under `--smoke`.
const DEFAULT_SECONDS: f64 = 15.0;
const SMOKE_SECONDS: f64 = 0.3;

const USAGE: &str = "usage: benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out FILE]
       benchmark --compare A.jsonl B.jsonl";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    out: Option<String>,
    compare: Option<(String, String)>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = Some(
                    value("a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out = Some(value("a file")?),
            "--compare" => {
                let a = value("two files")?;
                args.compare = Some((a, value("two files")?));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare(a, b);
    }
    let cfg = RunConfig {
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace: args.trace,
        smoke: args.smoke,
    };
    match args.workload.as_deref() {
        None | Some("all") => run_all(&cfg, args.out.as_deref()),
        Some(name) => run_one(name, &cfg, args.out.as_deref()),
    }
}

/// Runs one workload in this process and prints its result line last.
fn run_one(name: &str, cfg: &RunConfig, out: Option<&str>) -> ExitCode {
    let Some(w) = workload::find(name) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "benchmark: unknown workload {name}; one of {}",
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let outcome = workload::run(w, cfg);
    let provenance = Provenance::collect();
    println!(
        "# {} seed={} seconds={} trace={} smoke={}: {}",
        w.name,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke,
        w.why
    );
    println!(
        "# host_cores={} cpu_model={:?} rustc={:?} git_rev={} outputs_digest={}",
        provenance.host_cores,
        provenance.cpu_model,
        provenance.rustc,
        provenance.git_rev,
        outcome.digest.hex()
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    for m in &outcome.metrics {
        println!("# {:<38} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for e in &outcome.errors {
        eprintln!("benchmark: {}: {e}", w.name);
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("benchmark: {}: metric {} was not measured", w.name, m.name);
        return ExitCode::FAILURE;
    }
    if let Some(path) = out {
        let line = report::record_line(w.name, cfg, &provenance, &outcome);
        let written = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{line}"));
        if let Err(e) = written {
            eprintln!("benchmark: cannot append to {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report::result_line(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, each in a child process of its own (so peak RSS
/// and caches are per workload), then prints one table of all metrics.
fn run_all(cfg: &RunConfig, out: Option<&str>) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut rows: Vec<(&str, Json)> = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name])
            .args(["--seed", &cfg.seed.to_string()])
            .args(["--seconds", &cfg.seconds.to_string()])
            .args(["--trace", if cfg.trace { "1" } else { "0" }]);
        if cfg.smoke {
            cmd.arg("--smoke");
        }
        if let Some(path) = out {
            cmd.args(["--out", path]);
        }
        let child = match cmd.output() {
            Ok(child) => child,
            Err(e) => {
                eprintln!("benchmark: cannot run {}: {e}", w.name);
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&child.stdout);
        print!("{stdout}");
        eprint!("{}", String::from_utf8_lossy(&child.stderr));
        ok &= child.status.success();
        match stdout.lines().last().map(Json::parse) {
            Some(Ok(result)) => rows.push((w.name, result)),
            _ => {
                eprintln!("benchmark: {} printed no result", w.name);
                ok = false;
            }
        }
    }
    println!();
    for (name, result) in &rows {
        let correct = result.get("correct") == Some(&Json::Bool(true));
        println!("{name}: correct={correct}");
        for (metric, m) in result.get("metrics").map(Json::fields).unwrap_or(&[]) {
            println!(
                "  {:<38} {:>16.4} {}",
                metric,
                m.get("value").and_then(Json::num).unwrap_or(f64::NAN),
                m.get("unit").and_then(Json::str).unwrap_or("")
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Compares two result files against the bounds in the repository's
/// `BENCHMARK.json`.
fn compare(a: &str, b: &str) -> ExitCode {
    let read = |path: &str| fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let bench_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let result = read(a)
        .and_then(|a| Ok((a, read(b)?, read(bench_path)?)))
        .and_then(|(a, b, bench)| report::compare(&a, &b, &bench));
    match result {
        Ok((text, within)) => {
            print!("{text}");
            if within {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
