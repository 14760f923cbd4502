//! `paper-eval` — regenerate the paper's evaluation.
//!
//! ```text
//! paper-eval [--quick] [--executor {clustered|per-process|threaded|parallel|socket}]
//!            [all | e1 | e2 | e3 | e4 | e5 | e6 | e7 | e8 |
//!             fig12 | fig4 | e11 | e12 | e13 | e14 | e15]...
//! ```
//!
//! With no experiment ids, runs everything. `--quick` shrinks sizes and
//! seed counts (CI/debug builds); the committed `EXPERIMENTS.md` comes
//! from a full `--release` run. `--executor` selects which of the five
//! bit-identical executors carries the rounds (default: `clustered`, the
//! fast one; `socket` runs every round over loopback TCP and caps sizes
//! at `2^16`). Unknown flags are rejected rather than being mistaken for
//! experiment ids. The ids are `bil_harness::experiments::ALL`'s.

use std::process::ExitCode;

use bil_harness::experiments::{self, EvalOpts};
use bil_harness::Executor;

fn usage() -> String {
    let ids: Vec<&str> = experiments::ALL.iter().map(|(id, _)| *id).collect();
    format!(
        "usage: paper-eval [--quick] [--executor {{clustered|per-process|threaded|parallel|socket}}]\n\
         \x20                 [all|{}]...",
        ids.join("|")
    )
}

fn parse_executor(name: &str) -> Result<Executor, ExitCode> {
    Executor::parse(name).ok_or_else(|| {
        eprintln!("unknown executor `{name}`\n{}", usage());
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let mut quick = false;
    let mut executor = Executor::default();
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            "--executor" => {
                let Some(name) = args.next() else {
                    eprintln!("--executor needs a value\n{}", usage());
                    return ExitCode::FAILURE;
                };
                executor = match parse_executor(&name) {
                    Ok(e) => e,
                    Err(code) => return code,
                };
            }
            flag if flag.starts_with("--executor=") => {
                executor = match parse_executor(&flag["--executor=".len()..]) {
                    Ok(e) => e,
                    Err(code) => return code,
                };
            }
            // A leading dash can only be a flag; refuse to treat it as an
            // experiment id (`--quik e1` must fail loudly, not silently).
            flag if flag.starts_with('-') => {
                eprintln!("unknown flag `{flag}`\n{}", usage());
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        ids.push("all".to_string());
    }
    let opts = EvalOpts { quick, executor };

    let mut runs: Vec<experiments::Run> = Vec::new();
    for id in &ids {
        if id == "all" {
            runs.push(experiments::run_all);
        } else if let Some((_, run)) = experiments::ALL.iter().find(|(known, _)| known == id) {
            runs.push(*run);
        } else {
            eprintln!("unknown experiment id `{id}`\n{}", usage());
            return ExitCode::FAILURE;
        }
    }
    let mut out = String::new();
    for run in runs {
        out.push_str(&run(&opts));
        out.push('\n');
    }
    print!("{out}");
    ExitCode::SUCCESS
}
