//! `benchmark --smoke` end to end: every metric `BENCHMARK.json` lists is
//! printed for every workload, finite and with its unit, every output
//! check passes, and `--compare` reads what `--out` writes.

use std::path::PathBuf;
use std::process::Command;

use bil_perfbench::report::Json;
use bil_perfbench::workload::{reported, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the package");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn listed(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .map(Json::items)
        .unwrap_or(&[])
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::str).unwrap_or_default().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn benchmark_json_matches_the_program() {
    let bench = benchmark_json();
    let names: Vec<&str> = bench
        .get("workloads")
        .map(Json::items)
        .unwrap_or(&[])
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::str))
        .collect();
    let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(names, ours);
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let ours: Vec<(String, String)> = reported(trace)
            .into_iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(section), ours, "{section}");
    }
}

#[test]
fn smoke_prints_every_listed_metric_for_every_workload() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke.jsonl");
    let _ = std::fs::remove_file(&out);
    let out_arg = out.to_str().expect("utf-8 temp path");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = listed(section);
        for w in WORKLOADS {
            let (ok, stdout) = run(&[
                "--smoke",
                "--workload",
                w.name,
                "--seed",
                "7",
                "--trace",
                trace,
                "--out",
                out_arg,
            ]);
            let last = stdout.lines().last().unwrap_or_default();
            assert!(ok, "{} trace {trace} failed:\n{stdout}", w.name);
            let result = Json::parse(last).unwrap_or_else(|e| panic!("{}: {e}: {last}", w.name));
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{last}");
            assert!(result.get("attempted").and_then(Json::num) >= Some(1.0));
            assert_eq!(result.get("failed").and_then(Json::num), Some(0.0));
            let printed = result.get("metrics").map(Json::fields).unwrap_or(&[]);
            assert_eq!(printed.len(), metrics.len(), "{}: {last}", w.name);
            for (name, unit) in &metrics {
                let m = result.get("metrics").and_then(|m| m.get(name));
                let value = m.and_then(|m| m.get("value")).and_then(Json::num);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{}: {name} missing or not finite",
                    w.name
                );
                assert_eq!(
                    m.and_then(|m| m.get("unit")).and_then(Json::str),
                    Some(unit.as_str())
                );
            }
        }
    }
    // The same inputs give the same outputs digest.
    let digests: Vec<String> = std::fs::read_to_string(&out)
        .expect("--out wrote records")
        .lines()
        .map(|l| {
            let record = Json::parse(l).expect("records parse");
            record
                .get("outputs_digest")
                .and_then(Json::str)
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    assert_eq!(digests.len(), 2 * WORKLOADS.len());
    let (untraced, traced) = digests.split_at(WORKLOADS.len());
    assert_eq!(
        untraced, traced,
        "traced runs must produce the untraced outputs"
    );

    let (ok, report) = run(&["--compare", out_arg, out_arg]);
    assert!(ok, "{report}");
    assert!(
        report.contains("latency_ms.p10") && report.contains("within bound"),
        "{report}"
    );
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "no-such-workload"][..],
        &["--trace", "2"],
        &["--seconds"],
        &["--frobnicate"],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok, "{args:?} must fail");
        assert!(!stdout.contains("\"correct\""), "{args:?} printed a result");
    }
}
