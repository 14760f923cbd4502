//! Machine-readable benchmark results: `BENCH_round_kernel.json`.
//!
//! The vendored criterion shim prints human-readable medians but keeps
//! no history, so per-round throughput was previously only recorded by
//! hand in EXPERIMENTS.md. This module gives the `round_kernel` binary a
//! durable sink: a flat JSON file at the repo root, upserted row by row
//! so the perf trajectory survives across PRs.
//!
//! Schema (`bil-round-kernel/v1`): a top-level object with a `schema`
//! string and a `rows` array of flat objects, one per measured cell,
//! keyed by `(bench, n, executor)`:
//!
//! ```json
//! {
//!   "schema": "bil-round-kernel/v1",
//!   "rows": [
//!     { "bench": "round_kernel", "n": 65536, "executor": "clustered",
//!       "rounds": 4, "iters": 3, "rounds_per_sec": 210.5,
//!       "ns_per_ball_round": 72.4 }
//!   ]
//! }
//! ```
//!
//! The parser accepts exactly this shape (flat string/number fields,
//! no nesting) — it reads back only what [`Report::save`] writes, and
//! an unreadable or foreign file is treated as empty rather than
//! aborting a bench run.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

use bil_harness::{Algorithm, Executor, Scenario};

/// The schema tag written to (and required of) the JSON file.
pub const SCHEMA: &str = "bil-round-kernel/v1";

/// The checked-in location of the results file, resolved from this
/// crate's manifest so benches (cwd = crate root) and the binary
/// (cwd = invocation dir) write the same repo-root file.
pub fn default_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_round_kernel.json")
}

/// The minimum timed iterations per cell, regardless of how slow one
/// run is. Two is not a sample: the large-`n` cells blow past the
/// one-second budget on their first run, and a lone pair of runs lets
/// one scheduler hiccup move a committed number by tens of percent.
/// Five keeps the worst cell (minutes, not hours) honest.
pub const MIN_ITERS: u64 = 5;

/// Times failure-free base-protocol runs of `rounds` rounds at
/// `(n, executor)` until at least one second has elapsed (min.
/// [`MIN_ITERS`] iterations after one warm-up), and reports the figures
/// of the **fastest** timed iteration, tagged with `bench`. The fastest
/// run is the one least disturbed by the machine's other tenants — the
/// code cannot run faster than it is able to, so the minimum is the
/// noise-robust estimate of a cell's true cost, where a mean moves by
/// tens of percent whenever one iteration absorbs an interference
/// burst.
pub fn measure(bench: &str, n: usize, executor: Executor, rounds: u64) -> Row {
    let scenario = Scenario::failure_free(Algorithm::BilBase, n)
        .on_executor(executor)
        .with_max_rounds(rounds);
    let run = |seed: u64| {
        let report = scenario.run(seed).expect("bench scenario is valid");
        assert_eq!(report.rounds, rounds, "round cap drives every run");
    };
    run(0); // warm-up: page in views, spawn pools
    let started = Instant::now();
    let mut iters = 0u64;
    let mut best = f64::INFINITY;
    while iters < MIN_ITERS || started.elapsed().as_secs_f64() < 1.0 {
        let timer = Instant::now();
        run(iters);
        best = best.min(timer.elapsed().as_secs_f64());
        iters += 1;
    }
    Row {
        bench: bench.into(),
        n,
        executor: executor.to_string(),
        rounds,
        iters,
        rounds_per_sec: rounds as f64 / best,
        ns_per_ball_round: best * 1e9 / (rounds as f64 * n as f64),
    }
}

/// One measured cell: per-round throughput of one executor at one size.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Which bench produced the row (`round_kernel`).
    pub bench: String,
    /// System size (balls = target names).
    pub n: usize,
    /// Executor name as printed by the harness (`clustered`, …).
    pub executor: String,
    /// Rounds driven per measured run (the round cap).
    pub rounds: u64,
    /// Timed runs the fastest iteration was drawn from.
    pub iters: u64,
    /// Protocol rounds completed per wall-clock second (fastest run).
    pub rounds_per_sec: f64,
    /// Nanoseconds of wall-clock per ball per round (fastest run).
    pub ns_per_ball_round: f64,
}

/// An upsertable collection of [`Row`]s backed by one JSON file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    rows: Vec<Row>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Report {
        Report::default()
    }

    /// Loads `path`, returning an empty report if the file is missing,
    /// unreadable, or not a `bil-round-kernel/v1` document (bench runs
    /// must never die on a stale results file).
    pub fn load(path: &Path) -> Report {
        let Ok(text) = fs::read_to_string(path) else {
            return Report::new();
        };
        parse(&text).unwrap_or_default()
    }

    /// The rows, sorted by `(bench, n, executor)`.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Inserts `row`, replacing any existing row with the same
    /// `(bench, n, executor)` key.
    pub fn upsert(&mut self, row: Row) {
        if let Some(existing) = self
            .rows
            .iter_mut()
            .find(|r| r.bench == row.bench && r.n == row.n && r.executor == row.executor)
        {
            *existing = row;
        } else {
            self.rows.push(row);
        }
        self.rows
            .sort_by(|a, b| (&a.bench, a.n, &a.executor).cmp(&(&b.bench, b.n, &b.executor)));
    }

    /// Serializes to the v1 schema.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"schema\": \"");
        out.push_str(SCHEMA);
        out.push_str("\",\n  \"rows\": [\n");
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                out,
                "    {{ \"bench\": \"{}\", \"n\": {}, \"executor\": \"{}\", \
                 \"rounds\": {}, \"iters\": {}, \"rounds_per_sec\": {:.1}, \
                 \"ns_per_ball_round\": {:.1} }}",
                r.bench, r.n, r.executor, r.rounds, r.iters, r.rounds_per_sec, r.ns_per_ball_round
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the report to `path` (atomically enough for a bench: a
    /// plain whole-file write).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_json())
    }
}

/// Parses a v1 document. `None` for anything that is not one.
fn parse(text: &str) -> Option<Report> {
    if !text.contains(SCHEMA) {
        return None;
    }
    let rows_start = text.find("\"rows\"")?;
    let body = &text[rows_start..];
    let open = body.find('[')?;
    let close = body.rfind(']')?;
    let array = &body[open + 1..close];
    let mut report = Report::new();
    let mut rest = array;
    while let Some(obj_open) = rest.find('{') {
        let obj_close = rest[obj_open..].find('}')? + obj_open;
        let obj = &rest[obj_open + 1..obj_close];
        report.upsert(parse_row(obj)?);
        rest = &rest[obj_close + 1..];
    }
    Some(report)
}

/// Parses one flat `key: value` object body.
fn parse_row(obj: &str) -> Option<Row> {
    let mut bench = None;
    let mut n = None;
    let mut executor = None;
    let mut rounds = None;
    let mut iters = None;
    let mut rounds_per_sec = None;
    let mut ns_per_ball_round = None;
    for field in split_fields(obj) {
        let (key, value) = field.split_once(':')?;
        let key = key.trim().trim_matches('"');
        let value = value.trim();
        match key {
            "bench" => bench = Some(value.trim_matches('"').to_string()),
            "executor" => executor = Some(value.trim_matches('"').to_string()),
            "n" => n = value.parse::<usize>().ok(),
            "rounds" => rounds = value.parse::<u64>().ok(),
            "iters" => iters = value.parse::<u64>().ok(),
            "rounds_per_sec" => rounds_per_sec = value.parse::<f64>().ok(),
            "ns_per_ball_round" => ns_per_ball_round = value.parse::<f64>().ok(),
            _ => return None,
        }
    }
    Some(Row {
        bench: bench?,
        n: n?,
        executor: executor?,
        rounds: rounds?,
        iters: iters?,
        rounds_per_sec: rounds_per_sec?,
        ns_per_ball_round: ns_per_ball_round?,
    })
}

/// Splits a flat object body on commas. Field values are bare numbers
/// or simple quoted names (no embedded commas), so a plain split is
/// exact for everything [`Report::save`] emits.
fn split_fields(obj: &str) -> impl Iterator<Item = &str> {
    obj.split(',').map(str::trim).filter(|s| !s.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(bench: &str, n: usize, executor: &str, thru: f64) -> Row {
        Row {
            bench: bench.into(),
            n,
            executor: executor.into(),
            rounds: 4,
            iters: 3,
            rounds_per_sec: thru,
            ns_per_ball_round: 1e9 / (thru * n as f64),
        }
    }

    #[test]
    fn roundtrips_through_json() {
        let mut r = Report::new();
        r.upsert(row("round_kernel", 65536, "clustered", 200.0));
        r.upsert(row("round_kernel", 4096, "socket", 50.0));
        r.upsert(row("executor_scaling", 65536, "parallel", 150.0));
        // Serialization rounds floats to one decimal, so roundtripping
        // is exact from the first written form onward.
        let parsed = parse(&r.to_json()).unwrap();
        assert_eq!(parsed.rows().len(), r.rows().len());
        assert_eq!(parsed.rows()[2].bench, "round_kernel");
        assert_eq!(parsed.rows()[2].n, 65536);
        assert_eq!(parsed.rows()[2].rounds_per_sec, 200.0);
        assert_eq!(parse(&parsed.to_json()), Some(parsed.clone()));
    }

    #[test]
    fn upsert_replaces_by_key_and_sorts() {
        let mut r = Report::new();
        r.upsert(row("round_kernel", 65536, "clustered", 100.0));
        r.upsert(row("round_kernel", 4096, "clustered", 400.0));
        r.upsert(row("round_kernel", 65536, "clustered", 250.0));
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.rows()[0].n, 4096, "sorted by (bench, n, executor)");
        assert_eq!(r.rows()[1].rounds_per_sec, 250.0, "replaced in place");
    }

    #[test]
    fn foreign_or_corrupt_text_reads_as_empty() {
        assert_eq!(parse("not json at all"), None);
        assert_eq!(
            parse("{\"schema\": \"something-else\", \"rows\": []}"),
            None
        );
        let empty = Report::new();
        assert_eq!(parse(&empty.to_json()), Some(Report::new()));
    }

    #[test]
    fn load_of_missing_file_is_empty() {
        let r = Report::load(Path::new("/nonexistent/definitely/missing.json"));
        assert!(r.rows().is_empty());
    }
}
