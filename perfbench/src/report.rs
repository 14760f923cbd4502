//! Result lines, result files, provenance, and `--compare`.
//!
//! The last line a run prints is the result object
//! `{"correct", "attempted", "failed", "metrics"}`. `--out FILE` also
//! appends one JSON object per run to `FILE` (JSON lines) with the same
//! fields plus the workload, seed, provenance and outputs digest; two
//! such files are what `--compare` reads.

use std::fmt::Write as _;
use std::fs;
use std::process::Command;

use crate::stats::quartiles;
use crate::workload::{Metric, Outcome, RunConfig};

/// A parsed JSON value: enough of JSON for `BENCHMARK.json` and the
/// result files this program writes.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, keys in file order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document.
    ///
    /// # Errors
    ///
    /// A message naming the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing characters at byte {}", p.i));
        }
        Ok(v)
    }

    /// The value under `key`, if this is an object that has it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// This value as a string.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value's elements, if it is an array.
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    /// This value's fields, if it is an object.
    pub fn fields(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(fields) => fields,
            _ => &[],
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.i))
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.ws();
        if self.s.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.i) {
            Some(b'{') => {
                self.i += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b'}') {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b'}') => {
                            self.i += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return self.err("expected ',' or '}'"),
                    }
                }
            }
            Some(b'[') => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s.get(self.i) == Some(&b']') {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.s.get(self.i) {
                        Some(b',') => self.i += 1,
                        Some(b']') => {
                            self.i += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return self.err("expected ',' or ']'"),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(_) => self.number(),
            None => self.err("unexpected end"),
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(w.as_bytes()) {
            self.i += w.len();
            Ok(v)
        } else {
            self.err("unknown literal")
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.s.len()
            && matches!(
                self.s[self.i],
                b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse().ok())
            .map(Json::Num)
            .map_or_else(|| self.err("bad number"), Ok)
    }

    fn string(&mut self) -> Result<String, String> {
        if self.s.get(self.i) != Some(&b'"') {
            return self.err("expected a string");
        }
        self.i += 1;
        let mut out = Vec::new();
        loop {
            match self.s.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.s.get(self.i + 1).copied();
                    self.i += 2;
                    match esc {
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        Some(b'u') => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                                16,
                            )
                            .map_err(|e| e.to_string())?;
                            self.i += 4;
                            let c = char::from_u32(code).unwrap_or('\u{fffd}');
                            out.extend_from_slice(c.to_string().as_bytes());
                        }
                        Some(c) => out.push(c),
                        None => return self.err("unterminated escape"),
                    }
                }
                Some(&c) => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `"metrics"` object: every value with all its digits.
fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                m.value,
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The result line: the last line of a run's standard output.
pub fn result_line(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    )
}

/// Where and with what a result was produced.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `std::thread::available_parallelism`.
    pub host_cores: usize,
    /// The CPU model from `/proc/cpuinfo`, or `unknown`.
    pub cpu_model: String,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD` in the working directory, or `unknown`.
    pub git_rev: String,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    let line = text.lines().next()?.trim().to_string();
    (out.status.success() && !line.is_empty()).then_some(line)
}

impl Provenance {
    /// Collects the provenance of this process.
    pub fn collect() -> Provenance {
        let cpu_model = fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Provenance {
            host_cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
            git_rev: command_line("git", &["rev-parse", "HEAD"])
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"host_cores\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_rev\": {}}}",
            self.host_cores,
            quote(&self.cpu_model),
            quote(&self.rustc),
            quote(&self.git_rev)
        )
    }
}

/// One run as a result-file record.
pub fn record_line(
    workload: &str,
    cfg: &RunConfig,
    provenance: &Provenance,
    outcome: &Outcome,
) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"provenance\": {}, \"outputs_digest\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        quote(workload),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        cfg.smoke,
        provenance.json(),
        quote(&outcome.digest.hex()),
        outcome.correct(),
        outcome.attempted,
        outcome.failed,
        metrics_json(&outcome.metrics)
    )
}

/// A metric's regression rule from `BENCHMARK.json`.
#[derive(Debug, Clone)]
struct Rule {
    better_lower: bool,
    bound: Option<f64>,
}

fn rules(benchmark: &Json) -> Vec<(String, Rule)> {
    let mut out = Vec::new();
    for section in ["end_to_end", "per_layer"] {
        for m in benchmark.get(section).map(Json::items).unwrap_or(&[]) {
            if let Some(name) = m.get("name").and_then(Json::str) {
                out.push((
                    name.to_string(),
                    Rule {
                        better_lower: m.get("better").and_then(Json::str) == Some("lower"),
                        bound: m.get("bound").and_then(Json::num),
                    },
                ));
            }
        }
    }
    out
}

/// One metric's values across the runs of a result file.
struct Series {
    workload: String,
    trace: bool,
    name: String,
    unit: String,
    values: Vec<f64>,
}

/// Every `(workload, trace, metric)` series of a result file, in
/// first-seen order.
fn series(text: &str) -> Result<Vec<Series>, String> {
    let mut out: Vec<Series> = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = record.get("workload").and_then(Json::str).unwrap_or("?");
        let trace = record.get("trace").and_then(Json::num) == Some(1.0);
        for (name, m) in record.get("metrics").map(Json::fields).unwrap_or(&[]) {
            let Some(v) = m.get("value").and_then(Json::num) else {
                continue;
            };
            let found = out
                .iter_mut()
                .find(|s| s.workload == workload && s.trace == trace && s.name == *name);
            match found {
                Some(s) => s.values.push(v),
                None => out.push(Series {
                    workload: workload.to_string(),
                    trace,
                    name: name.clone(),
                    unit: m.get("unit").and_then(Json::str).unwrap_or("").to_string(),
                    values: vec![v],
                }),
            }
        }
    }
    Ok(out)
}

/// Compares two result files metric by metric: each side's median and
/// quartiles, and whether the second side's median is worse than the
/// first's by more than the metric's `BENCHMARK.json` bound. Returns the
/// report and whether every bounded metric stayed within its bound.
///
/// # Errors
///
/// Unparseable inputs.
pub fn compare(a: &str, b: &str, benchmark: &str) -> Result<(String, bool), String> {
    let rules = rules(&Json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?);
    let (a, b) = (series(a)?, series(b)?);
    let mut out = String::new();
    let mut ok = true;
    let _ = writeln!(
        out,
        "{:<22} {:<38} {:>8}  {:>34}  {:>34}  {:>8}  verdict",
        "workload",
        "metric",
        "unit",
        "A median [q1, q3] (runs)",
        "B median [q1, q3] (runs)",
        "B vs A"
    );
    for sa in &a {
        let Some(sb) = b
            .iter()
            .find(|s| s.workload == sa.workload && s.trace == sa.trace && s.name == sa.name)
        else {
            continue;
        };
        let (Some(qa), Some(qb)) = (quartiles(&sa.values), quartiles(&sb.values)) else {
            continue;
        };
        let change = if qa[1] == 0.0 {
            0.0
        } else {
            qb[1] / qa[1] - 1.0
        };
        let verdict = match rules.iter().find(|(n, _)| *n == sa.name).map(|(_, r)| r) {
            Some(Rule {
                better_lower,
                bound: Some(bound),
            }) => {
                let worse = if *better_lower { change } else { -change };
                if worse > *bound {
                    ok = false;
                    format!("WORSE beyond bound {bound}")
                } else {
                    format!("within bound {bound}")
                }
            }
            _ => "no bound".to_string(),
        };
        let side = |q: [f64; 3], n: usize| format!("{:.4} [{:.4}, {:.4}] ({n})", q[1], q[0], q[2]);
        let _ = writeln!(
            out,
            "{:<22} {:<38} {:>8}  {:>34}  {:>34}  {:>+7.2}%  {verdict}",
            sa.workload,
            sa.name,
            sa.unit,
            side(qa, sa.values.len()),
            side(qb, sb.values.len()),
            change * 100.0,
        );
    }
    Ok((out, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trips_the_result_shapes() {
        let v =
            Json::parse(r#"{"a": [1, 2.5e3, -0.25], "b": {"c": "x\"y"}, "d": true, "e": null}"#)
                .expect("valid JSON");
        assert_eq!(v.get("a").map(Json::items).map(<[Json]>::len), Some(3));
        assert_eq!(v.get("a").map(|a| a.items()[1].num()), Some(Some(2500.0)));
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")).and_then(Json::str),
            Some("x\"y")
        );
        assert_eq!(v.get("d"), Some(&Json::Bool(true)));
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1] x").is_err());
        assert_eq!(
            Json::parse(&quote("tab\there")).ok(),
            Some(Json::Str("tab\there".into()))
        );
    }

    #[test]
    fn compare_flags_only_regressions_beyond_the_bound() {
        let bench = r#"{"end_to_end": [
            {"name": "lat", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "tput", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#;
        let line = |lat: f64, tput: f64| {
            format!(
                "{{\"workload\": \"w\", \"trace\": 0, \"metrics\": {{\"lat\": {{\"value\": {lat}, \"unit\": \"ms\"}}, \"tput\": {{\"value\": {tput}, \"unit\": \"1/s\"}}}}}}\n"
            )
        };
        let a: String = [line(10.0, 100.0), line(10.2, 101.0), line(9.8, 99.0)].concat();
        let same: String = [line(10.1, 100.0), line(10.3, 98.0), line(9.9, 101.0)].concat();
        let slower: String = [line(12.0, 100.0), line(12.5, 100.0), line(11.9, 100.0)].concat();
        let lower_tput: String = [line(10.0, 80.0), line(10.0, 85.0), line(10.0, 82.0)].concat();
        assert!(compare(&a, &same, bench).expect("parses").1);
        let (text, ok) = compare(&a, &slower, bench).expect("parses");
        assert!(!ok, "{text}");
        assert!(text.contains("WORSE"), "{text}");
        assert!(!compare(&a, &lower_tput, bench).expect("parses").1);
        // Faster is never a regression.
        assert!(compare(&slower, &a, bench).expect("parses").1);
    }
}
