//! The `BENCH_*.json` snapshot files: one reader and one writer for
//! every kind of row.
//!
//! A snapshot is a flat JSON document at the repo root, one row per
//! line, upserted row by row so the perf trajectory survives across PRs:
//!
//! ```json
//! {
//!   "schema": "bil-round-kernel/v1",
//!   "rows": [
//!     { "bench": "round_kernel", "n": 65536, "executor": "clustered", ... }
//!   ]
//! }
//! ```
//!
//! A row type plugs in through [`Row`]: its file, schema tag, field
//! names in file order, key, and conversion to and from JSON values. The
//! reader accepts exactly the texts [`Snapshot::to_json`] writes — the
//! schema matched by value, every field present once and in order,
//! rows sorted by key — and names the first thing it rejects. A
//! snapshot that cannot be read is an error, never an empty snapshot,
//! so a gate cannot pass without comparing anything and a grid run
//! cannot overwrite a file it failed to read.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One row type of one snapshot file.
pub trait Row: Sized {
    /// The file's name at the repo root.
    const FILE: &'static str;
    /// The schema tag written to, and required of, the file.
    const SCHEMA: &'static str;
    /// The field names, in file order.
    const FIELDS: &'static [&'static str];
    /// The measured cell a row describes; a snapshot holds one row per
    /// key, sorted by key.
    type Key: Ord;

    /// This row's key.
    fn key(&self) -> Self::Key;

    /// This row's values as JSON literals, in [`Row::FIELDS`] order:
    /// strings quoted (the writer never escapes) and figures rounded, so
    /// that the written text parses back to this row.
    fn values(&self) -> Vec<String>;

    /// The row whose values, in [`Row::FIELDS`] order and with strings
    /// unquoted, are `values`; `None` if one of them does not parse.
    fn parse(values: &[&str]) -> Option<Self>;
}

/// The rows of one snapshot file, one per key, sorted by key.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot<R> {
    rows: Vec<R>,
}

impl<R> Default for Snapshot<R> {
    fn default() -> Self {
        Snapshot { rows: Vec::new() }
    }
}

/// The document's last two lines.
const FOOTER: &str = "  ]\n}\n";

impl<R: Row> Snapshot<R> {
    /// The document's first three lines.
    fn header() -> String {
        format!("{{\n  \"schema\": \"{}\",\n  \"rows\": [\n", R::SCHEMA)
    }

    /// The committed file, resolved from this crate's manifest so every
    /// caller reads and writes the same repo-root file whatever its
    /// working directory.
    pub fn default_path() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(R::FILE)
    }

    /// Reads `path`. A missing file is an empty snapshot.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of a file that exists but cannot be read,
    /// and [`io::ErrorKind::InvalidData`] naming the first thing that
    /// [`Snapshot::to_json`] would not have written for one that is not
    /// a snapshot of `R`; either message starts with `path`.
    pub fn load(path: &Path) -> io::Result<Self> {
        let located = |kind, e: &dyn std::fmt::Display| {
            io::Error::new(kind, format!("{}: {e}", path.display()))
        };
        match fs::read_to_string(path) {
            Ok(text) => Self::parse(&text).map_err(|e| located(io::ErrorKind::InvalidData, &e)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Self::default()),
            Err(e) => Err(located(e.kind(), &e)),
        }
    }

    /// Parses a document written by [`Snapshot::to_json`], or describes
    /// the first thing the writer would not have written: a foreign
    /// schema or frame, a row with an unknown, missing, repeated or
    /// misplaced field, a value of the wrong kind, rows out of key order,
    /// or any other spelling.
    fn parse(text: &str) -> Result<Self, String> {
        let body = text
            .strip_prefix(&Self::header())
            .and_then(|body| body.strip_suffix(FOOTER))
            .ok_or_else(|| format!("not a `{}` document", R::SCHEMA))?;
        let mut snapshot = Self::default();
        for (i, line) in body.lines().enumerate() {
            let row = parse_row(line.strip_suffix(',').unwrap_or(line))
                .map_err(|e| format!("line {}: {e}", i + 4))?;
            snapshot.upsert(row);
        }
        // Only a text the writer reproduces byte for byte is a snapshot:
        // that rejects rows out of key order or repeated, stray commas,
        // and any other spelling the row parser let through.
        if snapshot.to_json() != text {
            return Err("rows out of key order, repeated, or not spelled as written".into());
        }
        Ok(snapshot)
    }

    /// The rows, sorted by key.
    pub fn rows(&self) -> &[R] {
        &self.rows
    }

    /// Inserts `row`, replacing the row with the same key if there is
    /// one.
    pub fn upsert(&mut self, row: R) {
        match self.rows.binary_search_by_key(&row.key(), R::key) {
            Ok(at) => self.rows[at] = row,
            Err(at) => self.rows.insert(at, row),
        }
    }

    /// The document: one row per line, fields in [`Row::FIELDS`] order.
    pub fn to_json(&self) -> String {
        let mut out = Self::header();
        for (i, row) in self.rows.iter().enumerate() {
            let fields: Vec<String> = R::FIELDS
                .iter()
                .zip(row.values())
                .map(|(name, value)| format!("\"{name}\": {value}"))
                .collect();
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            out.push_str(&format!("    {{ {} }}{comma}\n", fields.join(", ")));
        }
        out.push_str(FOOTER);
        out
    }

    /// Writes the document to `path` (a plain whole-file write).
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        fs::write(path, self.to_json())
    }
}

/// Parses one row line, without its trailing comma.
fn parse_row<R: Row>(line: &str) -> Result<R, String> {
    let inner = line
        .strip_prefix("    { ")
        .and_then(|line| line.strip_suffix(" }"))
        .ok_or_else(|| format!("not a row: `{line}`"))?;
    let mut fields = inner.split(", ");
    let mut values = Vec::with_capacity(R::FIELDS.len());
    for name in R::FIELDS {
        let field = fields.next().unwrap_or_default();
        let value = field
            .strip_prefix(&format!("\"{name}\": "))
            .ok_or_else(|| format!("expected field `{name}`, found `{field}`"))?;
        values.push(
            value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .unwrap_or(value),
        );
    }
    if let Some(extra) = fields.next() {
        return Err(format!("unexpected field `{extra}`"));
    }
    R::parse(&values).ok_or_else(|| format!("a value that does not parse in `{line}`"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelRow, ServiceRow};

    fn kernel(bench: &str, n: usize, executor: &str, thru: f64) -> KernelRow {
        KernelRow {
            bench: bench.into(),
            n,
            executor: executor.into(),
            rounds: 4,
            iters: 3,
            rounds_per_sec: thru,
            ns_per_ball_round: 1e9 / (thru * n as f64),
        }
    }

    /// Reads the committed file of `R` and checks that saving it again
    /// reproduces it byte for byte.
    fn resaves<R: Row>() {
        let path = Snapshot::<R>::default_path();
        let text = fs::read_to_string(&path).expect("committed snapshot");
        let snapshot = Snapshot::<R>::load(&path).expect("committed snapshot parses");
        assert!(!snapshot.rows().is_empty(), "{}", path.display());
        assert_eq!(snapshot.to_json(), text, "{}", path.display());
    }

    #[test]
    fn committed_snapshots_resave_byte_for_byte() {
        resaves::<KernelRow>();
        resaves::<ServiceRow>();
    }

    #[test]
    fn upserts_by_key_and_roundtrips_through_json() {
        let mut k = Snapshot::default();
        k.upsert(kernel("round_kernel", 65536, "clustered", 100.0));
        k.upsert(kernel("round_kernel", 4096, "socket", 400.0));
        k.upsert(kernel("round_kernel", 4096, "clustered", 400.0));
        k.upsert(kernel("round_kernel", 65536, "clustered", 250.0));
        let keys: Vec<_> = k
            .rows()
            .iter()
            .map(|r| (r.n, r.executor.as_str()))
            .collect();
        assert_eq!(
            keys,
            [(4096, "clustered"), (4096, "socket"), (65536, "clustered")]
        );
        assert_eq!(k.rows()[2].rounds_per_sec, 250.0, "replaced in place");
        // Figures are written to one decimal, so the round trip is exact
        // from the first written form onward.
        let parsed = Snapshot::<KernelRow>::parse(&k.to_json()).unwrap();
        assert_eq!(parsed.rows()[2].rounds_per_sec, 250.0);
        assert_eq!(Snapshot::parse(&parsed.to_json()), Ok(parsed));
        let empty = Snapshot::<ServiceRow>::default();
        assert_eq!(Snapshot::parse(&empty.to_json()), Ok(empty));
    }

    #[test]
    fn rejects_anything_it_did_not_write() {
        let doc = |rows: &[&str]| {
            let head = "{\n  \"schema\": \"bil-round-kernel/v1\",\n  \"rows\": [\n";
            format!("{head}    {{ {} }}\n  ]\n}}\n", rows.join(" },\n    { "))
        };
        let good = "\"bench\": \"round_kernel\", \"n\": 4096, \"executor\": \"clustered\", \
                    \"rounds\": 4, \"iters\": 9, \"rounds_per_sec\": 1.5, \"ns_per_ball_round\": 2.5";
        let larger = good.replace("4096", "65536");
        assert!(Snapshot::<KernelRow>::parse(&doc(&[good, &larger])).is_ok());
        let v10 = doc(&[good]).replace("/v1", "/v10");
        let cases = [
            (
                "not json at all".to_string(),
                "not a `bil-round-kernel/v1` document",
            ),
            (v10, "not a `bil-round-kernel/v1` document"),
            (format!("<<<<<<< HEAD\n{}", doc(&[good])), "not a"),
            (format!("{}=======\n", doc(&[good])), "not a"),
            (
                doc(&[&format!("{good}, \"host\": \"x\"")]),
                "line 4: unexpected field `\"host\"",
            ),
            (
                doc(&[&good.replace(", \"iters\": 9", "")]),
                "expected field `iters`",
            ),
            (
                doc(&[good, &format!("{good}, \"n\": 4096")]),
                "line 5: unexpected field `\"n\"",
            ),
            (doc(&[&good.replace("4096", "40.96")]), "does not parse"),
            (
                doc(&[&good.replace("4096", "\"4096\"")]),
                "not spelled as written",
            ),
            (
                doc(&[&good.replace("\"clustered\"", "clustered")]),
                "not spelled as written",
            ),
            (
                doc(&[&good.replace("1.5", "1.50")]),
                "not spelled as written",
            ),
            (doc(&[&larger, good]), "out of key order"),
            (doc(&[good, good]), "repeated"),
        ];
        for (text, expected) in cases {
            let err = Snapshot::<KernelRow>::parse(&text).unwrap_err();
            assert!(
                err.contains(expected),
                "{err:?} lacks {expected:?} for {text:?}"
            );
        }
    }
}
