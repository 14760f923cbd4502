//! The canonical wire-format schema and its lockfile.
//!
//! PR 5's v1→v2 wire bump showed the failure mode this module fences:
//! an edit to a `BilMsg` payload, a frame bound, or a tag constant
//! changes what peers put on the wire, and nothing forces the author to
//! notice. `bil-lint --emit-schema` renders every wire-visible fact —
//! `WIRE_FORMAT_VERSION`, the frame/codec bounds, the `TAG_*`
//! constants, and each `BilMsg` variant's payload — into a canonical
//! `wire.schema.lock` at the workspace root. The `wire-schema` rule
//! regenerates the schema on every lint run and fails when the
//! committed lockfile differs, so a wire-affecting edit cannot land
//! without an explicit, reviewable lockfile diff carrying the version
//! bump.
//!
//! Extraction is lexical, over stripped sources, and fully
//! deterministic: constants are captured as their normalized
//! initializer text (`1 << 26`), variants as whitespace-normalized
//! payload text, both sorted by name.

use std::collections::BTreeMap;

use crate::items::{braced_members, const_decls};
use crate::lexer::Stripped;

/// Files the schema is extracted from.
pub const WIRE_FILE: &str = "crates/runtime/src/wire.rs";
pub const FRAME_FILE: &str = "crates/runtime/src/frame.rs";
pub const MESSAGES_FILE: &str = "crates/core/src/messages.rs";

/// The lockfile's name at the workspace root.
pub const LOCKFILE: &str = "wire.schema.lock";

/// Renders the canonical schema of the source set, or `None` when the
/// set has no wire layer (no `wire.rs` with a `WIRE_FORMAT_VERSION`),
/// as in fixture trees.
pub fn extract(stripped: &BTreeMap<&str, Stripped>) -> Option<String> {
    let wire = stripped.get(WIRE_FILE)?;
    let version = const_initializer(wire, "WIRE_FORMAT_VERSION")?;
    let mut lines = Vec::new();
    lines.push(format!("wire-format-version = {version}"));
    if let Some(init) = const_initializer(wire, "MAX_SEQ_LEN") {
        lines.push(format!("const wire.MAX_SEQ_LEN = {init}"));
    }
    if let Some(frame) = stripped.get(FRAME_FILE) {
        if let Some(init) = const_initializer(frame, "MAX_FRAME_LEN") {
            lines.push(format!("const frame.MAX_FRAME_LEN = {init}"));
        }
    }
    if let Some(msgs) = stripped.get(MESSAGES_FILE) {
        let mut tags: Vec<String> = tag_consts(msgs)
            .into_iter()
            .map(|(name, init)| format!("tag {name} = {init}"))
            .collect();
        tags.sort();
        lines.extend(tags);
        let mut variants: Vec<String> = enum_variants(msgs, "BilMsg")
            .into_iter()
            .map(|v| format!("msg BilMsg::{} = {}", v.name, v.payload))
            .collect();
        variants.sort();
        lines.extend(variants);
    }
    let mut out = String::new();
    out.push_str(HEADER);
    for line in lines {
        out.push_str(&line);
        out.push('\n');
    }
    Some(out)
}

const HEADER: &str = "\
# wire.schema.lock — canonical wire-format schema of this workspace.
# Generated by `cargo run -p bil-lint -- --emit-schema`; do not edit by
# hand. Any diff to this file is a wire-format change and must ship with
# a WIRE_FORMAT_VERSION bump in crates/runtime/src/wire.rs (DESIGN.md
# \u{a7}7 and \u{a7}10, rule `wire-schema`).
";

/// How a committed lockfile compares to the regenerated schema.
#[derive(Debug, PartialEq, Eq)]
pub enum Drift {
    /// Byte-identical (ignoring `#` comment lines and trailing space).
    Clean,
    /// Content differs but both declare the same wire-format version:
    /// the wire changed without a version bump.
    SameVersion { detail: String },
    /// The versions differ: the lockfile predates a bump and must be
    /// regenerated.
    VersionChanged { committed: String, current: String },
}

/// Compares a committed lockfile against the regenerated schema.
pub fn compare(committed: &str, current: &str) -> Drift {
    let a = canonical_lines(committed);
    let b = canonical_lines(current);
    if a == b {
        return Drift::Clean;
    }
    let va = version_of(&a);
    let vb = version_of(&b);
    match (va, vb) {
        (Some(va), Some(vb)) if va != vb => Drift::VersionChanged {
            committed: va,
            current: vb,
        },
        _ => {
            let detail = first_diff(&a, &b);
            Drift::SameVersion { detail }
        }
    }
}

/// Non-comment, non-blank lines, whitespace-trimmed.
fn canonical_lines(text: &str) -> Vec<String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(str::to_string)
        .collect()
}

fn version_of(lines: &[String]) -> Option<String> {
    lines
        .iter()
        .find_map(|l| l.strip_prefix("wire-format-version = "))
        .map(str::to_string)
}

/// A one-line description of the first difference between line sets.
fn first_diff(committed: &[String], current: &[String]) -> String {
    for line in current {
        if !committed.contains(line) {
            return format!("schema now says `{line}`, lockfile does not");
        }
    }
    for line in committed {
        if !current.contains(line) {
            return format!("lockfile says `{line}`, schema no longer does");
        }
    }
    "line order changed".to_string()
}

/// The normalized initializer text of the first `const NAME: ... =
/// <init>;`.
fn const_initializer(s: &Stripped, name: &str) -> Option<String> {
    const_decls(&s.code)
        .find(|c| c.name == name)
        .map(|c| normalize_ws(c.init))
}

/// All `const TAG_* = <init>` declarations of one file.
fn tag_consts(s: &Stripped) -> Vec<(String, String)> {
    const_decls(&s.code)
        .filter(|c| c.name.starts_with("TAG_"))
        .map(|c| (c.name.to_string(), normalize_ws(c.init)))
        .collect()
}

/// One parsed enum variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    pub name: String,
    /// 1-based declaration line.
    pub line: usize,
    /// Whitespace-normalized variant text including any payload, e.g.
    /// `Pos { node: NodeId, echo: Vec<(Label, NodeId)> }`.
    pub payload: String,
}

/// Parses the top-level variants of `enum <name>` from stripped text.
/// Attributes between variants are skipped; nested braces/parens/angle
/// payloads are captured verbatim (normalized).
pub fn enum_variants(s: &Stripped, enum_name: &str) -> Vec<Variant> {
    braced_members(&s.code, "enum", enum_name)
        .into_iter()
        .map(|m| Variant {
            name: s.code[m.start..m.name_end].to_string(),
            line: s.line_of(m.start),
            payload: normalize_ws(&s.code[m.start..m.end]),
        })
        .collect()
}

/// Collapses all whitespace runs to single spaces and trims.
fn normalize_ws(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;

    fn stripped_map(files: &[(&'static str, &str)]) -> BTreeMap<&'static str, Stripped> {
        files.iter().map(|(p, c)| (*p, strip(c))).collect()
    }

    const WIRE: &str =
        "pub const MAX_SEQ_LEN: u64 = 1 << 26;\npub const WIRE_FORMAT_VERSION: u64 = 2;\n";
    const FRAME: &str = "pub const MAX_FRAME_LEN: u64 = 1 << 28;\n";
    const MSGS: &str = "const TAG_INIT: u8 = 0;\nconst TAG_PATH: u8 = 1;\n\
        pub enum BilMsg {\n    Init,\n    Path(PackedPath),\n\
            Pos { node: NodeId, echo: Vec<(Label, NodeId)> },\n}\n";

    #[test]
    fn extracts_a_full_schema() {
        let m = stripped_map(&[
            (WIRE_FILE, WIRE),
            (FRAME_FILE, FRAME),
            (MESSAGES_FILE, MSGS),
        ]);
        let schema = extract(&m).unwrap();
        assert!(schema.contains("wire-format-version = 2"));
        assert!(schema.contains("const wire.MAX_SEQ_LEN = 1 << 26"));
        assert!(schema.contains("const frame.MAX_FRAME_LEN = 1 << 28"));
        assert!(schema.contains("tag TAG_INIT = 0"));
        assert!(schema.contains("msg BilMsg::Path = Path(PackedPath)"));
        assert!(
            schema.contains("msg BilMsg::Pos = Pos { node: NodeId, echo: Vec<(Label, NodeId)> }")
        );
    }

    #[test]
    fn no_wire_file_means_no_schema() {
        let m = stripped_map(&[(MESSAGES_FILE, MSGS)]);
        assert_eq!(extract(&m), None);
    }

    #[test]
    fn clean_compare_ignores_comments() {
        let m = stripped_map(&[
            (WIRE_FILE, WIRE),
            (FRAME_FILE, FRAME),
            (MESSAGES_FILE, MSGS),
        ]);
        let schema = extract(&m).unwrap();
        let committed = format!("# a different comment\n{}", schema);
        assert_eq!(compare(&committed, &schema), Drift::Clean);
    }

    #[test]
    fn payload_drift_with_same_version_is_flagged() {
        let m = stripped_map(&[
            (WIRE_FILE, WIRE),
            (FRAME_FILE, FRAME),
            (MESSAGES_FILE, MSGS),
        ]);
        let schema = extract(&m).unwrap();
        let drifted = schema.replace("Path(PackedPath)", "Path(Vec<NodeId>)");
        match compare(&drifted, &schema) {
            Drift::SameVersion { detail } => assert!(detail.contains("PackedPath")),
            other => panic!("expected SameVersion, got {other:?}"),
        }
    }

    #[test]
    fn version_bump_without_regen_is_flagged_as_stale() {
        let m = stripped_map(&[
            (WIRE_FILE, WIRE),
            (FRAME_FILE, FRAME),
            (MESSAGES_FILE, MSGS),
        ]);
        let schema = extract(&m).unwrap();
        let old = schema.replace("wire-format-version = 2", "wire-format-version = 1");
        match compare(&old, &schema) {
            Drift::VersionChanged { committed, current } => {
                assert_eq!(committed, "1");
                assert_eq!(current, "2");
            }
            other => panic!("expected VersionChanged, got {other:?}"),
        }
    }
}
