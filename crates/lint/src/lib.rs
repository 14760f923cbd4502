//! `bil-lint`: the workspace invariant checker.
//!
//! The repository's two core guarantees — the bit-identical `RunReport`
//! across all executors, and the explicit drop-and-count handling of
//! corrupt wire input — are properties no unit test can pin once and for
//! all: they regress one `HashMap`, one `debug_assert!(false, ..)`, one
//! `unwrap()` at a time. This crate walks every `.rs` file in the
//! workspace with a lightweight stripping lexer ([`lexer`]) and enforces
//! the project invariants as deny-by-default rules ([`rules`]) with
//! `file:line` diagnostics and a non-zero exit.
//!
//! Run it with `cargo run -p bil-lint`; CI runs it alongside
//! fmt/clippy. Suppress a single finding with
//! `// bil-lint: allow(<rule>): <justification>` on (or directly above)
//! the offending line — unused pragmas are themselves reported, so
//! exemptions cannot outlive the code they excuse.

#![forbid(unsafe_code)]

pub mod graph;
mod items;
pub mod lexer;
pub mod rules;
pub mod schema;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub use rules::{lint_sources, lint_sources_with_lockfile, Finding};

/// Directory names never descended into: build output, VCS metadata.
const SKIP_DIRS: &[&str] = &["target", ".git", "node_modules"];

/// The result of linting a workspace tree.
#[derive(Debug)]
pub struct LintReport {
    /// All findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// How many `.rs` files were checked.
    pub files_checked: usize,
}

/// Collects every `.rs` file under `root` (skipping build output and VCS
/// directories) as `(workspace-relative path, contents)`, sorted by path
/// so the lint output is deterministic.
///
/// # Errors
///
/// Propagates filesystem errors from the walk or the reads.
pub fn collect_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let mut stack: Vec<PathBuf> = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                let content = fs::read_to_string(&path)?;
                files.push((rel, content));
            }
        }
    }
    files.sort();
    Ok(files)
}

/// Lints the workspace tree rooted at `root`.
///
/// # Errors
///
/// Propagates filesystem errors; lint findings are *not* errors — they
/// are returned in the report.
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let files = collect_sources(root)?;
    let files_checked = files.len();
    let lockfile = fs::read_to_string(root.join(schema::LOCKFILE)).ok();
    Ok(LintReport {
        findings: lint_sources_with_lockfile(&files, lockfile.as_deref()),
        files_checked,
    })
}

/// Regenerates the canonical wire schema from the tree rooted at `root`.
/// Returns `None` when the tree has no wire layer.
///
/// # Errors
///
/// Propagates filesystem errors from the source walk.
pub fn emit_schema(root: &Path) -> io::Result<Option<String>> {
    let files = collect_sources(root)?;
    let mut stripped: BTreeMap<&str, lexer::Stripped> = BTreeMap::new();
    for (path, content) in &files {
        stripped.insert(path.as_str(), lexer::strip(content));
    }
    Ok(schema::extract(&stripped))
}

/// Walks upward from `start` to the first directory that looks like the
/// workspace root (has both `Cargo.toml` and a `crates/` directory).
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
