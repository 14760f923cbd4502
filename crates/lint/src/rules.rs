//! The project invariants, as deny-by-default rules.
//!
//! Each rule pins a bug class a past PR fixed by hand (see the
//! *Enforced invariants* section of `DESIGN.md`):
//!
//! * [`DETERMINISM`] — the bit-identical `RunReport` across executors
//!   cannot survive iteration-order or wall-clock dependence in protocol
//!   code.
//! * [`RELEASE_HONESTY`] — corrupt input must be dropped **and counted**
//!   identically in debug and release; a `debug_assert!(false, ..)` on a
//!   message-handling path compiles out in release and silently absorbs
//!   the corruption (the PR 4 bug class).
//! * [`NO_PANIC`] — wire-facing executors report `bil-runtime`'s
//!   structured `RunError` instead of panicking across threads (the PR 3
//!   bug class).
//! * [`UNSAFE_CODE`] — `unsafe` stays confined to the allowlisted
//!   counting allocators, and every crate root forbids it.
//! * [`WIRE_EXHAUSTIVE`] — every `BilMsg` variant is pinned by a golden
//!   byte fixture, so encodings cannot drift silently (the PR 5 wire
//!   version discipline).
//! * [`CAST_TRUNCATION`] — decode paths never narrow attacker-controlled
//!   integers with a bare `as` cast; they use `try_from` (or carry an
//!   explicit pragma) so hostile lengths fail loudly.
//!
//! On top of the file-local rules, three **transitive** rules walk the
//! approximate workspace call graph ([`crate::graph`]) from fixed root
//! sets and flag forbidden tokens in *any* function reachable from a
//! root — the helper defined three files away is just as much hot-path
//! code as the root itself. Each finding carries the call path
//! (`root → f → g`) that makes it hot:
//!
//! * [`HOT_PATH_PANIC`] — no `unwrap`/`expect`/`panic!`-family calls
//!   reachable from the per-round kernel (`compose`/`apply`/
//!   `index_messages`), the pipeline driver (`RoundPipeline::run`), or
//!   the wire codec entry points. Subsumes the file-scoped [`NO_PANIC`]
//!   on transport files (those are excluded here to avoid double
//!   findings).
//! * [`HOT_PATH_MAPS`] — no `BTreeMap`/`BTreeSet`/`HashMap`/`HashSet`
//!   mentioned in any function reachable from the per-round kernel; the
//!   SoA columns (§4.2–§4.3 of DESIGN.md) exist because one convenient
//!   map in a reachable helper reintroduces the O(n log n)-per-round
//!   regime. Replaces (and deepens) the old file-scoped rule of the
//!   same name.
//! * [`HOT_PATH_ALLOC`] — no allocation-API tokens (`vec!`, `format!`,
//!   `with_capacity`, `collect`, `to_vec`/`to_owned`/`to_string`,
//!   `Box::new`, ...) reachable from the per-round kernel; the message
//!   plane is allocation-free by PR 5's counting-allocator tests and
//!   must stay that way statically. `Vec::new` and `clone` are
//!   deliberately not tokens: an empty `Vec` does not allocate, and the
//!   kernel legitimately clones reused buffers.
//!
//! Two workspace-shape rules complete the set:
//!
//! * [`WIRE_SCHEMA`] — the committed `wire.schema.lock` must match the
//!   schema regenerated from the sources ([`crate::schema`]); drift
//!   without a `WIRE_FORMAT_VERSION` bump fails the lint. This rule is
//!   **not** suppressible by pragma: a wire break has no justifiable
//!   form, only a version bump.
//! * [`ANOMALY_EXHAUSTIVE`] — every `Anomalies` counter is both
//!   incremented and read outside tests, and every variant of the
//!   tracked error enums (`RunError`, the service front-end's
//!   `ShardError`) is both constructed and matched outside tests, so the
//!   drop-and-count paths of PRs 4–7 cannot silently rot into dead
//!   counters or unreported errors.
//!
//! Findings can be suppressed with
//! `// bil-lint: allow(<rule>): <justification>` on the offending line
//! or the line directly above it, or for a whole function body with
//! `// bil-lint: allow(<rule>, fn): <justification>` directly above the
//! `fn`. A justification is mandatory; a pragma that lacks one, names an
//! unknown rule, or suppresses nothing is itself reported
//! ([`UNUSED_ALLOW`]), so stale exemptions cannot accumulate.

use std::collections::BTreeMap;
use std::fmt;

use crate::graph::{self, CallGraph, Reach};
use crate::lexer::{strip, word_occurrences, Stripped};
use crate::schema;

/// Determinism hazards in protocol/runtime/service code.
pub const DETERMINISM: &str = "determinism";
/// `debug_assert!(false, ..)` / `unreachable!` on message-handling paths.
pub const RELEASE_HONESTY: &str = "release-honesty";
/// `unwrap`/`expect`/`panic!` in wire-facing executor code.
pub const NO_PANIC: &str = "no-panic";
/// `unsafe` outside the allowlist, or a crate root without `forbid`.
pub const UNSAFE_CODE: &str = "unsafe-code";
/// A `BilMsg` variant with no golden wire fixture.
pub const WIRE_EXHAUSTIVE: &str = "wire-exhaustive";
/// Bare narrowing `as` cast on a decode path.
pub const CAST_TRUNCATION: &str = "cast-truncation";
/// Panic-family call reachable from a hot-path root (transitive).
pub const HOT_PATH_PANIC: &str = "hot-path-panic";
/// Map/set type reachable from the per-round kernel (transitive).
pub const HOT_PATH_MAPS: &str = "hot-path-maps";
/// Allocation API reachable from the per-round kernel (transitive).
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
/// `wire.schema.lock` missing or drifted (not pragma-suppressible).
pub const WIRE_SCHEMA: &str = "wire-schema";
/// An `Anomalies` counter, or a variant of one of the `ERROR_ENUMS`
/// (`RunError`, `ShardError`), never constructed or never observed
/// outside tests.
pub const ANOMALY_EXHAUSTIVE: &str = "anomaly-exhaustive";
/// A pragma that suppressed nothing (not itself suppressible).
pub const UNUSED_ALLOW: &str = "unused-allow";

/// Every suppressible rule, for pragma validation. [`WIRE_SCHEMA`] is
/// deliberately absent: schema drift is fixed by a version bump and
/// regeneration, never excused.
pub const ALL_RULES: &[&str] = &[
    DETERMINISM,
    RELEASE_HONESTY,
    NO_PANIC,
    UNSAFE_CODE,
    WIRE_EXHAUSTIVE,
    CAST_TRUNCATION,
    HOT_PATH_PANIC,
    HOT_PATH_MAPS,
    HOT_PATH_ALLOC,
    ANOMALY_EXHAUSTIVE,
];

/// Crate `src/` trees whose non-test code must be deterministic: these
/// four crates produce or replay the bit-identical `RunReport`. The
/// call graph's node set is scoped to the same trees.
const DETERMINISTIC_SRC: &[&str] = &[
    "crates/core/src/",
    "crates/tree/src/",
    "crates/runtime/src/",
    "crates/service/src/",
];

/// Tokens whose presence breaks run-to-run determinism (iteration order
/// or wall clock or ambient randomness).
const DETERMINISM_TOKENS: &[&str] = &["HashMap", "HashSet", "SystemTime", "thread_rng"];

/// Files on the message-handling path: everything that composes,
/// encodes, decodes, or applies protocol messages.
const MESSAGE_PATH_FILES: &[&str] = &[
    "crates/core/src/protocol.rs",
    "crates/core/src/messages.rs",
    "crates/core/src/epoch.rs",
    "crates/core/src/renaming.rs",
    "crates/runtime/src/pipeline.rs",
    "crates/runtime/src/worker.rs",
    "crates/runtime/src/threaded.rs",
    "crates/runtime/src/parallel.rs",
    "crates/runtime/src/socket.rs",
    "crates/runtime/src/frame.rs",
    "crates/runtime/src/wire.rs",
    "crates/service/src/epoch.rs",
    "crates/service/src/shard.rs",
    "crates/service/src/sharded.rs",
];

/// Executor/transport files that must report structured `RunError`s
/// instead of panicking. The transitive [`HOT_PATH_PANIC`] excludes
/// these — the file-scoped [`NO_PANIC`] already covers every line here,
/// reachable or not, and double findings would need double pragmas.
const TRANSPORT_FILES: &[&str] = &[
    "crates/runtime/src/engine.rs",
    "crates/runtime/src/exec.rs",
    "crates/runtime/src/pipeline.rs",
    "crates/runtime/src/worker.rs",
    "crates/runtime/src/threaded.rs",
    "crates/runtime/src/parallel.rs",
    "crates/runtime/src/socket.rs",
    "crates/runtime/src/frame.rs",
    "crates/runtime/src/wire.rs",
];

const PANIC_TOKENS: &[&str] = &[
    ".unwrap(",
    ".expect(",
    ".unwrap_err(",
    ".expect_err(",
    "panic!",
];

/// Panic-family tokens for the transitive pass: the file-scoped set
/// plus the panicking placeholder macros. `assert!` is not a token —
/// invariant assertions that hold in both profiles are allowed.
const HOT_PANIC_TOKENS: &[&str] = &[
    ".unwrap(",
    ".expect(",
    ".unwrap_err(",
    ".expect_err(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Allocation-API tokens for the transitive pass. `Vec::new` (does not
/// allocate) and `.clone(` (reused-buffer clones are legitimate) are
/// deliberately excluded; `.push(` amortizes into reused buffers.
const ALLOC_TOKENS: &[&str] = &[
    "vec!",
    "format!",
    "Box::new(",
    "Arc::new(",
    "Rc::new(",
    "String::from(",
    "with_capacity(",
    "to_vec(",
    "to_owned(",
    "to_string(",
    "collect(",
];

/// The only files allowed to contain `unsafe`: the counting allocators
/// that assert the message plane is allocation-free.
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/core/tests/alloc_free.rs",
    "crates/bench/benches/message_plane.rs",
];

/// Wire-decode files checked for bare narrowing casts: the codecs of
/// messages, frames, and the socket carrier's commands and faults.
const DECODE_FILES: &[&str] = &[
    "crates/runtime/src/frame.rs",
    "crates/runtime/src/wire.rs",
    "crates/runtime/src/socket.rs",
];

/// Narrowing cast targets: an `as` to one of these can silently truncate
/// an attacker-controlled `u64`.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "usize", "i8", "i16", "i32", "isize"];

/// Files containing the per-round protocol hot path (kernel roots).
const HOT_PATH_FILES: &[&str] = &["crates/core/src/protocol.rs", "crates/core/src/epoch.rs"];

/// Functions that run once per ball per round: the SoA round kernel.
/// `compose`/`compose_batch`/`apply` are the `ViewProtocol` entry
/// points; `index_messages` is the per-round inbox join.
const HOT_PATH_FNS: &[&str] = &["compose", "compose_batch", "apply", "index_messages"];

/// The pipeline driver: everything it calls runs every round.
const PIPELINE_FILE: &str = "crates/runtime/src/pipeline.rs";
const PIPELINE_ROOT_FN: &str = "run";

/// Files whose encode/decode entry points root the wire reachability.
const WIRE_ROOT_FILES: &[&str] = &[
    "crates/runtime/src/frame.rs",
    "crates/runtime/src/wire.rs",
    "crates/core/src/messages.rs",
];

/// Ordered-map/set (and hash-map/set) type names whose *appearance*
/// inside a kernel-reachable function marks per-round construction or
/// lookups that the columnar kernel exists to avoid.
const MAP_TOKENS: &[&str] = &["BTreeMap", "BTreeSet", "HashMap", "HashSet"];

/// The enum whose variants must all be fixture-pinned, and where.
const WIRE_ENUM_FILE: &str = "crates/core/src/messages.rs";
const WIRE_ENUM_NAME: &str = "BilMsg";
const WIRE_FIXTURE_FILE: &str = "crates/runtime/tests/wire_fixtures.rs";

/// Where the exhaustiveness pass finds its subjects.
const ANOMALIES_FILE: &str = "crates/core/src/protocol.rs";
const ANOMALIES_STRUCT: &str = "Anomalies";
/// Error enums held to the same exhaustiveness contract as `Anomalies`:
/// every variant must be constructed AND matched outside tests, in the
/// named defining file's enum. `(file, enum)` pairs.
const ERROR_ENUMS: &[(&str, &str)] = &[
    ("crates/runtime/src/error.rs", "RunError"),
    ("crates/service/src/error.rs", "ShardError"),
];

/// One diagnostic: a rule violation (or unused pragma) at a location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Rule identifier (one of the `pub const` rule names).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Lints a set of `(relative path, contents)` sources as one workspace,
/// without a wire-schema lockfile (the [`WIRE_SCHEMA`] rule then fires
/// only if the sources carry a wire layer — fixture trees without one
/// are unaffected).
pub fn lint_sources(files: &[(String, String)]) -> Vec<Finding> {
    lint_sources_with_lockfile(files, None)
}

/// Lints a set of `(relative path, contents)` sources as one workspace,
/// checking the committed `wire.schema.lock` contents when given.
///
/// Paths must be `/`-separated and relative to the workspace root; rule
/// scoping is path-based. Returns all findings, sorted by
/// `(file, line, rule)`, with pragma suppression already applied and
/// unused pragmas reported.
pub fn lint_sources_with_lockfile(
    files: &[(String, String)],
    lockfile: Option<&str>,
) -> Vec<Finding> {
    let mut stripped: BTreeMap<&str, Stripped> = BTreeMap::new();
    for (path, content) in files {
        stripped.insert(path.as_str(), strip(content));
    }
    let graph_files: Vec<(&str, &Stripped)> = stripped.iter().map(|(p, s)| (*p, s)).collect();
    let graph = graph::build(&graph_files, graph_scope);

    let mut findings = Vec::new();
    for (path, content) in files {
        let s = &stripped[path.as_str()];
        check_determinism(path, s, &mut findings);
        check_release_honesty(path, s, &mut findings);
        check_no_panic(path, s, &mut findings);
        check_unsafe(path, content, s, &mut findings);
        check_cast_truncation(path, s, &mut findings);
    }
    check_hot_path_transitive(&graph, &stripped, &mut findings);
    check_wire_exhaustive(&stripped, &mut findings);
    check_wire_schema(&stripped, lockfile, &mut findings);
    check_exhaustiveness(&stripped, &mut findings);

    let mut findings = apply_pragmas(&stripped, findings);
    findings
        .sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    findings
}

/// Whether `path` contributes nodes to the call graph: deterministic
/// crate sources outside test directories.
fn graph_scope(path: &str) -> bool {
    !in_test_dir(path) && DETERMINISTIC_SRC.iter().any(|p| path.starts_with(p))
}

/// Whether `path` lies under a test-only directory: integration tests,
/// benches, and examples never feed the deterministic run itself.
fn in_test_dir(path: &str) -> bool {
    path.split('/')
        .any(|c| c == "tests" || c == "benches" || c == "examples")
}

fn push(findings: &mut Vec<Finding>, path: &str, line: usize, rule: &'static str, message: String) {
    findings.push(Finding {
        file: path.to_string(),
        line,
        rule,
        message,
    });
}

fn check_determinism(path: &str, s: &Stripped, findings: &mut Vec<Finding>) {
    if in_test_dir(path) || !DETERMINISTIC_SRC.iter().any(|p| path.starts_with(p)) {
        return;
    }
    for token in DETERMINISM_TOKENS {
        for off in word_occurrences(&s.code, token) {
            let line = s.line_of(off);
            if s.is_test_line(line) {
                continue;
            }
            push(
                findings,
                path,
                line,
                DETERMINISM,
                format!("`{token}` in deterministic protocol code (iteration order / wall clock / ambient randomness breaks bit-identical replay)"),
            );
        }
    }
    // `Instant` alone is inert; only taking a wall-clock reading is a
    // determinism hazard.
    for off in word_occurrences(&s.code, "Instant") {
        let line = s.line_of(off);
        if s.is_test_line(line) {
            continue;
        }
        let rest = s.code[off + "Instant".len()..].trim_start();
        if rest.starts_with("::now") {
            push(
                findings,
                path,
                line,
                DETERMINISM,
                "`Instant::now` in deterministic protocol code".to_string(),
            );
        }
    }
}

fn check_release_honesty(path: &str, s: &Stripped, findings: &mut Vec<Finding>) {
    if !MESSAGE_PATH_FILES.contains(&path) {
        return;
    }
    for off in word_occurrences(&s.code, "debug_assert!") {
        let line = s.line_of(off);
        if s.is_test_line(line) {
            continue;
        }
        let rest = s.code[off + "debug_assert!".len()..].trim_start();
        let Some(rest) = rest.strip_prefix('(') else {
            continue;
        };
        if rest.trim_start().starts_with("false") {
            push(
                findings,
                path,
                line,
                RELEASE_HONESTY,
                "`debug_assert!(false, ..)` on a message-handling path compiles out in release and silently absorbs corrupt input; drop and count it via `Anomalies` instead".to_string(),
            );
        }
    }
    for off in word_occurrences(&s.code, "unreachable!") {
        let line = s.line_of(off);
        if s.is_test_line(line) {
            continue;
        }
        push(
            findings,
            path,
            line,
            RELEASE_HONESTY,
            "`unreachable!` on a message-handling path panics on corrupt input; drop and count it via `Anomalies` (or return a structured error) instead".to_string(),
        );
    }
}

fn check_no_panic(path: &str, s: &Stripped, findings: &mut Vec<Finding>) {
    if !TRANSPORT_FILES.contains(&path) {
        return;
    }
    for token in PANIC_TOKENS {
        for off in word_occurrences(&s.code, token) {
            let line = s.line_of(off);
            if s.is_test_line(line) {
                continue;
            }
            let shown = token.trim_start_matches('.').trim_end_matches('(');
            push(
                findings,
                path,
                line,
                NO_PANIC,
                format!("`{shown}` in transport code: propagate a structured `RunError` instead of panicking across a wire or thread boundary"),
            );
        }
    }
}

fn check_unsafe(path: &str, raw: &str, s: &Stripped, findings: &mut Vec<Finding>) {
    if !UNSAFE_ALLOWLIST.contains(&path) {
        for off in word_occurrences(&s.code, "unsafe") {
            push(
                findings,
                path,
                s.line_of(off),
                UNSAFE_CODE,
                "`unsafe` outside the allowlisted counting-allocator files".to_string(),
            );
        }
    }
    let is_crate_root = path == "src/lib.rs"
        || (path.ends_with("/src/lib.rs")
            && (path.starts_with("crates/") || path.starts_with("vendor/")));
    if is_crate_root && !raw.contains("#![forbid(unsafe_code)]") {
        push(
            findings,
            path,
            1,
            UNSAFE_CODE,
            "crate root is missing `#![forbid(unsafe_code)]`".to_string(),
        );
    }
}

/// `fn` item spans in stripped text:
/// `(name, decl_offset, body_start, body_end)`. Bodyless trait
/// declarations are skipped.
fn fn_spans(code: &str) -> Vec<(String, usize, usize, usize)> {
    let bytes = code.as_bytes();
    let mut spans = Vec::new();
    for off in word_occurrences(code, "fn") {
        let mut j = off + 2;
        while j < bytes.len() && bytes[j].is_ascii_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
            j += 1;
        }
        if j == name_start {
            continue;
        }
        let name = code[name_start..j].to_string();
        // A signature contains no `{`, so the next brace opens the body
        // (or a trait declaration ends at `;` first — skip those).
        let mut body_start = None;
        for (k, &b) in bytes.iter().enumerate().skip(j) {
            match b {
                b'{' => {
                    body_start = Some(k);
                    break;
                }
                b';' => break,
                _ => {}
            }
        }
        let Some(start) = body_start else {
            continue;
        };
        let mut depth = 0i64;
        let mut end = code.len();
        for (k, &b) in bytes.iter().enumerate().skip(start) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = k + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        spans.push((name, off, start, end));
    }
    spans
}

/// Whether a function, by name, is a wire-decode path: it consumes
/// attacker-controlled bytes.
fn is_decode_fn(name: &str) -> bool {
    name == "decode"
        || name == "from_bytes"
        || name == "next_frame"
        || name == "peek_varint"
        || name == "read_frame"
        || name.starts_with("get_")
}

/// Whether a function, by name, is a wire entry point (either side).
fn is_wire_root_fn(name: &str) -> bool {
    name == "encode" || name == "encoded_len" || is_decode_fn(name)
}

fn check_cast_truncation(path: &str, s: &Stripped, findings: &mut Vec<Finding>) {
    if !DECODE_FILES.contains(&path) {
        return;
    }
    let spans = fn_spans(&s.code);
    for off in word_occurrences(&s.code, "as") {
        let line = s.line_of(off);
        if s.is_test_line(line) {
            continue;
        }
        let rest = s.code[off + 2..].trim_start();
        let target: String = rest
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if !NARROW_TYPES.contains(&target.as_str()) {
            continue;
        }
        // Innermost enclosing fn decides whether this is a decode path.
        let enclosing = spans
            .iter()
            .filter(|(_, _, start, end)| (*start..*end).contains(&off))
            .max_by_key(|(_, _, start, _)| *start);
        let Some((name, _, _, _)) = enclosing else {
            continue;
        };
        if is_decode_fn(name) {
            push(
                findings,
                path,
                line,
                CAST_TRUNCATION,
                format!("bare `as {target}` on decode path `{name}`: a hostile length can truncate silently; use `try_from` and reject with a `WireError`"),
            );
        }
    }
}

/// The three transitive hot-path passes, sharing one call graph.
fn check_hot_path_transitive(
    graph: &CallGraph,
    stripped: &BTreeMap<&str, Stripped>,
    findings: &mut Vec<Finding>,
) {
    let mut kernel_roots = Vec::new();
    let mut panic_roots = Vec::new();
    for (idx, f) in graph.fns.iter().enumerate() {
        let file = graph.files[f.file].as_str();
        if HOT_PATH_FILES.contains(&file) && HOT_PATH_FNS.contains(&f.name.as_str()) {
            kernel_roots.push(idx);
        }
        if (file == PIPELINE_FILE && f.name == PIPELINE_ROOT_FN)
            || (WIRE_ROOT_FILES.contains(&file) && is_wire_root_fn(&f.name))
        {
            panic_roots.push(idx);
        }
    }
    // The panic pass roots at the kernel too: a panicking helper under
    // `compose` is as fatal as one under the wire codec.
    let mut all_panic_roots = kernel_roots.clone();
    all_panic_roots.extend(panic_roots);

    // Traversal is bounded to keep the method-by-name resolution honest:
    // every executor implements trait methods *named* `compose`/`apply`,
    // so an unbounded walk from the kernel roots would swallow the whole
    // transport layer through those aliases. The per-round kernel lives
    // in the deterministic data layer (`core` + `tree`); the panic pass
    // may additionally pass through the pipeline driver (to reach e.g.
    // the adversary planner it invokes every round) but never descends
    // into the remaining transport files, whose bodies the file-scoped
    // [`NO_PANIC`] already covers line-by-line.
    let kernel_reach = graph::reachable_where(graph, &kernel_roots, |v| {
        let file = graph.files[graph.fns[v].file].as_str();
        file.starts_with("crates/core/") || file.starts_with("crates/tree/")
    });
    let panic_reach = graph::reachable_where(graph, &all_panic_roots, |v| {
        let file = graph.files[graph.fns[v].file].as_str();
        file == PIPELINE_FILE || !TRANSPORT_FILES.contains(&file)
    });

    scan_reachable(
        graph,
        &panic_reach,
        stripped,
        HOT_PANIC_TOKENS,
        TRANSPORT_FILES,
        findings,
        |shown, chain| {
            (
                HOT_PATH_PANIC,
                format!("`{shown}` is reachable from the hot path ({chain}): return a structured error or drop-and-count via `Anomalies` instead of panicking"),
            )
        },
    );
    scan_reachable(
        graph,
        &kernel_reach,
        stripped,
        MAP_TOKENS,
        &[],
        findings,
        |shown, chain| {
            (
                HOT_PATH_MAPS,
                format!("`{shown}` is reachable from the per-round kernel ({chain}): the round path must stay a columnar sweep (SoA columns + sorted-slice merge-join); keep map construction at init/epoch/commit boundaries or justify with a pragma"),
            )
        },
    );
    scan_reachable(
        graph,
        &kernel_reach,
        stripped,
        ALLOC_TOKENS,
        &[],
        findings,
        |shown, chain| {
            (
                HOT_PATH_ALLOC,
                format!("`{shown}` is reachable from the per-round kernel ({chain}): the per-round path is allocation-free; hoist the allocation to an init/epoch boundary or a reused buffer, or justify with a pragma"),
            )
        },
    );
}

/// Scans every reached function's body for `tokens`; each occurrence is
/// attributed to the *innermost* enclosing graph fn (so nested fns are
/// not double-reported) and rendered with its call path.
fn scan_reachable(
    graph: &CallGraph,
    reach: &Reach,
    stripped: &BTreeMap<&str, Stripped>,
    tokens: &[&str],
    skip_files: &[&str],
    findings: &mut Vec<Finding>,
    describe: impl Fn(&str, &str) -> (&'static str, String),
) {
    for (file_idx, path) in graph.files.iter().enumerate() {
        if skip_files.contains(&path.as_str()) {
            continue;
        }
        let Some(s) = stripped.get(path.as_str()) else {
            continue;
        };
        for token in tokens {
            for off in word_occurrences(&s.code, token) {
                let enclosing = graph
                    .fns
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| f.file == file_idx && (f.body.0..f.body.1).contains(&off))
                    .max_by_key(|(_, f)| f.body.0);
                let Some((fn_idx, _)) = enclosing else {
                    continue;
                };
                if !reach.contains(fn_idx) {
                    continue;
                }
                let line = s.line_of(off);
                if s.is_test_line(line) {
                    continue;
                }
                let shown = token.trim_start_matches('.').trim_end_matches('(');
                let chain = reach.chain_names(graph, fn_idx);
                let (rule, message) = describe(shown, &chain);
                push(findings, path, line, rule, message);
            }
        }
    }
}

fn check_wire_exhaustive(stripped: &BTreeMap<&str, Stripped>, findings: &mut Vec<Finding>) {
    let Some(msgs) = stripped.get(WIRE_ENUM_FILE) else {
        return;
    };
    let variants = schema::enum_variants(msgs, WIRE_ENUM_NAME);
    if variants.is_empty() {
        return;
    }
    let Some(fixtures) = stripped.get(WIRE_FIXTURE_FILE) else {
        for v in &variants {
            findings.push(Finding {
                file: WIRE_ENUM_FILE.to_string(),
                line: v.line,
                rule: WIRE_EXHAUSTIVE,
                message: format!(
                    "`{WIRE_ENUM_NAME}::{}` cannot be fixture-checked: `{WIRE_FIXTURE_FILE}` is missing",
                    v.name
                ),
            });
        }
        return;
    };
    for v in &variants {
        if word_occurrences(&fixtures.code, &v.name).is_empty() {
            findings.push(Finding {
                file: WIRE_ENUM_FILE.to_string(),
                line: v.line,
                rule: WIRE_EXHAUSTIVE,
                message: format!(
                    "`{WIRE_ENUM_NAME}::{}` has no golden byte fixture in `{WIRE_FIXTURE_FILE}`; its encoding can drift without bumping `WIRE_FORMAT_VERSION`",
                    v.name
                ),
            });
        }
    }
}

/// Compares the committed `wire.schema.lock` (if any) against the schema
/// regenerated from the sources. Trees without a wire layer are exempt.
fn check_wire_schema(
    stripped: &BTreeMap<&str, Stripped>,
    lockfile: Option<&str>,
    findings: &mut Vec<Finding>,
) {
    let Some(current) = schema::extract(stripped) else {
        return;
    };
    let message = match lockfile {
        None => format!(
            "`{}` is missing: generate it with `cargo run -p bil-lint -- --emit-schema` and commit it",
            schema::LOCKFILE
        ),
        Some(text) => match schema::compare(text, &current) {
            schema::Drift::Clean => return,
            schema::Drift::SameVersion { detail } => format!(
                "wire schema drifted without a WIRE_FORMAT_VERSION bump ({detail}); bump the version in crates/runtime/src/wire.rs and regenerate with `--emit-schema`"
            ),
            schema::Drift::VersionChanged { committed, current } => format!(
                "`{}` declares wire-format version {committed} but the workspace is at {current}: regenerate with `cargo run -p bil-lint -- --emit-schema` and commit the diff",
                schema::LOCKFILE
            ),
        },
    };
    findings.push(Finding {
        file: schema::LOCKFILE.to_string(),
        line: 1,
        rule: WIRE_SCHEMA,
        message,
    });
}

/// Top-level field names (with lines) of `struct <name> { ... }`.
fn struct_fields(s: &Stripped, struct_name: &str) -> Vec<(String, usize)> {
    let code = &s.code;
    let bytes = code.as_bytes();
    for off in word_occurrences(code, "struct") {
        let rest = code[off + "struct".len()..].trim_start();
        let is_target = rest.starts_with(struct_name)
            && !rest[struct_name.len()..]
                .starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
        if !is_target {
            continue;
        }
        let Some(open_rel) = code[off..].find('{') else {
            continue;
        };
        let mut i = off + open_rel + 1;
        let mut depth = 1i64;
        let mut fields = Vec::new();
        let mut expect_field = true;
        while i < bytes.len() && depth > 0 {
            let b = bytes[i];
            match b {
                b'{' | b'(' | b'[' => {
                    depth += 1;
                    i += 1;
                }
                b'}' | b')' | b']' => {
                    depth -= 1;
                    i += 1;
                }
                b',' if depth == 1 => {
                    expect_field = true;
                    i += 1;
                }
                b'#' if depth == 1 && expect_field => {
                    while i < bytes.len() && bytes[i] != b']' {
                        i += 1;
                    }
                    i += 1;
                }
                _ if depth == 1 && expect_field && (b.is_ascii_alphabetic() || b == b'_') => {
                    let start = i;
                    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_')
                    {
                        i += 1;
                    }
                    let word = &code[start..i];
                    if word == "pub" {
                        // Visibility modifier; the field name follows
                        // (any `(crate)` group is depth-tracked above).
                        continue;
                    }
                    let mut j = i;
                    while j < bytes.len() && bytes[j].is_ascii_whitespace() {
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b':') && bytes.get(j + 1) != Some(&b':') {
                        fields.push((word.to_string(), s.line_of(start)));
                    }
                    expect_field = false;
                }
                _ => i += 1,
            }
        }
        return fields;
    }
    Vec::new()
}

/// Every `Anomalies` counter must be incremented *and* read outside
/// tests, and every variant of each enum in [`ERROR_ENUMS`] constructed
/// *and* matched outside tests: a counter nobody bumps means the drop
/// path it counted rotted away; a variant nobody matches means an error
/// the operator never sees.
fn check_exhaustiveness(stripped: &BTreeMap<&str, Stripped>, findings: &mut Vec<Finding>) {
    if let Some(s) = stripped.get(ANOMALIES_FILE) {
        for (field, line) in struct_fields(s, ANOMALIES_STRUCT) {
            let needle = format!(".{field}");
            let mut incremented = false;
            let mut observed = false;
            for (path, sf) in stripped {
                if in_test_dir(path) {
                    continue;
                }
                for off in word_occurrences(&sf.code, &needle) {
                    if sf.is_test_line(sf.line_of(off)) {
                        continue;
                    }
                    let rest = sf.code[off + needle.len()..].trim_start();
                    if rest.starts_with("+=") {
                        incremented = true;
                    } else {
                        observed = true;
                    }
                }
            }
            if !incremented {
                push(
                    findings,
                    ANOMALIES_FILE,
                    line,
                    ANOMALY_EXHAUSTIVE,
                    format!("`{ANOMALIES_STRUCT}::{field}` is never incremented outside tests: the drop-and-count path it records has rotted away (or the counter is dead and should be removed)"),
                );
            }
            if !observed {
                push(
                    findings,
                    ANOMALIES_FILE,
                    line,
                    ANOMALY_EXHAUSTIVE,
                    format!("`{ANOMALIES_STRUCT}::{field}` is never read outside tests: anomaly counts must be observable (fold it into `total()` or a report)"),
                );
            }
        }
    }
    for (error_file, error_enum) in ERROR_ENUMS {
        let Some(s) = stripped.get(error_file) else {
            continue;
        };
        for v in schema::enum_variants(s, error_enum) {
            let needle = format!("{error_enum}::{}", v.name);
            let mut constructed = false;
            let mut observed = false;
            for (path, sf) in stripped {
                if in_test_dir(path) {
                    continue;
                }
                for off in word_occurrences(&sf.code, &needle) {
                    let line = sf.line_of(off);
                    if sf.is_test_line(line) {
                        continue;
                    }
                    if variant_use_is_observation(sf, off, needle.len()) {
                        observed = true;
                    } else {
                        constructed = true;
                    }
                }
            }
            if !constructed {
                push(
                    findings,
                    error_file,
                    v.line,
                    ANOMALY_EXHAUSTIVE,
                    format!("`{error_enum}::{}` is never constructed outside tests: the failure it models is no longer reported (remove the variant or restore the path)", v.name),
                );
            }
            if !observed {
                push(
                    findings,
                    error_file,
                    v.line,
                    ANOMALY_EXHAUSTIVE,
                    format!("`{error_enum}::{}` is never matched outside tests: callers cannot distinguish this failure (match it in `Display`/handling code)", v.name),
                );
            }
        }
    }
}

/// Whether a `RunError::Variant` occurrence is an *observation* (a match
/// arm or pattern) rather than a construction: a `=>` follows the
/// variant's payload group, or the line is an `if let`/`while let`/
/// `matches!` pattern.
fn variant_use_is_observation(s: &Stripped, off: usize, needle_len: usize) -> bool {
    let code = &s.code;
    let bytes = code.as_bytes();
    let line = s.line_of(off);
    let line_start = s.line_starts[line - 1];
    let before = &code[line_start..off];
    if before.contains("if let") || before.contains("while let") || before.contains("matches!") {
        return true;
    }
    let mut i = off + needle_len;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    // Skip one balanced payload group, `{ .. }` or `( .. )`.
    if i < bytes.len() && (bytes[i] == b'{' || bytes[i] == b'(') {
        let (open, close) = if bytes[i] == b'{' {
            (b'{', b'}')
        } else {
            (b'(', b')')
        };
        let mut depth = 0i64;
        while i < bytes.len() {
            if bytes[i] == open {
                depth += 1;
            } else if bytes[i] == close {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    bytes.get(i) == Some(&b'=') && bytes.get(i + 1) == Some(&b'>')
}

/// Applies `bil-lint: allow(..)` pragmas.
///
/// A line-scoped pragma suppresses findings of its rule on its own line,
/// or — when there are none there — on the next line. A `fn`-scoped
/// pragma (`allow(rule, fn)`) suppresses findings of its rule anywhere
/// in the body of the `fn` declared directly beneath it (up to two
/// attribute lines in between). Pragmas that lack a justification, name
/// an unknown rule, or suppress nothing become [`UNUSED_ALLOW`]
/// findings.
fn apply_pragmas(stripped: &BTreeMap<&str, Stripped>, findings: Vec<Finding>) -> Vec<Finding> {
    let mut suppressed = vec![false; findings.len()];
    let mut extra = Vec::new();
    for (path, s) in stripped {
        let mut spans: Option<Vec<(String, usize, usize, usize)>> = None;
        for pragma in &s.pragmas {
            if !ALL_RULES.contains(&pragma.rule.as_str()) {
                extra.push(Finding {
                    file: path.to_string(),
                    line: pragma.line,
                    rule: UNUSED_ALLOW,
                    message: format!(
                        "unknown rule `{}` in bil-lint allow pragma (known: {})",
                        pragma.rule,
                        ALL_RULES.join(", ")
                    ),
                });
                continue;
            }
            if !pragma.justified {
                extra.push(Finding {
                    file: path.to_string(),
                    line: pragma.line,
                    rule: UNUSED_ALLOW,
                    message: format!(
                        "`allow({})` lacks a justification — write `allow({}): <why>`; unjustified pragmas suppress nothing",
                        pragma.rule, pragma.rule
                    ),
                });
                continue;
            }
            let mut hit = false;
            if pragma.fn_scope {
                let spans = spans.get_or_insert_with(|| fn_spans(&s.code));
                // The fn directly beneath the pragma: its `fn` keyword
                // within three lines (attributes may intervene).
                let target = spans
                    .iter()
                    .filter(|(_, decl, _, _)| {
                        let decl_line = s.line_of(*decl);
                        decl_line > pragma.line && decl_line <= pragma.line + 3
                    })
                    .min_by_key(|(_, decl, _, _)| *decl);
                match target {
                    None => {
                        extra.push(Finding {
                            file: path.to_string(),
                            line: pragma.line,
                            rule: UNUSED_ALLOW,
                            message: format!(
                                "`allow({}, fn)` has no `fn` directly beneath it to scope to",
                                pragma.rule
                            ),
                        });
                        continue;
                    }
                    Some((_, decl, _, end)) => {
                        let first = s.line_of(*decl);
                        let last = s.line_of(end.saturating_sub(1).max(*decl));
                        for (i, f) in findings.iter().enumerate() {
                            if f.file == **path
                                && f.rule == pragma.rule
                                && (first..=last).contains(&f.line)
                            {
                                suppressed[i] = true;
                                hit = true;
                            }
                        }
                    }
                }
            } else {
                for target_line in [pragma.line, pragma.line + 1] {
                    for (i, f) in findings.iter().enumerate() {
                        if f.file == **path && f.line == target_line && f.rule == pragma.rule {
                            suppressed[i] = true;
                            hit = true;
                        }
                    }
                    if hit {
                        break;
                    }
                }
            }
            if !hit {
                extra.push(Finding {
                    file: path.to_string(),
                    line: pragma.line,
                    rule: UNUSED_ALLOW,
                    message: format!(
                        "`allow({})` suppresses nothing; remove the stale pragma",
                        pragma.rule
                    ),
                });
            }
        }
    }
    let mut out: Vec<Finding> = findings
        .into_iter()
        .zip(suppressed)
        .filter_map(|(f, s)| (!s).then_some(f))
        .collect();
    out.extend(extra);
    out
}
