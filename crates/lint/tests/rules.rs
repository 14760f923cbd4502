//! Fixture-snippet coverage for every lint rule: a positive hit, a clean
//! negative, a pragma-suppressed variant, and the unused-pragma report.
//!
//! Each fixture is a synthetic `(path, contents)` pair placed at a path
//! the rule scopes to (rule scoping is path-based), fed through
//! [`bil_lint::lint_sources`] exactly as the binary would.

use bil_lint::rules::{
    lint_sources, lint_sources_with_lockfile, Finding, ANOMALY_EXHAUSTIVE, CAST_TRUNCATION,
    DETERMINISM, HOT_PATH_ALLOC, HOT_PATH_MAPS, HOT_PATH_PANIC, NO_PANIC, RELEASE_HONESTY,
    UNSAFE_CODE, UNUSED_ALLOW, WIRE_EXHAUSTIVE, WIRE_SCHEMA,
};

fn lint(files: &[(&str, &str)]) -> Vec<Finding> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, c)| ((*p).to_string(), (*c).to_string()))
        .collect();
    lint_sources(&owned)
}

fn rules_hit(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- determinism

#[test]
fn determinism_flags_hashmap_in_protocol_code() {
    let findings = lint(&[(
        "crates/core/src/scratch.rs",
        "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n",
    )]);
    assert_eq!(rules_hit(&findings), vec![DETERMINISM; 3]);
    assert_eq!(findings[0].line, 1);
    assert_eq!(findings[1].line, 2);
}

#[test]
fn determinism_flags_instant_now_but_not_instant_values() {
    let findings = lint(&[(
        "crates/runtime/src/scratch.rs",
        "use std::time::Instant;\nfn f(t: Instant) -> Instant { t }\nfn g() { let _ = Instant::now(); }\n",
    )]);
    assert_eq!(rules_hit(&findings), vec![DETERMINISM]);
    assert_eq!(findings[0].line, 3);
}

#[test]
fn determinism_ignores_out_of_scope_and_test_code() {
    // Same hazards outside the deterministic crates, under a tests/
    // directory, and inside a `mod tests` region: all clean.
    let findings = lint(&[
        (
            "crates/harness/src/scratch.rs",
            "use std::collections::HashMap;\n",
        ),
        (
            "crates/core/tests/scratch.rs",
            "use std::collections::HashSet;\n",
        ),
        (
            "crates/tree/src/scratch.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n",
        ),
    ]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn determinism_pragma_suppresses_and_btreemap_is_clean() {
    let findings = lint(&[(
        "crates/core/src/scratch.rs",
        "use std::collections::BTreeMap;\n// bil-lint: allow(determinism): seeded scratch map\nfn f() { let _ = std::collections::HashMap::<u32, u32>::new(); }\n",
    )]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// ------------------------------------------------------------ release-honesty

#[test]
fn release_honesty_flags_debug_assert_false_and_unreachable() {
    let findings = lint(&[(
        "crates/core/src/protocol.rs",
        "fn apply(x: u32) {\n    debug_assert!(false, \"corrupt: {x}\");\n    unreachable!()\n}\n",
    )]);
    // `apply` in protocol.rs is also a kernel root, so the transitive
    // pass flags the `unreachable!` a second time under hot-path-panic.
    assert_eq!(
        rules_hit(&findings),
        vec![RELEASE_HONESTY, HOT_PATH_PANIC, RELEASE_HONESTY]
    );
    assert_eq!(findings[0].line, 2);
    assert_eq!(findings[1].line, 3);
    assert_eq!(findings[2].line, 3);
}

#[test]
fn release_honesty_allows_real_assertions_and_other_files() {
    let findings = lint(&[
        (
            "crates/core/src/protocol.rs",
            "fn apply(a: u32, b: u32) { debug_assert!(a <= b, \"monotone\"); }\n",
        ),
        (
            "crates/harness/src/scratch.rs",
            "fn f() { debug_assert!(false); }\n",
        ),
    ]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn release_honesty_pragma_on_same_line_suppresses() {
    let findings = lint(&[(
        "crates/core/src/messages.rs",
        "fn f() { unreachable!() } // bil-lint: allow(release-honesty): const-evaluated arm\n",
    )]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// ------------------------------------------------------------------- no-panic

#[test]
fn no_panic_flags_unwrap_expect_and_panic_in_transport() {
    let findings = lint(&[(
        "crates/runtime/src/frame.rs",
        "fn f(x: Option<u32>) -> u32 {\n    let a = x.unwrap();\n    let b = x.expect(\"present\");\n    if a != b { panic!(\"mismatch\") }\n    a\n}\n",
    )]);
    assert_eq!(rules_hit(&findings), vec![NO_PANIC; 3]);
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        vec![2, 3, 4]
    );
}

#[test]
fn no_panic_ignores_non_transport_files_and_test_regions() {
    let findings = lint(&[
        (
            "crates/core/src/scratch.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        ),
        (
            "crates/runtime/src/frame.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(x: Option<u32>) -> u32 { x.unwrap() }\n}\n",
        ),
    ]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn no_panic_pragma_on_previous_line_suppresses() {
    let findings = lint(&[(
        "crates/runtime/src/engine.rs",
        "fn f(x: Option<u32>) -> u32 {\n    // bil-lint: allow(no-panic): validated at construction\n    x.expect(\"validated\")\n}\n",
    )]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// ---------------------------------------------------------------- unsafe-code

#[test]
fn unsafe_flagged_outside_allowlist_allowed_inside() {
    let snippet = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
    let findings = lint(&[
        ("crates/runtime/src/scratch.rs", snippet),
        ("crates/core/tests/alloc_free.rs", snippet),
        ("crates/bench/benches/message_plane.rs", snippet),
    ]);
    assert_eq!(rules_hit(&findings), vec![UNSAFE_CODE, UNSAFE_CODE]);
    let files: Vec<&str> = findings.iter().map(|f| f.file.as_str()).collect();
    assert_eq!(
        files,
        [
            "crates/bench/benches/message_plane.rs",
            "crates/runtime/src/scratch.rs"
        ]
    );
}

#[test]
fn crate_root_must_forbid_unsafe() {
    let findings = lint(&[
        ("crates/foo/src/lib.rs", "pub fn f() {}\n"),
        (
            "crates/bar/src/lib.rs",
            "#![forbid(unsafe_code)]\npub fn g() {}\n",
        ),
    ]);
    assert_eq!(rules_hit(&findings), vec![UNSAFE_CODE]);
    assert_eq!(findings[0].file, "crates/foo/src/lib.rs");
    assert_eq!(findings[0].line, 1);
}

#[test]
fn unsafe_in_strings_and_comments_is_not_code() {
    let findings = lint(&[(
        "crates/runtime/src/scratch.rs",
        "// unsafe is discussed here but not used\nfn f() -> &'static str { \"unsafe\" }\n",
    )]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn unsafe_pragma_suppresses() {
    let findings = lint(&[(
        "crates/runtime/src/scratch.rs",
        "// bil-lint: allow(unsafe-code): audited volatile read\nfn f(p: *const u8) -> u8 { unsafe { *p } }\n",
    )]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// ------------------------------------------------------------ wire-exhaustive

const MSGS_TWO_VARIANTS: &str = "pub enum BilMsg {\n    Init(u32),\n    Path { len: u8 },\n}\n";

#[test]
fn wire_exhaustive_flags_unpinned_variant() {
    let findings = lint(&[
        ("crates/core/src/messages.rs", MSGS_TWO_VARIANTS),
        (
            "crates/runtime/tests/wire_fixtures.rs",
            "fn pins() { let _ = \"x\"; check(Init); }\n",
        ),
    ]);
    assert_eq!(rules_hit(&findings), vec![WIRE_EXHAUSTIVE]);
    assert_eq!(findings[0].file, "crates/core/src/messages.rs");
    assert_eq!(findings[0].line, 3);
    assert!(findings[0].message.contains("BilMsg::Path"));
}

#[test]
fn wire_exhaustive_clean_when_every_variant_is_pinned() {
    let findings = lint(&[
        ("crates/core/src/messages.rs", MSGS_TWO_VARIANTS),
        (
            "crates/runtime/tests/wire_fixtures.rs",
            "fn pins() { check(Init); check(Path); }\n",
        ),
    ]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn wire_exhaustive_flags_every_variant_when_fixture_file_is_missing() {
    let findings = lint(&[("crates/core/src/messages.rs", MSGS_TWO_VARIANTS)]);
    assert_eq!(rules_hit(&findings), vec![WIRE_EXHAUSTIVE, WIRE_EXHAUSTIVE]);
    assert!(findings[0].message.contains("missing"));
}

// ------------------------------------------------------------ cast-truncation

#[test]
fn cast_truncation_flags_narrowing_cast_in_decode_fn() {
    let findings = lint(&[(
        "crates/runtime/src/frame.rs",
        "fn decode(len: u64) -> usize {\n    len as usize\n}\n",
    )]);
    assert_eq!(rules_hit(&findings), vec![CAST_TRUNCATION]);
    assert_eq!(findings[0].line, 2);
    assert!(findings[0].message.contains("as usize"));
}

#[test]
fn cast_truncation_ignores_encode_fns_widening_casts_and_other_files() {
    let findings = lint(&[
        (
            "crates/runtime/src/wire.rs",
            "fn encode(len: usize) -> u8 { (len & 0x7f) as u8 }\nfn decode(len: u32) -> u64 { u64::from(len) as u64 }\n",
        ),
        (
            "crates/core/src/scratch.rs",
            "fn decode(len: u64) -> usize { len as usize }\n",
        ),
    ]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn cast_truncation_covers_get_prefixed_fns_and_pragma_suppresses() {
    let hit = lint(&[(
        "crates/runtime/src/frame.rs",
        "fn get_blob(len: u64) -> usize { len as usize }\n",
    )]);
    assert_eq!(rules_hit(&hit), vec![CAST_TRUNCATION]);

    let suppressed = lint(&[(
        "crates/runtime/src/frame.rs",
        "fn get_blob(len: u64) -> usize {\n    // bil-lint: allow(cast-truncation): bounded by MAX_FRAME_LEN above\n    len as usize\n}\n",
    )]);
    assert!(suppressed.is_empty(), "unexpected: {suppressed:?}");
}

// -------------------------------------------------------------- hot-path-maps

#[test]
fn hot_path_maps_flags_map_construction_in_apply() {
    // `BTreeMap` in `apply` is per-round map construction; the same map
    // in `init_view` is boundary code and stays clean.
    let findings = lint(&[(
        "crates/core/src/protocol.rs",
        "use std::collections::BTreeMap;\n\
         fn init_view() { let _m: BTreeMap<u64, u64> = BTreeMap::new(); }\n\
         fn apply(n: usize) {\n    let _m: BTreeMap<u64, u64> = BTreeMap::new();\n}\n",
    )]);
    assert_eq!(rules_hit(&findings), vec![HOT_PATH_MAPS, HOT_PATH_MAPS]);
    assert_eq!(findings[0].line, 4);
    assert!(findings[0].message.contains("per-round kernel (apply)"));
}

#[test]
fn hot_path_maps_ignores_other_files_fns_and_test_code() {
    let findings = lint(&[
        // Same construction outside the hot files: clean.
        (
            "crates/runtime/src/scratch.rs",
            "use std::collections::BTreeMap;\nfn apply() { let _m: BTreeMap<u8, u8> = BTreeMap::new(); }\n",
        ),
        // Non-hot functions in a hot file: clean.
        (
            "crates/core/src/epoch.rs",
            "use std::collections::BTreeSet;\nfn seed_epoch() { let _s: BTreeSet<u8> = BTreeSet::new(); }\n",
        ),
        // Test regions in a hot file: clean.
        (
            "crates/core/src/protocol.rs",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::collections::BTreeMap;\n    fn apply() { let _m: BTreeMap<u8, u8> = BTreeMap::new(); }\n}\n",
        ),
    ]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn hot_path_maps_pragma_suppresses_at_a_boundary() {
    let findings = lint(&[(
        "crates/core/src/epoch.rs",
        "use std::collections::BTreeMap;\n\
         fn apply(epoch_boundary: bool) {\n\
             if epoch_boundary {\n\
                 // bil-lint: allow(hot-path-maps): epoch seeding runs once per epoch, not per round\n\
                 let _m: BTreeMap<u64, u64> = BTreeMap::new();\n\
             }\n\
         }\n",
    )]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// --------------------------------------------------------------- unused-allow

#[test]
fn unknown_rule_in_pragma_is_reported() {
    let findings = lint(&[(
        "crates/core/src/scratch.rs",
        "// bil-lint: allow(no-such-rule): oops\nfn f() {}\n",
    )]);
    assert_eq!(rules_hit(&findings), vec![UNUSED_ALLOW]);
    assert!(findings[0].message.contains("unknown rule `no-such-rule`"));
}

#[test]
fn stale_pragma_is_reported() {
    let findings = lint(&[(
        "crates/runtime/src/frame.rs",
        "// bil-lint: allow(no-panic): nothing here panics any more\nfn f() -> u32 { 7 }\n",
    )]);
    assert_eq!(rules_hit(&findings), vec![UNUSED_ALLOW]);
    assert_eq!(findings[0].line, 1);
    assert!(findings[0].message.contains("suppresses nothing"));
}

#[test]
fn doc_comments_mentioning_pragmas_are_not_pragmas() {
    let findings = lint(&[(
        "crates/core/src/scratch.rs",
        "/// Suppress with `bil-lint: allow(determinism)` if needed.\nfn f() {}\n",
    )]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// ------------------------------------------------- hot-path-panic (transitive)

#[test]
fn hot_path_panic_reports_cross_file_chain() {
    // `apply` (kernel root, core) → `mid_hop` (core, other file) →
    // `deep_helper` (tree) which unwraps: the finding lands on the
    // helper with the full call path.
    let findings = lint(&[
        (
            "crates/core/src/protocol.rs",
            "pub fn apply(x: u32) -> u32 { mid_hop(x) }\n",
        ),
        (
            "crates/core/src/support.rs",
            "pub fn mid_hop(x: u32) -> u32 { deep_helper(Some(x)) }\n",
        ),
        (
            "crates/tree/src/util.rs",
            "pub fn deep_helper(x: Option<u32>) -> u32 { x.unwrap() }\n",
        ),
    ]);
    assert_eq!(rules_hit(&findings), vec![HOT_PATH_PANIC]);
    assert_eq!(findings[0].file, "crates/tree/src/util.rs");
    assert_eq!(findings[0].line, 1);
    assert!(
        findings[0]
            .message
            .contains("apply \u{2192} mid_hop \u{2192} deep_helper"),
        "missing chain: {}",
        findings[0].message
    );
}

#[test]
fn hot_path_panic_ignores_unreached_helpers_and_transport_files() {
    let findings = lint(&[
        // A panicking helper nobody on the hot path calls: clean.
        (
            "crates/tree/src/util.rs",
            "pub fn cold_helper(x: Option<u32>) -> u32 { x.unwrap() }\n",
        ),
        // Transport files are covered by the file-scoped no-panic rule;
        // the transitive pass must not double-report them.
        (
            "crates/runtime/src/pipeline.rs",
            "pub fn run(x: Option<u32>) -> u32 {\n    // bil-lint: allow(no-panic): test fixture\n    x.unwrap()\n}\n",
        ),
    ]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn hot_path_panic_roots_at_the_wire_codec() {
    let findings = lint(&[
        (
            "crates/core/src/messages.rs",
            "pub fn encode(x: u32) -> u32 { widen(x) }\n",
        ),
        (
            "crates/core/src/varint.rs",
            "pub fn widen(x: u32) -> u32 { u32::try_from(u64::from(x)).expect(\"fits\") }\n",
        ),
    ]);
    assert_eq!(rules_hit(&findings), vec![HOT_PATH_PANIC]);
    assert_eq!(findings[0].file, "crates/core/src/varint.rs");
    assert!(findings[0].message.contains("encode \u{2192} widen"));
}

// ------------------------------------------------- hot-path-alloc (transitive)

#[test]
fn hot_path_alloc_flags_reachable_allocation_but_not_vec_new() {
    let findings = lint(&[
        (
            "crates/core/src/protocol.rs",
            "pub fn compose(n: usize) -> Vec<u32> { scratch(n) }\nfn empty() -> Vec<u32> { Vec::new() }\n",
        ),
        (
            "crates/core/src/deliver.rs",
            "pub fn scratch(n: usize) -> Vec<u32> { vec![0; n] }\n",
        ),
    ]);
    assert_eq!(rules_hit(&findings), vec![HOT_PATH_ALLOC]);
    assert_eq!(findings[0].file, "crates/core/src/deliver.rs");
    assert!(findings[0].message.contains("compose \u{2192} scratch"));
}

#[test]
fn hot_path_alloc_ignores_allocation_off_the_kernel() {
    // Allocation reachable only from the pipeline/wire roots (not the
    // kernel) is fine: those paths are panic-checked, not alloc-checked.
    let findings = lint(&[(
        "crates/core/src/messages.rs",
        "pub fn encode(n: usize) -> Vec<u8> { Vec::with_capacity(n) }\n",
    )]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

// ----------------------------------------------------------- fn-scope pragmas

#[test]
fn fn_scope_pragma_suppresses_whole_body() {
    let findings = lint(&[(
        "crates/core/src/protocol.rs",
        "// bil-lint: allow(hot-path-maps, fn): rebuilt once per epoch, not per round\n\
         pub fn index_messages(n: usize) {\n\
             let _a: std::collections::BTreeMap<u32, u32> = std::collections::BTreeMap::new();\n\
             let _b = std::collections::BTreeSet::<u32>::new();\n\
         }\n",
    )]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn stale_fn_scope_pragma_is_reported() {
    let findings = lint(&[(
        "crates/core/src/protocol.rs",
        "// bil-lint: allow(hot-path-maps, fn): nothing here any more\npub fn apply(n: usize) -> usize { n }\n",
    )]);
    assert_eq!(rules_hit(&findings), vec![UNUSED_ALLOW]);
    assert!(findings[0].message.contains("suppresses nothing"));
}

#[test]
fn fn_scope_pragma_without_fn_beneath_is_reported() {
    let findings = lint(&[(
        "crates/core/src/scratch.rs",
        "// bil-lint: allow(determinism, fn): orphaned\nconst X: u32 = 7;\n",
    )]);
    assert_eq!(rules_hit(&findings), vec![UNUSED_ALLOW]);
    assert!(findings[0].message.contains("no `fn` directly beneath"));
}

#[test]
fn unjustified_pragma_suppresses_nothing_and_is_reported() {
    let findings = lint(&[(
        "crates/core/src/scratch.rs",
        "// bil-lint: allow(determinism)\nuse std::collections::HashMap;\n",
    )]);
    assert_eq!(rules_hit(&findings), vec![UNUSED_ALLOW, DETERMINISM]);
    assert!(findings[0].message.contains("lacks a justification"));
}

// --------------------------------------------------------- anomaly-exhaustive

const ANOMALIES_OK: &str = "\
pub struct Anomalies {\n    pub malformed: u64,\n}\n\
pub fn apply(a: &mut Anomalies) { a.malformed += 1; }\n\
pub fn total(a: &Anomalies) -> u64 { a.malformed }\n";

#[test]
fn anomaly_exhaustive_clean_when_counters_are_bumped_and_read() {
    let findings = lint(&[("crates/core/src/protocol.rs", ANOMALIES_OK)]);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn anomaly_exhaustive_flags_dead_and_writeonly_counters() {
    let findings = lint(&[(
        "crates/core/src/protocol.rs",
        "pub struct Anomalies {\n    pub never_bumped: u64,\n    pub never_read: u64,\n}\n\
         pub fn apply(a: &mut Anomalies) -> u64 { a.never_read += 1; a.never_bumped }\n",
    )]);
    assert_eq!(rules_hit(&findings), vec![ANOMALY_EXHAUSTIVE; 2]);
    assert!(findings[0].message.contains("never incremented"));
    assert!(findings[1].message.contains("never read"));
}

#[test]
fn anomaly_exhaustive_covers_run_error_variants() {
    let findings = lint(&[(
        "crates/runtime/src/error.rs",
        "pub enum RunError {\n    Io(String),\n    Ghost(String),\n    Unmatched(String),\n}\n\
         pub fn fail() -> RunError { RunError::Io(String::new()) }\n\
         pub fn constructed_only() -> RunError { RunError::Unmatched(String::new()) }\n\
         pub fn show(e: &RunError) -> u32 {\n    match e {\n        RunError::Io(_) => 1,\n        RunError::Ghost(_) => 2,\n        _ => 3,\n    }\n}\n",
    )]);
    // `Io` is constructed and matched; `Ghost` is matched but never
    // constructed; `Unmatched` is constructed but never matched.
    assert_eq!(rules_hit(&findings), vec![ANOMALY_EXHAUSTIVE; 2]);
    assert!(findings[0].message.contains("Ghost"));
    assert!(findings[0].message.contains("never constructed"));
    assert!(findings[1].message.contains("Unmatched"));
    assert!(findings[1].message.contains("never matched"));
}

#[test]
fn anomaly_exhaustive_covers_shard_error_variants() {
    // The service front-end's `ShardError` is held to the same contract
    // as `RunError`, from its own defining file.
    let findings = lint(&[(
        "crates/service/src/error.rs",
        "pub enum ShardError {\n    BadPartition { capacity: usize },\n    Ghost { shard: usize },\n}\n\
         pub fn fail() -> ShardError { ShardError::BadPartition { capacity: 0 } }\n\
         pub fn show(e: &ShardError) -> u32 {\n    match e {\n        ShardError::BadPartition { .. } => 1,\n        ShardError::Ghost { .. } => 2,\n    }\n}\n",
    )]);
    // `BadPartition` is constructed and matched; `Ghost` is matched but
    // never constructed.
    assert_eq!(rules_hit(&findings), vec![ANOMALY_EXHAUSTIVE]);
    assert!(findings[0].message.contains("ShardError::Ghost"));
    assert!(findings[0].message.contains("never constructed"));
}

// ---------------------------------------------------------------- wire-schema

fn wire_workspace() -> Vec<(String, String)> {
    [
        (
            "crates/runtime/src/wire.rs",
            "pub const MAX_SEQ_LEN: u64 = 1 << 26;\npub const WIRE_FORMAT_VERSION: u64 = 2;\n",
        ),
        (
            "crates/runtime/src/frame.rs",
            "pub const MAX_FRAME_LEN: u64 = 1 << 28;\n",
        ),
        (
            "crates/core/src/messages.rs",
            "pub const TAG_INIT: u8 = 0;\npub enum BilMsg {\n    Init,\n}\n",
        ),
        (
            "crates/runtime/tests/wire_fixtures.rs",
            "fn pins() { check(Init); }\n",
        ),
    ]
    .into_iter()
    .map(|(p, c)| (p.to_string(), c.to_string()))
    .collect()
}

fn current_schema(files: &[(String, String)]) -> String {
    let stripped: std::collections::BTreeMap<&str, bil_lint::lexer::Stripped> = files
        .iter()
        .map(|(p, c)| (p.as_str(), bil_lint::lexer::strip(c)))
        .collect();
    bil_lint::schema::extract(&stripped).expect("wire workspace has a schema")
}

#[test]
fn wire_schema_flags_missing_lockfile() {
    let files = wire_workspace();
    let findings = lint_sources_with_lockfile(&files, None);
    assert_eq!(rules_hit(&findings), vec![WIRE_SCHEMA]);
    assert_eq!(findings[0].file, "wire.schema.lock");
    assert!(findings[0].message.contains("--emit-schema"));
}

#[test]
fn wire_schema_clean_when_lockfile_matches() {
    let files = wire_workspace();
    let lock = current_schema(&files);
    let findings = lint_sources_with_lockfile(&files, Some(&lock));
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn wire_schema_drift_without_version_bump_fails() {
    let files = wire_workspace();
    let lock = current_schema(&files).replace("1 << 26", "1 << 24");
    let findings = lint_sources_with_lockfile(&files, Some(&lock));
    assert_eq!(rules_hit(&findings), vec![WIRE_SCHEMA]);
    assert!(findings[0]
        .message
        .contains("without a WIRE_FORMAT_VERSION bump"));
}

#[test]
fn wire_schema_stale_lockfile_after_version_bump_fails() {
    let files = wire_workspace();
    let lock = current_schema(&files).replace("wire-format-version = 2", "wire-format-version = 1");
    let findings = lint_sources_with_lockfile(&files, Some(&lock));
    assert_eq!(rules_hit(&findings), vec![WIRE_SCHEMA]);
    assert!(findings[0].message.contains("regenerate"));
}

#[test]
fn wire_schema_is_not_pragma_suppressible() {
    // A pragma naming wire-schema is itself an unknown-rule finding.
    let findings = lint(&[(
        "crates/core/src/scratch.rs",
        "// bil-lint: allow(wire-schema): cannot be excused\nfn f() {}\n",
    )]);
    assert_eq!(rules_hit(&findings), vec![UNUSED_ALLOW]);
    assert!(findings[0].message.contains("unknown rule"));
}

// ------------------------------------------------------------------- ordering

#[test]
fn findings_are_sorted_by_file_line_rule() {
    let findings = lint(&[
        (
            "crates/runtime/src/frame.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        ),
        (
            "crates/core/src/scratch.rs",
            "use std::collections::HashMap;\n",
        ),
    ]);
    let keys: Vec<(&str, usize)> = findings.iter().map(|f| (f.file.as_str(), f.line)).collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
    assert_eq!(findings.len(), 2);
}
