//! An approximate workspace call graph over stripped sources.
//!
//! The transitive hot-path rules in [`crate::rules`] need to know which
//! functions are *reachable* from the per-round kernel and the wire
//! codec — a property no file-local token scan can see. This module
//! extracts `fn` items (with `impl`-block owner tracking) and heuristic
//! call edges from the stripped text of every in-scope file, then runs a
//! BFS whose parent pointers reconstruct a human-readable call path for
//! each finding (`root → f → g → finding`). The `fn` items and their
//! body spans come from the crate's one item scanner, the same spans the
//! rules scope pragmas and casts by.
//!
//! The extraction is deliberately lexical, like the rest of `bil-lint`:
//!
//! * a call site is an identifier directly followed by `(` (so macros —
//!   `ident!(` — are skipped automatically, the `!` breaks adjacency);
//! * `Type::name(...)` resolves only to `fn name` items inside
//!   `impl Type` blocks (`Self::` resolves against the caller's own
//!   `impl`); a qualifier matching no workspace `impl` produces no edge,
//!   so `BTreeMap::new(...)` does not alias every workspace `new`;
//! * `.name(...)` method calls resolve to *any* workspace fn of that
//!   name (receiver types are unknown) — a deliberate over-approximation
//!   in the direction that catches more, not fewer, violations;
//! * bare `name(...)` calls resolve to free functions only;
//! * argument spans of `debug_assert*!` macros are blanked before call
//!   extraction: debug-only code is compiled out of the release hot
//!   path, so it must not drag `validate()`-style checkers into the
//!   reachable set.
//!
//! Nodes are restricted by the caller-supplied scope filter and never
//! include test-region functions.

use crate::items::{fn_spans, ident_end, match_delim, skip_ws};
use crate::lexer::{is_ident_byte, word_occurrences, Stripped};

/// One `fn` item in the graph.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Index into [`CallGraph::files`].
    pub file: usize,
    /// The function's name.
    pub name: String,
    /// The type name of the enclosing `impl` block, if any.
    pub owner: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Byte offset of the `fn` keyword in the stripped text.
    pub decl: usize,
    /// Byte span `[start, end)` of the `{ ... }` body in the stripped
    /// text.
    pub body: (usize, usize),
}

impl FnItem {
    /// `Owner::name` when the fn lives in an impl block, else `name`.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(owner) => format!("{owner}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// The approximate call graph of one source set.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Workspace-relative paths of the files that contributed nodes.
    pub files: Vec<String>,
    /// Every in-scope, non-test `fn` item.
    pub fns: Vec<FnItem>,
    /// Resolved `(caller, callee)` edges into [`CallGraph::fns`],
    /// deduplicated, in deterministic (file, offset) order.
    pub edges: Vec<(usize, usize)>,
}

/// An unresolved call site: how the callee name was qualified.
#[derive(Debug, PartialEq, Eq)]
enum Qualifier {
    /// `name(...)` — a free-function call.
    Bare,
    /// `.name(...)` — a method call on an unknown receiver.
    Method,
    /// `Type::name(...)`, with `Self` already substituted.
    Type(String),
}

/// Builds the call graph over `files` (path → stripped source, already
/// sorted by path). Only files accepted by `in_scope` contribute nodes;
/// functions on test lines are excluded.
pub fn build<F>(files: &[(&str, &Stripped)], in_scope: F) -> CallGraph
where
    F: Fn(&str) -> bool,
{
    let mut graph = CallGraph::default();
    let mut calls: Vec<(usize, String, Qualifier)> = Vec::new();

    for (path, s) in files {
        if !in_scope(path) {
            continue;
        }
        let file_idx = graph.files.len();
        graph.files.push((*path).to_string());
        let impls = impl_spans(&s.code);
        let first_fn = graph.fns.len();
        collect_fns(file_idx, s, &impls, &mut graph.fns);
        let masked = mask_debug_asserts(&s.code);
        for fn_idx in first_fn..graph.fns.len() {
            // Attribute each call to its *innermost* enclosing fn, so a
            // nested fn's calls are not double-counted for the outer.
            let (start, end) = graph.fns[fn_idx].body;
            let inner: Vec<(usize, usize)> = graph.fns[first_fn..graph.fns.len()]
                .iter()
                .filter(|f| f.body.0 > start && f.body.1 <= end)
                .map(|f| f.body)
                .collect();
            collect_calls(&masked, start, end, &inner, fn_idx, &graph.fns, &mut calls);
        }
    }

    resolve(&mut graph, calls);
    graph
}

/// `impl` block spans: `(type name, body_start, body_end)`.
fn impl_spans(code: &str) -> Vec<(String, usize, usize)> {
    let bytes = code.as_bytes();
    let mut spans = Vec::new();
    for off in word_occurrences(code, "impl") {
        let Some(open_rel) = code[off..].find('{') else {
            continue;
        };
        let open = off + open_rel;
        let header = &code[off + "impl".len()..open];
        let Some(owner) = impl_owner(header) else {
            continue;
        };
        spans.push((owner, open, match_delim(bytes, open)));
    }
    spans
}

/// The implemented type's name from an `impl` header (the text between
/// the `impl` keyword and the body brace): the last path segment of the
/// self type, generics stripped. `impl<T> Frob for Tree<T>` → `Tree`.
fn impl_owner(header: &str) -> Option<String> {
    // Drop the generic parameter list directly after `impl`, if any.
    let mut rest = header.trim_start();
    if rest.starts_with('<') {
        rest = &rest[match_delim(rest.as_bytes(), 0)..];
    }
    // `Trait for Type` → the self type is after the top-level ` for `.
    let ty = match split_top_level_for(rest) {
        Some(after) => after,
        None => rest,
    };
    let ty = ty.trim().trim_start_matches('&').trim_start_matches("dyn ");
    let ty = ty.split('<').next().unwrap_or(ty);
    let name = ty.rsplit("::").next().unwrap_or(ty).trim();
    let valid = !name.is_empty() && name.bytes().all(is_ident_byte);
    valid.then(|| name.to_string())
}

/// The text after a ` for ` that sits at angle-bracket depth 0 (so
/// `impl From<for_like<X>> for Y` still splits at the right place).
fn split_top_level_for(header: &str) -> Option<&str> {
    let bytes = header.as_bytes();
    for off in word_occurrences(header, "for") {
        let mut depth = 0i64;
        for &b in &bytes[..off] {
            match b {
                b'<' => depth += 1,
                b'>' => depth -= 1,
                _ => {}
            }
        }
        if depth == 0 {
            return Some(&header[off + 3..]);
        }
    }
    None
}

/// Extracts every bodied, non-test `fn` item of one file.
fn collect_fns(
    file_idx: usize,
    s: &Stripped,
    impls: &[(String, usize, usize)],
    out: &mut Vec<FnItem>,
) {
    for f in fn_spans(&s.code) {
        let line = s.line_of(f.decl);
        if s.is_test_line(line) {
            continue;
        }
        let owner = impls
            .iter()
            .filter(|(_, s_, e_)| (*s_..*e_).contains(&f.decl))
            .max_by_key(|(_, s_, _)| *s_)
            .map(|(name, _, _)| name.clone());
        out.push(FnItem {
            file: file_idx,
            name: f.name.to_string(),
            owner,
            line,
            decl: f.decl,
            body: f.body,
        });
    }
}

/// Blanks the argument span of every `debug_assert*!` macro invocation:
/// debug-only checks compile out of the release hot path, so functions
/// they call must not enter the reachable set.
fn mask_debug_asserts(code: &str) -> String {
    let mut masked = code.as_bytes().to_vec();
    for off in word_occurrences(code, "debug_assert") {
        // Find the macro's opening delimiter past the `!` (and past the
        // `_eq`/`_ne` suffixes, which `word_occurrences` already allows
        // for via the boundary rules — so re-scan from the match).
        let mut j = off;
        while j < masked.len() && masked[j] != b'(' && masked[j] != b'\n' {
            j += 1;
        }
        if j >= masked.len() || masked[j] != b'(' {
            continue;
        }
        let end = match_delim(&masked, j);
        for b in &mut masked[j..end] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }
    String::from_utf8(masked).expect("masking is ASCII-preserving")
}

/// Keywords and value constructors that look like `ident(` but are
/// never workspace function calls.
const NOT_CALLS: &[&str] = &[
    "fn", "if", "while", "for", "match", "return", "loop", "in", "as", "let", "else", "move",
    "mut", "ref", "pub", "use", "where", "impl", "dyn", "unsafe", "Some", "None", "Ok", "Err",
];

/// Scans `[start, end)` of `masked` (minus the nested-fn spans in
/// `inner`) for call sites attributed to `caller`.
fn collect_calls(
    masked: &str,
    start: usize,
    end: usize,
    inner: &[(usize, usize)],
    caller: usize,
    fns: &[FnItem],
    out: &mut Vec<(usize, String, Qualifier)>,
) {
    let bytes = masked.as_bytes();
    let mut i = start;
    while i < end {
        if let Some(&(_, inner_end)) = inner.iter().find(|(s_, e_)| *s_ <= i && i < *e_) {
            i = inner_end;
            continue;
        }
        let b = bytes[i];
        if !(b.is_ascii_alphabetic() || b == b'_') || (i > 0 && is_ident_byte(bytes[i - 1])) {
            i += 1;
            continue;
        }
        let ident_start = i;
        i = ident_end(bytes, i);
        let ident = &masked[ident_start..i];
        // A call site is an identifier *directly* followed by `(`
        // (whitespace allowed); `ident!`, `ident::<`, `ident {` are not.
        let j = skip_ws(bytes, i);
        if j >= end || bytes[j] != b'(' || NOT_CALLS.contains(&ident) {
            continue;
        }
        // A definition, not a call: `fn ident(`.
        if preceded_by_word(bytes, ident_start, b"fn") {
            continue;
        }
        let qual = qualifier_of(masked, ident_start, caller, fns);
        out.push((caller, ident.to_string(), qual));
    }
}

/// Whether the last word before `at` (skipping whitespace) is `word`.
fn preceded_by_word(bytes: &[u8], at: usize, word: &[u8]) -> bool {
    let mut k = at;
    while k > 0 && bytes[k - 1].is_ascii_whitespace() {
        k -= 1;
    }
    k >= word.len()
        && &bytes[k - word.len()..k] == word
        && (k == word.len() || !is_ident_byte(bytes[k - word.len() - 1]))
}

/// How the identifier starting at `ident_start` is qualified.
fn qualifier_of(masked: &str, ident_start: usize, caller: usize, fns: &[FnItem]) -> Qualifier {
    let bytes = masked.as_bytes();
    let mut k = ident_start;
    while k > 0 && bytes[k - 1].is_ascii_whitespace() {
        k -= 1;
    }
    if k > 0 && bytes[k - 1] == b'.' {
        return Qualifier::Method;
    }
    if k >= 2 && &bytes[k - 2..k] == b"::" {
        let seg_end = k - 2;
        let mut seg_start = seg_end;
        while seg_start > 0 && is_ident_byte(bytes[seg_start - 1]) {
            seg_start -= 1;
        }
        let seg = &masked[seg_start..seg_end];
        // Skip closing generics: `Tree::<T>::walk(` has `>` before `::`
        // — treat as an (unresolvable) type call rather than bare.
        if seg.is_empty() {
            return Qualifier::Type(String::new());
        }
        if seg == "Self" {
            return match &fns[caller].owner {
                Some(owner) => Qualifier::Type(owner.clone()),
                None => Qualifier::Type(String::new()),
            };
        }
        // An uppercase segment is a type qualifier and is authoritative;
        // a lowercase one is a module path — the call is a free-fn call.
        if seg.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            return Qualifier::Type(seg.to_string());
        }
        return Qualifier::Bare;
    }
    Qualifier::Bare
}

/// Resolves raw call sites against the global item index into edges.
fn resolve(graph: &mut CallGraph, calls: Vec<(usize, String, Qualifier)>) {
    use std::collections::BTreeMap;
    let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (idx, f) in graph.fns.iter().enumerate() {
        by_name.entry(f.name.as_str()).or_default().push(idx);
    }
    let mut seen = std::collections::BTreeSet::new();
    for (caller, name, qual) in &calls {
        let Some(candidates) = by_name.get(name.as_str()) else {
            continue;
        };
        for &callee in candidates {
            let owner = graph.fns[callee].owner.as_deref();
            let matches = match qual {
                Qualifier::Method => true,
                Qualifier::Type(ty) => owner == Some(ty.as_str()),
                Qualifier::Bare => owner.is_none(),
            };
            if matches && seen.insert((*caller, callee)) {
                graph.edges.push((*caller, callee));
            }
        }
    }
}

/// The result of a reachability pass: BFS tree over [`CallGraph::edges`]
/// from a root set, with parent pointers for call-path rendering.
#[derive(Debug)]
pub struct Reach {
    /// For each fn index: `Some(parent fn)` if reached through an edge,
    /// `Some(self)` has no meaning — roots carry `None` parents but are
    /// marked reached.
    parent: Vec<Option<usize>>,
    reached: Vec<bool>,
}

impl Reach {
    /// Whether `fn_idx` is reachable from the root set.
    pub fn contains(&self, fn_idx: usize) -> bool {
        self.reached[fn_idx]
    }

    /// The call path `root → ... → fn_idx` as fn indices.
    pub fn chain(&self, fn_idx: usize) -> Vec<usize> {
        let mut path = vec![fn_idx];
        let mut cur = fn_idx;
        while let Some(p) = self.parent[cur] {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }

    /// The call path rendered as `root → f → g`.
    pub fn chain_names(&self, graph: &CallGraph, fn_idx: usize) -> String {
        let names: Vec<String> = self
            .chain(fn_idx)
            .iter()
            .map(|&i| graph.fns[i].name.clone())
            .collect();
        names.join(" → ")
    }
}

/// BFS from `roots` over the graph's edges. Roots are visited in the
/// given order and edges in insertion order, so parent choice (and
/// therefore every rendered chain) is deterministic.
pub fn reachable(graph: &CallGraph, roots: &[usize]) -> Reach {
    reachable_where(graph, roots, |_| true)
}

/// [`reachable`], but an edge is followed only when `enter` accepts the
/// callee. Roots are always visited. This bounds the over-approximate
/// method-by-name resolution: a caller can exclude whole layers (e.g.
/// transport files whose `compose`/`apply` merely share the kernel's
/// trait-method names) from the traversal.
pub fn reachable_where(graph: &CallGraph, roots: &[usize], enter: impl Fn(usize) -> bool) -> Reach {
    let n = graph.fns.len();
    let mut reach = Reach {
        parent: vec![None; n],
        reached: vec![false; n],
    };
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in &graph.edges {
        adj[a].push(b);
    }
    let mut queue = std::collections::VecDeque::new();
    for &r in roots {
        if !reach.reached[r] {
            reach.reached[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if !reach.reached[v] && enter(v) {
                reach.reached[v] = true;
                reach.parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }
    reach
}

/// Renders the graph's edges one per line, for golden-snapshot tests:
/// `file:line caller -> file:line callee`.
pub fn render_edges(graph: &CallGraph) -> String {
    let mut lines: Vec<String> = graph
        .edges
        .iter()
        .map(|&(a, b)| {
            let (fa, fb) = (&graph.fns[a], &graph.fns[b]);
            format!(
                "{}:{} {} -> {}:{} {}",
                graph.files[fa.file],
                fa.line,
                fa.qualified(),
                graph.files[fb.file],
                fb.line,
                fb.qualified(),
            )
        })
        .collect();
    lines.sort();
    lines.push(String::new());
    lines.join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::strip;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let stripped: Vec<(&str, Stripped)> = files.iter().map(|(p, c)| (*p, strip(c))).collect();
        let refs: Vec<(&str, &Stripped)> = stripped.iter().map(|(p, s)| (*p, s)).collect();
        build(&refs, |_| true)
    }

    fn edge_names(g: &CallGraph) -> Vec<(String, String)> {
        g.edges
            .iter()
            .map(|&(a, b)| (g.fns[a].qualified(), g.fns[b].qualified()))
            .collect()
    }

    #[test]
    fn free_fn_calls_resolve_across_files() {
        let g = graph_of(&[
            ("a.rs", "pub fn top() { helper(1); }\n"),
            ("b.rs", "pub fn helper(x: u32) -> u32 { x }\n"),
        ]);
        assert_eq!(edge_names(&g), vec![("top".into(), "helper".into())]);
    }

    #[test]
    fn type_qualifier_is_authoritative() {
        let g = graph_of(&[(
            "a.rs",
            "struct T;\nimpl T {\n fn new() -> T { T }\n}\n\
             fn mk() { let _ = T::new(); let _: Vec<u32> = Vec::new(); }\n",
        )]);
        // `Vec::new` must not alias the workspace `T::new`.
        assert_eq!(edge_names(&g), vec![("mk".into(), "T::new".into())]);
    }

    #[test]
    fn self_resolves_to_enclosing_impl() {
        let g = graph_of(&[(
            "a.rs",
            "struct T;\nimpl T {\n fn a(&self) { Self::b(); }\n fn b() {}\n}\n",
        )]);
        assert_eq!(edge_names(&g), vec![("T::a".into(), "T::b".into())]);
    }

    #[test]
    fn method_calls_resolve_by_name() {
        let g = graph_of(&[(
            "a.rs",
            "struct T;\nimpl T {\n fn walk(&self) {}\n}\nfn go(t: &T) { t.walk(); }\n",
        )]);
        assert_eq!(edge_names(&g), vec![("go".into(), "T::walk".into())]);
    }

    #[test]
    fn macros_are_not_calls() {
        let g = graph_of(&[(
            "a.rs",
            "fn top() { assert!(helper()); }\nfn helper() -> bool { true }\n",
        )]);
        // `assert!` is not an edge, but its *argument* is a real call.
        assert_eq!(edge_names(&g), vec![("top".into(), "helper".into())]);
    }

    #[test]
    fn debug_assert_arguments_are_masked() {
        let g = graph_of(&[(
            "a.rs",
            "fn top() { debug_assert!(checker(), \"bad\"); }\nfn checker() -> bool { true }\n",
        )]);
        assert!(edge_names(&g).is_empty());
    }

    #[test]
    fn trait_impl_owner_is_the_self_type() {
        let g = graph_of(&[(
            "a.rs",
            "struct T;\ntrait F { fn f(&self); }\nimpl F for T {\n fn f(&self) {}\n}\n\
             fn go(t: &T) { t.f(); }\n",
        )]);
        assert_eq!(edge_names(&g), vec![("go".into(), "T::f".into())]);
    }

    #[test]
    fn test_fns_are_excluded() {
        let g = graph_of(&[(
            "a.rs",
            "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { super::live(); }\n}\n",
        )]);
        assert_eq!(g.fns.len(), 1);
        assert!(g.edges.is_empty());
    }

    #[test]
    fn nested_fn_calls_belong_to_the_inner_fn() {
        let g = graph_of(&[(
            "a.rs",
            "fn outer() {\n fn inner() { leaf(); }\n inner();\n}\nfn leaf() {}\n",
        )]);
        let names = edge_names(&g);
        assert!(names.contains(&("outer".into(), "inner".into())));
        assert!(names.contains(&("inner".into(), "leaf".into())));
        assert!(!names.contains(&("outer".into(), "leaf".into())));
    }

    #[test]
    fn reachability_chains_are_rendered() {
        let g = graph_of(&[
            ("a.rs", "pub fn root() { mid(); }\n"),
            (
                "b.rs",
                "pub fn mid() { leaf(); }\npub fn leaf() {}\npub fn stray() {}\n",
            ),
        ]);
        let root = g.fns.iter().position(|f| f.name == "root").unwrap();
        let leaf = g.fns.iter().position(|f| f.name == "leaf").unwrap();
        let stray = g.fns.iter().position(|f| f.name == "stray").unwrap();
        let reach = reachable(&g, &[root]);
        assert!(reach.contains(leaf));
        assert!(!reach.contains(stray));
        assert_eq!(reach.chain_names(&g, leaf), "root → mid → leaf");
    }
}
