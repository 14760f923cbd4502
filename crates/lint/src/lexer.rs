//! A lightweight Rust lexer for invariant checking.
//!
//! This is deliberately **not** a parser: the rules in [`crate::rules`]
//! are lexical (forbidden tokens in scoped regions), so all the checker
//! needs is source text with everything that *isn't* code blanked out —
//! comments, string/char literal contents — plus two per-line facts:
//! which lines sit inside test-only regions (`#[cfg(test)]` items, `mod
//! tests` bodies), and which `// bil-lint: allow(rule)` pragmas appear.
//!
//! Blanking preserves byte offsets and line structure exactly: the
//! stripped text has the same length and the same newlines as the input,
//! so a match offset in the stripped text maps straight back to a
//! `file:line` diagnostic.

/// One `// bil-lint: allow(<rule>)` pragma.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pragma {
    /// 1-based line the pragma comment appears on.
    pub line: usize,
    /// The rule name inside `allow(...)`, verbatim.
    pub rule: String,
    /// Whether the pragma carries the `fn` scope token
    /// (`allow(<rule>, fn)`): it suppresses findings for the whole body
    /// of the `fn` declared directly below it.
    pub fn_scope: bool,
    /// Whether a non-empty justification follows the closing paren
    /// (`allow(<rule>): <why>`). Unjustified pragmas suppress nothing
    /// and are themselves reported.
    pub justified: bool,
}

/// A source file after lexical stripping.
#[derive(Debug)]
pub struct Stripped {
    /// The source with comment and literal contents blanked to spaces.
    /// Same byte length and newline positions as the input.
    pub code: String,
    /// Byte offset in [`Stripped::code`] where each line starts
    /// (`line_starts[0] == 0`; 0-based index is line number minus one).
    pub line_starts: Vec<usize>,
    /// For each line (0-based), whether it lies inside a test-only
    /// region: a `#[cfg(test)]` item or a `mod tests { ... }` body.
    pub test_lines: Vec<bool>,
    /// Every lint pragma found in comments, in source order.
    pub pragmas: Vec<Pragma>,
}

impl Stripped {
    /// The 1-based line containing byte offset `off` of `code`.
    pub fn line_of(&self, off: usize) -> usize {
        match self.line_starts.binary_search(&off) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// Whether 1-based `line` is inside a test-only region.
    pub fn is_test_line(&self, line: usize) -> bool {
        self.test_lines
            .get(line.wrapping_sub(1))
            .copied()
            .unwrap_or(false)
    }

    /// The [`word_occurrences`] of `needle` in [`Stripped::code`] outside
    /// test-only regions, as `(offset, 1-based line)`.
    pub(crate) fn code_hits(&self, needle: &str) -> impl Iterator<Item = (usize, usize)> + '_ {
        word_occurrences(&self.code, needle)
            .into_iter()
            .map(|off| (off, self.line_of(off)))
            .filter(|&(_, line)| !self.is_test_line(line))
    }
}

/// Lexer state: what kind of region the cursor is inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    /// Nested depth of `/* ... */`.
    BlockComment(u32),
    /// Inside `"..."`; `true` right after a backslash.
    Str(bool),
    /// Inside `r##"..."##` with this many hashes.
    RawStr(u32),
    /// Inside `'...'`; `true` right after a backslash.
    CharLit(bool),
}

/// Strips `src` and extracts pragmas and test regions.
pub fn strip(src: &str) -> Stripped {
    let bytes = src.as_bytes();
    let mut code = Vec::with_capacity(bytes.len());
    let mut state = State::Code;
    let mut comment = String::new();
    let mut pragmas = Vec::new();
    let mut line = 1usize;

    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            if state == State::LineComment {
                parse_pragmas(&comment, line, &mut pragmas);
                comment.clear();
                state = State::Code;
            }
            // A backslash directly before a newline is a string
            // continuation: the escape consumes the newline itself, so
            // the next character is *not* escaped (`"\` + newline + `"`
            // closes the string). Leaving the escape flag set would keep
            // the string open and desync everything after it.
            if state == State::Str(true) {
                state = State::Str(false);
            }
            code.push(b'\n');
            line += 1;
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    code.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    code.extend_from_slice(b"  ");
                    i += 2;
                } else if let Some(hashes) = raw_string_at(bytes, i) {
                    // Blank the whole opener (`r`/`br` + hashes + quote).
                    let opener = raw_opener_len(bytes, i);
                    code.resize(code.len() + opener, b' ');
                    i += opener;
                    state = State::RawStr(hashes);
                } else if b == b'"' || (b == b'b' && bytes.get(i + 1) == Some(&b'"')) {
                    let skip = if b == b'b' { 2 } else { 1 };
                    code.resize(code.len() + skip, b' ');
                    i += skip;
                    state = State::Str(false);
                } else if b == b'\'' && char_literal_at(bytes, i) {
                    code.push(b' ');
                    i += 1;
                    state = State::CharLit(false);
                } else {
                    code.push(b);
                    i += 1;
                }
            }
            State::LineComment => {
                comment.push(b as char);
                code.push(b' ');
                i += 1;
            }
            State::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    code.extend_from_slice(b"  ");
                    i += 2;
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    code.extend_from_slice(b"  ");
                    i += 2;
                    state = State::BlockComment(depth + 1);
                } else {
                    code.push(b' ');
                    i += 1;
                }
            }
            State::Str(escaped) => {
                if escaped {
                    state = State::Str(false);
                } else if b == b'\\' {
                    state = State::Str(true);
                } else if b == b'"' {
                    state = State::Code;
                }
                code.push(b' ');
                i += 1;
            }
            State::RawStr(hashes) => {
                if b == b'"' && has_hashes(bytes, i + 1, hashes) {
                    code.resize(code.len() + 1 + hashes as usize, b' ');
                    i += 1 + hashes as usize;
                    state = State::Code;
                } else {
                    code.push(b' ');
                    i += 1;
                }
            }
            State::CharLit(escaped) => {
                if escaped {
                    state = State::CharLit(false);
                } else if b == b'\\' {
                    state = State::CharLit(true);
                } else if b == b'\'' {
                    state = State::Code;
                }
                code.push(b' ');
                i += 1;
            }
        }
    }
    if state == State::LineComment {
        parse_pragmas(&comment, line, &mut pragmas);
    }

    let code = String::from_utf8(code).expect("stripped text is ASCII-blanked input");
    let line_starts = compute_line_starts(&code);
    let test_lines = mark_test_regions(&code, &line_starts);
    Stripped {
        code,
        line_starts,
        test_lines,
        pragmas,
    }
}

/// Number of hashes if a raw string literal (`r"`, `r#"`, `br##"`, ...)
/// starts at `i`; `None` otherwise.
fn raw_string_at(bytes: &[u8], i: usize) -> Option<u32> {
    // `r` must not be the tail of an identifier (`var"` cannot occur, but
    // `_r"`-like identifier tails could false-positive).
    if i > 0 && is_ident_byte(bytes[i - 1]) {
        return None;
    }
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    if bytes.get(j) != Some(&b'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&b'"')).then_some(hashes)
}

/// Byte length of the raw-string opener starting at `i` (prefix, hashes,
/// and the opening quote). Only called after [`raw_string_at`] matched.
fn raw_opener_len(bytes: &[u8], i: usize) -> usize {
    let mut j = i;
    if bytes.get(j) == Some(&b'b') {
        j += 1;
    }
    j += 1; // the `r`
    while bytes.get(j) == Some(&b'#') {
        j += 1;
    }
    j + 1 - i // the quote
}

fn has_hashes(bytes: &[u8], from: usize, hashes: u32) -> bool {
    (0..hashes as usize).all(|k| bytes.get(from + k) == Some(&b'#'))
}

/// Whether the `'` at `i` opens a char literal (vs a lifetime).
fn char_literal_at(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(b'\\') => true,
        // `'x'` is a char literal; `'x` (no closing quote) is a lifetime.
        Some(_) => bytes.get(i + 2) == Some(&b'\''),
        None => false,
    }
}

/// Whether `b` can appear in an identifier (ASCII letters, digits, `_`).
pub(crate) fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Extracts `bil-lint: allow(rule1, rule2)` pragmas from one comment.
///
/// The pragma must be the *start* of the comment text (as in
/// `code(); // bil-lint: allow(x): why`), so doc comments and prose that
/// merely mention the syntax mid-sentence are not pragmas. A trailing
/// `fn` token inside the parens (`allow(rule, fn)`) marks the pragma
/// function-scoped rather than naming a rule, and a non-empty text after
/// `): ` is the justification.
fn parse_pragmas(comment: &str, line: usize, out: &mut Vec<Pragma>) {
    let trimmed = comment.trim_start();
    if !trimmed.starts_with("bil-lint:") {
        return;
    }
    let rest = &trimmed["bil-lint:".len()..];
    let Some(open) = rest.find("allow(") else {
        return;
    };
    let rest = &rest[open + "allow(".len()..];
    let Some(close) = rest.find(')') else {
        return;
    };
    let justified = rest[close + 1..]
        .trim_start()
        .strip_prefix(':')
        .is_some_and(|why| !why.trim().is_empty());
    let tokens: Vec<&str> = rest[..close]
        .split(',')
        .map(str::trim)
        .filter(|t| !t.is_empty())
        .collect();
    let fn_scope = tokens.contains(&"fn");
    for rule in tokens {
        if rule == "fn" {
            continue;
        }
        out.push(Pragma {
            line,
            rule: rule.to_string(),
            fn_scope,
            justified,
        });
    }
}

fn compute_line_starts(code: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (i, b) in code.bytes().enumerate() {
        if b == b'\n' {
            starts.push(i + 1);
        }
    }
    starts
}

/// Marks lines inside `#[cfg(test)]` items and `mod tests { ... }`
/// bodies. Works on stripped text, so braces in strings or comments
/// cannot confuse the depth tracking.
fn mark_test_regions(code: &str, line_starts: &[usize]) -> Vec<bool> {
    let n_lines = line_starts.len();
    let mut test = vec![false; n_lines];
    let mut depth: i64 = 0;
    // Depths at which an open test region's body started; the region
    // closes when `}` returns to that depth.
    let mut regions: Vec<i64> = Vec::new();
    // A `#[cfg(test)]` attribute (or `mod tests` header) was seen and
    // its item body has not opened yet.
    let mut pending = false;

    for (li, lt) in test.iter_mut().enumerate() {
        let start = line_starts[li];
        let end = line_starts.get(li + 1).copied().unwrap_or(code.len());
        let line_txt = &code[start..end];

        if line_is_cfg_test(line_txt) || line_opens_mod_tests(line_txt) {
            pending = true;
        }
        let mut line_in_test = pending || !regions.is_empty();
        for b in line_txt.bytes() {
            match b {
                b'{' => {
                    if pending {
                        regions.push(depth);
                        pending = false;
                    }
                    depth += 1;
                }
                b'}' => {
                    depth -= 1;
                    if regions.last() == Some(&depth) {
                        regions.pop();
                        line_in_test = true;
                    }
                }
                // A braceless `#[cfg(test)]` item (a `use`, say) ends at
                // the semicolon.
                b';' if pending && regions.is_empty() => {
                    pending = false;
                    line_in_test = true;
                }
                _ => {}
            }
        }
        *lt = line_in_test || !regions.is_empty();
    }
    test
}

/// Whether a stripped line carries a `#[cfg(test)]`-style attribute.
fn line_is_cfg_test(line: &str) -> bool {
    let squashed: String = line.chars().filter(|c| !c.is_whitespace()).collect();
    squashed.contains("cfg(test)")
        || squashed.contains("cfg(all(test")
        || squashed.contains("cfg(any(test")
}

/// Whether a stripped line opens a `mod tests` item.
fn line_opens_mod_tests(line: &str) -> bool {
    let mut words = line
        .split(|c: char| !c.is_alphanumeric() && c != '_')
        .filter(|w| !w.is_empty());
    while let Some(w) = words.next() {
        if w == "mod" {
            return words.next() == Some("tests");
        }
    }
    false
}

/// Finds occurrences of `needle` in `hay` that stand alone as a word:
/// an identifier byte may not abut an identifier end of the needle (a
/// needle edge that is itself punctuation, like the `.` of `.unwrap(`,
/// needs no boundary on that side). Returns byte offsets.
pub fn word_occurrences(hay: &str, needle: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let hb = hay.as_bytes();
    let nb = needle.as_bytes();
    let (first_ident, last_ident) = match (nb.first(), nb.last()) {
        (Some(&f), Some(&l)) => (is_ident_byte(f), is_ident_byte(l)),
        _ => return out,
    };
    let mut from = 0;
    while let Some(pos) = hay[from..].find(needle) {
        let at = from + pos;
        let before_ok = !first_ident || at == 0 || !is_ident_byte(hb[at - 1]);
        let after = at + needle.len();
        let after_ok = !last_ident || after >= hb.len() || !is_ident_byte(hb[after]);
        if before_ok && after_ok {
            out.push(at);
        }
        from = at + needle.len().max(1);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_blanked() {
        let src = "let x = \"unwrap()\"; // .unwrap() in a comment\nlet y = 1;\n";
        let s = strip(src);
        assert_eq!(s.code.len(), src.len());
        assert!(!s.code.contains("unwrap"));
        assert!(s.code.contains("let y = 1;"));
    }

    #[test]
    fn raw_strings_are_blanked() {
        let src = "let x = r#\"panic!(\"boom\")\"#; let z = 2;";
        let s = strip(src);
        assert!(!s.code.contains("panic"));
        assert!(s.code.contains("let z = 2;"));
    }

    #[test]
    fn char_literals_do_not_eat_lifetimes() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }";
        let s = strip(src);
        assert!(s.code.contains("fn f<'a>(x: &'a str)"));
        assert!(!s.code.contains("'x'"));
    }

    #[test]
    fn nested_block_comments_close_correctly() {
        let src = "/* outer /* inner */ still comment */ let a = 1;";
        let s = strip(src);
        assert!(!s.code.contains("comment"));
        assert!(s.code.contains("let a = 1;"));
    }

    #[test]
    fn pragmas_are_captured_with_lines() {
        let src = "let a = 1; // bil-lint: allow(no-panic): reason\n// bil-lint: allow(determinism, unsafe-code)\n";
        let s = strip(src);
        assert_eq!(
            s.pragmas,
            vec![
                Pragma {
                    line: 1,
                    rule: "no-panic".into(),
                    fn_scope: false,
                    justified: true,
                },
                Pragma {
                    line: 2,
                    rule: "determinism".into(),
                    fn_scope: false,
                    justified: false,
                },
                Pragma {
                    line: 2,
                    rule: "unsafe-code".into(),
                    fn_scope: false,
                    justified: false,
                },
            ]
        );
    }

    #[test]
    fn fn_scope_pragmas_are_parsed() {
        let src = "// bil-lint: allow(no-panic, fn): whole body is validated\nfn f() {}\n";
        let s = strip(src);
        assert_eq!(
            s.pragmas,
            vec![Pragma {
                line: 1,
                rule: "no-panic".into(),
                fn_scope: true,
                justified: true,
            }]
        );
    }

    #[test]
    fn empty_justification_is_not_justified() {
        let src = "// bil-lint: allow(no-panic):   \n";
        let s = strip(src);
        assert_eq!(s.pragmas.len(), 1);
        assert!(!s.pragmas[0].justified);
    }

    #[test]
    fn cfg_test_mod_region_is_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\nfn live2() {}\n";
        let s = strip(src);
        assert!(!s.is_test_line(1));
        assert!(s.is_test_line(2));
        assert!(s.is_test_line(3));
        assert!(s.is_test_line(4));
        assert!(s.is_test_line(5));
        assert!(!s.is_test_line(6));
    }

    #[test]
    fn bare_mod_tests_region_is_marked() {
        let src = "mod tests {\n    fn t() {}\n}\nfn live() {}\n";
        let s = strip(src);
        assert!(s.is_test_line(1));
        assert!(s.is_test_line(2));
        assert!(!s.is_test_line(4));
    }

    #[test]
    fn cfg_test_on_braceless_item_ends_at_semicolon() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn live() {}\n";
        let s = strip(src);
        assert!(s.is_test_line(2));
        assert!(!s.is_test_line(3));
    }

    #[test]
    fn word_occurrences_respect_boundaries() {
        assert_eq!(word_occurrences("unsafe_code unsafe x", "unsafe"), vec![12]);
        assert_eq!(word_occurrences("a.unwrap()", ".unwrap("), vec![1]);
    }

    #[test]
    fn line_of_maps_offsets() {
        let s = strip("a\nbb\nccc\n");
        assert_eq!(s.line_of(0), 1);
        assert_eq!(s.line_of(2), 2);
        assert_eq!(s.line_of(5), 3);
    }

    /// Blanking must preserve byte length and newline positions exactly,
    /// or every downstream `file:line` diagnostic desyncs.
    fn assert_offsets_preserved(src: &str) {
        let s = strip(src);
        assert_eq!(s.code.len(), src.len(), "length changed for {src:?}");
        let src_newlines: Vec<usize> = src
            .bytes()
            .enumerate()
            .filter_map(|(i, b)| (b == b'\n').then_some(i))
            .collect();
        let out_newlines: Vec<usize> = s
            .code
            .bytes()
            .enumerate()
            .filter_map(|(i, b)| (b == b'\n').then_some(i))
            .collect();
        assert_eq!(src_newlines, out_newlines, "newlines moved for {src:?}");
    }

    #[test]
    fn deeply_nested_block_comments_stay_in_sync() {
        let src = "/* a /* b /* c */ b */ a */ let x = 1;\n/* /*\n*/ unwrap */ let y = 2;\n";
        let s = strip(src);
        assert_offsets_preserved(src);
        assert!(!s.code.contains("unwrap"));
        assert!(s.code.contains("let x = 1;"));
        assert!(s.code.contains("let y = 2;"));
    }

    #[test]
    fn multi_hash_raw_strings_stay_in_sync() {
        // The `"#` inside the r## string must not close it early.
        let src = "let a = r##\"panic!(\"#\") .unwrap()\"##; let tail = 3;\n";
        let s = strip(src);
        assert_offsets_preserved(src);
        assert!(!s.code.contains("panic"));
        assert!(!s.code.contains("unwrap"));
        assert!(s.code.contains("let tail = 3;"));
    }

    #[test]
    fn byte_raw_strings_with_hashes_stay_in_sync() {
        let src = "let a = br###\"x\"## .expect()\"###; let tail = 4;\n";
        let s = strip(src);
        assert_offsets_preserved(src);
        assert!(!s.code.contains("expect"));
        assert!(s.code.contains("let tail = 4;"));
    }

    #[test]
    fn multiline_raw_strings_keep_line_numbers() {
        let src = "let a = r#\"line one\nline .unwrap() two\n\"#;\nlet b = 1; // bil-lint: allow(no-panic): after the raw string\n";
        let s = strip(src);
        assert_offsets_preserved(src);
        assert!(!s.code.contains("unwrap"));
        // The pragma after the multi-line raw string lands on line 4.
        assert_eq!(s.pragmas.len(), 1);
        assert_eq!(s.pragmas[0].line, 4);
    }

    #[test]
    fn string_continuation_escape_does_not_swallow_the_closing_quote() {
        // `"\` + newline + `"` is a complete (empty-ish) string literal:
        // the escape consumes the newline, so the `"` on the next line
        // closes it. The code after must survive stripping.
        let src = "let s = \"\\\n\"; let live = x.unwrap();\n";
        let s = strip(src);
        assert_offsets_preserved(src);
        assert!(
            s.code.contains(".unwrap("),
            "code after the string was eaten"
        );
    }

    #[test]
    fn unterminated_nested_comment_blanks_to_eof() {
        let src = "/* open /* still open */ let a = 1;\nlet b = 2;\n";
        let s = strip(src);
        assert_offsets_preserved(src);
        // Depth never returns to zero: everything stays blanked.
        assert!(!s.code.contains("let a"));
        assert!(!s.code.contains("let b"));
    }
}
