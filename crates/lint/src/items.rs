//! The one item scanner over the lexer's stripped text.
//!
//! The call graph ([`crate::graph`]), the rules ([`crate::rules`]) and
//! the wire schema ([`crate::schema`]) read Rust items through this
//! module only, so they cannot disagree about where a `fn` body ends,
//! which members a braced body declares, or what a `const` is
//! initialized to. Like the rest of `bil-lint` it is lexical: in
//! stripped text every delimiter is code, so plain depth counting finds
//! the matching one.

use crate::lexer::{is_ident_byte, word_occurrences};

/// One `fn` item with a body.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FnSpan<'a> {
    /// The function's name.
    pub(crate) name: &'a str,
    /// Byte offset of the `fn` keyword.
    pub(crate) decl: usize,
    /// Byte span `[start, end)` of the `{ ... }` body.
    pub(crate) body: (usize, usize),
}

/// Every bodied `fn` item of `code`, in source order. A signature
/// contains no `{`, so the next brace opens the body; a bodyless trait
/// declaration reaches its `;` first and is skipped.
pub(crate) fn fn_spans(code: &str) -> Vec<FnSpan<'_>> {
    let bytes = code.as_bytes();
    let span = |decl: usize| {
        let name_start = skip_ws(bytes, decl + "fn".len());
        let name_end = ident_end(bytes, name_start);
        let open = name_end
            + bytes[name_end..]
                .iter()
                .position(|&b| b == b'{' || b == b';')?;
        (name_end > name_start && bytes[open] == b'{').then(|| FnSpan {
            name: &code[name_start..name_end],
            decl,
            body: (open, match_delim(bytes, open)),
        })
    };
    word_occurrences(code, "fn")
        .into_iter()
        .filter_map(span)
        .collect()
}

/// One top-level member of a braced `struct`/`enum` body: a field or a
/// variant.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Member {
    /// Byte offset where the member's name starts.
    pub(crate) start: usize,
    /// Byte offset one past the member's name.
    pub(crate) name_end: usize,
    /// Byte offset where the member's text ends: its top-level `,`, or
    /// the body's closing `}`.
    pub(crate) end: usize,
}

/// The top-level members of the braced body of the first `<keyword>
/// <name>` item of `code` (`struct Anomalies`, `enum BilMsg`), in source
/// order; empty when there is no such item. Attributes (`#[..]`) are
/// skipped, a `pub` (with any `(crate)` group) is not a member name, and
/// nested groups belong to the member they sit in.
pub(crate) fn braced_members(code: &str, keyword: &str, name: &str) -> Vec<Member> {
    let bytes = code.as_bytes();
    let Some(open) = word_occurrences(code, keyword).into_iter().find_map(|off| {
        let tail = code[off + keyword.len()..]
            .trim_start()
            .strip_prefix(name)?;
        if tail.bytes().next().is_some_and(is_ident_byte) {
            return None;
        }
        code[off..].find('{').map(|rel| off + rel)
    }) else {
        return Vec::new();
    };
    let mut members = Vec::new();
    let mut current: Option<Member> = None;
    let mut expect_member = true;
    let mut depth = 1i64;
    let mut i = open + 1;
    while i < bytes.len() && depth > 0 {
        let b = bytes[i];
        match b {
            b'{' | b'(' | b'[' => depth += 1,
            b'}' | b')' | b']' => depth -= 1,
            b',' if depth == 1 => {
                members.extend(current.take().map(|m| Member { end: i, ..m }));
                expect_member = true;
            }
            b'#' if depth == 1 && expect_member => {
                while i < bytes.len() && bytes[i] != b']' {
                    i += 1;
                }
            }
            _ if depth == 1 && expect_member && (b.is_ascii_alphabetic() || b == b'_') => {
                let name_end = ident_end(bytes, i);
                if &code[i..name_end] != "pub" {
                    // The text's end is set when the member closes.
                    current = Some(Member {
                        start: i,
                        name_end,
                        end: name_end,
                    });
                    expect_member = false;
                }
                i = name_end;
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    // The last member may lack a trailing comma; `i` now sits one past
    // the closing `}`.
    members.extend(current.map(|m| Member {
        end: i.saturating_sub(1),
        ..m
    }));
    members
}

/// One `const NAME … = init;` declaration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ConstDecl<'a> {
    /// The identifier after the `const` keyword.
    pub(crate) name: &'a str,
    /// The raw text between the first `=` after the name and the next
    /// `;`.
    pub(crate) init: &'a str,
}

/// Every `const` declaration of `code` that has an initializer, in
/// source order.
pub(crate) fn const_decls(code: &str) -> impl Iterator<Item = ConstDecl<'_>> {
    let bytes = code.as_bytes();
    word_occurrences(code, "const")
        .into_iter()
        .filter_map(move |off| {
            let start = skip_ws(bytes, off + "const".len());
            let end = ident_end(bytes, start);
            let rest = &code[end..];
            let eq = rest.find('=')?;
            let semi = eq + rest[eq..].find(';')?;
            Some(ConstDecl {
                name: &code[start..end],
                init: &rest[eq + 1..semi],
            })
        })
}

/// Offset one past the identifier bytes starting at `from`.
pub(crate) fn ident_end(bytes: &[u8], from: usize) -> usize {
    from + bytes[from..]
        .iter()
        .take_while(|&&b| is_ident_byte(b))
        .count()
}

/// Offset of the first non-whitespace byte at or after `from`.
pub(crate) fn skip_ws(bytes: &[u8], from: usize) -> usize {
    from + bytes[from..]
        .iter()
        .take_while(|b| b.is_ascii_whitespace())
        .count()
}

/// Offset one past the delimiter that closes the `{`, `(` or `<` at
/// `open`, counting only that pair; `bytes.len()` when it never closes
/// (or `open` holds no opening delimiter).
pub(crate) fn match_delim(bytes: &[u8], open: usize) -> usize {
    let (opener, closer) = match bytes.get(open) {
        Some(b'{') => (b'{', b'}'),
        Some(b'(') => (b'(', b')'),
        Some(b'<') => (b'<', b'>'),
        _ => return bytes.len(),
    };
    let mut depth = 0i64;
    for (k, &b) in bytes.iter().enumerate().skip(open) {
        if b == opener {
            depth += 1;
        } else if b == closer {
            depth -= 1;
            if depth == 0 {
                return k + 1;
            }
        }
    }
    bytes.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn match_delim_counts_one_pair_and_runs_off_the_end() {
        let code = b"f(a, (b), {c}) (open";
        assert_eq!(match_delim(code, 1), 14);
        assert_eq!(match_delim(code, 15), code.len());
        assert_eq!(match_delim(b"<T<U>> x", 0), 6);
    }

    #[test]
    fn braced_members_skip_attributes_and_visibility() {
        let code =
            "struct S2;\nstruct S {\n #[doc(hidden)]\n pub(crate) a: Vec<(u8, u8)>,\n b: u8\n}\n";
        let members = braced_members(code, "struct", "S");
        let texts: Vec<&str> = members
            .iter()
            .map(|m| code[m.start..m.end].trim())
            .collect();
        assert_eq!(texts, ["a: Vec<(u8, u8)>", "b: u8"]);
    }

    #[test]
    fn const_decls_read_name_and_initializer() {
        let code = "pub const A: u64 = 1 << 26;\nconst fn f() {}\n";
        let decls: Vec<(&str, &str)> = const_decls(code).map(|c| (c.name, c.init)).collect();
        assert_eq!(decls, [("A", " 1 << 26")]);
    }
}
