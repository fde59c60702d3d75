//! Source model: per-file function extraction (name, body range, test
//! and `commit_path` status), the suppression-directive grammar, and the
//! token-shape helpers [`crate::ir`] lowers function bodies with.
//!
//! This is a token-shape model over the masked source from
//! [`crate::lexer`], not a real parse.

use crate::config::Config;
use crate::lexer::Lexed;

/// One function found in a source file.
#[derive(Debug)]
pub struct Func {
    /// Function name.
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// True if the function sits inside a `#[cfg(test)]` region or a
    /// `tests/` file.
    pub in_test: bool,
    /// True if a `// ccnvme-lint: commit_path` marker precedes the fn.
    pub commit_path: bool,
    /// Body byte range in the file (after the opening brace, to the
    /// closing brace).
    pub body: (usize, usize),
}

/// Model of one lexed source file.
pub struct FileModel {
    /// All functions, in source order.
    pub funcs: Vec<Func>,
    /// Byte ranges covered by `#[cfg(test)]`-gated items.
    pub test_regions: Vec<(usize, usize)>,
    /// Whole file is test code (lives under a `tests/` directory).
    pub whole_file_test: bool,
}

impl FileModel {
    /// True if the byte offset lies inside test-only code.
    pub fn offset_in_test(&self, offset: usize) -> bool {
        self.whole_file_test
            || self
                .test_regions
                .iter()
                .any(|&(s, e)| offset >= s && offset < e)
    }
}

pub(crate) const KEYWORDS: &[&str] = &[
    "if",
    "else",
    "while",
    "for",
    "loop",
    "match",
    "return",
    "fn",
    "let",
    "mut",
    "as",
    "in",
    "impl",
    "pub",
    "use",
    "mod",
    "struct",
    "enum",
    "trait",
    "where",
    "unsafe",
    "move",
    "ref",
    "break",
    "continue",
    "const",
    "static",
    "type",
    "dyn",
    "Some",
    "Ok",
    "Err",
    "None",
    "Box",
    "Vec",
    "String",
    "drop",
    "assert",
    "assert_eq",
    "assert_ne",
    "panic",
    "format",
    "vec",
    "println",
    "eprintln",
    "write",
    "writeln",
    "matches",
    "debug_assert",
];

pub(crate) fn is_ident_char(c: u8) -> bool {
    c == b'_' || c.is_ascii_alphanumeric()
}

/// Reads the identifier ending at (exclusive) byte `end`.
pub(crate) fn ident_before(b: &[u8], end: usize) -> Option<(usize, &str)> {
    let mut s = end;
    while s > 0 && is_ident_char(b[s - 1]) {
        s -= 1;
    }
    if s == end || b[s].is_ascii_digit() {
        return None;
    }
    std::str::from_utf8(&b[s..end]).ok().map(|t| (s, t))
}

/// Finds the matching close delimiter for the open one at `open`,
/// scanning masked source (so strings/comments can't confuse depth).
pub(crate) fn match_delim(b: &[u8], open: usize, oc: u8, cc: u8) -> Option<usize> {
    debug_assert_eq!(b[open], oc);
    let mut depth = 0usize;
    for (i, &c) in b.iter().enumerate().skip(open) {
        if c == oc {
            depth += 1;
        } else if c == cc {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Builds the model for one file.
pub fn build(path_is_test: bool, src: &str, lexed: &Lexed) -> FileModel {
    let masked = lexed.masked.as_bytes();
    let test_regions = find_test_regions(masked);
    let mut funcs = Vec::new();

    let mut i = 0usize;
    let n = masked.len();
    while i + 2 <= n {
        // Find the `fn` keyword in masked source.
        if !(masked[i] == b'f'
            && masked[i + 1] == b'n'
            && (i == 0 || !is_ident_char(masked[i - 1]))
            && (i + 2 == n || !is_ident_char(masked[i + 2]) || masked[i + 2] == b' '))
        {
            i += 1;
            continue;
        }
        if i + 2 < n && is_ident_char(masked[i + 2]) {
            i += 1;
            continue;
        }
        // Name follows (skipping whitespace).
        let mut j = i + 2;
        while j < n && (masked[j] as char).is_whitespace() {
            j += 1;
        }
        let name_start = j;
        while j < n && is_ident_char(masked[j]) {
            j += 1;
        }
        if j == name_start {
            i += 2;
            continue;
        }
        let name = src[name_start..j].to_string();
        // Skip generics to the parameter list.
        while j < n && masked[j] != b'(' && masked[j] != b'{' && masked[j] != b';' {
            if masked[j] == b'<' {
                // Best-effort generic skip: depth count on <>.
                let mut depth = 0i32;
                while j < n {
                    match masked[j] {
                        b'<' => depth += 1,
                        b'>' => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        b'(' | b'{' | b';' => break,
                        _ => {}
                    }
                    j += 1;
                }
            } else {
                j += 1;
            }
        }
        if j >= n || masked[j] != b'(' {
            i = j.max(i + 2);
            continue;
        }
        let params_close = match match_delim(masked, j, b'(', b')') {
            Some(p) => p,
            None => {
                i = j + 1;
                continue;
            }
        };
        // Find the body `{` (or `;` for a trait signature).
        let mut k = params_close + 1;
        let body_open = loop {
            if k >= n {
                break None;
            }
            match masked[k] {
                b'{' => break Some(k),
                b';' => break None,
                _ => k += 1,
            }
        };
        let Some(body_open) = body_open else {
            i = params_close + 1;
            continue;
        };
        let Some(body_close) = match_delim(masked, body_open, b'{', b'}') else {
            i = body_open + 1;
            continue;
        };
        let fn_line = lexed.line_of(i);
        let in_test = path_is_test || test_regions.iter().any(|&(s, e)| i >= s && i < e);
        let commit_path = has_marker_above(lexed, src, i, "commit_path");
        funcs.push(Func {
            name,
            line: fn_line,
            in_test,
            commit_path,
            body: (body_open + 1, body_close),
        });
        // Continue scanning inside the body too (nested fns) — resume
        // right after the params so nested `fn` keywords are found.
        i = body_open + 1;
    }

    FileModel {
        funcs,
        test_regions,
        whole_file_test: path_is_test,
    }
}

/// Finds byte ranges gated by `#[cfg(test)]` / `#[cfg(all(test…`.
fn find_test_regions(masked: &[u8]) -> Vec<(usize, usize)> {
    let text = std::str::from_utf8(masked).unwrap_or("");
    let mut out = Vec::new();
    let mut search = 0usize;
    while let Some(rel) = text[search..].find("#[cfg(") {
        let at = search + rel;
        // Whole attribute: match the bracket.
        let Some(attr_end) = match_delim(masked, at + 1, b'[', b']') else {
            search = at + 6;
            continue;
        };
        let attr = &text[at..=attr_end];
        let is_test = attr.contains("cfg(test)") || attr.contains("cfg(all(test");
        search = attr_end + 1;
        if !is_test {
            continue;
        }
        // The gated item: next `{` at depth 0 from here, matched.
        let mut k = attr_end + 1;
        while k < masked.len() && masked[k] != b'{' && masked[k] != b';' {
            k += 1;
        }
        if k < masked.len() && masked[k] == b'{' {
            if let Some(close) = match_delim(masked, k, b'{', b'}') {
                out.push((at, close + 1));
                search = close + 1;
            }
        }
    }
    out
}

/// True if `text` (accumulated comment text for one line) carries an
/// *anchored* `ccnvme-lint: <payload>` directive.
///
/// Anchored means the marker opens its comment: between the start of
/// the comment (or the nearest preceding `//`, since several comments
/// can share a line) and `ccnvme-lint:` only comment decoration may
/// appear — whitespace and the `/`, `*`, `!`, `-` characters used by
/// doc/block comment framing. Prose that merely *mentions* a
/// directive ("do not add ccnvme-lint: allow(...) here") therefore
/// does not activate it, and string literals never reach this code at
/// all — the lexer keeps them on a separate plane.
///
/// The payload must start immediately after the marker (modulo
/// whitespace) and end at a non-identifier character, so
/// `commit_path` does not match `commit_path_aux`.
pub fn directive_in(text: &str, payload: &str) -> bool {
    let mut from = 0usize;
    while let Some(rel) = text[from..].find("ccnvme-lint:") {
        let at = from + rel;
        let opener = text[..at].rfind("//").map(|s| s + 2).unwrap_or(0);
        let anchored = text[opener..at]
            .chars()
            .all(|c| c.is_whitespace() || matches!(c, '/' | '*' | '!' | '-'));
        if anchored {
            let rest = text[at + "ccnvme-lint:".len()..].trim_start();
            if let Some(after) = rest.strip_prefix(payload) {
                let closed = after
                    .as_bytes()
                    .first()
                    .map(|&b| !is_ident_char(b))
                    .unwrap_or(true);
                if closed {
                    return true;
                }
            }
        }
        from = at + 1;
    }
    false
}

/// Walks upward from the item at byte `at` over blank lines, comments
/// and attributes, checking for an anchored `// ccnvme-lint: <marker>`
/// directive.
fn has_marker_above(lexed: &Lexed, src: &str, at: usize, marker: &str) -> bool {
    let mut line1 = lexed.line_of(at);
    // Same line first (e.g. `// ccnvme-lint: commit_path` trailing —
    // unusual but cheap to allow).
    if directive_in(lexed.comment_on(line1), marker) {
        return true;
    }
    while line1 > 1 {
        line1 -= 1;
        if directive_in(lexed.comment_on(line1), marker) {
            return true;
        }
        let start = lexed.line_starts[line1 - 1];
        let end = lexed.line_starts.get(line1).copied().unwrap_or(src.len());
        let code = lexed.masked[start..end].trim();
        let raw = src[start..end].trim_start();
        let is_comment_or_attr = code.is_empty()
            || code.starts_with("#[")
            || raw.starts_with("//")
            || raw.starts_with("/*");
        if !is_comment_or_attr {
            return false;
        }
    }
    false
}

/// True if an allow-marker for `rule` covers 1-based `line1`
/// (same line, or anywhere in the contiguous comment block above).
pub fn allowed(lexed: &Lexed, rule: &str, line1: usize) -> bool {
    let payload = format!("allow({rule})");
    comment_block_matches(lexed, line1, &|t| directive_in(t, &payload))
}

/// Checks the comment on `line1` and the contiguous run of
/// comment-only/attribute lines directly above it for `needle`.
/// Multi-line justifications routinely wrap, so a marker anywhere in
/// the block counts. Used for the free-text `ord:`/`SAFETY:`
/// justifications; `allow()`/`commit_path` directives go through the
/// anchored [`directive_in`] grammar instead.
pub fn comment_block_contains(lexed: &Lexed, line1: usize, needle: &str) -> bool {
    comment_block_matches(lexed, line1, &|t| t.contains(needle))
}

/// Shared walk for [`allowed`] and [`comment_block_contains`]: applies
/// `pred` to the comment on `line1` and on the contiguous run of
/// comment-only/attribute/continuation lines directly above it.
fn comment_block_matches(lexed: &Lexed, line1: usize, pred: &dyn Fn(&str) -> bool) -> bool {
    if pred(lexed.comment_on(line1)) {
        return true;
    }
    let mut l = line1;
    while l > 1 {
        l -= 1;
        let start = lexed.line_starts[l - 1];
        let end = lexed
            .line_starts
            .get(l)
            .copied()
            .unwrap_or(lexed.masked.len());
        let code = lexed.masked[start..end].trim();
        let comment_only = code.is_empty() && !lexed.comment_on(l).is_empty();
        let is_attr = code.starts_with("#[");
        // rustfmt splits long calls across lines; a line ending
        // mid-expression is part of the same statement, so the walk
        // continues through it toward the statement's comment.
        let continuation = code.ends_with('(')
            || code.ends_with(',')
            || code.ends_with('.')
            || code.ends_with('=');
        if !comment_only && !is_attr && !continuation {
            return false; // a statement-ending code or blank line
        }
        if pred(lexed.comment_on(l)) {
            return true;
        }
    }
    false
}

/// Walks back from the `.` at byte `dot` to the receiver's final path
/// segment identifier (e.g. `self.inner.pmr` → `pmr`).
pub(crate) fn receiver_ident(masked: &[u8], dot: usize) -> Option<String> {
    let mut p = dot;
    while p > 0 && masked[p - 1] == b' ' {
        p -= 1;
    }
    // Skip a closing paren/bracket chain: `regs().write` — take the
    // ident before the open delimiter instead.
    if p > 0 && (masked[p - 1] == b')' || masked[p - 1] == b']') {
        let close = p - 1;
        let (oc, cc) = if masked[close] == b')' {
            (b'(', b')')
        } else {
            (b'[', b']')
        };
        let mut depth = 0i32;
        let mut q = close + 1;
        while q > 0 {
            q -= 1;
            if masked[q] == cc {
                depth += 1;
            } else if masked[q] == oc {
                depth -= 1;
                if depth == 0 {
                    p = q;
                    break;
                }
            }
        }
    }
    ident_before(masked, p).map(|(_, s)| s.to_string())
}

/// Scans the first argument of the call whose `(` is at `open` for any
/// configured doorbell token as a whole identifier.
pub(crate) fn first_arg_has_doorbell_token(
    masked: &[u8],
    open: usize,
    limit: usize,
    cfg: &Config,
) -> bool {
    let mut depth = 0i32;
    let mut i = open;
    let mut tok = String::new();
    let end = limit.min(masked.len());
    while i < end {
        let c = masked[i];
        match c {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            b',' if depth == 1 => break,
            _ => {}
        }
        if is_ident_char(c) && depth >= 1 {
            tok.push(c as char);
        } else {
            if !tok.is_empty() && cfg.doorbell_args.contains(&tok) {
                return true;
            }
            tok.clear();
        }
        i += 1;
    }
    !tok.is_empty() && cfg.doorbell_args.contains(&tok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn model(src: &str) -> FileModel {
        let l = lex(src);
        build(false, src, &l)
    }

    #[test]
    fn finds_functions() {
        let src = r#"
impl D {
    // ccnvme-lint: commit_path
    fn enqueue(&self) {
        self.inner.pmr.write(q.ring_off, &bytes);
        self.inner.pmr.flush();
        self.inner.pmr.write(q.db_off, &tail.to_le_bytes());
    }
    fn other(&self) { helper(); }
}
"#;
        let m = model(src);
        assert_eq!(m.funcs.len(), 2);
        let f = &m.funcs[0];
        assert_eq!(f.name, "enqueue");
        assert!(f.commit_path);
        assert_eq!(m.funcs[1].name, "other");
        assert!(!m.funcs[1].commit_path);
    }

    #[test]
    fn cfg_test_regions_cover_mod_tests() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
        let m = model(src);
        assert!(!m.funcs[0].in_test);
        assert!(m.funcs[1].in_test);
    }

    #[test]
    fn commit_path_marker_walks_over_attrs() {
        let src = "// ccnvme-lint: commit_path\n#[inline]\n/// docs\nfn go() {}\n";
        let m = model(src);
        assert!(m.funcs[0].commit_path);
    }

    #[test]
    fn allow_marker_same_line_or_above() {
        let src = "// ccnvme-lint: allow(persist-order)\nlet a = 1;\nlet b = 2; // ccnvme-lint: allow(unsafe-audit)\n";
        let l = lex(src);
        assert!(allowed(&l, "persist-order", 2));
        assert!(allowed(&l, "unsafe-audit", 3));
        assert!(!allowed(&l, "persist-order", 3));
    }

    #[test]
    fn directive_must_open_its_comment() {
        // Prose that merely mentions the directive does not suppress.
        let src = "// do not add ccnvme-lint: allow(persist-order) here\nlet a = 1;\n";
        let l = lex(src);
        assert!(!allowed(&l, "persist-order", 2));
        // Doc-comment and block-comment framing still anchor.
        let doc = "/// ccnvme-lint: allow(persist-order) — rationale\nlet a = 1;\n";
        assert!(allowed(&lex(doc), "persist-order", 2));
        let dashed = "// --- ccnvme-lint: allow(persist-order) ---\nlet a = 1;\n";
        assert!(allowed(&lex(dashed), "persist-order", 2));
        // A second comment on the same line anchors independently.
        let two = "let a = 1; // note // ccnvme-lint: allow(unsafe-audit)\n";
        assert!(allowed(&lex(two), "unsafe-audit", 1));
    }

    #[test]
    fn directive_inside_string_literal_is_inert() {
        let src = "let msg = \"// ccnvme-lint: allow(persist-order)\";\nlet a = 1;\n";
        let l = lex(src);
        assert!(!allowed(&l, "persist-order", 1));
        assert!(!allowed(&l, "persist-order", 2));
    }

    #[test]
    fn commit_path_marker_is_whole_word() {
        let src = "// ccnvme-lint: commit_path_aux\nfn go() {}\n";
        let m = model(src);
        assert!(!m.funcs[0].commit_path);
        let ok = "// ccnvme-lint: commit_path (tx commit entry)\nfn go() {}\n";
        let l = lex(ok);
        let m2 = build(false, ok, &l);
        assert!(m2.funcs[0].commit_path);
    }
}
