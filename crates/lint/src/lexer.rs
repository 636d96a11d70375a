//! A lightweight Rust source scanner.
//!
//! `bdb-lint` does not need a full parser: every source rule it enforces
//! is a token-level property ("this identifier must not appear outside
//! test code"). What it *does* need to get exactly right is the part
//! naive grep gets wrong — string literals, raw strings, char literals
//! vs. lifetimes, nested block comments, `#[cfg(test)]` regions — so the
//! scanner strips all of those while preserving line structure, and
//! records the comment text separately (suppression directives live in
//! comments).

/// One scanned source line.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// The line's code with comments removed and string/char literal
    /// contents blanked (quotes kept, so token boundaries survive).
    pub code: String,
    /// Concatenated text of comments that start or continue on this line.
    pub comment: String,
    /// Whether the line is inside `#[cfg(test)]` or `#[test]` code.
    pub in_test: bool,
}

/// One `bdb-lint: allow(<rule>)` directive found in a comment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowDirective {
    /// 0-indexed line the directive's comment is on.
    pub line_idx: usize,
    /// The rule id named inside `allow(..)`.
    pub rule: String,
}

/// A scanned file: line records plus the suppression directives found.
#[derive(Debug, Clone, Default)]
pub struct ScannedFile {
    /// 0-indexed line records (`lines[0]` is source line 1).
    pub lines: Vec<Line>,
    /// Every allow directive in the file, in line order.
    pub directives: Vec<AllowDirective>,
    /// Indexes into `directives` that suppressed at least one finding —
    /// filled in by [`ScannedFile::suppressed`] as the passes run, and
    /// read back by the `stale-allow` rule.
    used: std::cell::RefCell<std::collections::BTreeSet<usize>>,
}

impl ScannedFile {
    /// Whether `rule` is suppressed on 0-indexed line `idx` — a
    /// `bdb-lint: allow(<rule>)` comment suppresses diagnostics on its
    /// own line and on the line directly below it (so a standalone
    /// comment line can annotate the statement it precedes).
    pub fn allowed(&self, idx: usize, rule: &str) -> bool {
        self.directive_sites(idx)
            .into_iter()
            .any(|i| self.directives[i].rule == rule)
    }

    /// Like [`ScannedFile::allowed`], but additionally marks the matching
    /// directive as *used*, so the `stale-allow` pass can report
    /// directives that never suppress anything. Passes must call this
    /// only when a finding would otherwise fire on line `idx`.
    pub fn suppressed(&self, idx: usize, rule: &str) -> bool {
        let mut hit = false;
        for i in self.directive_sites(idx) {
            if self.directives[i].rule == rule {
                self.used.borrow_mut().insert(i);
                hit = true;
            }
        }
        hit
    }

    /// Directives that suppressed nothing across every pass that ran.
    pub fn stale_directives(&self) -> Vec<&AllowDirective> {
        let used = self.used.borrow();
        self.directives
            .iter()
            .enumerate()
            .filter(|(i, _)| !used.contains(i))
            .map(|(_, d)| d)
            .collect()
    }

    /// Directive indexes applying to 0-indexed line `idx` (own line or
    /// the line directly above).
    fn directive_sites(&self, idx: usize) -> Vec<usize> {
        self.directives
            .iter()
            .enumerate()
            .filter(|(_, d)| d.line_idx == idx || idx > 0 && d.line_idx == idx - 1)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Parses `bdb-lint: allow(rule)` / `allow(rule-a, rule-b)` directives
/// out of one line's comment text. Doc comments never carry directives —
/// their text *describes* the syntax (this crate's own docs would
/// otherwise register as suppressions and trip the `stale-allow` audit).
fn collect_allow_rules(comment: &str, out: &mut Vec<String>) {
    // After `//` / `/*` are consumed, a doc comment's text starts with
    // the third marker char: `/` (`///`), `!` (`//!`, `/*!`), `*` (`/**`).
    if comment.starts_with(['/', '!', '*']) {
        return;
    }
    let mut rest = comment;
    while let Some(at) = rest.find("bdb-lint: allow(") {
        rest = &rest[at + "bdb-lint: allow(".len()..];
        if let Some(end) = rest.find(')') {
            for rule in rest[..end].split(',') {
                let rule = rule.trim();
                if !rule.is_empty() {
                    out.push(rule.to_owned());
                }
            }
            rest = &rest[end + 1..];
        } else {
            break;
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

/// Scans Rust source into per-line code/comment records with test-region
/// marking. The scanner is conservative: if it cannot classify a
/// construct it keeps the text as code, which can only ever produce an
/// extra diagnostic (suppressible), never hide one.
pub fn scan(source: &str) -> ScannedFile {
    let stripped = strip(source);
    let test_lines = mark_test_regions(&stripped);
    let lines: Vec<Line> = stripped
        .into_iter()
        .zip(test_lines)
        .map(|((code, comment), in_test)| Line {
            code,
            comment,
            in_test,
        })
        .collect();
    let mut directives = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let mut rules = Vec::new();
        collect_allow_rules(&line.comment, &mut rules);
        for rule in rules {
            directives.push(AllowDirective {
                line_idx: idx,
                rule,
            });
        }
    }
    ScannedFile {
        lines,
        directives,
        used: Default::default(),
    }
}

/// Splits source into per-line `(code, comment)` strings with literals
/// blanked and comments removed from the code stream.
fn strip(source: &str) -> Vec<(String, String)> {
    let bytes = source.as_bytes();
    let mut out: Vec<(String, String)> = vec![(String::new(), String::new())];
    let mut state = State::Code;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        if b == b'\n' {
            if state == State::LineComment {
                state = State::Code;
            }
            out.push((String::new(), String::new()));
            i += 1;
            continue;
        }
        let line = match out.last_mut() {
            Some(line) => line,
            None => break, // unreachable: out starts non-empty
        };
        match state {
            State::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    i += 2;
                } else if b == b'"' {
                    line.0.push('"');
                    state = State::Str;
                    i += 1;
                } else if b == b'r' && raw_string_hashes(&bytes[i..]).is_some() {
                    let hashes = raw_string_hashes(&bytes[i..]).unwrap_or(0);
                    line.0.push_str("r\"");
                    state = State::RawStr(hashes);
                    i += 1 + hashes as usize + 1;
                } else if b == b'\'' {
                    // Char literal vs lifetime. A char literal is 'x',
                    // '\..', or '\u{..}'; a lifetime is '<ident> with no
                    // closing quote.
                    if let Some(len) = char_literal_len(&bytes[i..]) {
                        line.0.push_str("' '");
                        i += len;
                    } else {
                        line.0.push('\'');
                        i += 1;
                    }
                } else {
                    line.0.push(b as char);
                    i += 1;
                }
            }
            State::LineComment => {
                line.1.push(b as char);
                i += 1;
            }
            State::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    i += 2;
                } else {
                    line.1.push(b as char);
                    i += 1;
                }
            }
            State::Str => {
                if b == b'\\' {
                    // Skip the escaped byte, but never consume a newline
                    // (line records must stay aligned with the source).
                    i += if bytes.get(i + 1) == Some(&b'\n') {
                        1
                    } else {
                        2
                    };
                } else if b == b'"' {
                    line.0.push('"');
                    state = State::Code;
                    i += 1;
                } else {
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if b == b'"' && closes_raw_string(&bytes[i..], hashes) {
                    line.0.push('"');
                    state = State::Code;
                    i += 1 + hashes as usize;
                } else {
                    i += 1;
                }
            }
        }
    }
    out
}

/// If `bytes` starts a raw string (`r"`, `r#"`, `br##"` …), the number of
/// `#` marks; `None` otherwise. `bytes[0]` is `b'r'`.
fn raw_string_hashes(bytes: &[u8]) -> Option<u32> {
    let mut j = 1;
    let mut hashes = 0u32;
    while bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    (bytes.get(j) == Some(&b'"')).then_some(hashes)
}

fn closes_raw_string(bytes: &[u8], hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| bytes.get(k) == Some(&b'#'))
}

/// Length of the char literal starting at `bytes[0] == b'\''`, or `None`
/// if this is a lifetime.
fn char_literal_len(bytes: &[u8]) -> Option<usize> {
    match bytes.get(1)? {
        b'\\' => {
            // Escaped char: `bytes[2]` is the escaped character itself and
            // never closes the literal (`'\''` is the quote char), so the
            // scan for the closing quote starts after it (handles \u{...}).
            let mut j = 3;
            while j < bytes.len() && j < 12 {
                if bytes[j] == b'\'' {
                    return Some(j + 1);
                }
                j += 1;
            }
            None
        }
        b'\'' => None, // '' is not a char literal
        _ => {
            // A plain char literal closes immediately; a lifetime does
            // not. Multi-byte UTF-8 chars: find the next quote within
            // the max UTF-8 width.
            let mut j = 2;
            while j < bytes.len() && j <= 5 {
                if bytes[j] == b'\'' {
                    return Some(j + 1);
                }
                if bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_' {
                    j += 1;
                } else {
                    break;
                }
            }
            None
        }
    }
}

/// Marks each line that sits inside `#[cfg(test)]`-gated or `#[test]`
/// code by tracking brace depth over the stripped code stream.
fn mark_test_regions(stripped: &[(String, String)]) -> Vec<bool> {
    let mut in_test = vec![false; stripped.len()];
    let mut depth: i64 = 0;
    let mut pending_attr = false;
    let mut region_depths: Vec<i64> = Vec::new();
    for (idx, (code, _)) in stripped.iter().enumerate() {
        if !region_depths.is_empty() {
            in_test[idx] = true;
        }
        let bytes = code.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            match bytes[i] {
                b'#' if bytes.get(i + 1) == Some(&b'[') => {
                    let (content, len) = attr_content(&bytes[i..]);
                    if attr_is_test(&content) {
                        pending_attr = true;
                        in_test[idx] = true;
                    }
                    i += len;
                }
                b'{' => {
                    depth += 1;
                    if pending_attr {
                        region_depths.push(depth);
                        pending_attr = false;
                        in_test[idx] = true;
                    }
                    i += 1;
                }
                b'}' => {
                    if region_depths.last() == Some(&depth) {
                        region_depths.pop();
                    }
                    depth -= 1;
                    i += 1;
                }
                b';' if pending_attr && region_depths.is_empty() => {
                    // `#[cfg(test)] mod tests;` — out-of-line test module;
                    // the attribute gates nothing further in this file.
                    pending_attr = false;
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }
    in_test
}

/// Extracts the bracketed content of an attribute starting at `#[` and
/// its byte length in the code stream.
fn attr_content(bytes: &[u8]) -> (String, usize) {
    let mut j = 2;
    let mut nest = 1;
    let mut content = String::new();
    while j < bytes.len() && nest > 0 {
        match bytes[j] {
            b'[' => nest += 1,
            b']' => nest -= 1,
            b => {
                if nest >= 1 {
                    content.push(b as char);
                }
            }
        }
        j += 1;
    }
    (content, j)
}

fn attr_is_test(content: &str) -> bool {
    let content = content.trim();
    content == "test"
        || content.ends_with("::test")
        || (content.starts_with("cfg")
            && contains_word(content, "test")
            && !content.contains("not("))
}

/// Whether `word` appears in `text` bounded by non-identifier chars.
pub fn contains_word(text: &str, word: &str) -> bool {
    find_word(text, word, 0).is_some()
}

/// Finds `word` in `text` at or after byte offset `from`, bounded by
/// non-identifier characters on both sides.
pub fn find_word(text: &str, word: &str, from: usize) -> Option<usize> {
    let bytes = text.as_bytes();
    let mut start = from;
    while let Some(pos) = text.get(start..).and_then(|t| t.find(word)) {
        let at = start + pos;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after = at + word.len();
        let after_ok = after >= bytes.len() || !is_ident_byte(bytes[after]);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + 1;
    }
    None
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_comments_are_stripped() {
        let f = scan("let x = \"HashMap // not code\"; // HashMap in comment\n");
        assert!(!f.lines[0].code.contains("HashMap"));
        assert!(f.lines[0].comment.contains("HashMap"));
    }

    #[test]
    fn raw_strings_are_stripped() {
        let f = scan("let x = r#\"unwrap() \"quoted\" inside\"#; x.real()\n");
        assert!(!f.lines[0].code.contains("unwrap"));
        assert!(f.lines[0].code.contains("real"));
    }

    #[test]
    fn char_literals_do_not_open_strings() {
        let f = scan("let c = '\"'; let d: &'static str = \"x\"; panic!()\n");
        assert!(f.lines[0].code.contains("panic!"));
    }

    #[test]
    fn nested_block_comments_close() {
        let f = scan("/* a /* b */ still comment */ code_here()\n");
        assert!(f.lines[0].code.contains("code_here"));
        assert!(!f.lines[0].code.contains("still"));
    }

    #[test]
    fn cfg_test_region_is_marked() {
        let src =
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn lib2() {}\n";
        let f = scan(src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test, "attr line");
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn test_fn_region_is_marked() {
        let src = "#[test]\nfn works() {\n    boom();\n}\nfn lib() {}\n";
        let f = scan(src);
        assert!(f.lines[2].in_test);
        assert!(!f.lines[4].in_test);
    }

    #[test]
    fn allow_applies_to_own_and_next_line() {
        let src = "// bdb-lint: allow(panic-hygiene): fine here\nx.unwrap();\ny.unwrap();\n";
        let f = scan(src);
        assert!(f.allowed(0, "panic-hygiene"));
        assert!(f.allowed(1, "panic-hygiene"));
        assert!(!f.allowed(2, "panic-hygiene"));
    }

    #[test]
    fn word_boundaries_respected() {
        assert!(contains_word("use std::collections::HashMap;", "HashMap"));
        assert!(!contains_word("MyHashMapLike", "HashMap"));
    }

    #[test]
    fn escaped_quote_char_literal_does_not_open_a_string() {
        // `'\''` used to be consumed short, leaving a stray `'` that could
        // swallow the rest of the line as a bogus literal.
        let f = scan("let q = '\\''; x.unwrap();\nlet n = '\\n'; y.unwrap();\n");
        assert!(f.lines[0].code.contains("unwrap"), "{:?}", f.lines[0]);
        assert!(f.lines[1].code.contains("unwrap"), "{:?}", f.lines[1]);
    }

    #[test]
    fn multiline_raw_string_with_hashes_keeps_line_numbers() {
        let src = "let s = r##\"first\nmid \"# not the end\nlast\"##; a.unwrap();\nb.unwrap();\n";
        let f = scan(src);
        assert_eq!(f.lines.len(), 5, "one record per source line + trailer");
        assert!(!f.lines[1].code.contains("not"), "raw body is blanked");
        assert!(
            f.lines[2].code.contains("unwrap"),
            "close detected in line 3"
        );
        assert!(f.lines[3].code.contains("unwrap"), "line 4 still aligned");
    }

    #[test]
    fn multiline_nested_block_comment_keeps_line_numbers() {
        let src = "/* outer\n/* inner */\nstill comment */ x.unwrap();\ny.unwrap();\n";
        let f = scan(src);
        assert!(!f.lines[2].code.contains("still"));
        assert!(f.lines[2].code.contains("unwrap"));
        assert!(f.lines[3].code.contains("unwrap"));
    }

    #[test]
    fn allow_lists_multiple_rules() {
        let src = "// bdb-lint: allow(panic-hygiene, panic-reachability): both fine\nx.unwrap();\n";
        let f = scan(src);
        assert!(f.allowed(1, "panic-hygiene"));
        assert!(f.allowed(1, "panic-reachability"));
        assert!(!f.allowed(1, "determinism"));
    }

    #[test]
    fn suppression_usage_feeds_stale_directive_audit() {
        let src = "// bdb-lint: allow(panic-hygiene): used\nx.unwrap();\n// bdb-lint: allow(determinism): never consulted\nlet y = 1;\n";
        let f = scan(src);
        assert!(f.suppressed(1, "panic-hygiene"));
        let stale = f.stale_directives();
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].rule, "determinism");
        assert_eq!(stale[0].line_idx, 2);
    }
}
