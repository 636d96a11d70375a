//! Source passes: `determinism`, `panic-hygiene`, `raw-fs`, and
//! `endianness`.

use crate::graph::Workspace;
use crate::lexer::{self, find_word, ScannedFile};
use crate::parse::FileKind;
use crate::Diagnostic;
use std::path::Path;

/// Crate directory names whose sources feed profile bytes — the scope of
/// the `determinism` rule. Anything nondeterministic here (unordered
/// iteration, wall-clock, thread identity) can change cache bytes between
/// runs or thread counts. `cluster` is in scope because its merge must be
/// byte-identical to a serial engine run: its scheduler counts time in
/// poll ticks precisely so that no wall-clock read can reach the output.
/// `serve` is in scope because its materialized catalog must stay
/// byte-identical to a cold recompute across any mutation interleaving —
/// snapshot bytes must not depend on time, thread identity, or map order.
const DETERMINISM_SCOPE: &[&str] = &["engine", "sim", "wcrt", "trace", "cluster", "serve"];

/// Tokens the `determinism` rule rejects, with the reason.
const DETERMINISM_TOKENS: &[(&str, &str)] = &[
    ("HashMap", "unordered collection; iteration order varies run to run — use BTreeMap/Vec, or annotate a keyed-lookup-only use"),
    ("HashSet", "unordered collection; iteration order varies run to run — use BTreeSet/Vec, or annotate a keyed-lookup-only use"),
    ("Instant", "wall-clock read; profile bytes must not depend on time"),
    ("SystemTime", "wall-clock read; profile bytes must not depend on time"),
    ("UNIX_EPOCH", "wall-clock read; profile bytes must not depend on time"),
    ("ThreadId", "thread-identity query; profile bytes must not depend on scheduling"),
    ("current_thread_index", "thread-identity query; profile bytes must not depend on scheduling"),
];

/// The one engine source file allowed to touch `std::fs` — the scope
/// boundary of the `raw-fs` rule. Every other engine file must go
/// through the [`CacheStore`] abstraction so fault injection
/// (`ChaosFs`) and the crash-safety counters see every disk operation;
/// a direct `std::fs` call is an I/O path the chaos harness cannot
/// exercise and the counters cannot account for.
const RAW_FS_BOUNDARY: &str = "store.rs";

/// Crate directory whose sources define the binary record format — the
/// scope of the `endianness` rule. The BDBC container is little-endian
/// by contract (DESIGN.md §15): a `to_be_bytes` or `to_ne_bytes` call in
/// the codec would silently produce records that decode on the writing
/// host but not on another, defeating the portable-fixture guarantee.
const ENDIANNESS_SCOPE: &str = "codec";

/// Byte-order conversions the `endianness` rule rejects inside the codec.
const ENDIANNESS_TOKENS: &[&str] = &[
    "to_be_bytes",
    "from_be_bytes",
    "to_ne_bytes",
    "from_ne_bytes",
];

/// Runs the source passes over the workspace's library sources.
/// Reading from the shared [`Workspace`] model means suppressions these
/// passes consume are visible to the final `stale-allow` audit.
/// Vendored shims are already absent from the model (they mirror
/// external APIs — a test harness *should* panic on failure); binaries
/// are in the model for graph purposes but skipped here, because they
/// are driver code, not library code.
pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for pf in &ws.files {
        if pf.kind != FileKind::Lib {
            continue;
        }
        let file = ws.root.join(&pf.rel);
        let scanned = &pf.scanned;
        let crate_dir = pf.krate.as_str();
        check_panic_hygiene(&file, scanned, &mut diags);
        if DETERMINISM_SCOPE.contains(&crate_dir) {
            check_determinism(&file, scanned, &mut diags);
        }
        if crate_dir == "engine" && file.file_name().is_none_or(|n| n != RAW_FS_BOUNDARY) {
            check_raw_fs(&file, scanned, &mut diags);
        }
        if crate_dir == ENDIANNESS_SCOPE {
            check_endianness(&file, scanned, &mut diags);
        }
    }
    diags
}

fn check_panic_hygiene(file: &Path, scanned: &ScannedFile, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "panic-hygiene";
    for (idx, line) in scanned.lines.iter().enumerate() {
        if line.in_test || line.code.is_empty() {
            continue;
        }
        let code = &line.code;
        let lineno = idx + 1;
        let mut emit = |message: String| {
            if !scanned.suppressed(idx, RULE) {
                diags.push(Diagnostic::new(file, lineno, RULE, message));
            }
        };
        for at in word_sites(code, "unwrap") {
            if preceded_by_dot(code, at) && followed_by_paren(code, at + "unwrap".len()) {
                emit("`.unwrap()` in library code — propagate the error or annotate why aborting is right".into());
            }
        }
        for at in word_sites(code, "expect") {
            if preceded_by_dot(code, at)
                && followed_by_paren(code, at + "expect".len())
                && !receiver_is_self(code, at)
            {
                emit("`.expect(..)` in library code — propagate the error or annotate why aborting is right".into());
            }
        }
        for at in word_sites(code, "panic") {
            if code[at + "panic".len()..].starts_with('!') {
                emit(
                    "`panic!` in library code — return an error or annotate why aborting is right"
                        .into(),
                );
            }
        }
    }
}

fn check_determinism(file: &Path, scanned: &ScannedFile, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "determinism";
    for (idx, line) in scanned.lines.iter().enumerate() {
        if line.in_test || line.code.is_empty() {
            continue;
        }
        let code = &line.code;
        let lineno = idx + 1;
        for (token, why) in DETERMINISM_TOKENS {
            if lexer::contains_word(code, token) && !scanned.suppressed(idx, RULE) {
                diags.push(Diagnostic::new(
                    file,
                    lineno,
                    RULE,
                    format!("`{token}` in a profile-producing path: {why}"),
                ));
            }
        }
        if code.contains("thread::current") && !scanned.suppressed(idx, RULE) {
            diags.push(Diagnostic::new(
                file,
                lineno,
                RULE,
                "`thread::current` in a profile-producing path: profile bytes must not depend on scheduling".to_owned(),
            ));
        }
    }
}

fn check_raw_fs(file: &Path, scanned: &ScannedFile, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "raw-fs";
    for (idx, line) in scanned.lines.iter().enumerate() {
        if line.in_test || line.code.is_empty() {
            continue;
        }
        let code = &line.code;
        // `fs::...` paths and `use std::fs` imports; `_` is a word
        // character, so `raw_fs` or `chaos_fs` never trip this.
        let raw = word_sites(code, "fs")
            .into_iter()
            .any(|at| code[at + "fs".len()..].starts_with("::") || code[..at].ends_with("std::"));
        if raw && !scanned.suppressed(idx, RULE) {
            diags.push(Diagnostic::new(
                file,
                idx + 1,
                RULE,
                "direct `std::fs` access in the engine outside store.rs — route disk I/O \
                 through `CacheStore` so chaos injection and the crash-safety counters see it",
            ));
        }
    }
}

fn check_endianness(file: &Path, scanned: &ScannedFile, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "endianness";
    for (idx, line) in scanned.lines.iter().enumerate() {
        if line.in_test || line.code.is_empty() {
            continue;
        }
        let code = &line.code;
        for token in ENDIANNESS_TOKENS {
            if lexer::contains_word(code, token) && !scanned.suppressed(idx, RULE) {
                diags.push(Diagnostic::new(
                    file,
                    idx + 1,
                    RULE,
                    format!(
                        "`{token}` in the codec — the binary format is little-endian by \
                         contract; use to_le_bytes/from_le_bytes so records stay portable"
                    ),
                ));
            }
        }
    }
}

/// All word-boundary occurrences of `word` in `code`.
fn word_sites(code: &str, word: &str) -> Vec<usize> {
    let mut sites = Vec::new();
    let mut from = 0;
    while let Some(at) = find_word(code, word, from) {
        sites.push(at);
        from = at + word.len();
    }
    sites
}

fn preceded_by_dot(code: &str, at: usize) -> bool {
    code[..at].trim_end().ends_with('.')
}

fn followed_by_paren(code: &str, after: usize) -> bool {
    code[after..].trim_start().starts_with('(')
}

/// Whether the method receiver before the `.` at `at` is literally
/// `self` — the JSON parser's own `self.expect(b'{')` is not
/// `Result::expect`.
fn receiver_is_self(code: &str, at: usize) -> bool {
    let before = code[..at].trim_end();
    let before = before.strip_suffix('.').map(str::trim_end).unwrap_or("");
    before.ends_with("self")
        && !before
            .as_bytes()
            .get(before.len().wrapping_sub(5))
            .is_some_and(|b| b.is_ascii_alphanumeric() || *b == b'_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn hygiene(src: &str) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        check_panic_hygiene(Path::new("x.rs"), &scan(src), &mut diags);
        diags
    }

    fn determinism(src: &str) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        check_determinism(Path::new("x.rs"), &scan(src), &mut diags);
        diags
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        assert_eq!(
            hygiene("pub fn f(x: Option<u32>) { x.unwrap(); }\n").len(),
            1
        );
        assert!(hygiene("#[cfg(test)]\nmod t {\n fn f() { x.unwrap(); }\n}\n").is_empty());
    }

    #[test]
    fn unwrap_or_else_not_flagged() {
        assert!(hygiene("let v = x.unwrap_or_else(Default::default);\n").is_empty());
        assert!(hygiene("let v = x.unwrap_or(0);\n").is_empty());
    }

    #[test]
    fn self_expect_is_a_parser_method_not_result() {
        assert!(hygiene("self.expect(b'{')?;\n").is_empty());
        assert_eq!(hygiene("value.expect(\"boom\");\n").len(), 1);
    }

    #[test]
    fn panic_macro_flagged() {
        assert_eq!(hygiene("panic!(\"no\");\n").len(), 1);
        assert!(hygiene("// panic! only in a comment\n").is_empty());
    }

    #[test]
    fn allow_comment_suppresses() {
        let src = "// bdb-lint: allow(panic-hygiene): invariant documented\nx.unwrap();\n";
        assert!(hygiene(src).is_empty());
    }

    #[test]
    fn hashmap_flagged_and_allowable() {
        assert_eq!(determinism("use std::collections::HashMap;\n").len(), 1);
        let allowed =
            "// bdb-lint: allow(determinism): keyed lookups only\nuse std::collections::HashMap;\n";
        assert!(determinism(allowed).is_empty());
    }

    fn raw_fs(src: &str) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        check_raw_fs(Path::new("x.rs"), &scan(src), &mut diags);
        diags
    }

    #[test]
    fn raw_fs_flags_direct_std_fs_access() {
        assert_eq!(raw_fs("use std::fs;\n").len(), 1);
        assert_eq!(raw_fs("use std::fs::File;\n").len(), 1);
        assert_eq!(raw_fs("let bytes = fs::read(&path)?;\n").len(), 1);
        // One diagnostic per line, even with several sites.
        assert_eq!(raw_fs("fs::rename(fs::canonicalize(a)?, b)?;\n").len(), 1);
    }

    #[test]
    fn raw_fs_ignores_lookalikes_tests_and_allows() {
        assert!(raw_fs("let chaos_fs = ChaosFs::new(plan);\n").is_empty());
        assert!(raw_fs("// std::fs is banned here\n").is_empty());
        assert!(
            raw_fs("#[cfg(test)]\nmod t {\n fn f() { std::fs::remove_file(p); }\n}\n").is_empty()
        );
        let allowed = "// bdb-lint: allow(raw-fs): bootstrap before the store exists\nstd::fs::create_dir_all(&dir)?;\n";
        assert!(raw_fs(allowed).is_empty());
    }

    fn endianness(src: &str) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        check_endianness(Path::new("x.rs"), &scan(src), &mut diags);
        diags
    }

    #[test]
    fn big_and_native_endian_conversions_flagged() {
        assert_eq!(endianness("buf.extend(len.to_be_bytes());\n").len(), 1);
        assert_eq!(endianness("let v = u64::from_ne_bytes(b);\n").len(), 1);
    }

    #[test]
    fn little_endian_tests_and_allows_pass() {
        assert!(endianness("buf.extend(len.to_le_bytes());\n").is_empty());
        assert!(endianness("// to_be_bytes is banned here\n").is_empty());
        assert!(
            endianness("#[cfg(test)]\nmod t {\n fn f() { let _ = 1u32.to_be_bytes(); }\n}\n")
                .is_empty()
        );
        let allowed = "// bdb-lint: allow(endianness): network byte order at the TCP boundary\nlen.to_be_bytes();\n";
        assert!(endianness(allowed).is_empty());
    }

    #[test]
    fn wall_clock_and_thread_identity_flagged() {
        assert_eq!(determinism("let t = Instant::now();\n").len(), 1);
        assert_eq!(
            determinism("let id = std::thread::current().id();\n").len(),
            1
        );
    }
}
