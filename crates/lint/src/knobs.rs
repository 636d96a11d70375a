//! The `dead-knob` audit: the `BDB_*` environment-knob surface must
//! agree across three places — the code that reads a knob, the
//! checked-in inventory `contracts/knobs.txt`, and the user-facing docs
//! (README.md plus the shared `--help` renderer in
//! `crates/bench/src/lib.rs::help_text`). Four drift directions flag:
//!
//! * a knob read in code but missing from `contracts/knobs.txt`
//! * a knob listed in `contracts/knobs.txt` but never read (a dead knob)
//! * a knob read in code but absent from both docs sources
//! * a knob named in the docs but never read anywhere
//!
//! Reads are collected by the parser from *all* file kinds — test and
//! bench knobs (`BDB_BLESS_CONTRACTS`, `BDB_CHAOS_SEEDS`, `BDB_BENCH_SCALE`) are
//! part of the user surface too. `scripts/lint_bless.sh` regenerates
//! the inventory via [`knobs_txt`].

use crate::graph::Workspace;
use crate::parse::knob_names;
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

const RULE: &str = "dead-knob";

/// Relative path of the knob inventory.
pub const KNOBS_TXT: &str = "contracts/knobs.txt";

/// Every `BDB_*` read in the workspace: knob → sorted read sites.
pub fn reads(ws: &Workspace) -> BTreeMap<String, Vec<(PathBuf, usize)>> {
    let mut map: BTreeMap<String, Vec<(PathBuf, usize)>> = BTreeMap::new();
    for pf in &ws.files {
        for r in &pf.knob_reads {
            map.entry(r.knob.clone())
                .or_default()
                .push((pf.rel.clone(), r.line));
        }
    }
    for sites in map.values_mut() {
        sites.sort();
    }
    map
}

/// Renders the canonical `contracts/knobs.txt` for the workspace: a
/// header comment plus one sorted knob name per line.
pub fn knobs_txt(ws: &Workspace) -> String {
    let mut out = String::from(
        "# Every BDB_* environment knob the workspace reads, one per line,\n\
         # sorted. Regenerate with scripts/lint_bless.sh (or\n\
         # BDB_BLESS_CONTRACTS=1 cargo test -p bdb-lint knobs_sync).\n",
    );
    for knob in reads(ws).keys() {
        out.push_str(knob);
        out.push('\n');
    }
    out
}

/// Runs the audit.
pub fn run(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let reads = reads(ws);

    // The checked-in inventory.
    let knobs_path = ws.root.join(KNOBS_TXT);
    let mut listed: BTreeMap<String, usize> = BTreeMap::new();
    match std::fs::read_to_string(&knobs_path) {
        Ok(text) => {
            for (idx, raw) in text.lines().enumerate() {
                let line = raw.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                if listed.insert(line.to_owned(), idx + 1).is_some() {
                    diags.push(Diagnostic::new(
                        &knobs_path,
                        idx + 1,
                        RULE,
                        format!("`{line}` is listed twice in {KNOBS_TXT}"),
                    ));
                }
            }
        }
        Err(_) => {
            diags.push(Diagnostic::new(
                &knobs_path,
                0,
                RULE,
                format!("{KNOBS_TXT} is missing — run scripts/lint_bless.sh to generate it"),
            ));
        }
    }

    // The documentation surface: README.md plus the body of
    // `help_text` in the bench crate (the one `--help` renderer).
    let mut documented: BTreeMap<String, (PathBuf, usize)> = BTreeMap::new();
    let readme = ws.root.join("README.md");
    if let Ok(text) = std::fs::read_to_string(&readme) {
        collect_doc_mentions(&text, 0, &readme, &mut documented);
    }
    for pf in &ws.files {
        let Some(f) = pf.fns.iter().find(|f| f.name == "help_text") else {
            continue;
        };
        let Ok(text) = std::fs::read_to_string(ws.root.join(&pf.rel)) else {
            continue;
        };
        let body: String = text
            .lines()
            .skip(f.body.0.saturating_sub(1))
            .take(f.body.1.saturating_sub(f.body.0) + 1)
            .collect::<Vec<_>>()
            .join("\n");
        collect_doc_mentions(
            &body,
            f.body.0.saturating_sub(1),
            &ws.root.join(&pf.rel),
            &mut documented,
        );
    }

    // Reads must be listed and documented.
    for (knob, sites) in &reads {
        let Some((file, line)) = sites.first() else {
            continue;
        };
        let abs = ws.root.join(file);
        let suppressed = ws
            .files
            .iter()
            .find(|pf| &pf.rel == file)
            .is_some_and(|pf| pf.scanned.suppressed(line.saturating_sub(1), RULE));
        if suppressed {
            continue;
        }
        if !listed.contains_key(knob) {
            diags.push(Diagnostic::new(
                &abs,
                *line,
                RULE,
                format!("`{knob}` is read here but not listed in {KNOBS_TXT}"),
            ));
        }
        if !documented.contains_key(knob) {
            diags.push(Diagnostic::new(
                &abs,
                *line,
                RULE,
                format!("`{knob}` is read here but documented in neither README.md nor help_text"),
            ));
        }
    }

    // Listed knobs must be read.
    for (knob, line) in &listed {
        if !reads.contains_key(knob) {
            diags.push(Diagnostic::new(
                &knobs_path,
                *line,
                RULE,
                format!("`{knob}` is listed in {KNOBS_TXT} but never read — dead knob"),
            ));
        }
    }

    // Documented knobs must be read.
    for (knob, (file, line)) in &documented {
        if !reads.contains_key(knob) {
            diags.push(Diagnostic::new(
                file,
                *line,
                RULE,
                format!("`{knob}` is documented but never read — dead knob"),
            ));
        }
    }

    diags
}

/// Records the first mention line of every knob name in a docs text.
/// `line_base` is added to 1-indexed line numbers (for fn-body slices).
fn collect_doc_mentions(
    text: &str,
    line_base: usize,
    file: &std::path::Path,
    out: &mut BTreeMap<String, (PathBuf, usize)>,
) {
    let mut seen: BTreeSet<String> = out.keys().cloned().collect();
    for (idx, raw) in text.lines().enumerate() {
        for knob in knob_names(raw) {
            if seen.insert(knob.clone()) {
                out.insert(knob, (file.to_path_buf(), line_base + idx + 1));
            }
        }
    }
}
