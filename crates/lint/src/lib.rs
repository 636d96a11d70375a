//! `bdb-lint` — repo-native static analysis for the BigDataBench
//! reproduction.
//!
//! The engine's headline guarantee (bit-identical profiles at any thread
//! count, byte-stable cache files) and the paper's structural invariants
//! (77 workloads, 45 metrics, 17 clusters) are runtime-tested but easy to
//! silently regress. This crate enforces them at lint time with two pass
//! families:
//!
//! * **Source passes** run a lightweight Rust scanner ([`lexer`]) over
//!   every workspace crate:
//!   - `determinism` — no unordered-collection types (`HashMap` /
//!     `HashSet`), wall-clock reads (`Instant` / `SystemTime`), or
//!     thread-identity queries inside the profile-producing crates
//!     (`engine`, `sim`, `wcrt`, `trace`, `cluster`). Keyed-lookup-only
//!     uses are annotated with an explicit allowlist comment.
//!   - `panic-hygiene` — no `.unwrap()` / `.expect(..)` / `panic!` in
//!     library code outside tests.
//!   - `workspace-hygiene` — member crates resolve every dependency
//!     through `[workspace.dependencies]`, and the vendored shims stay
//!     unified (no stray path deps).
//!   - `raw-fs` — engine sources outside `store.rs` never call
//!     `std::fs` directly; all disk I/O routes through the `CacheStore`
//!     abstraction so chaos injection and the crash-safety counters see
//!     every operation.
//!   - `endianness` — the binary record format (`crates/codec`) is
//!     little-endian by contract; big-endian and native-endian byte
//!     conversions are banned there so records stay portable.
//! * **Artifact passes** statically validate the checked-in contracts:
//!   the catalog spec (77 workloads), metric schema (45 metrics), the
//!   reduction config (17 clusters, weights summing to 77), the JSON
//!   schema / byte-stability of `results/cache` entries (both `.json`
//!   and binary `.bin` forms) and `BENCH_*.json`, and the golden binary
//!   fixtures under `contracts/fixtures/` (`binary-stability`).
//!
//! Diagnostics carry `file:line` and a rule id and are suppressible with
//! `// bdb-lint: allow(<rule>): <justification>` on the offending line or
//! the line above it.

pub mod graph;
pub mod json;
pub mod knobs;
pub mod lexer;
pub mod parse;
pub mod reach;
pub mod report;

mod artifact;
mod manifest;
mod source;

use std::fmt;
use std::path::{Path, PathBuf};

/// Paper invariant: the full catalog enumerates exactly 77 workloads.
pub const PAPER_WORKLOADS: usize = 77;
/// Paper invariant: the characterization vector has exactly 45 metrics.
pub const PAPER_METRICS: usize = 45;
/// Paper invariant: the reduction clusters 77 workloads into 17.
pub const PAPER_CLUSTERS: usize = 17;

/// Every rule id with a one-line description, in report order.
pub const RULES: &[(&str, &str)] = &[
    (
        "determinism",
        "no unordered collections, wall-clock reads, or thread-identity queries in profile-producing crates",
    ),
    (
        "panic-hygiene",
        "no unwrap()/expect()/panic! in library code outside tests",
    ),
    (
        "workspace-hygiene",
        "member crates resolve dependencies through [workspace.dependencies]; vendored shims stay unified",
    ),
    (
        "raw-fs",
        "engine disk I/O routes through CacheStore (store.rs); no direct std::fs calls elsewhere in the engine",
    ),
    (
        "catalog-spec",
        "contracts/catalog.tsv lists exactly 77 unique workloads covering every subclass",
    ),
    (
        "metric-schema",
        "contracts/metrics.txt lists exactly 45 unique metric names",
    ),
    (
        "reduction-config",
        "contracts/reduction.txt pins 17 clusters whose weights sum to 77",
    ),
    (
        "cache-format",
        "results/cache entries are schema-valid and byte-stable under canonical re-encoding",
    ),
    (
        "bench-format",
        "BENCH_*.json records are schema-valid and byte-stable under canonical re-encoding",
    ),
    (
        "binary-stability",
        "golden binary fixtures under contracts/fixtures/ decode, re-encode byte-identically, and match their JSON interchange sidecars",
    ),
    (
        "endianness",
        "the binary format is little-endian only: no to_be/from_be/to_ne/from_ne byte conversions inside crates/codec",
    ),
    (
        "nondeterminism-reachability",
        "no call path from a profile/trace/wire/cache serialization entry point to a nondeterminism source (unordered collections, wall clock, thread identity) anywhere in the workspace",
    ),
    (
        "panic-reachability",
        "no unwrap()/expect()/panic!/slice-indexing reachable from the cluster worker loop, the coordinator, bdb_clusterd main, or store recovery",
    ),
    (
        "hot-loop-allocation",
        "no allocation, format!, env reads, or blocking fs calls reachable from the fused-sweep replay and per-op TraceSink::exec hot loops",
    ),
    (
        "dead-knob",
        "every BDB_* env read is listed in contracts/knobs.txt and documented; listed knobs are actually read",
    ),
    (
        "stale-allow",
        "every bdb-lint allow(...) comment suppresses at least one finding; stale suppressions must be removed",
    ),
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// File the finding is in, relative to the workspace root.
    pub file: PathBuf,
    /// 1-indexed source line; 0 for whole-file findings.
    pub line: usize,
    /// Rule id (one of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable description of the violation.
    pub message: String,
    /// For reachability rules: the source→sink call chain, one
    /// `path (file:line)` entry per hop. Empty for per-line findings.
    pub chain: Vec<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(
                f,
                "{}: [{}] {}",
                self.file.display(),
                self.rule,
                self.message
            )?;
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file.display(),
                self.line,
                self.rule,
                self.message
            )?;
        }
        for (i, hop) in self.chain.iter().enumerate() {
            write!(
                f,
                "\n    {}{hop}",
                if i == 0 { "chain: " } else { "    -> " }
            )?;
        }
        Ok(())
    }
}

impl Diagnostic {
    fn new(file: &Path, line: usize, rule: &'static str, message: impl Into<String>) -> Self {
        Diagnostic {
            file: file.to_path_buf(),
            line,
            rule,
            message: message.into(),
            chain: Vec::new(),
        }
    }

    /// Attaches a source→sink call chain to the finding.
    fn with_chain(mut self, chain: Vec<String>) -> Self {
        self.chain = chain;
        self
    }
}

/// Runs every pass over the workspace at `root`. `rules` filters to the
/// given rule ids (empty = all). Diagnostics come back sorted by
/// (file, line, rule) so output is deterministic.
pub fn run(root: &Path, rules: &[String]) -> Result<Vec<Diagnostic>, String> {
    let ws = graph::Workspace::load(root)?;
    let call_graph = graph::Graph::build(&ws);
    let mut diags = Vec::new();
    diags.extend(source::run(&ws));
    diags.extend(reach::run(&ws, &call_graph));
    diags.extend(knobs::run(&ws));
    diags.extend(manifest::run(root)?);
    diags.extend(artifact::run(root)?);
    // Last, after every pass has had its chance to consume a directive.
    diags.extend(reach::stale_allows(&ws));
    if !rules.is_empty() {
        diags.retain(|d| rules.iter().any(|r| r == d.rule));
    }
    for d in &mut diags {
        if let Ok(rel) = d.file.strip_prefix(root) {
            d.file = rel.to_path_buf();
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(diags)
}

/// The `--bless` flow: rewrites `contracts/knobs.txt` from the code,
/// then runs the passes ([`run`] with `rules`) and writes what they
/// find to `baseline` as the accepted findings. Returns how many were
/// blessed. The inventory is rewritten first so the run is judged
/// against it: a knob whose last read was just deleted leaves the
/// inventory here instead of landing in the baseline as a `dead-knob`
/// finding.
pub fn bless(root: &Path, rules: &[String], baseline: &Path) -> Result<usize, String> {
    let ws = graph::Workspace::load(root)?;
    let knobs_path = root.join(knobs::KNOBS_TXT);
    std::fs::write(&knobs_path, knobs::knobs_txt(&ws))
        .map_err(|e| format!("write {}: {e}", knobs_path.display()))?;
    let diags = run(root, rules)?;
    std::fs::write(baseline, report::baseline_json(&diags))
        .map_err(|e| format!("write {}: {e}", baseline.display()))?;
    Ok(diags.len())
}

/// Ascends from `start` to the nearest directory whose `Cargo.toml`
/// declares a `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Recursively lists `*.rs` files under `dir`, sorted for deterministic
/// diagnostic order. Missing directories yield an empty list.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    collect_rust_files(dir, &mut files);
    files.sort();
    files
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Sorted immediate subdirectories of `dir` (empty if `dir` is missing).
fn subdirs(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut dirs: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    dirs.sort();
    dirs
}
