//! The workspace model and cross-crate call graph.
//!
//! [`Workspace::load`] parses every workspace source file once (library,
//! binary, and test/bench code — the per-line passes and the graph both
//! read from this single scan, which is also what lets the `stale-allow`
//! audit see every suppression consult). [`Graph::build`] then resolves
//! call expressions into edges between `fn` nodes:
//!
//! * **Path calls** (`a::b::f(..)`) resolve by path-suffix match against
//!   every known item path, after normalising `crate`/`self`/`super`
//!   prefixes and splicing `use` aliases and glob imports. Suffix
//!   matching makes re-exports (`pub use reuse::ReuseSink`) resolve
//!   without tracking the re-export chains themselves.
//! * **`self.m(..)` calls** resolve inside the enclosing `impl` type
//!   first, falling back to plain method resolution.
//! * **Method calls** (`.m(..)`) are where a name-level resolver must be
//!   conservative: they link to every same-named `fn` in the caller's
//!   crate or its workspace dependencies — which is how trait-object
//!   dispatch (e.g. `transport.send(..)` reaching every `Transport`
//!   impl) gets edges at all — except for a stoplist of ubiquitous
//!   std-shadowing names (`get`, `insert`, `next`, …) and names with
//!   more than `METHOD_FANOUT_CAP` candidates, which are dropped to
//!   keep the graph from collapsing into noise. The trade-off is
//!   documented in DESIGN.md §16.
//!
//! Everything is ordered (files sorted, nodes in file order, adjacency
//! sorted) so that graph traversals — and therefore diagnostics and the
//! JSON report — are byte-deterministic.

use crate::parse::{self, Callee, FileKind, ParsedFile};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

/// Method names never resolved by bare name: they shadow ubiquitous
/// std methods, so a name-level match would wire unrelated types
/// together.
const METHOD_STOPLIST: &[&str] = &[
    "new",
    "default",
    "clone",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "drop",
    "from",
    "into",
    "try_from",
    "try_into",
    "as_ref",
    "as_mut",
    "deref",
    "next",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "iter_mut",
    "into_iter",
    "contains",
    "contains_key",
    "extend",
    "clear",
    "write",
    "read",
    "flush",
    "map",
    "and_then",
    "min",
    "max",
    "sort",
    "split",
    "parse",
    "finish",
    "update",
    "to_string",
    "as_str",
    "as_bytes",
];

/// Method calls whose name matches more candidates than this are left
/// unresolved — past this point a name carries no signal.
const METHOD_FANOUT_CAP: usize = 8;

/// Every parsed source file plus crate metadata.
#[derive(Debug)]
pub struct Workspace {
    /// Workspace root directory.
    pub root: PathBuf,
    /// Parsed files, sorted by relative path.
    pub files: Vec<ParsedFile>,
    /// Crate key (directory name, or root package name) → crate ident
    /// as written in Rust paths (`bdb-engine` → `bdb_engine`).
    pub idents: BTreeMap<String, String>,
    /// Crate key → workspace crates it depends on (by crate key).
    pub deps: BTreeMap<String, BTreeSet<String>>,
}

impl Workspace {
    /// Parses every source file in the workspace at `root`. Vendored
    /// shims are exempt (they mirror external APIs); lint-test fixture
    /// trees are skipped so deliberate violations stay out of real runs.
    pub fn load(root: &Path) -> Result<Workspace, String> {
        let mut files = Vec::new();
        let mut idents = BTreeMap::new();
        let mut deps: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut package_to_key: BTreeMap<String, String> = BTreeMap::new();

        let mut crate_dirs: Vec<(String, PathBuf)> = vec![(root_package_key(), root.to_path_buf())];
        for dir in crate::subdirs(&root.join("crates")) {
            let name = dir
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            crate_dirs.push((name, dir));
        }

        for (key, dir) in &crate_dirs {
            let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
            let package = crate::manifest::section_entries(&manifest, "package")
                .into_iter()
                .find(|e| e.name == "name")
                .and_then(|e| e.value_string)
                .unwrap_or_else(|| key.clone());
            idents.insert(key.clone(), package.replace('-', "_"));
            package_to_key.insert(package, key.clone());
            let mut dep_names = BTreeSet::new();
            for section in ["dependencies", "dev-dependencies"] {
                for e in crate::manifest::section_entries(&manifest, section) {
                    dep_names.insert(e.name);
                }
            }
            deps.insert(key.clone(), dep_names);
        }
        // Translate dependency package names to crate keys, dropping
        // external (vendored) deps.
        let deps = deps
            .into_iter()
            .map(|(key, names)| {
                let resolved = names
                    .into_iter()
                    .filter_map(|n| package_to_key.get(&n).cloned())
                    .collect();
                (key, resolved)
            })
            .collect();

        for (key, dir) in &crate_dirs {
            for (sub, kind_of) in [
                ("src", None),
                ("tests", Some(FileKind::TestOrBench)),
                ("benches", Some(FileKind::TestOrBench)),
                ("examples", Some(FileKind::TestOrBench)),
            ] {
                for file in crate::rust_files(&dir.join(sub)) {
                    let Ok(rel) = file.strip_prefix(root) else {
                        continue;
                    };
                    if rel.components().any(|c| c.as_os_str() == "fixtures") {
                        continue;
                    }
                    let Ok(in_crate) = file.strip_prefix(dir) else {
                        continue;
                    };
                    let kind = kind_of.unwrap_or_else(|| {
                        if in_crate.starts_with("src/bin") {
                            FileKind::Bin
                        } else {
                            FileKind::Lib
                        }
                    });
                    let module = module_path(in_crate, kind);
                    let text = std::fs::read_to_string(&file)
                        .map_err(|e| format!("read {}: {e}", file.display()))?;
                    files.push(parse::parse_file(rel, key, &module, kind, &text));
                }
            }
        }
        files.sort_by(|a, b| a.rel.cmp(&b.rel));
        Ok(Workspace {
            root: root.to_path_buf(),
            files,
            idents,
            deps,
        })
    }

    /// The Rust path ident for a crate key (`engine` → `bdb_engine`).
    pub fn ident<'a>(&'a self, key: &'a str) -> &'a str {
        self.idents.get(key).map(String::as_str).unwrap_or(key)
    }
}

/// The crate key used for the workspace's root package.
pub(crate) fn root_package_key() -> String {
    "bigdatabench-repro".to_owned()
}

/// Module path of a file within its crate from its location. A binary
/// target is really its own crate root; giving it its file stem as a
/// module (`bdb_clusterd::main`) keeps same-named bin fns apart.
fn module_path(in_crate: &Path, kind: FileKind) -> Vec<String> {
    if kind == FileKind::TestOrBench {
        return Vec::new();
    }
    if kind == FileKind::Bin {
        return in_crate
            .file_stem()
            .map(|s| vec![s.to_string_lossy().into_owned()])
            .unwrap_or_default();
    }
    let mut parts: Vec<String> = in_crate
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    if parts.first().map(String::as_str) == Some("src") {
        parts.remove(0);
    }
    let Some(last) = parts.pop() else {
        return Vec::new();
    };
    let stem = last.trim_end_matches(".rs");
    if stem != "lib" && stem != "main" && stem != "mod" {
        parts.push(stem.to_owned());
    }
    parts
}

/// One node in the call graph: a `fn` item in a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnRef {
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// Index into that file's `fns`.
    pub item: usize,
}

/// The resolved cross-crate call graph.
#[derive(Debug)]
pub struct Graph {
    /// Nodes in (file, item) order.
    pub nodes: Vec<FnRef>,
    /// `edges[n]` — sorted, deduplicated `(callee, call line)` pairs.
    pub edges: Vec<Vec<(usize, usize)>>,
    /// fn name → node indexes.
    by_name: BTreeMap<String, Vec<usize>>,
    /// node → full path segments (`[bdb_engine, store, CacheStore, read]`).
    paths: Vec<Vec<String>>,
}

impl Graph {
    /// Builds the graph over every non-test `fn` in library and binary
    /// code.
    pub fn build(ws: &Workspace) -> Graph {
        let mut nodes = Vec::new();
        let mut by_name: BTreeMap<String, Vec<usize>> = BTreeMap::new();
        let mut paths = Vec::new();
        for (fi, file) in ws.files.iter().enumerate() {
            if file.kind == FileKind::TestOrBench {
                continue;
            }
            for (ii, f) in file.fns.iter().enumerate() {
                if f.in_test || f.name.is_empty() {
                    continue;
                }
                let idx = nodes.len();
                nodes.push(FnRef { file: fi, item: ii });
                by_name.entry(f.name.clone()).or_default().push(idx);
                let mut path = vec![ws.ident(&file.krate).to_owned()];
                path.extend(file.module.iter().cloned());
                path.extend(f.qual.iter().cloned());
                path.push(f.name.clone());
                paths.push(path);
            }
        }
        let mut graph = Graph {
            nodes,
            edges: Vec::new(),
            by_name,
            paths,
        };
        let mut edges: Vec<Vec<(usize, usize)>> = vec![Vec::new(); graph.nodes.len()];
        for (n, &FnRef { file, item }) in graph.nodes.iter().enumerate() {
            let pf = &ws.files[file];
            let Some(f) = pf.fns.get(item) else {
                continue;
            };
            for call in &f.calls {
                for target in graph.resolve(ws, file, item, &call.callee) {
                    if target != n {
                        edges[n].push((target, call.line));
                    }
                }
            }
            edges[n].sort_unstable();
            edges[n].dedup_by_key(|(t, _)| *t);
        }
        graph.edges = edges;
        graph
    }

    /// Full display path of a node (`bdb_sim::fused::fused_points`).
    pub fn display_path(&self, node: usize) -> String {
        self.paths
            .get(node)
            .map(|p| p.join("::"))
            .unwrap_or_default()
    }

    /// Nodes whose crate key is `krate` and whose path ends with the
    /// given suffix segments (fn name last).
    pub fn find(&self, ws: &Workspace, krate: &str, suffix: &[&str]) -> Vec<usize> {
        (0..self.nodes.len())
            .filter(|&n| {
                let file = &ws.files[self.nodes[n].file];
                file.krate == krate && ends_with(&self.paths[n], suffix)
            })
            .collect()
    }

    /// Resolves one call expression to zero or more target nodes.
    fn resolve(&self, ws: &Workspace, file: usize, item: usize, callee: &Callee) -> Vec<usize> {
        match callee {
            Callee::Path(segs) => self.resolve_path(ws, file, segs),
            Callee::SelfMethod(name) => {
                let pf = &ws.files[file];
                let impl_type = pf.fns.get(item).and_then(|f| f.qual.last().cloned());
                if let Some(ty) = impl_type {
                    let targets = self.candidates_in_type(ws, &pf.krate, &ty, name);
                    if !targets.is_empty() {
                        return targets;
                    }
                }
                self.resolve_method(ws, file, name)
            }
            Callee::Method(name) => self.resolve_method(ws, file, name),
        }
    }

    fn resolve_path(&self, ws: &Workspace, file: usize, segs: &[String]) -> Vec<usize> {
        let pf = &ws.files[file];
        let Some(name) = segs.last() else {
            return Vec::new();
        };
        let mut prefix: Vec<String> = segs[..segs.len() - 1].to_vec();
        // Splice a leading `use` alias (`bval::…` after
        // `use bdb_codec::bval`). An alias for the full first segment
        // replaces it with the aliased path.
        if let Some(first) = prefix.first().cloned() {
            if let Some((_, full)) = pf.imports.iter().find(|(n, _)| *n == first) {
                let mut spliced = full.clone();
                spliced.extend(prefix[1..].iter().cloned());
                prefix = spliced;
            }
        } else if let Some((_, full)) = pf.imports.iter().find(|(n, _)| n == name) {
            // Bare call to an imported fn: `use a::b::f; … f(x)`.
            let mut candidates = self.suffix_candidates(name, full);
            if !candidates.is_empty() {
                candidates.sort_unstable();
                return candidates;
            }
        }
        // Normalise crate-relative prefixes.
        match prefix.first().map(String::as_str) {
            Some("crate") => {
                prefix[0] = ws.ident(&pf.krate).to_owned();
            }
            Some("super") => {
                let mut base = vec![ws.ident(&pf.krate).to_owned()];
                let keep = pf.module.len().saturating_sub(1);
                base.extend(pf.module[..keep].iter().cloned());
                base.extend(prefix[1..].iter().cloned());
                prefix = base;
            }
            _ => {}
        }
        if prefix.is_empty() {
            // Bare call: same file first, then glob imports.
            let same_file: Vec<usize> = self
                .by_name
                .get(name)
                .map(|nodes| {
                    nodes
                        .iter()
                        .copied()
                        .filter(|&n| self.nodes[n].file == file)
                        .collect()
                })
                .unwrap_or_default();
            if !same_file.is_empty() {
                return same_file;
            }
            for glob in &pf.globs {
                let mut full = glob.clone();
                full.push(name.clone());
                let found = self.suffix_candidates(name, &full);
                if !found.is_empty() {
                    return found;
                }
            }
            return Vec::new();
        }
        let mut full = prefix;
        full.push(name.clone());
        self.suffix_candidates(name, &full)
    }

    /// Nodes named `name` whose full path ends with `full`'s segments.
    fn suffix_candidates(&self, name: &str, full: &[String]) -> Vec<usize> {
        let suffix: Vec<&str> = full.iter().map(String::as_str).collect();
        self.by_name
            .get(name)
            .map(|nodes| {
                nodes
                    .iter()
                    .copied()
                    .filter(|&n| ends_with(&self.paths[n], &suffix))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Methods named `name` on impl type `ty` within crate `krate`.
    fn candidates_in_type(&self, ws: &Workspace, krate: &str, ty: &str, name: &str) -> Vec<usize> {
        self.by_name
            .get(name)
            .map(|nodes| {
                nodes
                    .iter()
                    .copied()
                    .filter(|&n| {
                        let r = self.nodes[n];
                        let f = &ws.files[r.file];
                        f.krate == krate
                            && f.fns
                                .get(r.item)
                                .is_some_and(|i| i.qual.last().is_some_and(|q| q == ty))
                    })
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Conservative method-call resolution: every same-named fn in the
    /// caller's crate or its workspace dependencies, unless the name is
    /// stoplisted or matches too many candidates.
    fn resolve_method(&self, ws: &Workspace, file: usize, name: &str) -> Vec<usize> {
        if METHOD_STOPLIST.contains(&name) {
            return Vec::new();
        }
        let caller_crate = &ws.files[file].krate;
        let empty = BTreeSet::new();
        let deps = ws.deps.get(caller_crate).unwrap_or(&empty);
        let candidates: Vec<usize> = self
            .by_name
            .get(name)
            .map(|nodes| {
                nodes
                    .iter()
                    .copied()
                    .filter(|&n| {
                        let krate = &ws.files[self.nodes[n].file].krate;
                        krate == caller_crate || deps.contains(krate)
                    })
                    .collect()
            })
            .unwrap_or_default();
        if candidates.len() > METHOD_FANOUT_CAP {
            return Vec::new();
        }
        candidates
    }
}

/// Whether `path` ends with `suffix`, segment for segment.
fn ends_with(path: &[String], suffix: &[&str]) -> bool {
    suffix.len() <= path.len()
        && path[path.len() - suffix.len()..]
            .iter()
            .zip(suffix)
            .all(|(a, b)| a == b)
}

/// Breadth-first reachability from `roots`, returning for each reached
/// node the predecessor (`parent[n]`) and the call line used, so rules
/// can print the shortest call chain. Roots have no parent.
pub fn bfs(graph: &Graph, roots: &[usize]) -> BTreeMap<usize, Option<(usize, usize)>> {
    let mut seen: BTreeMap<usize, Option<(usize, usize)>> = BTreeMap::new();
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut sorted_roots: Vec<usize> = roots.to_vec();
    sorted_roots.sort_unstable();
    for &r in &sorted_roots {
        if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(r) {
            e.insert(None);
            queue.push_back(r);
        }
    }
    while let Some(n) = queue.pop_front() {
        if let Some(adj) = graph.edges.get(n) {
            for &(m, line) in adj {
                if let std::collections::btree_map::Entry::Vacant(e) = seen.entry(m) {
                    e.insert(Some((n, line)));
                    queue.push_back(m);
                }
            }
        }
    }
    seen
}

/// Reconstructs the root→node call chain from a [`bfs`] parent map.
pub fn chain_to(
    reached: &BTreeMap<usize, Option<(usize, usize)>>,
    node: usize,
) -> Vec<(usize, Option<usize>)> {
    // Entries are (node, line-of-call-into-next); the last entry has no
    // outgoing line.
    let mut rev = vec![(node, None)];
    let mut cur = node;
    let mut hops = 0;
    while let Some(Some((parent, line))) = reached.get(&cur) {
        rev.push((*parent, Some(*line)));
        cur = *parent;
        hops += 1;
        if hops > reached.len() {
            break; // defensive: cycles cannot occur in a parent map
        }
    }
    rev.reverse();
    rev
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_workspace() -> (tempdir::Dir, Workspace) {
        let dir = tempdir::Dir::new("bdb-lint-graph");
        dir.write(
            "Cargo.toml",
            "[workspace]\nmembers = [\"crates/*\"]\n[workspace.dependencies]\n",
        );
        dir.write(
            "crates/alpha/Cargo.toml",
            "[package]\nname = \"alpha\"\n[dependencies]\nbeta = { workspace = true }\n",
        );
        dir.write(
            "crates/alpha/src/lib.rs",
            "use beta::helper;\n\npub fn entry() {\n    helper();\n    local();\n}\n\nfn local() {}\n",
        );
        dir.write("crates/beta/Cargo.toml", "[package]\nname = \"beta\"\n");
        dir.write(
            "crates/beta/src/lib.rs",
            "pub fn helper() {\n    deep();\n}\n\nfn deep() {\n    let t = std::time::Instant::now();\n    let _ = t;\n}\n",
        );
        let ws = Workspace::load(dir.path()).expect("load");
        (dir, ws)
    }

    #[test]
    fn cross_crate_calls_resolve_and_bfs_reaches() {
        let (_dir, ws) = mini_workspace();
        let graph = Graph::build(&ws);
        let roots = graph.find(&ws, "alpha", &["entry"]);
        assert_eq!(roots.len(), 1);
        let reached = bfs(&graph, &roots);
        let deep = graph.find(&ws, "beta", &["deep"]);
        assert_eq!(deep.len(), 1);
        assert!(reached.contains_key(&deep[0]), "entry -> helper -> deep");
        let chain = chain_to(&reached, deep[0]);
        let names: Vec<String> = chain.iter().map(|(n, _)| graph.display_path(*n)).collect();
        assert_eq!(names, vec!["alpha::entry", "beta::helper", "beta::deep"]);
    }

    #[test]
    fn graph_build_is_deterministic() {
        let (_dir, ws) = mini_workspace();
        let a = Graph::build(&ws);
        let b = Graph::build(&ws);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.edges, b.edges);
    }

    /// Minimal scratch-dir helper (no tempfile dependency).
    mod tempdir {
        use std::path::{Path, PathBuf};

        pub struct Dir(PathBuf);

        impl Dir {
            pub fn new(tag: &str) -> Dir {
                // Tests run in parallel and share tags: a per-call
                // sequence number keeps their directories apart.
                static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
                let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let pid = std::process::id();
                let dir = std::env::temp_dir().join(format!("{tag}-{pid}-{seq}"));
                let _ = std::fs::remove_dir_all(&dir);
                std::fs::create_dir_all(&dir).expect("create scratch dir");
                Dir(dir)
            }

            pub fn path(&self) -> &Path {
                &self.0
            }

            pub fn write(&self, rel: &str, text: &str) {
                let path = self.0.join(rel);
                if let Some(parent) = path.parent() {
                    std::fs::create_dir_all(parent).expect("create parent");
                }
                std::fs::write(path, text).expect("write fixture");
            }
        }

        impl Drop for Dir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }
}
