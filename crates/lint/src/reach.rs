//! Source→sink reachability rules over the call graph.
//!
//! Each rule family pins a set of *root* functions (pipeline entry
//! points, fleet loops, recovery paths, hot loops) and a set of
//! *primitive* operations (wall-clock reads, panics, allocations, …)
//! that must not be reachable from them. A single BFS per family from
//! all roots yields, for every reachable function, the shortest call
//! chain back to the nearest root; diagnostics anchor at the offending
//! primitive's line and print that chain hop by hop.
//!
//! Roots are named by `(crate key, path suffix)` so the same specs
//! resolve against both the real workspace and the fixture
//! mini-workspaces used by the rule tests.

use crate::graph::{bfs, chain_to, Graph, Workspace};
use crate::parse::{FileKind, Prim};
use crate::Diagnostic;

/// A root function: crate key plus path suffix (fn name last).
struct RootSpec {
    krate: &'static str,
    suffix: &'static [&'static str],
}

/// One reachability rule family.
struct ReachRule {
    rule: &'static str,
    /// Per-line rule whose `allow(..)` justification also covers this
    /// family (the reachability rule subsumes the blanket rule, so one
    /// written justification serves both).
    also_allowed_as: Option<&'static str>,
    roots: &'static [RootSpec],
    /// What the roots are, for the diagnostic message.
    root_kind: &'static str,
    /// Which primitives this family bans, with a short description.
    prims: &'static [(Prim, &'static str)],
    /// If non-empty, [`Prim::Indexing`] findings are confined to these
    /// crates (kernel code indexes fixed-shape arrays constantly; the
    /// fleet/recovery crates are where a panic is expensive).
    indexing_crates: &'static [&'static str],
    /// Functions exempt from this family by name. Hot-loop rules skip
    /// constructors: allocation there is per-object setup amortised over
    /// the replay, not steady-state work.
    exempt_fns: &'static [&'static str],
}

const NONDET: ReachRule = ReachRule {
    rule: "nondeterminism-reachability",
    also_allowed_as: Some("determinism"),
    roots: &[
        RootSpec {
            krate: "engine",
            suffix: &["Engine", "profile"],
        },
        RootSpec {
            krate: "engine",
            suffix: &["Engine", "profile_all"],
        },
        RootSpec {
            krate: "engine",
            suffix: &["Engine", "sweep"],
        },
        RootSpec {
            krate: "engine",
            suffix: &["Engine", "sweep_workload"],
        },
        RootSpec {
            krate: "engine",
            suffix: &["Engine", "run_task"],
        },
        RootSpec {
            krate: "engine",
            suffix: &["Engine", "run_task_entry"],
        },
        RootSpec {
            krate: "cluster",
            suffix: &["run_worker"],
        },
        RootSpec {
            krate: "cluster",
            suffix: &["profile_all_distributed"],
        },
        RootSpec {
            krate: "cluster",
            suffix: &["Coordinator", "run_elastic"],
        },
        RootSpec {
            krate: "wcrt",
            suffix: &["characterize"],
        },
        RootSpec {
            krate: "wcrt",
            suffix: &["reduce"],
        },
    ],
    root_kind: "profile/serialization entry",
    prims: &[
        (Prim::WallClock, "wall-clock read"),
        (Prim::ThreadIdentity, "thread-identity query"),
        (Prim::UnorderedCollection, "unordered collection"),
    ],
    indexing_crates: &[],
    exempt_fns: &[],
};

const PANIC: ReachRule = ReachRule {
    rule: "panic-reachability",
    also_allowed_as: Some("panic-hygiene"),
    roots: &[
        RootSpec {
            krate: "cluster",
            suffix: &["run_worker"],
        },
        RootSpec {
            krate: "cluster",
            suffix: &["Coordinator", "run_elastic"],
        },
        RootSpec {
            krate: "cluster",
            suffix: &["bdb_clusterd", "main"],
        },
        RootSpec {
            krate: "serve",
            suffix: &["bdb_served", "main"],
        },
        RootSpec {
            krate: "engine",
            suffix: &["Engine", "admit_entry"],
        },
        RootSpec {
            krate: "engine",
            suffix: &["scan_cache_dir"],
        },
        RootSpec {
            krate: "engine",
            suffix: &["enforce_cache_cap"],
        },
    ],
    root_kind: "fleet/recovery path",
    prims: &[
        (Prim::Panic, "can panic"),
        (Prim::Indexing, "slice/array indexing can panic"),
    ],
    indexing_crates: &["cluster", "engine", "serve"],
    exempt_fns: &[],
};

const HOT_LOOP: ReachRule = ReachRule {
    rule: "hot-loop-allocation",
    also_allowed_as: None,
    roots: &[
        RootSpec {
            krate: "sim",
            suffix: &["fused_points"],
        },
        RootSpec {
            krate: "sim",
            suffix: &["Lane", "feed"],
        },
        RootSpec {
            krate: "sim",
            suffix: &["InstructionLane", "feed"],
        },
        RootSpec {
            krate: "sim",
            suffix: &["DataLane", "feed"],
        },
        RootSpec {
            krate: "sim",
            suffix: &["ReplayLru", "replay_ifetch"],
        },
        RootSpec {
            krate: "sim",
            suffix: &["exec"],
        },
        RootSpec {
            krate: "trace",
            suffix: &["exec"],
        },
    ],
    root_kind: "hot loop",
    prims: &[
        (Prim::Alloc, "allocation"),
        (Prim::EnvRead, "environment read"),
        (Prim::BlockingFs, "blocking fs call"),
    ],
    indexing_crates: &[],
    exempt_fns: &["new", "with_capacity", "default"],
};

/// The three reachability families, in report order.
const FAMILIES: [&ReachRule; 3] = [&NONDET, &PANIC, &HOT_LOOP];

/// Runs all three reachability families over a built graph.
pub fn run(ws: &Workspace, graph: &Graph) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for rule in FAMILIES {
        run_rule(ws, graph, rule, &mut diags);
    }
    diags
}

fn run_rule(ws: &Workspace, graph: &Graph, rule: &ReachRule, diags: &mut Vec<Diagnostic>) {
    let mut roots = Vec::new();
    for spec in rule.roots {
        roots.extend(graph.find(ws, spec.krate, spec.suffix));
    }
    if roots.is_empty() {
        return;
    }
    let reached = bfs(graph, &roots);
    for (&node, _) in reached.iter() {
        let nref = graph.nodes[node];
        let pf = &ws.files[nref.file];
        let Some(f) = pf.fns.get(nref.item) else {
            continue;
        };
        if rule.exempt_fns.contains(&f.name.as_str()) {
            continue;
        }
        for prim in &f.prims {
            let Some((_, what)) = rule.prims.iter().find(|(p, _)| *p == prim.prim) else {
                continue;
            };
            if prim.prim == Prim::Indexing
                && !rule.indexing_crates.is_empty()
                && !rule.indexing_crates.contains(&pf.krate.as_str())
            {
                continue;
            }
            let idx = prim.line.saturating_sub(1);
            if pf.scanned.suppressed(idx, rule.rule) {
                continue;
            }
            if let Some(alias) = rule.also_allowed_as {
                if pf.scanned.suppressed(idx, alias) {
                    continue;
                }
            }
            let chain = chain_text(ws, graph, &reached, node, prim.line);
            let root_path = chain
                .first()
                .map(|h| h.split(' ').next().unwrap_or("").to_owned())
                .unwrap_or_default();
            diags.push(
                Diagnostic::new(
                    &ws.root.join(&pf.rel),
                    prim.line,
                    rule.rule,
                    format!(
                        "`{}` ({what}) is reachable from {} `{root_path}`",
                        prim.token, rule.root_kind
                    ),
                )
                .with_chain(chain),
            );
        }
    }
}

/// Renders a BFS chain as `path (file:line)` hops; the final hop points
/// at the primitive's own line.
fn chain_text(
    ws: &Workspace,
    graph: &Graph,
    reached: &std::collections::BTreeMap<usize, Option<(usize, usize)>>,
    node: usize,
    sink_line: usize,
) -> Vec<String> {
    chain_to(reached, node)
        .into_iter()
        .map(|(n, call_line)| {
            let file = &ws.files[graph.nodes[n].file];
            let line = call_line.unwrap_or(sink_line);
            format!("{} ({}:{line})", graph.display_path(n), file.rel.display())
        })
        .collect()
}

/// The `stale-allow` audit: every `bdb-lint: allow(..)` directive must
/// have suppressed at least one finding by the time all passes have run.
/// Must be called last.
pub fn stale_allows(ws: &Workspace) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for pf in &ws.files {
        if pf.kind == FileKind::TestOrBench {
            // Test code is outside every source pass; directives there
            // are documentation, not suppressions.
            continue;
        }
        for d in pf.scanned.stale_directives() {
            if !crate::RULES.iter().any(|(r, _)| *r == d.rule) {
                diags.push(Diagnostic::new(
                    &ws.root.join(&pf.rel),
                    d.line_idx + 1,
                    "stale-allow",
                    format!("allow({}) names an unknown rule", d.rule),
                ));
                continue;
            }
            diags.push(Diagnostic::new(
                &ws.root.join(&pf.rel),
                d.line_idx + 1,
                "stale-allow",
                format!(
                    "allow({}) suppresses nothing — remove the stale directive",
                    d.rule
                ),
            ));
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// `run_rule` skips a root that matches no function without a word,
    /// so deleting or renaming a root's function would silently drop
    /// that family's coverage of everything only it reached. Every root
    /// must resolve in the real workspace.
    #[test]
    fn every_root_resolves_in_the_workspace() {
        let root = crate::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
            .expect("the lint crate lives inside the workspace");
        let ws = Workspace::load(&root).expect("workspace parses");
        let graph = Graph::build(&ws);
        let unresolved: Vec<String> = FAMILIES
            .iter()
            .flat_map(|rule| rule.roots.iter().map(move |spec| (rule.rule, spec)))
            .filter(|(_, spec)| graph.find(&ws, spec.krate, spec.suffix).is_empty())
            .map(|(rule, spec)| format!("{rule}: {}::{}", spec.krate, spec.suffix.join("::")))
            .collect();
        assert!(
            unresolved.is_empty(),
            "reachability roots match no function: {unresolved:?}"
        );
    }
}
