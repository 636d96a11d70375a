//! Per-rule fixture tests: each mini-workspace under `tests/fixtures/`
//! checks in one deliberate violation (plus a nearby negative) for a
//! rule family, and the assertions pin both the finding set and — for
//! the reachability families — the exact printed source→sink call
//! chain. The fixture trees are skipped by the workspace loader when
//! linting the real repository (`graph.rs` drops any path with a
//! `fixtures` component), so the violations never leak into real runs.

use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(name: &str, rules: &[&str]) -> Vec<bdb_lint::Diagnostic> {
    let rules: Vec<String> = rules.iter().map(|r| r.to_string()).collect();
    bdb_lint::run(&fixture(name), &rules).expect("lint run succeeds")
}

fn rendered(diags: &[bdb_lint::Diagnostic]) -> String {
    diags
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn nondeterminism_reachability_prints_the_call_chain() {
    let diags = run("nondet", &["nondeterminism-reachability"]);
    assert_eq!(
        diags.len(),
        1,
        "one finding expected:\n{}",
        rendered(&diags)
    );
    let d = &diags[0];
    assert_eq!(d.file, PathBuf::from("crates/util/src/lib.rs"));
    assert_eq!(d.line, 2);
    assert_eq!(d.rule, "nondeterminism-reachability");
    assert_eq!(
        d.to_string(),
        "crates/util/src/lib.rs:2: [nondeterminism-reachability] `SystemTime` \
         (wall-clock read) is reachable from profile/serialization entry \
         `engine::Engine::profile`\n    \
         chain: engine::Engine::profile (crates/engine/src/lib.rs:7)\n        \
         -> util::stamp (crates/util/src/lib.rs:2)"
    );
}

#[test]
fn nondeterminism_alias_suppression_counts_as_used() {
    // The HashMap in `util::stamp` is reachable too, but its
    // `allow(determinism)` comment covers the reachability family via
    // `also_allowed_as` — and a consumed directive must not then be
    // reported stale.
    let diags = run("nondet", &["stale-allow"]);
    assert!(
        diags.is_empty(),
        "no stale directives:\n{}",
        rendered(&diags)
    );
}

#[test]
fn panic_reachability_flags_unwrap_and_indexing() {
    let diags = run("panics", &["panic-reachability"]);
    assert_eq!(
        diags.len(),
        2,
        "unwrap + indexing expected:\n{}",
        rendered(&diags)
    );
    assert_eq!(
        diags[0].to_string(),
        "crates/cluster/src/lib.rs:6: [panic-reachability] `.unwrap()` \
         (can panic) is reachable from fleet/recovery path \
         `cluster::run_worker`\n    \
         chain: cluster::run_worker (crates/cluster/src/lib.rs:2)\n        \
         -> cluster::step (crates/cluster/src/lib.rs:6)"
    );
    assert_eq!(diags[1].line, 7);
    assert!(
        diags[1]
            .message
            .contains("`[n]` (slice/array indexing can panic)"),
        "{}",
        diags[1]
    );
    // `offline` also unwraps (via unwrap_or, which must NOT match) and
    // is not reachable from the worker loop — no third finding.
}

#[test]
fn hot_loop_allocation_exempts_constructors() {
    let diags = run("hotloop", &["hot-loop-allocation"]);
    assert_eq!(
        diags.len(),
        1,
        "only the non-constructor vec! fires:\n{}",
        rendered(&diags)
    );
    assert_eq!(
        diags[0].to_string(),
        "crates/sim/src/lib.rs:17: [hot-loop-allocation] `vec!` (allocation) \
         is reachable from hot loop `sim::fused_points`\n    \
         chain: sim::fused_points (crates/sim/src/lib.rs:13)\n        \
         -> sim::fill (crates/sim/src/lib.rs:17)"
    );
}

#[test]
fn dead_knob_flags_all_four_drift_directions() {
    let diags = run("knobs", &["dead-knob"]);
    let msgs: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(diags.len(), 4, "{}", rendered(&diags));
    assert!(msgs.contains(&"`BDB_BETA` is read here but not listed in contracts/knobs.txt"));
    assert!(
        msgs.contains(&"`BDB_BETA` is read here but documented in neither README.md nor help_text")
    );
    assert!(
        msgs.contains(&"`BDB_GHOST` is listed in contracts/knobs.txt but never read — dead knob")
    );
    assert!(msgs.contains(&"`BDB_PHANTOM` is documented but never read — dead knob"));
    // BDB_ALPHA is read, listed, and documented: no finding names it.
    assert!(msgs.iter().all(|m| !m.contains("BDB_ALPHA")));
}

#[test]
fn stale_allow_flags_unused_and_unknown_directives() {
    let diags = run("stale", &["stale-allow"]);
    assert_eq!(diags.len(), 2, "{}", rendered(&diags));
    assert_eq!(diags[0].line, 1);
    assert_eq!(
        diags[0].message,
        "allow(determinism) suppresses nothing — remove the stale directive"
    );
    assert_eq!(diags[1].line, 6);
    assert_eq!(
        diags[1].message,
        "allow(no-such-rule) names an unknown rule"
    );
}

#[test]
fn json_report_is_byte_stable_across_runs() {
    let a = bdb_lint::report::to_json(&run("panics", &[]));
    let b = bdb_lint::report::to_json(&run("panics", &[]));
    assert_eq!(
        a, b,
        "two runs over the same tree must serialize identically"
    );
    assert!(a.ends_with('\n'));
}
