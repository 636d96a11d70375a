//! Pins `contracts/knobs.txt` to the code: the checked-in inventory of
//! `BDB_*` environment knobs must byte-match what the workspace scan
//! regenerates, mirroring the `tests/contracts_sync.rs` flow for the
//! catalog/metric/reduction contracts. Refresh after adding or removing
//! a knob with `scripts/lint_bless.sh` (or
//! `BDB_BLESS_CONTRACTS=1 cargo test -p bdb-lint knobs_sync`).

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> repo root
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn knobs_sync() {
    let root = workspace_root();
    let ws = bdb_lint::graph::Workspace::load(&root).expect("workspace loads");
    let expected = bdb_lint::knobs::knobs_txt(&ws);
    let path = root.join(bdb_lint::knobs::KNOBS_TXT);
    if std::env::var_os("BDB_BLESS_CONTRACTS").is_some() {
        std::fs::write(&path, expected).expect("write knobs.txt");
        return;
    }
    let actual = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{} unreadable ({e}); regenerate with scripts/lint_bless.sh",
            bdb_lint::knobs::KNOBS_TXT
        )
    });
    assert_eq!(
        actual,
        expected,
        "{} is out of sync with the code; regenerate with scripts/lint_bless.sh",
        bdb_lint::knobs::KNOBS_TXT
    );
}

/// A bless right after a knob's last read is deleted: `contracts/knobs.txt`
/// still lists the knob. The bless must drop it from the inventory before
/// it judges the tree, so the baseline stays empty instead of recording
/// the knob as a `dead-knob` finding.
#[test]
fn bless_with_a_stale_inventory_leaves_the_baseline_empty() {
    let root = std::env::temp_dir().join(format!("bdb-lint-bless-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let files = [
        ("Cargo.toml", "[workspace]\nmembers = [\"crates/app\"]\n"),
        ("crates/app/Cargo.toml", "[package]\nname = \"app\"\n"),
        (
            "crates/app/src/lib.rs",
            "pub fn alpha() -> Option<String> {\n    std::env::var(\"BDB_ALPHA\").ok()\n}\n",
        ),
        ("README.md", "`BDB_ALPHA` is read and documented.\n"),
        (bdb_lint::knobs::KNOBS_TXT, "BDB_ALPHA\nBDB_GONE\n"),
    ];
    for (rel, text) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().expect("file has a parent")).expect("mkdir");
        std::fs::write(&path, text).expect("write fixture file");
    }
    let rules = vec!["dead-knob".to_owned()];
    let before = bdb_lint::run(&root, &rules).expect("lint runs");
    assert_eq!(
        before.len(),
        1,
        "the stale inventory is a finding: {before:?}"
    );

    let baseline = root.join("contracts/lint_baseline.json");
    let blessed = bdb_lint::bless(&root, &rules, &baseline).expect("bless runs");
    assert_eq!(blessed, 0);
    assert_eq!(
        std::fs::read_to_string(&baseline).expect("baseline written"),
        bdb_lint::report::baseline_json(&[])
    );
    let knobs = std::fs::read_to_string(root.join(bdb_lint::knobs::KNOBS_TXT)).expect("knobs");
    assert!(knobs.lines().any(|l| l == "BDB_ALPHA"), "{knobs}");
    assert!(!knobs.contains("BDB_GONE"), "{knobs}");
    let _ = std::fs::remove_dir_all(&root);
}
