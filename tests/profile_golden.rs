//! Pins the simulator's output across commits.
//!
//! The serial == parallel == served identity contracts compare two runs of
//! the *same* simulator, so a rewrite that shifted every MPKI by the same
//! amount would pass them. This test compares against digests checked in
//! under `contracts/profile_digests.txt`: one CRC-64 of the canonical
//! profile bytes per catalog workload at `Scale::tiny` on two platforms,
//! plus the Fig. 6–9 sweep curves of two workloads on the paper's 8-way
//! LRU family and on a Random-replacement family.
//!
//! A digest that moves is a change to the paper's numbers. If it is
//! intended, regenerate with
//! `BDB_BLESS_CONTRACTS=1 cargo test --test profile_golden` and commit the
//! rewritten file alongside the explanation.

use bigdatabench_repro::prelude::*;
use engine::{codec, crc64, Engine};
use node::NodeConfig;
use sim::{MachineConfig, Replacement, SweepFamily, PAPER_SWEEP_KIB};
use std::fmt::Write as _;
use std::path::PathBuf;
use workloads::{catalog, Scale, WorkloadDef};

const DIGESTS: &str = "contracts/profile_digests.txt";

/// One Fig. 6–9 Hadoop workload and its MPI control.
const SWEPT: [&str; 2] = ["H-WordCount", "M-Sort"];

fn find(defs: &[WorkloadDef], id: &str) -> WorkloadDef {
    defs.iter()
        .find(|w| w.spec.id == id)
        .cloned()
        .unwrap_or_else(|| panic!("{id} missing from the catalog"))
}

fn digests() -> String {
    let mut out = String::from(
        "# CRC-64 of canonical profile/sweep bytes, pinned across commits.\n\
         # Generated by tests/profile_golden.rs — do not edit by hand.\n\
         # kind\tplatform\tworkload\tcrc64\n",
    );
    let engine = Engine::in_memory();
    let scale = Scale::tiny();
    let catalog = catalog::full_catalog();
    for (tag, machine) in [
        ("xeon_e5645", MachineConfig::xeon_e5645()),
        ("atom_d510", MachineConfig::atom_d510()),
    ] {
        let profiles = engine.profile_all(&catalog, scale, &machine, &NodeConfig::default());
        for p in &profiles {
            let bytes = codec::profile_to_value(p).encode();
            let _ = writeln!(
                out,
                "profile\t{tag}\t{}\t{:016x}",
                p.spec.id,
                crc64(bytes.as_bytes())
            );
        }
    }
    let mut defs = catalog;
    defs.extend(catalog::mpi_workloads());
    let random = SweepFamily {
        replacement: Replacement::Random,
        ..SweepFamily::atom()
    };
    for id in SWEPT {
        let def = find(&defs, id);
        let run = |sink: &mut dyn trace::TraceSink| {
            let _ = def.run(sink, scale);
        };
        let lru = engine.sweep(id, &PAPER_SWEEP_KIB, run);
        let streams = sim::SweepStreams::record(run);
        let rnd = sim::assemble_sweep(
            id,
            &PAPER_SWEEP_KIB,
            sim::fused_points(&random, &PAPER_SWEEP_KIB, &streams),
        );
        for (tag, result) in [("atom_lru", lru), ("atom_random", rnd)] {
            let bytes = codec::sweep_result_to_value(&result).encode();
            let _ = writeln!(out, "sweep\t{tag}\t{id}\t{:016x}", crc64(bytes.as_bytes()));
        }
    }
    out
}

#[test]
fn simulator_output_matches_pinned_digests() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(DIGESTS);
    let expected = digests();
    if std::env::var_os("BDB_BLESS_CONTRACTS").is_some() {
        std::fs::write(&path, &expected).unwrap();
        return;
    }
    let actual = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{DIGESTS} unreadable ({e}); run with BDB_BLESS_CONTRACTS=1"));
    let drifted: Vec<_> = expected
        .lines()
        .zip(actual.lines())
        .filter(|(e, a)| e != a)
        .map(|(e, a)| format!("  pinned {a}\n  now    {e}"))
        .collect();
    assert!(
        drifted.is_empty() && expected.lines().count() == actual.lines().count(),
        "simulator output drifted from {DIGESTS} ({} lines differ):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
