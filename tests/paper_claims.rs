//! Integration tests asserting the paper's headline observations hold in
//! the reproduction — the *shape* claims, not absolute numbers.

use bigdatabench_repro::prelude::*;
use node::NodeConfig;
use sim::MachineConfig;
use wcrt::profile_workload;
use workloads::{catalog, Scale, WorkloadDef};

fn find<'a>(defs: &'a [WorkloadDef], id: &str) -> &'a WorkloadDef {
    defs.iter()
        .find(|w| w.spec.id == id)
        .unwrap_or_else(|| panic!("{id} missing"))
}

fn profile(def: &WorkloadDef, scale: Scale) -> wcrt::WorkloadProfile {
    profile_workload(
        def,
        scale,
        MachineConfig::xeon_e5645(),
        NodeConfig::default(),
    )
}

/// O4: the same WordCount has an order-of-magnitude L1I MPKI gap between
/// the thin MPI stack and the deep managed stacks (paper: 2 / 7 / 17).
#[test]
fn stack_study_l1i_ordering() {
    let mut defs = catalog::full_catalog();
    defs.extend(catalog::mpi_workloads());
    let scale = Scale::small();
    let m = profile(find(&defs, "M-WordCount"), scale).report.l1i_mpki();
    let h = profile(find(&defs, "H-WordCount"), scale).report.l1i_mpki();
    let s = profile(find(&defs, "S-WordCount"), scale).report.l1i_mpki();
    assert!(
        m < h && h < s,
        "expected M < H < S, got {m:.2} / {h:.2} / {s:.2}"
    );
    assert!(
        s / m.max(1e-9) > 8.0,
        "order-of-magnitude gap: {m:.2} vs {s:.2}"
    );
}

/// O4 (IPC side): the MPI implementations retire faster than the managed
/// stacks for the same algorithm (paper: 1.4 vs 1.16 on average).
#[test]
fn mpi_ipc_beats_managed_stacks() {
    let mut defs = catalog::full_catalog();
    defs.extend(catalog::mpi_workloads());
    let scale = Scale::tiny();
    let mut mpi = 0.0;
    let mut managed = 0.0;
    for (m_id, h_id, s_id) in [
        ("M-WordCount", "H-WordCount", "S-WordCount"),
        ("M-Grep", "H-Grep", "S-Grep"),
        ("M-Kmeans", "H-Kmeans", "S-Kmeans"),
    ] {
        mpi += profile(find(&defs, m_id), scale).report.ipc();
        managed += (profile(find(&defs, h_id), scale).report.ipc()
            + profile(find(&defs, s_id), scale).report.ipc())
            / 2.0;
    }
    assert!(
        mpi > managed,
        "MPI avg IPC {mpi:.2} should beat managed {managed:.2}"
    );
}

/// O1: big data workloads are data-movement dominated (~92 % in the paper)
/// with branch ratios well above the numeric suites.
#[test]
fn instruction_mix_is_data_movement_dominated() {
    let scale = Scale::tiny();
    let reps = catalog::representatives();
    let mut movement = 0.0;
    let mut branch = 0.0;
    let sample: Vec<&str> = vec![
        "H-WordCount",
        "S-WordCount",
        "H-Grep",
        "S-Sort",
        "H-Read",
        "S-Kmeans",
    ];
    for id in &sample {
        let p = profile(find(&reps, id), scale);
        movement += p.report.mix.data_movement_ratio();
        branch += p.report.mix.branch_ratio();
    }
    movement /= sample.len() as f64;
    branch /= sample.len() as f64;
    assert!(
        movement > 0.80,
        "data movement share {movement:.2} (paper ~0.92)"
    );
    assert!(
        (0.10..0.35).contains(&branch),
        "branch ratio {branch:.2} (paper 0.187)"
    );

    // Numeric suites have far lower branch ratios and higher FP.
    let hpcc = catalog::suite_workloads(workloads::suites::Suite::Hpcc);
    let dgemm = profile(&hpcc[1], scale);
    assert!(dgemm.report.mix.branch_ratio() < branch);
    assert!(dgemm.report.mix.fp_ratio() > 0.2);
}

/// O3/front-end: the service workload has the worst L1I MPKI of the
/// representatives, and suites sit below the big data average.
#[test]
fn service_front_end_is_worst() {
    let scale = Scale::tiny();
    let reps = catalog::representatives();
    let service = profile(find(&reps, "H-Read"), scale).report.l1i_mpki();
    for id in ["H-WordCount", "S-Kmeans", "H-Grep", "S-Grep"] {
        let other = profile(find(&reps, id), scale).report.l1i_mpki();
        assert!(
            service > other,
            "H-Read {service:.1} should exceed {id} {other:.1}"
        );
    }
    let parsec = catalog::suite_workloads(workloads::suites::Suite::Parsec);
    let blackscholes = profile(&parsec[0], scale).report.l1i_mpki();
    assert!(
        blackscholes < service / 5.0,
        "PARSEC {blackscholes:.2} vs service {service:.1}"
    );
}

/// Table 4: the D510's simple predictor mispredicts more than the E5645's
/// hybrid predictor on the same workloads (paper: 7.8 % vs 2.8 %).
#[test]
fn d510_mispredicts_more_than_e5645() {
    let scale = Scale::tiny();
    let reps = catalog::representatives();
    let node = NodeConfig::default();
    let mut d_sum = 0.0;
    let mut e_sum = 0.0;
    for id in ["H-WordCount", "S-WordCount", "H-Read", "S-Sort", "H-Grep"] {
        let def = find(&reps, id);
        let e = profile_workload(def, scale, MachineConfig::xeon_e5645(), node);
        let d = profile_workload(def, scale, MachineConfig::atom_d510(), node);
        d_sum += d.report.branch.mispredict_ratio();
        e_sum += e.report.branch.mispredict_ratio();
    }
    assert!(
        d_sum > 1.3 * e_sum,
        "D510 total {d_sum:.3} should clearly exceed E5645 {e_sum:.3}"
    );
}

/// §5.4: Hadoop's instruction footprint dwarfs PARSEC's; data footprints
/// are comparable (Figures 6-8).
#[test]
fn locality_footprints() {
    let scale = Scale::small();
    let defs = catalog::full_catalog();
    let hadoop = find(&defs, "H-WordCount");
    let sizes = [16, 64, 256, 1024, 8192];
    let engine = engine::Engine::in_memory();
    let h = engine.sweep("hadoop", &sizes, |sink| {
        let _ = hadoop.run(sink, scale);
    });
    let parsec_defs = catalog::suite_workloads(workloads::suites::Suite::Parsec);
    let p = engine.sweep("parsec", &sizes, |sink| {
        let _ = parsec_defs[0].run(sink, scale);
    });
    // Instruction curves: Hadoop starts much higher and keeps declining
    // past the point where PARSEC has flattened.
    let h16 = h.instruction.at(16).unwrap();
    let p16 = p.instruction.at(16).unwrap();
    assert!(h16 > p16, "Hadoop 16KiB I-miss {h16} vs PARSEC {p16}");
    let h_drop = h.instruction.at(64).unwrap() - h.instruction.at(1024).unwrap();
    assert!(
        h_drop > 0.001,
        "Hadoop must still gain beyond 64 KiB: {h_drop}"
    );
    // Data curves converge at large capacities (Figure 7).
    let hd = h.data.at(8192).unwrap();
    let pd = p.data.at(8192).unwrap();
    assert!(
        (hd - pd).abs() < 0.02,
        "data curves should converge: {hd} vs {pd}"
    );
}

/// §3: the WCRT reduction runs end-to-end on a catalog slice and yields
/// one representative per non-empty cluster, deterministically.
#[test]
fn reduction_is_deterministic_and_complete() {
    let defs: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(12).collect();
    let profiles = wcrt::profile::profile_all(
        &defs,
        Scale::tiny(),
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    );
    let config = wcrt::reduction::ReductionConfig {
        k: 4,
        ..Default::default()
    };
    let a = wcrt::reduce(&profiles, config);
    let b = wcrt::reduce(&profiles, config);
    assert_eq!(a.representative_ids(), b.representative_ids());
    assert_eq!(a.clustering.assignments, b.clustering.assignments);
    assert!(!a.representative_indices.is_empty());
    assert!(a.pca_dims <= 45);
    let total: usize = a.weighted_representatives().iter().map(|(_, n)| n).sum();
    assert_eq!(total, 12, "cluster sizes partition the input");
}

/// Workload correctness spot-check: every representative runs and accounts
/// real data volumes at tiny scale.
#[test]
fn all_representatives_run() {
    let scale = Scale::tiny();
    for def in catalog::representatives() {
        let p = profile(&def, scale);
        assert!(p.report.instructions > 5_000, "{} too small", def.spec.id);
        assert!(p.input_bytes > 0, "{} has no input", def.spec.id);
        assert!(
            p.metrics.values().iter().all(|v| v.is_finite()),
            "{}",
            def.spec.id
        );
    }
}
