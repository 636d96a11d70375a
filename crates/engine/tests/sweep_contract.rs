//! The fused-sweep contract: trace-once/replay-many output is
//! **byte-identical** to the per-point serial sweep — for every workload
//! in the 77-entry catalog, through `Engine::sweep`, at any thread count
//! and pipeline width.
//!
//! The fused path may only ship while `assemble_sweep` produces the same
//! bits as `sweep_per_point`, the reference oracle.

use bdb_engine::{Engine, EngineConfig};
use bdb_sim::{
    assemble_sweep, fused_points, sweep_per_point, SweepFamily, SweepResult, SweepStreams,
    PAPER_SWEEP_KIB, PIPELINE_CHUNK_ENTRIES,
};
use bdb_workloads::{catalog, CatalogSet, Scale, WorkloadDef};

fn assert_bit_identical(fused: &SweepResult, reference: &SweepResult, id: &str) {
    assert_eq!(fused, reference, "{id}: sweep results differ");
    for (curve, ref_curve) in [
        (&fused.instruction, &reference.instruction),
        (&fused.data, &reference.data),
        (&fused.unified, &reference.unified),
    ] {
        assert_eq!(curve.label, ref_curve.label, "{id}: label differs");
        for ((kib, ratio), (ref_kib, ref_ratio)) in curve.points.iter().zip(&ref_curve.points) {
            assert_eq!(kib, ref_kib, "{id}: capacity axis differs");
            assert_eq!(
                ratio.to_bits(),
                ref_ratio.to_bits(),
                "{id}: {:?} ratio bits differ at {kib} KiB",
                curve.metric
            );
        }
    }
}

/// The unpipelined fused sweep of one workload: streams recorded
/// straight from the generator, then replayed at every capacity.
fn fused_sweep(family: &SweepFamily, def: &WorkloadDef, caps: &[u64], scale: Scale) -> SweepResult {
    let streams = SweepStreams::record(|sink| {
        let _ = def.run(sink, scale);
    });
    assemble_sweep(&def.spec.id, caps, fused_points(family, caps, &streams))
}

#[test]
fn fused_sweep_is_byte_identical_across_full_catalog() {
    let workloads = CatalogSet::Full.workloads();
    assert_eq!(workloads.len(), 77);
    let family = SweepFamily::atom();
    let scale = Scale::tiny();
    // A small/medium/large capacity subset keeps debug-mode runtime
    // bounded; the full paper axis is swept on representatives below.
    let caps = [16u64, 128, 2048];
    for def in &workloads {
        let fused = fused_sweep(&family, def, &caps, scale);
        let per_point = sweep_per_point(&family, &def.spec.id, &caps, |sink| {
            let _ = def.run(sink, scale);
        });
        assert_bit_identical(&fused, &per_point, &def.spec.id);
    }
}

#[test]
fn fused_sweep_matches_per_point_on_full_paper_axis() {
    let family = SweepFamily::atom();
    let scale = Scale::tiny();
    for def in catalog::representatives().iter().take(4) {
        let fused = fused_sweep(&family, def, &PAPER_SWEEP_KIB, scale);
        let per_point = sweep_per_point(&family, &def.spec.id, &PAPER_SWEEP_KIB, |sink| {
            let _ = def.run(sink, scale);
        });
        assert_bit_identical(&fused, &per_point, &def.spec.id);
    }
}

#[test]
fn pipelined_sweep_is_byte_identical_across_full_catalog() {
    // Sweep bytes stay identical to serial across pipeline widths
    // (`BDB_POINT_THREADS` ∈ {1, 2, 4}) for all 77 workloads. Widths are
    // pinned via the builder (the same code path the env knob feeds) so
    // the test never mutates the process env.
    let workloads = CatalogSet::Full.workloads();
    assert_eq!(workloads.len(), 77);
    let scale = Scale::tiny();
    let caps = [16u64, 128, 2048];
    let serial = Engine::serial();
    let engines: Vec<Engine> = [1usize, 2, 4]
        .iter()
        .map(|&t| Engine::new(EngineConfig::default().threads(2).point_threads(t)))
        .collect();
    for def in &workloads {
        let reference = serial.sweep(&def.spec.id, &caps, |sink| {
            let _ = def.run(sink, scale);
        });
        for (engine, threads) in engines.iter().zip([1usize, 2, 4]) {
            let result = engine.sweep(&def.spec.id, &caps, |sink| {
                let _ = def.run(sink, scale);
            });
            assert_bit_identical(
                &result,
                &reference,
                &format!("{} @ {threads} point threads", def.spec.id),
            );
        }
    }
}

#[test]
fn pipelined_sweep_is_byte_identical_on_multi_chunk_streams() {
    // Workloads whose streams split into three or more pipeline chunks,
    // so helper threads replay while the generator is still extracting:
    // every width must reproduce the per-point reference.
    let scale = Scale::tiny();
    let caps = [16u64, 128, 2048];
    let family = SweepFamily::atom();
    let engines: Vec<Engine> = [1usize, 2, 4]
        .iter()
        .map(|&t| Engine::new(EngineConfig::default().threads(2).point_threads(t)))
        .collect();
    let defs = CatalogSet::Full.workloads();
    for id in ["H-WordCount", "H-NaiveBayes", "H-Index"] {
        let def = defs
            .iter()
            .find(|def| def.spec.id == id)
            .expect("catalog workload");
        let entries = SweepStreams::record(|sink| {
            let _ = def.run(sink, scale);
        })
        .compressed_entries();
        assert!(
            entries >= 3 * PIPELINE_CHUNK_ENTRIES,
            "{id}: {entries} stream entries make fewer than three chunks"
        );
        let reference = sweep_per_point(&family, id, &caps, |sink| {
            let _ = def.run(sink, scale);
        });
        for (engine, width) in engines.iter().zip([1usize, 2, 4]) {
            let result = engine.sweep(id, &caps, |sink| {
                let _ = def.run(sink, scale);
            });
            assert_bit_identical(&result, &reference, &format!("{id} @ width {width}"));
        }
    }
}

#[test]
fn engine_sweep_agrees_with_reference_across_thread_counts() {
    let scale = Scale::tiny();
    let caps = [16u64, 256];
    let defs = catalog::representatives();
    let def = &defs[0];
    let reference = sweep_per_point(&SweepFamily::atom(), &def.spec.id, &caps, |sink| {
        let _ = def.run(sink, scale);
    });
    for threads in [1usize, 4] {
        let engine = Engine::new(
            EngineConfig::default()
                .threads(threads)
                .without_memory_cache(),
        );
        let result = engine.sweep(&def.spec.id, &caps, |sink| {
            let _ = def.run(sink, scale);
        });
        assert_bit_identical(
            &result,
            &reference,
            &format!("{} @ {threads} threads", def.spec.id),
        );
    }
}
