//! CI perf smoke: proves the fused (trace-once/replay-many) sweep is
//! both *correct* (bit-identical to the per-point reference) and
//! *actually faster* at the CLI-selected scale, and that multi-thread
//! pools are honest about their width.
//!
//! Exits non-zero with a loud message on any violation, so the CI
//! `perf-smoke` job fails instead of shipping a silent regression:
//!
//! * a worker pool that silently falls back to serial,
//! * a fused sweep whose bits drift from the per-point sweep,
//! * a fused speedup below 2× — the only enforced floor on the fused
//!   margin (the default-scale engine bench records its margin in
//!   `BENCH_engine.json` but asserts nothing on it),
//! * a pipelined sweep (`BDB_POINT_THREADS` of 2 and 4) whose width or
//!   bits drift from the contract on streams of three or more chunks,
//! * a scaled sweep whose 4-thread run fails the 1.5× floor on a
//!   runner that actually has 4 hardware threads.

use bdb_engine::{Engine, EngineConfig};
use bdb_sim::{
    sweep_per_point, SweepFamily, SweepResult, SweepStreams, PAPER_SWEEP_KIB,
    PIPELINE_CHUNK_ENTRIES,
};
use bdb_workloads::{Scale, WorkloadDef};
use std::time::Instant;

/// Smoke threshold: fused must beat per-point by at least this factor
/// even at tiny scale. The default-scale bench (`BENCH_engine.json`)
/// records the real margin.
const MIN_FUSED_SPEEDUP: f64 = 2.0;

/// Thread-scaling floor for the fused sweep at the scaled profile: a
/// 4-thread engine must beat a 1-thread one by at least this factor.
/// Only armed on runners with at least four hardware threads — a
/// single-core box cannot honestly clear any floor above ~1.0x.
const MIN_SCALED_4T_SPEEDUP: f64 = 1.5;

fn fail(msg: &str) -> ! {
    eprintln!("perf_smoke: FAIL: {msg}");
    std::process::exit(1);
}

/// Builds an engine and verifies the pool width it reports matches the
/// width we asked for — the guard against silent serial fallback.
fn honest_engine(threads: usize) -> Engine {
    let engine = Engine::new(
        EngineConfig::default()
            .threads(threads)
            .without_memory_cache(),
    );
    let got = engine.worker_threads();
    if got != threads {
        fail(&format!(
            "requested a {threads}-thread pool but worker_threads() reports {got} \
             — the pool silently fell back to a different width"
        ));
    }
    engine
}

fn run_sweeps(engine: &Engine, defs: &[WorkloadDef], scale: Scale) -> Vec<SweepResult> {
    defs.iter()
        .map(|def| {
            engine.sweep(&def.spec.id, &PAPER_SWEEP_KIB, |sink| {
                let _ = def.run(sink, scale);
            })
        })
        .collect()
}

fn assert_bit_identical(reference: &[SweepResult], candidate: &[SweepResult], what: &str) {
    if reference == candidate {
        return;
    }
    fail(&format!(
        "{what} is not bit-identical to the per-point reference sweep"
    ));
}

fn main() {
    let scale = bdb_bench::scale_from_args();
    let defs = bdb_bench::hadoop_sweep_defs();
    if defs.is_empty() {
        fail("hadoop sweep workload set is empty");
    }

    // Thread-honesty probe for every width CI cares about.
    for threads in [1usize, 2, 4] {
        let _ = honest_engine(threads);
    }

    // Reference: the raw per-point oracle — generator re-run on a full
    // machine per capacity, no trace replay anywhere.
    let family = SweepFamily::atom();
    let start = Instant::now();
    let reference: Vec<SweepResult> = defs
        .iter()
        .map(|def| {
            sweep_per_point(&family, &def.spec.id, &PAPER_SWEEP_KIB, |sink| {
                let _ = def.run(sink, scale);
            })
        })
        .collect();
    let per_point_s = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let fused = run_sweeps(&honest_engine(1), &defs, scale);
    let fused_s = start.elapsed().as_secs_f64();
    assert_bit_identical(&reference, &fused, "serial fused sweep");

    // Multi-thread fused runs must also reproduce the reference bits.
    for threads in [2usize, 4] {
        let sweeps = run_sweeps(&honest_engine(threads), &defs, scale);
        assert_bit_identical(
            &reference,
            &sweeps,
            &format!("{threads}-thread fused sweep"),
        );
    }

    let speedup = per_point_s / fused_s;
    println!(
        "perf_smoke: {} workloads x {} capacities: per-point {per_point_s:.2}s, \
         fused {fused_s:.2}s ({speedup:.1}x)",
        defs.len(),
        PAPER_SWEEP_KIB.len()
    );
    if speedup < MIN_FUSED_SPEEDUP {
        fail(&format!(
            "fused speedup {speedup:.2}x is below the {MIN_FUSED_SPEEDUP:.1}x smoke floor"
        ));
    }

    pipeline_smoke(&defs, scale, &reference);
    thread_scaling_smoke(&defs, scale);
    println!("perf_smoke: OK");
}

/// The pipelined sweep at explicit `BDB_POINT_THREADS` widths on a
/// 1-wide worker pool: width honesty, and bit-identity with the per-point
/// reference on a stream long enough to split into three or more chunks,
/// so helper threads replay while extraction is still running.
fn pipeline_smoke(defs: &[WorkloadDef], scale: Scale, reference: &[SweepResult]) {
    let longest = defs
        .iter()
        .map(|def| {
            SweepStreams::record(|sink| {
                let _ = def.run(sink, scale);
            })
            .compressed_entries()
        })
        .max()
        .unwrap_or(0);
    if longest < 3 * PIPELINE_CHUNK_ENTRIES {
        fail(&format!(
            "the longest sweep has {longest} stream entries, fewer than three \
             {PIPELINE_CHUNK_ENTRIES}-entry chunks — raise --scale so the pipeline overlaps"
        ));
    }
    for point_threads in [2usize, 4] {
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .point_threads(point_threads)
                .without_memory_cache(),
        );
        if engine.point_threads() != point_threads {
            fail(&format!(
                "requested {point_threads} point threads but the engine reports {}",
                engine.point_threads()
            ));
        }
        let sweeps = run_sweeps(&engine, defs, scale);
        assert_bit_identical(
            reference,
            &sweeps,
            &format!("{point_threads}-wide pipelined sweep"),
        );
    }
}

/// The fused sweep's thread-scaling floor at the scaled profile (4x the
/// CLI scale), in the production shape — each sweep's pipeline as wide
/// as the pool: [`run_sweeps`] on a 4-thread engine must beat a
/// 1-thread one by [`MIN_SCALED_4T_SPEEDUP`] — armed only where 4
/// hardware threads exist, since a single-core runner's honest ratio is
/// ~1.0x. Bits are compared unconditionally.
fn thread_scaling_smoke(defs: &[WorkloadDef], scale: Scale) {
    let scaled = Scale::custom(scale.factor() * 4.0);
    let start = Instant::now();
    let serial = run_sweeps(&honest_engine(1), defs, scaled);
    let serial_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let wide = run_sweeps(&honest_engine(4), defs, scaled);
    let wide_s = start.elapsed().as_secs_f64();
    assert_bit_identical(&serial, &wide, "4-thread scaled sweep");
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let scaling = serial_s / wide_s;
    println!(
        "perf_smoke: scaled sweep 1t {serial_s:.2}s, 4t {wide_s:.2}s \
         ({scaling:.2}x on {cores} hardware threads)"
    );
    if cores >= 4 && scaling < MIN_SCALED_4T_SPEEDUP {
        fail(&format!(
            "scaled 4t/1t sweep speedup {scaling:.2}x is below the \
             {MIN_SCALED_4T_SPEEDUP:.1}x floor"
        ));
    }
}
