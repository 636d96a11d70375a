//! `sweep-fused`: the Figure 6–9 capacity sweeps — one `Engine::sweep`
//! per workload over the paper's ten L1 capacities, the way the figure
//! tools drive them.

use crate::reference::Reference;
use crate::run::{
    setup_median, time_build, timed_loop, untraced, Params, Tally, Timed, Traced, UNTRACED_REPEATS,
};
use crate::stats::peak_rss_mib;
use crate::trace::Trace;
use bdb_engine::json::Value;
use bdb_engine::Engine;
use bdb_sim::PAPER_SWEEP_KIB;
use bdb_sim::{fused_points, Machine, MachineConfig, SweepFamily, SweepResult, SweepStreams};
use bdb_trace::CountingSink;
use bdb_workloads::{catalog, Scale, Suite, WorkloadDef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The Hadoop and MPI workloads of Figures 6–9.
const SWEPT_IDS: [&str; 8] = [
    "H-WordCount",
    "H-Grep",
    "H-Sort",
    "H-NaiveBayes",
    "M-WordCount",
    "M-Grep",
    "M-Sort",
    "M-NaiveBayes",
];

/// The PARSEC kernels the figures compare against (the ones with
/// simsmall-like footprints).
const PARSEC_KERNELS: [usize; 4] = [0, 1, 5, 6];

/// The figure tools' paper scale.
const PAPER_SCALE: f64 = 1.0;

/// The two workloads that carry 86% of the paper-scale events run at a
/// tenth of it, so that a pass takes about 2 s instead of 8 s. At 0.1
/// each still extracts over 4 M events, well above the 0.84 M at which
/// `Engine::sweep` fans ten points out across threads, so every workload
/// takes the serial-or-parallel replay path it takes at paper scale.
const SCALED_DOWN: [(&str, f64); 2] = [("H-WordCount", 0.1), ("H-NaiveBayes", 0.1)];

/// The twelve swept workloads — four Hadoop, four MPI, four PARSEC — each
/// with the scale it runs at (tiny for all in a check run).
pub fn sweep_defs(params: &Params) -> Vec<(WorkloadDef, Scale)> {
    let mut defs: Vec<WorkloadDef> = catalog::full_catalog()
        .into_iter()
        .chain(catalog::mpi_workloads())
        .filter(|w| SWEPT_IDS.contains(&w.spec.id.as_str()))
        .collect();
    let parsec = catalog::suite_workloads(Suite::Parsec);
    defs.extend(PARSEC_KERNELS.iter().map(|&i| parsec[i].clone()));
    defs.into_iter()
        .map(|def| {
            let factor = SCALED_DOWN
                .iter()
                .find(|(id, _)| *id == def.spec.id)
                .map_or(PAPER_SCALE, |&(_, factor)| factor);
            let scale = if params.check {
                Scale::tiny()
            } else {
                Scale::custom(factor)
            };
            (def, scale)
        })
        .collect()
}

/// One pass: the engine sweeps each workload in turn, as a figure tool
/// does.
fn pass(defs: &[(WorkloadDef, Scale)], engine: &Engine) -> Vec<SweepResult> {
    defs.iter()
        .map(|(def, scale)| {
            engine.sweep(&def.spec.id, &PAPER_SWEEP_KIB, |sink| {
                let _ = def.run(sink, *scale);
            })
        })
        .collect()
}

/// Set-up: the workload list, the engine, and one warm-up pass, which
/// fills the engine's pool of stream buffers; every timed pass must
/// repeat the warm-up pass's curves.
fn warmed_up(params: &Params) -> (Vec<(WorkloadDef, Scale)>, Engine, Vec<SweepResult>) {
    let defs = sweep_defs(params);
    let engine = Engine::in_memory();
    let curves = pass(&defs, &engine);
    (defs, engine, curves)
}

/// The end-to-end run.
pub fn timed(params: &Params, reference: &mut Reference) -> Timed {
    let (first_setup_s, (defs, engine, warm_up)) = time_build(|| warmed_up(params));
    let mut tally = Tally::default();
    let op_s = timed_loop(
        params,
        reference,
        || pass(&defs, &engine),
        |results| {
            tally.check(results == warm_up, || {
                "a timed pass's curves differ from the warm-up pass's".to_owned()
            });
        },
    );
    let peak_rss_mib = peak_rss_mib();
    check_against_machine(&defs, &warm_up, params.seed, &mut tally);
    let passes = op_s.len() as u64;
    let points = (defs.len() * PAPER_SWEEP_KIB.len()) as u64;
    Timed {
        setup_s: setup_median(params, first_setup_s, || warmed_up(params), drop),
        peak_rss_mib,
        items: passes * points,
        tally,
        details: Vec::new(),
        op_s,
    }
}

/// The oracle: for a seed-picked workload and capacity, the fused sweep's
/// instruction and data miss ratios equal a full `Machine` run at that
/// capacity, bit for bit.
fn check_against_machine(
    defs: &[(WorkloadDef, Scale)],
    results: &[SweepResult],
    seed: u64,
    tally: &mut Tally,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let i = rng.gen_range(0..defs.len());
    let kib = PAPER_SWEEP_KIB[rng.gen_range(0..PAPER_SWEEP_KIB.len())];
    let (def, scale) = &defs[i];
    let mut machine = Machine::new(MachineConfig::atom_sweep(kib));
    let _ = def.run(&mut machine, *scale);
    let report = machine.report();
    let same = |curve: Option<f64>, reference: f64| {
        curve.is_some_and(|r| r.to_bits() == reference.to_bits())
    };
    tally.check(
        same(results[i].instruction.at(kib), report.l1i.miss_ratio())
            && same(results[i].data.at(kib), report.l1d.miss_ratio()),
        || format!("{} at {kib} KiB differs from a full Machine", def.spec.id),
    );
}

/// The traced run: one pass untraced, then the same pass serially —
/// generator alone, generator into the stream extractor, then the replay
/// of the extracted streams at every capacity. Each workload's L1 event
/// count goes in the details, since it decides whether `Engine::sweep`
/// replays that workload's points in parallel.
pub fn traced(params: &Params) -> Traced {
    let defs = sweep_defs(params);
    let engine = Engine::in_memory();
    let mut tally = Tally::default();
    let untraced_s = untraced(UNTRACED_REPEATS, || drop(pass(&defs, &engine)));

    let family = SweepFamily::atom();
    let mut trace = Trace::new();
    let (mut ops, mut events, mut entries) = (0, 0, 0);
    let mut events_by_workload = Vec::with_capacity(defs.len());
    let (results, _) = trace.span("bench.redrive", 0, |t| {
        let mut results = Vec::with_capacity(defs.len());
        for (i, (def, scale)) in defs.iter().enumerate() {
            let request = i as u64;
            let (count, generate) = t.span("workloads.run", request, |_| {
                let mut sink = CountingSink::new();
                let _ = def.run(&mut sink, *scale);
                sink.ops()
            });
            let (streams, extract) = t.span("sim.extract", request, |_| {
                SweepStreams::record(|sink| {
                    let _ = def.run(sink, *scale);
                })
            });
            t.subtract(extract, generate);
            let (points, _) = t.span("sim.replay", request, |_| {
                fused_points(&family, &PAPER_SWEEP_KIB, &streams)
            });
            ops += count;
            events += streams.event_count();
            entries += streams.compressed_entries() as u64;
            events_by_workload.push((def.spec.id.clone(), Value::UInt(streams.event_count())));
            results.push(bdb_sim::assemble_sweep(
                &def.spec.id,
                &PAPER_SWEEP_KIB,
                points,
            ));
        }
        results
    });
    check_against_machine(&defs, &results, params.seed, &mut tally);
    Traced {
        untraced_s,
        trace,
        // `Engine::sweep` moves none of the engine's profile counters.
        counts: vec![
            ("workloads.ops", ops),
            ("sim.l1_events", events),
            ("sim.rle_entries", entries),
        ],
        details: vec![("l1_events".to_owned(), Value::Object(events_by_workload))],
        tally,
    }
}
