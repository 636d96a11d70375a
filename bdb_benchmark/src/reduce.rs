//! `reduce-cold`: the paper's headline pipeline from nothing — profile
//! all 77 catalog workloads on the Xeon E5645 model with every cache off,
//! then reduce them to 17 representatives.

use crate::reference::Reference;
use crate::run::{
    canonical, engine_counts, setup_median, time_build, timed_loop, untraced, Detail, Params,
    Tally, Timed, Traced, UNTRACED_REPEATS,
};
use crate::stats::{median, peak_rss_mib};
use crate::trace::Trace;
use bdb_engine::{Engine, EngineConfig};
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_trace::CountingSink;
use bdb_wcrt::reduction::{reduce, ReductionConfig, ReductionResult};
use bdb_wcrt::{profile_workload, WorkloadProfile};
use bdb_workloads::{catalog, Scale, WorkloadDef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Input scale. At 0.05 one pass takes 1.1–1.8 s on two hardware
/// threads, so a timed phase holds enough passes for a steady median;
/// pass time still grows linearly with scale (5.6 s at 0.25), so the
/// generator/simulator split is that of larger scales.
const SCALE: f64 = 0.05;

/// The paper's cluster count.
const CLUSTERS: usize = 17;

struct Setup {
    defs: Vec<WorkloadDef>,
    engine: Engine,
}

fn setup() -> Setup {
    Setup {
        defs: catalog::full_catalog(),
        // No memo and no disk cache: every pass simulates all 77.
        engine: Engine::new(EngineConfig::default().without_memory_cache()),
    }
}

fn scale(params: &Params) -> Scale {
    if params.check {
        Scale::tiny()
    } else {
        Scale::custom(SCALE)
    }
}

/// One pass of the pipeline.
fn pass(s: &Setup, scale: Scale) -> (Vec<WorkloadProfile>, ReductionResult, f64) {
    let profiles = s.engine.profile_all(
        &s.defs,
        scale,
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    );
    let start = Instant::now();
    let reduction = reduce(&profiles, ReductionConfig::default());
    (profiles, reduction, start.elapsed().as_secs_f64())
}

/// Set-up: the workload list, the engine, and one warm-up pass, whose
/// bytes every timed pass must repeat.
fn warmed_up(scale: Scale) -> (Setup, Vec<String>) {
    let s = setup();
    let (profiles, _, _) = pass(&s, scale);
    let bytes = profiles.iter().map(canonical).collect();
    (s, bytes)
}

/// The end-to-end run.
pub fn timed(params: &Params, reference: &mut Reference) -> Timed {
    let scale = scale(params);
    let (first_setup_s, (s, warm_up)) = time_build(|| warmed_up(scale));
    let mut last = None;
    let mut reduce_s = Vec::new();
    let mut tally = Tally::default();
    let op_s = timed_loop(
        params,
        reference,
        || pass(&s, scale),
        |(profiles, reduction, seconds)| {
            reduce_s.push(seconds);
            let bytes: Vec<String> = profiles.iter().map(canonical).collect();
            tally.check(bytes == warm_up, || {
                "a timed pass's profile bytes differ from the warm-up pass's".to_owned()
            });
            last = Some((profiles, reduction));
        },
    );
    let peak_rss_mib = peak_rss_mib();
    let passes = op_s.len() as u64;
    let (profiles, reduction) = last.expect("the timed loop runs at least once");
    check_pass(&s, scale, &profiles, &reduction, params.seed, &mut tally);
    // The warm-up pass ran on the same engine.
    let computed = s.engine.counters().computed;
    tally.check(computed == (passes + 1) * s.defs.len() as u64, || {
        format!(
            "engine computed {computed} profiles over {} passes of {}",
            passes + 1,
            s.defs.len()
        )
    });
    let instructions: u64 = profiles.iter().map(|p| p.report.instructions).sum();
    let pass_s = median(&op_s);
    Timed {
        setup_s: setup_median(params, first_setup_s, || warmed_up(scale), drop),
        peak_rss_mib,
        items: passes * s.defs.len() as u64,
        tally,
        details: vec![
            Detail::new(
                "sim_minst_per_s",
                instructions as f64 / pass_s / 1e6,
                "Minst/s",
            ),
            Detail::from_samples(
                "reduce_p50_ms",
                median(&reduce_s) * 1e3,
                "ms",
                reduce_s.len(),
            ),
        ],
        op_s,
    }
}

/// The pass's oracles: two seed-picked profiles equal a serial
/// `profile_workload` in canonical bytes, and the reduction yields 17
/// non-empty clusters covering all 77 workloads.
fn check_pass(
    s: &Setup,
    scale: Scale,
    profiles: &[WorkloadProfile],
    reduction: &ReductionResult,
    seed: u64,
    tally: &mut Tally,
) {
    tally.check(profiles.len() == s.defs.len(), || {
        format!("{} profiles for {} workloads", profiles.len(), s.defs.len())
    });
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..2 {
        let i = rng.gen_range(0..s.defs.len().min(profiles.len()));
        let serial = profile_workload(
            &s.defs[i],
            scale,
            MachineConfig::xeon_e5645(),
            NodeConfig::default(),
        );
        tally.check(canonical(&serial) == canonical(&profiles[i]), || {
            format!("{} differs from a serial profile", s.defs[i].spec.id)
        });
    }
    let sizes = reduction.clustering.cluster_sizes();
    tally.check(
        sizes.len() == CLUSTERS
            && sizes.iter().all(|&n| n > 0)
            && sizes.iter().sum::<usize>() == s.defs.len(),
        || format!("reduction gave cluster sizes {sizes:?}"),
    );
}

/// The traced run: one pass untraced, then the same pass serially, layer
/// by layer — generator alone, generator into the simulator, reduction.
pub fn traced(params: &Params) -> Traced {
    let scale = scale(params);
    let s = setup();
    let mut tally = Tally::default();
    let before = s.engine.counters();
    let untraced_s = untraced(UNTRACED_REPEATS, || drop(pass(&s, scale)));
    let after = s.engine.counters();

    let machine = MachineConfig::xeon_e5645();
    let mut trace = Trace::new();
    let mut ops = 0;
    let mut instructions = 0;
    let ((profiles, reduction), _) = trace.span("bench.redrive", 0, |t| {
        let mut profiles = Vec::with_capacity(s.defs.len());
        for (i, def) in s.defs.iter().enumerate() {
            let request = i as u64;
            let (count, generate) = t.span("workloads.run", request, |_| {
                let mut sink = CountingSink::new();
                let _ = def.run(&mut sink, scale);
                sink.ops()
            });
            // `profile_workload` is what the engine calls per workload:
            // generator into the `Machine`, then the node model and the
            // metric vector. Minus the generator alone, it is the
            // simulator's share.
            let (profile, simulate) = t.span("sim.machine", request, |_| {
                profile_workload(def, scale, machine.clone(), NodeConfig::default())
            });
            t.subtract(simulate, generate);
            ops += count;
            instructions += profile.report.instructions;
            profiles.push(profile);
        }
        let (reduction, _) = t.span("wcrt.reduce", 0, |_| {
            reduce(&profiles, ReductionConfig::default())
        });
        (profiles, reduction)
    });
    check_pass(&s, scale, &profiles, &reduction, params.seed, &mut tally);
    let mut counts = vec![("workloads.ops", ops), ("sim.instructions", instructions)];
    counts.extend(engine_counts([(&before, &after)], UNTRACED_REPEATS));
    Traced {
        untraced_s,
        trace,
        counts,
        details: Vec::new(),
        tally,
    }
}
