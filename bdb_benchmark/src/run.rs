//! What every workload shares: its parameters, the timed loop, repeated
//! set-up, and the tallies and results it hands back to `main`.

use crate::reference::Reference;
use crate::stats::{median, percentile};
use crate::trace::Trace;
use bdb_engine::codec::profile_to_value;
use bdb_engine::json::Value;
use bdb_engine::CacheCounters;
use bdb_wcrt::WorkloadProfile;
use std::fmt::Display;
use std::time::Instant;

/// A profile's canonical bytes — the form every byte-identity contract
/// compares.
pub fn canonical(profile: &WorkloadProfile) -> String {
    profile_to_value(profile).encode()
}

/// Command-line parameters a workload runs under.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Drives request schedules, task order and oracle picks. Workload
    /// data generation keeps the catalog's fixed seeds: profile bytes are
    /// a contract.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Smoke-test sizes: tiny inputs and a single operation.
    pub check: bool,
}

/// Operations and oracle checks attempted, and the ones that failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations plus oracle checks attempted.
    pub attempted: u64,
    /// Failed operations plus failed oracle checks.
    pub failed: u64,
    /// One line per failure (the first few are reported).
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one operation, keeping its value when it succeeded.
    pub fn op<T, E: Display>(&mut self, what: &str, result: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Counts one oracle check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(error);
        }
    }
}

/// A workload-specific number reported beside the metrics (tails with
/// their sample counts, simulated-instruction rates, and so on).
#[derive(Debug)]
pub struct Detail {
    /// Name, unique within the workload.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples the value was read from, for percentiles.
    pub samples: Option<usize>,
}

impl Detail {
    /// A plain value.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Detail {
            name,
            value,
            unit,
            samples: None,
        }
    }

    /// A value read from `samples` samples.
    pub fn from_samples(
        name: &'static str,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) -> Self {
        Detail {
            name,
            value,
            unit,
            samples: Some(samples),
        }
    }
}

/// The `q` percentile of latencies `samples` (seconds) as a millisecond
/// detail, if at least ten samples lie beyond it.
pub fn tail_ms(name: &'static str, samples: &[f64], q: f64) -> Option<Detail> {
    percentile(samples, q).map(|p| Detail::from_samples(name, p * 1e3, "ms", samples.len()))
}

/// An end-to-end run, tracing off.
#[derive(Debug)]
pub struct Timed {
    /// Set-up wall time: the median of the builds [`time_build`] and
    /// [`setup_median`] timed.
    pub setup_s: f64,
    /// The process's peak resident set, read right after the timed phase.
    pub peak_rss_mib: Option<f64>,
    /// Wall time of each operation in the timed phase.
    pub op_s: Vec<f64>,
    /// Work items the timed phase completed (profiles, sweep points,
    /// requests).
    pub items: u64,
    /// Failures against attempts, oracles included.
    pub tally: Tally,
    /// Numbers beside the metrics.
    pub details: Vec<Detail>,
}

/// A traced run: the same work timed with tracing off, then re-driven
/// layer by layer through the layer crates' public functions.
#[derive(Debug)]
pub struct Traced {
    /// Wall time of each untraced repetition of the re-driven work.
    pub untraced_s: Vec<f64>,
    /// The re-drive's spans, under one `bench.redrive` root.
    pub trace: Trace,
    /// Per-layer work counts.
    pub counts: Vec<(&'static str, u64)>,
    /// Numbers for the details line beside the metrics.
    pub details: Vec<(String, Value)>,
    /// Failures against attempts, oracles included.
    pub tally: Tally,
}

/// How many times a run sets up; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;

/// Untraced repetitions of the re-driven work in a traced run.
pub const UNTRACED_REPEATS: usize = 3;

/// Times one call of `build`: the set-up the timed phase runs on.
pub fn time_build<T>(build: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let built = build();
    (start.elapsed().as_secs_f64(), built)
}

/// The median set-up time over `first_s` and [`SETUP_REPEATS`] − 1 more
/// builds (none in a check run), each torn down at once. Workloads call
/// this after the timed phase and after reading the peak resident set:
/// torn-down set-ups leave freed memory behind in the allocator, and
/// built before the timed phase they moved its peak from run to run.
pub fn setup_median<T>(
    params: &Params,
    first_s: f64,
    mut build: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> f64 {
    let mut times = vec![first_s];
    if !params.check {
        for _ in 1..SETUP_REPEATS {
            let (seconds, built) = time_build(&mut build);
            teardown(built);
            times.push(seconds);
        }
    }
    median(&times)
}

/// The per-layer engine counts a traced run reports: the growth of each
/// counter from `before` to `after`, summed over `readings` and divided
/// by the `repeats` of the work.
pub fn engine_counts<'a>(
    readings: impl IntoIterator<Item = (&'a CacheCounters, &'a CacheCounters)>,
    repeats: usize,
) -> Vec<(&'static str, u64)> {
    let mut sums = [0; 5];
    for (before, after) in readings {
        let growth = [
            after.computed - before.computed,
            after.memory_hits - before.memory_hits,
            after.disk_hits - before.disk_hits,
            after.disk_errors - before.disk_errors,
            after.corrupt_quarantined - before.corrupt_quarantined,
        ];
        for (sum, n) in sums.iter_mut().zip(growth) {
            *sum += n;
        }
    }
    [
        "engine.computed",
        "engine.memory_hits",
        "engine.disk_hits",
        "engine.disk_errors",
        "engine.corrupt_quarantined",
    ]
    .into_iter()
    .zip(sums.map(|n| n / repeats as u64))
    .collect()
}

/// Calls `op` until `params.seconds` have passed (always at least once;
/// exactly once in a check run), timing each call. `keep` receives each
/// result outside the timed interval, and the host-speed `reference` is
/// timed between calls. Returns the per-call times.
pub fn timed_loop<T>(
    params: &Params,
    reference: &mut Reference,
    mut op: impl FnMut() -> T,
    mut keep: impl FnMut(T),
) -> Vec<f64> {
    let start = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let out = op();
        times.push(t0.elapsed().as_secs_f64());
        keep(out);
        if params.check || start.elapsed().as_secs_f64() >= params.seconds {
            break;
        }
        reference.time_if_due();
    }
    times
}

/// Times `repeats` untraced calls of `op`.
pub fn untraced(repeats: usize, mut op: impl FnMut()) -> Vec<f64> {
    (0..repeats)
        .map(|_| {
            let start = Instant::now();
            op();
            start.elapsed().as_secs_f64()
        })
        .collect()
}
