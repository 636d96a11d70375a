//! End-to-end and per-layer benchmark of the reproduction.
//!
//! ```text
//! bdb_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--check]
//! bdb_benchmark [--seed <n>] [--seconds <s>] [--trace <0|1>] [--check]
//! ```
//!
//! With `--workload` it runs that one workload and prints two JSON lines:
//! the workload's details (raw timings, the host-speed reference, tails
//! with their sample counts, simulated rates, hardware threads), then the
//! result — `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` a
//! separate, traced run reports the per-layer ones and writes its spans
//! to `out/trace-<workload>-<seed>.json`.
//! Without `--workload` it runs every workload, each in a child process
//! of its own, and prints one JSON object keyed by workload.
//!
//! The exit code is non-zero when an operation or an oracle failed.
//! See `README.md` for the workloads, the metrics and their bounds.

mod fleet;
mod reduce;
mod reference;
mod run;
mod serve;
mod stats;
mod sweep;
mod trace;

use bdb_engine::json::{self, Value};
use reference::Reference;
use run::{Detail, Params, Tally, Timed, Traced};
use stats::median;
use std::process::{Command, ExitCode, Stdio};

/// The workloads, by the names `BENCHMARK.json` gives them.
const WORKLOADS: [&str; 4] = ["reduce-cold", "sweep-fused", "serve-mixed", "fleet-warm"];

/// Default timed-phase length, short enough that a run of all four
/// workloads, set-ups included, ends within 90 s on two hardware threads.
/// `BENCHMARK.json` passes 20.
const DEFAULT_SECONDS: f64 = 15.0;

/// End-to-end metrics: name and unit. Every timing, `setup_s` included,
/// is a wall time scaled to the host-speed reference (see
/// `reference.rs`); the `cal` in two of the names marks it.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("op_p50_cal_ms", "ms"),
    ("ops_per_cal_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Layers whose self time a traced run splits one operation's serial work
/// into; each is reported as `<layer>_pct`.
const LAYERS: [&str; 15] = [
    "workloads.run",
    "sim.machine",
    "sim.extract",
    "sim.replay",
    "wcrt.reduce",
    "serve.materialize",
    "serve.state_get",
    "serve.state_apply",
    "serve.proto_wire",
    "engine.restart",
    "engine.cache_read",
    "engine.cache_verify",
    "engine.run_task",
    "cluster.frame_encode",
    "cluster.frame_decode",
];

/// Per-layer work counts a traced run reports, with their units (zero
/// where the workload does not reach the layer).
const COUNTS: [(&str, &str); 15] = [
    ("workloads.ops", "count"),
    ("sim.instructions", "count"),
    ("sim.l1_events", "count"),
    ("sim.rle_entries", "count"),
    ("engine.computed", "count"),
    ("engine.memory_hits", "count"),
    ("engine.disk_hits", "count"),
    ("engine.disk_errors", "count"),
    ("engine.corrupt_quarantined", "count"),
    ("engine.cache_entry_bytes", "B"),
    ("cluster.result_frame_bytes", "B"),
    ("serve.recomputed", "count"),
    ("serve.delta_batches", "count"),
    ("serve.deltas_streamed", "count"),
    ("serve.subscribers_evicted", "count"),
];

/// Where traced runs write their spans.
const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: Option<String>,
    params: Params,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        params: Params {
            seed: 1,
            seconds: DEFAULT_SECONDS,
            check: false,
        },
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--check" {
            parsed.params.check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value}; known: {WORKLOADS:?}"));
                }
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.params.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                parsed.params.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive number"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("bdb_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let correct = match &args.workload {
        Some(workload) => run_one(workload, &args),
        None => run_all(&argv),
    };
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(workload: &str, args: &Args) -> bool {
    let p = &args.params;
    let (tally, metrics, details) = if args.trace {
        let traced = match workload {
            "reduce-cold" => reduce::traced(p),
            "sweep-fused" => sweep::traced(p),
            "serve-mixed" => serve::traced(p),
            _ => fleet::traced(p),
        };
        write_trace(workload, p.seed, &traced);
        let (metrics, details) = per_layer(&traced);
        (traced.tally, metrics, details)
    } else {
        // Built before the workload allocates anything (see `reference.rs`).
        let mut reference = Reference::new();
        let timed = match workload {
            "reduce-cold" => reduce::timed(p, &mut reference),
            "sweep-fused" => sweep::timed(p, &mut reference),
            "serve-mixed" => serve::timed(p, &mut reference),
            _ => fleet::timed(p, &mut reference),
        };
        let (metrics, details) = end_to_end(&timed, reference.times());
        (timed.tally, metrics, details)
    };
    for error in &tally.errors {
        eprintln!("bdb_benchmark: {workload}: {error}");
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = Value::object(vec![
        ("workload", Value::Str(workload.to_owned())),
        ("seed", Value::UInt(p.seed)),
        ("trace", Value::Bool(args.trace)),
        ("hardware_threads", Value::UInt(threads as u64)),
        ("details", Value::Object(details)),
    ]);
    println!("{}", report.encode());
    let correct = tally.failed == 0;
    println!("{}", result(correct, &tally, metrics).encode());
    correct
}

fn result(correct: bool, tally: &Tally, metrics: Vec<(String, Value)>) -> Value {
    Value::object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(tally.attempted.max(1))),
        ("failed", Value::UInt(tally.failed)),
        ("metrics", Value::Object(metrics)),
    ])
}

fn metric(name: &str, value: f64, unit: &str) -> (String, Value) {
    (
        name.to_owned(),
        Value::object(vec![
            ("value", Value::Float(value)),
            ("unit", Value::Str(unit.to_owned())),
        ]),
    )
}

type Reported = (Vec<(String, Value)>, Vec<(String, Value)>);

fn end_to_end(timed: &Timed, reference_s: &[f64]) -> Reported {
    // Only failed operations leave no latency; the tally reports them.
    let (op_ms, per_s) = if timed.op_s.is_empty() {
        (0.0, 0.0)
    } else {
        let busy_s: f64 = timed.op_s.iter().sum();
        (median(&timed.op_s) * 1e3, timed.items as f64 / busy_s)
    };
    let factor = reference::factor(reference_s);
    // The reference's table is resident for the whole run; it is the
    // benchmark's memory, not the program's.
    let rss_mib = timed.peak_rss_mib.map_or(0.0, |mib| {
        mib - reference::TABLE_BYTES as f64 / (1 << 20) as f64
    });
    let values = [
        timed.setup_s * factor,
        op_ms * factor,
        per_s / factor,
        rss_mib,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, value, unit))
        .collect();
    let mut details = vec![("ops".to_owned(), Value::UInt(timed.op_s.len() as u64))];
    let raw = [
        Detail::new("raw_setup_s", timed.setup_s, "s"),
        Detail::new("raw_op_p50_ms", op_ms, "ms"),
        Detail::new("raw_ops_per_s", per_s, "1/s"),
        Detail::from_samples(
            "reference_ms",
            median(reference_s) * 1e3,
            "ms",
            reference_s.len(),
        ),
    ];
    for d in raw.iter().chain(&timed.details) {
        let mut fields = vec![
            ("value", Value::Float(d.value)),
            ("unit", Value::Str(d.unit.to_owned())),
        ];
        if let Some(n) = d.samples {
            fields.push(("samples", Value::UInt(n as u64)));
        }
        details.push((d.name.to_owned(), Value::object(fields)));
    }
    (metrics, details)
}

/// Layer shares of the re-drive's serial work, the work counts, the
/// serial work itself, and the tracing overhead: the traced re-drive's
/// wall time over the untraced median of the same work.
fn per_layer(traced: &Traced) -> Reported {
    let self_times = traced.trace.self_times();
    let layer_s: Vec<f64> = LAYERS
        .iter()
        .map(|layer| self_times.get(layer).copied().unwrap_or(0.0))
        .collect();
    let serial_s: f64 = layer_s.iter().sum();
    let redrive_s: f64 = traced
        .trace
        .spans()
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration())
        .sum();
    let mut metrics = vec![
        metric("bench.serial_work_s", serial_s, "s"),
        metric(
            "bench.trace_overhead",
            redrive_s / median(&traced.untraced_s),
            "x",
        ),
    ];
    for (layer, s) in LAYERS.iter().zip(&layer_s) {
        let share = if serial_s > 0.0 {
            s / serial_s * 100.0
        } else {
            0.0
        };
        metrics.push(metric(&format!("{layer}_pct"), share, "%"));
    }
    for (name, unit) in COUNTS {
        let n = traced
            .counts
            .iter()
            .find(|(c, _)| *c == name)
            .map_or(0, |&(_, n)| n);
        metrics.push(metric(name, n as f64, unit));
    }
    let mut details: Vec<(String, Value)> = self_times
        .iter()
        .map(|(name, s)| (format!("{name}_self_s"), Value::Float(*s)))
        .collect();
    details.extend(traced.details.iter().cloned());
    (metrics, details)
}

fn write_trace(workload: &str, seed: u64, traced: &Traced) {
    let path = std::path::Path::new(OUT_DIR).join(format!("trace-{workload}-{seed}.json"));
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, traced.trace.to_value().encode() + "\n"));
    if let Err(e) = written {
        eprintln!("bdb_benchmark: writing {}: {e}", path.display());
    }
}

/// Runs every workload in a child process of its own, so each reports its
/// own peak memory and a crash costs only that workload.
fn run_all(argv: &[String]) -> bool {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("bdb_benchmark: locating own executable: {e}");
            return false;
        }
    };
    let mut all_correct = true;
    let mut results = Vec::new();
    for workload in WORKLOADS {
        let output = Command::new(&exe)
            .args(argv)
            .args(["--workload", workload])
            .stderr(Stdio::inherit())
            .output();
        all_correct &= output.as_ref().is_ok_and(|out| out.status.success());
        let parsed = output.ok().and_then(|out| {
            let stdout = String::from_utf8(out.stdout).ok()?;
            json::parse(stdout.lines().last()?).ok()
        });
        let value = parsed.unwrap_or_else(|| {
            let crashed = Tally {
                attempted: 1,
                failed: 1,
                errors: Vec::new(),
            };
            result(false, &crashed, Vec::new())
        });
        results.push((workload.to_owned(), value));
    }
    println!("{}", Value::Object(results).encode());
    all_correct
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    /// `(name, unit)` of every entry in one section of `BENCHMARK.json`
    /// (workloads have no unit).
    fn entries(spec: &Value, section: &str) -> Vec<(String, String)> {
        let Some(Value::Array(items)) = spec.get(section) else {
            panic!("BENCHMARK.json has no {section} array");
        };
        let field = |m: &Value, key| m.get(key).and_then(Value::as_str).unwrap_or("").to_owned();
        items
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    fn owned(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
        pairs
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    }

    #[test]
    fn benchmark_json_names_what_the_binary_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = json::parse(text.trim()).expect("BENCHMARK.json parses");
        let workloads: Vec<String> = entries(&spec, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(entries(&spec, "end_to_end"), owned(&END_TO_END));
        let mut per_layer = owned(&[("bench.serial_work_s", "s"), ("bench.trace_overhead", "x")]);
        per_layer.extend(LAYERS.iter().map(|l| (format!("{l}_pct"), "%".to_owned())));
        per_layer.extend(owned(&COUNTS));
        assert_eq!(entries(&spec, "per_layer"), per_layer);
    }

    #[test]
    fn check_runs_of_every_workload_pass_quickly() {
        let params = Params {
            seed: 1,
            seconds: 1.0,
            check: true,
        };
        let start = Instant::now();
        let mut reference = Reference::new();
        for timed in [
            reduce::timed(&params, &mut reference),
            sweep::timed(&params, &mut reference),
            serve::timed(&params, &mut reference),
            fleet::timed(&params, &mut reference),
        ] {
            assert_eq!(timed.tally.failed, 0, "{:?}", timed.tally.errors);
            assert!(!timed.op_s.is_empty() && timed.items > 0);
        }
        let elapsed = start.elapsed().as_secs_f64();
        assert!(elapsed < 20.0, "check runs took {elapsed:.1} s");
    }

    #[test]
    fn arguments_are_validated() {
        let args = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let ok = parse_args(&args(
            "--workload fleet-warm --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(ok.workload.as_deref(), Some("fleet-warm"));
        assert_eq!(
            (ok.params.seed, ok.params.seconds, ok.trace),
            (7, 3.0, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
    }
}
