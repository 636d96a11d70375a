//! `serve-mixed`: the profiling service under a closed loop of one client
//! and one subscriber over loopback TCP — point queries against the 17
//! representatives on two machine configs, interleaved with knob
//! mutations that recompute a config's entries and stream deltas.

use crate::reference::Reference;
use crate::run::{
    canonical, engine_counts, setup_median, tail_ms, time_build, untraced, Detail, Params, Tally,
    Timed, Traced, UNTRACED_REPEATS,
};
use crate::stats::{median, peak_rss_mib};
use crate::trace::{SpanId, Trace};
use bdb_engine::json::Value;
use bdb_engine::Engine;
use bdb_serve::{
    apply_delta_batch, EntryKey, Mutation, ServeClient, ServeSpec, ServeState, Server,
    ServerConfig, SnapshotEntry,
};
use bdb_sim::MachineConfig;
use bdb_workloads::Scale;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Queries between two mutations: 500 point queries (30–45 ms) per
/// mutation (100–160 ms), so both sides of the shared state carry
/// weight in the loop.
const QUERIES_PER_MUTATION: usize = 500;

/// Check runs send two mutations, ten queries apart.
const CHECK_QUERIES_PER_MUTATION: usize = 10;
const CHECK_CYCLES: usize = 2;

/// Mutation cycles re-driven in a traced run.
const TRACED_CYCLES: usize = 2;

const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// A recomputation of 17 tiny-scale entries takes about 0.1 s; anything
/// near this long is a lost delta, not a slow one.
const DELTA_TIMEOUT: Duration = Duration::from_secs(30);

/// The knobs mutations move, and the values they move them to. Every
/// value gives a whole, power-of-two number of sets at the cache's
/// associativity, so every mutated config builds a valid `Machine`.
pub const KNOBS: [(&str, &str, [u64; 3]); 2] = [
    (
        "xeon-e5645",
        "l1d.size_bytes",
        [16 << 10, 32 << 10, 64 << 10],
    ),
    (
        "atom-d510",
        "l2.size_bytes",
        [256 << 10, 512 << 10, 1024 << 10],
    ),
];

/// The served catalog: the 17 representatives on the Xeon E5645 and the
/// Atom D510, at tiny scale.
pub fn spec() -> ServeSpec {
    let mut spec = ServeSpec::representatives(Scale::tiny());
    spec.configs
        .insert(KNOBS[1].0.to_owned(), MachineConfig::atom_d510());
    spec
}

/// One step of the closed loop.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Fetch one entry.
    Query(EntryKey),
    /// Apply one mutation.
    Mutate(Mutation),
}

/// The seeded step sequence: `queries_per_mutation` queries, then one
/// mutation, repeating. Each mutation moves a seed-picked knob to a value
/// other than its current one, so every mutation recomputes entries.
pub struct Schedule {
    rng: StdRng,
    keys: Vec<EntryKey>,
    queries_per_mutation: usize,
    step: usize,
    current: [u64; 2],
}

impl Schedule {
    /// The schedule for `seed` over the entries of `spec`.
    pub fn new(seed: u64, spec: &ServeSpec, queries_per_mutation: usize) -> Self {
        Schedule {
            rng: StdRng::seed_from_u64(seed),
            keys: spec.entries(),
            queries_per_mutation,
            step: 0,
            current: [
                MachineConfig::xeon_e5645().l1d.size_bytes,
                MachineConfig::atom_d510().l2.size_bytes,
            ],
        }
    }
}

impl Iterator for Schedule {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        self.step += 1;
        if !self.step.is_multiple_of(self.queries_per_mutation + 1) {
            let key = &self.keys[self.rng.gen_range(0..self.keys.len())];
            return Some(Step::Query(key.clone()));
        }
        let knob = self.rng.gen_range(0..KNOBS.len());
        let (config, path, values) = KNOBS[knob];
        let others: Vec<u64> = values
            .into_iter()
            .filter(|&v| v != self.current[knob])
            .collect();
        let value = others[self.rng.gen_range(0..others.len())];
        self.current[knob] = value;
        Some(Step::Mutate(Mutation::SetKnob {
            config: config.to_owned(),
            knob: path.to_owned(),
            value: Value::UInt(value),
        }))
    }
}

type Entries = BTreeMap<String, SnapshotEntry>;

fn by_key(entries: Vec<SnapshotEntry>) -> Entries {
    entries.into_iter().map(|e| (e.key.render(), e)).collect()
}

/// A running server with its two sessions.
struct Service {
    engine: Arc<Engine>,
    server: Server,
    listener: JoinHandle<()>,
    client: ServeClient,
    subscriber: ServeClient,
    /// The catalog when the subscriber joined, with every delta the
    /// subscriber has received since applied to it.
    replica: Entries,
    /// The spec the server holds after every mutation so far.
    spec: ServeSpec,
}

impl Service {
    fn start(spec: &ServeSpec) -> Service {
        let engine = Arc::new(Engine::in_memory());
        let state = ServeState::materialize(Arc::clone(&engine), spec.clone())
            .expect("the served catalog materializes");
        let server = Server::new(state, ServerConfig::named("bdb-benchmark"));
        let socket = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = socket.local_addr().expect("bound address").to_string();
        let listener = {
            let server = server.clone();
            std::thread::spawn(move || {
                let _ = server.serve_listener(&socket);
            })
        };
        let session = |name: &str| {
            let mut c = ServeClient::connect(&addr, CONNECT_TIMEOUT).expect("connect to server");
            c.hello(name).expect("server accepts the session");
            c
        };
        let mut client = session("bench-client");
        let mut subscriber = session("bench-subscriber");
        let base_seq = subscriber.subscribe().expect("subscribe");
        let (seq, entries) = client.snapshot().expect("initial snapshot");
        assert_eq!(
            seq, base_seq,
            "no mutation ran between subscribe and snapshot"
        );
        Service {
            engine,
            server,
            listener,
            client,
            subscriber,
            replica: by_key(entries),
            spec: spec.clone(),
        }
    }

    fn stop(self) {
        let _ = self.subscriber.bye();
        let mut client = self.client;
        let _ = client.shutdown();
        let _ = self.listener.join();
        // Session threads are the server's own; wait for them to finish so
        // the next set-up starts from the same thread and memory state.
        let start = Instant::now();
        while self.server.stats().sessions_active > 0 && start.elapsed() < CONNECT_TIMEOUT {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Runs one step; returns its latency if it succeeded, and whether it
    /// was a query.
    fn step(&mut self, step: Step, tally: &mut Tally) -> (Option<f64>, bool) {
        let start = Instant::now();
        match step {
            Step::Query(key) => {
                let found = self
                    .client
                    .query(&key)
                    .map_err(|e| e.to_string())
                    .and_then(|hit| hit.map(drop).ok_or_else(|| format!("{key} not served")));
                let ok = tally.op("query", found).is_some();
                (ok.then(|| start.elapsed().as_secs_f64()), true)
            }
            Step::Mutate(mutation) => {
                let done = self.mutate(&mutation);
                let ok = tally.op("mutate", done).is_some();
                (ok.then(|| start.elapsed().as_secs_f64()), false)
            }
        }
    }

    /// Sends a mutation and, when it changed entries, waits for the
    /// subscriber's delta. A mutation that changed nothing pushes no
    /// delta, so waiting for one would stall until the timeout.
    fn mutate(&mut self, mutation: &Mutation) -> Result<(), String> {
        let outcome = self
            .client
            .mutate(mutation.clone())
            .map_err(|e| e.to_string())?;
        self.spec = self.spec.apply(mutation).map_err(|e| e.to_string())?;
        if outcome.created + outcome.updated + outcome.deleted == 0 {
            return Ok(());
        }
        loop {
            match self.subscriber.next_delta(DELTA_TIMEOUT) {
                Ok(Some(batch)) => {
                    apply_delta_batch(&mut self.replica, &batch);
                    if batch.seq >= outcome.seq {
                        return Ok(());
                    }
                }
                Ok(None) => return Err(format!("no delta for seq {} in time", outcome.seq)),
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    /// The oracles: the final catalog equals a cold materialization of
    /// the final spec, and the first snapshot plus every streamed delta
    /// reproduces it.
    fn check(&mut self, tally: &mut Tally) {
        let Some((_, entries)) = tally.op("snapshot", self.client.snapshot()) else {
            return;
        };
        let live = by_key(entries);
        let cold = ServeState::materialize(Arc::new(Engine::in_memory()), self.spec.clone()).map(
            |state| {
                state
                    .keys()
                    .into_iter()
                    .filter_map(|key| {
                        let (fingerprint, profile) = state.get(&key)?;
                        Some(SnapshotEntry {
                            fingerprint,
                            key,
                            profile: Box::new(profile.clone()),
                        })
                    })
                    .collect::<Vec<_>>()
            },
        );
        if let Some(cold) = tally.op("cold materialize", cold) {
            tally.check(same_entries(&live, &by_key(cold), true), || {
                "the served catalog differs from a cold materialization".to_owned()
            });
        }
        // A recomputed entry whose bytes did not change streams no delta,
        // so a replica keeps its old fingerprint: the delta contract covers
        // keys and profile bytes only.
        tally.check(same_entries(&live, &self.replica, false), || {
            "the first snapshot plus the streamed deltas differs from the catalog".to_owned()
        });
    }
}

fn same_entries(a: &Entries, b: &Entries, fingerprints: bool) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|((ka, ea), (kb, eb))| {
            ka == kb
                && (!fingerprints || ea.fingerprint == eb.fingerprint)
                && canonical(&ea.profile) == canonical(&eb.profile)
        })
}

fn queries_per_mutation(params: &Params) -> usize {
    if params.check {
        CHECK_QUERIES_PER_MUTATION
    } else {
        QUERIES_PER_MUTATION
    }
}

/// The end-to-end run.
pub fn timed(params: &Params, reference: &mut Reference) -> Timed {
    let spec = spec();
    let (first_setup_s, mut svc) = time_build(|| Service::start(&spec));
    let qpm = queries_per_mutation(params);
    let steps = if params.check {
        CHECK_CYCLES * (qpm + 1)
    } else {
        usize::MAX
    };
    let mut tally = Tally::default();
    let (mut query_s, mut mutate_s, mut cycle_s) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut cycle = Instant::now();
    for step in Schedule::new(params.seed, &spec, qpm).take(steps) {
        match svc.step(step, &mut tally) {
            (Some(s), true) => query_s.push(s),
            (latency, false) => {
                mutate_s.extend(latency);
                cycle_s.push(cycle.elapsed().as_secs_f64());
                // Stop only between cycles, so every cycle is whole.
                if !params.check && start.elapsed().as_secs_f64() >= params.seconds {
                    break;
                }
                reference.time_if_due();
                cycle = Instant::now();
            }
            (None, true) => {}
        }
    }
    let peak_rss_mib = peak_rss_mib();
    svc.check(&mut tally);
    svc.stop();
    let mut details = Vec::new();
    for (name, samples) in [("query_p50_ms", &query_s), ("mutate_p50_ms", &mutate_s)] {
        if !samples.is_empty() {
            details.push(Detail::from_samples(
                name,
                median(samples) * 1e3,
                "ms",
                samples.len(),
            ));
        }
    }
    details.extend(tail_ms("query_p99_ms", &query_s, 0.99));
    details.extend(tail_ms("mutate_p90_ms", &mutate_s, 0.90));
    Timed {
        setup_s: setup_median(
            params,
            first_setup_s,
            || Service::start(&spec),
            Service::stop,
        ),
        peak_rss_mib,
        items: (query_s.len() + mutate_s.len()) as u64,
        op_s: cycle_s,
        tally,
        details,
    }
}

/// The traced run: a fixed slice of the schedule (two mutation cycles)
/// untraced over TCP, then the same slice in-process — materialize, point
/// lookups, mutations — and its queries again over TCP, where the time
/// beyond the in-process lookups is the protocol and wire share.
pub fn traced(params: &Params) -> Traced {
    let spec = spec();
    let mut svc = Service::start(&spec);
    let qpm = queries_per_mutation(params);
    let cycles = if params.check {
        CHECK_CYCLES
    } else {
        TRACED_CYCLES
    };
    let slice = cycles * (qpm + 1);
    let mut tally = Tally::default();

    let mut live = Schedule::new(params.seed, &spec, qpm);
    let engine_before = svc.engine.counters();
    let stats_before = svc.server.stats();
    let untraced_s = untraced(UNTRACED_REPEATS, || {
        for step in live.by_ref().take(slice) {
            svc.step(step, &mut tally);
        }
    });
    let engine_after = svc.engine.counters();

    let steps: Vec<Step> = Schedule::new(params.seed, &spec, qpm).take(slice).collect();
    let mut trace = Trace::new();
    let mut recomputed = 0;
    trace.span("bench.redrive", 0, |t| {
        let (state, _) = t.span("serve.materialize", 0, |_| {
            ServeState::materialize(Arc::new(Engine::in_memory()), spec.clone())
        });
        let Some(mut state) = tally.op("materialize", state) else {
            return;
        };
        let materialized = state.engine().counters().computed;
        let mut batches: Vec<(Vec<EntryKey>, SpanId)> = Vec::new();
        let mut pending: Vec<EntryKey> = Vec::new();
        let mut lookups = |t: &mut Trace, keys: Vec<EntryKey>, state: &ServeState| {
            let request = batches.len() as u64;
            let (_, id) = t.span("serve.state_get", request, |_| {
                for key in &keys {
                    black_box(state.get(key));
                }
            });
            batches.push((keys, id));
        };
        for step in &steps {
            match step {
                Step::Query(key) => pending.push(key.clone()),
                Step::Mutate(mutation) => {
                    lookups(t, std::mem::take(&mut pending), &state);
                    let (applied, _) = t.span("serve.state_apply", 0, |_| state.apply(mutation));
                    tally.op("apply", applied);
                }
            }
        }
        if !pending.is_empty() {
            lookups(t, pending, &state);
        }
        recomputed = state.engine().counters().computed - materialized;
        for (request, (keys, lookup)) in batches.iter().enumerate() {
            let (_, wire) = t.span("serve.proto_wire", request as u64, |_| {
                for key in keys {
                    tally.op("query", svc.client.query(key));
                }
            });
            t.subtract(wire, *lookup);
        }
    });
    let stats_after = svc.server.stats();
    svc.check(&mut tally);
    svc.stop();
    let per_rep = |a: u64, b: u64| (a - b) / UNTRACED_REPEATS as u64;
    let mut counts = vec![
        ("serve.recomputed", recomputed),
        (
            "serve.delta_batches",
            per_rep(stats_after.delta_batches, stats_before.delta_batches),
        ),
        (
            "serve.deltas_streamed",
            per_rep(stats_after.deltas_streamed, stats_before.deltas_streamed),
        ),
        (
            "serve.subscribers_evicted",
            stats_after.subscribers_evicted - stats_before.subscribers_evicted,
        ),
    ];
    counts.extend(engine_counts(
        [(&engine_before, &engine_after)],
        UNTRACED_REPEATS,
    ));
    Traced {
        untraced_s,
        trace,
        counts,
        details: Vec::new(),
        tally,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_serve::apply_machine_knob;
    use bdb_sim::Machine;

    fn first_steps(seed: u64) -> Vec<Step> {
        Schedule::new(seed, &spec(), 5).take(60).collect()
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        assert_eq!(first_steps(1), first_steps(1));
        assert_ne!(first_steps(1), first_steps(2));
        let mutations = first_steps(1)
            .iter()
            .filter(|s| matches!(s, Step::Mutate(_)))
            .count();
        assert_eq!(mutations, 10);
    }

    #[test]
    fn every_scheduled_knob_value_builds_a_valid_machine() {
        let spec = spec();
        for (config, knob, values) in KNOBS {
            for value in values {
                let edited = apply_machine_knob(&spec.configs[config], knob, &Value::UInt(value))
                    .expect("knob applies");
                drop(Machine::new(edited));
            }
        }
    }

    #[test]
    fn every_mutation_changes_its_knob() {
        let spec = spec();
        let mut configs = spec.configs.clone();
        for step in Schedule::new(3, &spec, 2).take(300) {
            let Step::Mutate(Mutation::SetKnob {
                config,
                knob,
                value,
            }) = step
            else {
                continue;
            };
            let edited =
                apply_machine_knob(&configs[&config], &knob, &value).expect("knob applies");
            assert_ne!(edited, configs[&config], "{config} {knob} kept its value");
            configs.insert(config, edited);
        }
    }
}
