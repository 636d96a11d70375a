//! `fleet-warm`: warm restarts of a two-worker loopback-TCP fleet. Every
//! round restarts both worker engines on caches primed during set-up and
//! profiles the 77 catalog workloads through the coordinator, so a round
//! is cache reads, wire traffic and the coordinator's merge — no
//! simulation at all.

use crate::reference::Reference;
use crate::run::{
    canonical, engine_counts, setup_median, tail_ms, time_build, timed_loop, untraced, Params,
    Tally, Timed, Traced, UNTRACED_REPEATS,
};
use crate::stats::peak_rss_mib;
use crate::trace::Trace;
use bdb_cluster::wire::{decode_payload, encode_frame};
use bdb_cluster::{
    profile_all_distributed, run_worker, Message, TcpTransport, Transport, WorkerConfig,
};
use bdb_engine::{verify_cache_entry, CacheCounters, Engine, EngineConfig, Task};
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_wcrt::WorkloadProfile;
use bdb_workloads::{catalog, Scale, WorkloadDef};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// How long a worker may take to record a finished session.
const SESSION_TIMEOUT: Duration = Duration::from_secs(10);

/// Where fleets keep their cache directories while they run.
const RUN_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// One worker daemon: a listener that serves each connection with a
/// freshly built engine on the same cache directory — what a restarted
/// `bdb-clusterd` does.
struct WorkerNode {
    addr: String,
    stop: Arc<AtomicBool>,
    /// Engine counters of every finished session.
    sessions: Arc<Mutex<Vec<CacheCounters>>>,
    thread: JoinHandle<()>,
}

impl WorkerNode {
    fn spawn(name: &'static str, dir: PathBuf) -> WorkerNode {
        let socket = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
        let addr = socket.local_addr().expect("bound address").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let sessions = Arc::new(Mutex::new(Vec::new()));
        let thread = {
            let (stop, sessions) = (Arc::clone(&stop), Arc::clone(&sessions));
            std::thread::spawn(move || {
                for stream in socket.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let Ok(transport) = TcpTransport::from_stream(stream, "coordinator") else {
                        continue;
                    };
                    let engine = Engine::new(EngineConfig::default().cache_dir(&dir));
                    let _ = run_worker(&transport, &engine, &WorkerConfig::named(name));
                    lock(&sessions).push(engine.counters());
                }
            })
        };
        WorkerNode {
            addr,
            stop,
            sessions,
            thread,
        }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept so the loop sees the flag.
        let _ = TcpStream::connect(&self.addr);
        let _ = self.thread.join();
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock()
        .expect("a worker thread panicked while recording its session")
}

/// Two workers on primed caches, and the bytes a local engine produced.
struct Fleet {
    dir: PathBuf,
    caches: [PathBuf; 2],
    workers: [WorkerNode; 2],
    expected: Vec<String>,
}

impl Fleet {
    /// Primes the first worker's cache with a local `profile_all`, copies
    /// it to the second, and starts both workers.
    fn start(defs: &[WorkloadDef], scale: Scale) -> Fleet {
        static RUNS: AtomicUsize = AtomicUsize::new(0);
        let dir = Path::new(RUN_ROOT).join(format!(
            "fleet-{}-{}",
            std::process::id(),
            RUNS.fetch_add(1, Ordering::SeqCst)
        ));
        let caches = [dir.join("w0"), dir.join("w1")];
        for cache in &caches {
            std::fs::create_dir_all(cache).expect("create a worker cache directory");
        }
        let engine = Engine::new(EngineConfig::default().cache_dir(&caches[0]));
        let profiles = engine.profile_all(defs, scale, &xeon(), &NodeConfig::default());
        for entry in std::fs::read_dir(&caches[0]).expect("list the primed cache") {
            let path = entry.expect("cache entry").path();
            if path.is_file() {
                let name = path.file_name().expect("entry name");
                std::fs::copy(&path, caches[1].join(name)).expect("copy a cache entry");
            }
        }
        Fleet {
            workers: [
                WorkerNode::spawn("w0", caches[0].clone()),
                WorkerNode::spawn("w1", caches[1].clone()),
            ],
            caches,
            dir,
            expected: profiles.iter().map(canonical).collect(),
        }
    }

    fn stop(self) {
        for worker in self.workers {
            worker.stop();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }

    /// One round: connect to both workers (each builds a fresh engine)
    /// and profile every workload through the coordinator.
    fn round(&self, defs: &[WorkloadDef], scale: Scale) -> Result<Vec<WorkloadProfile>, String> {
        let mut workers: Vec<Arc<dyn Transport>> = Vec::with_capacity(2);
        for worker in &self.workers {
            let transport =
                TcpTransport::connect(&worker.addr, CONNECT_TIMEOUT).map_err(|e| e.to_string())?;
            workers.push(Arc::new(transport));
        }
        profile_all_distributed(workers, defs, scale, &xeon(), &NodeConfig::default())
            .map_err(|e| e.to_string())
    }

    /// Finished sessions so far across both workers.
    fn session_count(&self) -> usize {
        self.workers.iter().map(|w| lock(&w.sessions).len()).sum()
    }

    /// Waits until both workers have recorded `sessions` sessions in
    /// total, then returns every session's engine counters.
    fn sessions(&self, sessions: usize) -> Option<Vec<CacheCounters>> {
        let start = Instant::now();
        while self.session_count() < sessions {
            if start.elapsed() > SESSION_TIMEOUT {
                return None;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Some(
            self.workers
                .iter()
                .flat_map(|w| lock(&w.sessions).clone())
                .collect(),
        )
    }
}

fn xeon() -> MachineConfig {
    MachineConfig::xeon_e5645()
}

/// The catalog in a seed-picked order: the fleet's task list.
fn defs(seed: u64) -> Vec<WorkloadDef> {
    let mut defs = catalog::full_catalog();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..defs.len()).rev() {
        defs.swap(i, rng.gen_range(0..=i));
    }
    defs
}

/// The end-to-end run.
pub fn timed(params: &Params, reference: &mut Reference) -> Timed {
    let scale = Scale::tiny();
    let defs = defs(params.seed);
    let (first_setup_s, fleet) = time_build(|| Fleet::start(&defs, scale));
    let mut tally = Tally::default();
    let mut rounds = 0;
    let op_s = timed_loop(
        params,
        reference,
        || fleet.round(&defs, scale),
        |result| {
            if let Some(profiles) = tally.op("round", result) {
                let bytes: Vec<String> = profiles.iter().map(canonical).collect();
                tally.check(bytes == fleet.expected, || {
                    "a warm round's bytes differ from the local engine's".to_owned()
                });
                rounds += 1;
            }
        },
    );
    let peak_rss_mib = peak_rss_mib();
    // Every timed round is two sessions; none of them may simulate.
    let sessions = fleet.sessions(2 * op_s.len());
    tally.check(
        sessions
            .as_ref()
            .is_some_and(|s| s.iter().all(|c| c.computed == 0)),
        || format!("workers simulated during warm rounds: {sessions:?}"),
    );
    fleet.stop();
    let details = [("round_p95_ms", 0.95), ("round_p99_ms", 0.99)]
        .into_iter()
        .filter_map(|(name, q)| tail_ms(name, &op_s, q))
        .collect();
    Timed {
        setup_s: setup_median(
            params,
            first_setup_s,
            || Fleet::start(&defs, scale),
            Fleet::stop,
        ),
        peak_rss_mib,
        items: rounds * defs.len() as u64,
        tally,
        details,
        op_s,
    }
}

/// The traced run: rounds untraced, then one round's work serially —
/// restart both engines, and per task the cache read, its verification,
/// the rest of `run_task`, and the Result frame's encode and decode.
pub fn traced(params: &Params) -> Traced {
    let scale = Scale::tiny();
    let defs = defs(params.seed);
    let fleet = Fleet::start(&defs, scale);
    let mut tally = Tally::default();
    let untraced_s = untraced(UNTRACED_REPEATS, || {
        tally.op("round", fleet.round(&defs, scale));
    });
    let sessions = fleet.sessions(2 * UNTRACED_REPEATS).unwrap_or_default();

    let node = NodeConfig::default();
    let mut trace = Trace::new();
    let (mut entry_bytes, mut frame_bytes) = (0, 0);
    let mut decoded = Vec::with_capacity(defs.len());
    let mut redrive_computed = 0;
    trace.span("bench.redrive", 0, |t| {
        let (engines, _) = t.span("engine.restart", 0, |_| {
            fleet.caches.clone().map(|dir| {
                let engine = Engine::new(EngineConfig::default().cache_dir(dir));
                drop(engine.cached_fingerprints());
                engine
            })
        });
        for (i, def) in defs.iter().enumerate() {
            let request = i as u64;
            let engine = &engines[i % 2];
            let task = Task::new(def, scale, &xeon(), &node);
            let path = engine
                .cache_file(def, scale, &xeon(), &node)
                .expect("worker engines have a cache directory");
            let (bytes, read) = t.span("engine.cache_read", request, |_| std::fs::read(&path));
            let Some(bytes) = tally.op("cache read", bytes) else {
                continue;
            };
            entry_bytes += bytes.len() as u64;
            let (verified, verify) = t.span("engine.cache_verify", request, |_| {
                verify_cache_entry(&bytes, task.fingerprint())
            });
            tally.op("cache verify", verified);
            let (result, run) = t.span("engine.run_task", request, |_| engine.run_task(&task));
            t.subtract(run, read);
            t.subtract(run, verify);
            let Some(result) = tally.op("run_task", result) else {
                continue;
            };
            let message = Message::Result {
                task_id: request,
                fingerprint: result.fingerprint,
                outcome: Ok(Box::new(result.profile)),
            };
            let (frame, _) = t.span("cluster.frame_encode", request, |_| encode_frame(&message));
            frame_bytes += frame.len() as u64;
            let (message, _) = t.span("cluster.frame_decode", request, |_| {
                decode_payload(&frame[4..])
            });
            if let Some(Message::Result {
                outcome: Ok(profile),
                ..
            }) = tally.op("frame decode", message)
            {
                decoded.push(canonical(&profile));
            }
        }
        redrive_computed = engines.iter().map(|e| e.counters().computed).sum();
    });
    tally.check(decoded == fleet.expected && redrive_computed == 0, || {
        "the re-driven round differs from the local engine's bytes or simulated".to_owned()
    });
    fleet.stop();
    // Every session starts from a fresh engine, so its counters are its
    // growth.
    let fresh = CacheCounters::default();
    let mut counts = engine_counts(sessions.iter().map(|c| (&fresh, c)), UNTRACED_REPEATS);
    counts.extend([
        ("engine.cache_entry_bytes", entry_bytes),
        ("cluster.result_frame_bytes", frame_bytes),
    ]);
    Traced {
        untraced_s,
        trace,
        counts,
        details: Vec::new(),
        tally,
    }
}
