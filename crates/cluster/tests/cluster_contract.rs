//! The cluster contract: a distributed run merges **byte-identically**
//! to a serial local engine run — across worker counts, work stealing,
//! injected crashes, delayed replies, and duplicated result frames.
//!
//! This is the acceptance test for the subsystem: the full 77-workload
//! catalog sharded over three loopback workers, one of which crashes
//! mid-run, must still converge to exactly the serial profile bytes.

use bdb_cluster::wire::decode_message;
use bdb_cluster::{
    fleet_tasks, loopback_pair, run_worker, ClusterConfig, ClusterError, Coordinator, FaultPlan,
    FaultyTransport, Message, TcpTransport, Transport, TransportError, WorkerConfig,
    PROTOCOL_VERSION,
};
use bdb_engine::codec::profile_to_value;
use bdb_engine::json::Value;
use bdb_engine::{CacheCounters, Engine, EngineConfig};
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_wcrt::WorkloadProfile;
use bdb_workloads::{catalog, Scale, WorkloadDef};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A join channel whose sender is gone: fixed membership.
fn closed_joins() -> Receiver<Arc<dyn Transport>> {
    let (_, joins) = channel();
    joins
}

/// Fast tick so deadline/backoff recovery converges quickly in tests.
fn test_config() -> ClusterConfig {
    ClusterConfig {
        tick: Duration::from_millis(5),
        ..ClusterConfig::default()
    }
}

/// Spawns a loopback worker thread with the given fault plan and returns
/// the coordinator-side transport end.
fn spawn_worker(name: &str, faults: FaultPlan) -> Arc<dyn Transport> {
    let (coord_end, worker_end) = loopback_pair();
    let config = WorkerConfig {
        name: name.to_owned(),
        faults: faults.clone(),
    };
    std::thread::spawn(move || {
        let engine = Engine::in_memory();
        let transport = FaultyTransport::new(worker_end, config.faults.clone());
        run_worker(&transport, &engine, &config)
    });
    Arc::new(coord_end)
}

fn canonical_bytes(profiles: &[WorkloadProfile]) -> Vec<String> {
    profiles
        .iter()
        .map(|p| profile_to_value(p).encode())
        .collect()
}

fn serial_baseline(workloads: &[WorkloadDef], scale: Scale) -> Vec<String> {
    let profiles = Engine::serial().profile_all(
        workloads,
        scale,
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    );
    canonical_bytes(&profiles)
}

fn run_cluster(
    workloads: &[WorkloadDef],
    scale: Scale,
    workers: Vec<Arc<dyn Transport>>,
) -> Vec<String> {
    let tasks = fleet_tasks(
        workloads,
        scale,
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    );
    let profiles = Coordinator::new(test_config())
        .run_elastic(workers, closed_joins(), &tasks)
        .expect("distributed run must converge");
    canonical_bytes(&profiles)
}

#[test]
fn full_catalog_with_midrun_crash_is_byte_identical_to_serial() {
    let workloads = catalog::full_catalog();
    assert_eq!(workloads.len(), 77, "the paper's full fleet");
    let scale = Scale::tiny();
    let serial = serial_baseline(&workloads, scale);
    // Three workers; the middle one crashes while the fleet is mid-run
    // (after accepting 5 of its ~26 planned tasks), orphaning work that
    // must be stolen and retried by the survivors.
    let workers = vec![
        spawn_worker("w0", FaultPlan::default()),
        spawn_worker(
            "w1",
            FaultPlan {
                crash_on_task: Some(5),
                ..FaultPlan::default()
            },
        ),
        spawn_worker("w2", FaultPlan::default()),
    ];
    let distributed = run_cluster(&workloads, scale, workers);
    assert_eq!(
        distributed, serial,
        "merged cluster profiles must be byte-identical to the serial engine"
    );
}

#[test]
fn delays_duplicates_and_drops_do_not_corrupt_the_merge() {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(12).collect();
    let scale = Scale::tiny();
    let serial = serial_baseline(&workloads, scale);
    let workers = vec![
        // Slow worker: every reply delayed.
        spawn_worker(
            "slow",
            FaultPlan {
                delay_reply: Some(Duration::from_millis(20)),
                ..FaultPlan::default()
            },
        ),
        // Chatty worker: every Result frame sent twice (dedup path).
        spawn_worker(
            "dup",
            FaultPlan {
                duplicate_results: true,
                ..FaultPlan::default()
            },
        ),
        // Flaky worker: connection drops after a handful of frames.
        spawn_worker(
            "flaky",
            FaultPlan {
                drop_after_frames: Some(6),
                ..FaultPlan::default()
            },
        ),
    ];
    let distributed = run_cluster(&workloads, scale, workers);
    assert_eq!(distributed, serial);
}

#[test]
fn single_worker_cluster_matches_serial() {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(5).collect();
    let scale = Scale::tiny();
    assert_eq!(
        run_cluster(
            &workloads,
            scale,
            vec![spawn_worker("only", FaultPlan::default())]
        ),
        serial_baseline(&workloads, scale)
    );
}

/// A loopback worker over a disk cache at `dir`; the handle yields its
/// engine's counters once the session ends.
fn spawn_cached_worker(
    name: &str,
    dir: &std::path::Path,
) -> (Arc<dyn Transport>, std::thread::JoinHandle<CacheCounters>) {
    let (coord_end, worker_end) = loopback_pair();
    let config = WorkerConfig {
        name: name.to_owned(),
        faults: FaultPlan::default(),
    };
    let engine = Engine::new(EngineConfig::default().cache_dir(dir));
    let handle = std::thread::spawn(move || {
        let _ = run_worker(&worker_end, &engine, &config);
        engine.counters()
    });
    (Arc::new(coord_end), handle)
}

/// [`spawn_cached_worker`] over TCP, where a worker holds its replies
/// while further `Assign`s are buffered and sends them together.
fn spawn_tcp_cached_worker(
    name: &str,
    dir: &std::path::Path,
) -> (Arc<dyn Transport>, std::thread::JoinHandle<CacheCounters>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let config = WorkerConfig::named(name);
    let engine = Engine::new(EngineConfig::default().threads(1).cache_dir(dir));
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let transport = TcpTransport::from_stream(stream, "coordinator").unwrap();
        let _ = run_worker(&transport, &engine, &config);
        engine.counters()
    });
    let coord_end = TcpTransport::connect(&addr, Duration::from_secs(5)).unwrap();
    (Arc::new(coord_end), handle)
}

/// A warm worker whose advertised entries are all damaged. It holds its
/// whole plan, so it is handed every task of it at once; each entry
/// fails its check at the worker, which quarantines and recomputes it
/// exactly once. The other worker holds only its own plan's entries, so
/// it never takes the damaged worker's tasks, and it computes nothing.
#[test]
fn warm_worker_with_every_entry_damaged_recomputes_each_once() {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(6).collect();
    let scale = Scale::tiny();
    let machine = MachineConfig::xeon_e5645();
    let node = NodeConfig::default();
    let serial = serial_baseline(&workloads, scale);
    let tasks = fleet_tasks(&workloads, scale, &machine, &node);
    let root = std::env::temp_dir().join(format!("bdb-cluster-damaged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // Worker 0 plans tasks 0-2 and worker 1 tasks 3-5; each cache holds
    // its own plan's entries.
    let dirs = [root.join("w0"), root.join("w1")];
    for (dir, plan) in dirs.iter().zip(workloads.chunks(3)) {
        Engine::new(EngineConfig::default().threads(1).cache_dir(dir))
            .profile_all(plan, scale, &machine, &node);
    }
    let mut damaged = 0;
    for entry in std::fs::read_dir(&dirs[0]).unwrap() {
        let path = entry.unwrap().path();
        if path.is_file() {
            let mut bytes = std::fs::read(&path).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&path, bytes).unwrap();
            damaged += 1;
        }
    }
    assert_eq!(damaged, 3);

    let (w0, s0) = spawn_tcp_cached_worker("damaged", &dirs[0]);
    let (w1, s1) = spawn_tcp_cached_worker("intact", &dirs[1]);
    let merged = Coordinator::new(test_config())
        .run_elastic(vec![w0, w1], closed_joins(), &tasks)
        .expect("the run recovers");
    let (c0, c1) = (s0.join().unwrap(), s1.join().unwrap());
    assert_eq!(canonical_bytes(&merged), serial);
    assert_eq!((c0.corrupt_quarantined, c0.computed), (3, 3));
    assert_eq!((c1.corrupt_quarantined, c1.computed), (0, 0));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn killed_coordinator_reruns_over_a_warm_cache_without_recomputing() {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(8).collect();
    let scale = Scale::tiny();
    let serial = serial_baseline(&workloads, scale);
    let tasks = fleet_tasks(
        &workloads,
        scale,
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    );
    let dir = std::env::temp_dir().join(format!("bdb-cluster-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // First coordinator: completes only the first five shards before the
    // process "dies" (we simply stop after a partial batch). Its worker
    // has already cached every verified result.
    let completed = 5usize;
    let (worker, first_life) = spawn_cached_worker("first-life", &dir);
    let partial = Coordinator::new(test_config())
        .run_elastic(vec![worker], closed_joins(), &tasks[..completed])
        .expect("partial run must converge");
    assert_eq!(partial.len(), completed);
    assert_eq!(first_life.join().unwrap().computed, completed as u64);

    // Second coordinator: dispatches every task again to a worker over
    // the same cache directory. Finished shards are disk hits; only the
    // three unfinished ones are simulated.
    let (worker, second_life) = spawn_cached_worker("second-life", &dir);
    let resumed = Coordinator::new(test_config())
        .run_elastic(vec![worker], closed_joins(), &tasks)
        .expect("rerun must converge");
    let counters = second_life.join().unwrap();
    assert_eq!(counters.computed, (tasks.len() - completed) as u64);
    assert_eq!(counters.disk_hits, completed as u64);
    assert_eq!(
        canonical_bytes(&resumed),
        serial,
        "resumed merge must be byte-identical to an uninterrupted serial run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn all_workers_crashing_is_a_clean_error() {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(4).collect();
    let tasks = fleet_tasks(
        &workloads,
        Scale::tiny(),
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    );
    let workers = vec![
        spawn_worker(
            "dead0",
            FaultPlan {
                crash_on_task: Some(0),
                ..FaultPlan::default()
            },
        ),
        spawn_worker(
            "dead1",
            FaultPlan {
                crash_on_task: Some(0),
                ..FaultPlan::default()
            },
        ),
    ];
    let outcome = Coordinator::new(test_config()).run_elastic(workers, closed_joins(), &tasks);
    assert!(outcome.is_err(), "no workers left must surface an error");
}

/// A coordinator-side transport that logs every message it receives.
struct Recording {
    inner: Arc<dyn Transport>,
    log: Arc<Mutex<Vec<Message>>>,
}

impl Recording {
    fn record(&self, msg: &Message) {
        self.log.lock().unwrap().push(msg.clone());
    }
}

impl Transport for Recording {
    fn send_frames(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
        self.inner.send_frames(frames)
    }

    fn recv_frame(&self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, TransportError> {
        let payload = self.inner.recv_frame(timeout)?;
        if let Some(payload) = &payload {
            self.record(&decode_message(payload)?);
        }
        Ok(payload)
    }

    fn has_buffered_frame(&self) -> bool {
        self.inner.has_buffered_frame()
    }
}

/// An entry that passes its CRC and carries the right fingerprint but
/// whose value is not a profile. The worker ships it unread on the first
/// assignment, so the coordinator's decode is what refuses it; the retry
/// takes the worker's full decode path, which quarantines the entry and
/// recomputes it. The merge stays byte-identical to serial, and the
/// coordinator debug-asserts task-set conservation after every event.
#[test]
fn intact_but_undecodable_entry_fails_at_the_coordinator_then_recomputes() {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(3).collect();
    let scale = Scale::tiny();
    let machine = MachineConfig::xeon_e5645();
    let node = NodeConfig::default();
    let serial = serial_baseline(&workloads, scale);
    let tasks = fleet_tasks(&workloads, scale, &machine, &node);
    let dir = std::env::temp_dir().join(format!("bdb-cluster-planted-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let primer = Engine::new(EngineConfig::default().threads(1).cache_dir(&dir));
    primer.profile_all(&workloads, scale, &machine, &node);
    let victim = 1;
    let planted = bdb_codec::encode_record(
        bdb_codec::RecordKind::CacheEntry,
        &bdb_codec::encode_cache_payload(tasks[victim].fingerprint(), &Value::object(Vec::new())),
    );
    let path = primer
        .cache_file(&workloads[victim], scale, &machine, &node)
        .expect("cached engine");
    std::fs::write(&path, &planted).unwrap();

    let (worker, session) = spawn_cached_worker("planted", &dir);
    let log = Arc::new(Mutex::new(Vec::new()));
    let recording: Arc<dyn Transport> = Arc::new(Recording {
        inner: worker,
        log: Arc::clone(&log),
    });
    let merged = Coordinator::new(test_config())
        .run_elastic(vec![recording], closed_joins(), &tasks)
        .expect("the run recovers");
    let counters = session.join().unwrap();
    assert_eq!(canonical_bytes(&merged), serial);
    assert_eq!(counters.corrupt_quarantined, 1);
    assert_eq!(counters.computed, 1);
    let answers: Vec<bool> = log
        .lock()
        .unwrap()
        .iter()
        .filter_map(|msg| match msg {
            Message::Result { task_id, .. } if *task_id == victim as u64 => Some(false),
            Message::Verified { task_id, .. } if *task_id == victim as u64 => Some(true),
            _ => None,
        })
        .collect();
    assert_eq!(
        answers,
        [false, true],
        "first attempt refused, retry verified"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker on an older protocol is refused at `Hello`: it gets no work,
/// and the run completes on the current-protocol workers.
#[test]
fn previous_protocol_hello_is_refused() {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(2).collect();
    let scale = Scale::tiny();
    let tasks = fleet_tasks(
        &workloads,
        scale,
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    );
    assert_eq!(PROTOCOL_VERSION, 4);
    let (coord_end, old_worker) = loopback_pair();
    old_worker
        .send(&Message::Hello {
            worker: "v3".to_owned(),
            protocol: 3,
            cached: Vec::new(),
        })
        .unwrap();
    let alone = Coordinator::new(test_config()).run_elastic(
        vec![Arc::new(coord_end)],
        closed_joins(),
        &tasks,
    );
    assert!(matches!(alone, Err(ClusterError::AllWorkersDead { .. })));
    while let Ok(Some(payload)) = old_worker.recv_frame(Some(Duration::ZERO)) {
        let msg = decode_message(&payload).unwrap();
        assert!(!matches!(msg, Message::Assign { .. }), "v3 worker got work");
    }

    let (coord_end, old_worker) = loopback_pair();
    old_worker
        .send(&Message::Hello {
            worker: "v3".to_owned(),
            protocol: 3,
            cached: Vec::new(),
        })
        .unwrap();
    let workers: Vec<Arc<dyn Transport>> = vec![
        Arc::new(coord_end),
        spawn_worker("v4", FaultPlan::default()),
    ];
    let merged = Coordinator::new(test_config())
        .run_elastic(workers, closed_joins(), &tasks)
        .expect("the current worker finishes the run");
    assert_eq!(canonical_bytes(&merged), serial_baseline(&workloads, scale));
    while let Ok(Some(payload)) = old_worker.recv_frame(Some(Duration::ZERO)) {
        let msg = decode_message(&payload).unwrap();
        assert!(!matches!(msg, Message::Assign { .. }), "v3 worker got work");
    }
}

/// A v3 `Assign` — the whole task as a value tree in the header, no
/// config record after it — does not decode under v4: a skewed
/// coordinator's work is refused at the frame, never run from a guess.
#[test]
fn previous_protocol_assign_frame_is_refused() {
    let task = &fleet_tasks(
        &catalog::full_catalog()[..1],
        Scale::tiny(),
        &MachineConfig::xeon_e5645(),
        &NodeConfig::default(),
    )[0];
    let v3_task = Value::object(vec![
        ("workload_id", Value::Str(task.workload_id.clone())),
        (
            "scale_bits",
            Value::Str(format!("{:016x}", task.scale.factor().to_bits())),
        ),
        (
            "machine",
            bdb_engine::codec::machine_config_to_value(&task.machine),
        ),
        ("node", bdb_engine::codec::node_config_to_value(&task.node)),
    ]);
    let header = Value::object(vec![
        ("type", Value::Str("assign".to_owned())),
        ("task_id", Value::UInt(0)),
        ("task", v3_task),
    ]);
    let payload = bdb_codec::encode_record(
        bdb_codec::RecordKind::WireMessage,
        &bdb_codec::bval::encode_value(&header),
    );
    assert!(matches!(
        bdb_cluster::wire::decode_payload(&payload),
        Err(bdb_cluster::WireError::Decode(_))
    ));
}
