//! The elastic-fleet contract: under any topology-churn schedule —
//! workers joining mid-run, leaving cleanly with `Bye`, stalling
//! forever, crashing, or dropping their connections — the merged
//! profile bytes stay **identical** to a serial engine run, and a fleet
//! restarted after losing any single machine answers entirely from the
//! replicated result tier (zero recomputes).

use bdb_cluster::wire::decode_message;
use bdb_cluster::{
    fleet_tasks, loopback_pair, run_worker, ClusterConfig, Coordinator, FaultPlan, FaultyTransport,
    Message, Transport, TransportError, WorkerConfig,
};
use bdb_engine::codec::profile_to_value;
use bdb_engine::json::Value;
use bdb_engine::{Engine, EngineConfig};
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_wcrt::WorkloadProfile;
use bdb_workloads::{catalog, Scale, WorkloadDef};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A join channel whose sender is gone: fixed membership.
fn closed_joins() -> Receiver<Arc<dyn Transport>> {
    let (_, joins) = channel();
    joins
}

/// Fast ticks and extra attempts, so churn-heavy schedules converge
/// quickly but never exhaust a task. The task deadline stays at its
/// default: it must comfortably exceed real compute time, or healthy
/// workers get declared dead mid-task.
fn elastic_config() -> ClusterConfig {
    ClusterConfig {
        tick: Duration::from_millis(5),
        max_attempts: 8,
        ..ClusterConfig::default()
    }
}

fn machine() -> MachineConfig {
    MachineConfig::xeon_e5645()
}

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

/// Like [`spawn_worker`], but serving a caller-owned engine (so the
/// test can point it at a persistent cache dir and read its counters),
/// and returning the worker thread's handle for clean joining.
fn spawn_worker_with_engine(
    name: &str,
    engine: Arc<Engine>,
    faults: FaultPlan,
) -> (Arc<dyn Transport>, std::thread::JoinHandle<()>) {
    let (coord_end, worker_end) = loopback_pair();
    let config = WorkerConfig {
        name: name.to_owned(),
        faults: faults.clone(),
    };
    let handle = std::thread::spawn(move || {
        let transport = FaultyTransport::new(worker_end, config.faults.clone());
        let _ = run_worker(&transport, &engine, &config);
    });
    (Arc::new(coord_end), handle)
}

fn canonical_bytes(profiles: &[WorkloadProfile]) -> Vec<String> {
    profiles
        .iter()
        .map(|p| profile_to_value(p).encode())
        .collect()
}

fn serial_baseline(workloads: &[WorkloadDef], scale: Scale) -> Vec<String> {
    let profiles =
        Engine::serial().profile_all(workloads, scale, &machine(), &NodeConfig::default());
    canonical_bytes(&profiles)
}

/// The chaos soak: every churn schedule × every join timing must merge
/// byte-identically to serial. Each run starts with one clean worker
/// and one worker following the schedule's fault plan; a third clean
/// worker joins through the elastic channel after `join_delay`.
#[test]
fn topology_churn_schedules_merge_byte_identically_to_serial() {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(12).collect();
    let scale = Scale::tiny();
    let serial = serial_baseline(&workloads, scale);
    let tasks = fleet_tasks(&workloads, scale, &machine(), &NodeConfig::default());
    let schedules: Vec<(&str, FaultPlan)> = vec![
        ("clean", FaultPlan::default()),
        (
            "bye",
            FaultPlan {
                bye_on_task: Some(2),
                ..FaultPlan::default()
            },
        ),
        (
            "stall",
            FaultPlan {
                stall_on_task: Some(1),
                ..FaultPlan::default()
            },
        ),
        (
            "crash",
            FaultPlan {
                crash_on_task: Some(2),
                ..FaultPlan::default()
            },
        ),
        (
            "drop",
            FaultPlan {
                drop_after_frames: Some(6),
                ..FaultPlan::default()
            },
        ),
    ];
    for (label, fault) in &schedules {
        for join_delay_ms in [0u64, 120] {
            let workers = vec![
                spawn_worker(
                    &format!("{label}-base-{join_delay_ms}"),
                    FaultPlan::default(),
                ),
                spawn_worker(&format!("{label}-faulty-{join_delay_ms}"), fault.clone()),
            ];
            let (join_tx, join_rx) = channel();
            let joiner_name = format!("{label}-joiner-{join_delay_ms}");
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(join_delay_ms));
                let _ = join_tx.send(spawn_worker(&joiner_name, FaultPlan::default()));
                // Sender drops here: membership is final once the
                // joiner is delivered, so total fleet death stays a
                // clean error rather than an infinite wait.
            });
            let profiles = Coordinator::new(elastic_config())
                .run_elastic(workers, join_rx, &tasks)
                .unwrap_or_else(|e| panic!("schedule {label}/join@{join_delay_ms}ms: {e}"));
            assert_eq!(
                canonical_bytes(&profiles),
                serial,
                "schedule {label}/join@{join_delay_ms}ms must merge byte-identically"
            );
        }
    }
}

/// Regression: a run may start with an EMPTY worker list (the
/// `--join-listen`-only mode of cluster-smoke) and be populated entirely
/// through the elastic join channel. The tasks must be reachable by the
/// joiners — they used to live in no plan and no queue, so the run hung
/// forever — and the merged bytes must still match serial.
#[test]
fn run_elastic_from_an_empty_fleet_converges_once_workers_join() {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(6).collect();
    let scale = Scale::tiny();
    let serial = serial_baseline(&workloads, scale);
    let tasks = fleet_tasks(&workloads, scale, &machine(), &NodeConfig::default());
    let (join_tx, join_rx) = channel();
    std::thread::spawn(move || {
        for (i, delay_ms) in [0u64, 80].into_iter().enumerate() {
            std::thread::sleep(Duration::from_millis(delay_ms));
            let _ = join_tx.send(spawn_worker(
                &format!("empty-start-{i}"),
                FaultPlan::default(),
            ));
        }
    });
    let profiles = Coordinator::new(elastic_config())
        .run_elastic(Vec::new(), join_rx, &tasks)
        .expect("join-only fleet converges");
    assert_eq!(canonical_bytes(&profiles), serial);
}

/// Coordinator-side transport wrapper that logs every `Assign` it
/// sends, so tests can count dispatches per task.
struct CountingTransport {
    inner: Arc<dyn Transport>,
    worker: usize,
    assigns: Arc<Mutex<Vec<(usize, u64)>>>,
}

impl Transport for CountingTransport {
    fn send_frames(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
        for frame in &frames {
            if let Ok(Message::Assign { task_id, .. }) = decode_message(&frame[4..]) {
                self.assigns
                    .lock()
                    .expect("assign log lock")
                    .push((self.worker, task_id));
            }
        }
        self.inner.send_frames(frames)
    }

    fn recv_frame(&self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, TransportError> {
        self.inner.recv_frame(timeout)
    }

    fn has_buffered_frame(&self) -> bool {
        self.inner.has_buffered_frame()
    }
}

/// Runs six tasks over a worker whose connection dies the moment it
/// tries to send its first Result (frame budget 2 = Hello out + Assign
/// in) and a healthy survivor, at in-flight depth `max_inflight`.
/// Returns the `(worker, task)` log of every `Assign` sent.
fn run_with_a_worker_dying_mid_task(max_inflight: usize) -> Vec<(usize, u64)> {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(6).collect();
    let scale = Scale::tiny();
    let serial = serial_baseline(&workloads, scale);
    let tasks = fleet_tasks(&workloads, scale, &machine(), &NodeConfig::default());
    let assigns: Arc<Mutex<Vec<(usize, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let workers: Vec<Arc<dyn Transport>> = vec![
        Arc::new(CountingTransport {
            inner: spawn_worker(
                "eof-mid-task",
                FaultPlan {
                    drop_after_frames: Some(2),
                    ..FaultPlan::default()
                },
            ),
            worker: 0,
            assigns: Arc::clone(&assigns),
        }),
        Arc::new(CountingTransport {
            inner: spawn_worker("survivor", FaultPlan::default()),
            worker: 1,
            assigns: Arc::clone(&assigns),
        }),
    ];
    let config = ClusterConfig {
        max_inflight,
        ..elastic_config()
    };
    let profiles = Coordinator::new(config)
        .run_elastic(workers, closed_joins(), &tasks)
        .expect("run must converge past the EOF");
    assert_eq!(canonical_bytes(&profiles), serial);
    let log = assigns.lock().expect("assign log lock").clone();
    log
}

/// The tasks `log` sent to worker 0, checking each was dispatched
/// exactly twice: once to the dying worker, once again after its death.
fn orphans_redispatched_once(log: &[(usize, u64)]) -> Vec<u64> {
    let to_dead: Vec<u64> = log
        .iter()
        .filter(|(worker, _)| *worker == 0)
        .map(|&(_, task)| task)
        .collect();
    for &orphan in &to_dead {
        let dispatches = log.iter().filter(|&&(_, task)| task == orphan).count();
        assert_eq!(
            dispatches, 2,
            "orphaned task {orphan} must be re-dispatched exactly once: {log:?}"
        );
    }
    to_dead
}

/// Regression: a worker whose connection EOFs while it holds an
/// assigned task must cause exactly one re-dispatch of that task — the
/// `Closed` event and the later deadline/heartbeat machinery must not
/// each re-queue it. Pinned to depth 1, where the dying worker holds
/// exactly one task.
#[test]
fn worker_eof_holding_a_task_requeues_exactly_once() {
    let log = run_with_a_worker_dying_mid_task(1);
    let to_dead = orphans_redispatched_once(&log);
    assert_eq!(
        to_dead.len(),
        1,
        "the dying worker accepts exactly one assignment: {log:?}"
    );
}

/// The two-deep twin: the dying worker holds the task it is computing
/// and the one queued behind it, and each is re-dispatched exactly once.
#[test]
fn worker_eof_holding_two_tasks_requeues_each_exactly_once() {
    let log = run_with_a_worker_dying_mid_task(2);
    let to_dead = orphans_redispatched_once(&log);
    assert_eq!(
        to_dead.len(),
        2,
        "the dying worker is sent two assignments: {log:?}"
    );
}

/// The replicated result tier: after a 3-worker run with
/// `replication = 1`, killing ANY single worker and restarting the
/// survivors with fresh engines over the surviving cache dirs must
/// reproduce the serial bytes with **zero** recomputation — every entry
/// had a replica on a machine that survived.
#[test]
fn replicated_caches_restart_warm_after_killing_any_worker() {
    let base = std::env::temp_dir().join(format!("bdb-elastic-repl-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(9).collect();
    let scale = Scale::tiny();
    let serial = serial_baseline(&workloads, scale);
    let tasks = fleet_tasks(&workloads, scale, &machine(), &NodeConfig::default());
    let cache_dirs: Vec<std::path::PathBuf> = (0..3).map(|i| base.join(format!("w{i}"))).collect();
    let replicated = ClusterConfig {
        replication: 1,
        ..elastic_config()
    };

    // Run 1: three cold workers, each result replicated to one ring
    // successor, so every entry ends up on two distinct machines.
    {
        let mut handles = Vec::new();
        let mut workers: Vec<Arc<dyn Transport>> = Vec::new();
        let mut engines = Vec::new();
        for (i, dir) in cache_dirs.iter().enumerate() {
            let engine = Arc::new(Engine::new(EngineConfig::default().cache_dir(dir)));
            let (transport, handle) = spawn_worker_with_engine(
                &format!("r1-w{i}"),
                Arc::clone(&engine),
                FaultPlan::default(),
            );
            engines.push(engine);
            workers.push(transport);
            handles.push(handle);
        }
        let profiles = Coordinator::new(replicated.clone())
            .run_elastic(workers, closed_joins(), &tasks)
            .expect("replicated run converges");
        assert_eq!(canonical_bytes(&profiles), serial);
        // Join the worker threads so every Replicate admission has hit
        // disk before the warm restarts read the cache dirs.
        for handle in handles {
            handle.join().expect("worker thread exits cleanly");
        }
        let admitted: u64 = engines.iter().map(|e| e.counters().replicas_admitted).sum();
        let refused: u64 = engines.iter().map(|e| e.counters().replicas_refused).sum();
        assert_eq!((admitted, refused), (tasks.len() as u64, 0));
        // Each entry sits on exactly two machines — the computing
        // worker's file and a replica admitted from bytes — and the two
        // files are byte-identical.
        let mut copies: std::collections::BTreeMap<std::ffi::OsString, Vec<Vec<u8>>> =
            std::collections::BTreeMap::new();
        for dir in &cache_dirs {
            for entry in std::fs::read_dir(dir).expect("cache dir exists") {
                let path = entry.expect("dir entry").path();
                if path.is_file() {
                    let name = path.file_name().expect("file name").to_owned();
                    let bytes = std::fs::read(&path).expect("entry reads");
                    copies.entry(name).or_default().push(bytes);
                }
            }
        }
        assert_eq!(copies.len(), tasks.len());
        for (name, bytes) in &copies {
            assert_eq!(bytes.len(), 2, "{name:?} must sit on two machines");
            assert!(
                bytes[0] == bytes[1],
                "{name:?}: replica differs from its source"
            );
        }
    }

    // Run 2 (three times over): kill worker k, restart the survivors
    // with FRESH engines on the surviving cache dirs.
    for killed in 0..3 {
        let mut handles = Vec::new();
        let mut workers: Vec<Arc<dyn Transport>> = Vec::new();
        let mut engines = Vec::new();
        for (i, dir) in cache_dirs.iter().enumerate() {
            if i == killed {
                continue;
            }
            let engine = Arc::new(Engine::new(EngineConfig::default().cache_dir(dir)));
            let (transport, handle) = spawn_worker_with_engine(
                &format!("r2-kill{killed}-w{i}"),
                Arc::clone(&engine),
                FaultPlan::default(),
            );
            engines.push(engine);
            workers.push(transport);
            handles.push(handle);
        }
        let profiles = Coordinator::new(replicated.clone())
            .run_elastic(workers, closed_joins(), &tasks)
            .expect("warm restart converges");
        assert_eq!(
            canonical_bytes(&profiles),
            serial,
            "killed worker {killed}: warm bytes must still match serial"
        );
        let computed: u64 = engines.iter().map(|e| e.counters().computed).sum();
        assert_eq!(
            computed, 0,
            "killed worker {killed}: survivors must answer entirely from replicas"
        );
        for handle in handles {
            handle.join().expect("worker thread exits cleanly");
        }
    }
    let _ = std::fs::remove_dir_all(&base);
}

/// A gate one coordinator-side transport opens and another waits on.
#[derive(Default)]
struct Gate {
    open: Mutex<bool>,
    opened: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
    }
}

/// Coordinator-side wrapper that orders two workers' messages. An
/// `opener` opens the gate when the coordinator sends it an `Assign`,
/// which it does only after handling that worker's `Hello`; any other
/// end holds every message after its own `Hello` until the gate opens.
struct Gated {
    inner: Arc<dyn Transport>,
    gate: Arc<Gate>,
    opener: bool,
}

impl Gated {
    fn hold(&self, payload: &[u8]) {
        if !self.opener && !matches!(decode_message(payload), Ok(Message::Hello { .. })) {
            self.gate.wait();
        }
    }
}

impl Transport for Gated {
    fn send_frames(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
        let assigns = frames
            .iter()
            .any(|frame| matches!(decode_message(&frame[4..]), Ok(Message::Assign { .. })));
        if self.opener && assigns {
            self.gate.open();
        }
        self.inner.send_frames(frames)
    }

    fn recv_frame(&self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, TransportError> {
        let payload = self.inner.recv_frame(timeout)?;
        if let Some(payload) = &payload {
            self.hold(payload);
        }
        Ok(payload)
    }

    fn has_buffered_frame(&self) -> bool {
        self.inner.has_buffered_frame()
    }
}

/// A replica is the computing worker's entry record, byte for byte, not
/// a re-encoding of the profile the coordinator decoded from it. The
/// holder's entry here is valid but not canonical (its profile's keys
/// in reverse order, under the same container, CRC-64 and
/// fingerprint), so a coordinator that re-encoded would push different
/// bytes than the ones it received. Each worker holds one of the two
/// tasks; the holder's result is held back until the coordinator has
/// handled the target's `Hello` (shown by its `Assign` to the target),
/// so the target is always a ready replica target when it arrives.
#[test]
fn replicate_forwards_the_computing_workers_bytes() {
    let base = std::env::temp_dir().join(format!("bdb-elastic-fwd-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(2).collect();
    let tasks = fleet_tasks(
        &workloads,
        Scale::tiny(),
        &machine(),
        &NodeConfig::default(),
    );
    let engine = Engine::serial();
    let [(fingerprint, record), (other_key, other_record)] =
        [&tasks[0], &tasks[1]].map(|t| engine.run_task_entry(t).expect("catalog task runs"));
    let payload = bdb_codec::decode_record_of(bdb_codec::RecordKind::CacheEntry, &record)
        .expect("the engine's record is intact");
    let (_, value) = bdb_codec::decode_cache_payload(payload).expect("payload decodes");
    let Value::Object(mut pairs) = value else {
        panic!("a profile is an object");
    };
    pairs.reverse();
    let planted = bdb_codec::encode_record(
        bdb_codec::RecordKind::CacheEntry,
        &bdb_codec::encode_cache_payload(fingerprint, &Value::Object(pairs)),
    );
    assert_ne!(planted, record, "the planted entry is not canonical");
    assert_eq!(
        profile_to_value(&bdb_engine::decode_profile_entry(&planted, fingerprint).unwrap()),
        profile_to_value(&bdb_engine::decode_profile_entry(&record, fingerprint).unwrap()),
        "but holds the same profile"
    );

    let (holder_dir, target_dir) = (base.join("holder"), base.join("target"));
    Engine::new(EngineConfig::default().cache_dir(&holder_dir))
        .admit_entry(&tasks[0].workload_id, fingerprint, &planted)
        .expect("the planted entry is admitted");
    Engine::new(EngineConfig::default().cache_dir(&target_dir))
        .admit_entry(&tasks[1].workload_id, other_key, &other_record)
        .expect("the target's own entry is admitted");
    let holder = Arc::new(Engine::new(EngineConfig::default().cache_dir(&holder_dir)));
    let target = Arc::new(Engine::new(EngineConfig::default().cache_dir(&target_dir)));
    let (holder_end, holder_thread) =
        spawn_worker_with_engine("holder", Arc::clone(&holder), FaultPlan::default());
    let (target_end, target_thread) =
        spawn_worker_with_engine("target", Arc::clone(&target), FaultPlan::default());
    let gate = Arc::new(Gate::default());
    let workers: Vec<Arc<dyn Transport>> = vec![
        Arc::new(Gated {
            inner: holder_end,
            gate: Arc::clone(&gate),
            opener: false,
        }),
        Arc::new(Gated {
            inner: target_end,
            gate,
            opener: true,
        }),
    ];
    // The default tick gives the target a full second of quiet ticks
    // to say `Hello` before the holder may take the target's task.
    let replicated = ClusterConfig {
        replication: 1,
        ..ClusterConfig::default()
    };
    let profiles = Coordinator::new(replicated)
        .run_elastic(workers, closed_joins(), &tasks)
        .expect("the run converges");
    holder_thread.join().expect("holder exits cleanly");
    target_thread.join().expect("target exits cleanly");
    assert_eq!(
        canonical_bytes(&profiles),
        serial_baseline(&workloads, Scale::tiny())
    );
    assert_eq!(
        (holder.counters().computed, target.counters().computed),
        (0, 0),
        "both workers answered warm"
    );
    assert_eq!(target.counters().replicas_admitted, 1);
    let replica = target
        .cache_file(
            &workloads[0],
            Scale::tiny(),
            &machine(),
            &NodeConfig::default(),
        )
        .expect("the target has a cache dir");
    assert!(
        std::fs::read(&replica).unwrap() == planted,
        "the target holds the holder's bytes, not a re-encoding"
    );
    let _ = std::fs::remove_dir_all(&base);
}

/// `Replicate` frames carry a cache-entry record and must round-trip
/// byte-stably through the wire codec like every other message, with
/// the record carried verbatim.
#[test]
fn replicate_frames_roundtrip_byte_stably() {
    use bdb_cluster::wire::{decode_frames, encode_frame};

    let (task, record) = tiny_entry();
    let msg = Message::Replicate {
        workload_id: task.workload_id.clone(),
        fingerprint: task.fingerprint(),
        record: record.clone(),
    };
    let frame = encode_frame(&msg);
    let decoded = decode_frames(&frame).expect("replicate frame decodes");
    assert_eq!(decoded.len(), 1);
    assert_eq!(
        encode_frame(&decoded[0]),
        frame,
        "re-encoding is the identity on replicate frames"
    );
    match &decoded[0] {
        Message::Replicate {
            record: carried, ..
        } => assert!(*carried == record, "the record crosses the wire verbatim"),
        other => panic!("decoded {other:?}"),
    }
}

/// One tiny-scale task and its cache-entry record, as the engine
/// builds it.
fn tiny_entry() -> (bdb_engine::Task, Vec<u8>) {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(1).collect();
    let task = fleet_tasks(
        &workloads,
        Scale::tiny(),
        &machine(),
        &NodeConfig::default(),
    )
    .remove(0);
    let (fingerprint, record) = Engine::serial()
        .run_task_entry(&task)
        .expect("catalog task runs");
    assert_eq!(fingerprint, task.fingerprint());
    (task, record)
}

/// A worker writes a pushed replica only if its record is intact and
/// keyed under the fingerprint it is pushed as: a record that fails its
/// CRC, or that names another fingerprint, is refused and counted, and
/// nothing is written for it.
#[test]
fn replicate_refuses_damaged_or_misaddressed_records() {
    let dir = std::env::temp_dir().join(format!("bdb-elastic-refuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (task, record) = tiny_entry();
    let fingerprint = task.fingerprint();
    let engine = Arc::new(Engine::new(EngineConfig::default().cache_dir(&dir)));
    let (coord, handle) =
        spawn_worker_with_engine("refuse", Arc::clone(&engine), FaultPlan::default());
    assert!(matches!(coord.recv(), Ok(Message::Hello { .. })));
    let mut damaged = record.clone();
    let mid = damaged.len() / 2;
    damaged[mid] ^= 0x04;
    let replicate = |fingerprint: u64, record: &[u8]| Message::Replicate {
        workload_id: task.workload_id.clone(),
        fingerprint,
        record: record.to_vec(),
    };
    coord.send(&replicate(fingerprint, &damaged)).unwrap();
    coord.send(&replicate(fingerprint ^ 1, &record)).unwrap();
    coord.send(&Message::Bye).unwrap();
    handle.join().expect("worker thread exits cleanly");
    let counters = engine.counters();
    assert_eq!(
        (counters.replicas_refused, counters.replicas_admitted),
        (2, 0)
    );
    let written = std::fs::read_dir(&dir).map_or(0, |entries| entries.count());
    assert_eq!(written, 0, "a refused replica writes nothing");

    // The intact record under its own fingerprint is admitted verbatim.
    let engine = Arc::new(Engine::new(EngineConfig::default().cache_dir(&dir)));
    let (coord, handle) =
        spawn_worker_with_engine("admit", Arc::clone(&engine), FaultPlan::default());
    assert!(matches!(coord.recv(), Ok(Message::Hello { .. })));
    coord.send(&replicate(fingerprint, &record)).unwrap();
    coord.send(&Message::Bye).unwrap();
    handle.join().expect("worker thread exits cleanly");
    assert_eq!(engine.counters().replicas_admitted, 1);
    let files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(files.len(), 1);
    assert!(
        std::fs::read(&files[0]).unwrap() == record,
        "admitted byte for byte"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
