//! The worker loop: execute assigned tasks with a local [`Engine`].
//!
//! A worker is single-threaded and blocking: it introduces itself with
//! `Hello`, then serves `Assign` / `Heartbeat` until `Bye` or the
//! coordinator disconnects. The coordinator keeps up to two unheld
//! `Assign`s queued per worker, and every task the worker holds in its
//! cache, so the next task is waiting when one is answered. While the
//! next `Assign` is already buffered ([`Transport::has_buffered_frame`])
//! and the cache answers by key, the worker holds its replies back; it
//! sends them in order with one [`Transport::send_all`] before it would
//! wait on the coordinator, before a cache miss starts computing, and
//! before any other reply. A warm round is then a burst each way, not a
//! ping-pong of one frame per write.
//! Each task runs through the local engine's caches, so repeated fleet
//! runs hit the worker's own `results/cache/` exactly as local runs do.
//! While a task is computing the worker cannot echo heartbeats — the
//! coordinator covers that window with per-task deadlines instead.
//!
//! An `Assign` leads with its key: the workload id and the task's
//! content fingerprint (protocol v4, see [`crate::proto`]). A first
//! answer looks the key up with [`Engine::cached_entry`]; on a hit the
//! worker ships the task's BDBC `CacheEntry` record as it sits on disk,
//! sent as [`Message::ResultEntry`] behind a small header record, after
//! checking only the record's container, CRC-64 and fingerprint. It
//! decodes no config and no profile, encodes none and fingerprints
//! nothing; the coordinator decodes the record once.
//!
//! Otherwise the worker decodes the `Assign`'s config record, rebuilds
//! the task and requires its fingerprint to equal the key; a record
//! that does not decode or a task that hashes to another key is a failed
//! `Result`, which the coordinator retries. A first answer then takes
//! [`Engine::run_task_entry`]. An intact entry whose profile does not
//! decode is refused by the coordinator, which retries the task: a task
//! the worker has already answered this session therefore takes the
//! full [`Engine::run_task`] path, which decodes the entry, quarantines
//! it if it does not decode and recomputes it.
//!
//! `Hello` advertises the content fingerprints already in the engine's
//! disk cache, so an elastic coordinator can route matching tasks here
//! (warm restarts recompute nothing). `Replicate` pushes carry the
//! computing worker's entry record; [`Engine::admit_entry`] writes it
//! byte for byte after the same container, CRC-64 and fingerprint check
//! (same tmp+rename write, same quarantine on a corrupt read), and
//! refuses and counts one that fails.

use crate::fault::FaultPlan;
use crate::proto::{task_from_config_record, Message, PROTOCOL_VERSION};
use crate::transport::{Transport, TransportError};
use bdb_engine::Engine;
use std::collections::BTreeSet;

/// Per-session worker settings.
#[derive(Debug, Clone, Default)]
pub struct WorkerConfig {
    /// Name sent in `Hello` (diagnostics only).
    pub name: String,
    /// Injected misbehaviour for testing; [`FaultPlan::default`] is
    /// fault-free.
    pub faults: FaultPlan,
}

impl WorkerConfig {
    /// A fault-free config with the given name.
    pub fn named(name: &str) -> Self {
        WorkerConfig {
            name: name.to_owned(),
            ..WorkerConfig::default()
        }
    }
}

/// Why a worker session ended abnormally.
#[derive(Debug)]
pub enum WorkerError {
    /// The transport failed mid-session.
    Transport(TransportError),
    /// The session's [`FaultPlan::crash_on_task`] fired; a worker binary
    /// maps this to a hard process exit.
    InjectedCrash {
        /// The 0-based accepted-task count at which the crash fired.
        task_number: u64,
    },
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Transport(e) => write!(f, "worker transport failed: {e}"),
            WorkerError::InjectedCrash { task_number } => {
                write!(f, "injected crash on task #{task_number}")
            }
        }
    }
}

impl std::error::Error for WorkerError {}

impl From<TransportError> for WorkerError {
    fn from(e: TransportError) -> Self {
        WorkerError::Transport(e)
    }
}

/// Serves one coordinator session over `transport`. Returns `Ok(served)`
/// — the number of tasks completed — after `Bye` or a clean disconnect.
pub fn run_worker(
    transport: &dyn Transport,
    engine: &Engine,
    config: &WorkerConfig,
) -> Result<u64, WorkerError> {
    transport.send(&Message::Hello {
        worker: config.name.clone(),
        protocol: PROTOCOL_VERSION,
        cached: engine.cached_fingerprints(),
    })?;
    let mut accepted: u64 = 0;
    let mut served: u64 = 0;
    // Task ids answered this session. Within a session a task id names
    // one fingerprint, so this is the set of fingerprints answered,
    // without fingerprinting each task twice.
    let mut answered = BTreeSet::new();
    // Replies held back while the next `Assign` is already buffered; they
    // go out together, in order, before the worker would wait on the
    // coordinator.
    let mut held = Vec::new();
    loop {
        if !transport.has_buffered_frame() {
            flush(transport, &mut held)?;
        }
        let msg = match transport.recv() {
            Ok(msg) => msg,
            // Coordinator gone between tasks: treat as session end.
            Err(TransportError::Closed) => return Ok(served),
            Err(e) => return Err(e.into()),
        };
        match msg {
            Message::Assign {
                task_id,
                workload_id,
                fingerprint,
                config: record,
            } => {
                let faults = &config.faults;
                let fault_tasks = [
                    faults.crash_on_task,
                    faults.bye_on_task,
                    faults.stall_on_task,
                ];
                if fault_tasks.contains(&Some(accepted)) {
                    // The fault ends this worker's answers: the ones it
                    // has go out first.
                    flush(transport, &mut held)?;
                }
                if faults.crash_on_task == Some(accepted) {
                    return Err(WorkerError::InjectedCrash {
                        task_number: accepted,
                    });
                }
                if faults.bye_on_task == Some(accepted) {
                    // Voluntary departure: the orphaned Assign re-queues
                    // on the coordinator without a charged attempt.
                    transport.send(&Message::Bye)?;
                    return Ok(served);
                }
                if faults.stall_on_task == Some(accepted) {
                    // Hang without Bye or a reply; only the
                    // coordinator's per-task deadline recovers the task.
                    loop {
                        std::thread::park();
                    }
                }
                accepted += 1;
                let first = answered.insert(task_id);
                // A first answer tries the cache by key before anything
                // else and ships the entry's bytes.
                let hit = first
                    .then(|| engine.cached_entry(&workload_id, fingerprint))
                    .flatten();
                let outcome = match hit {
                    Some(entry) => Ok(Message::ResultEntry {
                        task_id,
                        fingerprint,
                        record: entry,
                    }),
                    None => {
                        // A miss may compute for a long time: the replies
                        // held so far go out first, so the coordinator
                        // merges them and restarts the deadlines of the
                        // tasks still queued here.
                        flush(transport, &mut held)?;
                        answer(engine, first, task_id, &workload_id, fingerprint, &record)
                    }
                };
                held.push(match outcome {
                    Ok(reply) => {
                        served += 1;
                        reply
                    }
                    Err(error) => Message::Result {
                        task_id,
                        fingerprint,
                        outcome: Err(error),
                    },
                });
            }
            Message::Replicate {
                workload_id,
                fingerprint,
                record,
            } => {
                // Replica push: admit into the local cache exactly like
                // a computed result, or refuse (and count) a record that
                // fails its check. No reply — the coordinator treats a
                // failed send, not a missing ack, as target death.
                let _ = engine.admit_entry(&workload_id, fingerprint, &record);
            }
            Message::Heartbeat { seq } => {
                held.push(Message::Heartbeat { seq });
                flush(transport, &mut held)?;
            }
            // A coordinator says `Bye` only once its run is over, so
            // replies still held answer nothing it waits for.
            Message::Bye => return Ok(served),
            // A coordinator never sends Hello/Result; strict protocol.
            other => {
                return Err(WorkerError::Transport(TransportError::Protocol(format!(
                    "unexpected message from coordinator: {other:?}"
                ))))
            }
        }
    }
}

/// Sends the held replies, if any, in one [`Transport::send_all`].
fn flush(transport: &dyn Transport, held: &mut Vec<Message>) -> Result<(), TransportError> {
    if !held.is_empty() {
        transport.send_all(held)?;
        held.clear();
    }
    Ok(())
}

/// Answers one `Assign` the cache did not answer by key, or says why it
/// cannot (a failed `Result`). A repeat (`!first`) means the coordinator
/// refused or lost the first answer, so it verifies in full this time.
fn answer(
    engine: &Engine,
    first: bool,
    task_id: u64,
    workload_id: &str,
    fingerprint: u64,
    config: &[u8],
) -> Result<Message, String> {
    let task = task_from_config_record(workload_id, config).map_err(|e| e.to_string())?;
    let rebuilt = task.fingerprint();
    if rebuilt != fingerprint {
        return Err(format!(
            "config hashes to {rebuilt:016x}, not the assigned key {fingerprint:016x}"
        ));
    }
    if first {
        let (_, record) = engine.run_task_entry(&task).map_err(|e| e.to_string())?;
        Ok(Message::ResultEntry {
            task_id,
            fingerprint,
            record,
        })
    } else {
        let result = engine.run_task(&task).map_err(|e| e.to_string())?;
        Ok(Message::Result {
            task_id,
            fingerprint,
            outcome: Ok(Box::new(result.profile)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::config_record;
    use crate::transport::loopback_pair;
    use bdb_engine::{EngineConfig, Task};
    use bdb_node::NodeConfig;
    use bdb_sim::MachineConfig;
    use bdb_workloads::{catalog, Scale};
    use std::sync::Arc;

    fn sample_task() -> Task {
        let workload = &catalog::full_catalog()[0];
        Task::new(
            workload,
            Scale::tiny(),
            &MachineConfig::xeon_e5645(),
            &NodeConfig::default(),
        )
    }

    /// The `Assign` for `task`, with `config` as its config record.
    fn assign_with(task_id: u64, task: &Task, config: Vec<u8>) -> Message {
        Message::Assign {
            task_id,
            workload_id: task.workload_id.clone(),
            fingerprint: task.fingerprint(),
            config: Arc::from(config),
        }
    }

    fn assign(task_id: u64, task: &Task) -> Message {
        assign_with(task_id, task, config_record(task))
    }

    /// Serves `engine` on a loopback pair; returns the coordinator end
    /// with the worker's `Hello` already received.
    fn serve(
        engine: Engine,
    ) -> (
        crate::transport::LoopbackTransport,
        std::thread::JoinHandle<Result<u64, WorkerError>>,
    ) {
        let (coord, worker_end) = loopback_pair();
        let handle =
            std::thread::spawn(move || run_worker(&worker_end, &engine, &WorkerConfig::named("w")));
        assert!(matches!(coord.recv(), Ok(Message::Hello { .. })));
        (coord, handle)
    }

    /// The outcome of the next message, which must be `task_id`'s
    /// result: a verified success or a failure.
    fn outcome(
        coord: &crate::transport::LoopbackTransport,
        task_id: u64,
    ) -> Result<Box<bdb_wcrt::WorkloadProfile>, String> {
        let (answered, outcome) = match coord.recv().unwrap() {
            Message::Verified {
                task_id, profile, ..
            } => (task_id, Ok(profile)),
            Message::Result {
                task_id,
                outcome: Err(error),
                ..
            } => (task_id, Err(error)),
            other => panic!("expected result, got {other:?}"),
        };
        assert_eq!(answered, task_id);
        outcome
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bdb-worker-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn worker_serves_assign_heartbeat_bye() {
        let (coord, handle) = serve(Engine::in_memory());
        coord.send(&Message::Heartbeat { seq: 9 }).unwrap();
        assert!(matches!(coord.recv(), Ok(Message::Heartbeat { seq: 9 })));
        coord.send(&assign(0, &sample_task())).unwrap();
        assert!(outcome(&coord, 0).is_ok());
        coord.send(&Message::Bye).unwrap();
        assert_eq!(handle.join().unwrap().unwrap(), 1);
    }

    /// A warm hit is a key lookup: the worker never reads the config
    /// record, so garbage there still gets the cached entry. Neither the
    /// config decoder nor `Task::fingerprint` can have run, since no
    /// task can be built from these bytes.
    #[test]
    fn warm_worker_answers_by_key_without_reading_the_config() {
        let dir = scratch_dir("warm");
        let task = sample_task();
        let primer = Engine::new(EngineConfig::default().threads(1).cache_dir(&dir));
        let (_, record) = primer.run_task_entry(&task).unwrap();
        let (coord, handle) = serve(Engine::new(
            EngineConfig::default().threads(1).cache_dir(&dir),
        ));
        coord
            .send(&assign_with(4, &task, b"garbage".to_vec()))
            .unwrap();
        let profile = outcome(&coord, 4).expect("the cached entry answers");
        assert_eq!(
            bdb_engine::profile_entry_record(task.fingerprint(), &profile),
            record
        );
        coord.send(&Message::Bye).unwrap();
        assert_eq!(handle.join().unwrap().unwrap(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cold_worker_refuses_a_garbage_config() {
        let (coord, handle) = serve(Engine::in_memory());
        coord
            .send(&assign_with(2, &sample_task(), b"garbage".to_vec()))
            .unwrap();
        let error = outcome(&coord, 2).unwrap_err();
        assert!(error.contains("config record"), "{error}");
        coord.send(&Message::Bye).unwrap();
        assert_eq!(handle.join().unwrap().unwrap(), 0);
    }

    #[test]
    fn config_hashing_to_another_key_is_refused() {
        let task = sample_task();
        let other = Task {
            scale: Scale::small(),
            ..task.clone()
        };
        let (coord, handle) = serve(Engine::in_memory());
        coord
            .send(&assign_with(1, &task, config_record(&other)))
            .unwrap();
        let error = outcome(&coord, 1).unwrap_err();
        assert!(error.contains("not the assigned key"), "{error}");
        coord.send(&Message::Bye).unwrap();
        assert_eq!(handle.join().unwrap().unwrap(), 0);
    }

    /// Assigns pipelined in one write are answered in order, one reply
    /// each, and a heartbeat behind them is answered after them.
    #[test]
    fn pipelined_assigns_get_one_reply_each_in_order() {
        use crate::tcp::TcpTransport;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let transport = TcpTransport::from_stream(stream, "coordinator").unwrap();
            run_worker(&transport, &Engine::in_memory(), &WorkerConfig::named("w"))
        });
        let coord = TcpTransport::connect(&addr, std::time::Duration::from_secs(5)).unwrap();
        assert!(matches!(coord.recv(), Ok(Message::Hello { .. })));
        let task = sample_task();
        let mut msgs: Vec<Message> = (0..6).map(|id| assign(id, &task)).collect();
        msgs.push(Message::Heartbeat { seq: 4 });
        coord.send_all(&msgs).unwrap();
        for id in 0..6 {
            match coord.recv().unwrap() {
                Message::Verified { task_id, .. } => assert_eq!(task_id, id),
                other => panic!("expected task {id}'s result, got {other:?}"),
            }
        }
        assert!(matches!(coord.recv(), Ok(Message::Heartbeat { seq: 4 })));
        coord.send(&Message::Bye).unwrap();
        assert_eq!(handle.join().unwrap().unwrap(), 6);
    }

    /// A worker end whose whole inbox is buffered from the start, and
    /// which logs each send as one write.
    struct Scripted {
        inbox: std::sync::Mutex<std::collections::VecDeque<Message>>,
        writes: std::sync::Mutex<Vec<Vec<Message>>>,
    }

    impl Transport for Scripted {
        fn send_frames(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
            let msgs = frames
                .iter()
                .map(|frame| crate::wire::decode_message(&frame[4..]).unwrap())
                .collect();
            self.writes.lock().unwrap().push(msgs);
            Ok(())
        }

        fn recv_frame(
            &self,
            _: Option<std::time::Duration>,
        ) -> Result<Option<Vec<u8>>, TransportError> {
            let next = self.inbox.lock().unwrap().pop_front();
            let msg = next.ok_or(TransportError::Closed)?;
            Ok(Some(crate::wire::encode_frame(&msg).split_off(4)))
        }

        fn has_buffered_frame(&self) -> bool {
            !self.inbox.lock().unwrap().is_empty()
        }
    }

    /// Cache hits are held while more is buffered; a miss sends what is
    /// held before it computes, and a heartbeat goes out behind the
    /// replies held before it, in the same write.
    #[test]
    fn held_replies_go_out_before_a_miss_computes_and_with_a_heartbeat() {
        let dir = scratch_dir("held");
        let hit = sample_task();
        let miss = Task::new(
            &catalog::full_catalog()[1],
            Scale::tiny(),
            &MachineConfig::xeon_e5645(),
            &NodeConfig::default(),
        );
        let engine = Engine::new(EngineConfig::default().threads(1).cache_dir(&dir));
        engine.run_task_entry(&hit).unwrap();
        let scripted = Scripted {
            inbox: std::sync::Mutex::new(
                [
                    assign(0, &hit),
                    assign(1, &hit),
                    assign(2, &miss),
                    assign(3, &hit),
                    Message::Heartbeat { seq: 8 },
                ]
                .into(),
            ),
            writes: std::sync::Mutex::new(Vec::new()),
        };
        assert_eq!(
            run_worker(&scripted, &engine, &WorkerConfig::named("w")).unwrap(),
            4
        );
        let writes: Vec<Vec<&'static str>> = scripted
            .writes
            .into_inner()
            .unwrap()
            .iter()
            .map(|write| {
                write
                    .iter()
                    .map(|msg| match msg {
                        Message::Hello { .. } => "hello",
                        Message::Verified { .. } => "result",
                        Message::Heartbeat { .. } => "heartbeat",
                        other => panic!("unexpected reply {other:?}"),
                    })
                    .collect()
            })
            .collect();
        assert_eq!(
            writes,
            [
                vec!["hello"],
                vec!["result", "result"],
                vec!["result", "result", "heartbeat"],
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crash_fires_on_requested_task() {
        let (coord, worker_end) = loopback_pair();
        let handle = std::thread::spawn(move || {
            let engine = Engine::in_memory();
            let config = WorkerConfig {
                name: "w0".to_owned(),
                faults: FaultPlan {
                    crash_on_task: Some(0),
                    ..FaultPlan::default()
                },
            };
            run_worker(&worker_end, &engine, &config)
        });
        assert!(matches!(coord.recv(), Ok(Message::Hello { .. })));
        coord.send(&assign(0, &sample_task())).unwrap();
        assert!(matches!(
            handle.join().unwrap(),
            Err(WorkerError::InjectedCrash { task_number: 0 })
        ));
    }
}
