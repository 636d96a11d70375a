//! The worker loop: execute assigned tasks with a local [`Engine`].
//!
//! A worker is single-threaded and blocking: it introduces itself with
//! `Hello`, then serves `Assign` / `Heartbeat` until `Bye` or the
//! coordinator disconnects. Each task runs through the local engine's
//! cache-aware [`Engine::run_task_entry`], so repeated fleet runs hit
//! the worker's own `results/cache/` exactly as local runs do. While a
//! task is computing the worker cannot echo heartbeats — the
//! coordinator covers that window with per-task deadlines instead.
//!
//! A successful answer is the task's BDBC `CacheEntry` record as it
//! sits on disk, sent as [`Message::ResultEntry`] behind a small header
//! record (protocol v3, see [`crate::wire`]). The worker checks only
//! the record's container, CRC-64 and fingerprint; it decodes no
//! profile and encodes none, and the coordinator decodes the record
//! once. An intact record whose profile does not decode is refused by
//! the coordinator, which retries the task: a task the worker has
//! already answered this session therefore takes the full
//! [`Engine::run_task`] path, which decodes the entry, quarantines it
//! if it does not decode and recomputes it.
//!
//! `Hello` advertises the content fingerprints already in the engine's
//! disk cache, so an elastic coordinator can route matching tasks here
//! (warm restarts recompute nothing). `Replicate` pushes carry the
//! computing worker's entry record; [`Engine::admit_entry`] writes it
//! byte for byte after the same container, CRC-64 and fingerprint check
//! (same tmp+rename write, same quarantine on a corrupt read), and
//! refuses and counts one that fails.

use crate::fault::FaultPlan;
use crate::proto::{Message, PROTOCOL_VERSION};
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
    loop {
        let msg = match transport.recv() {
            Ok(msg) => msg,
            // Coordinator gone between tasks: treat as session end.
            Err(TransportError::Closed) => return Ok(served),
            Err(e) => return Err(e.into()),
        };
        match msg {
            Message::Assign { task_id, task } => {
                if config.faults.crash_on_task == Some(accepted) {
                    return Err(WorkerError::InjectedCrash {
                        task_number: accepted,
                    });
                }
                if config.faults.bye_on_task == Some(accepted) {
                    // Voluntary departure: the orphaned Assign re-queues
                    // on the coordinator without a charged attempt.
                    transport.send(&Message::Bye)?;
                    return Ok(served);
                }
                if config.faults.stall_on_task == Some(accepted) {
                    // Hang without Bye or a reply; only the
                    // coordinator's per-task deadline recovers the task.
                    loop {
                        std::thread::park();
                    }
                }
                accepted += 1;
                // A first answer ships the entry's bytes; a repeat means
                // the coordinator refused or lost the first, so verify
                // in full this time.
                let reply = if answered.insert(task_id) {
                    engine
                        .run_task_entry(&task)
                        .map(|(fingerprint, record)| Message::ResultEntry {
                            task_id,
                            fingerprint,
                            record,
                        })
                } else {
                    engine.run_task(&task).map(|result| Message::Result {
                        task_id,
                        fingerprint: result.fingerprint,
                        outcome: Ok(Box::new(result.profile)),
                    })
                };
                match reply {
                    Ok(reply) => {
                        served += 1;
                        transport.send(&reply)?;
                    }
                    Err(e) => transport.send(&Message::Result {
                        task_id,
                        fingerprint: task.fingerprint(),
                        outcome: Err(e.to_string()),
                    })?,
                }
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
            Message::Heartbeat { seq } => transport.send(&Message::Heartbeat { seq })?,
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair;
    use bdb_engine::Task;
    use bdb_node::NodeConfig;
    use bdb_sim::MachineConfig;
    use bdb_workloads::{catalog, Scale};

    fn sample_task() -> Task {
        let workload = &catalog::full_catalog()[0];
        Task::new(
            workload,
            Scale::tiny(),
            &MachineConfig::xeon_e5645(),
            &NodeConfig::default(),
        )
    }

    #[test]
    fn worker_serves_assign_heartbeat_bye() {
        let (coord, worker_end) = loopback_pair("serve");
        let handle = std::thread::spawn(move || {
            let engine = Engine::in_memory();
            run_worker(&worker_end, &engine, &WorkerConfig::named("w0"))
        });
        assert!(matches!(coord.recv(), Ok(Message::Hello { .. })));
        coord.send(&Message::Heartbeat { seq: 9 }).unwrap();
        assert!(matches!(coord.recv(), Ok(Message::Heartbeat { seq: 9 })));
        coord
            .send(&Message::Assign {
                task_id: 0,
                task: Box::new(sample_task()),
            })
            .unwrap();
        match coord.recv().unwrap() {
            Message::Result {
                task_id, outcome, ..
            } => {
                assert_eq!(task_id, 0);
                assert!(outcome.is_ok());
            }
            other => panic!("expected result, got {other:?}"),
        }
        coord.send(&Message::Bye).unwrap();
        assert_eq!(handle.join().unwrap().unwrap(), 1);
    }

    #[test]
    fn injected_crash_fires_on_requested_task() {
        let (coord, worker_end) = loopback_pair("crash");
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
        coord
            .send(&Message::Assign {
                task_id: 0,
                task: Box::new(sample_task()),
            })
            .unwrap();
        assert!(matches!(
            handle.join().unwrap(),
            Err(WorkerError::InjectedCrash { task_number: 0 })
        ));
    }
}
