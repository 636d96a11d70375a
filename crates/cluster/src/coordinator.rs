//! The coordinator: shard a task batch across an elastic worker fleet
//! and merge results bit-identically to a serial run.
//!
//! # Scheduling
//!
//! All membership and scheduling decisions live in the pure
//! [`crate::fleet::Fleet`] state machine; a sans-IO core turns events
//! into fleet calls and the sends they prescribe, and
//! [`Coordinator::run_elastic`] drives it from transports. Tasks are
//! first split into contiguous static chunks, one per initial worker
//! (good locality for per-worker disk caches). When a worker drains its
//! own chunk it *steals* from the back of the longest surviving plan —
//! pull-based dynamic balancing without any shared queue contention.
//! Failed or orphaned tasks enter a retry queue with capped exponential
//! backoff, dispatched oldest-first once their backoff expires.
//!
//! # Elastic membership
//!
//! [`Coordinator::run_elastic`], the one entry point, accepts transports
//! on a channel *while the run is in progress*, drained with `try_recv`
//! each turn: while the fleet is quiet a join waits at most one tick.
//! A joining worker `Hello`s into the fleet and immediately becomes
//! eligible for retries and stealing. A worker that sends a clean `Bye`
//! mid-run has its in-flight work re-queued without being charged a
//! failed attempt; an abrupt death (EOF, deadline expiry, heartbeat
//! silence) charges one. Either way the merged output is unchanged —
//! see *Bit-identity*.
//!
//! # Admission control
//!
//! The fleet defers assignment to any worker with an unanswered
//! heartbeat probe outstanding, and unheld work to any worker at its
//! in-flight depth cap ([`ClusterConfig::max_inflight`]) — backpressure
//! against slow or suspect machines, denominated in ticks, never wall
//! clock. The default depth of 2 keeps each worker's next `Assign`
//! queued behind the task it is answering, so a worker does not idle
//! while the coordinator merges its last result; each result restarts
//! the deadline of the tasks queued behind it (see [`crate::fleet`]).
//! Tasks a worker holds in its cache skip the cap, so a warm round is a
//! burst: each dispatch gathers a worker's assignments and sends them
//! with one [`Transport::send_all`], one write on TCP. If that send
//! fails, the whole batch rolls back without a charged attempt and the
//! worker is declared dead.
//!
//! # Assignments
//!
//! An `Assign` is a key — workload id and content fingerprint — and a
//! config record. The coordinator fingerprints every task once for the
//! fleet and encodes each distinct config once per run; every `Assign`
//! of that config shares the bytes. A warm worker answers from its
//! cache by key without reading the config.
//!
//! # Replication
//!
//! With [`ClusterConfig::replication`] > 0, every verified result is
//! pushed to that many ring-successor workers as a `Replicate` message;
//! each admits it into its local cache exactly as if it had computed it
//! (CRC-64 envelope, tmp+rename, quarantine-on-corruption per replica).
//! After losing any single machine, a restarted fleet finds every
//! surviving entry on some worker's disk and — because assignment
//! prefers the holder — recomputes nothing.
//!
//! # Liveness and time
//!
//! The scheduler owns no wall clock (the determinism lint bans
//! `Instant`/`SystemTime` in this crate). The driver owns the clock: a
//! tick elapses each time its `recv_timeout` expires with no traffic,
//! so ticks advance only while the fleet is quiet — exactly when
//! deadlines and heartbeats matter. The core counts ticks: per-task
//! deadlines, heartbeat probing of idle workers, the `Hello` deadline of
//! a worker that connected but has not said `Hello` (past it, the worker
//! misses a probe each period and dies like a silent idle one), and
//! retry backoff.
//!
//! # Bit-identity
//!
//! The merged output is ordered by task index, not completion order, so
//! worker count, stealing, retries, joins, leaves, and duplicate
//! deliveries cannot reorder it. Duplicate `Result` frames are
//! deduplicated by task index (first verified result wins), and every
//! result's content fingerprint is checked against the coordinator's
//! locally computed expectation — a mismatched worker is treated as
//! faulty and its work re-run.

mod run;

use crate::fleet::FleetError;
use crate::transport::Transport;
use bdb_engine::Task;
use bdb_wcrt::WorkloadProfile;
use run::{Command, Event, Run};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::Duration;

/// Tunables for one coordinator run. Times are in scheduler ticks; see
/// the module docs for tick semantics.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Event-loop poll interval — the real-time length of one tick.
    pub tick: Duration,
    /// Quiet ticks before an in-flight task's worker is declared slow
    /// and the task reassigned.
    pub task_deadline_ticks: u64,
    /// Probe idle workers with a heartbeat every this many ticks.
    pub heartbeat_every_ticks: u64,
    /// Unanswered probes before an idle worker is declared dead.
    pub heartbeat_miss_limit: u32,
    /// Failures of one task before the whole run aborts.
    pub max_attempts: u32,
    /// Retry backoff after the first failure, in ticks (doubles per
    /// failure).
    pub backoff_base_ticks: u64,
    /// Upper bound on the retry backoff, in ticks.
    pub backoff_cap_ticks: u64,
    /// Admission control: per-worker in-flight depth cap on the tasks a
    /// worker does not hold in its cache (values below 1 behave as 1).
    /// The default of 2 queues each worker's next task behind the one it
    /// is computing. Held tasks from its own plan or the retry queue
    /// skip the cap.
    pub max_inflight: usize,
    /// Peer workers each verified result is replicated to (`0` disables
    /// the replicated result tier). Env knob: `BDB_REPLICATION`.
    pub replication: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            tick: Duration::from_millis(50),
            task_deadline_ticks: 600,
            heartbeat_every_ticks: 20,
            heartbeat_miss_limit: 3,
            max_attempts: 5,
            backoff_base_ticks: 2,
            backoff_cap_ticks: 64,
            max_inflight: 2,
            replication: 0,
        }
    }
}

impl ClusterConfig {
    /// Defaults overridden from the environment: `BDB_REPLICATION`, the
    /// replica count per verified result.
    pub fn from_env() -> Self {
        ClusterConfig {
            replication: replication(std::env::var("BDB_REPLICATION").ok().as_deref()),
            ..ClusterConfig::default()
        }
    }
}

/// A `BDB_REPLICATION` value, trimmed and parsed; 0 if unset or invalid.
fn replication(raw: Option<&str>) -> usize {
    raw.and_then(|raw| raw.trim().parse().ok()).unwrap_or(0)
}

/// Why a distributed run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The run was started with an empty worker list and no joins.
    NoWorkers,
    /// Every worker died or was declared dead with tasks outstanding
    /// and no further joins possible.
    AllWorkersDead {
        /// Tasks still missing a verified result.
        remaining: usize,
    },
    /// One task failed [`ClusterConfig::max_attempts`] times.
    TaskExhausted {
        /// Index of the exhausted task in the submitted batch.
        task_id: usize,
        /// The last worker-reported error, if any.
        last_error: String,
    },
    /// A worker violated the protocol in a way retries cannot fix.
    Protocol(String),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::NoWorkers => write!(f, "no workers supplied"),
            ClusterError::AllWorkersDead { remaining } => {
                write!(f, "all workers dead with {remaining} tasks outstanding")
            }
            ClusterError::TaskExhausted {
                task_id,
                last_error,
            } => write!(f, "task #{task_id} exhausted retries: {last_error}"),
            ClusterError::Protocol(e) => write!(f, "protocol violation: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<FleetError> for ClusterError {
    fn from(e: FleetError) -> ClusterError {
        match e {
            FleetError::TaskExhausted { task, last_error } => ClusterError::TaskExhausted {
                task_id: task,
                last_error,
            },
        }
    }
}

/// Shards task batches across a worker fleet. See the module docs.
pub struct Coordinator {
    config: ClusterConfig,
}

impl Coordinator {
    /// A coordinator with the given tunables.
    pub fn new(config: ClusterConfig) -> Self {
        Coordinator { config }
    }

    /// Runs `tasks` across `workers` and every worker that arrives on
    /// `joins`, and returns profiles in task order, byte-identical to a
    /// local [`bdb_engine::Engine`] run of the same tasks under any
    /// join/leave schedule. Fixed membership is a `joins` whose sender
    /// is already dropped ([`ClusterError::NoWorkers`] if `workers` is
    /// empty). While `joins` is open, a fleet with no live workers
    /// *waits* for capacity instead of failing — drop the sender to make
    /// [`ClusterError::AllWorkersDead`] reachable again.
    pub fn run_elastic(
        &self,
        mut workers: Vec<Arc<dyn Transport>>,
        joins: Receiver<Arc<dyn Transport>>,
        tasks: &[Task],
    ) -> Result<Vec<WorkloadProfile>, ClusterError> {
        let (tx, rx) = channel();
        for (idx, transport) in workers.iter().enumerate() {
            spawn_reader(idx, Arc::clone(transport), tx.clone());
        }
        let mut run = Run::new(workers.len(), tasks, self.config.clone());
        let mut joins = Some(joins);
        let mut failed = Vec::new();
        loop {
            // Failed sends first, then waiting joins, then traffic.
            let commands = if !failed.is_empty() {
                run.on_event(Event::SendsFailed(std::mem::take(&mut failed)))
            } else {
                match joins.as_ref().map(Receiver::try_recv) {
                    Some(Ok(transport)) => {
                        spawn_reader(workers.len(), Arc::clone(&transport), tx.clone());
                        workers.push(transport);
                        run.on_event(Event::Joined)
                    }
                    Some(Err(TryRecvError::Disconnected)) => {
                        joins = None;
                        run.close_joins()
                    }
                    Some(Err(TryRecvError::Empty)) | None => {
                        // `tx` outlives the loop: the only error is a tick.
                        run.on_event(rx.recv_timeout(self.config.tick).unwrap_or(Event::Tick))
                    }
                }
            };
            for command in commands {
                match command {
                    Command::Send(idx, msgs) => {
                        if workers.get(idx).is_none_or(|t| t.send_all(&msgs).is_err()) {
                            failed.push((idx, msgs));
                        }
                    }
                    Command::Done => return run.finish(),
                }
            }
        }
    }
}

fn spawn_reader(idx: usize, transport: Arc<dyn Transport>, tx: Sender<Event>) {
    std::thread::spawn(move || {
        while let Ok(msg) = transport.recv() {
            if tx.send(Event::Msg(idx, Box::new(msg))).is_err() {
                return;
            }
        }
        let _ = tx.send(Event::Closed(idx));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_worker_list_is_an_error() {
        let coordinator = Coordinator::new(ClusterConfig::default());
        let (_, joins) = channel();
        assert!(matches!(
            coordinator.run_elastic(Vec::new(), joins, &[]),
            Err(ClusterError::NoWorkers)
        ));
    }

    #[test]
    fn replication_parses_the_trimmed_value_and_defaults_to_zero() {
        assert_eq!(replication(None), 0);
        assert_eq!(replication(Some("3")), 3);
        assert_eq!(replication(Some(" 2 ")), 2);
        assert_eq!(replication(Some("x")), 0);
    }

    #[test]
    fn fleet_error_converts_to_cluster_error() {
        let e: ClusterError = FleetError::TaskExhausted {
            task: 3,
            last_error: "boom".to_owned(),
        }
        .into();
        assert_eq!(
            e,
            ClusterError::TaskExhausted {
                task_id: 3,
                last_error: "boom".to_owned(),
            }
        );
    }
}
