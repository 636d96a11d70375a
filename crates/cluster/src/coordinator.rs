//! The coordinator: shard a task batch across an elastic worker fleet
//! and merge results bit-identically to a serial run.
//!
//! # Scheduling
//!
//! All membership and scheduling decisions live in the pure
//! [`crate::fleet::Fleet`] state machine; this module is the
//! transport glue around it. Tasks are first split into contiguous
//! static chunks, one per initial worker (good locality for per-worker
//! disk caches). When a worker drains its own chunk it *steals* from
//! the back of the longest surviving plan — pull-based dynamic
//! balancing without any shared queue contention. Failed or orphaned
//! tasks enter a retry queue with capped exponential backoff, dispatched
//! oldest-first once their backoff expires.
//!
//! # Elastic membership
//!
//! [`Coordinator::run_elastic`] additionally accepts transports on a
//! channel *while the run is in progress*: a joining worker `Hello`s
//! into the fleet and immediately becomes eligible for retries and
//! stealing. A worker that sends a clean `Bye` mid-run has its
//! in-flight work re-queued without being charged a failed attempt; an
//! abrupt death (EOF, deadline expiry, heartbeat silence) charges one.
//! Either way the merged output is unchanged — see *Bit-identity*.
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
//! `Instant`/`SystemTime` in this crate). Time is counted in *ticks*: a
//! tick elapses each time the event loop's `recv_timeout` expires with
//! no traffic, so ticks advance only while the fleet is quiet — exactly
//! when deadlines and heartbeats matter. Per-task deadlines, heartbeat
//! probing of idle workers, and retry backoff are all tick-denominated.
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

use crate::fleet::{Fleet, FleetError};
use crate::proto::{config_record, Message, PROTOCOL_VERSION};
use crate::transport::Transport;
use bdb_engine::Task;
use bdb_wcrt::WorkloadProfile;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
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
    /// Defaults overridden from the environment: `BDB_REPLICATION`
    /// (replica count per verified result; invalid values keep the
    /// default of 0).
    pub fn from_env() -> Self {
        let mut config = ClusterConfig::default();
        if let Ok(raw) = std::env::var("BDB_REPLICATION") {
            if let Ok(n) = raw.trim().parse() {
                config.replication = n;
            }
        }
        config
    }
}

/// Why a distributed run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// The run was started with an empty worker list.
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

enum Event {
    Msg(usize, Box<Message>),
    Closed(usize),
    /// A worker joined mid-run (elastic path).
    Join(Arc<dyn Transport>),
    /// The join channel closed: membership is final from here on.
    JoinsClosed,
}

struct Run<'a> {
    config: &'a ClusterConfig,
    workers: Vec<Arc<dyn Transport>>,
    tasks: &'a [Task],
    /// Each task's config record; tasks with one config share one.
    configs: Vec<Arc<[u8]>>,
    fleet: Fleet,
    results: Vec<Option<WorkloadProfile>>,
    /// Readers for joining workers are spawned onto this sender.
    tx: Sender<Event>,
    /// While true, an empty or fully-dead fleet waits for joins instead
    /// of failing with [`ClusterError::AllWorkersDead`].
    joins_open: bool,
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

    /// Runs `tasks` across `workers` and returns profiles in task order,
    /// byte-identical to what a local [`bdb_engine::Engine`] run of the
    /// same tasks would produce.
    pub fn run(
        &self,
        workers: Vec<Arc<dyn Transport>>,
        tasks: &[Task],
    ) -> Result<Vec<WorkloadProfile>, ClusterError> {
        if workers.is_empty() {
            return Err(ClusterError::NoWorkers);
        }
        self.run_with(workers, None, tasks)
    }

    /// The elastic entry point: starts with `workers` (possibly empty)
    /// and accepts additional worker transports on `joins` for as long
    /// as the channel stays open. A joining worker is eligible for
    /// retries and stealing the moment its `Hello` arrives; clean `Bye`
    /// and abrupt death mid-run both re-queue in-flight work (only the
    /// latter charges a failed attempt). While `joins` is open, a fleet
    /// with no live workers *waits* for capacity instead of failing —
    /// drop the sender to make [`ClusterError::AllWorkersDead`] reachable
    /// again. The merged output is byte-identical to a serial run under
    /// any join/leave schedule.
    pub fn run_elastic(
        &self,
        workers: Vec<Arc<dyn Transport>>,
        joins: Receiver<Arc<dyn Transport>>,
        tasks: &[Task],
    ) -> Result<Vec<WorkloadProfile>, ClusterError> {
        self.run_with(workers, Some(joins), tasks)
    }

    /// One event loop for both entry points; `joins: None` is fixed
    /// membership, with no join channel to watch.
    fn run_with(
        &self,
        workers: Vec<Arc<dyn Transport>>,
        joins: Option<Receiver<Arc<dyn Transport>>>,
        tasks: &[Task],
    ) -> Result<Vec<WorkloadProfile>, ClusterError> {
        if tasks.is_empty() {
            return Ok(Vec::new());
        }
        let (tx, rx) = channel();
        for (idx, transport) in workers.iter().enumerate() {
            spawn_reader(idx, Arc::clone(transport), tx.clone());
        }
        let joins_open = joins.is_some();
        if let Some(joins) = joins {
            spawn_join_feeder(joins, tx.clone());
        }
        let fingerprints: Vec<u64> = tasks.iter().map(Task::fingerprint).collect();
        let mut run = Run {
            config: &self.config,
            fleet: Fleet::new(workers.len(), fingerprints, self.config.clone()),
            workers,
            tasks,
            configs: config_records(tasks),
            results: tasks.iter().map(|_| None).collect(),
            tx,
            joins_open,
        };
        let outcome = run.event_loop(&rx);
        run.farewell();
        outcome?;
        let profiles: Vec<WorkloadProfile> = run.results.into_iter().flatten().collect();
        if profiles.len() == tasks.len() {
            Ok(profiles)
        } else {
            Err(ClusterError::Protocol(
                "merge incomplete after convergence".to_owned(),
            ))
        }
    }
}

impl Run<'_> {
    fn event_loop(&mut self, rx: &Receiver<Event>) -> Result<(), ClusterError> {
        loop {
            self.dispatch()?;
            // Every event and the dispatch after it conserve the task
            // set; test builds check it each time round.
            debug_assert_eq!(self.fleet.check_conservation(), Ok(()));
            if self.fleet.done() == self.tasks.len() {
                return Ok(());
            }
            if !self.joins_open && self.fleet.all_dead() {
                return Err(ClusterError::AllWorkersDead {
                    remaining: self.tasks.len() - self.fleet.done(),
                });
            }
            match rx.recv_timeout(self.config.tick) {
                Ok(Event::Msg(idx, msg)) => self.handle_msg(idx, *msg)?,
                Ok(Event::Closed(idx)) => self.fleet.death(idx)?,
                Ok(Event::Join(transport)) => {
                    let idx = self.fleet.join();
                    spawn_reader(idx, Arc::clone(&transport), self.tx.clone());
                    self.workers.push(transport);
                }
                Ok(Event::JoinsClosed) => self.joins_open = false,
                Err(RecvTimeoutError::Timeout) => self.on_tick()?,
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(ClusterError::AllWorkersDead {
                        remaining: self.tasks.len() - self.fleet.done(),
                    })
                }
            }
        }
    }

    /// Hands work to every worker that passes admission control: each
    /// worker's assignments go out together, in one send.
    fn dispatch(&mut self) -> Result<(), ClusterError> {
        for idx in 0..self.fleet.slot_count() {
            let mut batch = Vec::new();
            let mut msgs = Vec::new();
            while let Some(task) = self.fleet.next_assignment(idx) {
                let Some(msg) = self.assign_message(task) else {
                    // Unreachable while the fleet is built from these
                    // tasks' fingerprints, but if that invariant ever
                    // drifts the task must not be stranded in the slot's
                    // in-flight set.
                    debug_assert!(false, "fleet assigned out-of-range task {task}");
                    self.fleet.unassign(idx, task);
                    break;
                };
                batch.push(task);
                msgs.push(msg);
            }
            if msgs.is_empty() {
                continue;
            }
            let sent = self
                .workers
                .get(idx)
                .is_some_and(|t| t.send_all(&msgs).is_ok());
            if !sent {
                // Treat the whole batch as unseen: roll it back without
                // charging an attempt, then tombstone the slot.
                for task in batch {
                    self.fleet.unassign(idx, task);
                }
                self.fleet.death(idx)?;
            }
        }
        Ok(())
    }

    /// The `Assign` for `task`, or `None` if it is out of range.
    fn assign_message(&self, task: usize) -> Option<Message> {
        Some(Message::Assign {
            task_id: task as u64,
            workload_id: self.tasks.get(task)?.workload_id.clone(),
            fingerprint: self.fleet.fingerprint(task)?,
            config: Arc::clone(self.configs.get(task)?),
        })
    }

    fn transport_send(&self, idx: usize, msg: &Message) -> bool {
        self.workers.get(idx).is_some_and(|t| t.send(msg).is_ok())
    }

    fn handle_msg(&mut self, idx: usize, msg: Message) -> Result<(), ClusterError> {
        match msg {
            Message::Hello {
                worker,
                protocol,
                cached,
            } => {
                if protocol == PROTOCOL_VERSION {
                    self.fleet.hello(idx, &cached);
                } else {
                    // Version skew could silently break bit-identity;
                    // refuse this worker, keep the rest.
                    let _ = worker;
                    self.fleet.death(idx)?;
                }
                Ok(())
            }
            Message::Heartbeat { seq } => {
                self.fleet.heartbeat(idx, seq);
                Ok(())
            }
            Message::Verified {
                task_id,
                fingerprint,
                profile,
                record,
            } => self.handle_result(idx, task_id, fingerprint, Ok((profile, record))),
            Message::Result {
                task_id,
                fingerprint,
                outcome: Err(error),
            } => self.handle_result(idx, task_id, fingerprint, Err(error)),
            Message::Bye => {
                // A clean, voluntary departure: re-queue its work
                // without charging an attempt.
                self.fleet.leave(idx);
                Ok(())
            }
            other => {
                // Workers never send Assign/Replicate, and a decoded
                // success is always `Verified`; the connection is
                // unusable but the run can continue without it.
                let _ = other;
                self.fleet.death(idx)?;
                Ok(())
            }
        }
    }

    fn handle_result(
        &mut self,
        idx: usize,
        task_id: u64,
        fingerprint: u64,
        outcome: Result<(Box<WorkloadProfile>, Vec<u8>), String>,
    ) -> Result<(), ClusterError> {
        let Some(task) = usize::try_from(task_id)
            .ok()
            .filter(|&t| t < self.tasks.len())
        else {
            self.fleet.death(idx)?;
            return Ok(());
        };
        self.fleet.clear_inflight(idx, task);
        if self.fleet.is_completed(task) {
            // Duplicate or late delivery of an already-verified task.
            return Ok(());
        }
        if Some(fingerprint) != self.fleet.fingerprint(task) {
            // The worker computed something else than what we asked
            // for — its results cannot be trusted.
            self.fleet.death(idx)?;
            return Ok(self
                .fleet
                .record_failure(task, "content fingerprint mismatch".to_owned())?);
        }
        match outcome {
            Ok((profile, record)) => {
                self.replicate(idx, task, fingerprint, record)?;
                if let Some(slot) = self.results.get_mut(task) {
                    *slot = Some(*profile);
                }
                self.fleet.complete(task);
                Ok(())
            }
            Err(error) => Ok(self.fleet.record_failure(task, error)?),
        }
    }

    /// Pushes a verified result's entry record, the computing worker's
    /// bytes as they arrived, to its ring-successor replica targets. A
    /// failed push tombstones the target (the transport is gone); the
    /// result itself is already safe on the coordinator.
    fn replicate(
        &mut self,
        computer: usize,
        task: usize,
        fingerprint: u64,
        record: Vec<u8>,
    ) -> Result<(), ClusterError> {
        self.fleet.record_replica(computer, fingerprint);
        if self.config.replication == 0 {
            return Ok(());
        }
        let Some(workload_id) = self.tasks.get(task).map(|t| t.workload_id.clone()) else {
            return Ok(());
        };
        let targets = self.fleet.replica_targets(computer, fingerprint);
        if targets.is_empty() {
            return Ok(());
        }
        let msg = Message::Replicate {
            workload_id,
            fingerprint,
            record,
        };
        for target in targets {
            if self.transport_send(target, &msg) {
                self.fleet.record_replica(target, fingerprint);
            } else {
                self.fleet.death(target)?;
            }
        }
        Ok(())
    }

    /// A quiet tick elapsed: advance fleet time, expire deadlines, send
    /// the probes it prescribes.
    fn on_tick(&mut self) -> Result<(), ClusterError> {
        let out = self.fleet.tick();
        for idx in out.deaths {
            self.fleet.death(idx)?;
        }
        for (idx, seq) in out.probes {
            if !self.transport_send(idx, &Message::Heartbeat { seq }) {
                self.fleet.death(idx)?;
            }
        }
        Ok(())
    }

    /// Best-effort `Bye` to every surviving worker.
    fn farewell(&mut self) {
        for idx in 0..self.fleet.slot_count() {
            if self.fleet.is_alive(idx) {
                let _ = self.transport_send(idx, &Message::Bye);
            }
        }
    }
}

/// Each task's config record, encoded once per distinct config: tasks
/// with the same scale bits, machine and node share one buffer.
fn config_records(tasks: &[Task]) -> Vec<Arc<[u8]>> {
    let mut distinct: Vec<(&Task, Arc<[u8]>)> = Vec::new();
    tasks
        .iter()
        .map(|task| {
            let shared = distinct.iter().find(|(seen, _)| {
                seen.scale.factor().to_bits() == task.scale.factor().to_bits()
                    && seen.machine == task.machine
                    && seen.node == task.node
            });
            if let Some((_, record)) = shared {
                return Arc::clone(record);
            }
            let record: Arc<[u8]> = config_record(task).into();
            distinct.push((task, Arc::clone(&record)));
            record
        })
        .collect()
}

/// Bridges the join channel into the event loop, signalling when no
/// more joins can ever arrive.
fn spawn_join_feeder(joins: Receiver<Arc<dyn Transport>>, tx: Sender<Event>) {
    std::thread::spawn(move || {
        while let Ok(transport) = joins.recv() {
            if tx.send(Event::Join(transport)).is_err() {
                return;
            }
        }
        let _ = tx.send(Event::JoinsClosed);
    });
}

fn spawn_reader(idx: usize, transport: Arc<dyn Transport>, tx: Sender<Event>) {
    std::thread::spawn(move || loop {
        match transport.recv() {
            Ok(msg) => {
                if tx.send(Event::Msg(idx, Box::new(msg))).is_err() {
                    return;
                }
            }
            Err(_) => {
                let _ = tx.send(Event::Closed(idx));
                return;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_worker_list_is_an_error() {
        let coordinator = Coordinator::new(ClusterConfig::default());
        assert!(matches!(
            coordinator.run(Vec::new(), &[]),
            Err(ClusterError::NoWorkers)
        ));
    }

    #[test]
    fn replication_knob_reads_from_env() {
        // Sequential per-test processes would be cleaner, but tier-1
        // runs tests in-process: touch a unique var name instead of
        // mutating BDB_REPLICATION globally.
        assert_eq!(ClusterConfig::from_env().replication, 0);
    }

    #[test]
    fn tasks_with_one_config_share_one_record() {
        use bdb_node::NodeConfig;
        use bdb_sim::MachineConfig;
        use bdb_workloads::{catalog, Scale};
        let defs = catalog::full_catalog();
        let node = NodeConfig::default();
        let mut tasks = crate::fleet_tasks(
            &defs[..3],
            Scale::tiny(),
            &MachineConfig::xeon_e5645(),
            &node,
        );
        tasks.extend(crate::fleet_tasks(
            &defs[..2],
            Scale::tiny(),
            &MachineConfig::atom_d510(),
            &node,
        ));
        let records = config_records(&tasks);
        assert!(Arc::ptr_eq(&records[0], &records[2]));
        assert!(Arc::ptr_eq(&records[3], &records[4]));
        assert!(!Arc::ptr_eq(&records[0], &records[3]));
        for (task, record) in tasks.iter().zip(&records) {
            assert_eq!(record[..], config_record(task)[..]);
        }
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
