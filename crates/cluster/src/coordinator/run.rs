//! The coordinator's sans-IO core over the [`Fleet`]: it takes
//! [`Event`]s, answers with [`Command`]s, and owns no transport, channel,
//! thread or clock, so a test can replay any ordering of events on one
//! thread. [`super::Coordinator::run_elastic`] drives it.

use super::{ClusterConfig, ClusterError};
use crate::fleet::Fleet;
use crate::proto::{config_record, Message, PROTOCOL_VERSION};
use bdb_engine::{ConfigKey, Task};
use bdb_wcrt::WorkloadProfile;
use bdb_workloads::Scale;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One thing that happened to the run, as the driver saw it.
pub(crate) enum Event {
    /// A message from the worker in this slot.
    Msg(usize, Box<Message>),
    /// The worker's connection closed.
    Closed(usize),
    /// A worker joined; it takes the next slot.
    Joined,
    /// A tick elapsed with no traffic.
    Tick,
    /// These sends failed: each slot, with the messages it did not get.
    SendsFailed(Vec<(usize, Vec<Message>)>),
}

/// What the core asks its driver to do, in order.
pub(crate) enum Command {
    /// Send these messages to the worker in this slot, in one write. A
    /// failed send comes back as [`Event::SendsFailed`].
    Send(usize, Vec<Message>),
    /// The run is over; [`Run::finish`] returns its outcome.
    Done,
}

/// One run's state. See the module docs.
pub(crate) struct Run<'a> {
    tasks: &'a [Task],
    /// Each task's config record; tasks with one config share one.
    configs: Vec<Arc<[u8]>>,
    fleet: Fleet,
    results: Vec<Option<WorkloadProfile>>,
    /// While true, an empty or fully-dead fleet waits for joins instead
    /// of failing with [`ClusterError::AllWorkersDead`].
    joins_open: bool,
    /// Each slot's messages while an event is handled, sent in one write.
    outbox: BTreeMap<usize, Vec<Message>>,
    /// Set once the run is over: done, or why it failed.
    outcome: Option<Result<(), ClusterError>>,
}

impl<'a> Run<'a> {
    /// A run of `tasks` over `workers` initial slots, joins open.
    pub(crate) fn new(workers: usize, tasks: &'a [Task], config: ClusterConfig) -> Self {
        let (configs, fingerprints) = config_table(tasks);
        Run {
            tasks,
            configs,
            fleet: Fleet::new(workers, fingerprints, config),
            results: tasks.iter().map(|_| None).collect(),
            joins_open: true,
            outbox: BTreeMap::new(),
            outcome: None,
        }
    }

    /// Handles one event, then dispatches: each worker that passes
    /// admission control gets its assignments in one send.
    pub(crate) fn on_event(&mut self, event: Event) -> Vec<Command> {
        let handled = match event {
            Event::Msg(idx, msg) => self.handle_msg(idx, *msg),
            Event::Closed(idx) => self.fleet.death(idx).map_err(ClusterError::from),
            Event::Joined => {
                self.fleet.join();
                Ok(())
            }
            Event::Tick => self.on_tick(),
            Event::SendsFailed(failed) => self.sends_failed(failed),
        };
        let handled = handled.map(|()| self.dispatch());
        self.settle(handled)
    }

    /// No worker can join from here on: a fleet with no live worker
    /// fails instead of waiting.
    pub(crate) fn close_joins(&mut self) -> Vec<Command> {
        self.joins_open = false;
        self.settle(Ok(()))
    }

    /// The merged profiles in task order, or why the run failed.
    pub(crate) fn finish(self) -> Result<Vec<WorkloadProfile>, ClusterError> {
        self.outcome.unwrap_or(Ok(()))?;
        let merged: Option<Vec<WorkloadProfile>> = self.results.into_iter().collect();
        merged
            .ok_or_else(|| ClusterError::Protocol("merge incomplete after convergence".to_owned()))
    }

    /// Decides whether the run is over (saying `Bye` to every surviving
    /// worker if so) and turns the outbox into commands.
    fn settle(&mut self, handled: Result<(), ClusterError>) -> Vec<Command> {
        if handled.is_ok() {
            // Every event and the dispatch after it conserve the task
            // set; test builds check it each time.
            debug_assert_eq!(self.fleet.check_conservation(), Ok(()));
        }
        let remaining = self.tasks.len() - self.fleet.done();
        let closed_and_dead = !self.joins_open && self.fleet.all_dead();
        self.outcome = match handled {
            Err(e) => Some(Err(e)),
            Ok(()) if closed_and_dead && self.fleet.slot_count() == 0 => {
                Some(Err(ClusterError::NoWorkers))
            }
            Ok(()) if remaining == 0 => Some(Ok(())),
            Ok(()) if closed_and_dead => Some(Err(ClusterError::AllWorkersDead { remaining })),
            Ok(()) => None,
        };
        let over = self.outcome.is_some();
        for idx in (0..self.fleet.slot_count()).filter(|&idx| over && self.fleet.is_alive(idx)) {
            self.outbox.entry(idx).or_default().push(Message::Bye);
        }
        let mut commands: Vec<Command> = std::mem::take(&mut self.outbox)
            .into_iter()
            .filter(|&(idx, _)| self.fleet.is_alive(idx))
            .map(|(idx, msgs)| Command::Send(idx, msgs))
            .collect();
        commands.extend(over.then_some(Command::Done));
        commands
    }

    /// Hands work to every worker that passes admission control.
    fn dispatch(&mut self) {
        for idx in 0..self.fleet.slot_count() {
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
                self.outbox.entry(idx).or_default().push(msg);
            }
        }
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

    /// The workers never got these messages: their assignments roll back
    /// without a charged attempt, then each worker is declared dead.
    fn sends_failed(&mut self, failed: Vec<(usize, Vec<Message>)>) -> Result<(), ClusterError> {
        for (idx, msgs) in failed {
            for msg in msgs {
                if let Message::Assign { task_id, .. } = msg {
                    self.fleet.unassign(idx, task_id as usize);
                }
            }
            self.fleet.death(idx)?;
        }
        Ok(())
    }

    fn handle_msg(&mut self, idx: usize, msg: Message) -> Result<(), ClusterError> {
        match msg {
            Message::Hello {
                protocol, cached, ..
            } => {
                if protocol == PROTOCOL_VERSION {
                    self.fleet.hello(idx, &cached);
                } else {
                    // Version skew could silently break bit-identity;
                    // refuse this worker, keep the rest.
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
            // Workers never send Assign/Replicate, and a decoded success
            // is always `Verified`; the connection is unusable but the
            // run can continue without it.
            _ => Ok(self.fleet.death(idx)?),
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
            return Ok(self.fleet.death(idx)?);
        };
        let in_flight = self.fleet.clear_inflight(idx, task);
        if self.fleet.is_completed(task) {
            // Duplicate or late delivery of an already-verified task.
            return Ok(());
        }
        let outcome = if Some(fingerprint) == self.fleet.fingerprint(task) {
            outcome
        } else {
            // The worker computed something else than what we asked
            // for — its results cannot be trusted.
            self.fleet.death(idx)?;
            Err("content fingerprint mismatch".to_owned())
        };
        match outcome {
            Ok((profile, record)) => {
                self.replicate(idx, task, fingerprint, record);
                if let Some(slot) = self.results.get_mut(task) {
                    *slot = Some(*profile);
                }
                self.fleet.complete(task);
                Ok(())
            }
            Err(error) if in_flight => Ok(self.fleet.record_failure(task, error)?),
            // Not in flight here: re-queued when this worker died or left.
            Err(_) => Ok(()),
        }
    }

    /// Pushes a verified result's entry record, the computing worker's
    /// bytes as they arrived, to its ring-successor replica targets. A
    /// target whose send fails is declared dead, which forgets what it
    /// holds; the result itself is already safe on the coordinator.
    fn replicate(&mut self, computer: usize, task: usize, fingerprint: u64, record: Vec<u8>) {
        self.fleet.record_replica(computer, fingerprint);
        let targets = self.fleet.replica_targets(computer, fingerprint);
        let Some(task) = self.tasks.get(task).filter(|_| !targets.is_empty()) else {
            return;
        };
        let msg = Message::Replicate {
            workload_id: task.workload_id.clone(),
            fingerprint,
            record,
        };
        for target in targets {
            self.fleet.record_replica(target, fingerprint);
            self.outbox.entry(target).or_default().push(msg.clone());
        }
    }

    /// A quiet tick elapsed: advance fleet time, expire deadlines, send
    /// the probes it prescribes.
    fn on_tick(&mut self) -> Result<(), ClusterError> {
        let out = self.fleet.tick();
        for idx in out.deaths {
            self.fleet.death(idx)?;
        }
        for (idx, seq) in out.probes {
            self.outbox
                .entry(idx)
                .or_default()
                .push(Message::Heartbeat { seq });
        }
        Ok(())
    }
}

/// One distinct config of a batch: a task on it, its record, and the
/// indices of every task on it.
struct DistinctConfig<'t> {
    task: &'t Task,
    record: Arc<[u8]>,
    members: Vec<usize>,
}

/// Each task's config record and content fingerprint. Tasks with the
/// same scale bits, machine and node share one record, and their keys
/// hash one rendering of that config: each distinct config is encoded
/// and rendered once per run, not once per task.
fn config_table(tasks: &[Task]) -> (Vec<Arc<[u8]>>, Vec<u64>) {
    let mut distinct: Vec<DistinctConfig> = Vec::new();
    let records = tasks
        .iter()
        .enumerate()
        .map(|(idx, task)| {
            let shared = distinct.iter_mut().find(|config| {
                config.task.scale.factor().to_bits() == task.scale.factor().to_bits()
                    && config.task.machine == task.machine
                    && config.task.node == task.node
            });
            if let Some(config) = shared {
                config.members.push(idx);
                return Arc::clone(&config.record);
            }
            let record: Arc<[u8]> = config_record(task).into();
            distinct.push(DistinctConfig {
                task,
                record: Arc::clone(&record),
                members: vec![idx],
            });
            record
        })
        .collect();
    let mut fingerprints = vec![0; tasks.len()];
    for config in &distinct {
        let ids: Vec<(&str, Scale)> = config
            .members
            .iter()
            .filter_map(|&idx| tasks.get(idx))
            .map(|task| (task.workload_id.as_str(), task.scale))
            .collect();
        let keys = ConfigKey::new(&config.task.machine, &config.task.node).fingerprints(&ids);
        for (&idx, key) in config.members.iter().zip(keys) {
            if let Some(slot) = fingerprints.get_mut(idx) {
                *slot = key;
            }
        }
    }
    (records, fingerprints)
}

#[cfg(test)]
mod tests {
    //! The fleet simulation: the core and scripted in-memory workers on
    //! one thread, no sleeps. Each seed permutes the order of the
    //! `Hello`s, how results, failures, replica pushes, heartbeats and
    //! `Bye`s interleave, deaths and mid-run joins, at in-flight depth 1
    //! and 2. `BDB_CHAOS_SEEDS=<n>` widens the sweep.

    use super::*;
    use crate::fleet::HELLO_DEADLINE_TICKS;
    use crate::wire;
    use bdb_engine::codec::profile_to_value;
    use bdb_engine::Engine;
    use bdb_node::NodeConfig;
    use bdb_sim::MachineConfig;
    use bdb_workloads::{catalog, Scale};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeSet, VecDeque};
    use std::sync::OnceLock;

    #[test]
    fn tasks_with_one_config_share_one_record() {
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
        let (records, _) = config_table(&tasks);
        assert!(Arc::ptr_eq(&records[0], &records[2]));
        assert!(Arc::ptr_eq(&records[3], &records[4]));
        assert!(!Arc::ptr_eq(&records[0], &records[3]));
        for (task, record) in tasks.iter().zip(&records) {
            assert_eq!(record[..], config_record(task)[..]);
        }
    }

    #[test]
    fn a_runs_fingerprints_equal_each_tasks_own() {
        // The whole catalog on both platforms at two scales: four
        // distinct configs, interleaved so a shared key is found again
        // after another config was seen.
        let defs = catalog::full_catalog();
        let node = NodeConfig::default();
        let mut tasks = Vec::new();
        for scale in [Scale::tiny(), Scale::small()] {
            for machine in [MachineConfig::xeon_e5645(), MachineConfig::atom_d510()] {
                tasks.extend(crate::fleet_tasks(&defs, scale, &machine, &node));
            }
        }
        tasks.extend(crate::fleet_tasks(
            &defs[..3],
            Scale::tiny(),
            &MachineConfig::xeon_e5645(),
            &node,
        ));
        let run = Run::new(2, &tasks, ClusterConfig::default());
        for (idx, task) in tasks.iter().enumerate() {
            assert_eq!(
                run.fleet.fingerprint(idx),
                Some(task.fingerprint()),
                "{} at {:?}",
                task.workload_id,
                task.scale
            );
        }
    }

    #[test]
    fn a_failure_reported_after_the_workers_death_is_not_counted_again() {
        let batch = batch();
        let mut run = Run::new(2, &batch.tasks, sim_config(2, 0));
        assert!(run.close_joins().is_empty());
        let hello = || {
            Box::new(Message::Hello {
                worker: String::new(),
                protocol: PROTOCOL_VERSION,
                cached: Vec::new(),
            })
        };
        let _ = run.on_event(Event::Msg(0, hello()));
        let commands = run.on_event(Event::Msg(1, hello()));
        let (task_id, fingerprint) = commands
            .iter()
            .find_map(|command| match command {
                Command::Send(1, msgs) => msgs.iter().find_map(|msg| match msg {
                    Message::Assign {
                        task_id,
                        fingerprint,
                        ..
                    } => Some((*task_id, *fingerprint)),
                    _ => None,
                }),
                _ => None,
            })
            .expect("worker 1 gets work once both said Hello");
        // Worker 1 dies with the task in flight (re-queued, charged once);
        // its failed `Result`, already on the wire, lands afterwards.
        let _ = run.on_event(Event::Closed(1));
        let _ = run.on_event(Event::Msg(
            1,
            Box::new(Message::Result {
                task_id,
                fingerprint,
                outcome: Err("late".to_owned()),
            }),
        ));
        assert_eq!(run.fleet.check_conservation(), Ok(()));
    }

    /// The tick bound a silent worker must be gone by.
    fn silent_bound(config: &ClusterConfig) -> u64 {
        HELLO_DEADLINE_TICKS
            + (u64::from(config.heartbeat_miss_limit) + 2) * config.heartbeat_every_ticks
    }

    /// Ticks `run` until it is done; returns the ticks that took, or
    /// `None` past `bound`.
    fn ticks_to_done(run: &mut Run, bound: u64) -> Option<u64> {
        (1..=bound).find(|_| {
            run.on_event(Event::Tick)
                .iter()
                .any(|command| matches!(command, Command::Done))
        })
    }

    #[test]
    fn a_worker_silent_from_connect_does_not_hang_the_run() {
        // Two initial workers and joins closed: worker 1 closes, worker 0
        // never says `Hello` and never closes.
        let batch = batch();
        for config in [ClusterConfig::default(), sim_config(2, 0)] {
            let bound = silent_bound(&config);
            let mut run = Run::new(2, &batch.tasks, config);
            assert!(run.close_joins().is_empty());
            assert!(run.on_event(Event::Closed(1)).is_empty());
            assert!(
                ticks_to_done(&mut run, bound).is_some(),
                "no end by tick {bound}"
            );
            assert!(matches!(
                run.finish(),
                Err(ClusterError::AllWorkersDead { remaining }) if remaining == batch.tasks.len()
            ));
        }
    }

    #[test]
    fn a_late_hello_before_the_silent_bound_is_unaffected() {
        // The same schedule, but worker 0's `Hello` lands on the last
        // tick before it would be declared dead: it does the whole batch.
        let batch = batch();
        for config in [ClusterConfig::default(), sim_config(2, 0)] {
            let every = config.heartbeat_every_ticks;
            let first_miss = HELLO_DEADLINE_TICKS.div_ceil(every) * every;
            let dies_at = first_miss + u64::from(config.heartbeat_miss_limit) * every;
            assert!(dies_at <= silent_bound(&config));
            let mut run = Run::new(2, &batch.tasks, config);
            assert!(run.close_joins().is_empty());
            assert!(run.on_event(Event::Closed(1)).is_empty());
            assert_eq!(ticks_to_done(&mut run, dies_at - 1), None);
            let mut inbox: VecDeque<Message> = run
                .on_event(Event::Msg(
                    0,
                    Box::new(Message::Hello {
                        worker: String::new(),
                        protocol: PROTOCOL_VERSION,
                        cached: Vec::new(),
                    }),
                ))
                .into_iter()
                .flat_map(|command| match command {
                    Command::Send(0, msgs) => msgs,
                    _ => panic!("only worker 0 is alive"),
                })
                .collect();
            let mut done = false;
            while let Some(msg) = inbox.pop_front() {
                let Message::Assign { task_id, .. } = msg else {
                    continue;
                };
                let reply = batch.replies[task_id as usize].clone();
                for command in run.on_event(Event::Msg(0, Box::new(reply))) {
                    match command {
                        Command::Send(0, msgs) => inbox.extend(msgs),
                        Command::Done => done = true,
                        Command::Send(..) => panic!("only worker 0 is alive"),
                    }
                }
            }
            assert!(done);
            let merged: Vec<String> = run
                .finish()
                .unwrap()
                .iter()
                .map(|p| profile_to_value(p).encode())
                .collect();
            assert_eq!(merged, batch.serial);
        }
    }

    /// The simulated batch: its tasks, each task's reply as a transport
    /// decodes it from the worker's entry record, and the serial run's
    /// profile bytes.
    struct Batch {
        tasks: Vec<Task>,
        replies: Vec<Message>,
        serial: Vec<String>,
    }

    fn batch() -> &'static Batch {
        static BATCH: OnceLock<Batch> = OnceLock::new();
        BATCH.get_or_init(|| {
            let defs = catalog::full_catalog();
            let tasks = crate::fleet_tasks(
                &defs[..8],
                Scale::tiny(),
                &MachineConfig::xeon_e5645(),
                &NodeConfig::default(),
            );
            let engine = Engine::in_memory();
            let replies = tasks
                .iter()
                .enumerate()
                .map(|(id, task)| {
                    let (fingerprint, record) = engine.run_task_entry(task).unwrap();
                    let frame = wire::encode_frame(&Message::ResultEntry {
                        task_id: id as u64,
                        fingerprint,
                        record,
                    });
                    wire::decode_message(&frame[4..]).unwrap()
                })
                .collect();
            let serial = tasks
                .iter()
                .map(|t| profile_to_value(&Engine::serial().run_task(t).unwrap().profile).encode())
                .collect();
            Batch {
                tasks,
                replies,
                serial,
            }
        })
    }

    fn seed_count() -> u64 {
        std::env::var("BDB_CHAOS_SEEDS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(16)
    }

    fn sim_config(max_inflight: usize, replication: usize) -> ClusterConfig {
        ClusterConfig {
            task_deadline_ticks: 12,
            heartbeat_every_ticks: 2,
            heartbeat_miss_limit: 2,
            max_attempts: 50,
            backoff_base_ticks: 1,
            backoff_cap_ticks: 4,
            max_inflight,
            replication,
            ..ClusterConfig::default()
        }
    }

    /// Ticks a cold answer may take.
    const MAX_COMPUTE_TICKS: u64 = 3;

    #[derive(Clone, Copy, PartialEq, Debug)]
    enum State {
        /// Reads its frames and answers them.
        Up,
        /// Connected but silent: only a deadline or a missed heartbeat
        /// can end it.
        Stalled,
        /// Killed, or left with `Bye`: its connection is closed.
        Gone,
    }

    #[derive(Clone, Copy, Debug)]
    enum Departure {
        Kill,
        Bye,
        Stall,
    }

    /// One in-memory worker, answering as `run_worker` does.
    struct SimWorker {
        state: State,
        /// Fingerprints in its cache.
        holds: BTreeSet<u64>,
        /// Frames from the coordinator it has not read, in order.
        inbox: VecDeque<Message>,
        /// Frames to the coordinator it has not read, in order; `None`
        /// is the connection closing.
        outbox: VecDeque<Option<Message>>,
        /// A cold answer still computing: ticks left, and the reply.
        busy: Option<(u64, Message)>,
        /// Fingerprints it fails once with `Result { Err }`.
        fails: BTreeSet<u64>,
        /// Tasks it computed because it did not hold them.
        computed: usize,
    }

    impl SimWorker {
        fn start(holds: BTreeSet<u64>, fails: BTreeSet<u64>) -> SimWorker {
            let hello = Message::Hello {
                worker: String::new(),
                protocol: PROTOCOL_VERSION,
                cached: holds.iter().copied().collect(),
            };
            SimWorker {
                state: State::Up,
                holds,
                inbox: VecDeque::new(),
                outbox: VecDeque::from([Some(hello)]),
                busy: None,
                fails,
                computed: 0,
            }
        }

        fn can_read(&self) -> bool {
            self.state == State::Up && self.busy.is_none() && !self.inbox.is_empty()
        }

        /// Reads one frame and acts on it.
        fn read(&mut self, batch: &Batch, rng: &mut StdRng) -> String {
            let Some(msg) = self.inbox.pop_front() else {
                return "nothing".to_owned();
            };
            match msg {
                Message::Assign {
                    task_id,
                    fingerprint,
                    ..
                } => {
                    let reply = batch.replies[task_id as usize].clone();
                    if self.fails.remove(&fingerprint) {
                        self.outbox.push_back(Some(Message::Result {
                            task_id,
                            fingerprint,
                            outcome: Err("injected failure".to_owned()),
                        }));
                        format!("fails t{task_id}")
                    } else if self.holds.contains(&fingerprint) {
                        self.outbox.push_back(Some(reply));
                        format!("answers t{task_id} from its cache")
                    } else {
                        self.computed += 1;
                        self.busy = Some((rng.gen_range(0..=MAX_COMPUTE_TICKS), reply));
                        self.finish_compute(0);
                        format!("computes t{task_id}")
                    }
                }
                Message::Replicate { fingerprint, .. } => {
                    self.holds.insert(fingerprint);
                    format!("admits replica {fingerprint:016x}")
                }
                Message::Heartbeat { seq } => {
                    self.outbox.push_back(Some(Message::Heartbeat { seq }));
                    format!("echoes heartbeat {seq}")
                }
                Message::Bye => "reads Bye".to_owned(),
                other => panic!("the coordinator sent {other:?}"),
            }
        }

        /// `elapsed` ticks pass on a cold answer; a finished one is
        /// cached and sent.
        fn finish_compute(&mut self, elapsed: u64) {
            let Some((left, reply)) = self.busy.take() else {
                return;
            };
            if left > elapsed {
                self.busy = Some((left - elapsed, reply));
            } else if let Message::Verified { fingerprint, .. } = &reply {
                self.holds.insert(*fingerprint);
                self.outbox.push_back(Some(reply));
            }
        }

        fn depart(&mut self, how: Departure) {
            self.busy = None;
            match how {
                Departure::Kill => {
                    self.inbox.clear();
                    self.outbox.push_back(None);
                    self.state = State::Gone;
                }
                Departure::Bye => {
                    self.inbox.clear();
                    self.outbox.extend([Some(Message::Bye), None]);
                    self.state = State::Gone;
                }
                Departure::Stall => self.state = State::Stalled,
            }
        }
    }

    /// One run's membership schedule; the message order is the rest of
    /// the seed's draws.
    #[derive(Debug, Default)]
    struct Script {
        /// Each initial worker's cache.
        initial: Vec<BTreeSet<u64>>,
        /// Steps at which a worker with an empty cache joins.
        joins: Vec<usize>,
        /// Steps at which a random live worker departs, and how.
        departures: Vec<(usize, Departure)>,
        /// Each fingerprint fails once on a worker with this chance.
        fail_chance: f64,
    }

    /// How a simulated run ended.
    struct Ending {
        profiles: Result<Vec<WorkloadProfile>, ClusterError>,
        computed: usize,
        /// Each worker's cache, killed and stalled ones included.
        holdings: Vec<BTreeSet<u64>>,
        /// The fingerprints of completed tasks, with how many live
        /// workers hold each.
        holders: Vec<(u64, usize)>,
        live: usize,
        /// Every worker's `Hello` landed before the first result, and no
        /// worker departed: the schedules DESIGN.md §18 promises `r + 1`
        /// holders for today.
        replica_promise: bool,
        log: Vec<String>,
    }

    struct Sim<'a> {
        run: Run<'a>,
        workers: Vec<SimWorker>,
        rng: StdRng,
        done: bool,
        log: Vec<String>,
    }

    impl Sim<'_> {
        /// Performs the core's commands; a send to a closed connection
        /// fails and goes straight back to the core, as in the driver.
        fn perform(&mut self, commands: Vec<Command>) {
            let mut failed = Vec::new();
            for command in commands {
                match command {
                    Command::Send(idx, msgs) => match self.workers.get_mut(idx) {
                        Some(w) if w.state != State::Gone => w.inbox.extend(msgs),
                        _ => failed.push((idx, msgs)),
                    },
                    Command::Done => self.done = true,
                }
            }
            if !matches!(self.run.outcome, Some(Err(_))) {
                if let Err(e) = self.run.fleet.check_conservation() {
                    panic!("conservation broken: {e}\n{}", self.log.join("\n"));
                }
            }
            if !failed.is_empty() && !self.done {
                self.log.push(format!(
                    "sends to {:?} fail",
                    failed.iter().map(|f| f.0).collect::<Vec<_>>()
                ));
                let commands = self.run.on_event(Event::SendsFailed(failed));
                self.perform(commands);
            }
        }

        fn event(&mut self, event: Event) {
            let commands = self.run.on_event(event);
            self.perform(commands);
        }
    }

    /// Runs `script` to its end; panics if it outlasts a tick bound or
    /// breaks conservation after any event.
    fn simulate(batch: &Batch, config: ClusterConfig, script: &Script, rng: StdRng) -> Ending {
        // Generous, but finite: the Hello deadline, the detection of each
        // departure, and every task's compute and backoff twice over.
        let tick_bound = HELLO_DEADLINE_TICKS
            + (script.departures.len() as u64 + 1)
                * (config.task_deadline_ticks
                    + config.heartbeat_every_ticks * (u64::from(config.heartbeat_miss_limit) + 2))
            + 2 * batch.tasks.len() as u64 * (MAX_COMPUTE_TICKS + config.backoff_cap_ticks);
        let mut sim = Sim {
            run: Run::new(script.initial.len(), &batch.tasks, config),
            workers: Vec::new(),
            rng,
            done: false,
            log: Vec::new(),
        };
        let fails = |rng: &mut StdRng| -> BTreeSet<u64> {
            batch
                .tasks
                .iter()
                .map(Task::fingerprint)
                .filter(|_| rng.gen_bool(script.fail_chance))
                .collect()
        };
        for holds in &script.initial {
            let fails = fails(&mut sim.rng);
            sim.workers.push(SimWorker::start(holds.clone(), fails));
        }
        let mut joins_open = true;
        let (mut ticks, mut step) = (0, 0);
        let (mut said_hello, mut verified, mut late_hello) = (0, false, false);
        let mut departed = false;
        while !sim.done {
            step += 1;
            assert!(step < 100_000, "no end in sight\n{}", sim.log.join("\n"));
            for _ in script.joins.iter().filter(|&&at| at == step) {
                let fails = fails(&mut sim.rng);
                sim.workers.push(SimWorker::start(BTreeSet::new(), fails));
                late_hello |= verified;
                sim.log.push(format!("w{} joins", sim.workers.len() - 1));
                sim.event(Event::Joined);
            }
            if joins_open && script.joins.iter().all(|&at| at <= step) {
                joins_open = false;
                let commands = sim.run.close_joins();
                sim.perform(commands);
            }
            for &(_, how) in script.departures.iter().filter(|&&(at, _)| at == step) {
                let up: Vec<usize> = (0..sim.workers.len())
                    .filter(|&i| sim.workers[i].state == State::Up)
                    .collect();
                if up.len() >= 2 {
                    let victim = up[sim.rng.gen_range(0..up.len())];
                    sim.workers[victim].depart(how);
                    departed = true;
                    sim.log.push(format!("w{victim} departs: {how:?}"));
                }
            }
            if sim.done {
                break;
            }
            // Every frame a worker can read or the core can receive.
            let mut ready = Vec::new();
            for (idx, w) in sim.workers.iter().enumerate() {
                if w.can_read() {
                    ready.push((idx, true));
                }
                if !w.outbox.is_empty() {
                    ready.push((idx, false));
                }
            }
            if ready.is_empty() {
                // Quiet: a tick elapses, and cold answers progress.
                ticks += 1;
                assert!(
                    ticks <= tick_bound,
                    "more than {tick_bound} ticks\n{}",
                    sim.log.join("\n")
                );
                sim.log.push("tick".to_owned());
                sim.event(Event::Tick);
                for w in &mut sim.workers {
                    if w.state == State::Up {
                        w.finish_compute(1);
                    }
                }
                continue;
            }
            let (idx, read) = ready[sim.rng.gen_range(0..ready.len())];
            if read {
                let what = sim.workers[idx].read(batch, &mut sim.rng);
                sim.log.push(format!("w{idx} {what}"));
                continue;
            }
            match sim.workers[idx].outbox.pop_front().flatten() {
                Some(msg) => {
                    said_hello += usize::from(matches!(msg, Message::Hello { .. }));
                    let result = matches!(msg, Message::Verified { .. });
                    late_hello |= result && said_hello < sim.workers.len();
                    verified |= result;
                    sim.log.push(format!("core <- w{idx} {}", summary(&msg)));
                    sim.event(Event::Msg(idx, Box::new(msg)));
                }
                None => {
                    sim.log.push(format!("core <- w{idx} closes"));
                    sim.event(Event::Closed(idx));
                }
            }
        }
        // The frames already sent arrive: replica pushes land before `Bye`.
        for w in &mut sim.workers {
            while w.state == State::Up && !w.inbox.is_empty() {
                if matches!(
                    w.inbox.front(),
                    Some(Message::Replicate { .. } | Message::Bye)
                ) {
                    w.read(batch, &mut sim.rng);
                } else {
                    w.inbox.pop_front();
                }
            }
        }
        let live: Vec<&SimWorker> = sim
            .workers
            .iter()
            .filter(|w| w.state == State::Up)
            .collect();
        let holders = (0..batch.tasks.len())
            .filter(|&t| sim.run.fleet.is_completed(t))
            .filter_map(|t| sim.run.fleet.fingerprint(t))
            .map(|fp| (fp, live.iter().filter(|w| w.holds.contains(&fp)).count()))
            .collect();
        Ending {
            computed: sim.workers.iter().map(|w| w.computed).sum(),
            holdings: sim.workers.iter().map(|w| w.holds.clone()).collect(),
            holders,
            live: live.len(),
            replica_promise: !late_hello && !departed,
            log: sim.log,
            profiles: sim.run.finish(),
        }
    }

    fn summary(msg: &Message) -> String {
        match msg {
            Message::Hello { cached, .. } => format!("Hello holding {}", cached.len()),
            Message::Verified { task_id, .. } => format!("Verified t{task_id}"),
            Message::Result { task_id, .. } => format!("Result Err t{task_id}"),
            Message::Heartbeat { seq } => format!("Heartbeat {seq}"),
            other => format!("{other:?}"),
        }
    }

    /// Checks one ending against the serial bytes and the replica
    /// promise; returns the report line of a failure.
    fn check(batch: &Batch, ending: &Ending, replication: usize) -> Result<(), String> {
        let merged = ending
            .profiles
            .as_ref()
            .map_err(|e| format!("run failed: {e}"))?;
        let merged: Vec<String> = merged
            .iter()
            .map(|p| profile_to_value(p).encode())
            .collect();
        if merged != batch.serial {
            return Err("merged bytes differ from the serial run".to_owned());
        }
        let want = (replication + 1).min(ending.live);
        if ending.replica_promise {
            if let Some((fp, n)) = ending.holders.iter().find(|&&(_, n)| n < want) {
                return Err(format!("{fp:016x} has {n} live holders, want {want}"));
            }
        }
        Ok(())
    }

    #[test]
    fn simulated_fleet_merges_serial_bytes_under_any_message_order() {
        let batch = batch();
        for seed in 0..seed_count() {
            for max_inflight in [1, 2] {
                let mut rng = StdRng::seed_from_u64(seed << 8 | max_inflight as u64);
                let replication = rng.gen_range(0..=2);
                let config = sim_config(max_inflight, replication);
                let initial = rng.gen_range(0..=4);
                let joins: Vec<usize> = (0..rng.gen_range(usize::from(initial == 0)..=2))
                    .map(|_| rng.gen_range(1..30))
                    .collect();
                let departures = (0..rng.gen_range(0..=2))
                    .map(|_| {
                        let how = [Departure::Kill, Departure::Bye, Departure::Stall]
                            [rng.gen_range(0..3)];
                        (rng.gen_range(1..40), how)
                    })
                    .collect();
                let cold = Script {
                    initial: vec![BTreeSet::new(); initial],
                    joins,
                    departures,
                    fail_chance: 0.15,
                };
                let context = format!(
                    "seed {seed}, max_inflight {max_inflight}, replication {replication}, {cold:?}"
                );
                // Shown only if the test fails, the core's own debug
                // assertions included.
                println!("{context}");
                let first = simulate(batch, config.clone(), &cold, rng.clone());
                if let Err(e) = check(batch, &first, replication) {
                    panic!("{context}: {e}\n{}", first.log.join("\n"));
                }
                // Warm restart: every worker of the first run comes back
                // with its cache, and no task is computed again.
                let warm = Script {
                    initial: first.holdings.clone(),
                    ..Script::default()
                };
                let second = simulate(batch, config, &warm, StdRng::seed_from_u64(rng.gen()));
                if let Err(e) = check(batch, &second, replication) {
                    panic!("{context}, warm restart: {e}\n{}", second.log.join("\n"));
                }
                assert_eq!(
                    second.computed,
                    0,
                    "{context}: warm restart recomputed\n{}",
                    second.log.join("\n")
                );
            }
        }
    }
}
