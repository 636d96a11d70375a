//! The fleet membership + scheduling state machine, free of I/O.
//!
//! [`Fleet`] owns every scheduling decision the coordinator makes —
//! which worker gets which task, when a slow worker is declared dead,
//! how failed tasks back off — but never touches a transport, a clock,
//! or a cache. The coordinator translates wire events into calls on
//! this machine and performs the sends it prescribes; property tests
//! drive the same machine through arbitrary join/leave/death/steal
//! interleavings without a single socket.
//!
//! # Membership
//!
//! Slots are append-only: [`Fleet::join`] adds a worker mid-run with an
//! empty plan (it becomes eligible for retries and stealing the moment
//! its `Hello` lands via [`Fleet::hello`]), and a departed worker's slot
//! is tombstoned, never reused. A clean leave ([`Fleet::leave`], the
//! worker sent `Bye`) re-queues its in-flight work after one base
//! backoff without charging an attempt — the worker did nothing wrong.
//! A death ([`Fleet::death`] — EOF, deadline expiry, heartbeat silence)
//! charges each orphaned in-flight task one failed attempt, entering the
//! same capped-exponential backoff as a reported failure. A worker that
//! connects but never says `Hello` is silent too: once
//! [`HELLO_DEADLINE_TICKS`] have passed since its slot was created, each
//! probe period counts as a missed probe, and it dies after the same
//! number of misses as an idle worker that stopped answering. Without
//! that, one such worker would keep a run whose other workers are all
//! gone from ever ending.
//!
//! # Admission control
//!
//! A worker takes work only while it has no unanswered heartbeat probe
//! (a *suspect* — shedding load away from a machine that may already be
//! gone costs one tick of idleness if it answers, and saves a full task
//! deadline if it does not). [`crate::ClusterConfig::max_inflight`]
//! caps the tasks it does not hold (2 by default: the task being
//! computed and the next, already on the wire). A task it holds, from
//! its own plan or the retry queue, skips the cap: a warm worker is
//! handed its whole held plan in one dispatch and answers it as one
//! burst. Held *steals* from another plan stay under the cap, or the
//! first worker to say `Hello` would take every task it shares with the
//! others; a cold run keeps the depth-2 balance. Retry dispatch is
//! queue-age ordered: among eligible entries the oldest-queued goes
//! first, so no task starves behind younger failures. A task's deadline
//! runs from its assignment and restarts whenever a result arrives from
//! its worker ([`Fleet::clear_inflight`]), so a task queued behind a
//! long one is not expired while the worker is still busy ahead of it.
//! All of it is tick-denominated; the machine owns no wall clock.
//!
//! # Replica affinity
//!
//! Each slot remembers the content fingerprints its worker advertised in
//! `Hello` plus every replica the coordinator has pushed to it since
//! ([`Fleet::record_replica`]). [`Fleet::next_assignment`] prefers tasks
//! the worker already holds, and *defers* a task held by another alive,
//! ready worker (that holder will take it via its own affinity
//! preference — with finitely many tasks every holder drains its queue,
//! so deferral cannot deadlock: if the holder dies or leaves, the
//! deferral lapses with it). This is what makes a warm restart after
//! losing a machine recompute nothing: every surviving entry is routed
//! to a worker that still has it on disk.
//!
//! Deferral can only see holders that have said so. Until every alive
//! initial worker's `Hello` has landed, or [`HELLO_DEADLINE_TICKS`]
//! have passed, a worker takes only tasks it holds itself; unheld work
//! waits, since a worker still to say `Hello` may hold it. The
//! coordinator dispatches after every event, so work resumes on the
//! event that delivers the last `Hello`.
//!
//! The task set is *conserved* through all of this: an incomplete task
//! lives in exactly one place (one plan, one in-flight slot, or the
//! retry queue), and a completed task is merged exactly once.
//! [`Fleet::check_conservation`] asserts that invariant; the membership
//! property tests call it after every operation, and the coordinator
//! debug-asserts it after every event it handles.

use crate::coordinator::ClusterConfig;
use std::collections::{BTreeSet, VecDeque};

/// Ticks unheld dispatch waits for every initial worker's `Hello` (see
/// the module docs). Fleet time advances only on quiet ticks — a poll
/// interval with no event — so the wait is 20 quiet coordinator ticks:
/// at least one second at the default 50 ms tick, and longer while
/// other workers keep the event loop busy.
pub const HELLO_DEADLINE_TICKS: u64 = 20;

/// Why the fleet cannot finish the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// One task failed [`ClusterConfig::max_attempts`] times.
    TaskExhausted {
        /// Index of the exhausted task in the submitted batch.
        task: usize,
        /// The last recorded error for that task.
        last_error: String,
    },
}

/// One in-flight assignment.
#[derive(Debug, Clone)]
struct Busy {
    task: usize,
    deadline: u64,
    /// The worker held the task, which came from its own plan or the
    /// retry queue, so it was dispatched past the depth cap. Every other
    /// assignment, a held steal included, counts against
    /// [`ClusterConfig::max_inflight`].
    held: bool,
}

/// One queued re-dispatch.
#[derive(Debug, Clone)]
struct Retry {
    task: usize,
    /// Earliest tick the task may be re-assigned (backoff).
    not_before: u64,
    /// Tick the task entered the queue — dispatch is oldest-first.
    queued_at: u64,
}

/// One worker slot. Tombstoned (never reused) once dead or departed.
#[derive(Debug)]
struct Slot {
    /// `Hello` received with a matching protocol version.
    ready: bool,
    /// Still part of the fleet.
    alive: bool,
    inflight: Vec<Busy>,
    plan: VecDeque<usize>,
    /// Content fingerprints this worker is known to hold (advertised in
    /// `Hello`, plus replicas pushed since).
    cached: BTreeSet<u64>,
    /// Outstanding heartbeat probe sequence number.
    probe: Option<u64>,
    missed: u32,
    /// Fleet tick the slot was created at: 0 for an initial worker, the
    /// join tick for a joiner. Its `Hello` deadline runs from here.
    created: u64,
}

impl Slot {
    /// In-flight tasks that count against the depth cap.
    fn capped_depth(&self) -> usize {
        self.inflight.iter().filter(|b| !b.held).count()
    }

    fn empty() -> Slot {
        Slot {
            ready: false,
            alive: true,
            inflight: Vec::new(),
            plan: VecDeque::new(),
            cached: BTreeSet::new(),
            probe: None,
            missed: 0,
            created: 0,
        }
    }
}

/// What one quiet tick asks the coordinator to do.
#[derive(Debug, Default)]
pub struct TickOutcome {
    /// Slots to declare dead: a task deadline expired, or the heartbeat
    /// miss limit was crossed by an idle worker or by one still silent
    /// past its `Hello` deadline. Pass each to [`Fleet::death`].
    pub deaths: Vec<usize>,
    /// Heartbeat probes to send, `(slot, seq)`. The fleet already
    /// recorded the outstanding probe; a failed send is a death.
    pub probes: Vec<(usize, u64)>,
}

/// The pure membership + scheduling state machine. See the module docs.
pub struct Fleet {
    config: ClusterConfig,
    slots: Vec<Slot>,
    /// Expected content fingerprint per task (affinity + replica math).
    fingerprints: Vec<u64>,
    completed: Vec<bool>,
    attempts: Vec<u32>,
    last_error: Vec<String>,
    retry: VecDeque<Retry>,
    /// Slots `0..initial` are the workers the run started with.
    initial: usize,
    done: usize,
    now: u64,
    next_probe_seq: u64,
}

impl Fleet {
    /// A fleet of `workers` initial slots over the task batch described
    /// by `fingerprints` (one per task, in task order). Tasks are split
    /// into contiguous static chunks, one per initial worker — good
    /// locality for per-worker disk caches. With zero initial workers
    /// (an elastic run built entirely from joins) there are no plans to
    /// hold the tasks, so every task is seeded into the retry queue,
    /// eligible immediately — conservation demands each incomplete task
    /// live somewhere, and joiners start with empty plans.
    pub fn new(workers: usize, fingerprints: Vec<u64>, config: ClusterConfig) -> Fleet {
        let tasks = fingerprints.len();
        let slots: Vec<Slot> = (0..workers)
            .map(|i| {
                let lo = i * tasks / workers.max(1);
                let hi = (i + 1) * tasks / workers.max(1);
                Slot {
                    plan: (lo..hi).collect(),
                    ..Slot::empty()
                }
            })
            .collect();
        let mut retry = VecDeque::new();
        if workers == 0 {
            retry.extend((0..tasks).map(|task| Retry {
                task,
                not_before: 0,
                queued_at: 0,
            }));
        }
        Fleet {
            config,
            slots,
            completed: vec![false; tasks],
            attempts: vec![0; tasks],
            last_error: vec![String::new(); tasks],
            fingerprints,
            retry,
            initial: workers,
            done: 0,
            now: 0,
            next_probe_seq: 0,
        }
    }

    /// Tasks merged so far.
    pub fn done(&self) -> usize {
        self.done
    }

    /// Total tasks in the batch.
    pub fn task_count(&self) -> usize {
        self.completed.len()
    }

    /// Number of slots ever created (alive or tombstoned).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Whether `slot` is still part of the fleet.
    pub fn is_alive(&self, slot: usize) -> bool {
        self.slots.get(slot).is_some_and(|s| s.alive)
    }

    /// Whether every slot is dead or departed (vacuously true for an
    /// empty fleet — the caller decides whether more joins may arrive).
    pub fn all_dead(&self) -> bool {
        self.slots.iter().all(|s| !s.alive)
    }

    /// The expected content fingerprint of `task`, if in range.
    pub fn fingerprint(&self, task: usize) -> Option<u64> {
        self.fingerprints.get(task).copied()
    }

    /// Adds a mid-run worker with an empty plan; returns its slot index.
    /// It becomes eligible for retries and stealing once [`Fleet::hello`]
    /// marks it ready.
    pub fn join(&mut self) -> usize {
        self.slots.push(Slot {
            created: self.now,
            ..Slot::empty()
        });
        self.slots.len() - 1
    }

    /// The worker introduced itself with a compatible protocol version,
    /// advertising the content fingerprints already in its cache.
    pub fn hello(&mut self, slot: usize, cached: &[u64]) {
        if let Some(s) = self.slots.get_mut(slot) {
            if s.alive {
                s.ready = true;
                // Misses counted while it was silent are forgiven.
                s.missed = 0;
                s.cached.extend(cached.iter().copied());
            }
        }
    }

    /// The worker answered a heartbeat probe.
    pub fn heartbeat(&mut self, slot: usize, seq: u64) {
        if let Some(s) = self.slots.get_mut(slot) {
            if s.probe == Some(seq) {
                s.probe = None;
                s.missed = 0;
            }
        }
    }

    /// The coordinator pushed (or observed) a replica of `fingerprint`
    /// on `slot`; affinity dispatch will prefer routing the matching
    /// task there.
    pub fn record_replica(&mut self, slot: usize, fingerprint: u64) {
        if let Some(s) = self.slots.get_mut(slot) {
            s.cached.insert(fingerprint);
        }
    }

    /// The alive, ready slots that should receive a replica of
    /// `fingerprint` — up to [`ClusterConfig::replication`] ring
    /// successors of `computer` that do not already hold it.
    pub fn replica_targets(&self, computer: usize, fingerprint: u64) -> Vec<usize> {
        let n = self.slots.len();
        if n == 0 || self.config.replication == 0 {
            return Vec::new();
        }
        let mut targets = Vec::new();
        for step in 1..n {
            let idx = (computer + step) % n;
            let Some(s) = self.slots.get(idx) else {
                continue;
            };
            if s.alive && s.ready && !s.cached.contains(&fingerprint) {
                targets.push(idx);
                if targets.len() >= self.config.replication {
                    break;
                }
            }
        }
        targets
    }

    /// Clean departure: the worker sent `Bye`. Its plan re-queues with
    /// no delay and its in-flight tasks re-queue after one base backoff
    /// — no attempt is charged, because the worker did nothing wrong.
    pub fn leave(&mut self, slot: usize) {
        let backoff = self
            .config
            .backoff_base_ticks
            .min(self.config.backoff_cap_ticks);
        let Some(s) = self.slots.get_mut(slot) else {
            return;
        };
        if !s.alive {
            return;
        }
        s.alive = false;
        s.ready = false;
        s.probe = None;
        s.cached.clear();
        let plan: Vec<usize> = s.plan.drain(..).collect();
        let orphans: Vec<usize> = s.inflight.drain(..).map(|b| b.task).collect();
        for task in plan {
            self.requeue(task, 0);
        }
        for task in orphans {
            if !self.completed.get(task).copied().unwrap_or(true) {
                self.requeue(task, backoff);
            }
        }
    }

    /// Abrupt departure: EOF, deadline expiry, heartbeat silence, or a
    /// protocol violation. The remaining plan re-queues without backoff
    /// (those tasks never failed); each orphaned in-flight task is
    /// charged one failed attempt, which can exhaust the task.
    pub fn death(&mut self, slot: usize) -> Result<(), FleetError> {
        let Some(s) = self.slots.get_mut(slot) else {
            return Ok(());
        };
        if !s.alive {
            return Ok(());
        }
        s.alive = false;
        s.ready = false;
        s.probe = None;
        s.cached.clear();
        let plan: Vec<usize> = s.plan.drain(..).collect();
        let orphans: Vec<usize> = s.inflight.drain(..).map(|b| b.task).collect();
        for task in plan {
            self.requeue(task, 0);
        }
        let mut outcome = Ok(());
        for task in orphans {
            if self.completed.get(task).copied().unwrap_or(true) {
                continue;
            }
            // Surface the first exhaustion but keep requeueing the rest:
            // a partial drain would strand tasks outside every queue.
            let failed = self.record_failure(task, "worker died mid-task".to_owned());
            if outcome.is_ok() {
                outcome = failed;
            }
        }
        outcome
    }

    /// A result for `task` arrived from `slot`: the task leaves the
    /// slot's in-flight set, and the deadline of every task still queued
    /// there restarts at `now + task_deadline_ticks`. A worker answers
    /// its queue in order, so a queued task's clock starts when the
    /// worker can begin it; a worker busy with a long task ahead of it
    /// is not slow. Returns whether `task` was in flight there; if not,
    /// this is a no-op.
    pub fn clear_inflight(&mut self, slot: usize, task: usize) -> bool {
        let deadline = self.now + self.config.task_deadline_ticks;
        let Some(s) = self.slots.get_mut(slot) else {
            return false;
        };
        let before = s.inflight.len();
        s.inflight.retain(|b| b.task != task);
        let cleared = s.inflight.len() < before;
        if cleared {
            for busy in &mut s.inflight {
                busy.deadline = deadline;
            }
        }
        cleared
    }

    /// Rolls back an assignment whose send failed before the worker saw
    /// it: back to the queue with no delay and no attempt charged. The
    /// slot's other deadlines stand (no result arrived).
    pub fn unassign(&mut self, slot: usize, task: usize) {
        if let Some(s) = self.slots.get_mut(slot) {
            s.inflight.retain(|b| b.task != task);
        }
        if !self.completed.get(task).copied().unwrap_or(true) {
            self.requeue(task, 0);
        }
    }

    /// Marks `task` merged when its verified result lands; the run keeps
    /// no record of it past its own end, so a restarted coordinator
    /// dispatches every task again and warm workers answer from their
    /// caches. Returns `false` for a duplicate or late delivery (first
    /// verified result wins).
    pub fn complete(&mut self, task: usize) -> bool {
        match self.completed.get_mut(task) {
            Some(done) if !*done => {
                *done = true;
                self.done += 1;
                true
            }
            _ => false,
        }
    }

    /// Whether `task` has already been merged.
    pub fn is_completed(&self, task: usize) -> bool {
        self.completed.get(task).copied().unwrap_or(false)
    }

    /// One failure of `task`: charge the attempt, back off, re-queue.
    pub fn record_failure(&mut self, task: usize, error: String) -> Result<(), FleetError> {
        let Some(attempts) = self.attempts.get_mut(task) else {
            return Ok(());
        };
        *attempts += 1;
        let attempts = *attempts;
        if let Some(slot) = self.last_error.get_mut(task) {
            *slot = error;
        }
        if attempts >= self.config.max_attempts {
            return Err(FleetError::TaskExhausted {
                task,
                last_error: self.last_error.get(task).cloned().unwrap_or_default(),
            });
        }
        let backoff = saturating_shl(self.config.backoff_base_ticks, attempts - 1)
            .min(self.config.backoff_cap_ticks);
        self.requeue(task, backoff);
        Ok(())
    }

    fn requeue(&mut self, task: usize, delay: u64) {
        self.retry.push_back(Retry {
            task,
            not_before: self.now + delay,
            queued_at: self.now,
        });
    }

    /// Whether `slot` may take work right now: alive, ready, and not a
    /// suspect (no unanswered heartbeat probe).
    fn open(&self, slot: usize) -> bool {
        self.slots
            .get(slot)
            .is_some_and(|s| s.alive && s.ready && s.probe.is_none())
    }

    /// Whether `slot` passes admission control for a task it does not
    /// hold right now: open, and its capped in-flight depth below
    /// [`ClusterConfig::max_inflight`]. A task it holds from its own
    /// plan or the retry queue needs only the first.
    pub fn assignable(&self, slot: usize) -> bool {
        self.open(slot)
            && self
                .slots
                .get(slot)
                .is_some_and(|s| s.capped_depth() < self.config.max_inflight.max(1))
    }

    /// Picks the next task for `slot` and marks it in-flight with a
    /// fresh deadline, or `None` when admission control defers the
    /// worker or no candidate is available. Preference order: tasks the
    /// worker already holds (retry queue, own plan, then stolen), then —
    /// once every initial worker has said `Hello` or the deadline has
    /// passed — unheld work, skipping tasks held by *another* alive,
    /// ready worker, which will claim them through its own affinity.
    /// Held tasks from the retry queue or the worker's own plan skip the
    /// depth cap, so a warm worker gets its whole held plan at once.
    pub fn next_assignment(&mut self, slot: usize) -> Option<usize> {
        loop {
            if !self.open(slot) {
                return None;
            }
            let (task, held) = self.pick_candidate(slot, self.assignable(slot))?;
            if self.is_completed(task) {
                // A stale retry copy of an already-merged task.
                continue;
            }
            let deadline = self.now + self.config.task_deadline_ticks;
            if let Some(s) = self.slots.get_mut(slot) {
                s.inflight.push(Busy {
                    task,
                    deadline,
                    held,
                });
            }
            return Some(task);
        }
    }

    /// Removes and returns the best candidate task for `slot`, and
    /// whether it skips the depth cap. Below the cap (`under_cap`) every
    /// step is open; at the cap only the held retry and own-plan steps.
    fn pick_candidate(&mut self, slot: usize, under_cap: bool) -> Option<(usize, bool)> {
        // 1. Oldest eligible retry entry this worker already holds.
        if let Some(pos) = self.best_retry(slot, true) {
            return self.retry.remove(pos).map(|r| (r.task, true));
        }
        // 2. First own-plan task this worker already holds.
        if let Some(pos) = self.plan_position(slot, |fp, held| held.contains(&fp)) {
            return self
                .slots
                .get_mut(slot)
                .and_then(|s| s.plan.remove(pos))
                .map(|task| (task, true));
        }
        if !under_cap {
            return None;
        }
        self.pick_capped(slot).map(|task| (task, false))
    }

    /// Removes and returns the best candidate for `slot` that counts
    /// against the depth cap.
    fn pick_capped(&mut self, slot: usize) -> Option<usize> {
        // 3. Steal a held task from any other surviving plan; capped, or
        // the first worker to say `Hello` would take every task it
        // shares with the others.
        if let Some((victim, pos)) = self.steal_position(slot, true) {
            return self.slots.get_mut(victim).and_then(|s| s.plan.remove(pos));
        }
        // 4–6. Unheld work, deferring tasks held by another alive,
        // ready worker (that holder will take them itself).
        if self.awaiting_hello() {
            return None;
        }
        if let Some(pos) = self.best_retry(slot, false) {
            return self.retry.remove(pos).map(|r| r.task);
        }
        let deferred = |fleet: &Fleet, fp: u64| fleet.held_elsewhere(slot, fp);
        if let Some(pos) = self.plan_position(slot, |fp, _| !deferred(self, fp)) {
            return self.slots.get_mut(slot).and_then(|s| s.plan.remove(pos));
        }
        if let Some((victim, pos)) = self.steal_position(slot, false) {
            return self.slots.get_mut(victim).and_then(|s| s.plan.remove(pos));
        }
        None
    }

    /// Index of the best eligible retry entry for `slot`: the oldest
    /// queued among those the worker holds (`held_only`), or — for the
    /// fallback pass — the oldest queued that no other alive, ready
    /// worker holds.
    fn best_retry(&self, slot: usize, held_only: bool) -> Option<usize> {
        let holds = |task: usize| {
            self.fingerprints
                .get(task)
                .is_some_and(|fp| self.slots.get(slot).is_some_and(|s| s.cached.contains(fp)))
        };
        let mut best: Option<(u64, usize)> = None;
        for (pos, entry) in self.retry.iter().enumerate() {
            if entry.not_before > self.now {
                continue;
            }
            if held_only {
                if !holds(entry.task) {
                    continue;
                }
            } else if !holds(entry.task) && self.task_held_elsewhere(slot, entry.task) {
                continue;
            }
            if best.is_none_or(|(age, _)| entry.queued_at < age) {
                best = Some((entry.queued_at, pos));
            }
        }
        best.map(|(_, pos)| pos)
    }

    /// First position in `slot`'s own plan whose task fingerprint
    /// satisfies `keep(fingerprint, slot's cached set)`.
    fn plan_position(
        &self,
        slot: usize,
        keep: impl Fn(u64, &BTreeSet<u64>) -> bool,
    ) -> Option<usize> {
        let s = self.slots.get(slot)?;
        s.plan.iter().position(|&task| {
            self.fingerprints
                .get(task)
                .is_some_and(|&fp| keep(fp, &s.cached))
        })
    }

    /// A steal target for `slot`: when `held_only`, any task in another
    /// surviving plan that `slot` already holds; otherwise the deepest
    /// position from the back of the longest surviving plan whose task
    /// is not held by another alive, ready worker.
    fn steal_position(&self, slot: usize, held_only: bool) -> Option<(usize, usize)> {
        if held_only {
            let held = &self.slots.get(slot)?.cached;
            for (victim, s) in self.slots.iter().enumerate() {
                if victim == slot || !s.alive {
                    continue;
                }
                if let Some(pos) = s.plan.iter().position(|&task| {
                    self.fingerprints
                        .get(task)
                        .is_some_and(|fp| held.contains(fp))
                }) {
                    return Some((victim, pos));
                }
            }
            return None;
        }
        let victim = (0..self.slots.len())
            .filter(|&w| w != slot && self.slots.get(w).is_some_and(|s| s.alive))
            .max_by_key(|&w| self.slots.get(w).map_or(0, |s| s.plan.len()))?;
        let plan = &self.slots.get(victim)?.plan;
        // Steal from the back (locality for the victim's own front), but
        // skip tasks another alive, ready worker holds.
        let pos = plan
            .iter()
            .rposition(|&task| !self.task_held_elsewhere(slot, task))?;
        Some((victim, pos))
    }

    /// Whether an alive initial worker has yet to say `Hello` within the
    /// deadline: until it does, it may hold any unheld task.
    fn awaiting_hello(&self) -> bool {
        self.now < HELLO_DEADLINE_TICKS
            && self
                .slots
                .iter()
                .take(self.initial)
                .any(|s| s.alive && !s.ready)
    }

    /// Whether `fingerprint` is held by an alive, ready worker other
    /// than `slot` — the deferral predicate for unheld dispatch.
    fn held_elsewhere(&self, slot: usize, fingerprint: u64) -> bool {
        self.slots
            .iter()
            .enumerate()
            .any(|(idx, s)| idx != slot && s.alive && s.ready && s.cached.contains(&fingerprint))
    }

    fn task_held_elsewhere(&self, slot: usize, task: usize) -> bool {
        self.fingerprints
            .get(task)
            .is_some_and(|&fp| self.held_elsewhere(slot, fp))
    }

    /// A quiet tick elapsed: advance time, expire deadlines, decide
    /// which idle workers to probe, and count a missed probe for each
    /// worker still silent past its `Hello` deadline. The caller performs
    /// the sends and passes each listed death to [`Fleet::death`].
    pub fn tick(&mut self) -> TickOutcome {
        self.now += 1;
        let mut out = TickOutcome::default();
        for (idx, s) in self.slots.iter().enumerate() {
            if s.alive && s.inflight.iter().any(|b| b.deadline <= self.now) {
                // Slow worker: reassign elsewhere. Its late result, if
                // it ever lands, is deduplicated by task index.
                out.deaths.push(idx);
            }
        }
        if self.now.is_multiple_of(self.config.heartbeat_every_ticks) {
            for idx in 0..self.slots.len() {
                if out.deaths.contains(&idx) {
                    continue;
                }
                let Some(s) = self.slots.get_mut(idx) else {
                    continue;
                };
                if !s.alive {
                    continue;
                }
                if !s.ready {
                    // Connected but silent past its `Hello` deadline:
                    // each period is a missed probe, none is sent.
                    if self.now >= s.created + HELLO_DEADLINE_TICKS {
                        s.missed += 1;
                        if s.missed > self.config.heartbeat_miss_limit {
                            out.deaths.push(idx);
                        }
                    }
                    continue;
                }
                if !s.inflight.is_empty() {
                    continue;
                }
                if s.probe.is_some() {
                    s.missed += 1;
                    if s.missed > self.config.heartbeat_miss_limit {
                        out.deaths.push(idx);
                        continue;
                    }
                }
                self.next_probe_seq += 1;
                s.probe = Some(self.next_probe_seq);
                out.probes.push((idx, self.next_probe_seq));
            }
        }
        out
    }

    /// Verifies task-set conservation: every incomplete task lives in
    /// exactly one place (one plan, one in-flight entry, or the retry
    /// queue), and a completed task has at most one stale copy still
    /// queued (it will be skipped at dispatch). Property tests call
    /// this after every operation, and the coordinator debug-asserts it
    /// after every event; release builds never run it.
    pub fn check_conservation(&self) -> Result<(), String> {
        let mut counts = vec![0usize; self.completed.len()];
        let mut record = |task: usize, what: &str| -> Result<(), String> {
            match counts.get_mut(task) {
                Some(n) => {
                    *n += 1;
                    Ok(())
                }
                None => Err(format!("{what} holds out-of-range task {task}")),
            }
        };
        for (idx, s) in self.slots.iter().enumerate() {
            if !s.alive && (!s.plan.is_empty() || !s.inflight.is_empty()) {
                return Err(format!("tombstoned slot {idx} still holds work"));
            }
            for &task in &s.plan {
                record(task, "a plan")?;
            }
            for b in &s.inflight {
                record(b.task, "an in-flight set")?;
            }
        }
        for entry in &self.retry {
            record(entry.task, "the retry queue")?;
        }
        for (task, &count) in counts.iter().enumerate() {
            let done = self.completed.get(task).copied().unwrap_or(false);
            match (done, count) {
                (false, 1) | (true, 0) | (true, 1) => {}
                (false, 0) => return Err(format!("incomplete task {task} is nowhere")),
                (_, n) => return Err(format!("task {task} appears {n} times")),
            }
        }
        let done = self.completed.iter().filter(|&&d| d).count();
        if done != self.done {
            return Err(format!("done counter {} != completed {done}", self.done));
        }
        Ok(())
    }
}

/// `value << shift`, saturating at `u64::MAX` instead of wrapping.
pub(crate) fn saturating_shl(value: u64, shift: u32) -> u64 {
    if shift >= 64 {
        u64::MAX
    } else {
        value.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> ClusterConfig {
        ClusterConfig::default()
    }

    fn ready_fleet(workers: usize, tasks: usize) -> Fleet {
        let mut fleet = Fleet::new(workers, (0..tasks as u64).collect(), config());
        for slot in 0..workers {
            fleet.hello(slot, &[]);
        }
        fleet
    }

    #[test]
    fn static_plans_cover_all_tasks_contiguously() {
        for workers in 1..6 {
            for tasks in 0..20 {
                let fleet = Fleet::new(workers, (0..tasks as u64).collect(), config());
                let all: Vec<usize> = fleet
                    .slots
                    .iter()
                    .flat_map(|s| s.plan.iter().copied())
                    .collect();
                assert_eq!(all, (0..tasks).collect::<Vec<_>>());
                fleet.check_conservation().unwrap();
            }
        }
    }

    #[test]
    fn empty_fleet_seeds_tasks_into_the_retry_queue() {
        // Regression: with 0 initial workers the tasks used to live in
        // no plan, no in-flight set, and no queue — unreachable by any
        // joiner, so a join-only elastic run hung forever.
        let mut fleet = Fleet::new(0, (0..4).collect(), config());
        fleet.check_conservation().unwrap();
        let joiner = fleet.join();
        fleet.hello(joiner, &[]);
        let mut drained = Vec::new();
        while let Some(task) = fleet.next_assignment(joiner) {
            drained.push(task);
            fleet.clear_inflight(joiner, task);
            fleet.complete(task);
        }
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 1, 2, 3], "joiner drains the whole batch");
        fleet.check_conservation().unwrap();
    }

    #[test]
    fn joiner_steals_from_surviving_plans() {
        let mut fleet = ready_fleet(1, 6);
        let joiner = fleet.join();
        assert!(!fleet.assignable(joiner), "not ready before hello");
        fleet.hello(joiner, &[]);
        let task = fleet.next_assignment(joiner).expect("steals work");
        assert!(task < 6);
        fleet.check_conservation().unwrap();
    }

    #[test]
    fn leave_requeues_inflight_without_charging_an_attempt() {
        let mut fleet = ready_fleet(1, 3);
        let task = fleet.next_assignment(0).unwrap();
        fleet.leave(0);
        fleet.check_conservation().unwrap();
        assert_eq!(fleet.attempts.get(task).copied(), Some(0));
        // The orphan is delayed by one base backoff; the joiner picks up
        // the rest of the plan immediately.
        let joiner = fleet.join();
        fleet.hello(joiner, &[]);
        for _ in 0..2 {
            let t = fleet.next_assignment(joiner).expect("plan remainder");
            assert_ne!(t, task, "backoff defers the orphan");
            fleet.clear_inflight(joiner, t);
            fleet.complete(t);
        }
        assert_eq!(fleet.next_assignment(joiner), None, "orphan still delayed");
        for _ in 0..config().backoff_base_ticks {
            fleet.tick();
        }
        assert_eq!(fleet.next_assignment(joiner), Some(task));
    }

    #[test]
    fn death_charges_one_attempt_and_can_exhaust() {
        let mut fleet = Fleet::new(1, vec![0], config());
        for round in 0..config().max_attempts {
            let joiner = if round == 0 { 0 } else { fleet.join() };
            // Tick past any backoff before `hello`: a not-yet-ready
            // slot is never probed, so it cannot become a suspect.
            for _ in 0..=config().backoff_cap_ticks {
                fleet.tick();
            }
            fleet.hello(joiner, &[]);
            assert_eq!(fleet.next_assignment(joiner), Some(0));
            let outcome = fleet.death(joiner);
            if round + 1 == config().max_attempts {
                assert!(matches!(
                    outcome,
                    Err(FleetError::TaskExhausted { task: 0, .. })
                ));
            } else {
                outcome.unwrap();
                fleet.check_conservation().unwrap();
            }
        }
    }

    #[test]
    fn admission_defers_suspects_and_caps_depth() {
        let mut fleet = ready_fleet(1, 4);
        assert!(fleet.assignable(0));
        fleet.next_assignment(0).unwrap();
        assert!(fleet.assignable(0), "the default depth is 2");
        fleet.next_assignment(0).unwrap();
        assert!(!fleet.assignable(0), "depth cap of 2 reached");
        // An idle worker with an outstanding probe is a suspect.
        let mut fleet = ready_fleet(1, 0);
        let mut out = TickOutcome::default();
        for _ in 0..config().heartbeat_every_ticks {
            out = fleet.tick();
        }
        assert_eq!(out.probes.len(), 1);
        assert!(!fleet.assignable(0), "suspect sheds load");
        fleet.heartbeat(0, out.probes[0].1);
        assert!(fleet.assignable(0));
    }

    /// Takes assignments for `slot` until admission control says no.
    fn burst(fleet: &mut Fleet, slot: usize) -> Vec<usize> {
        std::iter::from_fn(|| fleet.next_assignment(slot)).collect()
    }

    #[test]
    fn a_held_plan_skips_the_depth_cap_and_nothing_else_does() {
        // Worker 0 plans tasks 0-4 and holds all five; worker 1 plans
        // 5-9 and holds none of them.
        let fps: Vec<u64> = (100..110).collect();
        let mut fleet = Fleet::new(2, fps.clone(), config());
        fleet.hello(0, &fps[..5]);
        fleet.hello(1, &[]);
        // The whole held plan goes out in one dispatch; unheld steals
        // from worker 1's plan then stop at the default depth of 2.
        assert_eq!(burst(&mut fleet, 0), vec![0, 1, 2, 3, 4, 9, 8]);
        assert!(!fleet.assignable(0));
        // Worker 1's own unheld plan stops at the cap too.
        assert_eq!(burst(&mut fleet, 1), vec![5, 6]);
        fleet.clear_inflight(1, 5);
        fleet.complete(5);
        assert_eq!(burst(&mut fleet, 1), vec![7]);
        fleet.check_conservation().unwrap();

        // Held steals stay under the cap: a worker holding every task
        // takes its own plan and then only two of the other plan's,
        // which is left to its own holder.
        let fps: Vec<u64> = (100..108).collect();
        let mut fleet = Fleet::new(2, fps.clone(), config());
        fleet.hello(0, &fps);
        assert_eq!(burst(&mut fleet, 0), vec![0, 1, 2, 3, 4, 5]);
        fleet.hello(1, &fps);
        assert_eq!(burst(&mut fleet, 1), vec![6, 7]);
        fleet.check_conservation().unwrap();
    }

    #[test]
    fn a_held_retry_skips_the_depth_cap() {
        let fps: Vec<u64> = (100..106).collect();
        let mut fleet = Fleet::new(2, fps.clone(), config());
        fleet.hello(0, &[]);
        fleet.hello(1, &fps);
        // Worker 0 dies with its unheld plan untouched; the holder takes
        // the re-queued tasks past the cap, beside its own plan.
        fleet.death(0).unwrap();
        assert_eq!(burst(&mut fleet, 1), vec![0, 1, 2, 3, 4, 5]);
        fleet.check_conservation().unwrap();
    }

    #[test]
    fn a_result_restarts_the_deadline_of_the_task_queued_behind_it() {
        let deadline = config().task_deadline_ticks;
        let mut fleet = ready_fleet(1, 3);
        let ahead = fleet.next_assignment(0).unwrap();
        let queued = fleet.next_assignment(0).unwrap();
        // The task ahead takes all but one tick of the deadline.
        let quiet_tick = |fleet: &mut Fleet| {
            let out = fleet.tick();
            for (slot, seq) in out.probes {
                fleet.heartbeat(slot, seq);
            }
            out.deaths
        };
        for _ in 1..deadline {
            assert!(quiet_tick(&mut fleet).is_empty());
        }
        fleet.clear_inflight(0, ahead);
        fleet.complete(ahead);
        // The queued task gets a full deadline from the result on.
        for _ in 1..deadline {
            assert!(
                quiet_tick(&mut fleet).is_empty(),
                "queued task expired early"
            );
        }
        assert_eq!(
            quiet_tick(&mut fleet),
            vec![0],
            "the restarted deadline still binds"
        );
        fleet.death(0).unwrap();
        assert_eq!(fleet.attempts.get(queued).copied(), Some(1));
        fleet.check_conservation().unwrap();
    }

    #[test]
    fn affinity_prefers_and_defers_held_tasks() {
        let mut fleet = Fleet::new(2, vec![100, 200, 300, 400], config());
        fleet.hello(0, &[300]);
        fleet.hello(1, &[200]);
        // Worker 0's plan is [0,1]; it holds task 2's fingerprint, which
        // sits in worker 1's plan — stolen first by affinity.
        assert_eq!(fleet.next_assignment(0), Some(2));
        // Worker 0's own task 1 is held by worker 1 — deferred; it takes
        // its unheld task 0 instead (after completing task 2).
        fleet.clear_inflight(0, 2);
        fleet.complete(2);
        assert_eq!(fleet.next_assignment(0), Some(0));
        // Worker 1 claims its held task 1 out of worker 0's plan.
        assert_eq!(fleet.next_assignment(1), Some(1));
        fleet.check_conservation().unwrap();
    }

    /// Assigns and completes tasks for `slot` until none is offered.
    fn drain_slot(fleet: &mut Fleet, slot: usize) -> Vec<usize> {
        let mut order = Vec::new();
        while let Some(task) = fleet.next_assignment(slot) {
            order.push(task);
            fleet.clear_inflight(slot, task);
            fleet.complete(task);
        }
        order
    }

    #[test]
    fn unheld_dispatch_waits_for_every_initial_hello() {
        // Worker 1 caches tasks 2-3, but its Hello is still in flight.
        // Worker 0 must not take them as unheld work in the meantime.
        let mut fleet = Fleet::new(2, vec![100, 200, 300, 400], config());
        fleet.hello(0, &[100, 200]);
        assert_eq!(drain_slot(&mut fleet, 0), vec![0, 1]);
        fleet.hello(1, &[300, 400]);
        assert_eq!(drain_slot(&mut fleet, 1), vec![2, 3]);
        fleet.check_conservation().unwrap();
    }

    #[test]
    fn hello_wait_ends_at_the_deadline() {
        // A worker that never says Hello stops holding work back once
        // the deadline passes.
        let mut fleet = Fleet::new(2, vec![100, 200, 300, 400], config());
        fleet.hello(0, &[100, 200]);
        assert_eq!(drain_slot(&mut fleet, 0), vec![0, 1]);
        let tick = |fleet: &mut Fleet| {
            for (slot, seq) in fleet.tick().probes {
                fleet.heartbeat(slot, seq);
            }
        };
        for _ in 1..HELLO_DEADLINE_TICKS {
            tick(&mut fleet);
            assert_eq!(fleet.next_assignment(0), None);
        }
        tick(&mut fleet);
        assert_eq!(drain_slot(&mut fleet, 0), vec![3, 2]);
        fleet.check_conservation().unwrap();
    }

    #[test]
    fn a_silent_joiner_dies_on_its_own_hello_deadline() {
        // The deadline runs from the join tick, not from the run's start.
        let config = config();
        let mut fleet = ready_fleet(1, 2);
        let tick = |fleet: &mut Fleet| {
            let out = fleet.tick();
            for &(slot, seq) in &out.probes {
                fleet.heartbeat(slot, seq);
            }
            out.deaths
        };
        for _ in 0..3 * HELLO_DEADLINE_TICKS {
            assert!(tick(&mut fleet).is_empty());
        }
        let joiner = fleet.join();
        let every = config.heartbeat_every_ticks;
        let first_miss = (fleet.now + HELLO_DEADLINE_TICKS).div_ceil(every) * every;
        let dies_at = first_miss + u64::from(config.heartbeat_miss_limit) * every;
        while fleet.now + 1 < dies_at {
            assert!(tick(&mut fleet).is_empty(), "tick {}", fleet.now);
        }
        assert_eq!(tick(&mut fleet), vec![joiner]);
    }

    #[test]
    fn a_late_hello_forgives_the_silent_misses() {
        // Slot 1 says `Hello` one tick before it would die, then stops
        // answering probes: it gets the full miss limit of an idle worker.
        let config = config();
        let every = config.heartbeat_every_ticks;
        let limit = u64::from(config.heartbeat_miss_limit);
        let mut fleet = Fleet::new(2, vec![100, 200], config);
        fleet.hello(0, &[]);
        let dies_at = HELLO_DEADLINE_TICKS.div_ceil(every) * every + limit * every;
        let tick = |fleet: &mut Fleet| {
            let out = fleet.tick();
            for &(slot, seq) in out.probes.iter().filter(|&&(slot, _)| slot == 0) {
                fleet.heartbeat(slot, seq);
            }
            out.deaths
        };
        while fleet.now + 1 < dies_at {
            assert!(tick(&mut fleet).is_empty(), "tick {}", fleet.now);
        }
        fleet.hello(1, &[]);
        let hello_at = fleet.now;
        let deaths = loop {
            let deaths = tick(&mut fleet);
            if !deaths.is_empty() {
                break deaths;
            }
        };
        assert_eq!(deaths, vec![1]);
        // One period to the first probe, then `limit + 1` unanswered.
        assert!(
            fleet.now - hello_at > (limit + 1) * every,
            "tick {}",
            fleet.now
        );
    }

    #[test]
    fn deferral_lapses_when_the_holder_dies() {
        let mut fleet = Fleet::new(2, vec![100, 200], config());
        fleet.hello(0, &[]);
        fleet.hello(1, &[100, 200]);
        fleet.next_assignment(1).unwrap();
        // Both remaining tasks are held by worker 1 — worker 0 defers.
        assert_eq!(fleet.next_assignment(0), None);
        fleet.death(1).unwrap();
        fleet.check_conservation().unwrap();
        // The holder is gone; worker 0 now takes whatever is eligible.
        assert!(fleet.next_assignment(0).is_some());
    }

    #[test]
    fn replica_targets_ring_skips_holders_and_dead_slots() {
        let mut config = config();
        config.replication = 2;
        let mut fleet = Fleet::new(4, vec![7], config);
        for slot in 0..4 {
            fleet.hello(slot, &[]);
        }
        fleet.record_replica(2, 7);
        fleet.death(1).unwrap();
        // Ring from slot 0: 1 is dead, 2 already holds it, 3 remains.
        assert_eq!(fleet.replica_targets(0, 7), vec![3]);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        assert_eq!(saturating_shl(2, 0), 2);
        assert_eq!(saturating_shl(2, 3), 16);
        assert_eq!(saturating_shl(2, 100), u64::MAX);
    }

    #[test]
    fn retry_dispatch_is_queue_age_ordered() {
        let mut fleet = ready_fleet(1, 3);
        let first = fleet.next_assignment(0).unwrap();
        fleet.unassign(0, first);
        fleet.tick();
        let second = fleet.next_assignment(0).unwrap();
        assert_eq!(second, first, "oldest queued entry dispatches first");
        fleet.unassign(0, second);
        fleet.check_conservation().unwrap();
    }
}
