//! Property tests for the [`Fleet`] membership state machine: under
//! **arbitrary** interleavings of joins, hellos, clean leaves,
//! heartbeat deaths, ticks, assignments, completions, and failures,
//! the task set is conserved — every incomplete task lives in exactly
//! one queue, no task is ever duplicated or dropped — and once the
//! churn stops, one fresh worker (plus any survivors) can always drain
//! the fleet to completion.

use bdb_cluster::{ClusterConfig, Fleet};
use proptest::prelude::*;
use std::time::Duration;

/// One membership / scheduling event. Indices are seeds, reduced
/// modulo the live population when applied, so every generated
/// sequence is interpretable against every fleet shape.
#[derive(Debug, Clone)]
enum Op {
    /// Add an empty slot (a transport appeared on the join channel).
    Join,
    /// Worker `seed % slots` sends (or re-sends) its Hello, advertising
    /// the task fingerprints whose bits are set in the mask.
    Hello(usize, u64),
    /// Worker `seed % slots` leaves cleanly with Bye.
    Bye(usize),
    /// Worker `seed % slots` dies (EOF / heartbeat miss / deadline).
    Death(usize),
    /// One coordinator tick: deadlines and heartbeat probes fire.
    Tick,
    /// Answer the `seed % probes`-th outstanding heartbeat probe.
    Heartbeat(usize),
    /// Ask for the next assignment for worker `seed % slots`.
    Assign(usize),
    /// The `seed % outstanding`-th assignment returns a verified result.
    Complete(usize),
    /// The `seed % outstanding`-th assignment fails verification.
    Fail(usize),
}

/// The op strategy. The shim's `prop_oneof!` draws uniformly, so the
/// scheduling-heavy ops (tick/assign/complete) appear more than once to
/// keep generated runs from being pure membership noise.
fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Join),
        (any::<usize>(), any::<u64>()).prop_map(|(seed, mask)| Op::Hello(seed, mask)),
        (any::<usize>(), any::<u64>()).prop_map(|(seed, mask)| Op::Hello(seed, mask)),
        any::<usize>().prop_map(Op::Bye),
        any::<usize>().prop_map(Op::Death),
        Just(Op::Tick),
        Just(Op::Tick),
        Just(Op::Tick),
        any::<usize>().prop_map(Op::Heartbeat),
        any::<usize>().prop_map(Op::Assign),
        any::<usize>().prop_map(Op::Assign),
        any::<usize>().prop_map(Op::Assign),
        any::<usize>().prop_map(Op::Complete),
        any::<usize>().prop_map(Op::Complete),
        any::<usize>().prop_map(Op::Fail),
    ]
}

/// Fleet tunables with in-flight depth `max_inflight`.
fn config(max_inflight: usize) -> ClusterConfig {
    ClusterConfig {
        tick: Duration::from_millis(1),
        task_deadline_ticks: 25,
        heartbeat_every_ticks: 10,
        heartbeat_miss_limit: 2,
        max_attempts: 6,
        max_inflight,
        ..ClusterConfig::default()
    }
}

/// The fingerprints a `Hello` with `mask` advertises: task `t`'s when
/// bit `t` is set, so affinity, deferral and the held bypass of the
/// depth cap all see random holders.
fn advertised(fingerprints: &[u64], mask: u64) -> Vec<u64> {
    fingerprints
        .iter()
        .enumerate()
        .filter(|&(t, _)| mask >> (t % 64) & 1 == 1)
        .map(|(_, &fp)| fp)
        .collect()
}

fn conserve(fleet: &Fleet, context: &str) {
    if let Err(e) = fleet.check_conservation() {
        panic!("conservation broken {context}: {e}");
    }
}

/// Applies `ops` to the fleet, checking conservation after every
/// single step. Returns the outstanding `(slot, task)` assignments the
/// interpreter issued, or `None` if the run aborted on task exhaustion
/// (a legal terminal state: `record_failure` surfaces `TaskExhausted`,
/// the coordinator stops the run, and conservation no longer binds —
/// the exhausted task has left every queue by design).
fn run_ops(fleet: &mut Fleet, fingerprints: &[u64], ops: &[Op]) -> Option<Vec<(usize, usize)>> {
    let mut outstanding: Vec<(usize, usize)> = Vec::new();
    let mut probes: Vec<(usize, u64)> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        // A join-only start has no slot to address until the first Join.
        if fleet.slot_count() == 0
            && matches!(
                op,
                Op::Hello(..) | Op::Bye(_) | Op::Death(_) | Op::Assign(_)
            )
        {
            continue;
        }
        match op {
            Op::Join => {
                fleet.join();
            }
            Op::Hello(seed, mask) => {
                let slot = seed % fleet.slot_count();
                fleet.hello(slot, &advertised(fingerprints, *mask));
            }
            Op::Bye(seed) => {
                let slot = seed % fleet.slot_count();
                fleet.leave(slot);
                outstanding.retain(|&(s, _)| s != slot);
            }
            Op::Death(seed) => {
                let slot = seed % fleet.slot_count();
                if fleet.death(slot).is_err() {
                    return None;
                }
                outstanding.retain(|&(s, _)| s != slot);
            }
            Op::Tick => {
                let out = fleet.tick();
                probes.extend(out.probes.iter().copied());
                for slot in out.deaths {
                    if fleet.death(slot).is_err() {
                        return None;
                    }
                    outstanding.retain(|&(s, _)| s != slot);
                }
            }
            Op::Heartbeat(seed) => {
                if !probes.is_empty() {
                    let (slot, seq) = probes.swap_remove(seed % probes.len());
                    fleet.heartbeat(slot, seq);
                }
            }
            Op::Assign(seed) => {
                let slot = seed % fleet.slot_count();
                if let Some(task) = fleet.next_assignment(slot) {
                    outstanding.push((slot, task));
                }
            }
            Op::Complete(seed) => {
                if !outstanding.is_empty() {
                    let (slot, task) = outstanding.swap_remove(seed % outstanding.len());
                    fleet.clear_inflight(slot, task);
                    fleet.complete(task);
                }
            }
            Op::Fail(seed) => {
                if !outstanding.is_empty() {
                    let (slot, task) = outstanding.swap_remove(seed % outstanding.len());
                    fleet.clear_inflight(slot, task);
                    if fleet
                        .record_failure(task, "injected verification failure".to_owned())
                        .is_err()
                    {
                        return None;
                    }
                }
            }
        }
        conserve(fleet, &format!("after step {step} ({op:?})"));
    }
    Some(outstanding)
}

/// Resolves leftover assignments, joins one fresh worker, and drives
/// the fleet until every task is done, checking conservation along the
/// way. Exhaustion mid-drain aborts the drain (legal terminal state).
fn drain(fleet: &mut Fleet, outstanding: Vec<(usize, usize)>) {
    for (slot, task) in outstanding {
        fleet.clear_inflight(slot, task);
        fleet.complete(task);
        conserve(fleet, "resolving a leftover assignment");
    }
    let fresh = fleet.join();
    fleet.hello(fresh, &[]);
    conserve(fleet, "after the fresh join");
    let mut idle_ticks = 0usize;
    while fleet.done() < fleet.task_count() {
        let mut progress = false;
        for slot in 0..fleet.slot_count() {
            while let Some(task) = fleet.next_assignment(slot) {
                fleet.clear_inflight(slot, task);
                fleet.complete(task);
                progress = true;
                conserve(fleet, "during the drain");
            }
        }
        if progress {
            idle_ticks = 0;
            continue;
        }
        // No slot is assignable: retry backoffs or heartbeat probes are
        // pending. Ticks resolve both; the guard bounds the whole drain
        // (backoff caps at 64 ticks, probes at every 10).
        idle_ticks += 1;
        assert!(
            idle_ticks < 10_000,
            "drain stalled: {} of {} tasks done",
            fleet.done(),
            fleet.task_count()
        );
        let out = fleet.tick();
        for (slot, seq) in out.probes {
            fleet.heartbeat(slot, seq);
        }
        for slot in out.deaths {
            if fleet.death(slot).is_err() {
                return; // exhausted: the run would abort here
            }
        }
        conserve(fleet, "after a drain tick");
    }
    assert_eq!(fleet.done(), fleet.task_count());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The conservation invariant holds after EVERY membership and
    /// scheduling event, and any surviving fleet drains to completion.
    /// `workers` starts at 0: a join-only fleet must still conserve
    /// (its tasks are seeded into the retry queue) and drain. `depth`
    /// covers both a one-deep fleet and the default two-deep pipeline.
    #[test]
    fn task_set_is_conserved_under_arbitrary_membership_churn(
        workers in 0usize..4,
        depth in 1usize..3,
        tasks in 1usize..12,
        hellos in proptest::collection::vec((any::<usize>(), any::<u64>()), 0..4),
        ops in proptest::collection::vec(op(), 0..60),
    ) {
        // Distinct fingerprints so affinity bookkeeping is exercised.
        let fingerprints: Vec<u64> =
            (0..tasks as u64).map(|t| t.wrapping_mul(0x9e37_79b9)).collect();
        let mut fleet = Fleet::new(workers, fingerprints.clone(), config(depth));
        conserve(&fleet, "on the fresh fleet");
        for (seed, mask) in hellos {
            if fleet.slot_count() > 0 {
                fleet.hello(seed % fleet.slot_count(), &advertised(&fingerprints, mask));
            }
        }
        conserve(&fleet, "after the initial hellos");
        if let Some(outstanding) = run_ops(&mut fleet, &fingerprints, &ops) {
            drain(&mut fleet, outstanding);
        }
        // `None` = the run aborted on TaskExhausted, a legal terminal.
    }
}
