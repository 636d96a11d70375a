//! TCP end-to-end smoke: real sockets, real frames, one crashing
//! worker — the in-process twin of CI's multi-process cluster job.

use bdb_cluster::{
    fleet_tasks, run_worker, ClusterConfig, Coordinator, FaultPlan, FaultyTransport, TcpTransport,
    Transport, WorkerConfig,
};
use bdb_engine::codec::profile_to_value;
use bdb_engine::Engine;
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_workloads::{catalog, Scale, WorkloadDef};
use std::net::TcpListener;
use std::sync::mpsc::{channel, Receiver};
use std::sync::Arc;
use std::time::Duration;

/// A join channel whose sender is gone: fixed membership.
fn closed_joins() -> Receiver<Arc<dyn Transport>> {
    let (_, joins) = channel();
    joins
}

/// Binds an ephemeral port, serves exactly one worker session on it in a
/// background thread, and returns the address to dial.
fn spawn_tcp_worker(name: &'static str, faults: FaultPlan) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("accept");
        let transport = FaultyTransport::new(
            TcpTransport::from_stream(stream, "coordinator").expect("wrap stream"),
            faults.clone(),
        );
        let engine = Engine::in_memory();
        let config = WorkerConfig {
            name: name.to_owned(),
            faults,
        };
        let _ = run_worker(&transport, &engine, &config);
    });
    addr
}

#[test]
fn tcp_fleet_with_one_crash_matches_serial_bytes() {
    let workloads: Vec<WorkloadDef> = catalog::full_catalog().into_iter().take(12).collect();
    let scale = Scale::tiny();
    let machine = MachineConfig::xeon_e5645();
    let node = NodeConfig::default();

    let serial: Vec<String> = Engine::serial()
        .profile_all(&workloads, scale, &machine, &node)
        .iter()
        .map(|p| profile_to_value(p).encode())
        .collect();

    let addrs = [
        spawn_tcp_worker("t0", FaultPlan::default()),
        spawn_tcp_worker(
            "t1",
            FaultPlan {
                crash_on_task: Some(2),
                ..FaultPlan::default()
            },
        ),
        spawn_tcp_worker("t2", FaultPlan::default()),
    ];
    let workers: Vec<Arc<dyn Transport>> = addrs
        .iter()
        .map(|addr| {
            Arc::new(TcpTransport::connect(addr, Duration::from_secs(10)).expect("dial worker"))
                as Arc<dyn Transport>
        })
        .collect();

    let tasks = fleet_tasks(&workloads, scale, &machine, &node);
    let config = ClusterConfig {
        tick: Duration::from_millis(5),
        ..ClusterConfig::default()
    };
    let profiles = Coordinator::new(config)
        .run_elastic(workers, closed_joins(), &tasks)
        .expect("TCP fleet must converge despite the crash");
    let distributed: Vec<String> = profiles
        .iter()
        .map(|p| profile_to_value(p).encode())
        .collect();
    assert_eq!(distributed, serial);
}
