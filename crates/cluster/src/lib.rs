//! `bdb-cluster` — distributed coordinator/worker execution of the
//! trace → sim → wcrt profiling fleet.
//!
//! The paper's characterization sweep profiles 77 workloads; locally the
//! [`bdb_engine::Engine`] fans that out over threads. This crate shards
//! the same task batch across *processes* (loopback channels in tests,
//! TCP workers in real runs) and merges the results **byte-identically**
//! to a serial engine run — the same canonical JSON, in the same task
//! order, regardless of worker count, stealing, retries, crashes, or
//! duplicated frames.
//!
//! Layers, bottom up:
//!
//! * [`proto`] — the six-message protocol (`Hello`/`Assign`/`Result`/
//!   `Replicate`/`Heartbeat`/`Bye`, v4) as `bdb-engine` canonical value
//!   trees, with a result's cache-entry record or an assignment's
//!   shared config record carried beside its header.
//! * [`wire`] — 4-byte length-prefixed framing of BDBC records (a header
//!   record, then a successful result's entry record or an assignment's
//!   config record verbatim) with a size cap and a strict
//!   truncated-stream error.
//! * [`transport`] — the frame-level [`Transport`] trait (send whole
//!   frames, receive one payload with an optional timeout, say whether a
//!   frame is already buffered), with the message calls provided on top
//!   through [`wire`], plus the in-process loopback implementation;
//!   [`tcp`] adds the std-only blocking TCP implementation (no async
//!   runtime). `bdb-serve` runs its own payloads over the same trait.
//! * [`fault`] — [`FaultPlan`] injection (connection drops, delays,
//!   worker crashes, duplicated results) applied per frame, for
//!   exercising recovery paths.
//! * [`worker`] — the blocking serve loop around a local cache-aware
//!   engine; advertises its warm cache in `Hello`, answers warm tasks
//!   by key with their entry bytes undecoded (no config decode), and
//!   admits `Replicate` pushes into its cache.
//! * [`fleet`] — the pure membership + scheduling state machine: live
//!   join/leave, admission control (in-flight depth of unheld work,
//!   suspect deferral),
//!   replica affinity, capped-exponential-backoff retry.
//! * [`coordinator`] — a sans-IO core over [`fleet`]: static chunking +
//!   work stealing, two-deep dispatch of unheld work and whole held
//!   plans in one send, one config record per distinct config, tick
//!   deadlines and heartbeats, fingerprint-verified deduplicating merge
//!   and replica pushes; [`Coordinator::run_elastic`], the one entry
//!   point, drives it from transports.
//!
//! # Example (three in-process workers)
//!
//! ```
//! use bdb_cluster::{loopback_pair, run_worker, WorkerConfig};
//! use bdb_cluster::{ClusterConfig, Coordinator, Transport};
//! use bdb_engine::{Engine, Task};
//! use bdb_node::NodeConfig;
//! use bdb_sim::MachineConfig;
//! use bdb_workloads::{catalog, Scale};
//! use std::sync::Arc;
//!
//! let mut ends = Vec::new();
//! for i in 0..3 {
//!     let (coord_end, worker_end) = loopback_pair();
//!     std::thread::spawn(move || {
//!         let engine = Engine::in_memory();
//!         run_worker(&worker_end, &engine, &WorkerConfig::named(&format!("w{i}")))
//!     });
//!     ends.push(Arc::new(coord_end) as Arc<dyn Transport>);
//! }
//! let workloads = catalog::full_catalog();
//! let tasks: Vec<Task> = workloads
//!     .iter()
//!     .take(6)
//!     .map(|w| Task::new(w, Scale::tiny(), &MachineConfig::xeon_e5645(), &NodeConfig::default()))
//!     .collect();
//! let (_, joins) = std::sync::mpsc::channel(); // sender dropped: fixed membership
//! let profiles = Coordinator::new(ClusterConfig::default()).run_elastic(ends, joins, &tasks);
//! assert_eq!(profiles.unwrap().len(), 6);
//! ```

pub mod coordinator;
pub mod fault;
pub mod fleet;
pub mod help;
pub mod proto;
pub mod tcp;
pub mod transport;
pub mod wire;
pub mod worker;

pub use coordinator::{ClusterConfig, ClusterError, Coordinator};
pub use fault::{FaultPlan, FaultyTransport};
pub use fleet::{Fleet, FleetError};
pub use help::help_text as daemon_help_text;
pub use help::DAEMON_ENGINE_ENV;
pub use proto::{Message, PROTOCOL_VERSION};
pub use tcp::TcpTransport;
pub use transport::{loopback_pair, LoopbackTransport, Transport, TransportError};
pub use wire::{WireError, MAX_FRAME_BYTES};
pub use worker::{run_worker, WorkerConfig, WorkerError};

use bdb_engine::Task;
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_wcrt::WorkloadProfile;
use bdb_workloads::{Scale, WorkloadDef};
use std::sync::Arc;

/// Builds the task batch for a workload sweep: one [`Task`] per workload,
/// all on the same scale/machine/node — the distributed analogue of
/// [`bdb_engine::Engine::profile_all`].
pub fn fleet_tasks(
    workloads: &[WorkloadDef],
    scale: Scale,
    machine: &MachineConfig,
    node: &NodeConfig,
) -> Vec<Task> {
    workloads
        .iter()
        .map(|w| Task::new(w, scale, machine, node))
        .collect()
}

/// Profiles `workloads` across `workers` with default cluster tunables,
/// returning profiles in workload order (byte-identical to a local
/// engine run).
pub fn profile_all_distributed(
    workers: Vec<Arc<dyn Transport>>,
    workloads: &[WorkloadDef],
    scale: Scale,
    machine: &MachineConfig,
    node: &NodeConfig,
) -> Result<Vec<WorkloadProfile>, ClusterError> {
    let tasks = fleet_tasks(workloads, scale, machine, node);
    let (_, joins) = std::sync::mpsc::channel();
    Coordinator::new(ClusterConfig::default()).run_elastic(workers, joins, &tasks)
}
