//! `bdb-serve` — profiling-as-a-service with incremental delta
//! recomputation.
//!
//! The batch tools (`bdb-bench` bins, `bdb-cluster` fleets) answer one
//! question per process: build an engine, profile a catalog, print, exit.
//! This crate keeps the answer *resident*: a daemon materializes the
//! full workload × machine-config profile catalog once, then serves
//! point queries from memory and absorbs spec changes by recomputing
//! **only the entries a change actually invalidates** — never the whole
//! catalog — streaming `Created`/`Updated`/`Deleted` deltas to
//! subscribed clients.
//!
//! Layers, bottom up:
//!
//! * [`spec`] — [`ServeSpec`], the served catalog description (machine
//!   configs × workload ids at one scale), plus the [`Mutation`] algebra
//!   that edits it.
//! * [`knob`] — dotted-path knob edits (`l1d.size_bytes=65536`) applied
//!   to a machine config through its canonical JSON form, so every
//!   tunable the codec knows is reachable without per-field plumbing.
//! * [`index`] — the [`DepIndex`] mapping each catalog entry to its
//!   content fingerprint; diffing two indexes yields exactly the
//!   created/removed/changed entry sets a mutation implies.
//! * [`state`] — [`ServeState`], the materialized catalog riding a
//!   [`bdb_engine::Engine`]: applies mutations, recomputes the affected
//!   slice across the engine's worker threads, and emits ordered
//!   [`DeltaBatch`]es.
//! * [`proto`] — the request/reply protocol, encoded as checksummed
//!   BDBC records (`ServeRequest`/`ServeDelta` kinds) on the same
//!   length-prefixed frames as the cluster wire.
//! * [`server`] / [`client`] — the blocking TCP daemon (thread per
//!   session, subscription fan-out, warm restart from the engine's
//!   crash-safe cache) and the matching client.
//!
//! The governing contract, proven by tests and the `serve_smoke.sh`
//! harness: after any sequence of mutations, the materialized catalog is
//! **byte-identical** to a cold full recompute of the final spec, and
//! applying the streamed deltas to a stale snapshot reproduces the same
//! bytes.
//!
//! # Example (in-process, no sockets)
//!
//! ```
//! use bdb_engine::Engine;
//! use bdb_serve::{Mutation, ServeSpec, ServeState};
//! use bdb_workloads::Scale;
//! use std::sync::Arc;
//!
//! let spec = ServeSpec::representatives(Scale::tiny());
//! let mut state = ServeState::materialize(Arc::new(Engine::in_memory()), spec).unwrap();
//! let entries = state.len();
//! let batch = state
//!     .apply(&Mutation::SetKnob {
//!         config: "xeon-e5645".to_owned(),
//!         knob: "l1d.size_bytes".to_owned(),
//!         value: bdb_engine::json::Value::UInt(65536),
//!     })
//!     .unwrap();
//! assert!(!batch.deltas.is_empty() && batch.deltas.len() <= entries);
//! ```

pub mod client;
pub mod index;
pub mod knob;
pub mod proto;
pub mod server;
pub mod spec;
pub mod state;

pub use client::{apply_delta_batch, MutateOutcome, ServeClient, SessionInfo};
pub use index::{DepIndex, IndexDiff};
pub use knob::{apply_machine_knob, machine_knobs};
pub use proto::{
    decode_reply, decode_request, encode_reply, encode_request, ServeReply, ServeRequest,
    ServeStats, SnapshotEntry, SERVE_PROTOCOL_VERSION,
};
pub use server::{Server, ServerConfig, RETRY_QUANTUM_TICKS};
pub use spec::{EntryKey, Mutation, ServeSpec};
pub use state::{Delta, DeltaBatch, ServeState};

use bdb_cluster::TransportError;

/// Any failure raised by the serving layers: bad specs or mutations,
/// protocol violations, or transport faults.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A workload id that no catalog entry resolves.
    UnknownWorkload(String),
    /// A machine-config name absent from the spec.
    UnknownConfig(String),
    /// An entry key absent from the materialized catalog.
    UnknownEntry(String),
    /// Adding a workload id the spec already serves.
    DuplicateWorkload(String),
    /// Adding a machine-config name the spec already serves.
    DuplicateConfig(String),
    /// A knob path or value the machine-config codec rejects.
    BadKnob {
        /// The dotted path as given, e.g. `l1d.size_bytes`.
        path: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A structurally invalid mutation (e.g. non-positive scale).
    BadMutation(String),
    /// A payload that is not a valid serve message.
    Decode(String),
    /// A violation of the request/reply protocol.
    Protocol(String),
    /// A transport-level failure.
    Transport(TransportError),
    /// A socket-level failure outside any transport.
    Io(String),
    /// The server shed the session: too many concurrent clients. The
    /// refusal carries a deterministic, tick-denominated retry hint —
    /// graceful degradation, not a hard failure.
    ServerFull {
        /// The server's `BDB_SERVE_MAX_CLIENTS` cap.
        max_clients: u64,
        /// The server's suggested retry delay, in server ticks
        /// (proportional to how far over the cap it is).
        retry_after_ticks: u64,
    },
    /// An error reply relayed from the server.
    Remote(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownWorkload(id) => write!(f, "unknown workload {id:?}"),
            ServeError::UnknownConfig(name) => write!(f, "unknown machine config {name:?}"),
            ServeError::UnknownEntry(key) => write!(f, "no catalog entry {key:?}"),
            ServeError::DuplicateWorkload(id) => {
                write!(f, "workload {id:?} is already in the spec")
            }
            ServeError::DuplicateConfig(name) => {
                write!(f, "machine config {name:?} is already in the spec")
            }
            ServeError::BadKnob { path, reason } => write!(f, "bad knob {path:?}: {reason}"),
            ServeError::BadMutation(e) => write!(f, "bad mutation: {e}"),
            ServeError::Decode(e) => write!(f, "serve payload decode failed: {e}"),
            ServeError::Protocol(e) => write!(f, "protocol violation: {e}"),
            ServeError::Transport(e) => write!(f, "transport failure: {e}"),
            ServeError::Io(e) => write!(f, "socket failure: {e}"),
            ServeError::ServerFull {
                max_clients,
                retry_after_ticks,
            } => {
                write!(
                    f,
                    "server full ({max_clients} clients); retry after {retry_after_ticks} ticks"
                )
            }
            ServeError::Remote(e) => write!(f, "server replied with error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<TransportError> for ServeError {
    fn from(e: TransportError) -> Self {
        ServeError::Transport(e)
    }
}
