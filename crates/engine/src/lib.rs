//! Execution engine — the one way figures, tables, sweeps, and the 77→17
//! reduction obtain measurements.
//!
//! Every consumer used to call `bdb_wcrt::profile::profile_workload` (or
//! the `sweep` harness) directly and serially. The [`Engine`] wraps those
//! entry points with two orthogonal services:
//!
//! * **Parallel fan-out** — [`Engine::profile_all`] runs independent
//!   simulations on scoped worker threads, and [`Engine::sweep`] runs one
//!   sweep as a pipeline of them. Results are collected back into catalog
//!   order, so output is bit-identical to a serial run (the
//!   `profile_is_deterministic` contract extends to the parallel path:
//!   same inputs, same bytes, any thread count).
//! * **Profile cache** — profiling the full catalog at paper scale takes
//!   minutes; the 45-metric vector for a given (workload, scale, machine
//!   config, node config) never changes. The engine memoizes profiles in
//!   memory and, when a cache directory is configured, as one BDBC record
//!   per profile keyed by a content fingerprint. Re-running a figure
//!   binary after changing only presentation code touches no simulation.
//!
//! Persistence is crash-safe and integrity-checked (DESIGN.md §14):
//! every filesystem access flows through the [`store::CacheStore`] seam
//! (real backend or a seeded fault-injecting [`ChaosFs`]), cache entries
//! carry a CRC-64 content checksum and are moved to a `quarantine/`
//! subdirectory when verification fails — never silently reused or
//! recomputed over. Resuming an interrupted run is reading a warm
//! cache: every finished profile and sweep is already an entry.
//!
//! Capacity sweeps run the workload generator exactly **once**: its
//! events stream into capacity-independent L1 event streams, which are
//! replayed per capacity (trace-once/replay-many, DESIGN.md §13) across
//! a pipeline as wide as the pool. The per-point reference,
//! [`bdb_sim::sweep_per_point`], is the oracle it matches bit for bit.
//! [`Engine::sweep_workload`] sweeps a catalog workload and caches the
//! result under a [`sweep_fingerprint`] of its content, next to the
//! profiles; [`Engine::sweep`] is the uncached primitive over an
//! arbitrary trace closure, which cannot be fingerprinted.
//!
//! # Examples
//!
//! ```
//! use bdb_engine::Engine;
//! use bdb_node::NodeConfig;
//! use bdb_sim::MachineConfig;
//! use bdb_workloads::{catalog, Scale};
//!
//! let engine = Engine::in_memory();
//! let reps = catalog::representatives();
//! let profiles = engine.profile_all(
//!     &reps[..2],
//!     Scale::tiny(),
//!     &MachineConfig::xeon_e5645(),
//!     &NodeConfig::default(),
//! );
//! assert_eq!(profiles.len(), 2);
//! assert_eq!(profiles[0].spec.id, reps[0].spec.id);
//! ```

pub mod codec;
pub mod json;
pub mod store;
pub mod task;

pub use store::{
    crc64, CacheStore, ChaosCounters, ChaosFs, ChaosPlan, FileMeta, RealFs, StoreError,
};
pub use task::{resolve_workload, Task, TaskError, TaskResult};

use bdb_codec::bval::ValueRef;
use bdb_node::NodeConfig;
use bdb_sim::{assemble_sweep, fused_points_pipelined, MachineConfig, SweepFamily, SweepResult};
use bdb_trace::TraceSink;
use bdb_wcrt::{profile_workload, WorkloadProfile};
use bdb_workloads::{Scale, WorkloadDef};
use json::Value;
// The in-memory cache below is keyed-lookup only (get/insert by
// fingerprint, never iterated), so map order cannot reach profile bytes.
// bdb-lint: allow(determinism): keyed-lookup-only memo, never iterated.
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Bumped whenever the cache file layout changes. The version feeds
/// [`profile_fingerprint`], so old-format files simply stop being
/// referenced (their keys no longer occur) and fresh entries are written
/// under new names. Version 2 added the `crc64` content checksum;
/// version 3 moved the canonical encoder into `bdb-codec` and added the
/// binary (BDBC) entry form, now the only one. Entries from the JSON era
/// of version 3 (`.json` files) are never read: they are plain misses.
pub const CACHE_FORMAT_VERSION: u64 = 3;

/// File extension of cache entries: one checksummed BDBC
/// `CacheEntry` record per file.
const CACHE_EXTENSION: &str = "bin";

/// File-name suffix of sweep entries (see [`Engine::sweep_workload`]).
const SWEEP_SUFFIX: &str = ".sweep.bin";

/// Subdirectory of the cache dir where entries that fail verification
/// are moved (bytes preserved for forensics, never reused or
/// recomputed-over in place).
pub const QUARANTINE_DIR: &str = "quarantine";

/// How an [`Engine`] runs and where it remembers results.
#[derive(Clone, Default)]
pub struct EngineConfig {
    /// Worker threads for `profile_all` / `sweep`. `None` and `Some(0)`
    /// use the machine's available parallelism; `Some(1)` is fully serial.
    pub threads: Option<usize>,
    /// Width of one sweep's pipeline (intra-workload parallelism): the
    /// extracting thread plus `point_threads - 1` replay helpers. `None`
    /// follows the worker pool's width.
    pub point_threads: Option<usize>,
    /// Directory for the on-disk profile cache (one BDBC record per
    /// profile). `None` disables the disk cache.
    pub cache_dir: Option<PathBuf>,
    /// Whether to also memoize profiles in memory (cheap; only worth
    /// disabling in cache-behaviour tests).
    pub no_memory_cache: bool,
    /// Size cap for the on-disk cache in bytes. When a write pushes the
    /// directory past the cap, least-recently-used entries (hits refresh
    /// recency) are evicted until it fits. `None` means unbounded.
    pub cache_max_bytes: Option<u64>,
    /// Storage backend behind every engine filesystem access. `None`
    /// uses the real filesystem ([`RealFs`]); chaos tests inject a
    /// seeded [`ChaosFs`].
    pub store: Option<Arc<dyn CacheStore>>,
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("threads", &self.threads)
            .field("point_threads", &self.point_threads)
            .field("cache_dir", &self.cache_dir)
            .field("no_memory_cache", &self.no_memory_cache)
            .field("cache_max_bytes", &self.cache_max_bytes)
            .field("store", &self.store.as_ref().map(|_| "<custom>"))
            .finish()
    }
}

impl EngineConfig {
    /// Caps the worker pool at `threads`.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Runs each sweep's pipeline `threads` wide (see
    /// [`Engine::sweep`]).
    #[must_use]
    pub fn point_threads(mut self, threads: usize) -> Self {
        self.point_threads = Some(threads);
        self
    }

    /// Enables the on-disk cache under `dir`.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Disables the in-memory memo (the disk cache, if any, still works).
    #[must_use]
    pub fn without_memory_cache(mut self) -> Self {
        self.no_memory_cache = true;
        self
    }

    /// Caps the on-disk cache at `bytes` (LRU-style eviction).
    #[must_use]
    pub fn cache_max_bytes(mut self, bytes: u64) -> Self {
        self.cache_max_bytes = Some(bytes);
        self
    }

    /// Routes every filesystem access through `store` (tests inject a
    /// seeded [`ChaosFs`] here).
    #[must_use]
    pub fn store(mut self, store: Arc<dyn CacheStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Builds a config from the standard `BDB_*` environment knobs — the
    /// one place their semantics live, shared by the bench harness and
    /// the cluster worker daemon so the two cannot drift:
    ///
    /// * `BDB_CACHE_DIR` — disk-cache directory (default:
    ///   `results/cache/` at the workspace root).
    /// * `BDB_NO_CACHE=1` — disable the disk cache for this run.
    /// * `BDB_THREADS=<n>` — cap the worker pool (default: all cores).
    /// * `BDB_POINT_THREADS=<n>` — run each sweep's pipeline `n` wide:
    ///   the extracting thread plus `n - 1` helpers replaying its lanes,
    ///   one L1I lane per capacity point, and the L1D of all of them
    ///   split by set into one lane per helper, rounded down to a power
    ///   of two (default: the worker pool's width).
    /// * `BDB_CACHE_MAX_BYTES=<n>` — cap the disk cache; LRU entries are
    ///   evicted past the cap (default: unbounded).
    pub fn from_env() -> Self {
        let mut config = EngineConfig::default();
        if std::env::var_os("BDB_NO_CACHE").is_none() {
            let dir = std::env::var_os("BDB_CACHE_DIR")
                .map(PathBuf::from)
                .unwrap_or_else(|| {
                    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/cache"))
                });
            config = config.cache_dir(dir);
        }
        if let Some(threads) = std::env::var("BDB_THREADS")
            .ok()
            .and_then(|t| t.parse().ok())
        {
            config = config.threads(threads);
        }
        if let Some(threads) = std::env::var("BDB_POINT_THREADS")
            .ok()
            .and_then(|t| t.parse().ok())
        {
            config = config.point_threads(threads);
        }
        if let Some(bytes) = std::env::var("BDB_CACHE_MAX_BYTES")
            .ok()
            .and_then(|b| b.parse().ok())
        {
            config = config.cache_max_bytes(bytes);
        }
        config
    }
}

/// Cache-traffic counters (monotonic over the engine's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Profiles served from the in-memory memo.
    pub memory_hits: u64,
    /// Profiles and sweeps decoded from a cache file.
    pub disk_hits: u64,
    /// Profiles and sweeps actually simulated.
    pub computed: u64,
    /// Store operations that failed (reads, writes, renames). The old
    /// code swallowed all of these with `.ok()`.
    pub disk_errors: u64,
    /// Cache entries that failed verification and were moved to the
    /// [`QUARANTINE_DIR`] subdirectory.
    pub corrupt_quarantined: u64,
    /// Stale `.tmp` files from crashed writers reclaimed at startup.
    pub tmp_reclaimed: u64,
    /// Memoized profiles dropped via [`Engine::invalidate`] (incremental
    /// recomputation marking entries stale).
    pub invalidated: u64,
    /// Entry records computed elsewhere and admitted via
    /// [`Engine::admit_entry`] (the cluster's replicated result tier
    /// pushing entries here).
    pub replicas_admitted: u64,
    /// Entry records [`Engine::admit_entry`] refused (damaged, or keyed
    /// under another fingerprint) and did not write.
    pub replicas_refused: u64,
}

/// The parallel, cache-aware measurement engine. See the crate docs.
pub struct Engine {
    /// Worker threads `profile_all` fans out to (1 = serial).
    threads: usize,
    store: Arc<dyn CacheStore>,
    cache_dir: Option<PathBuf>,
    cache_max_bytes: Option<u64>,
    /// Width of one sweep's pipeline (`None` = the pool's width).
    point_threads: Option<usize>,
    // bdb-lint: allow(determinism): keyed-lookup-only memo, never iterated.
    memory: Option<Mutex<HashMap<u64, WorkloadProfile>>>,
    memory_hits: AtomicU64,
    disk_hits: AtomicU64,
    computed: AtomicU64,
    disk_errors: AtomicU64,
    corrupt_quarantined: AtomicU64,
    tmp_reclaimed: AtomicU64,
    invalidated: AtomicU64,
    replicas_admitted: AtomicU64,
    replicas_refused: AtomicU64,
    /// Profile keys from the startup listing of the cache directory,
    /// kept for the first [`Engine::cached_fingerprints`] call unless
    /// this engine changes the directory first.
    startup_keys: Mutex<Option<Vec<u64>>>,
}

impl Engine {
    /// Builds an engine from `config`. The cache directory is created
    /// eagerly; if creation fails the disk cache is disabled (profiling
    /// still works, nothing persists).
    pub fn new(config: EngineConfig) -> Self {
        let threads = match config.threads {
            None | Some(0) => machine_threads(),
            Some(n) => n,
        };
        let store: Arc<dyn CacheStore> = config.store.unwrap_or_else(|| Arc::new(RealFs));
        let cache_dir = config
            .cache_dir
            .filter(|dir| store.create_dir_all(dir).is_ok());
        let (tmp_reclaimed, startup_keys) = cache_dir
            .as_ref()
            .map_or((0, None), |dir| scan_cache_dir(store.as_ref(), dir));
        Engine {
            threads,
            store,
            cache_dir,
            cache_max_bytes: config.cache_max_bytes,
            point_threads: config.point_threads,
            // bdb-lint: allow(determinism): keyed-lookup-only memo.
            memory: (!config.no_memory_cache).then(|| Mutex::new(HashMap::new())),
            memory_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            computed: AtomicU64::new(0),
            disk_errors: AtomicU64::new(0),
            corrupt_quarantined: AtomicU64::new(0),
            tmp_reclaimed: AtomicU64::new(tmp_reclaimed),
            invalidated: AtomicU64::new(0),
            replicas_admitted: AtomicU64::new(0),
            replicas_refused: AtomicU64::new(0),
            startup_keys: Mutex::new(startup_keys),
        }
    }

    /// Parallel engine with the in-memory memo only (no disk cache).
    pub fn in_memory() -> Self {
        Engine::new(EngineConfig::default())
    }

    /// Single-threaded engine with all caching disabled — the baseline
    /// the parallel path must match bit for bit.
    pub fn serial() -> Self {
        Engine::new(EngineConfig::default().threads(1).without_memory_cache())
    }

    /// Worker threads `profile_all` / `sweep` fan out to.
    pub fn worker_threads(&self) -> usize {
        self.threads
    }

    /// Width of one sweep's pipeline: the configured
    /// `BDB_POINT_THREADS` width, or the worker-pool width when unset.
    pub fn point_threads(&self) -> usize {
        self.point_threads.unwrap_or_else(|| self.worker_threads())
    }

    /// Cache-traffic counters so far.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            computed: self.computed.load(Ordering::Relaxed),
            disk_errors: self.disk_errors.load(Ordering::Relaxed),
            corrupt_quarantined: self.corrupt_quarantined.load(Ordering::Relaxed),
            tmp_reclaimed: self.tmp_reclaimed.load(Ordering::Relaxed),
            invalidated: self.invalidated.load(Ordering::Relaxed),
            replicas_admitted: self.replicas_admitted.load(Ordering::Relaxed),
            replicas_refused: self.replicas_refused.load(Ordering::Relaxed),
        }
    }

    /// Admits a profile's entry record computed *elsewhere* (a replica
    /// pushed by the cluster coordinator) into this engine's disk cache,
    /// byte for byte. The record gets the check a cache read makes —
    /// container, CRC-64 trailer, embedded fingerprint — and is then
    /// written through the same tmp+rename path and LRU cap as a locally
    /// computed entry. A record that fails the check is refused, counted
    /// in `replicas_refused` and not written. No profile is decoded here:
    /// a later read decodes the entry, and quarantines it if it does not
    /// decode, like any other. An engine without a disk cache has
    /// nowhere to keep a replica, so admitting one there stores nothing.
    pub fn admit_entry(
        &self,
        workload_id: &str,
        fingerprint: u64,
        record: &[u8],
    ) -> Result<(), EntryError> {
        if let Err(e) = check_entry(record, fingerprint) {
            self.replicas_refused.fetch_add(1, Ordering::Relaxed);
            return Err(e);
        }
        self.write_record(&cache_file_name(workload_id, fingerprint), record);
        self.replicas_admitted.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The content fingerprints of every entry in the disk cache, sorted
    /// and deduplicated — what a cluster worker advertises in `Hello` so
    /// the coordinator can route matching tasks to warm machines. Keys
    /// are parsed from file names only; no entry bytes are read or
    /// verified here (a corrupt entry is still quarantined at read time,
    /// and the task then recomputes). The first call answers from the
    /// listing [`Engine::new`] made, unless this engine has written,
    /// quarantined or evicted an entry since; later calls list the
    /// directory again.
    pub fn cached_fingerprints(&self) -> Vec<u64> {
        if let Some(keys) = lock_keys(&self.startup_keys).take() {
            return keys;
        }
        let Some(dir) = &self.cache_dir else {
            return Vec::new();
        };
        let Ok(files) = self.store.list(dir) else {
            return Vec::new();
        };
        profile_keys(&files)
    }

    /// Drops one memoized profile by fingerprint, returning whether an
    /// entry was present. This is the invalidation hook incremental
    /// consumers (`bdb-serve`) use when a spec or knob change supersedes
    /// an entry: the stale profile stops occupying memo space, and a
    /// later request for the *same* fingerprint recomputes (or re-reads
    /// disk) instead of trusting a value the caller declared stale. The
    /// disk cache is content-keyed by the same fingerprint, so entries
    /// there stay valid by construction and are left in place.
    pub fn invalidate(&self, fingerprint: u64) -> bool {
        let Some(memory) = &self.memory else {
            return false;
        };
        let dropped = lock(memory).remove(&fingerprint).is_some();
        if dropped {
            self.invalidated.fetch_add(1, Ordering::Relaxed);
        }
        dropped
    }

    /// The cache file a profile persists to, if a disk cache is
    /// configured.
    pub fn cache_file(
        &self,
        workload: &WorkloadDef,
        scale: Scale,
        machine: &MachineConfig,
        node: &NodeConfig,
    ) -> Option<PathBuf> {
        let key = profile_fingerprint(&workload.spec.id, scale, machine, node);
        self.cache_dir
            .as_ref()
            .map(|dir| dir.join(cache_file_name(&workload.spec.id, key)))
    }

    /// Profiles one workload, consulting the caches first.
    pub fn profile(
        &self,
        workload: &WorkloadDef,
        scale: Scale,
        machine: &MachineConfig,
        node: &NodeConfig,
    ) -> WorkloadProfile {
        let key = profile_fingerprint(&workload.spec.id, scale, machine, node);
        self.profile_keyed(key, workload, scale, machine, node)
    }

    /// [`Engine::profile`] under a fingerprint the caller already holds:
    /// `key` must be `profile_fingerprint` of the other arguments.
    /// [`Engine::run_task`] passes its task's, so a task is fingerprinted
    /// once.
    fn profile_keyed(
        &self,
        key: u64,
        workload: &WorkloadDef,
        scale: Scale,
        machine: &MachineConfig,
        node: &NodeConfig,
    ) -> WorkloadProfile {
        if let Some(hit) = self.memo(key) {
            return hit;
        }
        let id = &workload.spec.id;
        if let Some(profile) = self.read_entry::<WorkloadProfile, _>(id, key, decode_value) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            self.remember(key, &profile);
            return profile;
        }
        self.simulate(key, workload, scale, machine, node)
    }

    /// The memoized profile under `key`, counted as a memory hit.
    fn memo(&self, key: u64) -> Option<WorkloadProfile> {
        let hit = lock(self.memory.as_ref()?).get(&key)?.clone();
        self.memory_hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Simulates a profile no cache holds: counts it, persists its entry
    /// and memoizes it. `key` is as in [`Engine::profile_keyed`].
    fn simulate(
        &self,
        key: u64,
        workload: &WorkloadDef,
        scale: Scale,
        machine: &MachineConfig,
        node: &NodeConfig,
    ) -> WorkloadProfile {
        let profile = profile_workload(workload, scale, machine.clone(), *node);
        self.computed.fetch_add(1, Ordering::Relaxed);
        self.write_entry(&workload.spec.id, key, &profile);
        self.remember(key, &profile);
        profile
    }

    /// Profiles every workload, fanning the independent simulations out
    /// across [`Engine::worker_threads`] threads. The result vector is in
    /// `workloads` order and bit-identical to calling [`Engine::profile`]
    /// in a serial loop.
    pub fn profile_all(
        &self,
        workloads: &[WorkloadDef],
        scale: Scale,
        machine: &MachineConfig,
        node: &NodeConfig,
    ) -> Vec<WorkloadProfile> {
        fan_out(workloads, self.threads, |w| {
            self.profile(w, scale, machine, node)
        })
    }

    /// Runs a capacity sweep (paper §5.4) [`Engine::point_threads`]
    /// wide. Bit-identical to [`bdb_sim::fused_points`] over
    /// [`bdb_sim::SweepStreams::record`] and to the
    /// [`bdb_sim::sweep_per_point`] oracle; the curves are assembled in
    /// `capacities_kib` order, so output is identical at any width.
    ///
    /// The workload generator runs exactly **once**, in a pipeline
    /// ([`bdb_sim::fused_points_pipelined`]): the calling thread extracts
    /// the L1 event streams straight from the generator — no trace is
    /// materialized — and hands them off in chunks, which the other
    /// threads replay while extraction goes on. The replay runs in
    /// lanes: one L1I lane per capacity, and L1D lanes that cascade
    /// each data entry up the capacities in ascending order, stopping
    /// where its line is already most recent in its set (it stays most
    /// recent at every larger capacity, so replaying it there would
    /// change nothing). The L1D side is one lane up to width 2; a wider
    /// pipeline splits it by the low bits of the line number, which pick
    /// the set at every capacity, into one lane per helper rounded down
    /// to a power of two, so no single lane holds most of the replay.
    /// At width 1, or when the streams fit in one chunk, it replays
    /// inline and spawns no thread.
    ///
    /// # Panics
    ///
    /// Panics if `capacities_kib` is empty.
    pub fn sweep<F>(&self, label: &str, capacities_kib: &[u64], workload: F) -> SweepResult
    where
        F: Fn(&mut dyn TraceSink) + Sync,
    {
        assert!(
            !capacities_kib.is_empty(),
            "sweep needs at least one capacity"
        );
        let points = fused_points_pipelined(
            &SweepFamily::atom(),
            capacities_kib,
            self.point_threads(),
            workload,
        );
        assemble_sweep(label, capacities_kib, points)
    }

    /// [`Engine::sweep`] of one catalog workload at `scale`, labelled by
    /// its id and cached on disk next to the profiles under
    /// [`sweep_fingerprint`]. A hit counts as a `disk_hits` tick and
    /// runs no generator; a miss sweeps, counts as `computed` and stores
    /// the result through the same checked write path as a profile.
    ///
    /// # Panics
    ///
    /// Panics if `capacities_kib` is empty.
    pub fn sweep_workload(
        &self,
        def: &WorkloadDef,
        scale: Scale,
        capacities_kib: &[u64],
    ) -> SweepResult {
        let id = &def.spec.id;
        let key = sweep_fingerprint(id, scale, capacities_kib);
        if let Some(result) = self.read_entry::<SweepResult, _>(id, key, decode_value) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            return result;
        }
        let result = self.sweep(id, capacities_kib, |sink| {
            let _ = def.run(sink, scale);
        });
        self.computed.fetch_add(1, Ordering::Relaxed);
        self.write_entry(id, key, &result);
        result
    }

    fn remember(&self, key: u64, profile: &WorkloadProfile) {
        if let Some(memory) = &self.memory {
            lock(memory).insert(key, profile.clone());
        }
    }

    /// The one read path for profiles and sweeps. Reads the entry of
    /// workload `id` under `key`, checks its container, CRC-64 trailer
    /// and fingerprint, and hands the record and its still-encoded value
    /// to `finish`, which decodes the value or keeps the record bytes. A
    /// miss is `None`; an entry that fails the check or `finish` is
    /// quarantined and is a miss too.
    fn read_entry<T: Entry, R>(
        &self,
        id: &str,
        key: u64,
        finish: impl FnOnce(&[u8], &[u8]) -> Result<R, EntryError>,
    ) -> Option<R> {
        let dir = self.cache_dir.as_ref()?;
        let path = dir.join(T::file_name(id, key));
        let bytes = match self.store.read(&path) {
            Ok(Some(bytes)) => bytes,
            Ok(None) => return None,
            Err(_) => {
                self.disk_errors.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match check_entry(&bytes, key).and_then(|value| finish(&bytes, value)) {
            Ok(entry) => {
                // A hit refreshes the entry's recency so LRU eviction
                // spares hot entries. Best-effort: a failed touch only
                // skews eviction order.
                if self.cache_max_bytes.is_some() {
                    let _ = self.store.touch(&path);
                }
                Some(entry)
            }
            Err(_) => {
                self.quarantine(dir, &path);
                None
            }
        }
    }

    /// Moves an entry that failed verification into [`QUARANTINE_DIR`]:
    /// the damaged bytes are preserved for forensics and the slot is
    /// freed for a fresh entry — never silently reused, never
    /// recomputed-over in place. If even the move fails, the entry is
    /// removed so the live cache cannot keep serving it.
    fn quarantine(&self, dir: &Path, path: &Path) {
        self.corrupt_quarantined.fetch_add(1, Ordering::Relaxed);
        lock_keys(&self.startup_keys).take();
        let moved = path.file_name().is_some_and(|name| {
            let quarantine_dir = dir.join(QUARANTINE_DIR);
            if self.store.create_dir_all(&quarantine_dir).is_err() {
                return false;
            }
            match self.store.rename(path, &quarantine_dir.join(name)) {
                Ok(()) => true,
                Err(_) => {
                    self.disk_errors.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
        });
        if !moved {
            let _ = self.store.remove(path);
        }
    }

    /// Encodes and persists `entry` for workload `id` under `key`.
    fn write_entry<T: Entry>(&self, id: &str, key: u64, entry: &T) {
        if self.cache_dir.is_some() {
            self.write_record(&T::file_name(id, key), &entry_record(key, entry));
        }
    }

    /// Persists an entry record as file `name`, within the cap: the one
    /// write path for profiles, sweeps and admitted replicas.
    fn write_record(&self, name: &str, bytes: &[u8]) {
        let Some(dir) = &self.cache_dir else {
            return;
        };
        lock_keys(&self.startup_keys).take();
        // Write-to-temp + rename so concurrent engines never observe a
        // half-written entry; all writers produce identical bytes, so the
        // last rename winning is harmless. Both failure arms remove the
        // temp file — a failed write used to leak its partial `.tmp`.
        let tmp = dir.join(format!(".{name}.tmp{}", std::process::id()));
        let path = dir.join(name);
        match self.store.write(&tmp, bytes) {
            Ok(()) => {
                if self.store.rename(&tmp, &path).is_err() {
                    self.disk_errors.fetch_add(1, Ordering::Relaxed);
                    let _ = self.store.remove(&tmp);
                }
            }
            Err(_) => {
                self.disk_errors.fetch_add(1, Ordering::Relaxed);
                let _ = self.store.remove(&tmp);
            }
        }
        if let Some(cap) = self.cache_max_bytes {
            enforce_cache_cap(self.store.as_ref(), dir, cap);
        }
    }
}

/// The startup scan, one listing of the cache directory: removes stale
/// temp files left by crashed writers and returns how many it removed,
/// with the profile keys of the entries listed (`None` if the listing
/// failed). Temp files are invisible to [`enforce_cache_cap`] (which
/// only counts `.bin` entries), so without this sweep they would
/// accumulate forever.
fn scan_cache_dir(store: &dyn CacheStore, dir: &Path) -> (u64, Option<Vec<u64>>) {
    let Ok(files) = store.list(dir) else {
        return (0, None);
    };
    let mut reclaimed = 0;
    for path in &files {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default();
        if name.starts_with('.') && name.contains(".tmp") && store.remove(path).is_ok() {
            reclaimed += 1;
        }
    }
    (reclaimed, Some(profile_keys(&files)))
}

/// The sorted, deduplicated profile keys among listed files.
fn profile_keys(files: &[PathBuf]) -> Vec<u64> {
    let mut keys: Vec<u64> = files
        .iter()
        .filter_map(|path| profile_entry_key(path))
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Locks the startup keys with poison recovery (the value is replaced
/// or taken whole, so a poisoned guard still holds a consistent one).
fn lock_keys(keys: &Mutex<Option<Vec<u64>>>) -> std::sync::MutexGuard<'_, Option<Vec<u64>>> {
    keys.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Evicts least-recently-used cache entries until the directory's
/// `.bin` entries total at most `max_bytes`. Recency is file
/// mtime (refreshed on hits); ties break on file name so eviction order
/// is deterministic.
/// Eviction removes whole files only — surviving entries are never
/// rewritten, so a cap can shrink the cache but never corrupt it.
/// Quarantined entries live in a subdirectory, which [`CacheStore::list`]
/// does not descend into, so they never count against the cap. Only the
/// `.bin` entries are stat'ed ([`CacheStore::meta`]); one that vanished
/// or cannot be stat'ed since the listing is skipped.
fn enforce_cache_cap(store: &dyn CacheStore, dir: &Path, max_bytes: u64) {
    let Ok(listed) = store.list(dir) else {
        return;
    };
    let mut files: Vec<(FileMeta, PathBuf)> = listed
        .into_iter()
        .filter(|path| path.extension().is_some_and(|e| e == CACHE_EXTENSION))
        .filter_map(|path| store.meta(&path).ok().flatten().map(|meta| (meta, path)))
        .collect();
    let mut total: u64 = files.iter().map(|(meta, _)| meta.len).sum();
    if total <= max_bytes {
        return;
    }
    files.sort_by(|(a, a_path), (b, b_path)| (a.modified, a_path).cmp(&(b.modified, b_path)));
    for (meta, path) in files {
        if total <= max_bytes {
            break;
        }
        if store.remove(&path).is_ok() {
            total = total.saturating_sub(meta.len);
        }
    }
}

/// The machine's available parallelism, read once per process: the read
/// costs several system calls, and a cluster worker builds an engine for
/// every session.
fn machine_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Maps `f` over `items` on `threads` scoped worker threads and returns
/// the results in input order. Each worker claims the next unclaimed
/// index from a shared counter, so an expensive item never holds back a
/// static share of the rest. With one thread or at most one item the map
/// runs on the calling thread. A panicking item re-raises its own payload
/// here.
fn fan_out<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let threads = threads.min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut tagged: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            return out;
                        };
                        out.push((i, f(item)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Locks the memo with poison recovery: a panic in another profiling
/// thread must not cascade into every later cache lookup. The map holds
/// only fully-computed profiles (inserted after simulation completes),
/// so a poisoned guard still sees consistent data.
fn lock<'a>(
    // bdb-lint: allow(determinism): keyed-lookup-only memo, never iterated.
    memory: &'a Mutex<HashMap<u64, WorkloadProfile>>,
    // bdb-lint: allow(determinism): keyed-lookup-only memo, never iterated.
) -> std::sync::MutexGuard<'a, HashMap<u64, WorkloadProfile>> {
    memory
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Content fingerprint of one measurement: FNV-1a over the cache format
/// version, the workload id, the exact scale factor bits, and the full
/// `Debug` renderings of both hardware configs. Any change to either
/// config type therefore changes every key, which is exactly right — the
/// measurement inputs changed.
pub fn profile_fingerprint(
    workload_id: &str,
    scale: Scale,
    machine: &MachineConfig,
    node: &NodeConfig,
) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(CACHE_FORMAT_VERSION);
    h.write(workload_id.as_bytes());
    h.write_u64(scale.factor().to_bits());
    h.write_debug(machine);
    h.write_debug(node);
    h.finish()
}

/// Content fingerprint of one cached sweep: FNV-1a over the cache
/// format version, a sweep domain tag (so no sweep key can equal a
/// profile key over the same id and scale), the workload id, the exact
/// scale factor bits, the `Debug` rendering of the swept
/// [`SweepFamily`], and the capacities in order.
pub fn sweep_fingerprint(workload_id: &str, scale: Scale, capacities_kib: &[u64]) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(CACHE_FORMAT_VERSION);
    h.write(b"sweep");
    h.write(workload_id.as_bytes());
    h.write_u64(scale.factor().to_bits());
    h.write_debug(&SweepFamily::atom());
    h.write_u64(capacities_kib.len() as u64);
    for &kib in capacities_kib {
        h.write_u64(kib);
    }
    h.finish()
}

/// FNV-1a over length-terminated fields. Its [`std::fmt::Write`] impl
/// hashes formatted text as it is produced, so a `Debug` field is hashed
/// without first being rendered into a `String`.
struct Fnv {
    hash: u64,
    /// Bytes hashed so far in the field being written through `fmt`.
    field_len: u64,
}

impl Fnv {
    fn new() -> Self {
        Fnv {
            hash: 0xcbf2_9ce4_8422_2325,
            field_len: 0,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x1000_0000_01b3);
        }
    }

    fn write(&mut self, bytes: &[u8]) {
        self.bytes(bytes);
        // Length terminator so concatenated fields cannot alias.
        self.write_u64(bytes.len() as u64);
    }

    /// Hashes `value`'s `Debug` rendering as one field: the same bytes
    /// and terminator as `write(format!("{value:?}").as_bytes())`.
    fn write_debug(&mut self, value: &dyn std::fmt::Debug) {
        use std::fmt::Write as _;
        self.field_len = 0;
        // Writing into the hasher cannot fail; only a `Debug` impl that
        // reports an error could, and the hash then covers what it wrote.
        let _ = write!(self, "{value:?}");
        self.write_u64(self.field_len);
    }

    fn write_u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        self.field_len += s.len() as u64;
        Ok(())
    }
}

/// A workload id with every character outside `[A-Za-z0-9_-]` replaced
/// by `_`, so entry names never contain a `.`.
fn safe_id(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// `<id>-<key:016x>.bin`: a profile entry.
fn cache_file_name(id: &str, key: u64) -> String {
    format!("{}-{key:016x}.{CACHE_EXTENSION}", safe_id(id))
}

/// `<id>-<key:016x>.sweep.bin`: a sweep entry. The extra `.sweep` is
/// what tells the two kinds apart; a sanitized id never contains a `.`.
fn sweep_file_name(id: &str, key: u64) -> String {
    format!("{}-{key:016x}{SWEEP_SUFFIX}", safe_id(id))
}

/// The fingerprint a profile entry's file name ends with, or `None` for
/// anything else: sweep entries, temp files, foreign files.
fn profile_entry_key(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    if name.ends_with(SWEEP_SUFFIX) {
        return None;
    }
    let stem = name.strip_suffix(CACHE_EXTENSION)?.strip_suffix('.')?;
    let (_, hex) = stem.rsplit_once('-')?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// What a cache entry holds: a profile or a sweep. Every entry is a
/// BDBC `CacheEntry` record whose payload is the fingerprint and the
/// value's tree, under the container's version and CRC-64 trailer; the
/// two kinds differ only in file name and value codec.
trait Entry: Sized {
    fn file_name(id: &str, key: u64) -> String;
    fn to_value(&self) -> Value;
    fn from_value<'a, V: ValueRef<'a>>(value: V) -> Result<Self, codec::DecodeError>;
}

impl Entry for WorkloadProfile {
    fn file_name(id: &str, key: u64) -> String {
        cache_file_name(id, key)
    }
    fn to_value(&self) -> Value {
        codec::profile_to_value(self)
    }
    fn from_value<'a, V: ValueRef<'a>>(value: V) -> Result<Self, codec::DecodeError> {
        codec::profile_from_value(value)
    }
}

impl Entry for SweepResult {
    fn file_name(id: &str, key: u64) -> String {
        sweep_file_name(id, key)
    }
    fn to_value(&self) -> Value {
        codec::sweep_result_to_value(self)
    }
    fn from_value<'a, V: ValueRef<'a>>(value: V) -> Result<Self, codec::DecodeError> {
        codec::sweep_result_from_value(value)
    }
}

/// Why a cache-entry record was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryError {
    /// The bytes are not an intact BDBC `CacheEntry` record: the magic,
    /// version, kind, length or CRC-64 trailer check failed, so they
    /// changed in storage or in transit.
    Damaged(String),
    /// The record is intact but is not the entry asked for: its
    /// fingerprint is missing or names another key, or its value does
    /// not decode.
    Invalid(String),
}

impl std::fmt::Display for EntryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EntryError::Damaged(e) | EntryError::Invalid(e) => f.write_str(e),
        }
    }
}

impl std::error::Error for EntryError {}

/// Encodes `profile` as the cache-entry record keyed by `fingerprint`:
/// the bytes the engine writes to disk, a warm cluster worker ships and
/// a replica is admitted from. Every entry record is built here.
pub fn profile_entry_record(fingerprint: u64, profile: &WorkloadProfile) -> Vec<u8> {
    entry_record(fingerprint, profile)
}

fn entry_record<T: Entry>(key: u64, entry: &T) -> Vec<u8> {
    bdb_codec::encode_record(
        bdb_codec::RecordKind::CacheEntry,
        &bdb_codec::encode_cache_payload(key, &entry.to_value()),
    )
}

/// Checks one cache-entry record against the key it was looked up
/// under, without decoding its value: the container (magic, version,
/// kind, exact length), the CRC-64 trailer over the payload, then the
/// embedded fingerprint. Returns the value's bval bytes. Every reader
/// starts here, so no two can disagree on what an intact entry is.
fn check_entry(record: &[u8], expected_key: u64) -> Result<&[u8], EntryError> {
    let payload = bdb_codec::decode_record_of(bdb_codec::RecordKind::CacheEntry, record)
        .map_err(|e| EntryError::Damaged(e.to_string()))?;
    let (fingerprint, value) =
        bdb_codec::split_cache_payload(payload).map_err(|e| EntryError::Invalid(e.to_string()))?;
    if fingerprint != expected_key {
        return Err(EntryError::Invalid(format!(
            "fingerprint mismatch (want {expected_key:016x}, found {fingerprint:016x})"
        )));
    }
    Ok(value)
}

/// Decodes a checked entry's bval value (the `finish` step of a
/// decoding [`Engine::read_entry`]) straight from its validated tape;
/// no value tree is built.
fn decode_value<T: Entry>(_record: &[u8], value: &[u8]) -> Result<T, EntryError> {
    let doc = bdb_codec::bval::decode_doc(value).map_err(|e| EntryError::Invalid(e.to_string()))?;
    T::from_value(doc.root()).map_err(|e| EntryError::Invalid(e.to_string()))
}

/// The container, CRC-64 and fingerprint check of every cache read,
/// then the profile decode: one checksum and one decode. A record that fails is [`EntryError::Damaged`] if its bytes
/// changed and [`EntryError::Invalid`] if they are intact but hold
/// something else, so the cluster can tell a damaged frame from a bad
/// answer.
pub fn decode_profile_entry(
    record: &[u8],
    expected_key: u64,
) -> Result<WorkloadProfile, EntryError> {
    let value = check_entry(record, expected_key)?;
    decode_value(record, value)
}

/// [`decode_profile_entry`] with the error rendered: verifies and
/// decodes one cache entry against the key it was looked up under. Any
/// failure — bytes that are not a BDBC `CacheEntry` record (a JSON entry
/// included), a checksum or fingerprint mismatch, an undecodable profile
/// — is grounds for quarantine: a valid entry can only fail here if its
/// bytes changed underneath us.
pub fn verify_cache_entry(bytes: &[u8], expected_key: u64) -> Result<WorkloadProfile, String> {
    decode_profile_entry(bytes, expected_key).map_err(|e| e.to_string())
}

/// Loads every valid profile entry under `dir` (diagnostics /
/// inspection); sweep entries are skipped.
/// Each entry is verified by [`verify_cache_entry`] against the
/// fingerprint in its own file name — the same decode-and-verify path
/// the engine's cache reads use. Read-only: entries that fail
/// verification are skipped here, not quarantined. Profiles come back
/// in file-name order, the order [`CacheStore::list`] returns.
pub fn read_cache_dir(dir: &Path) -> Vec<WorkloadProfile> {
    let Ok(files) = RealFs.list(dir) else {
        return Vec::new();
    };
    files
        .iter()
        .filter_map(|path| {
            let key = profile_entry_key(path)?;
            let bytes = RealFs.read(path).ok()??;
            verify_cache_entry(&bytes, key).ok()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_workloads::catalog;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bdb-engine-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn reps(n: usize) -> Vec<WorkloadDef> {
        catalog::representatives().into_iter().take(n).collect()
    }

    fn profile_bits(p: &WorkloadProfile) -> (u64, u64, Vec<u64>) {
        (
            p.report.instructions,
            p.report.cycles.to_bits(),
            p.metrics.values().iter().map(|v| v.to_bits()).collect(),
        )
    }

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let workloads = reps(4);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let parallel = Engine::new(EngineConfig::default().threads(4)).profile_all(
            &workloads,
            Scale::tiny(),
            &machine,
            &node,
        );
        let serial = Engine::serial().profile_all(&workloads, Scale::tiny(), &machine, &node);
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.spec.id, s.spec.id, "order must be catalog order");
            assert_eq!(profile_bits(p), profile_bits(s), "{}", p.spec.id);
        }
    }

    #[test]
    fn invalidate_drops_the_memo_entry_and_counts() {
        let workloads = reps(1);
        let engine = Engine::in_memory();
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let w = &workloads[0];
        let key = profile_fingerprint(&w.spec.id, Scale::tiny(), &machine, &node);
        engine.profile(w, Scale::tiny(), &machine, &node);
        assert_eq!(engine.counters().computed, 1);
        assert!(engine.invalidate(key), "entry was memoized");
        assert!(!engine.invalidate(key), "second drop is a no-op");
        assert_eq!(engine.counters().invalidated, 1);
        // The next request recomputes instead of hitting the memo.
        engine.profile(w, Scale::tiny(), &machine, &node);
        let counters = engine.counters();
        assert_eq!(counters.computed, 2);
        assert_eq!(counters.memory_hits, 0);
    }

    #[test]
    fn memory_cache_serves_repeat_lookups() {
        let workloads = reps(2);
        let engine = Engine::in_memory();
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let first = engine.profile_all(&workloads, Scale::tiny(), &machine, &node);
        let again = engine.profile_all(&workloads, Scale::tiny(), &machine, &node);
        let counters = engine.counters();
        assert_eq!(counters.computed, 2);
        assert_eq!(counters.memory_hits, 2);
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(profile_bits(a), profile_bits(b));
        }
    }

    #[test]
    fn disk_cache_round_trips_identical_bytes() {
        let dir = scratch_dir("disk");
        let workloads = reps(1);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();

        let cold_engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        let cold = cold_engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        let path = cold_engine
            .cache_file(&workloads[0], Scale::tiny(), &machine, &node)
            .unwrap();
        assert_eq!(path.extension().unwrap(), "bin");
        let cold_bytes = std::fs::read(&path).expect("cache file written");
        assert!(
            bdb_codec::decode_record_of(bdb_codec::RecordKind::CacheEntry, &cold_bytes).is_ok(),
            "entries are intact BDBC cache-entry records"
        );

        // A fresh engine over the same directory must hit, not recompute,
        // and leave the exact bytes in place.
        let warm_engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        let warm = warm_engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        assert_eq!(warm_engine.counters().disk_hits, 1);
        assert_eq!(warm_engine.counters().computed, 0);
        assert_eq!(profile_bits(&cold), profile_bits(&warm));
        let warm_bytes = std::fs::read(&path).unwrap();
        assert_eq!(warm_bytes, cold_bytes, "warm read must return cold bytes");

        // The diagnostics loader sees the entry too.
        assert_eq!(read_cache_dir(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_binary_entry_is_quarantined_and_recomputed() {
        let dir = scratch_dir("bincorrupt");
        let workloads = reps(1);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        let p = engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        let path = engine
            .cache_file(&workloads[0], Scale::tiny(), &machine, &node)
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let q = engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        assert_eq!(engine.counters().computed, 2, "corrupt entry must miss");
        assert_eq!(engine.counters().corrupt_quarantined, 1);
        assert_eq!(profile_bits(&p), profile_bits(&q));
        // Damaged bytes preserved in quarantine/, fresh entry rewritten.
        let quarantined = dir.join(QUARANTINE_DIR).join(path.file_name().unwrap());
        assert_eq!(std::fs::read(&quarantined).unwrap(), bytes);
        let key = profile_fingerprint(&workloads[0].spec.id, Scale::tiny(), &machine, &node);
        assert!(verify_cache_entry(&std::fs::read(&path).unwrap(), key).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_sweep_entry_is_quarantined_and_recomputed() {
        let dir = scratch_dir("sweepcorrupt");
        let def = &reps(1)[0];
        let caps = [16u64, 64];
        let engine = Engine::new(EngineConfig::default().threads(1).cache_dir(&dir));
        let cold = engine.sweep_workload(def, Scale::tiny(), &caps);
        let key = sweep_fingerprint(&def.spec.id, Scale::tiny(), &caps);
        let path = dir.join(sweep_file_name(&def.spec.id, key));
        let mut bytes = std::fs::read(&path).expect("sweep entry written");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let again = engine.sweep_workload(def, Scale::tiny(), &caps);
        let counters = engine.counters();
        assert_eq!(counters.computed, 2, "corrupt sweep entry must miss");
        assert_eq!(counters.corrupt_quarantined, 1);
        assert_eq!(counters.disk_hits, 0);
        assert_eq!(
            codec::sweep_result_to_value(&again).encode(),
            codec::sweep_result_to_value(&cold).encode(),
            "recomputed sweep must be bit-identical"
        );
        let quarantined = dir.join(QUARANTINE_DIR).join(path.file_name().unwrap());
        assert_eq!(std::fs::read(&quarantined).unwrap(), bytes);
        let fresh = std::fs::read(&path).unwrap();
        let value = check_entry(&fresh, key).unwrap();
        assert!(decode_value::<SweepResult>(&fresh, value).is_ok());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_entries_are_not_advertised_or_listed_as_profiles() {
        let dir = scratch_dir("sweepskip");
        let def = &reps(1)[0];
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let engine = Engine::new(EngineConfig::default().threads(1).cache_dir(&dir));
        engine.sweep_workload(def, Scale::tiny(), &[16, 64]);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "one entry");
        assert!(engine.cached_fingerprints().is_empty());
        assert!(read_cache_dir(&dir).is_empty());
        engine.profile(def, Scale::tiny(), &machine, &node);
        let key = profile_fingerprint(&def.spec.id, Scale::tiny(), &machine, &node);
        assert_eq!(engine.cached_fingerprints(), vec![key]);
        assert_eq!(read_cache_dir(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entry_is_quarantined_and_recomputed() {
        let dir = scratch_dir("corrupt");
        let workloads = reps(1);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        let p = engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        let path = engine
            .cache_file(&workloads[0], Scale::tiny(), &machine, &node)
            .unwrap();
        std::fs::write(&path, "{not json").unwrap();
        let q = engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        assert_eq!(engine.counters().computed, 2, "corrupt entry must miss");
        assert_eq!(engine.counters().corrupt_quarantined, 1);
        assert_eq!(profile_bits(&p), profile_bits(&q));
        // The damaged bytes moved to quarantine/ — preserved, not
        // recomputed-over in place.
        let quarantined = dir.join(QUARANTINE_DIR).join(path.file_name().unwrap());
        assert_eq!(std::fs::read_to_string(&quarantined).unwrap(), "{not json");
        // The miss rewrote a fresh valid entry in the live slot.
        let key = profile_fingerprint(&workloads[0].spec.id, Scale::tiny(), &machine, &node);
        assert!(verify_cache_entry(&std::fs::read(&path).unwrap(), key).is_ok());
        // The quarantine subdirectory is invisible to the diagnostics
        // loader (and to cap enforcement, which shares `list`).
        assert_eq!(read_cache_dir(&dir).len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_fingerprint_entry_is_quarantined_not_served() {
        let dir = scratch_dir("wrongkey");
        let workloads = reps(2);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        let path_a = engine
            .cache_file(&workloads[0], Scale::tiny(), &machine, &node)
            .unwrap();
        let path_b = engine
            .cache_file(&workloads[1], Scale::tiny(), &machine, &node)
            .unwrap();
        // A valid entry parked under the wrong key must not be served.
        std::fs::copy(&path_a, &path_b).unwrap();
        engine.profile(&workloads[1], Scale::tiny(), &machine, &node);
        assert_eq!(engine.counters().computed, 2, "foreign entry must miss");
        assert_eq!(engine.counters().corrupt_quarantined, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_reclaimed_at_startup() {
        let dir = scratch_dir("tmpsweep");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(".H-Grep-00ff.json.tmp4242"), "partial").unwrap();
        std::fs::write(dir.join(".other.json.tmp7"), "partial").unwrap();
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        assert_eq!(engine.counters().tmp_reclaimed, 2);
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "stale tmp files must be gone"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_advertisement_reuses_the_startup_listing_until_a_write() {
        let dir = scratch_dir("startup-keys");
        let workloads = reps(3);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let primer = Engine::new(EngineConfig::default().threads(1).cache_dir(&dir));
        primer.profile(&workloads[0], Scale::tiny(), &machine, &node);
        let first = profile_fingerprint(&workloads[0].spec.id, Scale::tiny(), &machine, &node);
        let second = profile_fingerprint(&workloads[1].spec.id, Scale::tiny(), &machine, &node);

        // The startup scan's keys answer the first call: a file that
        // appears afterwards is not seen, because nothing lists again.
        let engine = Engine::new(EngineConfig::default().threads(1).cache_dir(&dir));
        primer.profile(&workloads[1], Scale::tiny(), &machine, &node);
        assert_eq!(engine.cached_fingerprints(), vec![first]);
        // Later calls list the directory.
        let mut both = vec![first, second];
        both.sort_unstable();
        assert_eq!(engine.cached_fingerprints(), both);

        // A write by the engine itself drops the startup keys unused.
        let writer = Engine::new(EngineConfig::default().threads(1).cache_dir(&dir));
        let path = writer
            .cache_file(&workloads[0], Scale::tiny(), &machine, &node)
            .unwrap();
        std::fs::remove_file(&path).unwrap();
        writer.profile(&workloads[2], Scale::tiny(), &machine, &node);
        assert_eq!(writer.counters().computed, 1);
        let third = profile_fingerprint(&workloads[2].spec.id, Scale::tiny(), &machine, &node);
        let mut listed = vec![second, third];
        listed.sort_unstable();
        assert_eq!(writer.cached_fingerprints(), listed);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_cache_write_counts_and_leaves_no_tmp() {
        let dir = scratch_dir("wfail");
        let workloads = reps(1);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let chaos = Arc::new(ChaosFs::new(ChaosPlan {
            write_error_period: Some(1), // every write fails
            ..ChaosPlan::clean(9)
        }));
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache()
                .store(chaos),
        );
        engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        assert_eq!(engine.counters().disk_errors, 1, "failed write counted");
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "failed write must not leak a tmp file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_cap_evicts_without_corrupting_survivors() {
        let dir = scratch_dir("evict");
        let workloads = reps(4);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();

        // Measure one entry to size the cap at roughly two entries.
        let probe = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        probe.profile(&workloads[0], Scale::tiny(), &machine, &node);
        let entry_bytes = std::fs::metadata(
            probe
                .cache_file(&workloads[0], Scale::tiny(), &machine, &node)
                .unwrap(),
        )
        .unwrap()
        .len();
        let _ = std::fs::remove_dir_all(&dir);

        let cap = entry_bytes * 2 + entry_bytes / 2;
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache()
                .cache_max_bytes(cap),
        );
        for w in &workloads {
            engine.profile(w, Scale::tiny(), &machine, &node);
        }

        // The cap held: at most two entries survive and the total fits.
        let survivors = read_cache_dir(&dir);
        assert!(
            (1..=2).contains(&survivors.len()),
            "expected 1-2 survivors under the cap, got {}",
            survivors.len()
        );
        let total: u64 = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.metadata().unwrap().len())
            .sum();
        assert!(total <= cap, "cache dir {total} B exceeds cap {cap} B");

        // Surviving entries are intact: each decodes and is served as a
        // disk hit with bytes identical to a fresh recompute.
        for p in &survivors {
            let w = workloads
                .iter()
                .find(|w| w.spec.id == p.spec.id)
                .expect("survivor is one of the profiled workloads");
            let warm = Engine::new(
                EngineConfig::default()
                    .threads(1)
                    .cache_dir(&dir)
                    .without_memory_cache(),
            );
            let served = warm.profile(w, Scale::tiny(), &machine, &node);
            assert_eq!(warm.counters().disk_hits, 1, "{} must hit", w.spec.id);
            let fresh = Engine::serial().profile(w, Scale::tiny(), &machine, &node);
            assert_eq!(profile_bits(&served), profile_bits(&fresh), "{}", w.spec.id);
        }

        // Evicted entries are recomputed transparently.
        let recount = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache()
                .cache_max_bytes(cap),
        );
        for w in &workloads {
            recount.profile(w, Scale::tiny(), &machine, &node);
        }
        assert_eq!(
            recount.counters().computed + recount.counters().disk_hits,
            workloads.len() as u64
        );
        assert!(
            recount.counters().computed >= 2,
            "evicted entries recompute"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A [`RealFs`] whose listing also names one file that is not there,
    /// as when an entry vanishes between the listing and its stat, and
    /// that records every path it is asked to stat.
    struct PhantomListing {
        phantom: PathBuf,
        stated: Mutex<Vec<PathBuf>>,
    }

    impl CacheStore for PhantomListing {
        fn create_dir_all(&self, dir: &Path) -> Result<(), StoreError> {
            RealFs.create_dir_all(dir)
        }
        fn read(&self, path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
            RealFs.read(path)
        }
        fn write(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
            RealFs.write(path, bytes)
        }
        fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
            RealFs.rename(from, to)
        }
        fn remove(&self, path: &Path) -> Result<(), StoreError> {
            RealFs.remove(path)
        }
        fn list(&self, dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
            let mut files = RealFs.list(dir)?;
            files.push(self.phantom.clone());
            Ok(files)
        }
        fn meta(&self, path: &Path) -> Result<Option<FileMeta>, StoreError> {
            self.stated.lock().unwrap().push(path.to_path_buf());
            RealFs.meta(path)
        }
        fn touch(&self, path: &Path) -> Result<(), StoreError> {
            RealFs.touch(path)
        }
    }

    #[test]
    fn cache_cap_stats_only_entries_and_skips_a_vanished_one() {
        let dir = scratch_dir("cap-phantom");
        std::fs::create_dir_all(&dir).unwrap();
        // Four 100 B entries, oldest first by mtime, plus a large file that
        // is not an entry and so is neither stat'ed nor counted.
        let entries: Vec<PathBuf> = ["d", "c", "b", "a"]
            .iter()
            .enumerate()
            .map(|(age, name)| {
                let path = dir.join(format!("{name}.{CACHE_EXTENSION}"));
                std::fs::write(&path, [0u8; 100]).unwrap();
                let mtime =
                    std::time::UNIX_EPOCH + std::time::Duration::from_secs(1000 + age as u64);
                std::fs::File::options()
                    .write(true)
                    .open(&path)
                    .unwrap()
                    .set_modified(mtime)
                    .unwrap();
                path
            })
            .collect();
        std::fs::write(dir.join("notes.txt"), [0u8; 1000]).unwrap();
        let store = PhantomListing {
            phantom: dir.join(format!("vanished.{CACHE_EXTENSION}")),
            stated: Mutex::new(Vec::new()),
        };

        enforce_cache_cap(&store, &dir, 250);

        // The two oldest entries went; the phantom neither counted nor
        // stopped the pass.
        let left = RealFs.list(&dir).unwrap();
        assert_eq!(
            left,
            vec![dir.join("a.bin"), dir.join("b.bin"), dir.join("notes.txt")]
        );
        assert!(!entries[0].exists() && !entries[1].exists());
        let stated = store.stated.lock().unwrap();
        assert_eq!(stated.len(), 5, "four entries and the phantom: {stated:?}");
        assert!(stated
            .iter()
            .all(|p| p.extension().is_some_and(|e| e == CACHE_EXTENSION)));
        drop(stated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_hits_refresh_recency_for_eviction() {
        let dir = scratch_dir("lru");
        let workloads = reps(3);
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let entry_bytes = {
            let probe = Engine::new(
                EngineConfig::default()
                    .threads(1)
                    .cache_dir(&dir)
                    .without_memory_cache(),
            );
            probe.profile(&workloads[0], Scale::tiny(), &machine, &node);
            let len = std::fs::metadata(
                probe
                    .cache_file(&workloads[0], Scale::tiny(), &machine, &node)
                    .unwrap(),
            )
            .unwrap()
            .len();
            let _ = std::fs::remove_dir_all(&dir);
            len
        };

        // Cap fits two entries. Write A then B, re-read A (refreshing its
        // recency), then write C: B, not A, must be the eviction victim.
        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache()
                .cache_max_bytes(entry_bytes * 2 + entry_bytes / 2),
        );
        let mtime = |w: &WorkloadDef| {
            std::fs::metadata(
                engine
                    .cache_file(w, Scale::tiny(), &machine, &node)
                    .unwrap(),
            )
            .and_then(|m| m.modified())
            .ok()
        };
        engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
        engine.profile(&workloads[1], Scale::tiny(), &machine, &node);
        let before = mtime(&workloads[0]).expect("entry A exists");
        // File mtimes can be coarse; wait until the touch is observable.
        for _ in 0..50 {
            engine.profile(&workloads[0], Scale::tiny(), &machine, &node);
            if mtime(&workloads[0]).is_some_and(|t| t > before) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
        assert_eq!(engine.counters().computed, 2);
        engine.profile(&workloads[2], Scale::tiny(), &machine, &node);

        let check = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        check.profile(&workloads[0], Scale::tiny(), &machine, &node);
        assert_eq!(
            check.counters().disk_hits,
            1,
            "recently-read entry A must survive eviction"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_separates_inputs() {
        let machine = MachineConfig::xeon_e5645();
        let atom = MachineConfig::atom_sweep(64);
        let node = NodeConfig::default();
        let base = profile_fingerprint("H-WordCount", Scale::tiny(), &machine, &node);
        assert_ne!(
            base,
            profile_fingerprint("H-Grep", Scale::tiny(), &machine, &node)
        );
        assert_ne!(
            base,
            profile_fingerprint("H-WordCount", Scale::small(), &machine, &node)
        );
        assert_ne!(
            base,
            profile_fingerprint("H-WordCount", Scale::tiny(), &atom, &node)
        );
        assert_eq!(
            base,
            profile_fingerprint("H-WordCount", Scale::tiny(), &machine, &node)
        );
    }

    #[test]
    fn debug_fields_hash_like_their_rendered_strings() {
        // Every cache key depends on this: streaming a `Debug` rendering
        // into the hasher must hash the bytes of the rendered string.
        let node = NodeConfig::default();
        let values: [&dyn std::fmt::Debug; 5] = [
            &MachineConfig::xeon_e5645(),
            &MachineConfig::atom_d510(),
            &MachineConfig::atom_sweep(64),
            &node,
            &SweepFamily::atom(),
        ];
        for value in values {
            let mut streamed = Fnv::new();
            streamed.write_debug(value);
            let mut rendered = Fnv::new();
            rendered.write(format!("{value:?}").as_bytes());
            assert_eq!(streamed.finish(), rendered.finish(), "{value:?}");
        }
    }

    #[test]
    fn sweep_fingerprint_separates_inputs() {
        let caps = [16u64, 64, 256];
        let base = sweep_fingerprint("H-WordCount", Scale::tiny(), &caps);
        assert_ne!(base, sweep_fingerprint("H-Grep", Scale::tiny(), &caps));
        assert_ne!(
            base,
            sweep_fingerprint("H-WordCount", Scale::small(), &caps)
        );
        assert_ne!(
            base,
            sweep_fingerprint("H-WordCount", Scale::tiny(), &[16, 64])
        );
        assert_ne!(
            base,
            sweep_fingerprint("H-WordCount", Scale::tiny(), &[16, 256, 64])
        );
        assert_eq!(base, sweep_fingerprint("H-WordCount", Scale::tiny(), &caps));
        let machine = MachineConfig::atom_sweep(64);
        assert_ne!(
            base,
            profile_fingerprint(
                "H-WordCount",
                Scale::tiny(),
                &machine,
                &NodeConfig::default()
            )
        );
    }

    fn sweep_probe_workload(sink: &mut dyn TraceSink) {
        let mut layout = bdb_trace::CodeLayout::new();
        let region = layout.region("kernel", 16 * 1024);
        let mut ctx = bdb_trace::ExecCtx::new(&layout, sink);
        let data = ctx.heap_alloc(64 * 1024, 64);
        ctx.frame(region, |ctx| {
            for i in 0..20_000u64 {
                ctx.read(data.addr(i * 64 % data.len()), 8);
                ctx.int_other(1);
            }
        });
    }

    #[test]
    fn engine_sweep_matches_serial_sweep() {
        let caps = [16u64, 64, 256];
        let streams = bdb_sim::SweepStreams::record(sweep_probe_workload);
        let serial = bdb_sim::assemble_sweep(
            "probe",
            &caps,
            bdb_sim::fused_points(&SweepFamily::atom(), &caps, &streams),
        );
        let engine = Engine::new(EngineConfig::default().threads(3));
        let parallel = engine.sweep("probe", &caps, sweep_probe_workload);
        assert_eq!(parallel, serial);
    }

    #[test]
    fn sweep_matches_the_per_point_oracle_at_any_thread_count() {
        let caps = [16u64, 64, 256];
        let reference =
            bdb_sim::sweep_per_point(&SweepFamily::atom(), "probe", &caps, sweep_probe_workload);
        for threads in [1, 3] {
            let engine = Engine::new(EngineConfig::default().threads(threads));
            let result = engine.sweep("probe", &caps, sweep_probe_workload);
            assert_eq!(result, reference, "{threads} threads");
        }
    }

    #[test]
    fn point_threads_follow_the_pool_unless_pinned() {
        // The pipeline width: the pool's width by default, an explicit
        // `point_threads` otherwise, and 1 on a serial engine.
        let engine = Engine::new(EngineConfig::default().threads(4));
        assert_eq!(engine.point_threads(), 4);
        let pinned = Engine::new(EngineConfig::default().threads(4).point_threads(2));
        assert_eq!(pinned.point_threads(), 2);
        assert_eq!(Engine::serial().point_threads(), 1);
    }

    #[test]
    fn fan_out_keeps_input_order_under_uneven_work() {
        let input: Vec<u64> = (0..64).collect();
        let out = fan_out(&input, 4, |&x| {
            // Early items are much more expensive than late ones.
            let spins = if x < 8 { 200_000 } else { 10 };
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(out, input);
    }

    #[test]
    #[should_panic(expected = "item 50 failed")]
    fn fan_out_reraises_the_items_own_panic() {
        let input: Vec<u64> = (0..100).collect();
        fan_out(&input, 4, |&x| {
            assert!(x != 50, "item {x} failed");
            x
        });
    }

    #[test]
    fn fan_out_runs_width_items_at_once() {
        // Every item waits (boundedly) until the in-flight peak reaches
        // `width`, so a serial fallback reads a peak of 1 instead of
        // hanging.
        use std::time::{Duration, Instant};
        let width = 4;
        let (in_flight, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let input: Vec<usize> = (0..width).collect();
        fan_out(&input, width, |_| {
            let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
            peak.fetch_max(now, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(10);
            while peak.load(Ordering::SeqCst) < width && Instant::now() < deadline {
                std::thread::yield_now();
            }
            in_flight.fetch_sub(1, Ordering::SeqCst);
        });
        assert_eq!(peak.load(Ordering::SeqCst), width);
    }

    #[test]
    fn one_worker_thread_runs_every_item_on_the_caller() {
        let engine = Engine::new(EngineConfig::default().threads(1));
        let input: Vec<u64> = (0..16).collect();
        let ids = fan_out(&input, engine.worker_threads(), |_| {
            std::thread::current().id()
        });
        assert!(ids.iter().all(|&id| id == std::thread::current().id()));
    }

    #[test]
    fn default_and_zero_threads_mean_available_parallelism() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(Engine::in_memory().worker_threads(), cores);
        let zero = Engine::new(EngineConfig::default().threads(0));
        assert_eq!(zero.worker_threads(), cores);
    }

    #[test]
    fn sweep_is_byte_identical_at_every_point_width() {
        let caps = [16u64, 64, 256];
        let reference =
            bdb_sim::sweep_per_point(&SweepFamily::atom(), "probe", &caps, sweep_probe_workload);
        for point_threads in [1usize, 2, 4] {
            let engine = Engine::new(
                EngineConfig::default()
                    .threads(2)
                    .point_threads(point_threads),
            );
            let result = engine.sweep("probe", &caps, sweep_probe_workload);
            assert_eq!(result, reference, "{point_threads} point threads");
            let auto = Engine::new(EngineConfig::default().threads(point_threads));
            assert_eq!(auto.sweep("probe", &caps, sweep_probe_workload), reference);
        }
    }

    #[test]
    fn repeated_sweeps_on_one_engine_are_identical() {
        let engine = Engine::new(EngineConfig::default().threads(2));
        let caps = [16u64, 64];
        let first = engine.sweep("probe", &caps, sweep_probe_workload);
        let second = engine.sweep("probe", &caps, sweep_probe_workload);
        assert_eq!(first, second);
    }
}
