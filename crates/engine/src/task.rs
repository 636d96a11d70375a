//! The task boundary: one schedulable unit of profiling work.
//!
//! A [`Task`] names everything a measurement depends on — workload id,
//! scale, machine config, node config — in a form that can cross a
//! process or network boundary (see `bdb-cluster`). [`Engine::run_task`]
//! turns a task back into a [`WorkloadProfile`], and
//! [`Engine::run_task_entry`] into that profile's cache-entry record;
//! both consult the engine's caches exactly like [`Engine::profile`], so
//! a worker with a warm local cache never re-simulates.
//! [`Engine::cached_entry`] is the disk-cache lookup underneath, by
//! workload id and fingerprint alone: a warm worker answers from it
//! before it has rebuilt the task.
//!
//! The workload is carried *by id*, not by value: workload definitions
//! contain closures and cannot be serialized, but every id resolves
//! against the same checked-in catalog on every node, so sending the id
//! is equivalent to sending the workload (the `catalog-spec` lint pins
//! the catalog to the contract file). Scale, machine and node configs
//! travel as one config record ([`crate::codec::task_config_to_value`])
//! — plain data whose exact field values the fingerprint depends on.

use crate::{profile_entry_record, profile_fingerprint, Engine};
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_wcrt::WorkloadProfile;
use bdb_workloads::{catalog, Scale, WorkloadDef};
use std::sync::atomic::Ordering;
use std::sync::OnceLock;

/// One unit of profiling work, self-describing across process boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Catalog id of the workload (e.g. `"H-WordCount"`). Resolved on the
    /// executing node via [`resolve_workload`].
    pub workload_id: String,
    /// Input scale; the exact `f64` factor participates in the
    /// fingerprint, so it is preserved bit-for-bit on the wire.
    pub scale: Scale,
    /// Full simulated-machine configuration.
    pub machine: MachineConfig,
    /// Full node (system-metrics) configuration.
    pub node: NodeConfig,
}

impl Task {
    /// Builds the task for profiling `workload` with the given inputs.
    pub fn new(
        workload: &WorkloadDef,
        scale: Scale,
        machine: &MachineConfig,
        node: &NodeConfig,
    ) -> Self {
        Task {
            workload_id: workload.spec.id.clone(),
            scale,
            machine: machine.clone(),
            node: *node,
        }
    }

    /// The task's content fingerprint — the same key the profile cache
    /// uses, and the key the cluster coordinator dedups results by.
    pub fn fingerprint(&self) -> u64 {
        profile_fingerprint(&self.workload_id, self.scale, &self.machine, &self.node)
    }
}

/// The result of executing one [`Task`].
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// The executed task's [`Task::fingerprint`], echoed back so the
    /// consumer can verify the result answers the task it asked about.
    pub fingerprint: u64,
    /// The measured profile.
    pub profile: WorkloadProfile,
}

/// A task could not be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The workload id resolves to nothing in this node's catalog —
    /// either a typo or a catalog-version skew between nodes.
    UnknownWorkload(String),
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::UnknownWorkload(id) => {
                write!(f, "unknown workload id {id:?} (catalog skew?)")
            }
        }
    }
}

impl std::error::Error for TaskError {}

/// The full shipped universe in catalog order: the 77 catalog
/// workloads, the six MPI controls, and every comparison suite's kernels
/// — exactly the sets the bench binaries profile.
fn universe() -> Vec<WorkloadDef> {
    let mut universe = catalog::full_catalog();
    universe.extend(catalog::mpi_workloads());
    for &suite in &catalog::ALL_SUITES {
        universe.extend(catalog::suite_workloads(suite));
    }
    universe
}

/// Resolves a workload id against the shipped universe (the catalog, the
/// MPI controls and every comparison suite's kernels). The index is built once per process and sorted by id;
/// the stable sort keeps equal ids in catalog order, so first match wins
/// (ids are unique across the universe, which a test pins).
pub fn resolve_workload(id: &str) -> Option<&'static WorkloadDef> {
    static INDEX: OnceLock<Vec<WorkloadDef>> = OnceLock::new();
    let index = INDEX.get_or_init(|| {
        let mut defs = universe();
        defs.sort_by(|a, b| a.spec.id.cmp(&b.spec.id));
        defs
    });
    let first = index.partition_point(|w| w.spec.id.as_str() < id);
    index.get(first).filter(|w| w.spec.id == id)
}

impl Engine {
    /// Executes one [`Task`]: resolves the workload, profiles it through
    /// the caches, and returns the profile tagged with the task's
    /// fingerprint. This is the entry point cluster workers call; its
    /// output is bit-identical to [`Engine::profile`] with the same
    /// inputs on any node. The fingerprint is computed once and keys the
    /// cache lookup too.
    pub fn run_task(&self, task: &Task) -> Result<TaskResult, TaskError> {
        let workload = resolve_workload(&task.workload_id)
            .ok_or_else(|| TaskError::UnknownWorkload(task.workload_id.clone()))?;
        let fingerprint = task.fingerprint();
        let profile =
            self.profile_keyed(fingerprint, workload, task.scale, &task.machine, &task.node);
        Ok(TaskResult {
            fingerprint,
            profile,
        })
    }

    /// Executes one [`Task`] into its cache-entry record rather than its
    /// profile: the task's fingerprint and the BDBC `CacheEntry` bytes
    /// [`crate::profile_entry_record`] builds for it. A disk hit returns
    /// the entry as it sits on disk, after the container, CRC-64 and
    /// fingerprint check of every cache read but without decoding the
    /// profile — what a warm cluster worker ships. A miss profiles
    /// through the memo or a simulation, as [`Engine::run_task`] does,
    /// and encodes the record the engine persists.
    pub fn run_task_entry(&self, task: &Task) -> Result<(u64, Vec<u8>), TaskError> {
        let workload = resolve_workload(&task.workload_id)
            .ok_or_else(|| TaskError::UnknownWorkload(task.workload_id.clone()))?;
        let fingerprint = task.fingerprint();
        if let Some(record) = self.cached_entry(&workload.spec.id, fingerprint) {
            return Ok((fingerprint, record));
        }
        let profile = self.memo(fingerprint).unwrap_or_else(|| {
            self.simulate(fingerprint, workload, task.scale, &task.machine, &task.node)
        });
        Ok((fingerprint, profile_entry_record(fingerprint, &profile)))
    }

    /// The disk cache's entry record for workload `workload_id` under
    /// `fingerprint`, as it sits on disk: a key lookup that needs no
    /// [`Task`]. The record gets the container, CRC-64 and fingerprint
    /// check of every cache read; its profile is not decoded. A hit
    /// counts as a disk hit; a miss (no disk cache, no file, or a record
    /// that fails the check and is quarantined) is `None`.
    pub fn cached_entry(&self, workload_id: &str, fingerprint: u64) -> Option<Vec<u8>> {
        let record =
            self.read_entry::<WorkloadProfile, _>(workload_id, fingerprint, |record, _| {
                Ok(record.to_vec())
            })?;
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        Some(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_task_matches_direct_profile() {
        let engine = Engine::serial();
        let defs = catalog::representatives();
        let def = &defs[0];
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let task = Task::new(def, Scale::tiny(), &machine, &node);
        let via_task = engine.run_task(&task).unwrap();
        let direct = engine.profile(def, Scale::tiny(), &machine, &node);
        assert_eq!(via_task.fingerprint, task.fingerprint());
        assert_eq!(
            via_task.fingerprint,
            profile_fingerprint(&def.spec.id, Scale::tiny(), &machine, &node)
        );
        assert_eq!(
            crate::codec::profile_to_value(&via_task.profile).encode(),
            crate::codec::profile_to_value(&direct).encode(),
            "task path must be byte-identical to the direct path"
        );
    }

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bdb-task-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_task() -> Task {
        Task::new(
            &catalog::representatives()[0],
            Scale::tiny(),
            &MachineConfig::xeon_e5645(),
            &NodeConfig::default(),
        )
    }

    #[test]
    fn run_task_entry_ships_the_file_and_builds_the_same_bytes_on_a_miss() {
        let dir = scratch_dir("entry");
        let task = tiny_task();
        let cold = Engine::new(crate::EngineConfig::default().threads(1).cache_dir(&dir));
        let (fingerprint, built) = cold.run_task_entry(&task).unwrap();
        assert_eq!(fingerprint, task.fingerprint());
        assert_eq!(cold.counters().computed, 1);
        let path = dir.join(crate::cache_file_name(&task.workload_id, fingerprint));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            built,
            "the miss writes what it returns"
        );
        let profile = cold.run_task(&task).unwrap().profile;
        assert_eq!(built, profile_entry_record(fingerprint, &profile));

        // A warm engine returns the file as it sits, undecoded: an intact
        // record holding no profile goes out as is, and only the
        // decoding path quarantines it.
        let planted = bdb_codec::encode_record(
            bdb_codec::RecordKind::CacheEntry,
            &bdb_codec::encode_cache_payload(fingerprint, &crate::json::Value::object(Vec::new())),
        );
        std::fs::write(&path, &planted).unwrap();
        let warm = Engine::new(crate::EngineConfig::default().threads(1).cache_dir(&dir));
        assert_eq!(warm.run_task_entry(&task).unwrap().1, planted);
        let counters = warm.counters();
        assert_eq!((counters.disk_hits, counters.corrupt_quarantined), (1, 0));
        let again = warm.run_task(&task).unwrap().profile;
        let counters = warm.counters();
        assert_eq!((counters.corrupt_quarantined, counters.computed), (1, 1));
        assert_eq!(profile_entry_record(fingerprint, &again), built);

        // A damaged record is quarantined and recomputed on the raw path.
        let mut damaged = built.clone();
        damaged[built.len() / 2] ^= 0x01;
        std::fs::write(&path, &damaged).unwrap();
        let raw = Engine::new(crate::EngineConfig::default().threads(1).cache_dir(&dir));
        assert_eq!(raw.run_task_entry(&task).unwrap().1, built);
        let counters = raw.counters();
        assert_eq!((counters.corrupt_quarantined, counters.computed), (1, 1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admit_entry_writes_intact_records_verbatim_and_refuses_the_rest() {
        let dir = scratch_dir("admit");
        let task = tiny_task();
        let (fingerprint, record) = Engine::serial().run_task_entry(&task).unwrap();
        let engine = Engine::new(crate::EngineConfig::default().threads(1).cache_dir(&dir));
        let mut damaged = record.clone();
        damaged[20] ^= 0x80;
        assert!(matches!(
            engine.admit_entry(&task.workload_id, fingerprint, &damaged),
            Err(crate::EntryError::Damaged(_))
        ));
        assert!(matches!(
            engine.admit_entry(&task.workload_id, fingerprint ^ 1, &record),
            Err(crate::EntryError::Invalid(_))
        ));
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_none(),
            "nothing written"
        );
        engine
            .admit_entry(&task.workload_id, fingerprint, &record)
            .unwrap();
        let counters = engine.counters();
        assert_eq!(
            (counters.replicas_admitted, counters.replicas_refused),
            (1, 2)
        );
        assert_eq!(engine.run_task_entry(&task).unwrap().1, record);
        assert_eq!(engine.counters().computed, 0, "the replica is a disk hit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_workload_is_an_error() {
        let engine = Engine::serial();
        let task = Task {
            workload_id: "no-such-workload".to_owned(),
            scale: Scale::tiny(),
            machine: MachineConfig::xeon_e5645(),
            node: NodeConfig::default(),
        };
        assert!(matches!(
            engine.run_task(&task),
            Err(TaskError::UnknownWorkload(id)) if id == "no-such-workload"
        ));
    }

    #[test]
    fn resolver_covers_catalog_mpi_and_suites() {
        // Every id of the catalog, the MPI controls and every suite
        // resolves to its own def, and ids are unique, so the index's
        // first-match semantics cannot pick a different def.
        let defs = universe();
        assert!(defs.len() > 77, "MPI and suite kernels are included");
        let mut ids: Vec<&str> = defs.iter().map(|w| w.spec.id.as_str()).collect();
        ids.sort_unstable();
        let total = ids.len();
        ids.dedup();
        assert_eq!(ids.len(), total, "ids must be unique for first-match");
        for def in &defs {
            let resolved = resolve_workload(&def.spec.id).expect("every id resolves");
            assert_eq!(resolved.spec, def.spec, "{}", def.spec.id);
        }
        for missing in ["", "H-WordCount ", "h-wordcount", "~"] {
            assert!(resolve_workload(missing).is_none(), "{missing:?}");
        }
    }
}
