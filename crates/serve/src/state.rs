//! The materialized catalog and its incremental-recomputation core.
//!
//! [`ServeState`] owns the spec, its [`DepIndex`], and one materialized
//! [`Entry`] per catalog key (profile plus its canonical bytes).
//! [`ServeState::apply`] is the heart of the subsystem: diff the
//! dependency index across the mutation, recompute **only** the created
//! and changed entries (fanned out on the engine's rayon pool via
//! `profile_all`), and emit a [`DeltaBatch`] describing exactly what a
//! subscriber must do to its copy. Unchanged entries are never touched —
//! the engine's `computed` counter proves it — and a changed entry whose
//! recomputed profile is byte-identical to the old one (a knob that
//! doesn't reach that workload's behavior) produces **no** delta at all.
//!
//! The governing invariant, checked by the contract tests: after any
//! mutation sequence, [`ServeState::snapshot_bytes`] equals the bytes of
//! a cold [`ServeState::materialize`] of the final spec.

use crate::index::DepIndex;
use crate::spec::{EntryKey, Mutation, ServeSpec};
use crate::ServeError;
use bdb_engine::codec::profile_to_value;
use bdb_engine::json::Value;
use bdb_engine::{resolve_workload, Engine};
use bdb_wcrt::WorkloadProfile;
use bdb_workloads::WorkloadDef;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One materialized catalog entry.
#[derive(Debug, Clone)]
struct Entry {
    fingerprint: u64,
    profile: WorkloadProfile,
    /// `profile_to_value(profile).encode()` — computed once, reused for
    /// unchanged-detection, snapshots, and byte-identity checks.
    bytes: String,
}

/// One subscriber-visible change to the catalog.
#[derive(Debug, Clone)]
pub enum Delta {
    /// A new entry appeared (workload or config added).
    Created {
        /// The entry's key.
        key: EntryKey,
        /// The entry's new content fingerprint.
        fingerprint: u64,
        /// The freshly computed profile.
        profile: WorkloadProfile,
    },
    /// An existing entry's profile bytes changed.
    Updated {
        /// The entry's key.
        key: EntryKey,
        /// The entry's new content fingerprint.
        fingerprint: u64,
        /// The recomputed profile.
        profile: WorkloadProfile,
    },
    /// An entry disappeared (workload or config removed).
    Deleted {
        /// The entry's key.
        key: EntryKey,
    },
}

impl Delta {
    /// The key the delta applies to.
    pub fn key(&self) -> &EntryKey {
        match self {
            Delta::Created { key, .. } | Delta::Updated { key, .. } | Delta::Deleted { key } => key,
        }
    }
}

/// All deltas from one mutation, tagged with the post-mutation sequence
/// number. Applying batches in `seq` order to a snapshot taken at seq
/// `s` (skipping batches with `seq <= s`) reproduces the live catalog
/// byte-for-byte.
#[derive(Debug, Clone)]
pub struct DeltaBatch {
    /// The catalog sequence number after this mutation.
    pub seq: u64,
    /// The changes, in deterministic key order.
    pub deltas: Vec<Delta>,
}

/// The live catalog: spec + index + materialized entries on an engine.
pub struct ServeState {
    engine: Arc<Engine>,
    spec: ServeSpec,
    index: DepIndex,
    entries: BTreeMap<EntryKey, Entry>,
    seq: u64,
}

impl ServeState {
    /// Materializes the full catalog for `spec` — the cold start. Every
    /// entry is profiled (through the engine's memory/disk
    /// caches, so a restart over a warm cache directory computes
    /// nothing). Fails without profiling if any workload id is unknown.
    pub fn materialize(engine: Arc<Engine>, spec: ServeSpec) -> Result<ServeState, ServeError> {
        let index = DepIndex::build(&spec);
        let keys = spec.entries();
        let entries = materialize_entries(&engine, &spec, &keys)?;
        Ok(ServeState {
            engine,
            spec,
            index,
            entries,
            seq: 0,
        })
    }

    /// The engine the catalog rides (its counters prove warm/cold and
    /// recomputation claims).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The current spec.
    pub fn spec(&self) -> &ServeSpec {
        &self.spec
    }

    /// The current sequence number (0 = freshly materialized).
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Number of materialized entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entry keys, in deterministic order.
    pub fn keys(&self) -> Vec<EntryKey> {
        self.entries.keys().cloned().collect()
    }

    /// One entry's fingerprint and profile — the warm query path. Never
    /// computes; a miss is simply `None`.
    pub fn get(&self, key: &EntryKey) -> Option<(u64, &WorkloadProfile)> {
        self.entries.get(key).map(|e| (e.fingerprint, &e.profile))
    }

    /// One entry's canonical profile bytes.
    pub fn get_bytes(&self, key: &EntryKey) -> Option<&str> {
        self.entries.get(key).map(|e| e.bytes.as_str())
    }

    /// Applies one mutation: edits the spec, recomputes exactly the
    /// entries the [`DepIndex`] diff names, and returns the resulting
    /// delta batch (empty `deltas` if nothing observable changed — the
    /// sequence number still advances). On `Err` the state is untouched.
    pub fn apply(&mut self, mutation: &Mutation) -> Result<DeltaBatch, ServeError> {
        let next_spec = self.spec.apply(mutation)?;
        let next_index = DepIndex::build(&next_spec);
        let diff = self.index.diff(&next_index);
        let mut work: Vec<EntryKey> = Vec::with_capacity(diff.recompute_count());
        work.extend(diff.created.iter().cloned());
        work.extend(diff.changed.iter().cloned());
        work.sort();
        let fresh = materialize_entries(&self.engine, &next_spec, &work)?;

        let mut deltas = Vec::new();
        for key in &diff.removed {
            if let Some(old) = self.entries.remove(key) {
                self.engine.invalidate(old.fingerprint);
                deltas.push(Delta::Deleted { key: key.clone() });
            }
        }
        for (key, entry) in fresh {
            match self.entries.get(&key) {
                Some(old) => {
                    self.engine.invalidate(old.fingerprint);
                    if old.bytes != entry.bytes {
                        deltas.push(Delta::Updated {
                            key: key.clone(),
                            fingerprint: entry.fingerprint,
                            profile: entry.profile.clone(),
                        });
                    }
                }
                None => deltas.push(Delta::Created {
                    key: key.clone(),
                    fingerprint: entry.fingerprint,
                    profile: entry.profile.clone(),
                }),
            }
            self.entries.insert(key, entry);
        }
        deltas.sort_by(|a, b| a.key().cmp(b.key()));
        self.spec = next_spec;
        self.index = next_index;
        self.seq += 1;
        Ok(DeltaBatch {
            seq: self.seq,
            deltas,
        })
    }

    /// The catalog as a canonical JSON value: `{"entries": [...]}` with
    /// one `{"fingerprint", "key", "profile"}` object per entry, in key
    /// order. Deliberately excludes `seq`, so an incrementally mutated
    /// catalog and a cold materialization of the same spec encode to
    /// **identical bytes**.
    pub fn snapshot_value(&self) -> Value {
        let entries = self
            .entries
            .iter()
            .map(|(key, e)| {
                Value::object(vec![
                    ("fingerprint", Value::UInt(e.fingerprint)),
                    ("key", Value::Str(key.render())),
                    ("profile", profile_to_value(&e.profile)),
                ])
            })
            .collect();
        Value::object(vec![("entries", Value::Array(entries))])
    }

    /// [`ServeState::snapshot_value`] encoded — the byte-identity
    /// surface of the incremental-recomputation contract.
    pub fn snapshot_bytes(&self) -> String {
        self.snapshot_value().encode()
    }
}

/// Profiles the given keys under `spec`, grouping by config so each
/// group fans out across the engine's worker pool in one
/// `profile_all` call. Keys must be sorted; output order is irrelevant
/// (a `BTreeMap` comes back).
fn materialize_entries(
    engine: &Engine,
    spec: &ServeSpec,
    keys: &[EntryKey],
) -> Result<BTreeMap<EntryKey, Entry>, ServeError> {
    // Resolve everything up front: no profile is computed unless the
    // whole batch is valid, so a failed mutation has no side effects.
    let mut groups: Vec<(&str, Vec<WorkloadDef>)> = Vec::new();
    for key in keys {
        if !spec.configs.contains_key(&key.config) {
            return Err(ServeError::UnknownConfig(key.config.clone()));
        }
        let def = resolve_workload(&key.workload)
            .ok_or_else(|| ServeError::UnknownWorkload(key.workload.clone()))?;
        match groups.last_mut() {
            Some((config, defs)) if *config == key.config => defs.push(def.clone()),
            _ => groups.push((&key.config, vec![def.clone()])),
        }
    }
    let mut out = BTreeMap::new();
    for (config, defs) in groups {
        let machine = spec
            .configs
            .get(config)
            .ok_or_else(|| ServeError::UnknownConfig(config.to_owned()))?;
        let profiles = engine.profile_all(&defs, spec.scale, machine, &spec.node);
        for (def, profile) in defs.iter().zip(profiles) {
            let fingerprint =
                bdb_engine::profile_fingerprint(&def.spec.id, spec.scale, machine, &spec.node);
            let bytes = profile_to_value(&profile).encode();
            out.insert(
                EntryKey::new(config, &def.spec.id),
                Entry {
                    fingerprint,
                    profile,
                    bytes,
                },
            );
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_engine::json::Value as JsonValue;
    use bdb_workloads::Scale;

    fn small_spec() -> ServeSpec {
        ServeSpec::representatives(Scale::tiny())
            .with_workloads(&[
                "H-WordCount".to_owned(),
                "H-Grep".to_owned(),
                "S-Project".to_owned(),
            ])
            .unwrap()
    }

    #[test]
    fn knob_mutation_recomputes_only_affected_and_matches_cold() {
        let engine = Arc::new(Engine::in_memory());
        let mut state = ServeState::materialize(engine.clone(), small_spec()).unwrap();
        assert_eq!(state.len(), 3);
        let cold_computes = engine.counters().computed;
        assert_eq!(cold_computes, 3);

        let mutation = Mutation::SetKnob {
            config: "xeon-e5645".to_owned(),
            knob: "l1d.size_bytes".to_owned(),
            value: JsonValue::UInt(16384),
        };
        let batch = state.apply(&mutation).unwrap();
        assert_eq!(batch.seq, 1);
        // All three entries ride the mutated config, so all recompute…
        assert_eq!(engine.counters().computed, cold_computes + 3);
        assert_eq!(engine.counters().invalidated, 3);
        // …and shrinking L1d must move the needle on these workloads.
        assert!(!batch.deltas.is_empty());

        // Byte-identity against a cold materialization of the same spec.
        let cold =
            ServeState::materialize(Arc::new(Engine::in_memory()), state.spec().clone()).unwrap();
        assert_eq!(state.snapshot_bytes(), cold.snapshot_bytes());
    }

    #[test]
    fn workload_removal_emits_deletes_and_computes_nothing() {
        let engine = Arc::new(Engine::in_memory());
        let mut state = ServeState::materialize(engine.clone(), small_spec()).unwrap();
        let before = engine.counters().computed;
        let batch = state
            .apply(&Mutation::RemoveWorkload {
                id: "H-Grep".to_owned(),
            })
            .unwrap();
        assert_eq!(
            engine.counters().computed,
            before,
            "deletes must not profile"
        );
        assert_eq!(batch.deltas.len(), 1);
        assert!(matches!(&batch.deltas[0], Delta::Deleted { key } if key.workload == "H-Grep"));
        assert_eq!(state.len(), 2);
    }

    #[test]
    fn failed_mutation_leaves_state_untouched() {
        let engine = Arc::new(Engine::in_memory());
        let mut state = ServeState::materialize(engine.clone(), small_spec()).unwrap();
        let snapshot = state.snapshot_bytes();
        let seq = state.seq();
        let err = state.apply(&Mutation::SetKnob {
            config: "no-such-config".to_owned(),
            knob: "l1d.size_bytes".to_owned(),
            value: JsonValue::UInt(1),
        });
        assert!(matches!(err, Err(ServeError::UnknownConfig(_))));
        assert_eq!(state.seq(), seq);
        assert_eq!(state.snapshot_bytes(), snapshot);
    }
}
