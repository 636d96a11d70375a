//! The served catalog description and the mutation algebra that edits it.
//!
//! A [`ServeSpec`] names what the daemon keeps materialized: a set of
//! machine configs (keyed by a serving name), a set of workload ids, one
//! scale, and one node config. The catalog is the full cross product —
//! one entry per `config × workload`, addressed by [`EntryKey`]. A
//! [`Mutation`] produces a *new* spec (specs are immutable values); the
//! dependency index diffs the old and new specs to find exactly which
//! entries the edit invalidates.

use crate::knob::apply_machine_knob;
use crate::proto::{get, get_str};
use crate::ServeError;
use bdb_codec::bval::ValueRef;
use bdb_engine::codec::{machine_config_from_value, machine_config_to_value};
use bdb_engine::codec::{node_config_from_value, node_config_to_value};
use bdb_engine::json::Value;
use bdb_engine::resolve_workload;
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_workloads::{catalog, Scale};
use std::collections::{BTreeMap, BTreeSet};

/// Address of one materialized catalog entry: a machine-config serving
/// name plus a workload id, rendered `config/workload` on the wire.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct EntryKey {
    /// The machine config's serving name (a [`ServeSpec::configs`] key).
    pub config: String,
    /// The workload id (e.g. `H-WordCount`).
    pub workload: String,
}

impl EntryKey {
    /// Builds a key from its two components.
    pub fn new(config: &str, workload: &str) -> Self {
        EntryKey {
            config: config.to_owned(),
            workload: workload.to_owned(),
        }
    }

    /// The wire rendering, `config/workload`.
    pub fn render(&self) -> String {
        format!("{}/{}", self.config, self.workload)
    }

    /// Parses the wire rendering. The config name cannot contain `/`
    /// (enforced when configs are added), so the first slash splits.
    pub fn parse(s: &str) -> Result<Self, ServeError> {
        match s.split_once('/') {
            Some((config, workload)) if !config.is_empty() && !workload.is_empty() => {
                Ok(EntryKey::new(config, workload))
            }
            _ => Err(ServeError::Decode(format!(
                "entry key {s:?} is not config/workload"
            ))),
        }
    }
}

impl std::fmt::Display for EntryKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.config, self.workload)
    }
}

/// What the daemon serves: machine configs × workload ids at one scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Machine configs by serving name (names never contain `/`).
    pub configs: BTreeMap<String, MachineConfig>,
    /// Workload ids; every id must resolve in the workload catalog.
    pub workloads: BTreeSet<String>,
    /// The input scale every entry is profiled at.
    pub scale: Scale,
    /// The node config shared by every entry.
    pub node: NodeConfig,
}

impl ServeSpec {
    /// An empty spec (no configs, no workloads) at `scale`.
    pub fn empty(scale: Scale) -> Self {
        ServeSpec {
            configs: BTreeMap::new(),
            workloads: BTreeSet::new(),
            scale,
            node: NodeConfig::default(),
        }
    }

    /// The paper's 17-workload representative subset on the Xeon E5645
    /// (serving name `xeon-e5645`) — the default daemon catalog.
    pub fn representatives(scale: Scale) -> Self {
        let mut spec = ServeSpec::empty(scale);
        spec.configs
            .insert("xeon-e5645".to_owned(), MachineConfig::xeon_e5645());
        spec.workloads = catalog::representatives()
            .iter()
            .map(|w| w.spec.id.clone())
            .collect();
        spec
    }

    /// The full 77-workload catalog on the Xeon E5645.
    pub fn full_catalog(scale: Scale) -> Self {
        let mut spec = ServeSpec::representatives(scale);
        spec.workloads = catalog::full_catalog()
            .iter()
            .map(|w| w.spec.id.clone())
            .collect();
        spec
    }

    /// Replaces the workload set with an explicit id list. Ids are
    /// validated against the catalog; unknown ids are rejected.
    pub fn with_workloads(mut self, ids: &[String]) -> Result<Self, ServeError> {
        let mut set = BTreeSet::new();
        for id in ids {
            if resolve_workload(id).is_none() {
                return Err(ServeError::UnknownWorkload(id.clone()));
            }
            set.insert(id.clone());
        }
        self.workloads = set;
        Ok(self)
    }

    /// Every catalog entry the spec implies, in deterministic
    /// (config, workload) order.
    pub fn entries(&self) -> Vec<EntryKey> {
        let mut keys = Vec::with_capacity(self.configs.len() * self.workloads.len());
        for config in self.configs.keys() {
            for workload in &self.workloads {
                keys.push(EntryKey::new(config, workload));
            }
        }
        keys
    }

    /// Applies one mutation, returning the edited spec. The input spec
    /// is untouched; an `Err` means no state anywhere changed.
    pub fn apply(&self, mutation: &Mutation) -> Result<ServeSpec, ServeError> {
        let mut next = self.clone();
        match mutation {
            Mutation::SetKnob {
                config,
                knob,
                value,
            } => {
                let machine = next
                    .configs
                    .get(config)
                    .ok_or_else(|| ServeError::UnknownConfig(config.clone()))?;
                let edited = apply_machine_knob(machine, knob, value)?;
                next.configs.insert(config.clone(), edited);
            }
            Mutation::AddWorkload { id } => {
                if resolve_workload(id).is_none() {
                    return Err(ServeError::UnknownWorkload(id.clone()));
                }
                if !next.workloads.insert(id.clone()) {
                    return Err(ServeError::DuplicateWorkload(id.clone()));
                }
            }
            Mutation::RemoveWorkload { id } => {
                if !next.workloads.remove(id) {
                    return Err(ServeError::UnknownWorkload(id.clone()));
                }
            }
            Mutation::AddConfig { name, machine } => {
                if name.is_empty() || name.contains('/') {
                    return Err(ServeError::BadMutation(format!(
                        "config name {name:?} must be non-empty and slash-free"
                    )));
                }
                if next.configs.contains_key(name) {
                    return Err(ServeError::DuplicateConfig(name.clone()));
                }
                next.configs.insert(name.clone(), (**machine).clone());
            }
            Mutation::RemoveConfig { name } => {
                if next.configs.remove(name).is_none() {
                    return Err(ServeError::UnknownConfig(name.clone()));
                }
            }
            Mutation::SetScale { factor } => {
                if !factor.is_finite() || *factor <= 0.0 {
                    return Err(ServeError::BadMutation(format!(
                        "scale factor {factor} must be finite and positive"
                    )));
                }
                next.scale = Scale::custom(*factor);
            }
        }
        Ok(next)
    }
}

/// One edit to a [`ServeSpec`]. Applying a mutation never recomputes
/// more than the entries whose fingerprints it changes.
#[derive(Debug, Clone, PartialEq)]
pub enum Mutation {
    /// Sets one machine-config field through its dotted knob path
    /// (e.g. `l1d.size_bytes`, `pipeline.mem_latency`, `predictor`).
    SetKnob {
        /// The serving name of the config to edit.
        config: String,
        /// The dotted path into the config's canonical JSON form.
        knob: String,
        /// The new leaf value (number or string, matching the field).
        value: Value,
    },
    /// Adds a workload id to the served set (one new entry per config).
    AddWorkload {
        /// The catalog workload id.
        id: String,
    },
    /// Removes a workload id (deletes one entry per config).
    RemoveWorkload {
        /// The catalog workload id.
        id: String,
    },
    /// Adds a named machine config (one new entry per workload).
    AddConfig {
        /// The serving name (non-empty, slash-free).
        name: String,
        /// The full machine config (boxed: it dwarfs the other arms).
        machine: Box<MachineConfig>,
    },
    /// Removes a named machine config (deletes one entry per workload).
    RemoveConfig {
        /// The serving name.
        name: String,
    },
    /// Changes the input scale — invalidates the whole catalog.
    SetScale {
        /// The new scale factor (finite and positive).
        factor: f64,
    },
}

/// Encodes a scale factor as its exact `f64` bit pattern (16 hex
/// digits), so a remote mutation profiles with bit-identical inputs.
pub fn scale_to_bits(scale: Scale) -> String {
    format!("{:016x}", scale.factor().to_bits())
}

/// Decodes [`scale_to_bits`], rejecting non-finite or non-positive
/// factors rather than panicking in `Scale::custom`.
pub fn scale_from_bits(bits: &str) -> Result<Scale, ServeError> {
    let bits = u64::from_str_radix(bits, 16)
        .map_err(|_| ServeError::Decode("scale_bits: expected 16 hex digits".to_owned()))?;
    let factor = f64::from_bits(bits);
    if !factor.is_finite() || factor <= 0.0 {
        return Err(ServeError::Decode(
            "scale_bits: factor must be finite and positive".to_owned(),
        ));
    }
    Ok(Scale::custom(factor))
}

/// Encodes a mutation as a canonical JSON value (alphabetical keys, so
/// JSON and BDBC transports re-encode to identical bytes).
pub fn mutation_to_value(m: &Mutation) -> Value {
    match m {
        Mutation::SetKnob {
            config,
            knob,
            value,
        } => Value::object(vec![
            ("config", Value::Str(config.clone())),
            ("knob", Value::Str(knob.clone())),
            ("op", Value::Str("set_knob".to_owned())),
            ("value", value.clone()),
        ]),
        Mutation::AddWorkload { id } => Value::object(vec![
            ("id", Value::Str(id.clone())),
            ("op", Value::Str("add_workload".to_owned())),
        ]),
        Mutation::RemoveWorkload { id } => Value::object(vec![
            ("id", Value::Str(id.clone())),
            ("op", Value::Str("remove_workload".to_owned())),
        ]),
        Mutation::AddConfig { name, machine } => Value::object(vec![
            ("machine", machine_config_to_value(machine)),
            ("name", Value::Str(name.clone())),
            ("op", Value::Str("add_config".to_owned())),
        ]),
        Mutation::RemoveConfig { name } => Value::object(vec![
            ("name", Value::Str(name.clone())),
            ("op", Value::Str("remove_config".to_owned())),
        ]),
        Mutation::SetScale { factor } => Value::object(vec![
            ("op", Value::Str("set_scale".to_owned())),
            (
                "scale_bits",
                Value::Str(scale_to_bits(Scale::custom(*factor))),
            ),
        ]),
    }
}

/// Decodes [`mutation_to_value`]. Structural validation only; semantic
/// checks (does the config exist?) happen in [`ServeSpec::apply`].
pub fn mutation_from_value<'a, V: ValueRef<'a>>(v: V) -> Result<Mutation, ServeError> {
    match get_str(v, "op")? {
        "set_knob" => Ok(Mutation::SetKnob {
            config: get_str(v, "config")?.to_owned(),
            knob: get_str(v, "knob")?.to_owned(),
            value: get(v, "value")?.to_value(),
        }),
        "add_workload" => Ok(Mutation::AddWorkload {
            id: get_str(v, "id")?.to_owned(),
        }),
        "remove_workload" => Ok(Mutation::RemoveWorkload {
            id: get_str(v, "id")?.to_owned(),
        }),
        "add_config" => Ok(Mutation::AddConfig {
            name: get_str(v, "name")?.to_owned(),
            machine: Box::new(
                machine_config_from_value(get(v, "machine")?)
                    .map_err(|e| ServeError::Decode(e.0))?,
            ),
        }),
        "remove_config" => Ok(Mutation::RemoveConfig {
            name: get_str(v, "name")?.to_owned(),
        }),
        "set_scale" => Ok(Mutation::SetScale {
            factor: scale_from_bits(get_str(v, "scale_bits")?)?.factor(),
        }),
        other => Err(ServeError::Decode(format!("unknown mutation op {other:?}"))),
    }
}

/// Encodes a spec as a canonical JSON value (alphabetical keys).
pub fn spec_to_value(s: &ServeSpec) -> Value {
    Value::object(vec![
        (
            "configs",
            Value::Object(
                s.configs
                    .iter()
                    .map(|(name, m)| (name.clone(), machine_config_to_value(m)))
                    .collect(),
            ),
        ),
        ("node", node_config_to_value(&s.node)),
        ("scale_bits", Value::Str(scale_to_bits(s.scale))),
        (
            "workloads",
            Value::Array(s.workloads.iter().cloned().map(Value::Str).collect()),
        ),
    ])
}

/// Decodes [`spec_to_value`], validating names and workload ids.
pub fn spec_from_value(v: &Value) -> Result<ServeSpec, ServeError> {
    let Value::Object(config_pairs) = get(v, "configs")? else {
        return Err(ServeError::Decode(
            "field \"configs\" is not an object".to_owned(),
        ));
    };
    let mut configs = BTreeMap::new();
    for (name, mv) in config_pairs {
        if name.is_empty() || name.contains('/') {
            return Err(ServeError::Decode(format!(
                "config name {name:?} must be non-empty and slash-free"
            )));
        }
        let machine = machine_config_from_value(mv).map_err(|e| ServeError::Decode(e.0))?;
        configs.insert(name.clone(), machine);
    }
    let ids = get(v, "workloads")?
        .as_array()
        .ok_or_else(|| ServeError::Decode("field \"workloads\" is not an array".to_owned()))?;
    let mut workloads = BTreeSet::new();
    for id in ids {
        let id = id
            .as_str()
            .ok_or_else(|| ServeError::Decode("workload id is not a string".to_owned()))?;
        if resolve_workload(id).is_none() {
            return Err(ServeError::UnknownWorkload(id.to_owned()));
        }
        workloads.insert(id.to_owned());
    }
    Ok(ServeSpec {
        configs,
        workloads,
        scale: scale_from_bits(get_str(v, "scale_bits")?)?,
        node: node_config_from_value(get(v, "node")?).map_err(|e| ServeError::Decode(e.0))?,
    })
}
