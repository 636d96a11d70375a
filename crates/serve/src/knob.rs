//! Dotted-path knob edits on machine configs.
//!
//! Rather than plumbing a setter per tunable, a knob edit round-trips
//! the config through its canonical JSON form: encode, replace the leaf
//! the dotted path names (`l1d.size_bytes`, `pipeline.mem_latency`,
//! `predictor`, …), and strictly re-decode. The codec's validation is
//! the single source of truth for what values are legal — a typo'd path
//! or a wrong-typed value is rejected with the codec's own reason, and
//! no partially-edited config can ever exist.

use crate::ServeError;
use bdb_engine::codec::{machine_config_from_value, machine_config_to_value};
use bdb_engine::json::Value;
use bdb_sim::MachineConfig;

/// Applies one knob edit, returning the edited config. `path` is a
/// dotted path into the config's canonical JSON form; `value` replaces
/// the leaf it names. Fails (leaving nothing changed) if the path does
/// not exist, traverses a `null` (a config without an L3 has no
/// `l3.size_bytes`), or the codec rejects the edited config.
pub fn apply_machine_knob(
    machine: &MachineConfig,
    path: &str,
    value: &Value,
) -> Result<MachineConfig, ServeError> {
    let bad = |reason: String| ServeError::BadKnob {
        path: path.to_owned(),
        reason,
    };
    let mut v = machine_config_to_value(machine);
    set_path(&mut v, path, value.clone()).map_err(&bad)?;
    machine_config_from_value(&v).map_err(|e| bad(e.0))
}

/// Replaces the leaf `path` names inside `v` with `new`.
fn set_path(v: &mut Value, path: &str, new: Value) -> Result<(), String> {
    let mut cursor = v;
    let mut new = Some(new);
    let segments: Vec<&str> = path.split('.').collect();
    let last = segments.len().saturating_sub(1);
    for (depth, segment) in segments.iter().enumerate() {
        let Value::Object(pairs) = cursor else {
            return Err(format!(
                "segment {segment:?} traverses a non-object (is a parent null?)"
            ));
        };
        let known: Vec<String> = pairs.iter().map(|(k, _)| k.clone()).collect();
        let Some(slot) = pairs
            .iter_mut()
            .find(|(k, _)| k.as_str() == *segment)
            .map(|(_, slot)| slot)
        else {
            return Err(format!(
                "no field {segment:?} here; fields are: {}",
                known.join(", ")
            ));
        };
        if depth == last {
            *slot = new.take().unwrap_or(Value::Null);
            return Ok(());
        }
        cursor = slot;
    }
    Err("empty knob path".to_owned())
}

/// Every dotted knob path the config exposes, in canonical order — the
/// introspection surface behind `serve_smoke --knobs` and the docs
/// table. Leaves under an absent L3 (`l3: null`) are not listed.
pub fn machine_knobs(machine: &MachineConfig) -> Vec<String> {
    let mut paths = Vec::new();
    walk(&machine_config_to_value(machine), "", &mut paths);
    paths
}

fn walk(v: &Value, prefix: &str, out: &mut Vec<String>) {
    match v {
        Value::Object(pairs) => {
            for (key, child) in pairs {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                walk(child, &path, out);
            }
        }
        Value::Null => {}
        _ => out.push(prefix.to_owned()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_knob_changes_exactly_one_field() {
        let base = MachineConfig::xeon_e5645();
        let edited =
            apply_machine_knob(&base, "l1d.size_bytes", &Value::UInt(65536)).expect("valid knob");
        assert_eq!(edited.l1d.size_bytes, 65536);
        assert_eq!(edited.l1i, base.l1i);
        assert_eq!(edited.l2, base.l2);
        assert_eq!(edited.pipeline, base.pipeline);
    }

    #[test]
    fn nested_pipeline_knob_applies() {
        let base = MachineConfig::xeon_e5645();
        let edited = apply_machine_knob(&base, "pipeline.mem_latency", &Value::UInt(250))
            .expect("valid knob");
        assert_eq!(edited.pipeline.mem_latency, 250);
    }

    #[test]
    fn unknown_path_lists_the_real_fields() {
        let base = MachineConfig::xeon_e5645();
        let err =
            apply_machine_knob(&base, "l1d.way_count", &Value::UInt(8)).expect_err("bogus field");
        let ServeError::BadKnob { reason, .. } = err else {
            panic!("expected BadKnob, got {err:?}");
        };
        assert!(reason.contains("size_bytes"), "reason was: {reason}");
    }

    #[test]
    fn null_l3_cannot_be_edited_through() {
        let atom = MachineConfig::atom_d510();
        assert!(atom.l3.is_none(), "atom has no L3 in this repro");
        let err = apply_machine_knob(&atom, "l3.size_bytes", &Value::UInt(1 << 20));
        assert!(matches!(err, Err(ServeError::BadKnob { .. })), "{err:?}");
    }

    #[test]
    fn wrong_typed_value_is_rejected_by_the_codec() {
        let base = MachineConfig::xeon_e5645();
        let err = apply_machine_knob(&base, "l1d.size_bytes", &Value::Str("big".to_owned()));
        assert!(matches!(err, Err(ServeError::BadKnob { .. })), "{err:?}");
    }

    #[test]
    fn out_of_range_latency_is_refused_not_truncated() {
        let base = MachineConfig::xeon_e5645();
        let widest = u64::from(u32::MAX);
        let edited = apply_machine_knob(&base, "pipeline.l2_latency", &Value::UInt(widest))
            .expect("u32::MAX is a legal latency");
        assert_eq!(edited.pipeline.l2_latency, u32::MAX);
        for path in [
            "pipeline.l2_latency",
            "pipeline.l3_latency",
            "pipeline.mem_latency",
            "pipeline.tlb_walk_latency",
            "pipeline.stlb_latency",
        ] {
            let err = apply_machine_knob(&base, path, &Value::UInt(widest + 8));
            let Err(ServeError::BadKnob { reason, .. }) = err else {
                panic!("{path}: expected BadKnob, got {err:?}");
            };
            assert!(reason.contains("out of range"), "{path}: {reason}");
        }
    }

    #[test]
    fn knob_listing_covers_the_leaves() {
        let knobs = machine_knobs(&MachineConfig::xeon_e5645());
        for expected in [
            "name",
            "l1d.size_bytes",
            "l1i.assoc",
            "l2.line_bytes",
            "pipeline.base_cpi",
            "predictor",
        ] {
            assert!(
                knobs.iter().any(|k| k == expected),
                "missing {expected} in {knobs:?}"
            );
        }
        let atom_knobs = machine_knobs(&MachineConfig::atom_d510());
        assert!(
            !atom_knobs.iter().any(|k| k.starts_with("l3.")),
            "null l3 must not list leaves: {atom_knobs:?}"
        );
    }
}
