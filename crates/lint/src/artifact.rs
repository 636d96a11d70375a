//! Artifact passes: the checked-in paper contracts and the on-disk JSON
//! artifacts.
//!
//! * `catalog-spec` — `contracts/catalog.tsv` lists exactly 77 workloads
//!   with unique ids and full subclass coverage.
//! * `metric-schema` — `contracts/metrics.txt` lists exactly 45 unique
//!   metric names.
//! * `reduction-config` — `contracts/reduction.txt` pins 17 clusters
//!   whose representative weights sum to 77 and whose ids exist in the
//!   catalog spec.
//! * `cache-format` — every `results/cache/*.bin` entry is a valid BDBC
//!   cache record whose canonical re-encoding is byte-identical, whose
//!   fingerprint matches its file name, and whose value has the shape its
//!   name promises: a profile with the 45-metric vector, or (for a
//!   `*.sweep.bin` entry) three miss-ratio curves over the same
//!   capacities.
//! * `bench-format` — every `BENCH_*.json` record at the repo root is a
//!   canonical single-line JSON object with a `bench` tag.
//! * `binary-stability` — the golden fixtures under `contracts/fixtures/`
//!   decode, re-encode byte-identically, and agree with their JSON
//!   interchange sidecars (the `binary → JSON → binary` contract), so
//!   accidental format drift fails the lint gate.
//!
//! The code contracts these artifacts mirror are enforced by the root
//! test-suite (`tests/contracts_sync.rs`), which regenerates the files
//! from `bdb-workloads` / `bdb-wcrt` and compares bytes.

use crate::json::{self, Value};
use crate::{Diagnostic, PAPER_CLUSTERS, PAPER_METRICS, PAPER_WORKLOADS};
use bdb_codec::RecordKind;
use std::collections::BTreeSet;
use std::path::Path;

/// The three workload subclasses (paper §2) the catalog must cover.
const CATEGORIES: &[&str] = &["Service", "DataAnalysis", "InteractiveAnalysis"];

/// Runs every artifact pass.
pub fn run(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    let catalog_ids = check_catalog(root, &mut diags);
    check_metrics(root, &mut diags);
    check_reduction(root, &catalog_ids, &mut diags);
    check_cache_dir(root, &mut diags);
    check_bench_files(root, &mut diags);
    check_fixtures(root, &mut diags);
    Ok(diags)
}

/// Non-comment, non-empty lines with their 1-indexed numbers.
fn data_lines(text: &str) -> Vec<(usize, &str)> {
    text.lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim_end()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

fn check_catalog(root: &Path, diags: &mut Vec<Diagnostic>) -> BTreeSet<String> {
    const RULE: &str = "catalog-spec";
    let path = root.join("contracts/catalog.tsv");
    let mut ids = BTreeSet::new();
    let Ok(text) = std::fs::read_to_string(&path) else {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!("missing catalog spec (must list the {PAPER_WORKLOADS} workloads)"),
        ));
        return ids;
    };
    let rows = data_lines(&text);
    if rows.len() != PAPER_WORKLOADS {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!(
                "catalog lists {} workloads; the paper's catalog has exactly {PAPER_WORKLOADS}",
                rows.len()
            ),
        ));
    }
    let mut categories_seen = BTreeSet::new();
    for (lineno, row) in rows {
        let fields: Vec<&str> = row.split('\t').collect();
        if fields.len() != 5 {
            diags.push(Diagnostic::new(
                &path,
                lineno,
                RULE,
                format!(
                    "expected 5 tab-separated fields (id, category, stack, kernel, dataset), got {}",
                    fields.len()
                ),
            ));
            continue;
        }
        let id = fields[0];
        if !ids.insert(id.to_owned()) {
            diags.push(Diagnostic::new(
                &path,
                lineno,
                RULE,
                format!("duplicate workload id `{id}`"),
            ));
        }
        if !CATEGORIES.contains(&fields[1]) {
            diags.push(Diagnostic::new(
                &path,
                lineno,
                RULE,
                format!("unknown category `{}` for `{id}`", fields[1]),
            ));
        }
        categories_seen.insert(fields[1].to_owned());
    }
    for category in CATEGORIES {
        if !categories_seen.contains(*category) {
            diags.push(Diagnostic::new(
                &path,
                0,
                RULE,
                format!("no workload covers the `{category}` subclass"),
            ));
        }
    }
    ids
}

fn check_metrics(root: &Path, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "metric-schema";
    let path = root.join("contracts/metrics.txt");
    let Ok(text) = std::fs::read_to_string(&path) else {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!("missing metric schema (must list the {PAPER_METRICS} metrics)"),
        ));
        return;
    };
    let rows = data_lines(&text);
    if rows.len() != PAPER_METRICS {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!(
                "schema lists {} metrics; the characterization vector has exactly {PAPER_METRICS}",
                rows.len()
            ),
        ));
    }
    let mut seen = BTreeSet::new();
    for (lineno, name) in rows {
        if !seen.insert(name.to_owned()) {
            diags.push(Diagnostic::new(
                &path,
                lineno,
                RULE,
                format!("duplicate metric name `{name}`"),
            ));
        }
        if !name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        {
            diags.push(Diagnostic::new(
                &path,
                lineno,
                RULE,
                format!("metric name `{name}` is not snake_case"),
            ));
        }
    }
}

fn check_reduction(root: &Path, catalog_ids: &BTreeSet<String>, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "reduction-config";
    let path = root.join("contracts/reduction.txt");
    let Ok(text) = std::fs::read_to_string(&path) else {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!("missing reduction config (must pin the {PAPER_CLUSTERS} clusters)"),
        ));
        return;
    };
    let mut clusters: Option<u64> = None;
    let mut reps: Vec<(usize, String, u64)> = Vec::new();
    for (lineno, line) in data_lines(&text) {
        if let Some(rhs) = line.strip_prefix("clusters") {
            let rhs = rhs.trim_start().strip_prefix('=').map(str::trim);
            match rhs.and_then(|v| v.parse().ok()) {
                Some(v) => clusters = Some(v),
                None => diags.push(Diagnostic::new(
                    &path,
                    lineno,
                    RULE,
                    "malformed `clusters = <n>` line",
                )),
            }
        } else if let Some((id, weight)) = line.split_once('\t') {
            match weight.trim().parse() {
                Ok(w) => reps.push((lineno, id.to_owned(), w)),
                Err(_) => diags.push(Diagnostic::new(
                    &path,
                    lineno,
                    RULE,
                    format!("malformed weight for representative `{id}`"),
                )),
            }
        } else {
            diags.push(Diagnostic::new(
                &path,
                lineno,
                RULE,
                "expected `clusters = <n>` or `<representative>\\t<weight>`",
            ));
        }
    }
    if clusters != Some(PAPER_CLUSTERS as u64) {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!(
                "reduction pins {clusters:?} clusters; the paper reduces 77 → {PAPER_CLUSTERS}"
            ),
        ));
    }
    if reps.len() != PAPER_CLUSTERS {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!(
                "{} representatives listed; one per cluster means exactly {PAPER_CLUSTERS}",
                reps.len()
            ),
        ));
    }
    let total: u64 = reps.iter().map(|(_, _, w)| w).sum();
    if total != PAPER_WORKLOADS as u64 {
        diags.push(Diagnostic::new(
            &path,
            0,
            RULE,
            format!("representative weights sum to {total}, not {PAPER_WORKLOADS}"),
        ));
    }
    let mut seen = BTreeSet::new();
    for (lineno, id, _) in &reps {
        if !seen.insert(id.clone()) {
            diags.push(Diagnostic::new(
                &path,
                *lineno,
                RULE,
                format!("duplicate representative `{id}`"),
            ));
        }
        if !catalog_ids.is_empty() && !catalog_ids.contains(id) {
            diags.push(Diagnostic::new(
                &path,
                *lineno,
                RULE,
                format!("representative `{id}` is not in the catalog spec"),
            ));
        }
    }
}

fn check_cache_dir(root: &Path, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "cache-format";
    let dir = root.join("results/cache");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return; // no cache directory is fine — nothing persisted yet
    };
    let mut files: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "bin"))
        .collect();
    files.sort();
    for file in files {
        let Ok(bytes) = std::fs::read(&file) else {
            diags.push(Diagnostic::new(&file, 0, RULE, "unreadable cache entry"));
            continue;
        };
        check_cache_entry_binary(&file, &bytes, diags);
    }
}

/// Validates one binary (BDBC) cache entry: container integrity, a
/// fingerprint that matches the filename, canonical byte-stability, and
/// the profile or sweep schema its file name selects.
fn check_cache_entry_binary(file: &Path, bytes: &[u8], diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "cache-format";
    let mut emit = |message: String| diags.push(Diagnostic::new(file, 0, RULE, message));
    let payload = match bdb_codec::decode_record_of(RecordKind::CacheEntry, bytes) {
        Ok(p) => p,
        Err(e) => {
            emit(format!("binary cache entry does not decode: {e}"));
            return;
        }
    };
    let (fingerprint, value) = match bdb_codec::decode_cache_payload(payload) {
        Ok(pair) => pair,
        Err(e) => {
            emit(format!("binary cache payload does not decode: {e}"));
            return;
        }
    };
    let reencoded = bdb_codec::encode_record(
        RecordKind::CacheEntry,
        &bdb_codec::encode_cache_payload(fingerprint, &value),
    );
    if reencoded != bytes {
        emit("binary cache entry is not byte-stable: canonical re-encoding differs".into());
    }
    let name = file
        .file_name()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_default();
    // `<id>-<key>.sweep.bin` is a sweep entry, `<id>-<key>.bin` a profile.
    let (stem, sweep) = match name.strip_suffix(".sweep.bin") {
        Some(stem) => (stem, true),
        None => (name.strip_suffix(".bin").unwrap_or(&name), false),
    };
    let hex = format!("{fingerprint:016x}");
    if !stem.ends_with(&format!("-{hex}")) {
        emit(format!(
            "filename fingerprint does not match the embedded fingerprint `{hex}`"
        ));
    }
    if sweep {
        check_sweep_shape(&value, &hex, stem, &mut emit);
    } else {
        check_profile_shape(&value, &hex, stem, &mut emit);
    }
}

/// The engine's file-name form of a workload id: every character outside
/// `[A-Za-z0-9_-]` becomes `_`.
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

/// Sweep-schema checks: `instruction`, `data` and `unified` curves, each
/// a list of `[capacity, ratio]` points over the same non-empty
/// capacities, labelled with the workload id the file name encodes.
fn check_sweep_shape(sweep: &Value, fingerprint: &str, stem: &str, emit: &mut dyn FnMut(String)) {
    let mut first: Option<Vec<u64>> = None;
    for key in ["instruction", "data", "unified"] {
        let Some(curve) = sweep.get(key) else {
            emit(format!("sweep is missing the `{key}` curve"));
            continue;
        };
        if let Some(label) = curve.get("label").and_then(Value::as_str) {
            let expected = format!("{}-{fingerprint}", safe_id(label));
            if stem != expected {
                emit(format!(
                    "filename does not encode the `{key}` curve label `{label}` (expected `{expected}`)"
                ));
            }
        } else {
            emit(format!("`{key}` curve has no string `label`"));
        }
        let Some(points) = curve.get("points").and_then(Value::as_array) else {
            emit(format!("`{key}` curve `points` must be an array"));
            continue;
        };
        let mut capacities = Vec::with_capacity(points.len());
        for point in points {
            match point.as_array() {
                Some([kib, ratio]) if ratio.is_numeric() => match kib.as_u64() {
                    Some(kib) => capacities.push(kib),
                    None => emit(format!("`{key}` curve capacity is not an unsigned integer")),
                },
                _ => emit(format!(
                    "`{key}` curve point is not a [capacity, ratio] pair"
                )),
            }
        }
        if capacities.is_empty() {
            emit(format!("`{key}` curve has no points"));
        }
        match &first {
            None => first = Some(capacities),
            Some(expected) if *expected != capacities => emit(format!(
                "`{key}` curve capacities differ from the `instruction` curve's"
            )),
            Some(_) => {}
        }
    }
}

/// Profile-schema checks: the four profile sections, a file name that
/// encodes the workload id, and the 45-metric vector.
fn check_profile_shape(
    profile: &Value,
    fingerprint: &str,
    stem: &str,
    emit: &mut dyn FnMut(String),
) {
    for key in ["spec", "report", "system", "metrics"] {
        if profile.get(key).is_none() {
            emit(format!("profile is missing the `{key}` field"));
        }
    }
    if let Some(id) = profile
        .get("spec")
        .and_then(|s| s.get("id"))
        .and_then(Value::as_str)
    {
        let safe = safe_id(id);
        if !fingerprint.is_empty() && stem != format!("{safe}-{fingerprint}") {
            emit(format!(
                "filename does not encode the workload id `{id}` (expected `{safe}-{fingerprint}`)"
            ));
        }
    }
    match profile.get("metrics").and_then(Value::as_array) {
        Some(metrics) => {
            if metrics.len() != PAPER_METRICS {
                emit(format!(
                    "profile carries {} metrics; the characterization vector has exactly {PAPER_METRICS}",
                    metrics.len()
                ));
            }
            if let Some(bad) = metrics.iter().position(|m| !m.is_numeric()) {
                emit(format!("metric #{bad} is not numeric"));
            }
        }
        None => emit("profile `metrics` must be an array".into()),
    }
}

/// The `binary-stability` pass: every golden fixture under
/// `contracts/fixtures/` must decode, re-encode to the identical bytes,
/// and agree with its JSON interchange sidecar — the `binary → JSON →
/// binary` contract, pinned in CI so format drift cannot land silently.
fn check_fixtures(root: &Path, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "binary-stability";
    let dir = root.join("contracts/fixtures");
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return; // fixtures are optional until the format ships entries
    };
    let mut files: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "bin"))
        .collect();
    files.sort();
    for file in files {
        let Ok(bytes) = std::fs::read(&file) else {
            diags.push(Diagnostic::new(&file, 0, RULE, "unreadable fixture"));
            continue;
        };
        check_one_fixture(&file, &bytes, diags);
    }
}

fn check_one_fixture(file: &Path, bytes: &[u8], diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "binary-stability";
    let mut emit = |message: String| diags.push(Diagnostic::new(file, 0, RULE, message));
    let (kind, payload) = match bdb_codec::decode_record(bytes) {
        Ok(pair) => pair,
        Err(e) => {
            emit(format!("fixture does not decode: {e}"));
            return;
        }
    };
    // Decode to the interchange Value, re-encode the binary
    // record from it, and render the JSON sidecar form.
    let (reencoded, interchange) = match kind {
        RecordKind::CacheEntry => {
            let (fingerprint, profile) = match bdb_codec::decode_cache_payload(payload) {
                Ok(pair) => pair,
                Err(e) => {
                    emit(format!("cache payload does not decode: {e}"));
                    return;
                }
            };
            let rebuilt = bdb_codec::encode_record(
                kind,
                &bdb_codec::encode_cache_payload(fingerprint, &profile),
            );
            let interchange = Value::object(vec![
                ("fingerprint", Value::Str(format!("{fingerprint:016x}"))),
                ("profile", profile),
            ]);
            (rebuilt, interchange)
        }
        RecordKind::WireMessage | RecordKind::ServeRequest | RecordKind::ServeDelta => {
            let value = match bdb_codec::bval::decode_value(payload) {
                Ok(v) => v,
                Err(e) => {
                    emit(format!("bval payload does not decode: {e}"));
                    return;
                }
            };
            let rebuilt = bdb_codec::encode_record(kind, &bdb_codec::bval::encode_value(&value));
            (rebuilt, value)
        }
    };
    if reencoded != bytes {
        emit("fixture is not byte-stable: canonical re-encoding differs".into());
    }
    let sidecar = file.with_extension("json");
    match std::fs::read_to_string(&sidecar) {
        Ok(text) => {
            let expected = format!("{}\n", interchange.encode());
            if text != expected {
                emit(
                    "JSON sidecar disagrees with the decoded fixture — \
                     the binary → JSON → binary contract is broken"
                        .into(),
                );
            }
        }
        Err(_) => emit(format!(
            "fixture has no JSON interchange sidecar `{}`",
            sidecar.display()
        )),
    }
}

fn check_bench_files(root: &Path, diags: &mut Vec<Diagnostic>) {
    const RULE: &str = "bench-format";
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut files: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .map(|n| n.to_string_lossy())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    files.sort();
    for file in files {
        let Ok(text) = std::fs::read_to_string(&file) else {
            diags.push(Diagnostic::new(&file, 0, RULE, "unreadable bench record"));
            continue;
        };
        for (idx, line) in text.lines().enumerate() {
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let lineno = idx + 1;
            match json::parse(line) {
                Ok(value) => {
                    if value.get("bench").and_then(Value::as_str).is_none() {
                        diags.push(Diagnostic::new(
                            &file,
                            lineno,
                            RULE,
                            "bench record has no string `bench` tag",
                        ));
                    }
                    if value.encode() != line {
                        diags.push(Diagnostic::new(
                            &file,
                            lineno,
                            RULE,
                            "bench record is not byte-stable: canonical re-encoding differs",
                        ));
                    }
                }
                Err(e) => diags.push(Diagnostic::new(
                    &file,
                    lineno,
                    RULE,
                    format!("bench record is not valid JSON: {e}"),
                )),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bdb-lint-art-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("contracts")).unwrap();
        dir
    }

    fn catalog_text(n: usize) -> String {
        let mut out = String::from("# id\tcategory\tstack\tkernel\tdataset\n");
        for i in 0..n {
            let category = CATEGORIES[i % CATEGORIES.len()];
            out.push_str(&format!("W-{i}\t{category}\tHadoop\tSort\tWikipedia\n"));
        }
        out
    }

    #[test]
    fn short_catalog_is_rejected() {
        let root = scratch("catalog76");
        std::fs::write(root.join("contracts/catalog.tsv"), catalog_text(76)).unwrap();
        let mut diags = Vec::new();
        check_catalog(&root, &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == "catalog-spec" && d.message.contains("76")),
            "{diags:?}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn full_catalog_is_accepted() {
        let root = scratch("catalog77");
        std::fs::write(root.join("contracts/catalog.tsv"), catalog_text(77)).unwrap();
        let mut diags = Vec::new();
        let ids = check_catalog(&root, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(ids.len(), 77);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn short_metric_schema_is_rejected() {
        let root = scratch("metrics44");
        let names: Vec<String> = (0..44).map(|i| format!("metric_{i}")).collect();
        std::fs::write(root.join("contracts/metrics.txt"), names.join("\n") + "\n").unwrap();
        let mut diags = Vec::new();
        check_metrics(&root, &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.rule == "metric-schema" && d.message.contains("44")));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn crc64_matches_the_engine_check_value() {
        assert_eq!(bdb_codec::crc64(b"123456789"), 0x995dc9bbdf1939fa);
    }

    #[test]
    fn binary_cache_entry_is_validated_and_bit_flips_detected() {
        let profile = Value::object(vec![
            ("spec", Value::object(vec![("id", Value::Str("X".into()))])),
            ("report", Value::object(vec![])),
            ("system", Value::object(vec![])),
            ("metrics", Value::Array(vec![Value::UInt(1); PAPER_METRICS])),
        ]);
        let fp = 0x1234_5678_90ab_cdefu64;
        let bytes = bdb_codec::encode_record(
            RecordKind::CacheEntry,
            &bdb_codec::encode_cache_payload(fp, &profile),
        );
        let mut diags = Vec::new();
        check_cache_entry_binary(Path::new("X-1234567890abcdef.bin"), &bytes, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        let mut damaged = bytes.clone();
        damaged[bytes.len() / 2] ^= 1;
        let mut diags = Vec::new();
        check_cache_entry_binary(Path::new("X-1234567890abcdef.bin"), &damaged, &mut diags);
        assert!(!diags.is_empty(), "bit flip must surface a diagnostic");
    }

    #[test]
    fn sweep_cache_entry_is_checked_as_a_sweep() {
        let curve = |metric: &str, caps: &[u64]| {
            let points = caps
                .iter()
                .map(|&kib| Value::Array(vec![Value::UInt(kib), Value::Float(0.25)]))
                .collect();
            Value::object(vec![
                ("label", Value::Str("X".into())),
                ("metric", Value::Str(metric.into())),
                ("points", Value::Array(points)),
            ])
        };
        let sweep = |data_caps: &[u64]| {
            Value::object(vec![
                ("instruction", curve("Instruction", &[16, 64])),
                ("data", curve("Data", data_caps)),
                ("unified", curve("Unified", &[16, 64])),
            ])
        };
        let fp = 0x1234_5678_90ab_cdefu64;
        let entry = |value: &Value| {
            bdb_codec::encode_record(
                RecordKind::CacheEntry,
                &bdb_codec::encode_cache_payload(fp, value),
            )
        };
        let name = Path::new("X-1234567890abcdef.sweep.bin");
        let mut diags = Vec::new();
        check_cache_entry_binary(name, &entry(&sweep(&[16, 64])), &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        let mut diags = Vec::new();
        check_cache_entry_binary(name, &entry(&sweep(&[16, 128])), &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("capacities differ")),
            "{diags:?}"
        );
        // The same sweep under a profile name fails the profile schema.
        let mut diags = Vec::new();
        check_cache_entry_binary(
            Path::new("X-1234567890abcdef.bin"),
            &entry(&sweep(&[16, 64])),
            &mut diags,
        );
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("missing the `spec`")),
            "{diags:?}"
        );
    }

    #[test]
    fn fixture_sidecar_mismatch_is_flagged() {
        let root = scratch("fixtures");
        std::fs::create_dir_all(root.join("contracts/fixtures")).unwrap();
        let value = json::parse("{\"kind\":\"assign\",\"n\":3}").unwrap();
        let record = bdb_codec::encode_record(
            RecordKind::WireMessage,
            &bdb_codec::bval::encode_value(&value),
        );
        let sidecar = root.join("contracts/fixtures/wire_message.json");
        std::fs::write(root.join("contracts/fixtures/wire_message.bin"), &record).unwrap();
        std::fs::write(&sidecar, format!("{}\n", value.encode())).unwrap();
        let mut diags = Vec::new();
        check_fixtures(&root, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
        std::fs::write(&sidecar, "{\"kind\":\"other\"}\n").unwrap();
        let mut diags = Vec::new();
        check_fixtures(&root, &mut diags);
        assert!(
            diags.iter().any(|d| d.rule == "binary-stability"),
            "{diags:?}"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
