//! The engine's two contracts, exercised end to end:
//!
//! 1. **Parallel = serial, bit for bit.** `Engine::profile_all` over the
//!    full 77-workload catalog must reproduce the direct serial
//!    `bdb_wcrt::profile::profile_all` path exactly — same order, same
//!    instruction counts, same cycle bits, same metric bits — at any
//!    thread count.
//! 2. **Cache transparency.** A warm cache hit must return exactly the
//!    bytes the cold run wrote, and the decoded profile must be
//!    bit-identical to the freshly computed one.

use bdb_engine::json::Value;
use bdb_engine::{codec, crc64, profile_fingerprint, Engine, EngineConfig, CACHE_FORMAT_VERSION};
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_wcrt::WorkloadProfile;
use bdb_workloads::{catalog, CatalogSet, Scale};
use proptest::prelude::*;

fn bits(p: &WorkloadProfile) -> (String, u64, u64, Vec<u64>) {
    (
        p.spec.id.clone(),
        p.report.instructions,
        p.report.cycles.to_bits(),
        p.metrics.values().iter().map(|v| v.to_bits()).collect(),
    )
}

#[test]
fn parallel_profile_all_is_bit_identical_to_serial_over_full_catalog() {
    let workloads = CatalogSet::Full.workloads();
    assert_eq!(workloads.len(), 77);
    let machine = MachineConfig::xeon_e5645();
    let node = NodeConfig::default();

    let serial = bdb_wcrt::profile::profile_all(&workloads, Scale::tiny(), &machine, &node);
    let parallel = Engine::in_memory().profile_all(&workloads, Scale::tiny(), &machine, &node);

    assert_eq!(parallel.len(), serial.len());
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(bits(p), bits(s), "{} diverged", s.spec.id);
    }
}

#[test]
fn warm_cache_hit_returns_cold_run_bytes() {
    let dir = std::env::temp_dir().join(format!("bdb-engine-contract-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workloads: Vec<_> = catalog::representatives().into_iter().take(3).collect();
    let machine = MachineConfig::xeon_e5645();
    let node = NodeConfig::default();

    let cold_engine = Engine::new(
        EngineConfig::default()
            .cache_dir(&dir)
            .without_memory_cache(),
    );
    let cold = cold_engine.profile_all(&workloads, Scale::tiny(), &machine, &node);
    let cold_bytes: Vec<Vec<u8>> = workloads
        .iter()
        .map(|w| {
            let path = cold_engine
                .cache_file(w, Scale::tiny(), &machine, &node)
                .unwrap();
            std::fs::read(path).expect("cold run wrote the cache file")
        })
        .collect();

    let warm_engine = Engine::new(
        EngineConfig::default()
            .cache_dir(&dir)
            .without_memory_cache(),
    );
    let warm = warm_engine.profile_all(&workloads, Scale::tiny(), &machine, &node);
    assert_eq!(warm_engine.counters().disk_hits, workloads.len() as u64);
    assert_eq!(
        warm_engine.counters().computed,
        0,
        "warm run must not simulate"
    );

    for ((w, c), cold_text) in warm.iter().zip(&cold).zip(&cold_bytes) {
        assert_eq!(bits(w), bits(c), "{}", c.spec.id);
        let path = warm_engine
            .cache_file(
                &workloads
                    .iter()
                    .find(|x| x.spec.id == c.spec.id)
                    .unwrap()
                    .clone(),
                Scale::tiny(),
                &machine,
                &node,
            )
            .unwrap();
        let warm_text = std::fs::read(path).unwrap();
        assert_eq!(&warm_text, cold_text, "{} cache bytes changed", c.spec.id);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache entry as the engine wrote it before BDBC became the only
/// encoding: one canonical-JSON envelope plus a newline, in a `.json`
/// file beside where the `.bin` entry goes.
fn legacy_json_entry(key: u64, profile: &WorkloadProfile) -> Vec<u8> {
    let body = codec::profile_to_value(profile);
    let crc = crc64(body.encode().as_bytes());
    let mut text = Value::object(vec![
        ("format", Value::UInt(CACHE_FORMAT_VERSION)),
        ("crc64", Value::Str(format!("{crc:016x}"))),
        ("fingerprint", Value::Str(format!("{key:016x}"))),
        ("profile", body),
    ])
    .encode();
    text.push('\n');
    text.into_bytes()
}

#[test]
fn legacy_json_entry_is_a_plain_miss() {
    let dir = std::env::temp_dir().join(format!("bdb-engine-legacy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let workload = catalog::representatives().remove(0);
    let machine = MachineConfig::xeon_e5645();
    let node = NodeConfig::default();
    let key = profile_fingerprint(&workload.spec.id, Scale::tiny(), &machine, &node);
    let reference = Engine::serial().profile(&workload, Scale::tiny(), &machine, &node);
    let reference_bytes = codec::profile_to_value(&reference).encode();

    let config = EngineConfig::default()
        .threads(1)
        .cache_dir(&dir)
        .without_memory_cache();
    let engine = Engine::new(config.clone());
    let bin_path = engine
        .cache_file(&workload, Scale::tiny(), &machine, &node)
        .expect("disk cache configured");
    let json_path = bin_path.with_extension("json");
    let legacy = legacy_json_entry(key, &reference);
    std::fs::write(&json_path, &legacy).expect("plant the legacy entry");

    assert!(
        engine.cached_fingerprints().is_empty(),
        "a .json entry must not be advertised as warm"
    );
    let profile = engine.profile(&workload, Scale::tiny(), &machine, &node);
    assert_eq!(codec::profile_to_value(&profile).encode(), reference_bytes);
    let counters = engine.counters();
    assert_eq!(counters.computed, 1, "the legacy entry is a miss");
    assert_eq!(counters.disk_hits, 0);
    assert_eq!(counters.disk_errors, 0, "a miss is not a disk error");
    assert_eq!(counters.corrupt_quarantined, 0, "a miss is not corruption");
    // The recompute wrote the BDBC entry and left the legacy file alone.
    assert!(bdb_codec::decode_record_of(
        bdb_codec::RecordKind::CacheEntry,
        &std::fs::read(&bin_path).unwrap()
    )
    .is_ok());
    assert_eq!(std::fs::read(&json_path).unwrap(), legacy);
    assert_eq!(engine.cached_fingerprints(), vec![key]);

    // The next engine over the directory hits the BDBC entry.
    let warm = Engine::new(config);
    let served = warm.profile(&workload, Scale::tiny(), &machine, &node);
    assert_eq!(codec::profile_to_value(&served).encode(), reference_bytes);
    assert_eq!(
        (warm.counters().disk_hits, warm.counters().computed),
        (1, 0)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any subset of the catalog, any thread count: the engine's parallel
    /// output equals a serial per-workload loop, in order and in bits.
    #[test]
    fn random_subsets_match_serial(
        start in 0usize..70,
        len in 1usize..5,
        threads in 2usize..9,
    ) {
        let catalog = CatalogSet::Full.workloads();
        let end = (start + len).min(catalog.len());
        let subset = &catalog[start..end];
        let machine = MachineConfig::xeon_e5645();
        let node = NodeConfig::default();
        let parallel = Engine::new(EngineConfig::default().threads(threads))
            .profile_all(subset, Scale::tiny(), &machine, &node);
        let serial = Engine::serial().profile_all(subset, Scale::tiny(), &machine, &node);
        prop_assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            prop_assert_eq!(bits(p), bits(s));
        }
    }
}
