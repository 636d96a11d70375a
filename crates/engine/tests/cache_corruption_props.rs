//! Corruption properties of the checksummed cache format.
//!
//! Starting from a genuine BDBC cache entry written by the engine, truncate
//! it at **every** byte offset and flip random bits: decoding must
//! always be a clean, detected failure — never a panic, never a wrong
//! profile — and at the engine level a damaged entry must land in
//! `quarantine/` while the workload is recomputed correctly.

use bdb_engine::{codec, verify_cache_entry, Engine, EngineConfig, QUARANTINE_DIR};
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_workloads::{catalog, Scale, WorkloadDef};
use proptest::prelude::*;
use std::path::PathBuf;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bdb-corrupt-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One genuine cache entry: `(bytes on disk, fingerprint key, canonical
/// profile bytes)` for the first representative workload. Computed once
/// and shared — the property tests damage copies, never the original.
fn genuine_entry(tag: &str) -> (Vec<u8>, u64, String) {
    static ENTRY: std::sync::OnceLock<(Vec<u8>, u64, String)> = std::sync::OnceLock::new();
    ENTRY.get_or_init(|| compute_genuine_entry(tag)).clone()
}

fn compute_genuine_entry(tag: &str) -> (Vec<u8>, u64, String) {
    let dir = scratch(tag);
    let workload: WorkloadDef = catalog::representatives().remove(0);
    let machine = MachineConfig::xeon_e5645();
    let node = NodeConfig::default();
    let engine = Engine::new(EngineConfig::default().threads(1).cache_dir(&dir));
    let profile = engine.profile(&workload, Scale::tiny(), &machine, &node);
    let path = engine
        .cache_file(&workload, Scale::tiny(), &machine, &node)
        .expect("disk cache configured");
    let bytes = std::fs::read(&path).expect("engine wrote the entry");
    assert!(
        bdb_codec::decode_record_of(bdb_codec::RecordKind::CacheEntry, &bytes).is_ok(),
        "entries are intact BDBC cache-entry records"
    );
    let key = bdb_engine::profile_fingerprint(&workload.spec.id, Scale::tiny(), &machine, &node);
    let canonical = codec::profile_to_value(&profile).encode();
    let _ = std::fs::remove_dir_all(&dir);
    (bytes, key, canonical)
}

#[test]
fn truncation_at_every_offset_is_a_detected_failure() {
    let (bytes, key, canonical) = genuine_entry("truncate");
    assert!(bytes.len() > 2, "entry must be non-trivial");
    let whole = verify_cache_entry(&bytes, key).expect("pristine entry verifies");
    assert_eq!(codec::profile_to_value(&whole).encode(), canonical);
    for cut in 0..bytes.len() {
        assert!(
            verify_cache_entry(&bytes[..cut], key).is_err(),
            "truncation at byte {cut} of {} must be detected",
            bytes.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single bit flip, anywhere in the entry, is detected.
    #[test]
    fn any_single_bit_flip_is_a_detected_failure(bit_seed in any::<u64>()) {
        let (bytes, key, _) = genuine_entry("flip1");
        let bit = (bit_seed as usize) % (bytes.len() * 8);
        let mut damaged = bytes.clone();
        damaged[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(
            verify_cache_entry(&damaged, key).is_err(),
            "flipping bit {bit} went undetected"
        );
    }

    /// Multi-bit damage (a burst of up to 8 random flips) never panics
    /// and never yields a profile under the original key unless the
    /// flips cancelled out to the original bytes.
    #[test]
    fn random_bit_bursts_never_yield_a_wrong_profile(
        seeds in collection::vec(any::<u64>(), 1..8),
    ) {
        let (bytes, key, canonical) = genuine_entry("burst");
        let mut damaged = bytes.clone();
        for seed in seeds {
            let bit = (seed as usize) % (bytes.len() * 8);
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
        match verify_cache_entry(&damaged, key) {
            Err(_) => prop_assert!(damaged != bytes, "undamaged entry must verify"),
            Ok(profile) => {
                // Flips can cancel pairwise; verification may only
                // succeed if the bytes really are pristine again.
                prop_assert_eq!(&damaged, &bytes, "damaged bytes verified");
                prop_assert_eq!(codec::profile_to_value(&profile).encode(), canonical);
            }
        }
    }
}

#[test]
fn engine_quarantines_damaged_entries_and_recomputes_cleanly() {
    let dir = scratch("engine-quarantine");
    let workload: WorkloadDef = catalog::representatives().remove(0);
    let machine = MachineConfig::xeon_e5645();
    let node = NodeConfig::default();
    let cold = Engine::new(EngineConfig::default().threads(1).cache_dir(&dir));
    let clean = cold.profile(&workload, Scale::tiny(), &machine, &node);
    let clean_bytes = codec::profile_to_value(&clean).encode();
    let path = cold
        .cache_file(&workload, Scale::tiny(), &machine, &node)
        .expect("disk cache configured");
    let pristine = std::fs::read(&path).expect("entry written");
    drop(cold);

    for (round, bit) in [0usize, 7, 123].into_iter().enumerate() {
        let mut damaged = pristine.clone();
        let bit = bit % (damaged.len() * 8);
        damaged[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(&path, &damaged).expect("plant damaged entry");

        let engine = Engine::new(
            EngineConfig::default()
                .threads(1)
                .cache_dir(&dir)
                .without_memory_cache(),
        );
        let recomputed = engine.profile(&workload, Scale::tiny(), &machine, &node);
        assert_eq!(
            codec::profile_to_value(&recomputed).encode(),
            clean_bytes,
            "recomputed profile must match the clean run"
        );
        let counters = engine.counters();
        assert_eq!(counters.corrupt_quarantined, 1, "round {round}");
        assert_eq!(counters.computed, 1, "damage must be a miss, not a hit");
        let quarantined = std::fs::read_dir(dir.join(QUARANTINE_DIR))
            .map(|entries| entries.flatten().count())
            .unwrap_or(0);
        assert!(quarantined >= 1, "round {round}: damaged entry preserved");
        // The slot was rewritten with a fresh, valid entry.
        assert_eq!(std::fs::read(&path).expect("rewritten entry"), pristine);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
