//! Corruption properties of the BDBC binary container.
//!
//! The engine-level suite (`cache_corruption_props.rs` in `bdb-engine`)
//! proves damaged *cache entries* are detected and quarantined; this
//! suite proves the same contract one layer down, for **every** binary
//! record kind the workspace ships: starting from a genuine record,
//! truncate it at every byte offset, flip random bits, and rewrite the
//! version field — decoding must always be a clean, detected
//! [`CodecError`], never a panic and never a wrong record. The lossless
//! `binary → JSON → binary` interchange contract is pinned here too.

use bdb_codec::json::Value;
use bdb_codec::{bval, decode_record, decode_record_of, encode_record};
use bdb_codec::{encode_cache_payload, CodecError, RecordKind, FORMAT_VERSION};
use proptest::collection;
use proptest::prelude::*;

/// A representative [`Value`] with every scalar shape the engine emits:
/// nested objects, arrays, integers, shortest-roundtrip floats, strings
/// with escapes, booleans, and null.
fn sample_value(tag: &str) -> Value {
    let text = format!(
        concat!(
            "{{\"workload\":\"{}\",\"metrics\":{{\"ipc\":1.3229,\"l1_mpki\":27.5,",
            "\"bandwidth_gbps\":-0.0625}},\"tags\":[\"bigdata\",\"ispass\",null,true,false],",
            "\"shard\":42,\"note\":\"line\\nbreak \\\"quoted\\\"\"}}"
        ),
        tag
    );
    bdb_codec::json::parse(&text).expect("sample JSON parses")
}

/// One genuine record of each kind, built the way its owning layer
/// builds it. The property tests damage copies, never the originals.
fn genuine_records() -> Vec<(RecordKind, Vec<u8>)> {
    vec![
        (
            RecordKind::CacheEntry,
            encode_record(
                RecordKind::CacheEntry,
                &encode_cache_payload(0x00c0_ffee_f00d_beef, &sample_value("cache")),
            ),
        ),
        (
            RecordKind::WireMessage,
            encode_record(
                RecordKind::WireMessage,
                &bval::encode_value(&sample_value("wire")),
            ),
        ),
        (
            RecordKind::ServeRequest,
            encode_record(
                RecordKind::ServeRequest,
                &bval::encode_value(&sample_value("serve_request")),
            ),
        ),
        (
            RecordKind::ServeDelta,
            encode_record(
                RecordKind::ServeDelta,
                &bval::encode_value(&sample_value("serve_delta")),
            ),
        ),
    ]
}

/// Full strict decode of one record, through the kind-specific payload
/// decoder — the deepest path a reader exercises. Returns a canonical
/// byte form so callers can check losslessness.
fn deep_decode(bytes: &[u8]) -> Result<Vec<u8>, CodecError> {
    let (kind, payload) = decode_record(bytes)?;
    match kind {
        RecordKind::CacheEntry => {
            let (fingerprint, profile) = bdb_codec::decode_cache_payload(payload)?;
            Ok(encode_record(
                kind,
                &encode_cache_payload(fingerprint, &profile),
            ))
        }
        RecordKind::WireMessage | RecordKind::ServeRequest | RecordKind::ServeDelta => {
            let value = bval::decode_value(payload)?;
            Ok(encode_record(kind, &bval::encode_value(&value)))
        }
    }
}

#[test]
fn every_kind_roundtrips_binary_to_json_to_binary_losslessly() {
    for (kind, record) in genuine_records() {
        assert!(
            decode_record_of(kind, &record).is_ok(),
            "{kind:?} record is an intact container of its kind"
        );
        // binary → decode (the JSON value) → re-encode is byte-identical.
        let reencoded = deep_decode(&record).expect("pristine record decodes");
        assert_eq!(reencoded, record, "{kind:?} deep round-trip drifted");
    }
}

#[test]
fn truncation_at_every_offset_is_a_detected_failure() {
    for (kind, record) in genuine_records() {
        for cut in 0..record.len() {
            assert!(
                deep_decode(&record[..cut]).is_err(),
                "{kind:?}: truncation at byte {cut} of {} must be detected",
                record.len()
            );
        }
    }
}

#[test]
fn unknown_versions_fail_closed_for_every_kind() {
    for (kind, record) in genuine_records() {
        for version in [0u16, 2, FORMAT_VERSION + 1, 0x7fff, 0xffff] {
            let mut future = record.clone();
            future[4..6].copy_from_slice(&version.to_le_bytes());
            assert!(
                matches!(
                    deep_decode(&future),
                    Err(CodecError::UnsupportedVersion(v)) if v == version
                ),
                "{kind:?}: version {version} must be rejected by name"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any single bit flip anywhere in any record kind is detected —
    /// header damage by the structural checks, payload and trailer
    /// damage by the CRC-64.
    #[test]
    fn any_single_bit_flip_is_a_detected_failure(bit_seed in any::<u64>()) {
        for (kind, record) in genuine_records() {
            let bit = (bit_seed as usize) % (record.len() * 8);
            let mut damaged = record.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(
                deep_decode(&damaged).is_err(),
                "{:?}: flipping bit {} went undetected",
                kind,
                bit
            );
        }
    }

    /// Multi-bit damage (a burst of up to 8 random flips) never panics
    /// and never yields a record unless the flips cancelled out to the
    /// original bytes.
    #[test]
    fn random_bit_bursts_never_yield_a_wrong_record(
        seeds in collection::vec(any::<u64>(), 1..8),
    ) {
        for (kind, record) in genuine_records() {
            let mut damaged = record.clone();
            for seed in &seeds {
                let bit = (*seed as usize) % (record.len() * 8);
                damaged[bit / 8] ^= 1 << (bit % 8);
            }
            match deep_decode(&damaged) {
                Err(_) => prop_assert!(
                    damaged != record,
                    "{:?}: undamaged record must decode",
                    kind
                ),
                Ok(reencoded) => {
                    // Flips can cancel pairwise; decoding may only
                    // succeed if the bytes really are pristine again.
                    prop_assert_eq!(&damaged, &record, "{:?}: damaged bytes decoded", kind);
                    prop_assert_eq!(&reencoded, &record);
                }
            }
        }
    }

    /// Arbitrary garbage never panics: it decodes or it errors, and the
    /// only inputs that decode are genuine BDBC records (which then
    /// re-encode to the identical bytes).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in collection::vec(any::<u8>(), 0..256)) {
        match deep_decode(&bytes) {
            Err(_) => {}
            Ok(reencoded) => prop_assert_eq!(reencoded, bytes),
        }
    }
}
