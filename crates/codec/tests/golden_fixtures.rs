//! Golden binary fixtures: the committed bytes under
//! `contracts/fixtures/` are the format's compatibility contract.
//!
//! Each fixture is one BDBC record built from fixed sample data, with a
//! JSON interchange sidecar in exactly the shape `bdb-lint`'s
//! `binary-stability` pass validates. This test re-derives all eight
//! files and diffs them byte-for-byte against the checkout, so *any*
//! encoding change — field order, varint width, float formatting, CRC
//! polynomial — fails CI until the change is deliberate and blessed:
//!
//! ```text
//! BDB_BLESS_CONTRACTS=1 cargo test -p bdb-codec --test golden_fixtures
//! ```

use bdb_codec::json::Value;
use bdb_codec::{bval, encode_cache_payload, encode_record, RecordKind};
use std::path::PathBuf;

fn fixtures_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../contracts/fixtures"
    ))
}

fn sample_object(tag: &str) -> Value {
    let text = format!(
        concat!(
            "{{\"kind\":\"{}\",\"metrics\":{{\"bandwidth_gbps\":4.75,\"ipc\":1.3229,",
            "\"l1_mpki\":27.5,\"zero\":-0.0}},\"note\":\"fixture \\\"v1\\\"\\n\",",
            "\"shards\":[1,2,3,null,true,false],\"tasks\":77}}"
        ),
        tag
    );
    bdb_codec::json::parse(&text).expect("sample JSON parses")
}

/// The four golden records and their JSON interchange sidecars, built
/// from data fixed forever — never regenerate from live engine output.
fn golden() -> Vec<(&'static str, Vec<u8>, Value)> {
    let fingerprint = 0x00c0_ffee_f00d_beefu64;
    let profile = sample_object("cache_entry");
    let cache = encode_record(
        RecordKind::CacheEntry,
        &encode_cache_payload(fingerprint, &profile),
    );
    let cache_json = Value::object(vec![
        ("fingerprint", Value::Str(format!("{fingerprint:016x}"))),
        ("profile", profile),
    ]);

    let wire_value = sample_object("wire_message");
    let wire = encode_record(RecordKind::WireMessage, &bval::encode_value(&wire_value));

    // Serve-protocol fixtures, shaped like real `bdb-serve` frames: a
    // knob mutation request and the delta batch it fans out. The shapes
    // are frozen sample data, not live protocol output.
    let request_value = bdb_codec::json::parse(concat!(
        "{\"id\":7,\"mutation\":{\"config\":\"xeon\",\"knob\":\"l1d.size_bytes\",",
        "\"op\":\"set_knob\",\"value\":65536},\"type\":\"mutate\"}"
    ))
    .expect("serve request JSON parses");
    let request = encode_record(
        RecordKind::ServeRequest,
        &bval::encode_value(&request_value),
    );
    let delta_value = bdb_codec::json::parse(concat!(
        "{\"deltas\":[{\"key\":\"xeon/H-WordCount\",\"kind\":\"updated\",",
        "\"profile\":{\"ipc\":1.3229,\"l1_mpki\":27.5}},",
        "{\"key\":\"xeon/M-Sort\",\"kind\":\"deleted\"}],",
        "\"seq\":42,\"type\":\"delta\"}"
    ))
    .expect("serve delta JSON parses");
    let delta = encode_record(RecordKind::ServeDelta, &bval::encode_value(&delta_value));

    vec![
        ("cache_entry", cache, cache_json),
        ("wire_message", wire, wire_value),
        ("serve_request", request, request_value),
        ("serve_delta", delta, delta_value),
    ]
}

#[test]
fn golden_fixtures_match_the_checkout() {
    let dir = fixtures_dir();
    let bless = std::env::var_os("BDB_BLESS_CONTRACTS").is_some();
    if bless {
        std::fs::create_dir_all(&dir).expect("create contracts/fixtures");
    }
    for (name, record, interchange) in golden() {
        let bin = dir.join(format!("{name}.bin"));
        let json = dir.join(format!("{name}.json"));
        let sidecar = format!("{}\n", interchange.encode());
        if bless {
            std::fs::write(&bin, &record).expect("bless binary fixture");
            std::fs::write(&json, &sidecar).expect("bless JSON sidecar");
            continue;
        }
        let on_disk = std::fs::read(&bin).unwrap_or_else(|e| {
            panic!(
                "missing golden fixture {}: {e} (bless with BDB_BLESS_CONTRACTS=1)",
                bin.display()
            )
        });
        assert_eq!(
            on_disk, record,
            "{name}.bin drifted from the encoder — a format change must be deliberate; \
             re-bless with BDB_BLESS_CONTRACTS=1 and call it out in the PR"
        );
        let sidecar_on_disk = std::fs::read_to_string(&json)
            .unwrap_or_else(|e| panic!("missing sidecar {}: {e}", json.display()));
        assert_eq!(sidecar_on_disk, sidecar, "{name}.json sidecar drifted");
    }
}
