//! Property tests for the serve subsystem.
//!
//! Two families. The convergence properties drive arbitrary mutation
//! interleavings through [`ServeState::apply`] and check that the
//! incrementally-patched catalog is byte-identical to a cold full
//! recompute of the final spec — and that a shadow catalog patched only
//! by the emitted delta batches lands on the same bytes. The wire
//! properties check that [`ServeRequest`] frames round-trip byte-stably
//! and that truncated or bit-flipped frames are always rejected, never
//! misdecoded.

use bdb_engine::codec::profile_to_value;
use bdb_engine::json::Value;
use bdb_engine::{resolve_workload, Engine};
use bdb_node::NodeConfig;
use bdb_serve::{
    decode_request, encode_reply, encode_request, Delta, DeltaBatch, EntryKey, Mutation,
    ServeReply, ServeRequest, ServeSpec, ServeState, SERVE_PROTOCOL_VERSION,
};
use bdb_sim::MachineConfig;
use bdb_wcrt::WorkloadProfile;
use bdb_workloads::Scale;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

// ---------------------------------------------------------------------
// Convergence: mutation interleavings vs cold recompute.
// ---------------------------------------------------------------------

/// The mutation universe the interleaving property draws from. Every
/// op is *attempted*; invalid ones (duplicate add, unknown remove) must
/// be rejected without touching the state, which the property relies on.
fn config_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("xeon-e5645".to_owned()),
        Just("atom-d510".to_owned()),
        Just("xeon-e5-2697".to_owned()),
    ]
}

fn workload_id() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("H-WordCount".to_owned()),
        Just("H-Grep".to_owned()),
        Just("S-Project".to_owned()),
        Just("M-Sort".to_owned()),
    ]
}

fn mutation() -> impl Strategy<Value = Mutation> {
    let knob = prop_oneof![
        Just("l1d.size_bytes".to_owned()),
        Just("l2.size_bytes".to_owned()),
        Just("pipeline.mem_latency".to_owned()),
    ];
    let knob_value = prop_oneof![Just(8192u64), Just(16384u64), Just(65536u64)];
    prop_oneof![
        (config_name(), knob, knob_value).prop_map(|(config, knob, v)| Mutation::SetKnob {
            config,
            knob,
            value: Value::UInt(v),
        }),
        workload_id().prop_map(|id| Mutation::AddWorkload { id }),
        workload_id().prop_map(|id| Mutation::RemoveWorkload { id }),
        config_name().prop_map(|name| {
            let machine = match name.as_str() {
                "atom-d510" => MachineConfig::atom_d510(),
                "xeon-e5-2697" => MachineConfig::xeon_e5_2697(),
                _ => MachineConfig::xeon_e5645(),
            };
            Mutation::AddConfig {
                name,
                machine: Box::new(machine),
            }
        }),
        config_name().prop_map(|name| Mutation::RemoveConfig { name }),
        prop_oneof![Just(0.01f64), Just(0.02f64)].prop_map(|factor| Mutation::SetScale { factor }),
    ]
}

fn start_spec() -> ServeSpec {
    ServeSpec::representatives(Scale::tiny())
        .with_workloads(&["H-WordCount".to_owned(), "H-Grep".to_owned()])
        .expect("catalog ids resolve")
}

/// Renders a shadow catalog (key → canonical profile line) for byte
/// comparison against [`ServeState::snapshot_bytes`]-backed state.
fn shadow_lines(shadow: &BTreeMap<EntryKey, (u64, String)>) -> Vec<String> {
    shadow
        .iter()
        .map(|(key, (fp, bytes))| format!("{} {fp:016x} {bytes}", key.render()))
        .collect()
}

fn state_lines(state: &ServeState) -> Vec<String> {
    state
        .keys()
        .into_iter()
        .map(|key| {
            let (fp, _) = state.get(&key).expect("listed key present");
            let bytes = state.get_bytes(&key).expect("listed key present");
            format!("{} {fp:016x} {bytes}", key.render())
        })
        .collect()
}

proptest! {
    // Every case profiles real workloads; keep the case count low and
    // the specs tiny so the suite stays in seconds.
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn any_interleaving_converges_to_the_cold_recompute(
        mutations in proptest::collection::vec(mutation(), 1..6),
    ) {
        let engine = Arc::new(Engine::in_memory());
        let mut state = ServeState::materialize(engine, start_spec())
            .expect("start spec materializes");
        // Shadow catalog maintained purely from the delta stream.
        let mut shadow: BTreeMap<EntryKey, (u64, String)> = state
            .keys()
            .into_iter()
            .map(|key| {
                let (fp, _) = state.get(&key).expect("present");
                let bytes = state.get_bytes(&key).expect("present").to_owned();
                (key, (fp, bytes))
            })
            .collect();
        let mut applied = 0u64;
        for mutation in &mutations {
            let Ok(batch) = state.apply(mutation) else {
                continue; // invalid op; apply() guarantees no state change
            };
            applied += 1;
            prop_assert_eq!(batch.seq, applied, "seq counts applied mutations only");
            for delta in &batch.deltas {
                match delta {
                    Delta::Created { key, fingerprint, profile }
                    | Delta::Updated { key, fingerprint, profile } => {
                        let bytes = profile_to_value(profile).encode();
                        shadow.insert(key.clone(), (*fingerprint, bytes));
                    }
                    Delta::Deleted { key } => {
                        shadow.remove(key);
                    }
                }
            }
        }

        // The incrementally-maintained catalog, the delta-patched shadow,
        // and a cold recompute of the final spec must agree byte for byte.
        let cold = ServeState::materialize(Arc::new(Engine::in_memory()), state.spec().clone())
            .expect("cold materialize");
        prop_assert_eq!(state.snapshot_bytes(), cold.snapshot_bytes());
        prop_assert_eq!(shadow_lines(&shadow), state_lines(&state));
    }
}

// ---------------------------------------------------------------------
// Wire: round-trip, truncation, corruption.
// ---------------------------------------------------------------------

fn ident() -> impl Strategy<Value = String> {
    proptest::collection::vec(97u8..123, 1..16)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

fn entry_key() -> impl Strategy<Value = EntryKey> {
    (ident(), ident()).prop_map(|(config, workload)| EntryKey::new(&config, &workload))
}

fn request() -> impl Strategy<Value = ServeRequest> {
    prop_oneof![
        ident().prop_map(|client| ServeRequest::Hello {
            client,
            protocol: SERVE_PROTOCOL_VERSION,
        }),
        (any::<u64>(), entry_key()).prop_map(|(id, key)| ServeRequest::Query { id, key }),
        any::<u64>().prop_map(|id| ServeRequest::Snapshot { id }),
        (any::<u64>(), mutation()).prop_map(|(id, mutation)| ServeRequest::Mutate { id, mutation }),
        any::<u64>().prop_map(|id| ServeRequest::Subscribe { id }),
        any::<u64>().prop_map(|id| ServeRequest::Stats { id }),
        any::<u64>().prop_map(|id| ServeRequest::Shutdown { id }),
        Just(ServeRequest::Bye),
    ]
}

/// One real profile, computed once — delta frames need a profile body
/// and simulating a fresh one per proptest case would swamp the suite.
fn sample_profile() -> &'static WorkloadProfile {
    static PROFILE: OnceLock<WorkloadProfile> = OnceLock::new();
    PROFILE.get_or_init(|| {
        let workload = resolve_workload("H-WordCount").expect("catalog id");
        Engine::in_memory().profile(
            workload,
            Scale::tiny(),
            &MachineConfig::xeon_e5645(),
            &NodeConfig::default(),
        )
    })
}

fn delta() -> impl Strategy<Value = Delta> {
    prop_oneof![
        (entry_key(), any::<u64>()).prop_map(|(key, fingerprint)| Delta::Created {
            key,
            fingerprint,
            profile: sample_profile().clone(),
        }),
        (entry_key(), any::<u64>()).prop_map(|(key, fingerprint)| Delta::Updated {
            key,
            fingerprint,
            profile: sample_profile().clone(),
        }),
        entry_key().prop_map(|key| Delta::Deleted { key }),
    ]
}

fn delta_reply() -> impl Strategy<Value = ServeReply> {
    (any::<u64>(), proptest::collection::vec(delta(), 0..4))
        .prop_map(|(seq, deltas)| ServeReply::Delta(DeltaBatch { seq, deltas }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn requests_roundtrip_byte_stably(req in request()) {
        let frame = encode_request(&req);
        let decoded = decode_request(&frame).expect("own frames decode");
        prop_assert_eq!(&decoded, &req);
        // Canonical key order makes re-encoding the identity on bytes.
        prop_assert_eq!(encode_request(&decoded), frame);
    }

    #[test]
    fn truncated_request_frames_are_rejected(req in request(), cut_seed in any::<u64>()) {
        let frame = encode_request(&req);
        let cut = 1 + (cut_seed as usize) % (frame.len() - 1);
        prop_assert!(
            decode_request(&frame[..cut]).is_err(),
            "a strict prefix must never decode"
        );
    }

    #[test]
    fn bitflipped_delta_frames_are_rejected(
        reply in delta_reply(),
        pos_seed in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut frame = encode_reply(&reply);
        // Any byte, magic included: a damaged magic is a bad record, and
        // past it the CRC-64 has to catch any single-bit flip.
        let pos = (pos_seed as usize) % frame.len();
        frame[pos] ^= 1 << bit;
        prop_assert!(
            bdb_serve::decode_reply(&frame).is_err(),
            "a bit flip at byte {} must be rejected",
            pos
        );
    }
}
