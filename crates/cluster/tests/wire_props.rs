//! Property tests for the cluster wire codec: arbitrary messages must
//! round-trip byte-stably, every mid-frame truncation must be detected,
//! and duplicated frames must decode to byte-identical copies (the
//! coordinator's dedup-by-content-key relies on that). Successful
//! results and replicas carry real tiny-scale cache-entry records, and
//! assignments carry real config records that rebuild their task bit
//! for bit.

use bdb_cluster::proto::{config_record, task_from_config_record};
use bdb_cluster::wire::{decode_frames, encode_frame, WireError};
use bdb_cluster::{Message, PROTOCOL_VERSION};
use bdb_engine::{Engine, Task};
use bdb_node::NodeConfig;
use bdb_sim::MachineConfig;
use bdb_wcrt::WorkloadProfile;
use bdb_workloads::{catalog, Scale};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// A real tiny-scale result: its task, profile and cache-entry record.
struct Entry {
    task: Task,
    profile: WorkloadProfile,
    record: Vec<u8>,
}

/// Three catalog workloads' entries, profiled once per test binary.
fn entries() -> &'static [Entry] {
    static ENTRIES: OnceLock<Vec<Entry>> = OnceLock::new();
    ENTRIES.get_or_init(|| {
        let engine = Engine::serial();
        catalog::full_catalog()
            .iter()
            .take(3)
            .map(|def| {
                let task = Task::new(
                    def,
                    Scale::tiny(),
                    &MachineConfig::xeon_e5645(),
                    &NodeConfig::default(),
                );
                let (fingerprint, record) =
                    engine.run_task_entry(&task).expect("catalog task runs");
                let profile = bdb_engine::decode_profile_entry(&record, fingerprint)
                    .expect("the engine's record decodes");
                Entry {
                    task,
                    profile,
                    record,
                }
            })
            .collect()
    })
}

fn entry() -> impl Strategy<Value = &'static Entry> {
    (0..entries().len()).prop_map(|i| &entries()[i])
}

fn ident() -> impl Strategy<Value = String> {
    proptest::collection::vec(97u8..123, 1..16)
        .prop_map(|bytes| bytes.into_iter().map(char::from).collect())
}

fn machine() -> impl Strategy<Value = MachineConfig> {
    prop_oneof![
        Just(MachineConfig::xeon_e5645()),
        Just(MachineConfig::xeon_e5_2697()),
        Just(MachineConfig::atom_d510()),
        (8u64..512).prop_map(MachineConfig::atom_sweep),
    ]
}

fn node() -> impl Strategy<Value = NodeConfig> {
    (0.5f64..4.0, 0.1f64..2.0).prop_map(|(ghz, ipc)| NodeConfig {
        clock_hz: ghz * 1e9,
        assumed_ipc: ipc,
        ..NodeConfig::default()
    })
}

fn task() -> impl Strategy<Value = Task> {
    (ident(), 0.01f64..4.0, machine(), node()).prop_map(|(id, factor, machine, node)| Task {
        workload_id: id,
        scale: Scale::custom(factor),
        machine,
        node,
    })
}

/// The `Assign` the coordinator sends for `task`.
fn assign(task_id: u64, task: &Task) -> Message {
    Message::Assign {
        task_id,
        workload_id: task.workload_id.clone(),
        fingerprint: task.fingerprint(),
        config: Arc::from(config_record(task)),
    }
}

fn message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (ident(), proptest::collection::vec(any::<u64>(), 0..8)).prop_map(|(worker, cached)| {
            Message::Hello {
                worker,
                protocol: PROTOCOL_VERSION,
                cached,
            }
        }),
        (any::<u64>(), task()).prop_map(|(task_id, task)| assign(task_id, &task)),
        (any::<u64>(), any::<u64>(), ident()).prop_map(|(task_id, fingerprint, error)| {
            Message::Result {
                task_id,
                fingerprint,
                outcome: Err(error),
            }
        }),
        (any::<u64>(), entry()).prop_map(|(task_id, entry)| Message::Result {
            task_id,
            fingerprint: entry.task.fingerprint(),
            outcome: Ok(Box::new(entry.profile.clone())),
        }),
        (any::<u64>(), entry()).prop_map(|(task_id, entry)| Message::ResultEntry {
            task_id,
            fingerprint: entry.task.fingerprint(),
            record: entry.record.clone(),
        }),
        entry().prop_map(|entry| Message::Replicate {
            workload_id: entry.task.workload_id.clone(),
            fingerprint: entry.task.fingerprint(),
            record: entry.record.clone(),
        }),
        any::<u64>().prop_map(|seq| Message::Heartbeat { seq }),
        Just(Message::Bye),
    ]
}

/// A worker's warm answer is the same frame as the decoded `Result`
/// re-encoded: the entry record crosses verbatim, and the engine's one
/// encoder rebuilds it from the profile byte for byte.
#[test]
fn warm_result_frames_equal_decoded_result_frames() {
    for entry in entries() {
        let fingerprint = entry.task.fingerprint();
        let warm = encode_frame(&Message::ResultEntry {
            task_id: 5,
            fingerprint,
            record: entry.record.clone(),
        });
        let decoded = encode_frame(&Message::Result {
            task_id: 5,
            fingerprint,
            outcome: Ok(Box::new(entry.profile.clone())),
        });
        assert_eq!(warm, decoded, "{}", entry.task.workload_id);
        assert!(
            warm.ends_with(&entry.record),
            "the record is the frame's tail"
        );
    }
}

/// Mirrors the unit test on a control frame, over a successful Result
/// frame: a single flipped bit anywhere in the payload — header record
/// or entry record — is a decode error, never a wrong profile.
#[test]
fn bit_flips_in_a_result_frame_are_decode_errors() {
    let entry = &entries()[0];
    let frame = encode_frame(&Message::ResultEntry {
        task_id: 1,
        fingerprint: entry.task.fingerprint(),
        record: entry.record.clone(),
    });
    for bit in 32..frame.len() * 8 {
        let mut bad = frame.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        let decoded = decode_frames(&bad);
        assert!(
            matches!(decoded, Err((0, WireError::Decode(_)))),
            "bit {bit} undetected: {decoded:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn messages_roundtrip_byte_stably(msg in message()) {
        let frame = encode_frame(&msg);
        let decoded = decode_frames(&frame).unwrap();
        prop_assert_eq!(decoded.len(), 1);
        // Canonical JSON makes re-encoding the identity on bytes; the
        // warm send form comes back as the `Result` it encodes.
        prop_assert!(!matches!(decoded[0], Message::ResultEntry { .. }));
        prop_assert_eq!(encode_frame(&decoded[0]), frame);
    }

    #[test]
    fn config_records_rebuild_the_task_bit_for_bit(task_id in any::<u64>(), task in task()) {
        let frame = encode_frame(&assign(task_id, &task));
        let decoded = decode_frames(&frame).unwrap();
        let Some(Message::Assign { workload_id, fingerprint, config, .. }) = decoded.first()
        else {
            panic!("decoded {decoded:?}");
        };
        let back = task_from_config_record(workload_id, config).unwrap();
        prop_assert_eq!(
            back.scale.factor().to_bits(),
            task.scale.factor().to_bits()
        );
        prop_assert_eq!(&back, &task);
        prop_assert_eq!(back.fingerprint(), *fingerprint);
        prop_assert_eq!(config_record(&back), config.to_vec());
    }

    #[test]
    fn every_truncation_is_detected(msg in message(), cut_seed in any::<u64>()) {
        let frame = encode_frame(&msg);
        let cut = 1 + (cut_seed as usize) % (frame.len() - 1);
        let err = decode_frames(&frame[..cut]).unwrap_err();
        prop_assert_eq!(err, (0, WireError::Truncated));
    }

    #[test]
    fn duplicated_frames_decode_to_identical_copies(msg in message()) {
        // A faulty worker may send the same Result frame twice; the
        // coordinator dedups by content, which requires both copies to
        // decode to the same bytes.
        let mut stream = encode_frame(&msg);
        stream.extend_from_slice(&encode_frame(&msg));
        let decoded = decode_frames(&stream).unwrap();
        prop_assert_eq!(decoded.len(), 2);
        prop_assert_eq!(encode_frame(&decoded[0]), encode_frame(&decoded[1]));
    }

    #[test]
    fn garbage_after_a_valid_frame_reports_index_one(msg in message(), junk in 1u32..64) {
        let mut stream = encode_frame(&msg);
        stream.extend_from_slice(&junk.to_be_bytes());
        stream.extend_from_slice(&vec![b'x'; junk as usize - 1]);
        let (at, err) = decode_frames(&stream).unwrap_err();
        prop_assert_eq!(at, 1);
        prop_assert!(matches!(err, WireError::Truncated | WireError::Decode(_)));
    }
}
