//! The cluster message set and its value-tree codec.
//!
//! Six message kinds cross the wire (paper-fleet semantics in
//! parentheses):
//!
//! * [`Message::Hello`] — worker → coordinator on connect; carries the
//!   worker's name, protocol version, and the content fingerprints
//!   already in its cache (node registration + warm-state
//!   advertisement for affinity scheduling).
//! * [`Message::Assign`] — coordinator → worker; the coordinator's task
//!   index, the task's workload id and content fingerprint, and its
//!   config record (job dispatch). The fingerprint is the cache key a
//!   warm worker answers from; the config record rebuilds the [`Task`]
//!   when it must be computed.
//! * [`Message::Result`] — worker → coordinator; the task index, the
//!   task's content fingerprint, and either the profile or an error
//!   string (job completion). A worker sends a successful result in the
//!   [`Message::ResultEntry`] form: its cache entry's bytes, which the
//!   receiver decodes as a [`Message::Verified`] — the profile and the
//!   record it came from, which a `Replicate` forwards unchanged.
//! * [`Message::Replicate`] — coordinator → worker; a verified result's
//!   cache-entry record pushed for admission into the worker's local
//!   cache (the replicated result tier). No reply — a failed send
//!   tombstones the target.
//! * [`Message::Heartbeat`] — either direction; the receiver echoes the
//!   sequence number (liveness probe).
//! * [`Message::Bye`] — either direction; orderly session end. A worker
//!   sending it leaves the fleet cleanly (its in-flight work re-queues
//!   without being charged a failed attempt).
//!
//! # Wire parts
//!
//! A message is a header — a canonical value tree (insertion-ordered
//! objects, shortest-roundtrip floats) that the wire ships as a bval
//! `WireMessage` record — and, for three kinds, a record that follows
//! the header verbatim ([`message_to_parts`] / [`message_from_parts`]):
//!
//! * a successful `Result` or a `Replicate` carries the result's BDBC
//!   `CacheEntry` record. It is the one `bdb-engine` writes to disk,
//!   built by the one encoder [`bdb_engine::profile_entry_record`]: a
//!   warm worker ships its file's bytes as they are, and
//!   `Result { outcome: Ok(p) }` encodes `p` into the same bytes;
//! * an `Assign` carries its task's config record, a `WireMessage`
//!   record of `{scale_bits, machine, node}` ([`config_record`]). The
//!   coordinator encodes each distinct config once per run and every
//!   `Assign` shares the bytes.
//!
//! Every message is byte-stable: `encode(decode(bytes)) == bytes`.
//!
//! Decoding is strict: unknown message types, malformed fields, a
//! missing or unexpected entry record, and an entry record whose
//! container or CRC-64 fails are [`DecodeError`]s, which the transport
//! layer surfaces as protocol errors rather than silently skipping
//! frames. An intact entry that does not hold the answer — another
//! fingerprint inside, or a value that is not a profile — decodes as a
//! failed `Result`, so the coordinator retries the task like any other
//! failure. A `Replicate`'s record is carried undecoded; the receiving
//! worker's [`bdb_engine::Engine::admit_entry`] checks it. An `Assign`'s
//! config record is carried undecoded too: a warm worker answers by key
//! and never reads it, and a worker that computes checks it with
//! [`task_from_config_record`].

use bdb_codec::bval::ValueRef;
use bdb_engine::codec::{self, get_str, get_u64, DecodeError};
use bdb_engine::json::Value;
use bdb_engine::{EntryError, Task};
use bdb_wcrt::WorkloadProfile;
use std::borrow::Cow;
use std::sync::Arc;

/// Bumped on any wire-visible change; [`Message::Hello`] carries it and
/// the coordinator refuses workers with a different version (a skewed
/// worker could compute with different code and break bit-identity).
/// v2 added `Hello.cached` and [`Message::Replicate`]; v3 moved a
/// successful `Result`'s profile and a `Replicate`'s out of the header
/// into the cache-entry record that follows it; v4 made `Assign` a key
/// (workload id and fingerprint) followed by a shared config record.
pub const PROTOCOL_VERSION: u32 = 4;

/// One protocol message. See the module docs for the six kinds.
#[derive(Debug, Clone)]
pub enum Message {
    /// Worker self-introduction after connecting.
    Hello {
        /// Worker name (diagnostics only; not part of any cache key).
        worker: String,
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u32,
        /// Content fingerprints already in the worker's disk cache —
        /// the coordinator routes matching tasks here first, which is
        /// what makes a warm restart recompute nothing.
        cached: Vec<u64>,
    },
    /// Task dispatch, key first.
    Assign {
        /// Coordinator-side task index (position in the submitted batch).
        task_id: u64,
        /// Catalog id of the task's workload.
        workload_id: String,
        /// The task's content fingerprint: the cache key a warm worker
        /// answers from, and what the rebuilt task must hash to.
        fingerprint: u64,
        /// The task's config record ([`config_record`]), carried
        /// undecoded and shared by every `Assign` of the same config.
        config: Arc<[u8]>,
    },
    /// Task completion (success or failure). A failure is received in
    /// this form; a success is sent in it by a worker that decoded the
    /// profile, and is received as [`Message::Verified`].
    Result {
        /// Echo of the [`Message::Assign`] task index.
        task_id: u64,
        /// The task's content fingerprint — the dedup key for duplicate
        /// or late results.
        fingerprint: u64,
        /// The profile, or the worker-side error rendering.
        outcome: Result<Box<WorkloadProfile>, String>,
    },
    /// The send-side form of a successful [`Message::Result`]: the
    /// task's cache-entry record as the worker's engine holds it
    /// ([`bdb_engine::Engine::run_task_entry`]). It encodes to exactly
    /// the frame `Result { outcome: Ok(profile) }` encodes to, and
    /// decodes as [`Message::Verified`]; no decoder produces this
    /// variant.
    ResultEntry {
        /// Echo of the [`Message::Assign`] task index.
        task_id: u64,
        /// The task's content fingerprint.
        fingerprint: u64,
        /// The BDBC `CacheEntry` record, container and all.
        record: Vec<u8>,
    },
    /// A successful result as the receiver decodes it: the profile,
    /// decoded once from the entry record checked against the
    /// fingerprint, and that record as it crossed the wire, so the
    /// coordinator forwards the worker's bytes to replica targets. It
    /// encodes to the frame it was decoded from.
    Verified {
        /// Echo of the [`Message::Assign`] task index.
        task_id: u64,
        /// The task's content fingerprint.
        fingerprint: u64,
        /// The profile decoded from `record`.
        profile: Box<WorkloadProfile>,
        /// The BDBC `CacheEntry` record, container and all.
        record: Vec<u8>,
    },
    /// A verified result's cache-entry record pushed for admission into
    /// the worker's local cache (replicated result tier). The worker
    /// persists it exactly like a locally computed entry and sends no
    /// reply.
    Replicate {
        /// Workload id the entry belongs to (names the cache file).
        workload_id: String,
        /// The entry's content fingerprint (the cache key).
        fingerprint: u64,
        /// The BDBC `CacheEntry` record, carried undecoded.
        record: Vec<u8>,
    },
    /// Liveness probe; the receiver echoes `seq` back.
    Heartbeat {
        /// Probe sequence number.
        seq: u64,
    },
    /// Orderly end of session.
    Bye,
}

fn hex(fingerprint: u64) -> Value {
    Value::Str(format!("{fingerprint:016x}"))
}

/// Splits a message into its wire parts: the header value tree and the
/// record that follows it on the wire — the cache-entry record of a
/// successful `Result` (either form) or a `Replicate`, or the config
/// record of an `Assign`.
pub fn message_to_parts(msg: &Message) -> (Value, Option<Cow<'_, [u8]>>) {
    match msg {
        Message::Hello {
            worker,
            protocol,
            cached,
        } => (
            Value::object(vec![
                ("type", Value::Str("hello".to_owned())),
                ("worker", Value::Str(worker.clone())),
                ("protocol", Value::UInt(u64::from(*protocol))),
                (
                    "cached",
                    Value::Array(cached.iter().copied().map(hex).collect()),
                ),
            ]),
            None,
        ),
        Message::Assign {
            task_id,
            workload_id,
            fingerprint,
            config,
        } => (
            Value::object(vec![
                ("type", Value::Str("assign".to_owned())),
                ("task_id", Value::UInt(*task_id)),
                ("workload", Value::Str(workload_id.clone())),
                ("fingerprint", hex(*fingerprint)),
            ]),
            Some(Cow::Borrowed(&config[..])),
        ),
        Message::Result {
            task_id,
            fingerprint,
            outcome,
        } => match outcome {
            Ok(profile) => (
                result_header(*task_id, *fingerprint, None),
                Some(Cow::Owned(bdb_engine::profile_entry_record(
                    *fingerprint,
                    profile,
                ))),
            ),
            Err(error) => (result_header(*task_id, *fingerprint, Some(error)), None),
        },
        Message::ResultEntry {
            task_id,
            fingerprint,
            record,
        }
        | Message::Verified {
            task_id,
            fingerprint,
            record,
            ..
        } => (
            result_header(*task_id, *fingerprint, None),
            Some(Cow::Borrowed(record.as_slice())),
        ),
        Message::Replicate {
            workload_id,
            fingerprint,
            record,
        } => (
            Value::object(vec![
                ("type", Value::Str("replicate".to_owned())),
                ("workload", Value::Str(workload_id.clone())),
                ("fingerprint", hex(*fingerprint)),
            ]),
            Some(Cow::Borrowed(record.as_slice())),
        ),
        Message::Heartbeat { seq } => (
            Value::object(vec![
                ("type", Value::Str("heartbeat".to_owned())),
                ("seq", Value::UInt(*seq)),
            ]),
            None,
        ),
        Message::Bye => (
            Value::object(vec![("type", Value::Str("bye".to_owned()))]),
            None,
        ),
    }
}

/// A `Result` header: `{type, task_id, fingerprint}`, plus `error` for
/// a failure (a success's answer is the entry record after it).
fn result_header(task_id: u64, fingerprint: u64, error: Option<&String>) -> Value {
    let mut pairs = vec![
        ("type", Value::Str("result".to_owned())),
        ("task_id", Value::UInt(task_id)),
        ("fingerprint", hex(fingerprint)),
    ];
    if let Some(error) = error {
        pairs.push(("error", Value::Str(error.clone())));
    }
    Value::object(pairs)
}

fn get_fingerprint<'a, V: ValueRef<'a>>(v: V, key: &str) -> Result<u64, DecodeError> {
    u64::from_str_radix(get_str(v, key)?, 16)
        .map_err(|_| DecodeError(format!("{key}: expected 16 hex digits")))
}

/// Rebuilds a message from its wire parts (strict): the decoded header
/// and the bytes after it, if any. See the module docs for which
/// failures are decode errors and which are failed results.
pub fn message_from_parts<'a, V: ValueRef<'a>>(
    v: V,
    entry: Option<&[u8]>,
) -> Result<Message, DecodeError> {
    let kind = get_str(v, "type")?;
    match (kind, entry) {
        ("result", entry) => result_from_parts(v, entry),
        ("replicate", Some(record)) => Ok(Message::Replicate {
            workload_id: get_str(v, "workload")?.to_owned(),
            fingerprint: get_fingerprint(v, "fingerprint")?,
            record: record.to_vec(),
        }),
        ("replicate", None) => Err(DecodeError("replicate: entry record missing".to_owned())),
        ("assign", Some(config)) => Ok(Message::Assign {
            task_id: get_u64(v, "task_id")?,
            workload_id: get_str(v, "workload")?.to_owned(),
            fingerprint: get_fingerprint(v, "fingerprint")?,
            config: Arc::from(config),
        }),
        ("assign", None) => Err(DecodeError("assign: config record missing".to_owned())),
        (_, Some(_)) => Err(DecodeError(format!(
            "{kind}: unexpected bytes after the header"
        ))),
        ("hello", None) => {
            // `cached` arrived with protocol v2; tolerate its absence so
            // the version check in Hello, not a decode error, is what
            // refuses a skewed worker.
            let cached = match v.get("cached").map(|c| c.items()) {
                None => Vec::new(),
                Some(Some(items)) => items
                    .map(|item| {
                        let hex = item.as_str().ok_or_else(|| {
                            DecodeError("cached: expected hex strings".to_owned())
                        })?;
                        u64::from_str_radix(hex, 16)
                            .map_err(|_| DecodeError("cached: expected 16 hex digits".to_owned()))
                    })
                    .collect::<Result<Vec<u64>, DecodeError>>()?,
                Some(None) => return Err(DecodeError("cached: expected array".to_owned())),
            };
            Ok(Message::Hello {
                worker: get_str(v, "worker")?.to_owned(),
                protocol: u32::try_from(get_u64(v, "protocol")?)
                    .map_err(|_| DecodeError("protocol: out of range".to_owned()))?,
                cached,
            })
        }
        ("heartbeat", None) => Ok(Message::Heartbeat {
            seq: get_u64(v, "seq")?,
        }),
        ("bye", None) => Ok(Message::Bye),
        (other, None) => Err(DecodeError(format!("unknown message type {other:?}"))),
    }
}

/// Encodes `task`'s config record: a BDBC `WireMessage` record holding
/// [`codec::task_config_to_value`] — `{scale_bits, machine, node}`, with
/// no workload id, so tasks that share a config share the bytes.
pub fn config_record(task: &Task) -> Vec<u8> {
    bdb_codec::encode_record(
        bdb_codec::RecordKind::WireMessage,
        &bdb_codec::bval::encode_value(&codec::task_config_to_value(task)),
    )
}

/// Rebuilds the [`Task`] of `workload_id` from a config record: the
/// record's container and CRC-64 are checked, then its value decoded
/// strictly (a non-finite or non-positive scale is refused). The caller
/// still checks the task's fingerprint against the `Assign`'s.
pub fn task_from_config_record(workload_id: &str, record: &[u8]) -> Result<Task, DecodeError> {
    let payload = bdb_codec::decode_record_of(bdb_codec::RecordKind::WireMessage, record)
        .map_err(|e| DecodeError(format!("config record: {e}")))?;
    let doc = bdb_codec::bval::decode_doc(payload)
        .map_err(|e| DecodeError(format!("config record: {e}")))?;
    codec::task_from_config_value(workload_id, doc.root())
}

/// A `Result` from its header and entry record: exactly one of the
/// header's `error` and the record is present. The record is decoded
/// once, against the header's fingerprint, and kept: a success is a
/// [`Message::Verified`].
fn result_from_parts<'a, V: ValueRef<'a>>(
    v: V,
    entry: Option<&[u8]>,
) -> Result<Message, DecodeError> {
    let task_id = get_u64(v, "task_id")?;
    let fingerprint = get_fingerprint(v, "fingerprint")?;
    let outcome = match (entry, v.get("error")) {
        (Some(record), None) => match bdb_engine::decode_profile_entry(record, fingerprint) {
            Ok(profile) => {
                return Ok(Message::Verified {
                    task_id,
                    fingerprint,
                    profile: Box::new(profile),
                    record: record.to_vec(),
                })
            }
            Err(EntryError::Damaged(e)) => return Err(DecodeError(format!("entry record: {e}"))),
            Err(EntryError::Invalid(e)) => Err(format!("entry record refused: {e}")),
        },
        (None, Some(error)) => Err(error
            .as_str()
            .ok_or_else(|| DecodeError("error: expected string".to_owned()))?
            .to_owned()),
        _ => {
            return Err(DecodeError(
                "result: exactly one of error/entry record required".to_owned(),
            ))
        }
    };
    Ok(Message::Result {
        task_id,
        fingerprint,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_engine::json;

    fn roundtrip(msg: &Message) -> Message {
        let (header, entry) = message_to_parts(msg);
        let bytes = header.encode();
        let back = message_from_parts(&json::parse(&bytes).unwrap(), entry.as_deref()).unwrap();
        // Byte stability: re-encoding the decoded message is the identity.
        let (again, again_entry) = message_to_parts(&back);
        assert_eq!(again.encode(), bytes);
        assert_eq!(again_entry, entry);
        back
    }

    #[test]
    fn control_messages_roundtrip() {
        roundtrip(&Message::Hello {
            worker: "w0".to_owned(),
            protocol: PROTOCOL_VERSION,
            cached: vec![0x1234, u64::MAX],
        });
        roundtrip(&Message::Heartbeat { seq: 42 });
        roundtrip(&Message::Bye);
        roundtrip(&Message::Result {
            task_id: 7,
            fingerprint: 0xdead_beef,
            outcome: Err("boom".to_owned()),
        });
        roundtrip(&Message::Replicate {
            workload_id: "H-Sort".to_owned(),
            fingerprint: 0xdead_beef,
            record: b"carried undecoded".to_vec(),
        });
    }

    #[test]
    fn hello_without_cached_decodes_as_empty() {
        let v = json::parse("{\"type\":\"hello\",\"worker\":\"w0\",\"protocol\":1}").unwrap();
        match message_from_parts(&v, None).unwrap() {
            Message::Hello {
                protocol, cached, ..
            } => {
                assert_eq!(protocol, 1);
                assert!(cached.is_empty());
            }
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn unknown_type_rejected() {
        let v = json::parse("{\"type\":\"warp\"}").unwrap();
        assert!(message_from_parts(&v, None).is_err());
    }

    #[test]
    fn result_requires_exactly_one_of_error_and_entry() {
        let bare =
            json::parse("{\"type\":\"result\",\"task_id\":1,\"fingerprint\":\"00000000000000ff\"}")
                .unwrap();
        assert!(message_from_parts(&bare, None).is_err());
        let (failed, _) = message_to_parts(&Message::Result {
            task_id: 1,
            fingerprint: 0xff,
            outcome: Err("boom".to_owned()),
        });
        assert!(message_from_parts(&failed, Some(b"entry")).is_err());
    }

    #[test]
    fn entry_bytes_after_a_control_header_are_rejected() {
        let (bye, _) = message_to_parts(&Message::Bye);
        assert!(message_from_parts(&bye, Some(b"x")).is_err());
        let (replicate, _) = message_to_parts(&Message::Replicate {
            workload_id: "w".to_owned(),
            fingerprint: 1,
            record: Vec::new(),
        });
        assert!(message_from_parts(&replicate, None).is_err());
        let (assign, _) = message_to_parts(&Message::Assign {
            task_id: 0,
            workload_id: "w".to_owned(),
            fingerprint: 1,
            config: Arc::from(config_record(&sample_task())),
        });
        assert!(message_from_parts(&assign, None).is_err());
    }

    fn sample_task() -> Task {
        Task::new(
            &bdb_workloads::catalog::full_catalog()[0],
            bdb_workloads::Scale::tiny(),
            &bdb_sim::MachineConfig::xeon_e5645(),
            &bdb_node::NodeConfig::default(),
        )
    }

    #[test]
    fn damaged_config_records_are_refused() {
        let record = config_record(&sample_task());
        for at in [0, record.len() / 2, record.len() - 1] {
            let mut bad = record.clone();
            bad[at] ^= 0x10;
            assert!(
                task_from_config_record("H-Sort", &bad).is_err(),
                "byte {at}"
            );
        }
        assert!(task_from_config_record("H-Sort", b"not a record").is_err());
    }

    #[test]
    fn malformed_cached_entries_rejected() {
        let v =
            json::parse("{\"type\":\"hello\",\"worker\":\"w\",\"protocol\":2,\"cached\":[\"zz\"]}")
                .unwrap();
        assert!(message_from_parts(&v, None).is_err());
    }
}
