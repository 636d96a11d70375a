//! The cluster message set and its canonical-JSON codec.
//!
//! Six message kinds cross the wire (paper-fleet semantics in
//! parentheses):
//!
//! * [`Message::Hello`] — worker → coordinator on connect; carries the
//!   worker's name, protocol version, and the content fingerprints
//!   already in its cache (node registration + warm-state
//!   advertisement for affinity scheduling).
//! * [`Message::Assign`] — coordinator → worker; one [`Task`] plus the
//!   coordinator's task index (job dispatch).
//! * [`Message::Result`] — worker → coordinator; the task index, the
//!   task's content fingerprint, and either the profile or an error
//!   string (job completion).
//! * [`Message::Replicate`] — coordinator → worker; a verified profile
//!   pushed for admission into the worker's local cache (the replicated
//!   result tier). No reply — a failed send tombstones the target.
//! * [`Message::Heartbeat`] — either direction; the receiver echoes the
//!   sequence number (liveness probe).
//! * [`Message::Bye`] — either direction; orderly session end. A worker
//!   sending it leaves the fleet cleanly (its in-flight work re-queues
//!   without being charged a failed attempt).
//!
//! Encoding reuses `bdb-engine`'s canonical JSON value tree
//! (insertion-ordered objects, shortest-roundtrip floats), which the
//! wire ships as a BDBC record, so every message — including the
//! embedded profile — is byte-stable: `encode(decode(bytes)) == bytes`.
//! Decoding is strict; unknown message types or malformed fields are
//! [`DecodeError`]s, which the transport layer surfaces as protocol
//! errors rather than silently skipping frames.

use bdb_engine::codec::{self, DecodeError};
use bdb_engine::json::Value;
use bdb_engine::Task;
use bdb_wcrt::WorkloadProfile;

/// Bumped on any wire-visible change; [`Message::Hello`] carries it and
/// the coordinator refuses workers with a different version (a skewed
/// worker could compute with different code and break bit-identity).
/// v2 added `Hello.cached` and [`Message::Replicate`].
pub const PROTOCOL_VERSION: u32 = 2;

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
    /// Task dispatch.
    Assign {
        /// Coordinator-side task index (position in the submitted batch).
        task_id: u64,
        /// The work itself.
        task: Box<Task>,
    },
    /// Task completion (success or failure).
    Result {
        /// Echo of the [`Message::Assign`] task index.
        task_id: u64,
        /// The task's content fingerprint — the dedup key for duplicate
        /// or late results.
        fingerprint: u64,
        /// The profile, or the worker-side error rendering.
        outcome: Result<Box<WorkloadProfile>, String>,
    },
    /// A verified profile pushed for admission into the worker's local
    /// cache (replicated result tier). The worker persists it exactly
    /// like a locally computed entry and sends no reply.
    Replicate {
        /// Workload id the entry belongs to (names the cache file).
        workload_id: String,
        /// The entry's content fingerprint (the cache key).
        fingerprint: u64,
        /// The profile itself.
        profile: Box<WorkloadProfile>,
    },
    /// Liveness probe; the receiver echoes `seq` back.
    Heartbeat {
        /// Probe sequence number.
        seq: u64,
    },
    /// Orderly end of session.
    Bye,
}

/// Encodes a message as a canonical-JSON [`Value`] tree.
pub fn message_to_value(msg: &Message) -> Value {
    match msg {
        Message::Hello {
            worker,
            protocol,
            cached,
        } => Value::object(vec![
            ("type", Value::Str("hello".to_owned())),
            ("worker", Value::Str(worker.clone())),
            ("protocol", Value::UInt(u64::from(*protocol))),
            (
                "cached",
                Value::Array(
                    cached
                        .iter()
                        .map(|fp| Value::Str(format!("{fp:016x}")))
                        .collect(),
                ),
            ),
        ]),
        Message::Assign { task_id, task } => Value::object(vec![
            ("type", Value::Str("assign".to_owned())),
            ("task_id", Value::UInt(*task_id)),
            ("task", codec::task_to_value(task)),
        ]),
        Message::Result {
            task_id,
            fingerprint,
            outcome,
        } => {
            let mut pairs = vec![
                ("type", Value::Str("result".to_owned())),
                ("task_id", Value::UInt(*task_id)),
                ("fingerprint", Value::Str(format!("{fingerprint:016x}"))),
            ];
            match outcome {
                Ok(profile) => pairs.push(("profile", codec::profile_to_value(profile))),
                Err(error) => pairs.push(("error", Value::Str(error.clone()))),
            }
            Value::object(pairs)
        }
        Message::Replicate {
            workload_id,
            fingerprint,
            profile,
        } => Value::object(vec![
            ("type", Value::Str("replicate".to_owned())),
            ("workload", Value::Str(workload_id.clone())),
            ("fingerprint", Value::Str(format!("{fingerprint:016x}"))),
            ("profile", codec::profile_to_value(profile)),
        ]),
        Message::Heartbeat { seq } => Value::object(vec![
            ("type", Value::Str("heartbeat".to_owned())),
            ("seq", Value::UInt(*seq)),
        ]),
        Message::Bye => Value::object(vec![("type", Value::Str("bye".to_owned()))]),
    }
}

fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, DecodeError> {
    v.get(key)
        .ok_or_else(|| DecodeError(format!("{key}: missing")))
}

fn get_u64(v: &Value, key: &str) -> Result<u64, DecodeError> {
    get(v, key)?
        .as_u64()
        .ok_or_else(|| DecodeError(format!("{key}: expected unsigned integer")))
}

fn get_str<'a>(v: &'a Value, key: &str) -> Result<&'a str, DecodeError> {
    get(v, key)?
        .as_str()
        .ok_or_else(|| DecodeError(format!("{key}: expected string")))
}

fn get_fingerprint(v: &Value, key: &str) -> Result<u64, DecodeError> {
    u64::from_str_radix(get_str(v, key)?, 16)
        .map_err(|_| DecodeError(format!("{key}: expected 16 hex digits")))
}

/// Decodes a message from a [`Value`] tree (strict).
pub fn message_from_value(v: &Value) -> Result<Message, DecodeError> {
    match get_str(v, "type")? {
        "hello" => {
            // `cached` arrived with protocol v2; tolerate its absence so
            // the version check in Hello, not a decode error, is what
            // refuses a skewed worker.
            let cached = match v.get("cached") {
                None => Vec::new(),
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|item| {
                        let hex = item.as_str().ok_or_else(|| {
                            DecodeError("cached: expected hex strings".to_owned())
                        })?;
                        u64::from_str_radix(hex, 16)
                            .map_err(|_| DecodeError("cached: expected 16 hex digits".to_owned()))
                    })
                    .collect::<Result<Vec<u64>, DecodeError>>()?,
                Some(_) => return Err(DecodeError("cached: expected array".to_owned())),
            };
            Ok(Message::Hello {
                worker: get_str(v, "worker")?.to_owned(),
                protocol: u32::try_from(get_u64(v, "protocol")?)
                    .map_err(|_| DecodeError("protocol: out of range".to_owned()))?,
                cached,
            })
        }
        "assign" => Ok(Message::Assign {
            task_id: get_u64(v, "task_id")?,
            task: Box::new(codec::task_from_value(get(v, "task")?)?),
        }),
        "result" => {
            let fingerprint = get_fingerprint(v, "fingerprint")?;
            let outcome = match (v.get("profile"), v.get("error")) {
                (Some(profile), None) => Ok(Box::new(codec::profile_from_value(profile)?)),
                (None, Some(error)) => Err(error
                    .as_str()
                    .ok_or_else(|| DecodeError("error: expected string".to_owned()))?
                    .to_owned()),
                _ => {
                    return Err(DecodeError(
                        "result: exactly one of profile/error required".to_owned(),
                    ))
                }
            };
            Ok(Message::Result {
                task_id: get_u64(v, "task_id")?,
                fingerprint,
                outcome,
            })
        }
        "replicate" => Ok(Message::Replicate {
            workload_id: get_str(v, "workload")?.to_owned(),
            fingerprint: get_fingerprint(v, "fingerprint")?,
            profile: Box::new(codec::profile_from_value(get(v, "profile")?)?),
        }),
        "heartbeat" => Ok(Message::Heartbeat {
            seq: get_u64(v, "seq")?,
        }),
        "bye" => Ok(Message::Bye),
        other => Err(DecodeError(format!("unknown message type {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdb_engine::json;

    fn roundtrip(msg: &Message) -> Message {
        let bytes = message_to_value(msg).encode();
        let back = message_from_value(&json::parse(&bytes).unwrap()).unwrap();
        // Byte stability: re-encoding the decoded message is the identity.
        assert_eq!(message_to_value(&back).encode(), bytes);
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
    }

    #[test]
    fn hello_without_cached_decodes_as_empty() {
        let v = json::parse("{\"type\":\"hello\",\"worker\":\"w0\",\"protocol\":1}").unwrap();
        match message_from_value(&v).unwrap() {
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
        assert!(message_from_value(&v).is_err());
    }

    #[test]
    fn result_requires_exactly_one_payload() {
        let v =
            json::parse("{\"type\":\"result\",\"task_id\":1,\"fingerprint\":\"00000000000000ff\"}")
                .unwrap();
        assert!(message_from_value(&v).is_err());
    }

    #[test]
    fn malformed_cached_entries_rejected() {
        let v =
            json::parse("{\"type\":\"hello\",\"worker\":\"w\",\"protocol\":2,\"cached\":[\"zz\"]}")
                .unwrap();
        assert!(message_from_value(&v).is_err());
    }
}
