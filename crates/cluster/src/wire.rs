//! Length-prefixed framing for [`Message`]s over byte streams.
//!
//! A frame is a 4-byte big-endian payload length followed by the
//! message payload: a checksummed BDBC `WireMessage` record
//! ([`bdb_codec`]) holding the message's header value tree, then — for
//! a successful `Result` or a `Replicate` — the result's BDBC
//! `CacheEntry` record, or — for an `Assign` — the task's config
//! record, verbatim:
//!
//! ```text
//! [u32 BE len] [WireMessage record: {type, task_id, fingerprint}] [CacheEntry record]
//! [u32 BE len] [WireMessage record: {type, task_id, workload, fingerprint}] [config record]
//! ```
//!
//! The records carry a CRC-64 each, so a worker ships its cache file's
//! bytes without re-encoding or re-checksumming them, and the
//! coordinator's one decode of the entry is the only one on the path;
//! likewise the coordinator sends one encoded config record with every
//! `Assign`, and only a worker that must compute decodes it. A payload
//! that is not such a sequence (a JSON message included), or a `Result`
//! entry whose container or CRC fails, is a [`WireError::Decode`]. The length cap ([`MAX_FRAME_BYTES`]) bounds
//! allocation on garbage input; a stream that ends mid-frame is a
//! [`WireError::Truncated`], distinct from the clean end-of-stream
//! (`Ok(None)`) at a frame boundary.

use crate::proto::{message_from_parts, message_to_parts, Message};
use std::io::{ErrorKind, Read};

/// Upper bound on one frame's payload. The largest real frames — a
/// profile's `Result` or `Replicate` (about 1.5 KiB at tiny scale) and
/// an `Assign` with its config record (under 1 KiB) — stay far under
/// this; anything bigger is garbage.
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// A framing or codec failure on the byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside a frame (length prefix or payload).
    Truncated,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge(u32),
    /// The payload is not a valid message (codec or schema error).
    Decode(String),
    /// An I/O error from the underlying stream.
    Io(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_BYTES}")
            }
            WireError::Decode(e) => write!(f, "frame payload decode failed: {e}"),
            WireError::Io(e) => write!(f, "stream I/O error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Encodes one message as a length-prefixed BDBC frame: the header
/// record, then the entry or config record if the message carries one.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let (header, entry) = message_to_parts(msg);
    let header = bdb_codec::encode_record(
        bdb_codec::RecordKind::WireMessage,
        &bdb_codec::bval::encode_value(&header),
    );
    let entry = entry.as_deref().unwrap_or_default();
    let len = header.len() + entry.len();
    let mut frame = Vec::with_capacity(len + 4);
    frame.extend_from_slice(&(len as u32).to_be_bytes());
    frame.extend_from_slice(&header);
    frame.extend_from_slice(entry);
    frame
}

/// Wraps an already-encoded payload in the outer `[u32 BE len]` frame.
/// This is the protocol-agnostic half of the framing: `bdb-serve` reuses
/// it with its own payload codec, so both protocols share one frame
/// layout (and one size cap) on the wire.
pub fn encode_payload_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(payload.len() + 4);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// Reads one frame's raw payload from `r` without interpreting it.
/// `Ok(None)` is a clean end-of-stream at a frame boundary; a stream
/// that ends mid-frame is [`WireError::Truncated`].
pub fn read_frame_payload(r: &mut impl Read) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(r, &mut len_buf)? {
        ReadOutcome::CleanEof => return Ok(None),
        ReadOutcome::Truncated => return Err(WireError::Truncated),
        ReadOutcome::Filled => {}
    }
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    match read_exact_or_eof(r, &mut payload)? {
        ReadOutcome::Filled => {}
        ReadOutcome::CleanEof | ReadOutcome::Truncated => return Err(WireError::Truncated),
    }
    Ok(Some(payload))
}

/// Decodes every frame in `buf` (testing / offline inspection). Errors
/// carry the index of the first bad frame.
pub fn decode_frames(buf: &[u8]) -> Result<Vec<Message>, (usize, WireError)> {
    let mut r = buf;
    let mut messages = Vec::new();
    loop {
        let at = messages.len();
        match read_frame_payload(&mut r).map_err(|e| (at, e))? {
            Some(payload) => messages.push(decode_message(&payload).map_err(|e| (at, e))?),
            None => return Ok(messages),
        }
    }
}

/// Decodes one frame payload (a BDBC `WireMessage` header record and
/// the entry or config record after it, if any) into a [`Message`], as
/// every transport receives it. A successful `Result` decodes its entry
/// here, once, into a [`Message::Verified`] that keeps the record; an
/// `Assign`'s config record is carried undecoded.
pub fn decode_message(payload: &[u8]) -> Result<Message, WireError> {
    let decode = |e: bdb_codec::CodecError| WireError::Decode(e.to_string());
    let (kind, header, entry) = bdb_codec::decode_record_prefix(payload).map_err(decode)?;
    if kind != bdb_codec::RecordKind::WireMessage {
        return Err(decode(bdb_codec::CodecError::WrongKind {
            expected: bdb_codec::RecordKind::WireMessage,
            actual: kind,
        }));
    }
    let header = bdb_codec::bval::decode_doc(header).map_err(decode)?;
    message_from_parts(header.root(), (!entry.is_empty()).then_some(entry))
        .map_err(|e| WireError::Decode(e.0))
}

/// [`decode_message`] for a reader that wants the profile only: a
/// successful result comes back as the `Result { outcome: Ok(profile) }`
/// it encodes from, its record dropped.
pub fn decode_payload(payload: &[u8]) -> Result<Message, WireError> {
    Ok(match decode_message(payload)? {
        Message::Verified {
            task_id,
            fingerprint,
            profile,
            ..
        } => Message::Result {
            task_id,
            fingerprint,
            outcome: Ok(profile),
        },
        other => other,
    })
}

enum ReadOutcome {
    /// The buffer was filled completely.
    Filled,
    /// End-of-stream before the first byte.
    CleanEof,
    /// End-of-stream after at least one byte.
    Truncated,
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, WireError> {
    let mut filled = 0;
    while filled < buf.len() {
        // bdb-lint: allow(panic-reachability): the loop condition bounds `filled` below buf.len()
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::Truncated
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    Ok(ReadOutcome::Filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::PROTOCOL_VERSION;

    fn hello() -> Message {
        Message::Hello {
            worker: "w".to_owned(),
            protocol: PROTOCOL_VERSION,
            cached: Vec::new(),
        }
    }

    #[test]
    fn frame_roundtrips_through_a_stream() {
        let buf = [encode_frame(&hello()), encode_frame(&Message::Bye)].concat();
        let msgs = decode_frames(&buf).unwrap();
        assert_eq!(msgs.len(), 2);
        assert_eq!(encode_frame(&msgs[0]), encode_frame(&hello()));
        assert_eq!(encode_frame(&msgs[1]), encode_frame(&Message::Bye));
    }

    #[test]
    fn truncated_payload_is_an_error_not_eof() {
        let frame = encode_frame(&hello());
        for cut in 1..frame.len() {
            let err = decode_frames(&frame[..cut]).unwrap_err();
            assert_eq!(err, (0, WireError::Truncated), "cut at {cut}");
        }
    }

    #[test]
    fn frames_are_bdbc_records_and_json_payloads_are_rejected() {
        let frame = encode_frame(&hello());
        assert!(
            bdb_codec::decode_record_of(bdb_codec::RecordKind::WireMessage, &frame[4..]).is_ok()
        );
        let json = message_to_parts(&hello()).0.encode().into_bytes();
        assert!(matches!(
            decode_frames(&encode_payload_frame(&json)),
            Err((0, WireError::Decode(_)))
        ));
    }

    #[test]
    fn bit_flips_in_a_payload_are_decode_errors() {
        let frame = encode_frame(&hello());
        // Flip payload bits only (past the 4-byte length prefix); every
        // flip must surface as a decode error, never a wrong message.
        for bit in 32..frame.len() * 8 {
            let mut bad = frame.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(decode_frames(&bad), Err((0, WireError::Decode(_)))),
                "bit {bit} undetected"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = (MAX_FRAME_BYTES + 1).to_be_bytes().to_vec();
        buf.extend_from_slice(&[0; 8]);
        assert!(matches!(
            decode_frames(&buf),
            Err((0, WireError::TooLarge(_)))
        ));
    }

    #[test]
    fn garbage_payload_is_a_decode_error() {
        let mut buf = 3u32.to_be_bytes().to_vec();
        buf.extend_from_slice(b"{{{");
        assert!(matches!(
            decode_frames(&buf),
            Err((0, WireError::Decode(_)))
        ));
    }
}
