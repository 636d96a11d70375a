//! `bdb-codec` — the workspace's byte-format authority: a versioned,
//! CRC-64-checksummed, little-endian binary record format plus the
//! canonical JSON reference form it interchanges with.
//!
//! Every layer that persists or ships bytes — the engine's cache of
//! profiles and sweeps, the cluster wire and the serve wire — encodes
//! through this crate, and each stores and ships BDBC records only;
//! canonical JSON is the form of reports, figures and fingerprints:
//!
//! * **Canonical JSON** ([`json`]): the human-readable debug/interchange
//!   form. Byte-stable (`encode(decode(b)) == b`), shortest-roundtrip
//!   floats, non-finite sentinels.
//! * **BDBC binary records** (this module + [`bval`]): a compact,
//!   little-endian container with a CRC-64/XZ trailer. Every binary
//!   record decodes to a [`json::Value`] whose JSON encoding round-trips
//!   losslessly back to the identical binary bytes — the `binary → JSON
//!   → binary` contract the golden fixtures under `contracts/fixtures/`
//!   pin.
//!
//! # Container layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic "BDBC"
//! 4       2     format version (currently 1)
//! 6       2     record kind (RecordKind)
//! 8       8     payload length N
//! 16      N     payload (kind-specific)
//! 16+N    8     CRC-64/XZ of the payload
//! ```
//!
//! Decoding is strict: bad magic, an unknown version or kind, a length
//! that disagrees with the input, trailing bytes, or a checksum mismatch
//! are each a distinct, clean error — never a panic, never a wrong
//! record. A single bit flip anywhere in a record is always detected
//! (header fields by the structural checks, payload and trailer by the
//! CRC).
//!
//! # Versioning policy
//!
//! The version field gates the *container*: readers reject any version
//! they do not know ([`CodecError::UnsupportedVersion`]), so a future
//! layout change bumps [`FORMAT_VERSION`] and old readers fail closed.
//! Payload schema evolution rides the owning layer's versioning (e.g.
//! the engine's cache format version participates in the cache key, so
//! schema bumps invalidate by key, not by in-place migration).

pub mod bval;
pub mod json;
pub mod varint;

mod crc;

pub use crc::crc64;

/// Magic prefix of every BDBC binary record.
pub const MAGIC: [u8; 4] = *b"BDBC";

/// Current container format version.
pub const FORMAT_VERSION: u16 = 1;

/// Container header size in bytes (magic + version + kind + length).
pub const HEADER_BYTES: usize = 16;

/// Container trailer size in bytes (CRC-64 of the payload).
pub const TRAILER_BYTES: usize = 8;

/// What a BDBC record's payload contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordKind {
    /// A cache entry (`[u64 LE fingerprint][bval value]`): a profile or
    /// a capacity sweep.
    CacheEntry,
    /// A cluster wire message ([`bval`] of the message object).
    WireMessage,
    /// A `bdb-serve` client request ([`bval`] of the request object).
    ServeRequest,
    /// A `bdb-serve` reply or subscription delta ([`bval`] of the
    /// reply object).
    ServeDelta,
}

impl RecordKind {
    /// The on-disk kind tag. Tags 1 and 3 belonged to the retired trace
    /// chunk and run-journal records; they are never reused and decode as
    /// unknown kinds.
    pub fn tag(self) -> u16 {
        match self {
            RecordKind::CacheEntry => 2,
            RecordKind::WireMessage => 4,
            RecordKind::ServeRequest => 5,
            RecordKind::ServeDelta => 6,
        }
    }

    /// Parses a kind tag.
    pub fn from_tag(tag: u16) -> Option<Self> {
        match tag {
            2 => Some(RecordKind::CacheEntry),
            4 => Some(RecordKind::WireMessage),
            5 => Some(RecordKind::ServeRequest),
            6 => Some(RecordKind::ServeDelta),
            _ => None,
        }
    }
}

/// A decode failure. Every variant is a clean, detected error — decoding
/// never panics and never fabricates a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the structure did.
    Truncated {
        /// Byte offset where more input was needed.
        at: usize,
    },
    /// The input does not start with the BDBC magic.
    BadMagic,
    /// The container version is newer than this reader.
    UnsupportedVersion(u16),
    /// The record kind tag is unknown.
    UnknownKind(u16),
    /// The record kind is not what the caller expected.
    WrongKind {
        /// Kind the caller asked for.
        expected: RecordKind,
        /// Kind the record carries.
        actual: RecordKind,
    },
    /// The payload CRC-64 trailer does not match the payload.
    ChecksumMismatch {
        /// CRC stored in the trailer.
        stored: u64,
        /// CRC computed over the payload.
        computed: u64,
    },
    /// Input continues past the end of the record.
    TrailingBytes {
        /// Offset of the first unexpected byte.
        at: usize,
    },
    /// Structurally invalid payload content.
    Malformed(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated { at } => write!(f, "truncated input at byte {at}"),
            CodecError::BadMagic => write!(f, "missing BDBC magic"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported container version {v}"),
            CodecError::UnknownKind(k) => write!(f, "unknown record kind {k}"),
            CodecError::WrongKind { expected, actual } => {
                write!(f, "expected a {expected:?} record, got {actual:?}")
            }
            CodecError::ChecksumMismatch { stored, computed } => write!(
                f,
                "payload checksum mismatch (stored {stored:016x}, computed {computed:016x})"
            ),
            CodecError::TrailingBytes { at } => write!(f, "trailing bytes at offset {at}"),
            CodecError::Malformed(m) => write!(f, "malformed payload: {m}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Wraps `payload` in a BDBC container of the given kind.
pub fn encode_record(kind: RecordKind, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len() + TRAILER_BYTES);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&kind.tag().to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc64(payload).to_le_bytes());
    out
}

/// Decodes one container that must span `bytes` exactly, returning the
/// kind and a zero-copy payload slice.
pub fn decode_record(bytes: &[u8]) -> Result<(RecordKind, &[u8]), CodecError> {
    let (kind, payload, rest) = decode_record_prefix(bytes)?;
    if !rest.is_empty() {
        return Err(CodecError::TrailingBytes {
            at: bytes.len() - rest.len(),
        });
    }
    Ok((kind, payload))
}

/// Decodes the container at the front of `bytes` as strictly as
/// [`decode_record`] does, returning its kind, a zero-copy payload
/// slice and the bytes after it. A cluster frame is two records back to
/// back — a message header and a cache entry — and splits here.
pub fn decode_record_prefix(bytes: &[u8]) -> Result<(RecordKind, &[u8], &[u8]), CodecError> {
    if bytes.len() < MAGIC.len() {
        return Err(CodecError::Truncated { at: bytes.len() });
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(CodecError::BadMagic);
    }
    if bytes.len() < HEADER_BYTES {
        return Err(CodecError::Truncated { at: bytes.len() });
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != FORMAT_VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let kind_tag = u16::from_le_bytes([bytes[6], bytes[7]]);
    let kind = RecordKind::from_tag(kind_tag).ok_or(CodecError::UnknownKind(kind_tag))?;
    let len64 = u64::from_le_bytes([
        bytes[8], bytes[9], bytes[10], bytes[11], bytes[12], bytes[13], bytes[14], bytes[15],
    ]);
    let len = usize::try_from(len64).map_err(|_| CodecError::Truncated { at: bytes.len() })?;
    let end = HEADER_BYTES
        .checked_add(len)
        .and_then(|n| n.checked_add(TRAILER_BYTES))
        .ok_or(CodecError::Truncated { at: bytes.len() })?;
    if bytes.len() < end {
        return Err(CodecError::Truncated { at: bytes.len() });
    }
    let payload = &bytes[HEADER_BYTES..HEADER_BYTES + len];
    let mut crc_bytes = [0u8; 8];
    crc_bytes.copy_from_slice(&bytes[HEADER_BYTES + len..end]);
    let stored = u64::from_le_bytes(crc_bytes);
    let computed = crc64(payload);
    if stored != computed {
        return Err(CodecError::ChecksumMismatch { stored, computed });
    }
    Ok((kind, payload, &bytes[end..]))
}

/// Builds the payload of a [`RecordKind::CacheEntry`] record:
/// `[u64 LE fingerprint][bval(profile)]`. The container trailer
/// checksums the whole payload, so the fingerprint is covered too.
pub fn encode_cache_payload(fingerprint: u64, profile: &json::Value) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&fingerprint.to_le_bytes());
    payload.extend_from_slice(&bval::encode_value(profile));
    payload
}

/// Inverse of [`encode_cache_payload`].
pub fn decode_cache_payload(payload: &[u8]) -> Result<(u64, json::Value), CodecError> {
    let (fingerprint, value) = split_cache_payload(payload)?;
    Ok((fingerprint, bval::decode_value(value)?))
}

/// Splits a [`RecordKind::CacheEntry`] payload into its fingerprint and
/// its still-encoded bval value, decoding nothing else.
pub fn split_cache_payload(payload: &[u8]) -> Result<(u64, &[u8]), CodecError> {
    if payload.len() < 8 {
        return Err(CodecError::Truncated { at: payload.len() });
    }
    let (raw, value) = payload.split_at(8);
    let mut fingerprint = [0u8; 8];
    fingerprint.copy_from_slice(raw);
    Ok((u64::from_le_bytes(fingerprint), value))
}

/// [`decode_record`] that also enforces the expected kind.
pub fn decode_record_of(kind: RecordKind, bytes: &[u8]) -> Result<&[u8], CodecError> {
    let (actual, payload) = decode_record(bytes)?;
    if actual != kind {
        return Err(CodecError::WrongKind {
            expected: kind,
            actual,
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrips_and_json_is_bad_magic() {
        let payload = b"hello binary world";
        let record = encode_record(RecordKind::WireMessage, payload);
        assert_eq!(decode_record(b"{\"format\":3}"), Err(CodecError::BadMagic));
        let (kind, got) = decode_record(&record).unwrap();
        assert_eq!(kind, RecordKind::WireMessage);
        assert_eq!(got, payload);
        assert_eq!(
            decode_record_of(RecordKind::WireMessage, &record).unwrap(),
            payload
        );
        assert!(matches!(
            decode_record_of(RecordKind::CacheEntry, &record),
            Err(CodecError::WrongKind { .. })
        ));
    }

    #[test]
    fn truncation_at_every_offset_is_detected() {
        let record = encode_record(RecordKind::CacheEntry, b"payload bytes");
        for cut in 0..record.len() {
            assert!(
                decode_record(&record[..cut]).is_err(),
                "cut at {cut} of {} must fail",
                record.len()
            );
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        // A flip in the kind byte may land on another *valid* kind tag;
        // that is detected by the typed read path (`decode_record_of`
        // returns `WrongKind`), not by the container decode itself.
        // Every other flip must fail the untyped decode outright.
        let record = encode_record(RecordKind::WireMessage, b"flip me");
        for bit in 0..record.len() * 8 {
            let mut damaged = record.clone();
            damaged[bit / 8] ^= 1 << (bit % 8);
            match decode_record(&damaged) {
                Err(_) => {}
                Ok((kind, _)) => {
                    assert_ne!(
                        kind,
                        RecordKind::WireMessage,
                        "bit {bit} flip went undetected"
                    );
                    assert!(
                        matches!(
                            decode_record_of(RecordKind::WireMessage, &damaged),
                            Err(CodecError::WrongKind { .. })
                        ),
                        "bit {bit} flip must surface as WrongKind on the typed path"
                    );
                }
            }
        }
    }

    #[test]
    fn version_and_kind_mismatches_are_clean_errors() {
        let mut record = encode_record(RecordKind::WireMessage, b"x");
        record[4] = 0xff; // version low byte
        assert!(matches!(
            decode_record(&record),
            Err(CodecError::UnsupportedVersion(_))
        ));
        let mut record = encode_record(RecordKind::WireMessage, b"x");
        record[6] = 0x7f; // kind low byte
        assert!(matches!(
            decode_record(&record),
            Err(CodecError::UnknownKind(_))
        ));
        // The retired trace-chunk and run-journal tags stay unknown.
        for retired in [1u8, 3] {
            let mut record = encode_record(RecordKind::WireMessage, b"x");
            record[6] = retired;
            assert_eq!(
                decode_record(&record),
                Err(CodecError::UnknownKind(u16::from(retired)))
            );
        }
    }

    #[test]
    fn concatenated_records_are_trailing_bytes() {
        let first = encode_record(RecordKind::WireMessage, b"one");
        let mut stream = first.clone();
        stream.extend_from_slice(&encode_record(RecordKind::WireMessage, b"two"));
        assert_eq!(
            decode_record(&stream),
            Err(CodecError::TrailingBytes { at: first.len() })
        );
        // The prefix decoder splits them instead.
        let (kind, payload, rest) = decode_record_prefix(&stream).unwrap();
        assert_eq!((kind, payload), (RecordKind::WireMessage, &b"one"[..]));
        assert_eq!(decode_record(rest).unwrap().1, b"two");
    }
}
