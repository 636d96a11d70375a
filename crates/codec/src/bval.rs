//! Binary encoding of the canonical JSON tree ([`crate::json::Value`]).
//!
//! A bval payload is a string table followed by a tag-prefixed value
//! tree. Strings (object keys and string values) are interned in
//! first-use order, so repeated keys — the dominant cost of JSON record
//! streams — are written once and referenced by varint index.
//!
//! ```text
//! payload := string-table value
//! string-table := varint count, count × (varint len, len × utf8 byte)
//! value := 0x00                          null
//!        | 0x01 | 0x02                   false | true
//!        | 0x03 varint                   unsigned integer
//!        | 0x04 8×byte                   f64 (LE bit pattern, finite)
//!        | 0x05 varint                   string (table index)
//!        | 0x06 varint count, values     array
//!        | 0x07 varint count,
//!          count × (varint key, value)   object (insertion order)
//! ```
//!
//! The encoding is bijective with the canonical JSON form: non-finite
//! floats are normalized to the same sentinel strings (`"NaN"`, `"inf"`,
//! `"-inf"`) the JSON writer emits, so `binary → JSON → binary` always
//! reproduces the identical bytes.
//!
//! # One parser, one tape
//!
//! [`decode_doc`] is the only bval parser. It validates a payload in
//! full and lays it out as a [`Doc`]: the string table as `&str` slices
//! of the input, and a flat tape of nodes in document order, where each
//! array or object records where its subtree ends, so a member lookup
//! skips whole subtrees. A decode costs two allocations, however many
//! keys and strings the payload holds. Typed decoders read the tape
//! through [`DocRef`] handles, via the [`ValueRef`] trait that `&Value`
//! implements too; [`decode_value`] builds a [`Value`] tree from the
//! tape for the callers that need one (knob edits, JSON interchange,
//! the linter's artifact passes).

use crate::json::Value;
use crate::varint::{read_varint, write_varint};
use crate::CodecError;

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_UINT: u8 = 0x03;
const TAG_FLOAT: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_ARRAY: u8 = 0x06;
const TAG_OBJECT: u8 = 0x07;

/// Nesting bound: deep enough for any real record, shallow enough that
/// hostile input cannot overflow the decoder's stack.
const MAX_DEPTH: usize = 256;

/// Non-finite floats encode as their JSON sentinel string, keeping the
/// two forms bijective.
fn float_sentinel(f: f64) -> Option<&'static str> {
    if f.is_nan() {
        Some("NaN")
    } else if f == f64::INFINITY {
        Some("inf")
    } else if f == f64::NEG_INFINITY {
        Some("-inf")
    } else {
        None
    }
}

/// Encodes `value` as a bval payload (string table + tree).
pub fn encode_value(value: &Value) -> Vec<u8> {
    let mut strings: Vec<&str> = Vec::new();
    collect_strings(value, &mut strings);
    let mut out = Vec::new();
    write_varint(strings.len() as u64, &mut out);
    for s in &strings {
        write_varint(s.len() as u64, &mut out);
        out.extend_from_slice(s.as_bytes());
    }
    write_tree(value, &strings, &mut out);
    out
}

fn intern<'a>(s: &'a str, strings: &mut Vec<&'a str>) {
    if !strings.contains(&s) {
        strings.push(s);
    }
}

fn collect_strings<'a>(value: &'a Value, strings: &mut Vec<&'a str>) {
    match value {
        Value::Null | Value::Bool(_) | Value::UInt(_) => {}
        Value::Float(f) => {
            if let Some(sentinel) = float_sentinel(*f) {
                intern(sentinel, strings);
            }
        }
        Value::Str(s) => intern(s, strings),
        Value::Array(items) => {
            for item in items {
                collect_strings(item, strings);
            }
        }
        Value::Object(pairs) => {
            for (k, v) in pairs {
                intern(k, strings);
                collect_strings(v, strings);
            }
        }
    }
}

fn string_index(s: &str, strings: &[&str]) -> u64 {
    // The collection pass interned every string, so the lookup always
    // succeeds; 0 is unreachable fallback, not a sentinel.
    strings.iter().position(|&t| t == s).unwrap_or(0) as u64
}

fn write_tree(value: &Value, strings: &[&str], out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::UInt(u) => {
            out.push(TAG_UINT);
            write_varint(*u, out);
        }
        Value::Float(f) => match float_sentinel(*f) {
            Some(sentinel) => {
                out.push(TAG_STR);
                write_varint(string_index(sentinel, strings), out);
            }
            None => {
                out.push(TAG_FLOAT);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
        },
        Value::Str(s) => {
            out.push(TAG_STR);
            write_varint(string_index(s, strings), out);
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            write_varint(items.len() as u64, out);
            for item in items {
                write_tree(item, strings, out);
            }
        }
        Value::Object(pairs) => {
            out.push(TAG_OBJECT);
            write_varint(pairs.len() as u64, out);
            for (k, v) in pairs {
                write_varint(string_index(k, strings), out);
                write_tree(v, strings, out);
            }
        }
    }
}

/// Decodes a bval payload into a [`Value`] tree, requiring it to be
/// consumed exactly: [`decode_doc`], then [`DocRef::to_value`] from
/// its root. For the paths that edit or re-encode a tree; a typed
/// decoder reads the [`Doc`] directly.
pub fn decode_value(bytes: &[u8]) -> Result<Value, CodecError> {
    Ok(decode_doc(bytes)?.root().to_value())
}

/// Decodes a bval payload into a [`Doc`], requiring it to be consumed
/// exactly. This is the one bval parser: it validates the whole payload
/// — string table, UTF-8, tags, indices, counts, nesting depth, finite
/// floats, trailing bytes — and refuses it with the first error in byte
/// order, before any typed decoder reads a field.
pub fn decode_doc(bytes: &[u8]) -> Result<Doc<'_>, CodecError> {
    let mut pos = 0usize;
    let count = read_varint(bytes, &mut pos)?;
    let count = usize::try_from(count).map_err(|_| CodecError::Truncated { at: pos })?;
    // Each table entry costs at least one length byte, so `count` can
    // never legitimately exceed the remaining input.
    if count > bytes.len().saturating_sub(pos) {
        return Err(CodecError::Truncated { at: pos });
    }
    let mut strings = Vec::with_capacity(count);
    for _ in 0..count {
        let len = read_varint(bytes, &mut pos)?;
        let len = usize::try_from(len).map_err(|_| CodecError::Truncated { at: pos })?;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= bytes.len())
            .ok_or(CodecError::Truncated { at: pos })?;
        let s = std::str::from_utf8(&bytes[pos..end])
            .map_err(|_| CodecError::Malformed(format!("non-UTF-8 string at byte {pos}")))?;
        strings.push(s);
        pos = end;
    }
    // A node costs at least one byte; real records average several, so
    // this is one allocation for them without reserving a node per byte.
    let nodes = Vec::with_capacity(bytes.len().saturating_sub(pos) / 4 + 1);
    let mut tape = Tape {
        bytes,
        pos,
        table: strings.len(),
        nodes,
    };
    tape.value(NO_KEY, 0)?;
    if tape.pos != bytes.len() {
        return Err(CodecError::TrailingBytes { at: tape.pos });
    }
    Ok(Doc {
        strings,
        nodes: tape.nodes,
    })
}

/// Member-key slot of a node that is not an object member.
const NO_KEY: usize = usize::MAX;

/// One value of a [`Doc`], in document order: a container precedes its
/// members and records where its subtree ends.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// String-table index of the member key, or [`NO_KEY`].
    key: usize,
    kind: Kind,
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Null,
    Bool(bool),
    UInt(u64),
    Float(f64),
    /// String-table index.
    Str(usize),
    /// `len` elements; the subtree ends before node `end`.
    Array {
        len: usize,
        end: usize,
    },
    /// `len` members; the subtree ends before node `end`.
    Object {
        len: usize,
        end: usize,
    },
}

/// The parse state of [`decode_doc`]: the input, the string-table
/// size, and the tape built so far.
struct Tape<'a> {
    bytes: &'a [u8],
    pos: usize,
    table: usize,
    nodes: Vec<Node>,
}

impl Tape<'_> {
    /// Appends the value at `pos` (and its subtree) to the tape.
    fn value(&mut self, key: usize, depth: usize) -> Result<(), CodecError> {
        if depth > MAX_DEPTH {
            return Err(CodecError::Malformed(format!(
                "nesting deeper than {MAX_DEPTH}"
            )));
        }
        let &tag = self
            .bytes
            .get(self.pos)
            .ok_or(CodecError::Truncated { at: self.pos })?;
        self.pos += 1;
        let kind = match tag {
            TAG_NULL => Kind::Null,
            TAG_FALSE => Kind::Bool(false),
            TAG_TRUE => Kind::Bool(true),
            TAG_UINT => Kind::UInt(read_varint(self.bytes, &mut self.pos)?),
            TAG_FLOAT => {
                let raw = self
                    .bytes
                    .get(self.pos..self.pos.saturating_add(8))
                    .and_then(|raw| <[u8; 8]>::try_from(raw).ok())
                    .ok_or(CodecError::Truncated { at: self.pos })?;
                self.pos += 8;
                let f = f64::from_bits(u64::from_le_bytes(raw));
                if !f.is_finite() {
                    return Err(CodecError::Malformed(
                        "non-finite float must use its string sentinel".to_owned(),
                    ));
                }
                Kind::Float(f)
            }
            TAG_STR => Kind::Str(self.index("string")?),
            TAG_ARRAY | TAG_OBJECT => return self.container(tag == TAG_OBJECT, key, depth),
            other => {
                return Err(CodecError::Malformed(format!(
                    "unknown value tag 0x{other:02x} at byte {}",
                    self.pos - 1
                )))
            }
        };
        self.nodes.push(Node { key, kind });
        Ok(())
    }

    /// Appends an array or object whose tag was just read.
    fn container(&mut self, object: bool, key: usize, depth: usize) -> Result<(), CodecError> {
        let len = read_varint(self.bytes, &mut self.pos)?;
        let len = usize::try_from(len).map_err(|_| CodecError::Truncated { at: self.pos })?;
        // Every element costs at least one byte.
        if len > self.bytes.len().saturating_sub(self.pos) {
            return Err(CodecError::Truncated { at: self.pos });
        }
        let at = self.nodes.len();
        self.nodes.push(Node {
            key,
            kind: Kind::Null,
        });
        for _ in 0..len {
            let member = if object { self.index("key")? } else { NO_KEY };
            self.value(member, depth + 1)?;
        }
        let end = self.nodes.len();
        if let Some(node) = self.nodes.get_mut(at) {
            node.kind = if object {
                Kind::Object { len, end }
            } else {
                Kind::Array { len, end }
            };
        }
        Ok(())
    }

    /// Reads a string-table index (of a `what`: a string value or a key).
    fn index(&mut self, what: &str) -> Result<usize, CodecError> {
        let idx = read_varint(self.bytes, &mut self.pos)?;
        usize::try_from(idx)
            .ok()
            .filter(|&i| i < self.table)
            .ok_or_else(|| CodecError::Malformed(format!("{what} index {idx} out of table range")))
    }
}

/// A validated bval payload: its string table, borrowed from the
/// input, and a flat tape of its values in document order. A decode
/// costs these two allocations, whatever the payload holds; readers
/// walk the tape through [`DocRef`] handles, so no value tree is built.
#[derive(Debug, Clone)]
pub struct Doc<'a> {
    strings: Vec<&'a str>,
    nodes: Vec<Node>,
}

impl<'a> Doc<'a> {
    /// A handle on the payload's top-level value.
    pub fn root(&self) -> DocRef<'_> {
        DocRef { doc: self, at: 0 }
    }
}

/// A `Copy` handle on one value of a [`Doc`]. Its [`ValueRef`] impl
/// gives it the read accessors of [`Value`]: `get` (first member of
/// that name), `as_u64`, `as_f64` (integers and the non-finite
/// sentinels included), `as_str`, `is_null`, array iteration and
/// `to_value`.
#[derive(Debug, Clone, Copy)]
pub struct DocRef<'a> {
    doc: &'a Doc<'a>,
    at: usize,
}

impl<'a> DocRef<'a> {
    fn kind(self) -> Kind {
        self.doc.nodes.get(self.at).map_or(Kind::Null, |n| n.kind)
    }

    fn string(self, idx: usize) -> &'a str {
        self.doc.strings.get(idx).copied().unwrap_or_default()
    }

    /// Index of the node after this value's subtree.
    fn next(self) -> usize {
        match self.kind() {
            Kind::Array { end, .. } | Kind::Object { end, .. } => end,
            _ => self.at + 1,
        }
    }

    /// The members of an object, in payload order, as `(key, value)`.
    fn members(self) -> impl Iterator<Item = (&'a str, DocRef<'a>)> {
        let len = match self.kind() {
            Kind::Object { len, .. } => len,
            _ => 0,
        };
        self.children(len).map(move |child| {
            let key = self.doc.nodes.get(child.at).map_or(NO_KEY, |n| n.key);
            (child.string(key), child)
        })
    }

    /// The first `len` children of this container.
    fn children(self, len: usize) -> Items<'a> {
        Items {
            next: DocRef {
                doc: self.doc,
                at: self.at + 1,
            },
            left: len,
        }
    }
}

/// The elements of an array [`DocRef`], in order.
#[derive(Debug, Clone)]
pub struct Items<'a> {
    next: DocRef<'a>,
    left: usize,
}

impl<'a> Iterator for Items<'a> {
    type Item = DocRef<'a>;

    fn next(&mut self) -> Option<DocRef<'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        let item = self.next;
        self.next.at = item.next();
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Items<'_> {}

/// Read access to one decoded value, whatever holds it: a `&Value` of a
/// built tree or a [`DocRef`] into a [`Doc`]. Typed decoders are written
/// once against this trait, so the byte-decoding paths read the tape
/// while knob edits and JSON interchange, which need a tree, read the
/// same decoders through `&Value`.
pub trait ValueRef<'a>: Copy {
    /// Iterator over an array's elements.
    type Items: ExactSizeIterator<Item = Self>;
    /// The first member named `key` of an object.
    fn get(self, key: &str) -> Option<Self>;
    /// The value as `u64`, if it is one.
    fn as_u64(self) -> Option<u64>;
    /// The value as `f64`: floats, integers and the non-finite sentinels.
    fn as_f64(self) -> Option<f64>;
    /// The value as `&str`, if it is a string.
    fn as_str(self) -> Option<&'a str>;
    /// Whether the value is `null`.
    fn is_null(self) -> bool;
    /// The elements of an array, if it is one.
    fn items(self) -> Option<Self::Items>;
    /// An owned [`Value`] copy of the value.
    fn to_value(self) -> Value;
}

impl<'a> ValueRef<'a> for &'a Value {
    type Items = std::slice::Iter<'a, Value>;
    fn get(self, key: &str) -> Option<Self> {
        Value::get(self, key)
    }
    fn as_u64(self) -> Option<u64> {
        Value::as_u64(self)
    }
    fn as_f64(self) -> Option<f64> {
        Value::as_f64(self)
    }
    fn as_str(self) -> Option<&'a str> {
        Value::as_str(self)
    }
    fn is_null(self) -> bool {
        Value::is_null(self)
    }
    fn items(self) -> Option<Self::Items> {
        self.as_array().map(<[Value]>::iter)
    }
    fn to_value(self) -> Value {
        self.clone()
    }
}

impl<'a> ValueRef<'a> for DocRef<'a> {
    type Items = Items<'a>;

    /// The first member named `key`, like [`Value::get`]; skips each
    /// non-matching member's whole subtree.
    fn get(self, key: &str) -> Option<Self> {
        self.members().find(|&(k, _)| k == key).map(|(_, v)| v)
    }

    fn as_u64(self) -> Option<u64> {
        match self.kind() {
            Kind::UInt(u) => Some(u),
            _ => None,
        }
    }

    /// Like [`Value::as_f64`]: floats, integers and the non-finite
    /// sentinels `"NaN"` / `"inf"` / `"-inf"`.
    fn as_f64(self) -> Option<f64> {
        match self.kind() {
            Kind::Float(f) => Some(f),
            Kind::UInt(u) => Some(u as f64),
            Kind::Str(i) => match self.string(i) {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    fn as_str(self) -> Option<&'a str> {
        match self.kind() {
            Kind::Str(i) => Some(self.string(i)),
            _ => None,
        }
    }

    fn is_null(self) -> bool {
        matches!(self.kind(), Kind::Null)
    }

    fn items(self) -> Option<Items<'a>> {
        match self.kind() {
            Kind::Array { len, .. } => Some(self.children(len)),
            _ => None,
        }
    }

    fn to_value(self) -> Value {
        match self.kind() {
            Kind::Null => Value::Null,
            Kind::Bool(b) => Value::Bool(b),
            Kind::UInt(u) => Value::UInt(u),
            Kind::Float(f) => Value::Float(f),
            Kind::Str(i) => Value::Str(self.string(i).to_owned()),
            Kind::Array { len, .. } => {
                Value::Array(self.children(len).map(Self::to_value).collect())
            }
            Kind::Object { .. } => Value::Object(
                self.members()
                    .map(|(k, v)| (k.to_owned(), v.to_value()))
                    .collect(),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> Value {
        Value::object(vec![
            ("id", Value::Str("H-WordCount".into())),
            ("count", Value::UInt(u64::MAX)),
            ("pi", Value::Float(std::f64::consts::PI)),
            ("neg_zero", Value::Float(-0.0)),
            ("flag", Value::Bool(true)),
            ("gap", Value::Null),
            (
                "nested",
                Value::Array(vec![
                    Value::object(vec![("id", Value::Str("H-WordCount".into()))]),
                    Value::Float(f64::NAN),
                    Value::UInt(0),
                ]),
            ),
        ])
    }

    #[test]
    fn binary_json_binary_is_lossless() {
        let binary = encode_value(&sample());
        let decoded = decode_value(&binary).unwrap();
        let via_json = json::parse(&decoded.encode()).unwrap();
        assert_eq!(
            encode_value(&via_json),
            binary,
            "binary → JSON → binary must reproduce identical bytes"
        );
    }

    #[test]
    fn doc_reads_like_the_tree() {
        // The tree the payload stands for: NaN travels as its sentinel.
        let value = json::parse(&sample().encode()).unwrap();
        let bytes = encode_value(&value);
        let doc = decode_doc(&bytes).unwrap();
        let root = doc.root();
        assert_eq!(root.to_value(), value);
        for key in ["id", "count", "pi", "flag", "gap", "nested", "absent"] {
            assert_eq!(root.get(key).map(DocRef::to_value), value.get(key).cloned());
        }
        assert_eq!(root.get("count").and_then(DocRef::as_u64), Some(u64::MAX));
        assert_eq!(root.get("id").and_then(DocRef::as_str), Some("H-WordCount"));
        assert!(root.get("gap").is_some_and(DocRef::is_null));
        assert!(root.items().is_none(), "an object is not an array");
        let mut nested = root.get("nested").and_then(DocRef::items).unwrap();
        assert_eq!(nested.len(), 3);
        let first = nested.next().unwrap();
        assert_eq!(
            first.get("id").and_then(DocRef::as_str),
            Some("H-WordCount")
        );
        assert!(nested.next().and_then(DocRef::as_f64).unwrap().is_nan());
        assert_eq!(nested.next().and_then(DocRef::as_f64), Some(0.0));
        assert!(nested.next().is_none());
        // Like `Value::get`, the first of two same-named members wins.
        let dup = Value::Object(vec![
            ("k".to_owned(), Value::UInt(1)),
            ("k".to_owned(), Value::UInt(2)),
        ]);
        let bytes = encode_value(&dup);
        let doc = decode_doc(&bytes).unwrap();
        assert_eq!(doc.root().get("k").and_then(DocRef::as_u64), Some(1));
    }

    #[test]
    fn repeated_keys_are_interned_once() {
        let wide = Value::Array(
            (0..64)
                .map(|i| Value::object(vec![("instructions", Value::UInt(i))]))
                .collect(),
        );
        let binary = encode_value(&wide);
        let json_len = wide.encode().len();
        assert!(
            binary.len() * 3 < json_len,
            "interning should beat JSON by >3x on key-heavy streams \
             ({} vs {json_len})",
            binary.len()
        );
        assert_eq!(decode_value(&binary).unwrap(), wide);
    }

    #[test]
    fn truncation_at_every_offset_is_a_clean_error() {
        let binary = encode_value(&sample());
        for cut in 0..binary.len() {
            assert!(
                decode_value(&binary[..cut]).is_err(),
                "cut at {cut} must fail cleanly"
            );
        }
    }

    #[test]
    fn hostile_payloads_fail_without_panicking() {
        // Unknown tag, bad string index, huge declared counts, deep
        // nesting, raw non-finite float — all clean errors.
        assert!(decode_value(&[0x00, 0xff]).is_err());
        assert!(decode_value(&[0x00, TAG_STR, 0x05]).is_err());
        assert!(decode_value(&[0x00, TAG_ARRAY, 0xff, 0xff, 0x7f]).is_err());
        let mut deep = vec![0x00];
        deep.extend(std::iter::repeat_n([TAG_ARRAY, 0x01], 400).flatten());
        deep.push(TAG_NULL);
        assert!(decode_value(&deep).is_err());
        let mut raw_nan = vec![0x00, TAG_FLOAT];
        raw_nan.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert!(decode_value(&raw_nan).is_err());
    }
}
