//! Equivalence properties of the tape decoder.
//!
//! `bdb_codec::bval::decode_doc` is the one bval parser, and the typed
//! decoders read its tape through `DocRef` instead of a `Value` tree.
//! This suite pins both halves against what they replaced:
//!
//! * **The parser.** A recursive tree decoder — the bval parser the
//!   tape replaced, kept here as a test-only oracle — and
//!   `decode_doc(..)` followed by `to_value` must agree on every input:
//!   random value trees, random bytes, every truncation and every
//!   single-bit flip of real encodings. Agreement means the same
//!   accept/reject verdict, the same value, and the same `CodecError`.
//!   Neither may panic.
//! * **The typed decoders.** Profiles, sweep results, machine configs
//!   and task configs decode to the same result, or fail with the same
//!   error text, whether they read the tape or a built tree. The inputs
//!   are real encodings with keys reordered, duplicated (the first one
//!   wins), removed or added, and leaves replaced by wrong-typed ones.

use bdb_codec::bval::{decode_doc, decode_value, encode_value, ValueRef};
use bdb_codec::json::Value;
use bdb_codec::varint::read_varint;
use bdb_codec::CodecError;
use bdb_engine::codec::{
    machine_config_from_value, machine_config_to_value, profile_from_value, profile_to_value,
    sweep_result_from_value, sweep_result_to_value, task_config_to_value, task_from_config_value,
    DecodeError,
};
use bdb_engine::Task;
use bdb_node::NodeConfig;
use bdb_sim::{MachineConfig, MissRatioCurve, SweepMetric, SweepResult};
use bdb_workloads::{catalog, Scale};
use proptest::prelude::*;
use std::sync::OnceLock;

// ---------------------------------------------------------------------
// The oracle: a recursive bval decoder that builds the tree directly.
// ---------------------------------------------------------------------

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_UINT: u8 = 0x03;
const TAG_FLOAT: u8 = 0x04;
const TAG_STR: u8 = 0x05;
const TAG_ARRAY: u8 = 0x06;
const TAG_OBJECT: u8 = 0x07;
const MAX_DEPTH: usize = 256;

fn oracle_decode(bytes: &[u8]) -> Result<Value, CodecError> {
    let mut pos = 0usize;
    let count = read_varint(bytes, &mut pos)?;
    let count = usize::try_from(count).map_err(|_| CodecError::Truncated { at: pos })?;
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
        strings.push(s.to_owned());
        pos = end;
    }
    let value = read_tree(bytes, &mut pos, &strings, 0)?;
    if pos != bytes.len() {
        return Err(CodecError::TrailingBytes { at: pos });
    }
    Ok(value)
}

fn read_tree(
    bytes: &[u8],
    pos: &mut usize,
    strings: &[String],
    depth: usize,
) -> Result<Value, CodecError> {
    if depth > MAX_DEPTH {
        return Err(CodecError::Malformed(format!(
            "nesting deeper than {MAX_DEPTH}"
        )));
    }
    let &tag = bytes.get(*pos).ok_or(CodecError::Truncated { at: *pos })?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_UINT => Ok(Value::UInt(read_varint(bytes, pos)?)),
        TAG_FLOAT => {
            let end = pos
                .checked_add(8)
                .filter(|&e| e <= bytes.len())
                .ok_or(CodecError::Truncated { at: *pos })?;
            let mut raw = [0u8; 8];
            raw.copy_from_slice(&bytes[*pos..end]);
            *pos = end;
            let f = f64::from_bits(u64::from_le_bytes(raw));
            if !f.is_finite() {
                return Err(CodecError::Malformed(
                    "non-finite float must use its string sentinel".to_owned(),
                ));
            }
            Ok(Value::Float(f))
        }
        TAG_STR => {
            let idx = read_varint(bytes, pos)?;
            let s = usize::try_from(idx)
                .ok()
                .and_then(|i| strings.get(i))
                .ok_or_else(|| {
                    CodecError::Malformed(format!("string index {idx} out of table range"))
                })?;
            Ok(Value::Str(s.clone()))
        }
        TAG_ARRAY => {
            let count = read_varint(bytes, pos)?;
            let count = usize::try_from(count).map_err(|_| CodecError::Truncated { at: *pos })?;
            if count > bytes.len().saturating_sub(*pos) {
                return Err(CodecError::Truncated { at: *pos });
            }
            let mut items = Vec::with_capacity(count);
            for _ in 0..count {
                items.push(read_tree(bytes, pos, strings, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        TAG_OBJECT => {
            let count = read_varint(bytes, pos)?;
            let count = usize::try_from(count).map_err(|_| CodecError::Truncated { at: *pos })?;
            if count > bytes.len().saturating_sub(*pos) {
                return Err(CodecError::Truncated { at: *pos });
            }
            let mut pairs = Vec::with_capacity(count);
            for _ in 0..count {
                let idx = read_varint(bytes, pos)?;
                let key = usize::try_from(idx)
                    .ok()
                    .and_then(|i| strings.get(i))
                    .ok_or_else(|| {
                        CodecError::Malformed(format!("key index {idx} out of table range"))
                    })?;
                pairs.push((key.clone(), read_tree(bytes, pos, strings, depth + 1)?));
            }
            Ok(Value::Object(pairs))
        }
        other => Err(CodecError::Malformed(format!(
            "unknown value tag 0x{other:02x} at byte {}",
            *pos - 1
        ))),
    }
}

/// The parser under test, in the oracle's terms. `decode_value` is
/// checked to be exactly this composition too.
fn tape_decode(bytes: &[u8]) -> Result<Value, CodecError> {
    let via_doc = decode_doc(bytes).map(|doc| doc.root().to_value());
    assert_eq!(
        via_doc,
        decode_value(bytes),
        "decode_value is decode_doc + to_value"
    );
    via_doc
}

/// Both parsers agree on `bytes`: verdict, error and value (floats
/// compared by bit pattern through the canonical encoding).
fn assert_parsers_agree(bytes: &[u8]) {
    let (tape, oracle) = (tape_decode(bytes), oracle_decode(bytes));
    match (&tape, &oracle) {
        (Ok(a), Ok(b)) => assert_eq!(encode_value(a), encode_value(b), "{bytes:02x?}"),
        _ => assert_eq!(tape, oracle, "{bytes:02x?}"),
    }
}

// ---------------------------------------------------------------------
// Random inputs from a seed.
// ---------------------------------------------------------------------

/// SplitMix64: a small deterministic generator for one case's choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

const KEYS: [&str; 6] = ["id", "loads", "metrics", "", "ünï", "NaN"];

fn random_value(rng: &mut Rng, depth: usize) -> Value {
    let leaf_only = depth >= 4;
    match rng.below(if leaf_only { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.next() & 1 == 1),
        2 => Value::UInt(rng.next() >> rng.below(64)),
        3 => match rng.below(5) {
            0 => Value::Float(f64::NAN),
            1 => Value::Float(f64::NEG_INFINITY),
            2 => Value::Float(-0.0),
            _ => Value::Float(
                f64::from_bits(rng.next() >> 2) * if rng.below(2) == 0 { 1.0 } else { -1.0 },
            ),
        },
        4 | 5 => Value::Str(KEYS[rng.below(KEYS.len())].repeat(rng.below(3))),
        6 => Value::Array(
            (0..rng.below(5))
                .map(|_| random_value(rng, depth + 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(5))
                .map(|_| {
                    (
                        KEYS[rng.below(KEYS.len())].to_owned(),
                        random_value(rng, depth + 1),
                    )
                })
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_values_decode_alike(seed in any::<u64>()) {
        let value = random_value(&mut Rng(seed), 0);
        let bytes = encode_value(&value);
        assert_parsers_agree(&bytes);
        prop_assert_eq!(encode_value(&tape_decode(&bytes).unwrap()), bytes);
    }

    #[test]
    fn random_bytes_decode_alike(bytes in collection::vec(any::<u8>(), 0..48)) {
        assert_parsers_agree(&bytes);
    }

    #[test]
    fn damaged_encodings_decode_alike(seed in any::<u64>()) {
        // Overwrite a few bytes of a real encoding with small values, so
        // the damage lands on tags, counts and indices that still parse
        // for a while before they go wrong.
        let mut rng = Rng(seed);
        let mut bytes = encode_value(&random_value(&mut rng, 0));
        for _ in 0..1 + rng.below(3) {
            let at = rng.below(bytes.len());
            bytes[at] = rng.below(10) as u8;
        }
        assert_parsers_agree(&bytes);
    }
}

#[test]
fn every_truncation_and_bit_flip_decodes_alike() {
    let mut inputs: Vec<Vec<u8>> = (0..24)
        .map(|seed| encode_value(&random_value(&mut Rng(seed), 0)))
        .collect();
    inputs.push(encode_value(&profile_to_value(sample_profile())));
    for bytes in &inputs {
        for cut in 0..bytes.len() {
            assert_parsers_agree(&bytes[..cut]);
        }
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_parsers_agree(&flipped);
        }
    }
}

#[test]
fn hostile_shapes_decode_alike() {
    let mut deep = vec![0x00];
    deep.extend(std::iter::repeat_n([TAG_ARRAY, 0x01], 300).flatten());
    deep.push(TAG_NULL);
    let mut at_limit = vec![0x00];
    at_limit.extend(std::iter::repeat_n([TAG_ARRAY, 0x01], MAX_DEPTH).flatten());
    at_limit.push(TAG_NULL);
    let mut raw_nan = vec![0x00, TAG_FLOAT];
    raw_nan.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
    for bytes in [
        deep,
        at_limit,
        raw_nan,
        vec![0x00, 0xff],
        vec![0x00, TAG_STR, 0x05],
        vec![0x01, 0x01, b'k', TAG_OBJECT, 0x01, 0x01, TAG_NULL],
        vec![0x00, TAG_ARRAY, 0xff, 0xff, 0x7f],
        vec![0x00, TAG_OBJECT, 0x00, TAG_NULL],
        vec![0x01, 0x02, 0xc3, 0x28, TAG_STR, 0x00],
        vec![0x00, TAG_UINT, 0x80, 0x00],
        vec![0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
    ] {
        assert_parsers_agree(&bytes);
    }
}

// ---------------------------------------------------------------------
// Typed decoders: the tape and a built tree agree.
// ---------------------------------------------------------------------

fn sample_profile() -> &'static bdb_wcrt::WorkloadProfile {
    static PROFILE: OnceLock<bdb_wcrt::WorkloadProfile> = OnceLock::new();
    PROFILE.get_or_init(|| {
        let reps = catalog::representatives();
        let def = reps
            .iter()
            .find(|w| w.spec.id == "H-WordCount")
            .expect("H-WordCount is representative");
        bdb_wcrt::profile_workload(
            def,
            Scale::tiny(),
            MachineConfig::xeon_e5645(),
            NodeConfig::default(),
        )
    })
}

fn sample_sweep() -> SweepResult {
    let curve = |metric, bias: f64| MissRatioCurve {
        label: "probe".to_owned(),
        metric,
        points: vec![(16, 0.25 + bias), (64, 0.125 + bias), (256, bias / 3.0)],
    };
    SweepResult {
        instruction: curve(SweepMetric::Instruction, 0.001),
        data: curve(SweepMetric::Data, 0.002),
        unified: curve(SweepMetric::Unified, 0.003),
    }
}

fn sample_task() -> Task {
    Task {
        workload_id: "H-Grep".to_owned(),
        scale: Scale::custom(0.073),
        machine: MachineConfig::atom_d510(),
        node: NodeConfig::default(),
    }
}

/// A wrong-typed stand-in for `leaf`.
fn wrong_leaf(leaf: &Value, rng: &mut Rng) -> Value {
    let candidates = [
        Value::Null,
        Value::Bool(true),
        Value::UInt(u64::from(u32::MAX) + 1),
        Value::Float(2.5),
        Value::Str("inf".to_owned()),
        Value::Str("Fortran".to_owned()),
        Value::Array(vec![Value::UInt(16)]),
        Value::Object(Vec::new()),
    ];
    loop {
        let pick = candidates[rng.below(candidates.len())].clone();
        if std::mem::discriminant(&pick) != std::mem::discriminant(leaf) {
            return pick;
        }
    }
}

/// Applies one random edit somewhere in `value`: reorder an object's
/// members, duplicate, remove or add a member, or replace a node with a
/// wrong-typed one. Every node is equally likely to be the target.
fn mutate(value: &mut Value, rng: &mut Rng) {
    let mut count = 0;
    count_nodes(value, &mut count);
    let mut target = rng.below(count);
    edit_nth(value, &mut target, rng);
}

fn count_nodes(value: &Value, count: &mut usize) {
    *count += 1;
    match value {
        Value::Array(items) => items.iter().for_each(|v| count_nodes(v, count)),
        Value::Object(pairs) => pairs.iter().for_each(|(_, v)| count_nodes(v, count)),
        _ => {}
    }
}

/// Edits the `target`-th node in pre-order; returns whether it did.
fn edit_nth(value: &mut Value, target: &mut usize, rng: &mut Rng) -> bool {
    if *target == 0 {
        edit(value, rng);
        return true;
    }
    *target -= 1;
    match value {
        Value::Array(items) => items.iter_mut().any(|v| edit_nth(v, target, rng)),
        Value::Object(pairs) => pairs.iter_mut().any(|(_, v)| edit_nth(v, target, rng)),
        _ => false,
    }
}

fn edit(value: &mut Value, rng: &mut Rng) {
    match value {
        Value::Object(pairs) if !pairs.is_empty() => {
            let at = rng.below(pairs.len());
            match rng.below(5) {
                0 => {
                    for i in (1..pairs.len()).rev() {
                        pairs.swap(i, rng.below(i + 1));
                    }
                }
                1 => {
                    // A duplicate before the original shadows it; one
                    // after is ignored. Either way both decoders must
                    // pick the same one.
                    let (key, old) = pairs[at].clone();
                    let dup = if rng.below(2) == 0 {
                        old
                    } else {
                        wrong_leaf(&old, rng)
                    };
                    pairs.insert(rng.below(pairs.len() + 1), (key, dup));
                }
                2 => {
                    pairs.remove(at);
                }
                3 => pairs.insert(
                    rng.below(pairs.len() + 1),
                    ("extra".to_owned(), Value::UInt(7)),
                ),
                _ => *value = wrong_leaf(value, rng),
            }
        }
        Value::Array(items) if !items.is_empty() && rng.below(2) == 0 => {
            if rng.below(2) == 0 {
                items.pop();
            } else {
                items.push(items[0].clone());
            }
        }
        _ => *value = wrong_leaf(value, rng),
    }
}

/// Decodes `value`'s bval bytes through the tape and through the tree
/// the oracle builds, rendering each result with `render`.
fn both_ways<T>(
    value: &Value,
    decode_tape: impl Fn(bdb_codec::bval::DocRef<'_>) -> Result<T, DecodeError>,
    decode_tree: impl Fn(&Value) -> Result<T, DecodeError>,
    render: impl Fn(&T) -> String,
) -> (Result<String, String>, Result<String, String>) {
    let bytes = encode_value(value);
    let doc = decode_doc(&bytes).expect("an encoded value parses");
    let tree = oracle_decode(&bytes).expect("an encoded value parses");
    let show = |r: Result<T, DecodeError>| r.map(|t| render(&t)).map_err(|e| e.to_string());
    (show(decode_tape(doc.root())), show(decode_tree(&tree)))
}

fn profile_text(p: &bdb_wcrt::WorkloadProfile) -> String {
    encode_hex(&encode_value(&profile_to_value(p)))
}

fn encode_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn profiles_decode_alike_from_tape_and_tree(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut value = profile_to_value(sample_profile());
        for _ in 0..rng.below(4) {
            mutate(&mut value, &mut rng);
        }
        let (tape, tree) = both_ways(
            &value,
            |v| profile_from_value(v),
            |v| profile_from_value(v),
            profile_text,
        );
        prop_assert_eq!(tape, tree);
    }

    #[test]
    fn sweeps_decode_alike_from_tape_and_tree(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut value = sweep_result_to_value(&sample_sweep());
        for _ in 0..rng.below(4) {
            mutate(&mut value, &mut rng);
        }
        let render = |s: &SweepResult| encode_hex(&encode_value(&sweep_result_to_value(s)));
        let (tape, tree) = both_ways(&value, |v| sweep_result_from_value(v), |v| sweep_result_from_value(v), render);
        prop_assert_eq!(tape, tree);
    }

    #[test]
    fn machine_configs_decode_alike_from_tape_and_tree(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let machines = [
            MachineConfig::xeon_e5645(),
            MachineConfig::xeon_e5_2697(),
            MachineConfig::atom_d510(),
            MachineConfig::atom_sweep(64),
        ];
        let mut value = machine_config_to_value(&machines[rng.below(machines.len())]);
        for _ in 0..rng.below(4) {
            mutate(&mut value, &mut rng);
        }
        let render = |m: &MachineConfig| format!("{m:?}");
        let (tape, tree) = both_ways(&value, |v| machine_config_from_value(v), |v| machine_config_from_value(v), render);
        prop_assert_eq!(tape, tree);
    }

    #[test]
    fn task_configs_decode_alike_from_tape_and_tree(seed in any::<u64>()) {
        let mut rng = Rng(seed);
        let mut value = task_config_to_value(&sample_task());
        for _ in 0..rng.below(4) {
            mutate(&mut value, &mut rng);
        }
        let render = |t: &Task| format!("{t:?}");
        let (tape, tree) = both_ways(
            &value,
            |v| task_from_config_value("H-Grep", v),
            |v| task_from_config_value("H-Grep", v),
            render,
        );
        prop_assert_eq!(tape, tree);
    }
}

/// The mutations reach both verdicts: the equivalence above is not
/// vacuously over inputs that all fail (or all pass) the same way.
#[test]
fn mutated_profiles_both_decode_and_fail() {
    let (mut ok, mut failed) = (0, 0);
    for seed in 0..64 {
        let mut rng = Rng(seed);
        let mut value = profile_to_value(sample_profile());
        mutate(&mut value, &mut rng);
        let bytes = encode_value(&value);
        let doc = decode_doc(&bytes).unwrap();
        match profile_from_value(doc.root()) {
            Ok(_) => ok += 1,
            Err(_) => failed += 1,
        }
    }
    assert!(ok > 4 && failed > 4, "{ok} decoded, {failed} refused");
}
