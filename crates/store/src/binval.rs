//! Compact binary encoding of the workspace serde data model.
//!
//! Everything the checkers persist or send — transactions, stream metadata,
//! checker snapshots, wire envelopes — implements the workspace's offline
//! [`serde::Serialize`]. This module gives those values a *binary* wire
//! form: one tag byte per node, LEB128 varints for lengths and unsigned
//! integers, zig-zag varints for signed ones, and raw IEEE-754 bits for
//! floats. Compared to JSON text it is both more compact and exact — no
//! number formatting round-trip concerns, no escaping.
//!
//! The encoding is self-delimiting: a value knows its own extent, so frames
//! (see [`crate::frame`]) only add integrity, not structure.
//!
//! ## One writer, one reader, no names
//!
//! Neither direction builds a value tree. The one byte writer is a
//! [`serde::Emitter`]: [`Serialize::emit`] feeds it the value as events, and
//! every event appends its bytes to the output buffer then and there — which
//! is why the sink contract announces container lengths up front: they are
//! prefixes here. The one byte reader is a [`serde::Source`]:
//! [`Deserialize::pull`] asks it for one head after another, each is parsed
//! off the input when it is asked for, and strings are borrowed from the
//! input, not copied. ([`serde::JsonValue`] implements both traits, so a
//! caller that does want a tree writes one through the same writer and gets
//! one from the same reader: `from_bytes::<JsonValue>`.)
//!
//! The writer spells by position what the derive knows at compile time: a
//! struct is an array of its fields in declaration order, a unit variant its
//! index in declaration order, any other variant an `[index, payload]`
//! pair. No field or variant name reaches the bytes — over half of a
//! checker snapshot was names before they went — and a decode validates no
//! name. The cost is that a payload no longer describes itself across a
//! change of fields: a field added to, dropped from or moved in a persisted
//! struct (or a variant anywhere but at the end of its enum) changes what
//! every byte after it means, so it is a format version bump of the
//! payload's owner (`SNAPSHOT_VERSION`, `LOG_VERSION`, `PROTOCOL_VERSION`;
//! `crates/store/tests/snapshot_version.rs` holds the snapshot's to it).
//!
//! The reader takes one spelling by name: an object, `TAG_OBJECT`, every key
//! a length-prefixed string. A [`serde::JsonValue`] map writes it, and the
//! derive reads a struct from it as from an array, so that a protocol-3
//! `Hello` can be answered with the version mismatch and a snapshot spelt by
//! name (version 5 and older) refused by its version. Logs that spelt their
//! records by name or through a key table are refused by their version
//! before a record is read (README, "Formats").
//!
//! What the reader checks, it checks where it stands: tags, canonical
//! varints, UTF-8, a length prefix against the input that is left (so a
//! length that lies is refused before anything is reserved for it), and,
//! once the value is read, that the input ended with it. It keeps no stack
//! of the containers it is inside of: the caller reads out what it opens
//! (the source contract). [`MAX_DEPTH`] is held where recursion follows the
//! input, not a type: [`serde::Source::skip`] and a
//! [`serde::JsonValue`] read step into every value of a container through
//! [`serde::Source::enter`], which the reader counts. Those failures are
//! [`DecodeError`]s; a value that is well-formed but not of the shape the
//! type reads — a wrong field count, a variant index past the enum, an array
//! where a number belongs — is a [`crate::StoreError::Serde`].

use serde::{Deserialize, Emitter, Head, Serialize, Source};

/// Errors produced while decoding a binary value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended inside a value.
    Truncated,
    /// An unknown tag byte was encountered.
    BadTag(u8),
    /// A varint ran over its maximum width.
    BadVarint,
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// The value ended before the input did.
    TrailingBytes,
    /// Nesting exceeded [`MAX_DEPTH`] (a crafted or corrupt payload must
    /// not overflow the decoder's stack).
    TooDeep,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input ends inside a value"),
            DecodeError::BadTag(t) => write!(f, "unknown value tag {t:#04x}"),
            DecodeError::BadVarint => write!(f, "malformed varint"),
            DecodeError::BadUtf8 => write!(f, "string payload is not UTF-8"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after the value"),
            DecodeError::TooDeep => write!(f, "value nesting exceeds {MAX_DEPTH} levels"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Maximum value-tree nesting the decoder accepts. Checker snapshots and
/// transactions nest a handful of levels; the cap only exists so a
/// CRC-valid but hostile payload cannot abort recovery via stack overflow.
pub const MAX_DEPTH: usize = 128;

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_U64: u8 = 0x03;
const TAG_I64: u8 = 0x04;
const TAG_F64: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARRAY: u8 = 0x07;
const TAG_OBJECT: u8 = 0x08;

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(input: &[u8], pos: &mut usize) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = input.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            // The 10th byte holds the single remaining bit 63: any other
            // payload bit (or a continuation bit) would overflow u64.
            return Err(DecodeError::BadVarint);
        }
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            // Canonical-form check: the final byte of a multi-byte varint
            // must contribute bits. [`put_varint`] never emits a trailing
            // zero byte, so accepting one (e.g. `0x80 0x00` for 0) would
            // give a single value multiple wire forms — a gift to anyone
            // trying to smuggle mismatched bytes past a CRC or dedup layer
            // now that this decoder faces the network.
            if byte == 0 && shift != 0 {
                return Err(DecodeError::BadVarint);
            }
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(DecodeError::BadVarint);
        }
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The byte writer: every event appends its encoding to `out`, structs and
/// variants by position.
struct Writer<'a> {
    out: &'a mut Vec<u8>,
}

impl Emitter for Writer<'_> {
    #[inline]
    fn null(&mut self) {
        self.out.push(TAG_NULL);
    }
    #[inline]
    fn bool(&mut self, v: bool) {
        self.out.push(if v { TAG_TRUE } else { TAG_FALSE });
    }
    #[inline]
    fn u64(&mut self, v: u64) {
        self.out.push(TAG_U64);
        put_varint(self.out, v);
    }
    #[inline]
    fn i64(&mut self, v: i64) {
        self.out.push(TAG_I64);
        put_varint(self.out, zigzag(v));
    }
    #[inline]
    fn f64(&mut self, v: f64) {
        self.out.push(TAG_F64);
        self.out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    #[inline]
    fn str(&mut self, v: &str) {
        self.out.push(TAG_STR);
        put_str(self.out, v);
    }
    #[inline]
    fn begin_array(&mut self, len: usize) {
        self.out.push(TAG_ARRAY);
        put_varint(self.out, len as u64);
    }
    #[inline]
    fn end_array(&mut self) {}
    #[inline]
    fn begin_object(&mut self, len: usize) {
        self.out.push(TAG_OBJECT);
        put_varint(self.out, len as u64);
    }
    #[inline]
    fn key(&mut self, k: &str) {
        put_str(self.out, k);
    }
    #[inline]
    fn end_object(&mut self) {}
    #[inline]
    fn begin_struct(&mut self, len: usize) {
        self.begin_array(len);
    }
    #[inline]
    fn field(&mut self, _name: &'static str) {}
    #[inline]
    fn end_struct(&mut self) {}
    #[inline]
    fn unit_variant(&mut self, index: u32, _name: &'static str) {
        self.u64(u64::from(index));
    }
    #[inline]
    fn begin_variant(&mut self, index: u32, _name: &'static str) {
        self.begin_array(2);
        self.u64(u64::from(index));
    }
    #[inline]
    fn end_variant(&mut self) {}
}

/// A length-prefixed string, as keys and string payloads are written.
#[inline]
fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The byte reader: every head is parsed off `input` when it is asked for,
/// strings and keys are borrowed from it, and no stack of open containers
/// is kept, so a head costs its tag and its bytes.
///
/// A byte-level failure is kept in `failed` — [`serde::Error`] is a message,
/// and callers tell a [`DecodeError`] from a value of the wrong shape — and
/// surfaces from [`Reader::finish`].
struct Reader<'a> {
    input: &'a [u8],
    pos: usize,
    /// Values entered through [`Source::enter`] and not yet left.
    depth: usize,
    failed: Option<DecodeError>,
}

impl<'a> Reader<'a> {
    fn new(input: &'a [u8]) -> Self {
        Reader {
            input,
            pos: 0,
            depth: 0,
            failed: None,
        }
    }

    /// Records a byte-level failure; the error handed back only unwinds
    /// `pull`.
    #[cold]
    fn fail(&mut self, e: DecodeError) -> serde::Error {
        self.failed.get_or_insert(e);
        serde::Error::msg(String::new())
    }

    /// A container's length prefix — a claim, refused here if the input
    /// left could not hold that many values of a byte each.
    #[inline]
    fn container_len(&mut self) -> Result<usize, DecodeError> {
        let len = get_varint(self.input, &mut self.pos)?;
        if len > (self.input.len() - self.pos) as u64 {
            return Err(DecodeError::Truncated);
        }
        Ok(len as usize)
    }

    #[inline]
    fn head(&mut self) -> Result<Head<'a>, DecodeError> {
        let &tag = self.input.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(match tag {
            TAG_NULL => Head::Null,
            TAG_FALSE => Head::Bool(false),
            TAG_TRUE => Head::Bool(true),
            TAG_U64 => Head::U64(get_varint(self.input, &mut self.pos)?),
            TAG_I64 => Head::I64(unzigzag(get_varint(self.input, &mut self.pos)?)),
            TAG_F64 => {
                let end = self.pos.checked_add(8).ok_or(DecodeError::Truncated)?;
                let bytes = self
                    .input
                    .get(self.pos..end)
                    .ok_or(DecodeError::Truncated)?;
                self.pos = end;
                Head::F64(f64::from_bits(u64::from_le_bytes(
                    bytes.try_into().expect("8-byte slice"),
                )))
            }
            TAG_STR => Head::Str(get_str(self.input, &mut self.pos)?),
            TAG_ARRAY => Head::Array(self.container_len()?),
            TAG_OBJECT => Head::Object(self.container_len()?),
            other => return Err(DecodeError::BadTag(other)),
        })
    }

    /// What `from_bytes` makes of a finished `pull`: the byte-level failure
    /// if there was one, else the shape failure, else the value — provided
    /// it was all of the input, when `whole`.
    fn finish<T>(
        &self,
        pulled: Result<T, serde::Error>,
        whole: bool,
    ) -> Result<T, crate::StoreError> {
        if let Some(e) = &self.failed {
            return Err(crate::StoreError::Decode(e.clone()));
        }
        let value = pulled.map_err(|e| crate::StoreError::Serde(e.to_string()))?;
        if whole && self.pos != self.input.len() {
            return Err(crate::StoreError::Decode(DecodeError::TrailingBytes));
        }
        Ok(value)
    }
}

impl Source for Reader<'_> {
    #[inline]
    fn next(&mut self) -> Result<Head<'_>, serde::Error> {
        self.head().map_err(|e| self.fail(e))
    }

    #[inline]
    fn key(&mut self) -> Result<&str, serde::Error> {
        get_str(self.input, &mut self.pos).map_err(|e| self.fail(e))
    }

    #[inline]
    fn bytes_left(&self) -> usize {
        self.input.len() - self.pos
    }

    #[inline]
    fn null(&mut self) -> Result<bool, serde::Error> {
        match self.input.get(self.pos) {
            Some(&TAG_NULL) => {
                self.pos += 1;
                Ok(true)
            }
            Some(_) => Ok(false),
            None => Err(self.fail(DecodeError::Truncated)),
        }
    }

    #[inline]
    fn next_u64(&mut self) -> Result<Option<u64>, serde::Error> {
        if self.input.get(self.pos) != Some(&TAG_U64) {
            return Ok(None);
        }
        self.pos += 1;
        get_varint(self.input, &mut self.pos)
            .map(Some)
            .map_err(|e| self.fail(e))
    }

    #[inline]
    fn enter(&mut self) -> Result<(), serde::Error> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.fail(DecodeError::TooDeep));
        }
        Ok(())
    }

    #[inline]
    fn leave(&mut self) {
        self.depth -= 1;
    }
}

/// A length-prefixed string, borrowed from `input`.
#[inline]
fn get_str<'a>(input: &'a [u8], pos: &mut usize) -> Result<&'a str, DecodeError> {
    let len = get_varint(input, pos)? as usize;
    let end = pos.checked_add(len).ok_or(DecodeError::Truncated)?;
    let bytes = input.get(*pos..end).ok_or(DecodeError::Truncated)?;
    *pos = end;
    std::str::from_utf8(bytes).map_err(|_| DecodeError::BadUtf8)
}

/// Appends the binary form of `value` to `out`.
pub fn write_value<T: Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) {
    value.emit(&mut Writer { out });
}

/// Serializes any workspace-serde type into the binary value form.
pub fn to_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    write_value(value, &mut out);
    out
}

/// Deserializes a workspace-serde type from the binary value form,
/// requiring the input to be exactly one value.
pub fn from_bytes<T: Deserialize>(input: &[u8]) -> Result<T, crate::StoreError> {
    let mut reader = Reader::new(input);
    let pulled = T::pull(&mut reader);
    reader.finish(pulled, true)
}

/// Deserializes a workspace-serde type from the front of the binary value
/// form: what `T` reads of the value `input` starts with, the rest of the
/// input unread and unchecked.
pub(crate) fn from_front<T: Deserialize>(input: &[u8]) -> Result<T, crate::StoreError> {
    let mut reader = Reader::new(input);
    let pulled = T::pull(&mut reader);
    reader.finish(pulled, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::JsonValue;

    // The recursive tree decoder this module shipped up to PR 22, and its
    // two entry points, kept as the reference the reader is held to.

    fn decode_at(input: &[u8], pos: &mut usize, depth: usize) -> Result<JsonValue, DecodeError> {
        if depth > MAX_DEPTH {
            return Err(DecodeError::TooDeep);
        }
        let &tag = input.get(*pos).ok_or(DecodeError::Truncated)?;
        *pos += 1;
        match tag {
            TAG_NULL => Ok(JsonValue::Null),
            TAG_FALSE => Ok(JsonValue::Bool(false)),
            TAG_TRUE => Ok(JsonValue::Bool(true)),
            TAG_U64 => Ok(JsonValue::U64(get_varint(input, pos)?)),
            TAG_I64 => Ok(JsonValue::I64(unzigzag(get_varint(input, pos)?))),
            TAG_F64 => {
                let end = pos.checked_add(8).ok_or(DecodeError::Truncated)?;
                let bytes = input.get(*pos..end).ok_or(DecodeError::Truncated)?;
                *pos = end;
                Ok(JsonValue::F64(f64::from_bits(u64::from_le_bytes(
                    bytes.try_into().expect("8-byte slice"),
                ))))
            }
            TAG_STR => Ok(JsonValue::Str(get_str(input, pos)?.to_string())),
            TAG_ARRAY => {
                let len = get_varint(input, pos)? as usize;
                // Cap the pre-allocation: a corrupt length must not OOM.
                let mut items = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    items.push(decode_at(input, pos, depth + 1)?);
                }
                Ok(JsonValue::Array(items))
            }
            TAG_OBJECT => {
                let len = get_varint(input, pos)? as usize;
                let mut entries = Vec::with_capacity(len.min(4096));
                for _ in 0..len {
                    let key = get_str(input, pos)?.to_string();
                    let val = decode_at(input, pos, depth + 1)?;
                    entries.push((key, val));
                }
                Ok(JsonValue::Object(entries))
            }
            other => Err(DecodeError::BadTag(other)),
        }
    }

    /// Decodes a binary value, requiring the input to be exactly one value.
    fn decode_value(input: &[u8]) -> Result<JsonValue, DecodeError> {
        let mut pos = 0usize;
        let v = decode_at(input, &mut pos, 0)?;
        if pos != input.len() {
            return Err(DecodeError::TrailingBytes);
        }
        Ok(v)
    }

    // The recursive tree encoder the streaming writer replaced, kept as the
    // reference it is held to.

    fn encode_into(v: &JsonValue, out: &mut Vec<u8>) {
        match v {
            JsonValue::Null => out.push(TAG_NULL),
            JsonValue::Bool(false) => out.push(TAG_FALSE),
            JsonValue::Bool(true) => out.push(TAG_TRUE),
            JsonValue::U64(n) => {
                out.push(TAG_U64);
                put_varint(out, *n);
            }
            JsonValue::I64(n) => {
                out.push(TAG_I64);
                put_varint(out, zigzag(*n));
            }
            JsonValue::F64(x) => {
                out.push(TAG_F64);
                out.extend_from_slice(&x.to_bits().to_le_bytes());
            }
            JsonValue::Str(s) => {
                out.push(TAG_STR);
                put_varint(out, s.len() as u64);
                out.extend_from_slice(s.as_bytes());
            }
            JsonValue::Array(items) => {
                out.push(TAG_ARRAY);
                put_varint(out, items.len() as u64);
                for item in items {
                    encode_into(item, out);
                }
            }
            JsonValue::Object(entries) => {
                out.push(TAG_OBJECT);
                put_varint(out, entries.len() as u64);
                for (k, val) in entries {
                    put_varint(out, k.len() as u64);
                    out.extend_from_slice(k.as_bytes());
                    encode_into(val, out);
                }
            }
        }
    }

    /// Arbitrary value trees, depth ≤ 6: empty arrays and objects, repeated
    /// and non-ASCII keys (a small pool, so keys repeat),
    /// `u64::MAX`, negative and non-finite numbers.
    struct Trees;

    impl Trees {
        fn tree(rng: &mut proptest::test_runner::TestRng, depth: u32) -> JsonValue {
            use rand::Rng;
            const KEYS: [&str; 6] = ["id", "ops", "clé", "ключ", "", "a much longer field name"];
            let scalars = if depth >= 6 { 7 } else { 9 };
            match rng.gen_range(0..scalars) {
                0 => JsonValue::Null,
                1 => JsonValue::Bool(rng.gen_range(0..2) == 1),
                2 => JsonValue::U64([0, 127, 128, u64::MAX][rng.gen_range(0..4)]),
                3 => JsonValue::U64(rng.gen_range(0..u64::MAX) >> rng.gen_range(0..64)),
                4 => JsonValue::I64(-1 - (rng.gen_range(0..i64::MAX) >> rng.gen_range(0..63))),
                5 => JsonValue::F64(
                    [0.5, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e300]
                        [rng.gen_range(0..6)],
                ),
                6 => JsonValue::Str(KEYS[rng.gen_range(0..KEYS.len())].repeat(rng.gen_range(0..3))),
                7 => JsonValue::Array(
                    (0..rng.gen_range(0..5))
                        .map(|_| Self::tree(rng, depth + 1))
                        .collect(),
                ),
                _ => JsonValue::Object(
                    (0..rng.gen_range(0..5))
                        .map(|_| {
                            let key = KEYS[rng.gen_range(0..KEYS.len())].to_string();
                            (key, Self::tree(rng, depth + 1))
                        })
                        .collect(),
                ),
            }
        }
    }

    impl proptest::strategy::Strategy for Trees {
        type Value = JsonValue;
        fn sample(&self, rng: &mut proptest::test_runner::TestRng) -> JsonValue {
            Self::tree(rng, 0)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The streamed bytes of a tree are the reference encoder's bytes.
        #[test]
        fn streamed_bytes_equal_the_tree_encoders(first in Trees) {
            let mut expected = Vec::new();
            encode_into(&first, &mut expected);
            proptest::prop_assert_eq!(to_bytes(&first), expected);
            // Bit-exact floats keep `PartialEq` from seeing a NaN round trip.
            let back = decode_value(&to_bytes(&first)).unwrap();
            proptest::prop_assert_eq!(to_bytes(&back), to_bytes(&first));
        }
    }

    /// A derived value is written as its tree with every struct an array and
    /// every variant an index — no name reaches the bytes — and reads back
    /// from them, and from its named tree's bytes too.
    #[test]
    fn derived_values_are_written_without_names() {
        use mtc_history::{Op, SessionId, Transaction, TxnId};
        let txn = Transaction::committed(TxnId(9), SessionId(2), vec![Op::write(3u64, u64::MAX)])
            .with_times(5, 8);
        let bytes = to_bytes(&txn);
        let tree = decode_value(&bytes).unwrap();
        let mut named = Vec::new();
        encode_into(&txn.to_json_value(), &mut named);
        assert!(!format!("{tree:?}").contains("Object"), "{tree:?}");
        assert!(
            bytes.len() * 2 < named.len(),
            "{} against {}",
            bytes.len(),
            named.len()
        );
        for bytes in [bytes, named] {
            assert_eq!(from_bytes::<Transaction>(&bytes).unwrap(), txn);
        }
    }

    /// What the reader makes of `input` as a tree, beside what the reference
    /// does: the same tree (bit for bit: a NaN is not `==` itself) or a
    /// refusal from both, for the same reason — except that the reader
    /// refuses a length that is a lie where it stands, as `Truncated`, and
    /// the reference wherever the input runs out under it or stops making
    /// sense.
    fn agree(input: &[u8]) {
        match (from_bytes::<JsonValue>(input), decode_value(input)) {
            (Ok(pulled), Ok(reference)) => assert_eq!(to_bytes(&pulled), to_bytes(&reference)),
            (Err(crate::StoreError::Decode(pulled)), Err(reference)) => {
                assert!(
                    pulled == reference || pulled == DecodeError::Truncated,
                    "{pulled:?} against the reference's {reference:?} for {input:02x?}"
                );
            }
            (pulled, reference) => {
                panic!("{pulled:?} against the reference's {reference:?} for {input:02x?}")
            }
        }
    }

    /// Where the length prefixes of `input` start — of its strings, keys,
    /// arrays and objects — for a value the reference decodes.
    fn length_offsets(input: &[u8]) -> Vec<usize> {
        fn walk(input: &[u8], pos: &mut usize, found: &mut Vec<usize>) {
            let tag = input[*pos];
            *pos += 1;
            let mut length = |pos: &mut usize| {
                found.push(*pos);
                get_varint(input, pos).unwrap() as usize
            };
            match tag {
                TAG_U64 | TAG_I64 => {
                    get_varint(input, pos).unwrap();
                }
                TAG_F64 => *pos += 8,
                TAG_STR => *pos += length(pos),
                TAG_ARRAY => {
                    for _ in 0..length(pos) {
                        walk(input, pos, found);
                    }
                }
                TAG_OBJECT => {
                    for _ in 0..length(pos) {
                        found.push(*pos);
                        *pos += get_varint(input, pos).unwrap() as usize;
                        walk(input, pos, found);
                    }
                }
                _ => {}
            }
        }
        let mut found = Vec::new();
        walk(input, &mut 0, &mut found);
        found
    }

    /// `input` with the varint at `at` replaced by that of `value`.
    fn with_varint(input: &[u8], at: usize, value: u64) -> Vec<u8> {
        let mut end = at;
        get_varint(input, &mut end).unwrap();
        let mut out = input[..at].to_vec();
        put_varint(&mut out, value);
        out.extend_from_slice(&input[end..]);
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(512))]

        /// The reader is held to the reference decoder: on what the writer
        /// wrote, and on those bytes damaged the ways a disk or a peer
        /// damages them.
        #[test]
        fn the_reader_pulls_what_the_reference_decodes(
            tree in Trees,
            damage in proptest::arbitrary::any::<u64>(),
        ) {
            let bytes = to_bytes(&tree);
            agree(&bytes);
            let at = (damage >> 8) as usize % bytes.len();
            let mut flipped = bytes.clone();
            flipped[at] ^= 1 << (damage % 8);
            agree(&flipped);
            agree(&bytes[..at]);
            let lengths = length_offsets(&bytes);
            if !lengths.is_empty() {
                let at = lengths[(damage >> 8) as usize % lengths.len()];
                for claim in [1 << 32, 1 << 60, (damage >> 40) % 64] {
                    agree(&with_varint(&bytes, at, claim));
                }
            }
            // One container too many around it, and the most there may be
            // (the tree itself is at most six deep).
            for (wraps, fits) in [(MAX_DEPTH + 1, false), (MAX_DEPTH - 6, true)] {
                let mut deep = [TAG_ARRAY, 1].repeat(wraps);
                deep.extend_from_slice(&bytes);
                agree(&deep);
                proptest::prop_assert_eq!(from_bytes::<JsonValue>(&deep).is_ok(), fits);
            }
        }
    }

    /// The reader on the hand-picked inputs the tests below hold the
    /// reference to: same verdict, same reason.
    #[test]
    fn the_reader_refuses_what_the_reference_refuses_and_says_why() {
        let hello = to_bytes(&JsonValue::Str("hello".to_string()));
        for cut in 0..=hello.len() {
            agree(&hello[..cut]);
        }
        let nested = |levels: usize| {
            let mut bytes = [TAG_ARRAY, 1].repeat(levels);
            bytes.push(TAG_NULL);
            bytes
        };
        let varint = |tail: &[u8]| [&[TAG_U64], tail].concat();
        for input in [
            [to_bytes(&JsonValue::U64(7)), vec![0]].concat(),
            vec![0xff],
            nested(100_000),
            nested(MAX_DEPTH + 1),
            nested(MAX_DEPTH),
            nested(MAX_DEPTH - 1),
            [TAG_ARRAY, 1].repeat(MAX_DEPTH + 1),
            [[TAG_ARRAY, 1].repeat(MAX_DEPTH), vec![TAG_ARRAY, 0]].concat(),
            varint(&[0xff; 10]),
            varint(&[[0x80; 10].as_slice(), &[0x01]].concat()),
            varint(&[[0xff; 9].as_slice(), &[0x02]].concat()),
            varint(&[0x80, 0x00]),
            varint(&[0xff, 0x80, 0x00]),
            vec![TAG_STR, 2, 0xc3, 0x28],
            vec![TAG_OBJECT, 1, 2, 0xc3, 0x28, TAG_NULL],
            vec![TAG_F64, 1, 2, 3],
            vec![0x09, 1, 0, TAG_NULL],
        ] {
            agree(&input);
        }
        assert!(matches!(
            from_bytes::<JsonValue>(&nested(100_000)),
            Err(crate::StoreError::Decode(DecodeError::TooDeep))
        ));
        assert!(from_bytes::<JsonValue>(&nested(MAX_DEPTH)).is_ok());
        // 0x09, the tag v2 log records gave their indexed objects, is unknown.
        assert!(matches!(
            from_bytes::<JsonValue>(&[0x09, 1, 0, TAG_NULL]),
            Err(crate::StoreError::Decode(DecodeError::BadTag(0x09)))
        ));
    }

    /// Depth is held where recursion follows the input: a derived struct read
    /// from its named bytes skips a field it does not know, and the skip
    /// counts the levels — one past [`MAX_DEPTH`] is refused, a hundred
    /// thousand too, without the stack ever seeing them.
    #[test]
    fn an_unknown_field_nested_past_max_depth_is_refused_where_it_is_skipped() {
        use mtc_history::{Op, SessionId, Transaction, TxnId};
        let txn = Transaction::committed(TxnId(4), SessionId(1), vec![Op::read(2u64, 0u64)])
            .with_times(3, 9);
        let JsonValue::Object(mut fields) = txn.to_json_value() else {
            panic!("a transaction's named tree is an object");
        };
        fields.push(("unknown".to_string(), JsonValue::Null));
        let named = to_bytes(&JsonValue::Object(fields));
        let with_unknown = |levels: usize| {
            // The unknown field comes last, so its `null` is the last byte.
            let mut bytes = named[..named.len() - 1].to_vec();
            bytes.extend_from_slice(&[TAG_ARRAY, 1].repeat(levels));
            bytes.push(TAG_NULL);
            bytes
        };
        assert_eq!(from_bytes::<Transaction>(&with_unknown(0)).unwrap(), txn);
        assert_eq!(
            from_bytes::<Transaction>(&with_unknown(MAX_DEPTH)).unwrap(),
            txn
        );
        for levels in [MAX_DEPTH + 1, 100_000] {
            assert!(
                matches!(
                    from_bytes::<Transaction>(&with_unknown(levels)),
                    Err(crate::StoreError::Decode(DecodeError::TooDeep))
                ),
                "{levels} levels"
            );
        }
    }

    fn rt(v: JsonValue) {
        let bytes = to_bytes(&v);
        assert_eq!(decode_value(&bytes).unwrap(), v, "round trip of {v:?}");
    }

    #[test]
    fn scalars_round_trip() {
        rt(JsonValue::Null);
        rt(JsonValue::Bool(true));
        rt(JsonValue::Bool(false));
        rt(JsonValue::U64(0));
        rt(JsonValue::U64(u64::MAX));
        rt(JsonValue::I64(-1));
        rt(JsonValue::I64(i64::MIN));
        rt(JsonValue::F64(3.5));
        rt(JsonValue::F64(-0.0));
        rt(JsonValue::Str(String::new()));
        rt(JsonValue::Str("héllo\nworld".to_string()));
    }

    #[test]
    fn packed_u64_values_survive_exactly() {
        // Allocator-style packed values use the high bits.
        let packed = (37u64 + 1) << 40 | 123;
        rt(JsonValue::U64(packed));
    }

    #[test]
    fn nested_structures_round_trip() {
        rt(JsonValue::Array(vec![
            JsonValue::U64(1),
            JsonValue::Object(vec![
                ("k".to_string(), JsonValue::Array(vec![])),
                ("v".to_string(), JsonValue::I64(-7)),
            ]),
            JsonValue::Null,
        ]));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = to_bytes(&JsonValue::Str("hello".to_string()));
        for cut in 0..bytes.len() {
            assert!(
                decode_value(&bytes[..cut]).is_err(),
                "prefix of length {cut} must not decode"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = to_bytes(&JsonValue::U64(7));
        bytes.push(0);
        assert_eq!(decode_value(&bytes), Err(DecodeError::TrailingBytes));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        assert_eq!(decode_value(&[0xff]), Err(DecodeError::BadTag(0xff)));
    }

    #[test]
    fn hostile_nesting_is_rejected_without_overflowing() {
        // ~100k nested singleton arrays: CRC-valid in a frame, must fail
        // with TooDeep instead of blowing the stack during recovery.
        let mut bytes = vec![TAG_ARRAY; 0]; // built below
        for _ in 0..100_000 {
            bytes.push(TAG_ARRAY);
            bytes.push(1);
        }
        bytes.push(TAG_NULL);
        assert_eq!(decode_value(&bytes), Err(DecodeError::TooDeep));
        // Sane nesting below the cap still decodes.
        let mut ok = Vec::new();
        for _ in 0..(MAX_DEPTH - 1) {
            ok.push(TAG_ARRAY);
            ok.push(1);
        }
        ok.push(TAG_NULL);
        assert!(decode_value(&ok).is_ok());
    }

    #[test]
    fn overlong_varint_is_rejected() {
        let bytes = [
            TAG_U64, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
        ];
        assert!(decode_value(&bytes).is_err());
    }

    #[test]
    fn overflowing_varints_error_instead_of_wrapping() {
        // 10 continuation bytes followed by anything: more than 64 bits.
        let mut bytes = vec![TAG_U64];
        bytes.extend_from_slice(&[0x80; 10]);
        bytes.push(0x01);
        assert_eq!(decode_value(&bytes), Err(DecodeError::BadVarint));
        // Exactly 10 bytes but the last one carries payload bits above 63.
        let mut bytes = vec![TAG_U64];
        bytes.extend_from_slice(&[0xff; 9]);
        bytes.push(0x02);
        assert_eq!(decode_value(&bytes), Err(DecodeError::BadVarint));
        // u64::MAX itself is the canonical 10-byte edge and must decode.
        let mut pos = 0;
        let max = to_bytes(&JsonValue::U64(u64::MAX));
        assert_eq!(get_varint(&max[1..], &mut pos), Ok(u64::MAX));
    }

    #[test]
    fn non_canonical_varints_are_rejected() {
        // Every overlong spelling of small values: trailing zero bytes.
        for overlong in [
            vec![0x80, 0x00],             // 0 in two bytes
            vec![0x81, 0x00],             // 1 in two bytes
            vec![0xff, 0x80, 0x00],       // 127+pad in three bytes
            vec![0x80, 0x80, 0x80, 0x00], // 0 in four bytes
        ] {
            let mut bytes = vec![TAG_U64];
            bytes.extend_from_slice(&overlong);
            assert_eq!(
                decode_value(&bytes),
                Err(DecodeError::BadVarint),
                "overlong {overlong:02x?} must not decode"
            );
        }
        // The canonical spellings of the same values still decode.
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX] {
            let bytes = to_bytes(&JsonValue::U64(v));
            assert_eq!(decode_value(&bytes).unwrap(), JsonValue::U64(v));
        }
    }

    #[test]
    fn every_truncation_offset_of_a_record_corpus_errors_cleanly() {
        use mtc_history::{Op, SessionId, Transaction, TxnId};
        // A corpus of realistic encoded records: transactions of several
        // shapes (the payloads that now cross the network), plus synthetic
        // values stressing every tag. Decoding any strict prefix must fail
        // with a decode error — never panic, never succeed on a prefix.
        let mut corpus: Vec<Vec<u8>> = Vec::new();
        for (id, ops) in [
            (1u32, vec![Op::read(0u64, 0u64)]),
            (
                77,
                vec![
                    Op::read(5u64, 1u64 << 41),
                    Op::write(5u64, (1u64 << 41) + 1),
                ],
            ),
            (
                u32::MAX,
                vec![
                    Op::write(9u64, u64::MAX - 1),
                    Op::read(10u64, 0u64),
                    Op::write(10u64, 3u64),
                ],
            ),
        ] {
            let txn = Transaction::committed(TxnId(id), SessionId(2), ops)
                .with_times(u64::from(id) * 100, u64::from(id) * 100 + 7);
            corpus.push(to_bytes(&txn));
        }
        corpus.push(to_bytes(&JsonValue::Array(vec![
            JsonValue::Null,
            JsonValue::Bool(true),
            JsonValue::U64(u64::MAX),
            JsonValue::I64(i64::MIN),
            JsonValue::F64(6.25),
            JsonValue::Str("network-facing".to_string()),
            JsonValue::Object(vec![("k".to_string(), JsonValue::U64(300))]),
        ])));
        for (i, record) in corpus.iter().enumerate() {
            // The whole record decodes…
            assert!(decode_value(record).is_ok(), "corpus record {i}");
            // …and every strict prefix is a clean error.
            for cut in 0..record.len() {
                assert!(
                    decode_value(&record[..cut]).is_err(),
                    "corpus record {i}: prefix of length {cut} must not decode"
                );
            }
        }
    }

    #[test]
    fn binary_is_smaller_than_json_for_typical_records() {
        use mtc_history::{Op, SessionId, Transaction, TxnId};
        let txn = Transaction::committed(
            TxnId(12345),
            SessionId(3),
            vec![
                Op::read(17u64, 1u64 << 41),
                Op::write(17u64, (1u64 << 41) + 1),
            ],
        )
        .with_times(1_000_000, 1_000_050);
        let bin = to_bytes(&txn);
        let mut json = String::new();
        txn.to_json_value().render(&mut json);
        assert!(
            bin.len() < json.len() * 3 / 4,
            "binary {} vs json {}",
            bin.len(),
            json.len()
        );
    }
}
