//! Offline stand-in for the `serde` crate.
//!
//! The real `serde` cannot be fetched in this build environment, so this
//! crate provides the small surface the workspace actually uses: a
//! [`Serialize`]/[`Deserialize`] trait pair, derive macros for both traits
//! (re-exported from the sibling `serde_derive` proc-macro crate), and
//! implementations for the primitive types, `String`, `Option`, `Vec`,
//! tuples, maps and `std::time::Duration`.
//!
//! The two halves are not symmetric. **Reading** goes through an owned JSON
//! value tree ([`JsonValue`]): a decoder parses into one and
//! [`Deserialize::from_json_value`] picks it apart. **Writing** builds no
//! tree: [`Serialize::emit`] describes the value to a sink as a sequence of
//! events, and the sink — the binary writer of `mtc_store::binval`, or the
//! tree builder behind [`Serialize::to_json_value`] for the callers that
//! want a tree (JSON text, event logs, tests) — does what it likes with
//! them. One description of each type's shape, any number of outputs.
//!
//! ## The sink contract
//!
//! A [`Serialize`] impl owes its [`Emitter`] exactly this, and a sink may
//! rely on all of it without checking:
//!
//! * **One value per `emit`.** A call sends one scalar event, or one
//!   `begin_array` … `end_array` / `begin_object` … `end_object` bracket
//!   with everything inside it — never nothing, never two values.
//! * **Lengths are exact and trusted.** `begin_array(len)` is followed by
//!   exactly `len` values and `begin_object(len)` by exactly `len`
//!   key-then-value pairs. The binary form writes the length as a prefix and
//!   cannot go back, so an impl that does not know its length up front
//!   counts first. (The tree builder checks the count in debug builds.)
//! * **Keys before values.** Inside an object every value is preceded by one
//!   `key` call; `key` is called nowhere else.
//!
//! Unsigned 64-bit integers are preserved exactly (not routed through `f64`),
//! which matters because unique write values pack session ids into the high
//! bits and must round-trip bit-identically.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// An owned JSON document.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer that fits `u64`, kept exact.
    U64(u64),
    /// A negative integer, kept exact.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key in an object value.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders the value as compact JSON text.
    pub fn render(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(n) => out.push_str(&n.to_string()),
            JsonValue::I64(n) => out.push_str(&n.to_string()),
            JsonValue::F64(x) => {
                if x.is_finite() {
                    // `{:?}` prints the shortest representation that
                    // round-trips through parsing.
                    out.push_str(&format!("{x:?}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => render_string(s, out),
            JsonValue::Array(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.render(out);
                }
                out.push(']');
            }
            JsonValue::Object(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_string(k, out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

fn render_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialization/deserialization error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error(pub String);

impl Error {
    /// A free-form error.
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }

    /// `ty` expected a JSON shape it did not get.
    pub fn expected(what: &str, ty: &str) -> Self {
        Error(format!("expected {what} while deserializing {ty}"))
    }

    /// A struct field was absent.
    pub fn missing_field(ty: &str, field: &str) -> Self {
        Error(format!("missing field `{field}` while deserializing {ty}"))
    }

    /// An enum tag did not match any variant.
    pub fn unknown_variant(ty: &str, tag: &str) -> Self {
        Error(format!("unknown variant `{tag}` of {ty}"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

/// What a value is described to, one event at a time (see the
/// [module docs](self) for what a sink may assume about their order).
pub trait Emitter {
    /// `null`
    fn null(&mut self);
    /// `true` / `false`
    fn bool(&mut self, v: bool);
    /// A non-negative integer.
    fn u64(&mut self, v: u64);
    /// A negative integer (a non-negative one goes to [`Emitter::u64`]).
    fn i64(&mut self, v: i64);
    /// Any other number.
    fn f64(&mut self, v: f64);
    /// A string.
    fn str(&mut self, v: &str);
    /// Opens an array of exactly `len` values.
    fn begin_array(&mut self, len: usize);
    /// Closes the innermost array.
    fn end_array(&mut self);
    /// Opens an object of exactly `len` key-value pairs.
    fn begin_object(&mut self, len: usize);
    /// The key of the next value of the innermost object.
    fn key(&mut self, k: &str);
    /// Closes the innermost object.
    fn end_object(&mut self);
}

/// Types that can describe themselves to an [`Emitter`].
pub trait Serialize {
    /// Sends `self` to `out` as exactly one value.
    ///
    /// Generic over the sink, not `&mut dyn`: a checker snapshot is some
    /// 300 000 events of a byte or two each, and the byte writer's `push`
    /// inlines into the derived code only when the sink's type is known
    /// (1.25 ms against 1.68 ms for a 1.2 MB snapshot, measured when this
    /// was written). `E: ?Sized` keeps `&mut dyn Emitter` a legal argument
    /// all the same.
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E);

    /// Converts `self` into a JSON value tree, built from the events of
    /// [`Serialize::emit`].
    fn to_json_value(&self) -> JsonValue {
        let mut tree = TreeBuilder::default();
        self.emit(&mut tree);
        tree.root.expect("emit sends one value")
    }
}

/// The sink behind [`Serialize::to_json_value`]: the containers being
/// filled, innermost last.
#[derive(Default)]
struct TreeBuilder {
    open: Vec<Open>,
    root: Option<JsonValue>,
}

/// A container being filled: the length it was opened with and, for an
/// object, the key its next value goes under.
struct Open {
    container: JsonValue,
    len: usize,
    key: Option<String>,
}

impl TreeBuilder {
    fn value(&mut self, v: JsonValue) {
        match self.open.last_mut() {
            None => self.root = Some(v),
            Some(open) => match &mut open.container {
                JsonValue::Array(items) => items.push(v),
                JsonValue::Object(entries) => {
                    entries.push((open.key.take().expect("a key before every value"), v))
                }
                _ => unreachable!("only containers are opened"),
            },
        }
    }

    fn begin(&mut self, container: JsonValue, len: usize) {
        self.open.push(Open {
            container,
            len,
            key: None,
        });
    }

    fn end(&mut self) {
        let Open { container, len, .. } = self.open.pop().expect("an open container");
        let filled = match &container {
            JsonValue::Array(items) => items.len(),
            JsonValue::Object(entries) => entries.len(),
            _ => unreachable!("only containers are opened"),
        };
        debug_assert_eq!(filled, len, "container length announced up front");
        self.value(container);
    }
}

impl Emitter for TreeBuilder {
    fn null(&mut self) {
        self.value(JsonValue::Null);
    }
    fn bool(&mut self, v: bool) {
        self.value(JsonValue::Bool(v));
    }
    fn u64(&mut self, v: u64) {
        self.value(JsonValue::U64(v));
    }
    fn i64(&mut self, v: i64) {
        self.value(JsonValue::I64(v));
    }
    fn f64(&mut self, v: f64) {
        self.value(JsonValue::F64(v));
    }
    fn str(&mut self, v: &str) {
        self.value(JsonValue::Str(v.to_string()));
    }
    fn begin_array(&mut self, len: usize) {
        self.begin(JsonValue::Array(Vec::with_capacity(len)), len);
    }
    fn end_array(&mut self) {
        self.end();
    }
    fn begin_object(&mut self, len: usize) {
        self.begin(JsonValue::Object(Vec::with_capacity(len)), len);
    }
    fn key(&mut self, k: &str) {
        self.open.last_mut().expect("a key inside an object").key = Some(k.to_string());
    }
    fn end_object(&mut self) {
        self.end();
    }
}

/// A tree that already exists goes through the same sinks as everything
/// else: it emits itself.
impl Serialize for JsonValue {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        match self {
            JsonValue::Null => out.null(),
            JsonValue::Bool(b) => out.bool(*b),
            JsonValue::U64(n) => out.u64(*n),
            JsonValue::I64(n) => out.i64(*n),
            JsonValue::F64(x) => out.f64(*x),
            JsonValue::Str(s) => out.str(s),
            JsonValue::Array(items) => items.emit(out),
            JsonValue::Object(entries) => {
                out.begin_object(entries.len());
                for (k, v) in entries {
                    out.key(k);
                    v.emit(out);
                }
                out.end_object();
            }
        }
    }
}

/// Types that can be reconstructed from a [`JsonValue`].
pub trait Deserialize: Sized {
    /// Reconstructs `Self` from a JSON value tree.
    fn from_json_value(v: &JsonValue) -> Result<Self, Error>;
}

// ── primitive impls ─────────────────────────────────────────────────────────

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
                out.u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &JsonValue) -> Result<Self, Error> {
                match v {
                    JsonValue::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t)))),
                    JsonValue::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t)))),
                    _ => Err(Error::expected("unsigned integer", stringify!($t))),
                }
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
                let n = *self as i64;
                if n >= 0 {
                    out.u64(n as u64);
                } else {
                    out.i64(n);
                }
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &JsonValue) -> Result<Self, Error> {
                match v {
                    JsonValue::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t)))),
                    JsonValue::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t)))),
                    _ => Err(Error::expected("signed integer", stringify!($t))),
                }
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
                out.f64(*self as f64);
            }
        }
        impl Deserialize for $t {
            fn from_json_value(v: &JsonValue) -> Result<Self, Error> {
                match v {
                    JsonValue::F64(x) => Ok(*x as $t),
                    JsonValue::U64(n) => Ok(*n as $t),
                    JsonValue::I64(n) => Ok(*n as $t),
                    _ => Err(Error::expected("number", stringify!($t))),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for bool {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        out.bool(*self);
    }
}

impl Deserialize for bool {
    fn from_json_value(v: &JsonValue) -> Result<Self, Error> {
        match v {
            JsonValue::Bool(b) => Ok(*b),
            _ => Err(Error::expected("boolean", "bool")),
        }
    }
}

impl Serialize for String {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        out.str(self);
    }
}

impl Deserialize for String {
    fn from_json_value(v: &JsonValue) -> Result<Self, Error> {
        match v {
            JsonValue::Str(s) => Ok(s.clone()),
            _ => Err(Error::expected("string", "String")),
        }
    }
}

impl Serialize for str {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        out.str(self);
    }
}

impl Serialize for char {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        out.str(self.encode_utf8(&mut [0u8; 4]));
    }
}

impl Deserialize for char {
    fn from_json_value(v: &JsonValue) -> Result<Self, Error> {
        match v {
            JsonValue::Str(s) if s.chars().count() == 1 => Ok(s.chars().next().unwrap()),
            _ => Err(Error::expected("single-character string", "char")),
        }
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        (**self).emit(out);
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        match self {
            Some(x) => x.emit(out),
            None => out.null(),
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json_value(v: &JsonValue) -> Result<Self, Error> {
        match v {
            JsonValue::Null => Ok(None),
            other => Ok(Some(T::from_json_value(other)?)),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        self.as_slice().emit(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(v: &JsonValue) -> Result<Self, Error> {
        match v {
            JsonValue::Array(items) => items.iter().map(T::from_json_value).collect(),
            _ => Err(Error::expected("array", "Vec")),
        }
    }
}

impl<T: Serialize> Serialize for [T] {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        out.begin_array(self.len());
        for item in self {
            item.emit(out);
        }
        out.end_array();
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        self.as_slice().emit(out);
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
                out.begin_array([$($n),+].len());
                $(self.$n.emit(out);)+
                out.end_array();
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_json_value(v: &JsonValue) -> Result<Self, Error> {
                match v {
                    JsonValue::Array(items) => {
                        Ok(($($t::from_json_value(
                            items.get($n).ok_or_else(|| Error::expected("longer array", "tuple"))?,
                        )?,)+))
                    }
                    _ => Err(Error::expected("array", "tuple")),
                }
            }
        }
    )*};
}
impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
}

/// A map is an array of `[key, value]` pairs in iteration order — and that
/// order is the order on disk.
fn emit_pairs<'a, K, V, E>(len: usize, pairs: impl Iterator<Item = (&'a K, &'a V)>, out: &mut E)
where
    K: Serialize + 'a,
    V: Serialize + 'a,
    E: Emitter + ?Sized,
{
    out.begin_array(len);
    for pair in pairs {
        pair.emit(out);
    }
    out.end_array();
}

impl<K: Serialize, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        emit_pairs(self.len(), self.iter(), out);
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + std::hash::Hash + Eq,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_json_value(v: &JsonValue) -> Result<Self, Error> {
        match v {
            JsonValue::Array(items) => {
                let mut map = HashMap::with_capacity_and_hasher(items.len(), S::default());
                for item in items {
                    let (k, val) = <(K, V)>::from_json_value(item)?;
                    map.insert(k, val);
                }
                Ok(map)
            }
            _ => Err(Error::expected("array of pairs", "HashMap")),
        }
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        emit_pairs(self.len(), self.iter(), out);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_json_value(v: &JsonValue) -> Result<Self, Error> {
        match v {
            JsonValue::Array(items) => {
                let mut map = BTreeMap::new();
                for item in items {
                    let (k, val) = <(K, V)>::from_json_value(item)?;
                    map.insert(k, val);
                }
                Ok(map)
            }
            _ => Err(Error::expected("array of pairs", "BTreeMap")),
        }
    }
}

impl Serialize for std::time::Duration {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        out.begin_object(2);
        out.key("secs");
        out.u64(self.as_secs());
        out.key("nanos");
        out.u64(u64::from(self.subsec_nanos()));
        out.end_object();
    }
}

impl Deserialize for std::time::Duration {
    fn from_json_value(v: &JsonValue) -> Result<Self, Error> {
        let secs = u64::from_json_value(
            v.get("secs")
                .ok_or_else(|| Error::missing_field("Duration", "secs"))?,
        )?;
        let nanos = u32::from_json_value(
            v.get("nanos")
                .ok_or_else(|| Error::missing_field("Duration", "nanos"))?,
        )?;
        Ok(std::time::Duration::new(secs, nanos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_values_survive_exactly() {
        let big: u64 = (37u64 + 1) << 40 | 123; // allocator-style packed value
        let v = big.to_json_value();
        assert_eq!(u64::from_json_value(&v).unwrap(), big);
    }

    #[test]
    fn string_escaping() {
        let mut out = String::new();
        JsonValue::Str("a\"b\\c\n".to_string()).render(&mut out);
        assert_eq!(out, r#""a\"b\\c\n""#);
    }

    #[test]
    fn object_get() {
        let v = JsonValue::Object(vec![("k".into(), JsonValue::U64(1))]);
        assert_eq!(v.get("k"), Some(&JsonValue::U64(1)));
        assert_eq!(v.get("missing"), None);
    }
}
