//! Offline stand-in for the `serde` crate.
//!
//! The real `serde` cannot be fetched in this build environment, so this
//! crate provides the small surface the workspace actually uses: a
//! [`Serialize`]/[`Deserialize`] trait pair, derive macros for both traits
//! (re-exported from the sibling `serde_derive` proc-macro crate), and
//! implementations for the primitive types, `String`, `Option`, `Vec`,
//! tuples, maps and `std::time::Duration`.
//!
//! The two halves are symmetric, and neither builds a value tree.
//! **Writing**, [`Serialize::emit`] describes the value to a sink as a
//! sequence of events; **reading**, [`Deserialize::pull`] takes it from a
//! source head by head. The sink and the source are the binary writer and
//! reader of `mtc_store::binval` — or, for the callers that do want an owned
//! [`JsonValue`] (JSON text, event logs, tests), the tree builder behind
//! [`Serialize::to_json_value`] and the tree cursor behind
//! [`Deserialize::from_json_value`]. One description of each type's shape in
//! each direction, any number of formats.
//!
//! ## The sink contract
//!
//! A [`Serialize`] impl owes its [`Emitter`] exactly this, and a sink may
//! rely on all of it without checking:
//!
//! * **One value per `emit`.** A call sends one scalar event, or one
//!   `begin_*` … `end_*` bracket with everything inside it — never nothing,
//!   never two values. A unit variant is a scalar event.
//! * **Lengths are exact and trusted.** `begin_array(len)` is followed by
//!   exactly `len` values, `begin_object(len)` by exactly `len`
//!   key-then-value pairs, `begin_struct(len)` by exactly `len`
//!   field-then-value pairs and `begin_variant` by exactly one value. The
//!   binary form writes the length as a prefix and cannot go back, so an
//!   impl that does not know its length up front counts first. (The tree
//!   builder checks the count in debug builds.)
//! * **Names before values.** Inside an object every value is preceded by
//!   one `key` call, inside a struct by one `field` call; neither is called
//!   anywhere else.
//!
//! A struct and an enum variant are events of their own, so each sink picks
//! its spelling. The provided defaults spell them as named: a struct as an
//! object of its fields, a unit variant as its name, any other variant as
//! a single-key object — which is what [`Serialize::to_json_value`], and so
//! JSON text, gets. `mtc_store::binval` spells them by position: a struct as
//! an array of its fields in declaration order, a variant by its index in
//! declaration order.
//!
//! ## The source contract
//!
//! The same, turned around: what a [`Deserialize`] impl owes its [`Source`],
//! and what it gets.
//!
//! * **One value per `pull`.** A call consumes exactly one value: one
//!   [`Source::next`] and, if that was a container's head, everything the
//!   container holds — on success; after an error the source is nobody's.
//! * **A container is read out.** After [`Head::Array`]`(len)` the caller
//!   reads exactly `len` values, after [`Head::Object`]`(len)` exactly `len`
//!   times one [`Source::key`] and then one value. There is no end event,
//!   and a byte source keeps no count either: it trusts the caller to read
//!   what it opened. What the caller has no use for it [`Source::skip`]s,
//!   which holds the skipped value to every check a read would have made.
//! * **Nesting is bounded where the input chooses it.** A derived type nests
//!   as deep as the type does; a reader whose recursion follows the input —
//!   [`Source::skip`], [`JsonValue`]'s `pull` — steps into each value of a
//!   container through [`Source::enter`] and back out through
//!   [`Source::leave`], and a byte source refuses to go deeper than it
//!   follows.
//! * **A length is refused before it is trusted.** A byte source checks a
//!   length prefix against the input it has left — every value is a byte at
//!   least — before it yields the head, and the containers here reserve for
//!   a length only what that remaining input could weigh
//!   ([`Source::bytes_left`]): corrupt or hostile input cannot make a reader
//!   allocate by claiming.
//! * **Strings and keys are on loan**, until the next call on the source.
//!
//! How the derived impls (and the ones written by hand) read the shapes the
//! derive writes — each in both spellings, told apart by the head:
//!
//! * a **struct** from an array of exactly its fields, in declaration order;
//!   or from an object, in one pass over its keys: fields in any order; an
//!   unknown key is skipped; of duplicate keys the first wins (as
//!   [`JsonValue::get`] finds it); a field that never came is an error, an
//!   `Option` field too. A `#[serde(skip)]` field is `Default` either way;
//! * a **newtype** as its content; a wider **tuple** (struct or not) from
//!   the first elements of an array, which may run longer but not shorter; a
//!   **unit struct** from any one value;
//! * an **enum** by index — an unsigned integer for a unit variant, an
//!   `[index, payload]` pair otherwise — or externally tagged: a bare string
//!   for a unit variant, a single-key object otherwise. A unit variant
//!   tolerates the payload form too, whatever it holds;
//! * integers from either integer head if they fit, floats from any number,
//!   `Option` with `null` for `None`, a map from an array of pairs (a later
//!   duplicate overwrites).
//!
//! Unsigned 64-bit integers are preserved exactly (not routed through `f64`),
//! which matters because unique write values pack session ids into the high
//! bits and must round-trip bit-identically.

pub use serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::mem::size_of;

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

    /// Opens a struct of exactly `len` fields; by default, an object.
    fn begin_struct(&mut self, len: usize) {
        self.begin_object(len);
    }
    /// The name of the next field of the innermost struct; by default, its
    /// key.
    fn field(&mut self, name: &'static str) {
        self.key(name);
    }
    /// Closes the innermost struct.
    fn end_struct(&mut self) {
        self.end_object();
    }
    /// A variant without payload, the `index`th of its enum; by default, its
    /// name.
    fn unit_variant(&mut self, index: u32, name: &'static str) {
        let _ = index;
        self.str(name);
    }
    /// Opens the `index`th variant of an enum, whose payload — exactly one
    /// value — follows; by default, a single-key object.
    fn begin_variant(&mut self, index: u32, name: &'static str) {
        let _ = index;
        self.begin_object(1);
        self.key(name);
    }
    /// Closes the innermost variant.
    fn end_variant(&mut self) {
        self.end_object();
    }
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

/// The head of one value, as [`Source::next`] yields it: a scalar whole, a
/// container as the number of values (or key-value pairs) that follow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Head<'a> {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer.
    U64(u64),
    /// A negative integer.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string, borrowed from the source until its next call.
    Str(&'a str),
    /// An array: exactly this many values follow.
    Array(usize),
    /// An object: exactly this many ([`Source::key`], value) pairs follow.
    Object(usize),
}

/// What a value is pulled from, one head at a time (see the
/// [module docs](self) for what a caller owes a source).
pub trait Source {
    /// The head of the next value.
    fn next(&mut self) -> Result<Head<'_>, Error>;

    /// The key of the next value of the innermost object.
    fn key(&mut self) -> Result<&str, Error>;

    /// If the next value is `null`, consumes it and says so; otherwise
    /// consumes nothing. (`Option` is the one caller: it has to look at a
    /// value before it knows who reads it.)
    fn null(&mut self) -> Result<bool, Error>;

    /// How many bytes of input are left, for a source that reads bytes: what
    /// a length is weighed against before anything is reserved for it. A
    /// source whose lengths are facts says `usize::MAX`.
    fn bytes_left(&self) -> usize;

    /// If the next value is an unsigned integer, consumes it and returns it;
    /// otherwise consumes nothing. A source that can tell by a look at its
    /// input saves the unsigned integers — most of what the workspace reads —
    /// the round trip through [`Head`]; the default never can, and the caller
    /// falls back to [`Source::next`].
    fn next_u64(&mut self) -> Result<Option<u64>, Error> {
        Ok(None)
    }

    /// Steps one level into the value of a container about to be read, for
    /// a reader whose recursion follows the input ([`Source::skip`],
    /// [`JsonValue`]'s `pull`): a byte source refuses input nested deeper
    /// than it will follow here, before the stack does. Every `enter` that
    /// returned `Ok` is matched by one [`Source::leave`] once the value is
    /// read. A derived type's nesting is fixed by the type and needs neither.
    fn enter(&mut self) -> Result<(), Error> {
        Ok(())
    }

    /// Steps back out of the value [`Source::enter`] stepped into.
    fn leave(&mut self) {}

    /// Consumes one whole value, holding it to every check a read of it
    /// would have made.
    fn skip(&mut self) -> Result<(), Error> {
        match self.next()? {
            Head::Array(len) => {
                for _ in 0..len {
                    self.enter()?;
                    self.skip()?;
                    self.leave();
                }
            }
            Head::Object(len) => {
                for _ in 0..len {
                    self.key()?;
                    self.enter()?;
                    self.skip()?;
                    self.leave();
                }
            }
            _ => {}
        }
        Ok(())
    }
}

/// Types that can pull themselves out of a [`Source`].
pub trait Deserialize: Sized {
    /// Reads exactly one value from `src` as `Self`.
    ///
    /// Generic over the source as [`Serialize::emit`] is over the sink, and
    /// `S: ?Sized` keeps `&mut dyn Source` a legal argument all the same.
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error>;

    /// Reconstructs `Self` from a JSON value tree: [`Deserialize::pull`]
    /// from a cursor over it.
    fn from_json_value(v: &JsonValue) -> Result<Self, Error> {
        Self::pull(&mut TreeCursor {
            next: Some(v),
            open: Vec::new(),
        })
    }
}

/// The source behind [`Deserialize::from_json_value`]: a walk over a
/// borrowed tree.
struct TreeCursor<'a> {
    /// The value the next call reads, when it is already known: the root,
    /// the value under the key just handed out, or one `null` looked at and
    /// left.
    next: Option<&'a JsonValue>,
    /// The containers being read, innermost last; one that has run out is
    /// dropped by the call that finds it so.
    open: Vec<Walk<'a>>,
}

enum Walk<'a> {
    Array(std::slice::Iter<'a, JsonValue>),
    Object(std::slice::Iter<'a, (String, JsonValue)>),
}

impl<'a> TreeCursor<'a> {
    fn value(&mut self) -> Result<&'a JsonValue, Error> {
        if let Some(v) = self.next.take() {
            return Ok(v);
        }
        loop {
            match self.open.last_mut() {
                Some(Walk::Array(items)) => match items.next() {
                    Some(v) => return Ok(v),
                    None => self.open.pop(),
                },
                Some(Walk::Object(entries)) if entries.len() == 0 => self.open.pop(),
                Some(Walk::Object(_)) => return Err(Error::msg("a value was read before its key")),
                None => return Err(Error::msg("a value was read past the end of the tree")),
            };
        }
    }
}

impl Source for TreeCursor<'_> {
    fn next(&mut self) -> Result<Head<'_>, Error> {
        Ok(match self.value()? {
            JsonValue::Null => Head::Null,
            JsonValue::Bool(b) => Head::Bool(*b),
            JsonValue::U64(n) => Head::U64(*n),
            JsonValue::I64(n) => Head::I64(*n),
            JsonValue::F64(x) => Head::F64(*x),
            JsonValue::Str(s) => Head::Str(s),
            JsonValue::Array(items) => {
                self.open.push(Walk::Array(items.iter()));
                Head::Array(items.len())
            }
            JsonValue::Object(entries) => {
                self.open.push(Walk::Object(entries.iter()));
                Head::Object(entries.len())
            }
        })
    }

    fn key(&mut self) -> Result<&str, Error> {
        loop {
            match self.open.last_mut() {
                Some(Walk::Object(entries)) => {
                    if let Some((k, v)) = entries.next() {
                        self.next = Some(v);
                        return Ok(k);
                    }
                    // Run out: a nested object that is finished.
                }
                Some(Walk::Array(items)) if items.len() == 0 => {}
                _ => return Err(Error::msg("a key was read outside an object")),
            }
            self.open.pop();
        }
    }

    fn null(&mut self) -> Result<bool, Error> {
        let v = self.value()?;
        let null = matches!(v, JsonValue::Null);
        if !null {
            self.next = Some(v);
        }
        Ok(null)
    }

    /// The containers of a tree are as long as they say.
    fn bytes_left(&self) -> usize {
        usize::MAX
    }

    /// The tree is there because it parsed: nothing left to check.
    fn skip(&mut self) -> Result<(), Error> {
        self.value().map(|_| ())
    }
}

/// How many elements of `each` bytes a container reserves for when `src`
/// says `len` follow. A length off the wire is a claim: the source has
/// already refused one that its remaining input could not hold at a byte a
/// value, and this keeps what is set aside on the strength of it within four
/// times that input, whatever an element weighs in memory — enough for every
/// length that is true, bar a few at the very end of an input, and past it
/// the container grows as the elements actually arrive.
fn cautious<S: Source + ?Sized>(len: usize, each: usize, src: &S) -> usize {
    len.min(src.bytes_left().saturating_mul(4) / each.max(1))
}

/// A tree pulls itself like anything else — which is how a caller that wants
/// one gets it from any source.
impl Deserialize for JsonValue {
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
        Ok(match src.next()? {
            Head::Null => JsonValue::Null,
            Head::Bool(b) => JsonValue::Bool(b),
            Head::U64(n) => JsonValue::U64(n),
            Head::I64(n) => JsonValue::I64(n),
            Head::F64(x) => JsonValue::F64(x),
            Head::Str(s) => JsonValue::Str(s.to_string()),
            Head::Array(len) => {
                let mut items = Vec::with_capacity(cautious(len, size_of::<JsonValue>(), src));
                for _ in 0..len {
                    items.push(JsonValue::pull_within(src)?);
                }
                JsonValue::Array(items)
            }
            Head::Object(len) => {
                let mut entries =
                    Vec::with_capacity(cautious(len, size_of::<(String, JsonValue)>(), src));
                for _ in 0..len {
                    let key = src.key()?.to_string();
                    entries.push((key, JsonValue::pull_within(src)?));
                }
                JsonValue::Object(entries)
            }
        })
    }
}

impl JsonValue {
    /// One value of a container: a tree's shape is the input's, so every
    /// level of it goes through [`Source::enter`].
    fn pull_within<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
        src.enter()?;
        let value = JsonValue::pull(src)?;
        src.leave();
        Ok(value)
    }
}

// ── primitive impls ─────────────────────────────────────────────────────────

/// An integer of type `ty` from either integer head, if it fits; `what`
/// says what was expected when the head is neither.
#[inline]
fn pull_integer<T, S>(src: &mut S, what: &str, ty: &str) -> Result<T, Error>
where
    T: TryFrom<u64> + TryFrom<i64>,
    S: Source + ?Sized,
{
    let out_of_range = |n: &dyn fmt::Display| Error::msg(format!("{n} out of range for {ty}"));
    match src.next()? {
        Head::U64(n) => T::try_from(n).map_err(|_| out_of_range(&n)),
        Head::I64(n) => T::try_from(n).map_err(|_| out_of_range(&n)),
        _ => Err(Error::expected(what, ty)),
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
                out.u64(*self as u64);
            }
        }
        impl Deserialize for $t {
            #[inline]
            fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
                match src.next_u64()? {
                    Some(n) => <$t>::try_from(n)
                        .map_err(|_| Error::msg(format!("{n} out of range for {}", stringify!($t)))),
                    None => pull_integer(src, "unsigned integer", stringify!($t)),
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
            #[inline]
            fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
                pull_integer(src, "signed integer", stringify!($t))
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
            fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
                match src.next()? {
                    Head::F64(x) => Ok(x as $t),
                    Head::U64(n) => Ok(n as $t),
                    Head::I64(n) => Ok(n as $t),
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
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
        match src.next()? {
            Head::Bool(b) => Ok(b),
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
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
        match src.next()? {
            Head::Str(s) => Ok(s.to_string()),
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
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
        if let Head::Str(s) = src.next()? {
            let mut chars = s.chars();
            if let (Some(c), None) = (chars.next(), chars.next()) {
                return Ok(c);
            }
        }
        Err(Error::expected("single-character string", "char"))
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
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
        if src.null()? {
            return Ok(None);
        }
        T::pull(src).map(Some)
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        self.as_slice().emit(out);
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
        let Head::Array(len) = src.next()? else {
            return Err(Error::expected("array", "Vec"));
        };
        let mut items = Vec::with_capacity(cautious(len, size_of::<T>(), src));
        for _ in 0..len {
            items.push(T::pull(src)?);
        }
        Ok(items)
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
            fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
                let Head::Array(len) = src.next()? else {
                    return Err(Error::expected("array", "tuple"));
                };
                let arity = [$($n),+].len();
                if len < arity {
                    return Err(Error::expected("longer array", "tuple"));
                }
                let tuple = ($($t::pull(src)?,)+);
                for _ in arity..len {
                    src.skip()?;
                }
                Ok(tuple)
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

/// A map is an array of `[key, value]` pairs in key order: a `BTreeMap`
/// iterates in it, a `HashMap` is sorted into it, so the bytes of a map
/// depend on its entries alone, never on its capacity or insertion history.
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

impl<K: Serialize + Ord, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        let mut pairs: Vec<(&K, &V)> = self.iter().collect();
        // Keys are unique: an unstable sort is a total order here.
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        emit_pairs(pairs.len(), pairs.into_iter(), out);
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: Deserialize + std::hash::Hash + Eq,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn pull<Src: Source + ?Sized>(src: &mut Src) -> Result<Self, Error> {
        let Head::Array(len) = src.next()? else {
            return Err(Error::expected("array of pairs", "HashMap"));
        };
        // A table for `n` entries weighs about what `2 n` of them do.
        let reserved = cautious(len, 2 * size_of::<(K, V)>(), src);
        let mut map = HashMap::with_capacity_and_hasher(reserved, S::default());
        for _ in 0..len {
            let (k, val) = <(K, V)>::pull(src)?;
            map.insert(k, val);
        }
        Ok(map)
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        emit_pairs(self.len(), self.iter(), out);
    }
}

impl<K: Deserialize + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
        let Head::Array(len) = src.next()? else {
            return Err(Error::expected("array of pairs", "BTreeMap"));
        };
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let (k, val) = <(K, V)>::pull(src)?;
            map.insert(k, val);
        }
        Ok(map)
    }
}

impl Serialize for std::time::Duration {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        out.begin_struct(2);
        out.field("secs");
        out.u64(self.as_secs());
        out.field("nanos");
        out.u64(u64::from(self.subsec_nanos()));
        out.end_struct();
    }
}

impl Deserialize for std::time::Duration {
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
        // The shapes a derived `struct { secs: u64, nanos: u32 }` reads.
        let (secs, nanos) = match src.next()? {
            Head::Array(2) => (u64::pull(src)?, u32::pull(src)?),
            Head::Object(len) => {
                let (mut secs, mut nanos) = (None, None);
                for _ in 0..len {
                    match src.key()? {
                        "secs" if secs.is_none() => secs = Some(u64::pull(src)?),
                        "nanos" if nanos.is_none() => nanos = Some(u32::pull(src)?),
                        _ => src.skip()?,
                    }
                }
                (
                    secs.ok_or_else(|| Error::missing_field("Duration", "secs"))?,
                    nanos.ok_or_else(|| Error::missing_field("Duration", "nanos"))?,
                )
            }
            _ => return Err(Error::expected("array of 2 fields or object", "Duration")),
        };
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
