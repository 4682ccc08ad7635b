//! One literal expected [`JsonValue`] per shape the derive and the container
//! impls support. The literals were written against the tree-returning
//! `Serialize` of PR 21 and have not moved: whatever a type's `emit` sends to
//! a sink, the tree built from it is the tree the old derive built — and the
//! bytes streamed straight out are the bytes of that tree.

use serde::{Deserialize, JsonValue, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

fn obj(entries: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn arr(items: Vec<JsonValue>) -> JsonValue {
    JsonValue::Array(items)
}

fn s(text: &str) -> JsonValue {
    JsonValue::Str(text.to_string())
}

use JsonValue::{Null, F64, I64, U64};

#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
struct Named {
    id: u32,
    #[serde(skip)]
    scratch: Vec<u8>,
    label: String,
    delta: i64,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Newtype(u64);

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u8, String);

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Triple(u8, Newtype, bool);

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Unit,
    Newtype(Newtype),
    Tuple(u32, String, Unit),
    Struct { out: u32, inner: Pair },
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Nested {
    rows: Option<Vec<(u32, String)>>,
    none: Option<Vec<(u32, String)>>,
    shapes: Vec<Shape>,
    signed: Vec<i32>,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct Maps {
    hashed: HashMap<u32, Newtype>,
    ordered: BTreeMap<String, Vec<u8>>,
    took: Duration,
    ratio: f64,
    initial: char,
}

/// `expected` is what `value` serializes to, `value` is what it reads back
/// as, and streaming `value` writes the bytes of that tree.
fn holds<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(value: &T, expected: JsonValue) {
    assert_eq!(value.to_json_value(), expected, "tree of {value:?}");
    assert_eq!(&T::from_json_value(&expected).unwrap(), value);
    assert_eq!(
        mtc_store::to_bytes(value),
        mtc_store::to_bytes(&expected),
        "streamed bytes of {value:?}"
    );
    let back: T = mtc_store::from_bytes(&mtc_store::to_bytes(value)).unwrap();
    assert_eq!(&back, value);
}

#[test]
fn structs_serialize_to_their_documented_shapes() {
    let named = Named {
        id: 7,
        scratch: Vec::new(),
        label: "héllo".to_string(),
        delta: -3,
    };
    holds(
        &named,
        obj(vec![
            ("id", U64(7)),
            ("label", s("héllo")),
            ("delta", I64(-3)),
        ]),
    );
    // A skipped field is neither written nor expected.
    let dirty = Named {
        scratch: vec![1, 2, 3],
        ..named.clone()
    };
    assert_eq!(dirty.to_json_value(), named.to_json_value());
    assert_eq!(mtc_store::to_bytes(&dirty), mtc_store::to_bytes(&named));

    holds(&Newtype(u64::MAX), U64(u64::MAX));
    holds(&Pair(9, "p".to_string()), arr(vec![U64(9), s("p")]));
    holds(
        &Triple(1, Newtype(2), true),
        arr(vec![U64(1), U64(2), JsonValue::Bool(true)]),
    );
    holds(&Unit, Null);
}

#[test]
fn enum_variants_are_externally_tagged() {
    holds(&Shape::Unit, s("Unit"));
    holds(&Shape::Newtype(Newtype(5)), obj(vec![("Newtype", U64(5))]));
    holds(
        &Shape::Tuple(4, "t".to_string(), Unit),
        obj(vec![("Tuple", arr(vec![U64(4), s("t"), Null]))]),
    );
    holds(
        &Shape::Struct {
            out: 8,
            inner: Pair(1, String::new()),
        },
        obj(vec![(
            "Struct",
            obj(vec![("out", U64(8)), ("inner", arr(vec![U64(1), s("")]))]),
        )]),
    );
}

#[test]
fn containers_nest() {
    let nested = Nested {
        rows: Some(vec![(1, "a".to_string()), (2, "b".to_string())]),
        none: None,
        shapes: vec![Shape::Unit, Shape::Newtype(Newtype(0))],
        signed: vec![-1, 0, i32::MAX],
    };
    holds(
        &nested,
        obj(vec![
            (
                "rows",
                arr(vec![arr(vec![U64(1), s("a")]), arr(vec![U64(2), s("b")])]),
            ),
            ("none", Null),
            (
                "shapes",
                arr(vec![s("Unit"), obj(vec![("Newtype", U64(0))])]),
            ),
            ("signed", arr(vec![I64(-1), U64(0), U64(i32::MAX as u64)])),
        ]),
    );
    let empty = Nested {
        rows: Some(Vec::new()),
        none: None,
        shapes: Vec::new(),
        signed: Vec::new(),
    };
    holds(
        &empty,
        obj(vec![
            ("rows", arr(vec![])),
            ("none", Null),
            ("shapes", arr(vec![])),
            ("signed", arr(vec![])),
        ]),
    );
    // Arrays, slices and borrows only serialize.
    let fixed = [-1i8, 0, 1];
    let expected = arr(vec![I64(-1), U64(0), U64(1)]);
    assert_eq!(fixed.to_json_value(), expected);
    assert_eq!(fixed[..].to_json_value(), expected);
    assert_eq!(<&[i8; 3]>::to_json_value(&&fixed), expected);
    assert_eq!(mtc_store::to_bytes(&fixed), mtc_store::to_bytes(&expected));
    assert_eq!("str".to_json_value(), s("str"));
}

#[test]
fn maps_are_arrays_of_pairs_in_iteration_order() {
    let maps = Maps {
        // One entry: a `HashMap`'s iteration order is its own business.
        hashed: HashMap::from([(3, Newtype(30))]),
        ordered: BTreeMap::from([("b".to_string(), vec![2]), ("a".to_string(), vec![])]),
        took: Duration::new(2, 500),
        ratio: -0.25,
        initial: 'é',
    };
    holds(
        &maps,
        obj(vec![
            ("hashed", arr(vec![arr(vec![U64(3), U64(30)])])),
            (
                "ordered",
                arr(vec![
                    arr(vec![s("a"), arr(vec![])]),
                    arr(vec![s("b"), arr(vec![U64(2)])]),
                ]),
            ),
            ("took", obj(vec![("secs", U64(2)), ("nanos", U64(500))])),
            ("ratio", F64(-0.25)),
            ("initial", s("é")),
        ]),
    );
    // Several entries: whatever order the map iterates in is the order
    // written, streamed or not.
    let many: HashMap<u32, String> = (0..40).map(|i| (i, format!("v{i}"))).collect();
    let expected = arr(many
        .iter()
        .map(|(k, v)| arr(vec![U64(u64::from(*k)), s(v)]))
        .collect());
    holds(&many, expected);
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
enum Skipping {
    Plain,
    Held {
        kept: u32,
        #[serde(skip)]
        scratch: Vec<u32>,
        also: bool,
    },
}

/// `#[serde(skip)]` means in a struct *variant* what it means in a struct:
/// not written, defaulted on the way back.
#[test]
fn skip_holds_both_directions_inside_a_struct_variant() {
    let held = Skipping::Held {
        kept: 1,
        scratch: vec![9, 9],
        also: true,
    };
    let expected = obj(vec![(
        "Held",
        obj(vec![("kept", U64(1)), ("also", JsonValue::Bool(true))]),
    )]);
    assert_eq!(held.to_json_value(), expected);
    assert_eq!(mtc_store::to_bytes(&held), mtc_store::to_bytes(&expected));
    let clean = Skipping::Held {
        kept: 1,
        scratch: Vec::new(),
        also: true,
    };
    assert_eq!(Skipping::from_json_value(&expected).unwrap(), clean);
    assert_eq!(
        mtc_store::from_bytes::<Skipping>(&mtc_store::to_bytes(&held)).unwrap(),
        clean
    );
    holds(&Skipping::Plain, s("Plain"));
}
