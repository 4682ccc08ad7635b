//! Two literal expected [`JsonValue`]s per shape the derive and the
//! container impls support. The named one was written against the
//! tree-returning `Serialize` of an early build and has not moved: whatever a type's
//! `emit` sends to a sink, the tree built from it is the tree the old derive
//! built. One rule moved since: a `HashMap` is written in key order, not in
//! its iteration order. The positional one is what the bytes streamed
//! straight out hold — the same tree with every struct an array of its
//! fields and every variant its index — and the bytes of the named tree,
//! which older builds wrote, read back to the same value.

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

/// `named` is what `value` serializes to as a tree, `positional` the tree
/// of the bytes streaming `value` writes, and `value` is what each of them
/// reads back as — from the tree and from its bytes.
fn holds<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(
    value: &T,
    named: JsonValue,
    positional: JsonValue,
) {
    assert_eq!(value.to_json_value(), named, "tree of {value:?}");
    assert_eq!(
        mtc_store::to_bytes(value),
        mtc_store::to_bytes(&positional),
        "streamed bytes of {value:?}"
    );
    for tree in [&named, &positional] {
        assert_eq!(&T::from_json_value(tree).unwrap(), value, "{tree:?}");
        let back: T = mtc_store::from_bytes(&mtc_store::to_bytes(tree)).unwrap();
        assert_eq!(&back, value, "bytes of {tree:?}");
    }
}

/// [`holds`] of a value whose two spellings are the same tree.
fn holds_alike<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(
    value: &T,
    tree: JsonValue,
) {
    holds(value, tree.clone(), tree);
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
        arr(vec![U64(7), s("héllo"), I64(-3)]),
    );
    // A skipped field is neither written nor expected.
    let dirty = Named {
        scratch: vec![1, 2, 3],
        ..named.clone()
    };
    assert_eq!(dirty.to_json_value(), named.to_json_value());
    assert_eq!(mtc_store::to_bytes(&dirty), mtc_store::to_bytes(&named));

    holds_alike(&Newtype(u64::MAX), U64(u64::MAX));
    holds_alike(&Pair(9, "p".to_string()), arr(vec![U64(9), s("p")]));
    holds_alike(
        &Triple(1, Newtype(2), true),
        arr(vec![U64(1), U64(2), JsonValue::Bool(true)]),
    );
    holds_alike(&Unit, Null);
}

#[test]
fn enum_variants_are_externally_tagged() {
    holds(&Shape::Unit, s("Unit"), U64(0));
    holds(
        &Shape::Newtype(Newtype(5)),
        obj(vec![("Newtype", U64(5))]),
        arr(vec![U64(1), U64(5)]),
    );
    holds(
        &Shape::Tuple(4, "t".to_string(), Unit),
        obj(vec![("Tuple", arr(vec![U64(4), s("t"), Null]))]),
        arr(vec![U64(2), arr(vec![U64(4), s("t"), Null])]),
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
        arr(vec![U64(3), arr(vec![U64(8), arr(vec![U64(1), s("")])])]),
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
        arr(vec![
            arr(vec![arr(vec![U64(1), s("a")]), arr(vec![U64(2), s("b")])]),
            Null,
            arr(vec![U64(0), arr(vec![U64(1), U64(0)])]),
            arr(vec![I64(-1), U64(0), U64(i32::MAX as u64)]),
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
        arr(vec![arr(vec![]), Null, arr(vec![]), arr(vec![])]),
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
fn maps_are_arrays_of_pairs_in_key_order() {
    let maps = Maps {
        hashed: HashMap::from([(3, Newtype(30)), (1, Newtype(10))]),
        ordered: BTreeMap::from([("b".to_string(), vec![2]), ("a".to_string(), vec![])]),
        took: Duration::new(2, 500),
        ratio: -0.25,
        initial: 'é',
    };
    holds(
        &maps,
        obj(vec![
            (
                "hashed",
                arr(vec![arr(vec![U64(1), U64(10)]), arr(vec![U64(3), U64(30)])]),
            ),
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
        arr(vec![
            arr(vec![arr(vec![U64(1), U64(10)]), arr(vec![U64(3), U64(30)])]),
            arr(vec![
                arr(vec![s("a"), arr(vec![])]),
                arr(vec![s("b"), arr(vec![U64(2)])]),
            ]),
            arr(vec![U64(2), U64(500)]),
            F64(-0.25),
            s("é"),
        ]),
    );
    // Several entries: one byte string, whatever order they went in, however
    // large the table, and the one a `BTreeMap` of them writes.
    let entry = |i: u32| (i, format!("v{i}"));
    let upward: HashMap<u32, String> = (0..40).map(entry).collect();
    let mut downward: HashMap<u32, String> = HashMap::with_capacity(1_000);
    downward.extend((0..40).rev().map(entry));
    let ordered: BTreeMap<u32, String> = (0..40).map(entry).collect();
    let expected = arr((0..40u64)
        .map(|i| arr(vec![U64(i), s(&format!("v{i}"))]))
        .collect());
    holds_alike(&upward, expected.clone());
    holds_alike(&downward, expected.clone());
    holds_alike(&ordered, expected);
    let bytes = mtc_store::to_bytes(&upward);
    assert_eq!(mtc_store::to_bytes(&downward), bytes);
    assert_eq!(mtc_store::to_bytes(&ordered), bytes);
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
    let positional = arr(vec![U64(1), arr(vec![U64(1), JsonValue::Bool(true)])]);
    assert_eq!(held.to_json_value(), expected);
    assert_eq!(mtc_store::to_bytes(&held), mtc_store::to_bytes(&positional));
    let clean = Skipping::Held {
        kept: 1,
        scratch: Vec::new(),
        also: true,
    };
    holds(&clean, expected, positional);
    assert_eq!(
        mtc_store::from_bytes::<Skipping>(&mtc_store::to_bytes(&held)).unwrap(),
        clean
    );
    holds(&Skipping::Plain, s("Plain"), U64(0));
}

// ── the read direction ──────────────────────────────────────────────────────
//
// One literal tree per reading rule that is easy to get wrong. Each is read
// twice — from the tree, and from the bytes of the tree — and the two must
// agree; the cases were written against the PR 22 build, where both paths
// went through `from_json_value` over an owned tree, and pass there too.

/// What `tree` reads as: the same from the tree and from its bytes, value
/// or refusal (the message is the tree path's).
fn reads<T: Deserialize + PartialEq + std::fmt::Debug>(tree: JsonValue) -> Result<T, String> {
    let from_tree = T::from_json_value(&tree).map_err(|e| e.to_string());
    let from_bytes = mtc_store::from_bytes::<T>(&mtc_store::to_bytes(&tree));
    match (&from_tree, &from_bytes) {
        (Ok(a), Ok(b)) => assert_eq!(a, b, "tree against bytes of {tree:?}"),
        (Err(_), Err(mtc_store::StoreError::Serde(_))) => {}
        _ => panic!("{from_tree:?} from the tree, {from_bytes:?} from the bytes of {tree:?}"),
    }
    from_tree
}

#[test]
fn a_struct_reads_its_keys_in_any_order_skips_strangers_and_keeps_the_first_duplicate() {
    let named = Named {
        id: 7,
        scratch: Vec::new(),
        label: "l".to_string(),
        delta: -3,
    };
    let reordered = obj(vec![("delta", I64(-3)), ("label", s("l")), ("id", U64(7))]);
    assert_eq!(reads::<Named>(reordered), Ok(named.clone()));
    // An unknown key is skipped whatever it holds — and a skipped field's
    // name is an unknown key like any other.
    let strangers = obj(vec![
        ("id", U64(7)),
        (
            "extra",
            obj(vec![("deep", arr(vec![Null, obj(vec![("er", F64(0.5))])]))]),
        ),
        ("label", s("l")),
        ("scratch", arr(vec![U64(1), U64(2)])),
        ("delta", I64(-3)),
    ]);
    assert_eq!(reads::<Named>(strangers), Ok(named.clone()));
    // The first of duplicate keys wins, as `JsonValue::get` finds it; the
    // later one is not even held to the field's type.
    let duplicated = obj(vec![
        ("id", U64(7)),
        ("label", s("l")),
        ("id", s("not a number")),
        ("delta", I64(-3)),
        ("delta", I64(9)),
    ]);
    assert_eq!(reads::<Named>(duplicated), Ok(named));
    let missing = obj(vec![("id", U64(7)), ("delta", I64(-3))]);
    assert!(reads::<Named>(missing).unwrap_err().contains("`label`"));
    // Struct variants read by the same rules.
    let held = obj(vec![(
        "Held",
        obj(vec![
            ("also", JsonValue::Bool(true)),
            ("new", Null),
            ("kept", U64(1)),
        ]),
    )]);
    assert_eq!(
        reads::<Skipping>(held),
        Ok(Skipping::Held {
            kept: 1,
            scratch: Vec::new(),
            also: true
        })
    );
}

#[test]
fn an_absent_option_field_is_missing_and_a_null_one_is_none() {
    let without = obj(vec![
        ("rows", arr(vec![])),
        ("shapes", arr(vec![])),
        ("signed", arr(vec![])),
    ]);
    assert!(reads::<Nested>(without).unwrap_err().contains("`none`"));
    assert_eq!(reads::<Option<u8>>(Null), Ok(None));
    assert_eq!(reads::<Option<u8>>(U64(3)), Ok(Some(3)));
    assert_eq!(reads::<Option<Unit>>(Null), Ok(None));
    assert_eq!(reads::<Option<Option<u8>>>(Null), Ok(None));
    assert_eq!(
        reads::<Vec<Option<String>>>(arr(vec![Null, s("x"), Null])),
        Ok(vec![None, Some("x".to_string()), None])
    );
    assert!(reads::<Option<u8>>(s("3")).is_err());
}

#[test]
fn tuples_take_their_first_elements_and_refuse_fewer() {
    let three = arr(vec![U64(9), s("p"), obj(vec![("more", arr(vec![Null]))])]);
    assert_eq!(
        reads::<(u8, String)>(three.clone()),
        Ok((9, "p".to_string()))
    );
    assert_eq!(reads::<Pair>(three.clone()), Ok(Pair(9, "p".to_string())));
    assert_eq!(
        reads::<Shape>(obj(vec![(
            "Tuple",
            arr(vec![U64(4), s("t"), Null, U64(1), U64(2)])
        )])),
        Ok(Shape::Tuple(4, "t".to_string(), Unit))
    );
    // What follows a tuple that ran long is still where it should be.
    assert_eq!(
        reads::<Vec<(u8, String)>>(arr(vec![three.clone(), arr(vec![U64(1), s("q")])])),
        Ok(vec![(9, "p".to_string()), (1, "q".to_string())])
    );
    assert!(reads::<(u8, String)>(arr(vec![U64(9)])).is_err());
    assert!(reads::<Pair>(arr(vec![U64(9)])).is_err());
    assert!(reads::<Triple>(arr(vec![U64(1), U64(2)])).is_err());
    assert!(reads::<(u8, String)>(obj(vec![("0", U64(9)), ("1", s("p"))])).is_err());
    assert!(reads::<Shape>(obj(vec![("Tuple", arr(vec![U64(4), s("t")]))])).is_err());
    // A newtype is its content; a unit struct reads back from anything.
    assert_eq!(reads::<Newtype>(U64(5)), Ok(Newtype(5)));
    assert_eq!(reads::<Unit>(three), Ok(Unit));
    assert_eq!(reads::<Unit>(U64(0)), Ok(Unit));
}

#[test]
fn enums_read_a_bare_tag_or_a_single_key_object() {
    assert_eq!(reads::<Shape>(s("Unit")), Ok(Shape::Unit));
    // A unit variant tolerates the tagged form, whatever it holds.
    assert_eq!(reads::<Shape>(obj(vec![("Unit", Null)])), Ok(Shape::Unit));
    assert_eq!(
        reads::<Shape>(obj(vec![("Unit", arr(vec![U64(1), obj(vec![])]))])),
        Ok(Shape::Unit)
    );
    assert!(reads::<Shape>(s("Newtype"))
        .unwrap_err()
        .contains("unknown variant"));
    assert!(reads::<Shape>(s("Nope")).unwrap_err().contains("`Nope`"));
    assert!(reads::<Shape>(obj(vec![("Nope", Null)]))
        .unwrap_err()
        .contains("`Nope`"));
    assert!(reads::<Shape>(obj(vec![])).is_err());
    assert!(reads::<Shape>(obj(vec![("Unit", Null), ("Unit", Null)])).is_err());
    assert!(reads::<Shape>(arr(vec![s("Unit")])).is_err());
}

#[test]
fn structs_read_their_fields_in_declaration_order_and_exactly_that_many() {
    let named = Named {
        id: 7,
        scratch: Vec::new(),
        label: "l".to_string(),
        delta: -3,
    };
    assert_eq!(
        reads::<Named>(arr(vec![U64(7), s("l"), I64(-3)])),
        Ok(named)
    );
    // The skipped field takes no place; one field too few or too many is a
    // refusal, and so is a field of the wrong type where it stands.
    for misfit in [
        arr(vec![U64(7), s("l")]),
        arr(vec![U64(7), s("l"), I64(-3), Null]),
        arr(vec![U64(7), arr(vec![]), s("l"), I64(-3)]),
        arr(vec![s("l"), U64(7), I64(-3)]),
        arr(vec![]),
    ] {
        assert!(reads::<Named>(misfit.clone()).is_err(), "{misfit:?}");
    }
    assert!(reads::<Named>(arr(vec![U64(7)]))
        .unwrap_err()
        .contains("array of 3 fields"));
    assert!(reads::<Named>(U64(7)).is_err());
    // A struct variant's payload too.
    assert_eq!(
        reads::<Skipping>(arr(vec![U64(1), arr(vec![U64(1), JsonValue::Bool(false)])])),
        Ok(Skipping::Held {
            kept: 1,
            scratch: Vec::new(),
            also: false
        })
    );
    assert!(reads::<Skipping>(arr(vec![U64(1), arr(vec![U64(1)])])).is_err());
}

#[test]
fn enums_read_a_variant_index_or_an_index_and_payload_pair() {
    assert_eq!(reads::<Shape>(U64(0)), Ok(Shape::Unit));
    // A unit variant tolerates the payload form, whatever it holds.
    assert_eq!(
        reads::<Shape>(arr(vec![U64(0), obj(vec![("x", Null)])])),
        Ok(Shape::Unit)
    );
    assert_eq!(
        reads::<Shape>(arr(vec![U64(1), U64(9)])),
        Ok(Shape::Newtype(Newtype(9)))
    );
    // A payload variant is no bare index; an index past the enum is unknown,
    // bare or paired; the index is a number and the pair a pair.
    assert!(reads::<Shape>(U64(1))
        .unwrap_err()
        .contains("unknown variant `1`"));
    assert!(reads::<Shape>(U64(4))
        .unwrap_err()
        .contains("unknown variant `4`"));
    assert!(reads::<Shape>(arr(vec![U64(4), Null]))
        .unwrap_err()
        .contains("unknown variant `4`"));
    assert!(reads::<Shape>(U64(u64::MAX)).is_err());
    assert!(reads::<Shape>(I64(-1)).is_err());
    assert!(reads::<Shape>(arr(vec![s("Unit"), Null])).is_err());
    assert!(reads::<Shape>(arr(vec![U64(1)])).is_err());
    assert!(reads::<Shape>(arr(vec![U64(1), U64(9), Null])).is_err());
    assert!(reads::<Shape>(arr(vec![U64(2), arr(vec![U64(4)])])).is_err());
}

/// Whatever the bytes of a positional value turn into — a field count, an
/// index or a head that is not what the type reads — the reader refuses it
/// as a value of the wrong shape, never as a panic.
#[test]
fn positional_misfits_in_bytes_are_serde_errors() {
    let value = Nested {
        rows: Some(vec![(1, "a".to_string())]),
        none: None,
        shapes: vec![
            Shape::Unit,
            Shape::Struct {
                out: 3,
                inner: Pair(4, "b".to_string()),
            },
        ],
        signed: vec![-1],
    };
    let good = mtc_store::to_bytes(&value);
    let tree = mtc_store::from_bytes::<JsonValue>(&good).unwrap();
    let JsonValue::Array(fields) = &tree else {
        panic!("a struct is an array")
    };
    let mut misfits = vec![
        // One field short, and one too many.
        arr(fields[..3].to_vec()),
        arr([fields.clone(), vec![Null]].concat()),
        // An array where the scalar of `none` belongs.
        arr([
            fields[..1].to_vec(),
            vec![arr(vec![U64(1)])],
            fields[2..].to_vec(),
        ]
        .concat()),
        // A variant index past the enum, bare and paired.
        arr([
            fields[..2].to_vec(),
            vec![arr(vec![U64(9)])],
            fields[3..].to_vec(),
        ]
        .concat()),
        arr([
            fields[..2].to_vec(),
            vec![arr(vec![arr(vec![U64(9), Null])])],
            fields[3..].to_vec(),
        ]
        .concat()),
    ];
    // An array where a number belongs, anywhere in `signed`.
    misfits.push(arr(
        [fields[..3].to_vec(), vec![arr(vec![arr(vec![])])]].concat()
    ));
    for misfit in misfits {
        match mtc_store::from_bytes::<Nested>(&mtc_store::to_bytes(&misfit)) {
            Err(mtc_store::StoreError::Serde(_)) => {}
            other => panic!("{misfit:?} read as {other:?}"),
        }
    }
    assert_eq!(mtc_store::from_bytes::<Nested>(&good).unwrap(), value);
}

#[test]
fn numbers_read_by_value_and_strings_by_scalar() {
    // An integer reads from either integer head, if it fits.
    assert_eq!(reads::<u8>(U64(255)), Ok(255));
    assert!(reads::<u8>(U64(256)).unwrap_err().contains("out of range"));
    assert!(reads::<u8>(I64(-1)).unwrap_err().contains("out of range"));
    assert_eq!(reads::<i8>(I64(-128)), Ok(-128));
    assert_eq!(reads::<i8>(U64(127)), Ok(127));
    assert!(reads::<i8>(U64(128)).is_err());
    assert_eq!(reads::<i64>(I64(i64::MIN)), Ok(i64::MIN));
    assert!(reads::<i64>(U64(u64::MAX)).is_err());
    assert_eq!(reads::<u64>(U64(u64::MAX)), Ok(u64::MAX));
    assert_eq!(reads::<usize>(U64(7)), Ok(7));
    assert!(reads::<u32>(F64(1.0)).is_err());
    assert!(reads::<u32>(s("1")).is_err());
    // A float reads from any number.
    assert_eq!(reads::<f64>(U64(3)), Ok(3.0));
    assert_eq!(reads::<f64>(I64(-3)), Ok(-3.0));
    assert_eq!(reads::<f32>(F64(0.5)), Ok(0.5));
    assert!(reads::<f64>(Null).is_err());
    assert_eq!(reads::<bool>(JsonValue::Bool(true)), Ok(true));
    assert!(reads::<bool>(U64(1)).is_err());
    // A char is one scalar value, however many bytes.
    assert_eq!(reads::<char>(s("é")), Ok('é'));
    assert!(reads::<char>(s("")).is_err());
    assert!(reads::<char>(s("ab")).is_err());
    assert!(reads::<String>(U64(1)).is_err());
    assert!(reads::<Vec<u8>>(obj(vec![])).is_err());
}

#[test]
fn maps_read_pairs_and_a_later_duplicate_overwrites() {
    let pairs = arr(vec![
        arr(vec![U64(1), s("a")]),
        arr(vec![U64(2), s("b")]),
        arr(vec![U64(1), s("c"), Null]),
    ]);
    let expected = [(1u32, "c".to_string()), (2, "b".to_string())];
    assert_eq!(
        reads::<HashMap<u32, String>>(pairs.clone()),
        Ok(HashMap::from(expected.clone()))
    );
    assert_eq!(
        reads::<BTreeMap<u32, String>>(pairs),
        Ok(BTreeMap::from(expected))
    );
    assert!(reads::<HashMap<u32, String>>(arr(vec![arr(vec![U64(1)])])).is_err());
    assert!(reads::<BTreeMap<u32, String>>(obj(vec![("1", s("a"))])).is_err());
    // A `Duration` is the struct `{secs, nanos}`.
    let took = obj(vec![("nanos", U64(500)), ("pad", Null), ("secs", U64(2))]);
    assert_eq!(reads::<Duration>(took), Ok(Duration::new(2, 500)));
    assert!(reads::<Duration>(obj(vec![("secs", U64(2))]))
        .unwrap_err()
        .contains("`nanos`"));
}
