//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` macros for
//! the offline `serde` stand-in.
//!
//! Without `syn`/`quote` available, the input item is parsed directly from
//! the `proc_macro` token stream. The supported shapes are exactly the ones
//! this workspace uses:
//!
//! * structs with named fields (honouring `#[serde(skip)]` on a field, in a
//!   struct and in a struct variant alike: not written, defaulted on read),
//! * tuple structs (newtypes serialize transparently, wider tuples as
//!   arrays),
//! * unit structs,
//! * enums with unit, newtype, tuple and struct variants.
//!
//! A struct and a variant are written as events of their own
//! (`begin_struct` / `field`, `unit_variant` / `begin_variant`), which a
//! sink spells by name — serde's default, externally tagged representation —
//! or by position; and read back from either spelling.
//!
//! Generic type parameters are not supported; deriving on a generic item
//! produces a compile error naming this limitation.

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug, Clone)]
struct NamedField {
    name: String,
    skip: bool,
}

#[derive(Debug, Clone)]
enum Fields {
    Named(Vec<NamedField>),
    Tuple(usize),
    Unit,
}

#[derive(Debug, Clone)]
struct Variant {
    name: String,
    fields: Fields,
}

#[derive(Debug)]
enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item)
            .parse()
            .expect("generated Serialize impl must parse"),
        Err(e) => compile_error(&e),
    }
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item)
            .parse()
            .expect("generated Deserialize impl must parse"),
        Err(e) => compile_error(&e),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().unwrap()
}

// ── parsing ─────────────────────────────────────────────────────────────────

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0usize;

    skip_attrs_and_vis(&tokens, &mut i, &mut false);

    let kw = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    i += 1;

    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;

    if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde stand-in derive does not support generic type `{name}`"
        ));
    }

    match kw.as_str() {
        "struct" => {
            let fields = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Fields::Unit,
                other => return Err(format!("unsupported struct body: {other:?}")),
            };
            Ok(Item::Struct { name, fields })
        }
        "enum" => {
            let body = match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g.stream(),
                other => return Err(format!("expected enum body, found {other:?}")),
            };
            Ok(Item::Enum {
                name,
                variants: parse_variants(body)?,
            })
        }
        other => Err(format!("cannot derive for `{other}` items")),
    }
}

/// Advances `i` past any `#[...]` attributes and `pub` / `pub(...)`
/// visibility tokens. Sets `skip` if a `#[serde(skip)]` attribute was seen.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize, skip: &mut bool) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                if let Some(TokenTree::Group(g)) = tokens.get(*i + 1) {
                    if attr_is_serde_skip(g.stream()) {
                        *skip = true;
                    }
                }
                *i += 2;
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1;
                }
            }
            _ => return,
        }
    }
}

fn attr_is_serde_skip(stream: TokenStream) -> bool {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    match (tokens.first(), tokens.get(1)) {
        (Some(TokenTree::Ident(path)), Some(TokenTree::Group(args)))
            if path.to_string() == "serde" =>
        {
            args.stream()
                .into_iter()
                .any(|t| matches!(t, TokenTree::Ident(id) if id.to_string() == "skip"))
        }
        _ => false,
    }
}

/// Parses `name: Type, ...` field lists, tracking angle-bracket depth so that
/// commas inside `HashMap<K, V>`-style types do not end a field early.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<NamedField>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let mut skip = false;
        skip_attrs_and_vis(&tokens, &mut i, &mut skip);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("expected field name, found {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => {
                return Err(format!(
                    "expected `:` after field `{name}`, found {other:?}"
                ))
            }
        }
        let mut angle_depth = 0i32;
        while let Some(tok) = tokens.get(i) {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
            }
            i += 1;
        }
        fields.push(NamedField { name, skip });
    }
    Ok(fields)
}

/// Counts top-level comma-separated entries of a tuple-struct body, ignoring
/// per-field attributes/visibility and commas nested in generics.
fn count_tuple_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1usize;
    let mut angle_depth = 0i32;
    let mut trailing_comma = false;
    for tok in &tokens {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => {
                    count += 1;
                    trailing_comma = true;
                    continue;
                }
                _ => {}
            }
        }
        trailing_comma = false;
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        let mut skip = false;
        skip_attrs_and_vis(&tokens, &mut i, &mut skip);
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple_fields(g.stream()))
            }
            _ => Fields::Unit,
        };
        // consume the trailing comma, if any
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

// ── code generation ─────────────────────────────────────────────────────────

/// `emit` of the expression `value`, into the sink the generated method
/// names `__out` (no field can be called that).
fn emit_of(value: &str) -> String {
    format!("::serde::Serialize::emit({value}, __out);\n")
}

/// A struct of the non-skipped `fs`, in declaration order; `access` turns a
/// field name into the expression borrowing it. Field names are literals
/// handed to `field`, never allocated.
fn emit_named(fs: &[NamedField], access: impl Fn(&str) -> String) -> String {
    let kept: Vec<&NamedField> = fs.iter().filter(|f| !f.skip).collect();
    let mut body = format!("__out.begin_struct({});\n", kept.len());
    for f in kept {
        body.push_str(&format!("__out.field({:?});\n", f.name));
        body.push_str(&emit_of(&access(&f.name)));
    }
    body + "__out.end_struct();\n"
}

/// One value transparently, several as an array.
fn emit_tuple(n: usize, access: impl Fn(usize) -> String) -> String {
    if n == 1 {
        return emit_of(&access(0));
    }
    let items: String = (0..n).map(|i| emit_of(&access(i))).collect();
    format!("__out.begin_array({n});\n{items}__out.end_array();\n")
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fs) => emit_named(fs, |f| format!("&self.{f}")),
                Fields::Tuple(n) => emit_tuple(*n, |i| format!("&self.{i}")),
                Fields::Unit => "__out.null();\n".to_string(),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            // A variant is its index and its name; the sink picks which to
            // write.
            let mut arms = String::new();
            for (index, v) in variants.iter().enumerate() {
                let vn = &v.name;
                let tagged = |pattern: String, payload: String| {
                    format!(
                        "{name}::{vn}{pattern} => {{\n__out.begin_variant({index}, {vn:?});\n{payload}__out.end_variant();\n}}\n"
                    )
                };
                arms.push_str(&match &v.fields {
                    Fields::Unit => {
                        format!("{name}::{vn} => __out.unit_variant({index}, {vn:?}),\n")
                    }
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|i| format!("x{i}")).collect();
                        tagged(
                            format!("({})", binds.join(", ")),
                            emit_tuple(*n, |i| binds[i].clone()),
                        )
                    }
                    Fields::Named(fs) => {
                        // Skipped fields are not bound: `..` covers them.
                        let binds: String = (fs.iter().filter(|f| !f.skip))
                            .map(|f| format!("{}, ", f.name))
                            .collect();
                        tagged(
                            format!(" {{ {binds}.. }}"),
                            emit_named(fs, |f| f.to_string()),
                        )
                    }
                });
            }
            (name, format!("match self {{\n{arms}}}\n"))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n fn emit<__E: ::serde::Emitter + ?::std::marker::Sized>(&self, __out: &mut __E) {{\n{body}}}\n}}"
    )
}

/// `pull` of one value from the source the generated method names `__src`.
const PULL: &str = "::serde::Deserialize::pull(__src)?";

/// Reads a struct into `path { … }`, from either spelling. By position: an
/// array of exactly the non-skipped fields, in declaration order. By name:
/// an object, in one pass over its keys — fields in any order, the first of
/// duplicate keys wins, unknown keys are skipped (and validated), a field
/// that never came is `missing_field`; keys are compared as `&str`, never
/// allocated. A `#[serde(skip)]` field is `Default` either way.
fn pull_named(ty: &str, path: &str, fs: &[NamedField]) -> String {
    let mut slots = String::new();
    let mut arms = String::new();
    let mut inits = String::new();
    let mut positional = String::new();
    let mut kept = 0usize;
    for f in fs {
        let field = &f.name;
        if f.skip {
            let default = format!("{field}: ::std::default::Default::default(),\n");
            inits.push_str(&default);
            positional.push_str(&default);
            continue;
        }
        kept += 1;
        positional.push_str(&format!("{field}: {PULL},\n"));
        slots.push_str(&format!(
            "let mut __f_{field} = ::std::option::Option::None;\n"
        ));
        arms.push_str(&format!(
            "{field:?} if __f_{field}.is_none() => __f_{field} = ::std::option::Option::Some({PULL}),\n"
        ));
        inits.push_str(&format!(
            "{field}: __f_{field}.ok_or_else(|| ::serde::Error::missing_field({ty:?}, {field:?}))?,\n"
        ));
    }
    let count = format!("array of {kept} fields");
    format!(
        "match ::serde::Source::next(__src)? {{\n ::serde::Head::Array({kept}) => Ok({path} {{ {positional} }}),\n ::serde::Head::Array(_) => Err(::serde::Error::expected({count:?}, {ty:?})),\n ::serde::Head::Object(__len) => {{\n{slots}for _ in 0..__len {{\n match ::serde::Source::key(__src)? {{\n{arms} _ => ::serde::Source::skip(__src)?,\n }}\n }}\n Ok({path} {{ {inits} }})\n }}\n _ => Err(::serde::Error::expected(\"array or object\", {ty:?})),\n}}"
    )
}

/// Reads `n` values into `path(…)`: one transparently, several from an
/// array that may run longer (the rest is skipped) but not shorter.
fn pull_tuple(ty: &str, path: &str, n: usize) -> String {
    if n == 1 {
        return format!("Ok({path}({PULL}))");
    }
    let items = vec![PULL; n].join(", ");
    format!(
        "match ::serde::Source::next(__src)? {{\n ::serde::Head::Array(__len) if __len >= {n} => {{\n let __v = {path}({items});\n for _ in {n}..__len {{ ::serde::Source::skip(__src)?; }}\n Ok(__v)\n }}\n ::serde::Head::Array(_) => Err(::serde::Error::expected(\"longer array\", {ty:?})),\n _ => Err(::serde::Error::expected(\"array\", {ty:?})),\n}}"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Named(fs) => pull_named(name, name, fs),
                Fields::Tuple(n) => pull_tuple(name, name, *n),
                // Whatever a unit struct was written as, it reads back.
                Fields::Unit => format!("::serde::Source::skip(__src)?;\nOk({name})"),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            // By index: `i` for a unit variant, `[i, payload]` for the rest.
            // By name: `"V"` for a unit variant, `{"V": payload}` for the
            // rest. A unit variant tolerates the payload form, whatever the
            // payload holds.
            let (mut unit_indices, mut unit_names) = (String::new(), String::new());
            let (mut indices, mut payloads) = (String::new(), String::new());
            for (index, v) in variants.iter().enumerate() {
                let vn = &v.name;
                let path = format!("{name}::{vn}");
                let payload = match &v.fields {
                    Fields::Unit => {
                        unit_indices.push_str(&format!("{index} => Ok({path}),\n"));
                        unit_names.push_str(&format!("{vn:?} => Ok({path}),\n"));
                        format!("{{ ::serde::Source::skip(__src)?; Ok({path}) }}")
                    }
                    Fields::Tuple(n) => pull_tuple(name, &path, *n),
                    Fields::Named(fs) => pull_named(name, &path, fs),
                };
                indices.push_str(&format!("{vn:?} => {index}u64,\n"));
                payloads.push_str(&format!("{index} => {payload},\n"));
            }
            let unknown_index =
                format!("__i => Err(::serde::Error::unknown_variant({name:?}, &__i.to_string())),");
            let unknown_name =
                format!("__tag => Err(::serde::Error::unknown_variant({name:?}, __tag)),");
            // A payload variant is read in one place, whichever way its
            // head named it.
            let body = format!(
                "let __i = match ::serde::Source::next(__src)? {{\n ::serde::Head::U64(__i) => return match __i {{\n{unit_indices} {unknown_index}\n }},\n ::serde::Head::Str(__tag) => return match __tag {{\n{unit_names} {unknown_name}\n }},\n ::serde::Head::Array(2) => <u64 as ::serde::Deserialize>::pull(__src)?,\n ::serde::Head::Object(1) => match ::serde::Source::key(__src)? {{\n{indices} __tag => return Err(::serde::Error::unknown_variant({name:?}, __tag)),\n }},\n _ => return Err(::serde::Error::expected(\"variant index, string or single-key object\", {name:?})),\n}};\nmatch __i {{\n{payloads} {unknown_index}\n}}"
            );
            (name, body)
        }
    };
    format!(
        "impl ::serde::Deserialize for {name} {{\n fn pull<__S: ::serde::Source + ?::std::marker::Sized>(__src: &mut __S) -> ::std::result::Result<Self, ::serde::Error> {{\n{body}\n}}\n}}"
    )
}
