//! Offline stand-in for `serde_derive`.
//!
//! Emits `Serialize` / `Deserialize` impls against the vendored `serde`
//! shim. `Serialize` gets its one method, `serialize`, which writes the
//! value into a `serde::Writer`: one body per type gives both compact and
//! pretty text, and field and variant names go in as pre-quoted string
//! literals, so only run-time keys pass through the escaper.
//! `Deserialize` gets `from_value`, which reads a parsed `Value` tree.
//! The parser walks the raw `proc_macro::TokenStream` directly (no
//! `syn`/`quote`, which are unavailable offline) and supports exactly what
//! this workspace derives on:
//!
//! - structs with named fields,
//! - enums with unit, tuple, and struct variants (externally tagged,
//!   matching serde's default representation),
//! - the field attributes `#[serde(skip)]`, `#[serde(default)]`, and
//!   `#[serde(skip_serializing_if = "Option::is_none")]` (only that
//!   predicate, on `Option` fields),
//! - `Option<T>` fields tolerating a missing key (as in real serde).
//!
//! Generic types, tuple structs, and renaming attributes are
//! intentionally unsupported and panic with a clear message.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// One parsed named field.
struct Field {
    name: String,
    skip: bool,
    default: bool,
    /// `skip_serializing_if = "Option::is_none"`: omit the key when the
    /// `Option` field is `None` (the only supported predicate).
    skip_if_none: bool,
    is_option: bool,
}

/// One parsed enum variant.
struct Variant {
    name: String,
    kind: VariantKind,
}

enum VariantKind {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

enum Parsed {
    Struct {
        name: String,
        fields: Vec<Field>,
    },
    Enum {
        name: String,
        variants: Vec<Variant>,
    },
}

/// Scan one attribute token group (the `[...]` after `#`) for
/// `serde(skip)` / `serde(default)` / `serde(skip_serializing_if = ...)`
/// markers.
fn scan_attr(
    group: &proc_macro::Group,
    skip: &mut bool,
    default: &mut bool,
    skip_if_none: &mut bool,
) {
    let mut iter = group.stream().into_iter();
    let Some(TokenTree::Ident(name)) = iter.next() else {
        return;
    };
    if name.to_string() != "serde" {
        return;
    }
    let Some(TokenTree::Group(args)) = iter.next() else {
        return;
    };
    let mut toks = args.stream().into_iter().peekable();
    while let Some(tok) = toks.next() {
        if let TokenTree::Ident(i) = tok {
            match i.to_string().as_str() {
                "skip" => *skip = true,
                "default" => *default = true,
                "skip_serializing_if" => {
                    match toks.next() {
                        Some(TokenTree::Punct(p)) if p.as_char() == '=' => {}
                        other => panic!(
                            "serde shim derive: expected `=` after \
                             `skip_serializing_if`, found {other:?}"
                        ),
                    }
                    match toks.next() {
                        Some(TokenTree::Literal(l)) if l.to_string() == "\"Option::is_none\"" => {
                            *skip_if_none = true;
                        }
                        other => panic!(
                            "serde shim derive: the only supported \
                             skip_serializing_if predicate is \
                             \"Option::is_none\", found {other:?}"
                        ),
                    }
                }
                other => panic!("serde shim derive: unsupported serde attribute `{other}`"),
            }
        }
    }
}

/// Parse the fields of a named-field body (`{ ... }`).
fn parse_named_fields(body: proc_macro::Group) -> Vec<Field> {
    let mut fields = Vec::new();
    let mut toks = body.stream().into_iter().peekable();
    loop {
        let mut skip = false;
        let mut default = false;
        let mut skip_if_none = false;
        // Leading attributes (doc comments included).
        loop {
            match toks.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    toks.next();
                    match toks.next() {
                        Some(TokenTree::Group(g)) => {
                            scan_attr(&g, &mut skip, &mut default, &mut skip_if_none)
                        }
                        other => panic!("serde shim derive: malformed attribute near {other:?}"),
                    }
                }
                _ => break,
            }
        }
        // Optional visibility.
        if let Some(TokenTree::Ident(i)) = toks.peek() {
            if i.to_string() == "pub" {
                toks.next();
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next();
                    }
                }
            }
        }
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("serde shim derive: expected field name, found {other:?}"),
        };
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => panic!("serde shim derive: expected `:` after `{name}`, found {other:?}"),
        }
        // Consume the type up to a top-level comma, tracking angle depth
        // so `HashMap<K, V>` commas don't split the field.
        let mut angle_depth = 0usize;
        let mut first_type_tok: Option<String> = None;
        for tok in toks.by_ref() {
            match &tok {
                TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    angle_depth = angle_depth.saturating_sub(1)
                }
                TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => break,
                _ => {}
            }
            if first_type_tok.is_none() {
                first_type_tok = Some(tok.to_string());
            }
        }
        let is_option = first_type_tok.as_deref() == Some("Option");
        if skip_if_none && !is_option {
            panic!(
                "serde shim derive: skip_serializing_if = \"Option::is_none\" \
                 requires an Option field (`{name}` is not)"
            );
        }
        fields.push(Field {
            name,
            skip,
            default,
            skip_if_none,
            is_option,
        });
    }
    fields
}

/// Count the arity of a tuple-variant body (`( ... )`).
fn tuple_arity(body: proc_macro::Group) -> usize {
    let mut angle_depth = 0usize;
    let mut arity = 0usize;
    let mut saw_tok = false;
    for tok in body.stream() {
        match &tok {
            TokenTree::Punct(p) if p.as_char() == '<' => angle_depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => {
                angle_depth = angle_depth.saturating_sub(1)
            }
            TokenTree::Punct(p) if p.as_char() == ',' && angle_depth == 0 => {
                arity += 1;
                saw_tok = false;
                continue;
            }
            _ => {}
        }
        saw_tok = true;
    }
    if saw_tok {
        arity += 1;
    }
    arity
}

fn parse_variants(body: proc_macro::Group) -> Vec<Variant> {
    let mut variants = Vec::new();
    let mut toks = body.stream().into_iter().peekable();
    loop {
        // Skip attributes.
        loop {
            match toks.peek() {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    toks.next();
                    toks.next();
                }
                _ => break,
            }
        }
        let name = match toks.next() {
            Some(TokenTree::Ident(i)) => i.to_string(),
            None => break,
            other => panic!("serde shim derive: expected variant name, found {other:?}"),
        };
        let kind = match toks.peek() {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                let g = match toks.next() {
                    Some(TokenTree::Group(g)) => g,
                    _ => unreachable!(),
                };
                VariantKind::Tuple(tuple_arity(g))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                let g = match toks.next() {
                    Some(TokenTree::Group(g)) => g,
                    _ => unreachable!(),
                };
                VariantKind::Struct(parse_named_fields(g))
            }
            _ => VariantKind::Unit,
        };
        variants.push(Variant { name, kind });
        // Consume the separating comma, if any.
        if let Some(TokenTree::Punct(p)) = toks.peek() {
            if p.as_char() == ',' {
                toks.next();
            } else if p.as_char() == '=' {
                panic!("serde shim derive: explicit discriminants are unsupported");
            }
        }
    }
    variants
}

fn parse_input(input: TokenStream) -> Parsed {
    let mut toks = input.into_iter().peekable();
    // Skip outer attributes and visibility.
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                toks.next();
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                toks.next();
                if let Some(TokenTree::Group(g)) = toks.peek() {
                    if g.delimiter() == Delimiter::Parenthesis {
                        toks.next();
                    }
                }
            }
            _ => break,
        }
    }
    let kind = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde shim derive: expected `struct` or `enum`, found {other:?}"),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => panic!("serde shim derive: expected type name, found {other:?}"),
    };
    if let Some(TokenTree::Punct(p)) = toks.peek() {
        if p.as_char() == '<' {
            panic!("serde shim derive: generic types are unsupported (derive on `{name}`)");
        }
    }
    let body = match toks.next() {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => g,
        other => panic!(
            "serde shim derive: expected a braced body for `{name}` \
             (tuple/unit structs are unsupported), found {other:?}"
        ),
    };
    match kind.as_str() {
        "struct" => Parsed::Struct {
            name,
            fields: parse_named_fields(body),
        },
        "enum" => Parsed::Enum {
            name,
            variants: parse_variants(body),
        },
        other => panic!("serde shim derive: cannot derive for `{other}`"),
    }
}

// ---------------------------------------------------------------------
// Code generation.
// ---------------------------------------------------------------------

fn gen_struct_serialize(name: &str, fields: &[Field], out: &mut String) {
    let entries = fields.iter().filter(|f| !f.skip);
    let body =
        gen_write_object(entries.map(|f| (&f.name, format!("&self.{}", f.name), f.skip_if_none)));
    out.push_str(&format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self, __w: &mut ::serde::Writer<'_>) {{\n{body}}}\n}}\n"
    ));
}

/// Code writing into `__w` a JSON object of `(key, expression, omitted
/// when None)` entries.
fn gen_write_object<'a>(entries: impl Iterator<Item = (&'a String, String, bool)>) -> String {
    let mut code = String::from("__w.open('{');\n");
    for (key, expr, optional) in entries {
        let write =
            format!("__w.key(\"\\\"{key}\\\":\");\n::serde::Serialize::serialize({expr}, __w);\n");
        if optional {
            code += &format!("if !::std::option::Option::is_none({expr}) {{\n{write}}}\n");
        } else {
            code += &write;
        }
    }
    code + "__w.close('}');\n"
}

/// The expression for one missing field during struct deserialization.
fn missing_expr(ty_name: &str, f: &Field) -> String {
    if f.skip || f.default {
        "::std::default::Default::default()".to_string()
    } else if f.is_option {
        "::std::option::Option::None".to_string()
    } else {
        format!(
            "return ::std::result::Result::Err(::serde::Error::custom(\
             \"{ty_name}: missing field `{}`\"))",
            f.name
        )
    }
}

fn gen_field_reads(ty_name: &str, source: &str, fields: &[Field], out: &mut String) {
    for f in fields {
        let fname = &f.name;
        if f.skip {
            out.push_str(&format!("{fname}: ::std::default::Default::default(),\n"));
            continue;
        }
        out.push_str(&format!(
            "{fname}: match {source}.get(\"{fname}\") {{\n\
             ::std::option::Option::Some(v) => ::serde::Deserialize::from_value(v)?,\n\
             ::std::option::Option::None => {{ {} }}\n\
             }},\n",
            missing_expr(ty_name, f)
        ));
    }
}

fn gen_struct_deserialize(name: &str, fields: &[Field], out: &mut String) {
    out.push_str(&format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         let obj = match value.as_object() {{\n\
         ::std::option::Option::Some(m) => m,\n\
         ::std::option::Option::None => return ::std::result::Result::Err(\
         ::serde::Error::custom(\"{name}: expected object\")),\n\
         }};\n\
         ::std::result::Result::Ok({name} {{\n"
    ));
    gen_field_reads(name, "obj", fields, out);
    out.push_str("})\n}\n}\n");
}

fn gen_enum_serialize(name: &str, variants: &[Variant], out: &mut String) {
    out.push_str(&format!(
        "impl ::serde::Serialize for {name} {{\n\
         fn serialize(&self, __w: &mut ::serde::Writer<'_>) {{\n\
         match self {{\n"
    ));
    // A unit variant is its name, any other a one-key object around its
    // payload. A struct variant writes every field, `None` included:
    // `skip_serializing_if` applies to struct fields only.
    for v in variants {
        let vname = &v.name;
        let (pattern, payload) = match &v.kind {
            VariantKind::Unit => {
                out.push_str(&format!(
                    "{name}::{vname} => __w.raw(\"\\\"{vname}\\\"\"),\n"
                ));
                continue;
            }
            VariantKind::Tuple(n) => {
                let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                let payload = match n {
                    1 => "::serde::Serialize::serialize(__f0, __w);\n".to_string(),
                    _ => {
                        let items: String = binds
                            .iter()
                            .map(|b| {
                                format!("__w.item();\n::serde::Serialize::serialize({b}, __w);\n")
                            })
                            .collect();
                        format!("__w.open('[');\n{items}__w.close(']');\n")
                    }
                };
                (format!("({})", binds.join(", ")), payload)
            }
            VariantKind::Struct(fields) => {
                let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                let entries = fields.iter().map(|f| (&f.name, f.name.clone(), false));
                (
                    format!(" {{ {} }}", binds.join(", ")),
                    gen_write_object(entries),
                )
            }
        };
        out.push_str(&format!(
            "{name}::{vname}{pattern} => {{\n\
             __w.open('{{');\n__w.key(\"\\\"{vname}\\\":\");\n\
             {payload}__w.close('}}');\n}}\n"
        ));
    }
    out.push_str("}\n}\n}\n");
}

fn gen_enum_deserialize(name: &str, variants: &[Variant], out: &mut String) {
    out.push_str(&format!(
        "impl ::serde::Deserialize for {name} {{\n\
         fn from_value(value: &::serde::Value) -> ::std::result::Result<Self, ::serde::Error> {{\n\
         if let ::std::option::Option::Some(s) = value.as_str() {{\n\
         return match s {{\n"
    ));
    for v in variants {
        if matches!(v.kind, VariantKind::Unit) {
            let vname = &v.name;
            out.push_str(&format!(
                "\"{vname}\" => ::std::result::Result::Ok({name}::{vname}),\n"
            ));
        }
    }
    out.push_str(&format!(
        "_ => ::std::result::Result::Err(::serde::Error::custom(\
         \"{name}: unknown variant\")),\n\
         }};\n\
         }}\n\
         let obj = match value.as_object() {{\n\
         ::std::option::Option::Some(m) if m.len() == 1 => m,\n\
         _ => return ::std::result::Result::Err(::serde::Error::custom(\
         \"{name}: expected variant string or single-key object\")),\n\
         }};\n\
         let (key, inner) = match obj.iter().next() {{\n\
         ::std::option::Option::Some((k, v)) => (k.as_str(), v),\n\
         ::std::option::Option::None => unreachable!(),\n\
         }};\n\
         match key {{\n"
    ));
    for v in variants {
        let vname = &v.name;
        match &v.kind {
            VariantKind::Unit => {}
            VariantKind::Tuple(1) => {
                out.push_str(&format!(
                    "\"{vname}\" => ::std::result::Result::Ok(\
                     {name}::{vname}(::serde::Deserialize::from_value(inner)?)),\n"
                ));
            }
            VariantKind::Tuple(n) => {
                let elems: Vec<String> = (0..*n)
                    .map(|i| format!("::serde::Deserialize::from_value(&arr[{i}])?"))
                    .collect();
                out.push_str(&format!(
                    "\"{vname}\" => {{\n\
                     let arr = match inner.as_array() {{\n\
                     ::std::option::Option::Some(a) if a.len() == {n} => a,\n\
                     _ => return ::std::result::Result::Err(::serde::Error::custom(\
                     \"{name}::{vname}: expected {n}-element array\")),\n\
                     }};\n\
                     ::std::result::Result::Ok({name}::{vname}({}))\n}}\n",
                    elems.join(", ")
                ));
            }
            VariantKind::Struct(fields) => {
                out.push_str(&format!(
                    "\"{vname}\" => {{\n\
                     let vobj = match inner.as_object() {{\n\
                     ::std::option::Option::Some(m) => m,\n\
                     _ => return ::std::result::Result::Err(::serde::Error::custom(\
                     \"{name}::{vname}: expected object\")),\n\
                     }};\n\
                     ::std::result::Result::Ok({name}::{vname} {{\n"
                ));
                gen_field_reads(name, "vobj", fields, out);
                out.push_str("})\n}\n");
            }
        }
    }
    out.push_str(&format!(
        "_ => ::std::result::Result::Err(::serde::Error::custom(\
         \"{name}: unknown variant\")),\n\
         }}\n}}\n}}\n"
    ));
}

/// Derive `Serialize`: one `serialize` body writing into a `serde::Writer`.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let mut out = String::new();
    match parse_input(input) {
        Parsed::Struct { name, fields } => gen_struct_serialize(&name, &fields, &mut out),
        Parsed::Enum { name, variants } => gen_enum_serialize(&name, &variants, &mut out),
    }
    out.parse()
        .expect("serde shim derive: generated Serialize impl must parse")
}

/// Derive `Deserialize`: `from_value` over a parsed `serde::Value` tree.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let mut out = String::new();
    match parse_input(input) {
        Parsed::Struct { name, fields } => gen_struct_deserialize(&name, &fields, &mut out),
        Parsed::Enum { name, variants } => gen_enum_deserialize(&name, &variants, &mut out),
    }
    out.parse()
        .expect("serde shim derive: generated Deserialize impl must parse")
}
