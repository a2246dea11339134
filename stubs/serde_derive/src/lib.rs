//! Offline stand-in for `serde_derive`.
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! a minimal replacement for serde's `Serialize` derive macro.
//! `#[derive(Serialize)]` generates a real implementation of the vendored
//! `serde::Serialize` trait: a `serialize` that streams the value's JSON
//! tokens into a `serde::Serializer` with no intermediate tree (externally
//! tagged enums, newtype unwrapping — mirroring serde's default
//! representation closely enough for the JSON reports the bench harness
//! emits), and an `is_json_string` override for unit variants and
//! newtypes, which map serialization reads to choose between an object and
//! `[key, value]` pairs. There is no read-side derive: no code in this
//! workspace parses JSON into a typed value.
//!
//! Supported shapes: non-generic structs (named, tuple, unit) and non-generic
//! enums with unit, tuple and struct variants. Generic types are rejected
//! with a compile error pointing here.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives the vendored `serde::Serialize` trait.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let item = match parse_item(input) {
        Ok(item) => item,
        Err(msg) => return compile_error(&msg),
    };
    generate_impl(&item).parse().expect("generated impl parses")
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("valid error")
}

enum Body {
    NamedStruct(Vec<String>),
    TupleStruct(usize),
    UnitStruct,
    Enum(Vec<Variant>),
}

struct Variant {
    name: String,
    fields: VariantFields,
}

enum VariantFields {
    Unit,
    Tuple(usize),
    Named(Vec<String>),
}

struct Item {
    name: String,
    body: Body,
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;

    // Skip outer attributes and visibility.
    loop {
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if let Some(TokenTree::Group(g)) = tokens.get(i) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        i += 1;
                    }
                }
            }
            _ => break,
        }
    }

    let kind = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected struct/enum, found {other:?}")),
    };
    i += 1;
    let name = match tokens.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    i += 1;
    if let Some(TokenTree::Punct(p)) = tokens.get(i) {
        if p.as_char() == '<' {
            return Err(format!(
                "vendored serde_derive does not support generic type `{name}`"
            ));
        }
    }

    let body = match kind.as_str() {
        "struct" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::NamedStruct(parse_named_fields(g.stream(), true)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::TupleStruct(count_top_level_fields(g.stream()))
            }
            Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::UnitStruct,
            other => return Err(format!("unexpected struct body: {other:?}")),
        },
        "enum" => match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream())?)
            }
            other => return Err(format!("unexpected enum body: {other:?}")),
        },
        other => return Err(format!("expected struct or enum, found `{other}`")),
    };
    Ok(Item { name, body })
}

/// Parses `name: Type, ...` field lists, tolerating attributes and (when
/// `allow_vis` is set) `pub` / `pub(...)` visibility qualifiers.
fn parse_named_fields(stream: TokenStream, allow_vis: bool) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Skip field attributes (doc comments arrive as `#[doc = ...]`).
        while matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        if allow_vis {
            if let Some(TokenTree::Ident(id)) = tokens.get(i) {
                if id.to_string() == "pub" {
                    i += 1;
                    if let Some(TokenTree::Group(g)) = tokens.get(i) {
                        if g.delimiter() == Delimiter::Parenthesis {
                            i += 1;
                        }
                    }
                }
            }
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("expected field name, found {other:?}")),
        };
        i += 1;
        match tokens.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => i += 1,
            other => return Err(format!("expected `:` after `{name}`, found {other:?}")),
        }
        // Skip the type, tracking `<...>` nesting so commas inside generic
        // arguments are not mistaken for field separators.
        let mut angle_depth = 0_i32;
        while let Some(tok) = tokens.get(i) {
            if let TokenTree::Punct(p) = tok {
                match p.as_char() {
                    '<' => angle_depth += 1,
                    '>' => angle_depth -= 1,
                    ',' if angle_depth == 0 => break,
                    _ => {}
                }
            }
            i += 1;
        }
        i += 1; // past the comma (or the end)
        fields.push(name);
    }
    Ok(fields)
}

/// Counts top-level comma-separated fields of a tuple struct/variant body.
fn count_top_level_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle_depth = 0_i32;
    for (idx, tok) in tokens.iter().enumerate() {
        if let TokenTree::Punct(p) = tok {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                // A trailing comma does not start another field.
                ',' if angle_depth == 0 && idx + 1 < tokens.len() => count += 1,
                _ => {}
            }
        }
    }
    count
}

fn parse_variants(stream: TokenStream) -> Result<Vec<Variant>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        while matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            None => break,
            other => return Err(format!("expected variant name, found {other:?}")),
        };
        i += 1;
        let fields = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantFields::Named(parse_named_fields(g.stream(), false)?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantFields::Tuple(count_top_level_fields(g.stream()))
            }
            _ => VariantFields::Unit,
        };
        // Skip an optional `= discriminant` and the trailing comma.
        while let Some(tok) = tokens.get(i) {
            if matches!(tok, TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
        variants.push(Variant { name, fields });
    }
    Ok(variants)
}

fn generate_impl(item: &Item) -> String {
    let name = &item.name;
    // Calls on the serializer `__s`, a name no field binding can shadow.
    let field = |key: &str, value: &str| format!("__s.entry({key:?}, {value});");
    let element = |value: &str| format!("__s.element({value});");
    let mut is_json_string = String::new();
    let body = match &item.body {
        Body::UnitStruct => "__s.null();".to_string(),
        Body::TupleStruct(1) => {
            is_json_string = "::serde::Serialize::is_json_string(&self.0)".to_string();
            "::serde::Serialize::serialize(&self.0, __s);".to_string()
        }
        Body::TupleStruct(n) => {
            let elems: String = (0..*n).map(|i| element(&format!("&self.{i}"))).collect();
            format!("__s.begin_array(); {elems} __s.end_array();")
        }
        Body::NamedStruct(fields) => {
            let entries: String = fields
                .iter()
                .map(|f| field(f, &format!("&self.{f}")))
                .collect();
            format!("__s.begin_object(); {entries} __s.end_object();")
        }
        Body::Enum(variants) => {
            let units: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.fields, VariantFields::Unit))
                .map(|v| format!("Self::{}", v.name))
                .collect();
            if !units.is_empty() {
                is_json_string = format!("matches!(self, {})", units.join(" | "));
            }
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.fields {
                        VariantFields::Unit => format!("Self::{vname} => __s.str({vname:?}),"),
                        VariantFields::Tuple(1) => format!(
                            "Self::{vname}(f0) => {{ __s.begin_object(); {} __s.end_object(); }}",
                            field(vname, "f0")
                        ),
                        VariantFields::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("f{i}")).collect();
                            let elems: String = binds.iter().map(|b| element(b)).collect();
                            format!(
                                "Self::{vname}({}) => {{ __s.begin_object(); __s.key({vname:?}); \
                                 __s.begin_array(); {elems} __s.end_array(); __s.end_object(); }}",
                                binds.join(", ")
                            )
                        }
                        VariantFields::Named(fields) => {
                            let entries: String = fields.iter().map(|f| field(f, f)).collect();
                            format!(
                                "Self::{vname} {{ {} }} => {{ __s.begin_object(); __s.key({vname:?}); \
                                 __s.begin_object(); {entries} __s.end_object(); __s.end_object(); }}",
                                fields.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    let is_json_string = if is_json_string.is_empty() {
        String::new()
    } else {
        format!("fn is_json_string(&self) -> bool {{ {is_json_string} }}")
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize<__W: ::core::fmt::Write + ?Sized>(&self, __s: &mut ::serde::Serializer<'_, __W>) {{ {body} }}\n\
             {is_json_string}\n\
         }}"
    )
}
