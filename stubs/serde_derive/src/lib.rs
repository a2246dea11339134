//! Offline stand-in for `serde_derive`.
//!
//! The build environment has no access to crates.io, so the workspace vendors
//! a minimal replacement for serde's `Serialize` derive macro.
//! `#[derive(Serialize)]` generates a real implementation of the vendored
//! `serde::Serialize` trait (tree-structured `serde::Value` output,
//! externally tagged enums, newtype unwrapping — mirroring serde's default
//! representation closely enough for the JSON reports the bench harness
//! emits). There is no read-side derive: no code in this workspace parses
//! JSON into a typed value.
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
    let body = match &item.body {
        Body::UnitStruct => "::serde::Value::Null".to_string(),
        Body::TupleStruct(1) => "::serde::Serialize::serialize(&self.0)".to_string(),
        Body::TupleStruct(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::serialize(&self.{i})"))
                .collect();
            format!("::serde::Value::Array(vec![{}])", elems.join(", "))
        }
        Body::NamedStruct(fields) => {
            let entries: Vec<String> = fields
                .iter()
                .map(|f| format!("(String::from({f:?}), ::serde::Serialize::serialize(&self.{f}))"))
                .collect();
            format!("::serde::Value::Object(vec![{}])", entries.join(", "))
        }
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vname = &v.name;
                    match &v.fields {
                        VariantFields::Unit => format!(
                            "{name}::{vname} => ::serde::Value::String(String::from({vname:?}))"
                        ),
                        VariantFields::Tuple(1) => format!(
                            "{name}::{vname}(f0) => ::serde::Value::Object(vec![(String::from({vname:?}), ::serde::Serialize::serialize(f0))])"
                        ),
                        VariantFields::Tuple(n) => {
                            let binds: Vec<String> =
                                (0..*n).map(|i| format!("f{i}")).collect();
                            let elems: Vec<String> = binds
                                .iter()
                                .map(|b| format!("::serde::Serialize::serialize({b})"))
                                .collect();
                            format!(
                                "{name}::{vname}({}) => ::serde::Value::Object(vec![(String::from({vname:?}), ::serde::Value::Array(vec![{}]))])",
                                binds.join(", "),
                                elems.join(", ")
                            )
                        }
                        VariantFields::Named(fields) => {
                            let binds = fields.join(", ");
                            let entries: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "(String::from({f:?}), ::serde::Serialize::serialize({f}))"
                                    )
                                })
                                .collect();
                            format!(
                                "{name}::{vname} {{ {binds} }} => ::serde::Value::Object(vec![(String::from({vname:?}), ::serde::Value::Object(vec![{}]))])",
                                entries.join(", ")
                            )
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(", "))
        }
    };
    format!(
        "impl ::serde::Serialize for {name} {{\n\
             fn serialize(&self) -> ::serde::Value {{ {body} }}\n\
         }}"
    )
}
