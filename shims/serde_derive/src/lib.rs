//! Offline stand-in for `serde_derive`.
//!
//! Expands `#[derive(Serialize)]` / `#[derive(Deserialize)]` against the
//! in-tree `serde` shim's value-tree model. The parser walks the raw
//! `proc_macro` token stream (no `syn`/`quote` — the build environment
//! has no crates.io access) and supports the shapes this workspace
//! actually uses: named structs, tuple structs, unit structs, enums with
//! unit/newtype/tuple/struct variants, lifetime-only generics, and these
//! `#[serde(...)]` attributes with upstream semantics:
//!
//! * container `tag = "key"` — an internally tagged enum: each unit or
//!   struct variant serialises as one flat object whose first key holds
//!   the variant name. Serialize only; deriving Deserialize for it is a
//!   compile error.
//! * container `rename_all = "snake_case"` — variant names in snake case,
//!   for Serialize and Deserialize alike. Field names are Rust snake case
//!   already and stay as written.
//! * field `default` — a missing field deserialises as
//!   `Default::default()`.
//! * field `skip_serializing_if = "path"` — the field is left out of the
//!   object when `path(&field)` is true.
//!
//! Any other `serde` attribute is a compile error rather than ignored.

use proc_macro::{Delimiter, TokenStream, TokenTree};

struct Field {
    name: String,
    has_default: bool,
    /// `skip_serializing_if` predicate path.
    skip_if: Option<String>,
}

enum VariantBody {
    Unit,
    Newtype,
    Tuple(usize),
    Named(Vec<Field>),
}

struct Variant {
    name: String,
    /// The serialised name (after `rename_all`).
    key: String,
    body: VariantBody,
}

enum Body {
    Named(Vec<Field>),
    Tuple(usize),
    Unit,
    Enum(Vec<Variant>),
}

struct Input {
    name: String,
    /// Raw generic parameter names, e.g. `["'a"]` or `["T"]`.
    params: Vec<String>,
    body: Body,
    /// Internal tag key (`tag = ".."`).
    tag: Option<String>,
}

/// Derives the shim `serde::Serialize` for a struct or enum.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    gen_serialize(&input)
        .parse()
        .expect("generated Serialize impl parses")
}

/// Derives the shim `serde::Deserialize` for a struct or enum.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let input = parse_input(input);
    gen_deserialize(&input)
        .parse()
        .expect("generated Deserialize impl parses")
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

fn parse_input(ts: TokenStream) -> Input {
    let toks: Vec<TokenTree> = ts.into_iter().collect();
    let mut i = 0;
    let mut tag = None;
    let mut snake = false;

    // Read the container's #[serde] attributes; skip every other outer
    // attribute (doc comments, remaining derives).
    let is_struct = loop {
        match &toks[i] {
            TokenTree::Punct(p) if p.as_char() == '#' => {
                if let TokenTree::Group(g) = &toks[i + 1] {
                    for (key, value) in serde_items(g) {
                        match (key.as_str(), value) {
                            ("tag", Some(v)) => tag = Some(v),
                            ("rename_all", Some(v)) if v == "snake_case" => snake = true,
                            (k, _) => panic!("unsupported container attribute `serde({k})`"),
                        }
                    }
                }
                i += 2;
            }
            TokenTree::Ident(id) if id.to_string() == "pub" => {
                i += 1;
                if matches!(toks.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    i += 1;
                }
            }
            TokenTree::Ident(id) if id.to_string() == "struct" => break true,
            TokenTree::Ident(id) if id.to_string() == "enum" => break false,
            _ => i += 1,
        }
    };
    i += 1;

    let name = toks[i].to_string();
    i += 1;

    // Generic parameter list (lifetimes and plain type params only).
    let mut params = Vec::new();
    if matches!(&toks[i], TokenTree::Punct(p) if p.as_char() == '<') {
        let mut depth = 0i32;
        let mut seg: Vec<&TokenTree> = Vec::new();
        loop {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => {
                    depth += 1;
                    if depth > 1 {
                        seg.push(&toks[i]);
                    }
                }
                TokenTree::Punct(p) if p.as_char() == '>' => {
                    depth -= 1;
                    if depth == 0 {
                        if !seg.is_empty() {
                            params.push(param_name(&seg));
                        }
                        i += 1;
                        break;
                    }
                    seg.push(&toks[i]);
                }
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 1 => {
                    if !seg.is_empty() {
                        params.push(param_name(&seg));
                    }
                    seg.clear();
                }
                t => {
                    if depth >= 1 {
                        seg.push(t);
                    }
                }
            }
            i += 1;
        }
    }

    let body = if is_struct {
        match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                Body::Tuple(count_top_level_segments(g.stream()))
            }
            _ => Body::Unit,
        }
    } else {
        match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                Body::Enum(parse_variants(g.stream(), snake))
            }
            _ => panic!("enum without a body"),
        }
    };

    Input {
        name,
        params,
        body,
        tag,
    }
}

/// Extracts a generic parameter's name from its token segment:
/// `'a`, `T`, `T: Bound`, `const N: usize`.
fn param_name(seg: &[&TokenTree]) -> String {
    match seg[0] {
        TokenTree::Punct(p) if p.as_char() == '\'' => format!("'{}", seg[1]),
        TokenTree::Ident(id) if id.to_string() == "const" => seg[1].to_string(),
        t => t.to_string(),
    }
}

/// The `key` and `key = "value"` items of a `#[serde(...)]` attribute
/// (the bracketed group after `#`); empty for any other attribute.
fn serde_items(g: &proc_macro::Group) -> Vec<(String, Option<String>)> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let inner = match (toks.first(), toks.get(1)) {
        (Some(TokenTree::Ident(id)), Some(TokenTree::Group(inner)))
            if id.to_string() == "serde" =>
        {
            inner.stream()
        }
        _ => return Vec::new(),
    };
    let mut items = Vec::new();
    let mut toks = inner.into_iter().peekable();
    while let Some(key) = toks.next() {
        let mut value = None;
        if matches!(toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            toks.next();
            let lit = toks.next().expect("serde attribute value").to_string();
            value = Some(lit.trim_matches('"').to_string());
        }
        items.push((key.to_string(), value));
        toks.next_if(|t| matches!(t, TokenTree::Punct(p) if p.as_char() == ','));
    }
    items
}

/// Upstream serde's `snake_case` rule for a variant name.
fn snake_case(name: &str) -> String {
    let mut out = String::new();
    for (i, c) in name.char_indices() {
        if i > 0 && c.is_uppercase() {
            out.push('_');
        }
        out.push(c.to_ascii_lowercase());
    }
    out
}

fn parse_named_fields(ts: TokenStream) -> Vec<Field> {
    let toks: Vec<TokenTree> = ts.into_iter().collect();
    let mut i = 0;
    let mut out = Vec::new();
    while i < toks.len() {
        let mut has_default = false;
        let mut skip_if = None;
        while matches!(&toks[i], TokenTree::Punct(p) if p.as_char() == '#') {
            if let Some(TokenTree::Group(g)) = toks.get(i + 1) {
                for (key, value) in serde_items(g) {
                    match (key.as_str(), value) {
                        ("default", None) => has_default = true,
                        ("skip_serializing_if", Some(path)) => skip_if = Some(path),
                        (k, _) => panic!("unsupported field attribute `serde({k})`"),
                    }
                }
            }
            i += 2;
        }
        if i >= toks.len() {
            break;
        }
        if matches!(&toks[i], TokenTree::Ident(id) if id.to_string() == "pub") {
            i += 1;
            if matches!(toks.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        }
        let name = toks[i].to_string();
        i += 2; // name, ':'

        // Skip the type: everything up to the next comma outside angle
        // brackets (parens/brackets/braces arrive as single group tokens).
        let mut depth = 0i32;
        while i < toks.len() {
            match &toks[i] {
                TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
        out.push(Field {
            name,
            has_default,
            skip_if,
        });
    }
    out
}

/// Counts comma-separated segments at the top level of a token stream
/// (i.e. tuple-struct / tuple-variant arity).
fn count_top_level_segments(ts: TokenStream) -> usize {
    let mut depth = 0i32;
    let mut segments = 0usize;
    let mut seen_any = false;
    for t in ts {
        match &t {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && depth == 0 => {
                segments += 1;
                seen_any = false;
                continue;
            }
            _ => {}
        }
        seen_any = true;
    }
    if seen_any {
        segments += 1;
    }
    segments
}

fn parse_variants(ts: TokenStream, snake: bool) -> Vec<Variant> {
    let toks: Vec<TokenTree> = ts.into_iter().collect();
    let mut i = 0;
    let mut out = Vec::new();
    while i < toks.len() {
        while matches!(&toks[i], TokenTree::Punct(p) if p.as_char() == '#') {
            if let Some(TokenTree::Group(g)) = toks.get(i + 1) {
                assert!(
                    serde_items(g).is_empty(),
                    "serde attributes on variants are not supported"
                );
            }
            i += 2;
        }
        if i >= toks.len() {
            break;
        }
        let name = toks[i].to_string();
        i += 1;
        let body = match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantBody::Named(parse_named_fields(g.stream()))
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                match count_top_level_segments(g.stream()) {
                    1 => VariantBody::Newtype,
                    n => VariantBody::Tuple(n),
                }
            }
            _ => VariantBody::Unit,
        };
        // Skip an explicit discriminant (`= expr`) if present.
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
            while i < toks.len() && !matches!(&toks[i], TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
            }
        }
        if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == ',') {
            i += 1;
        }
        let key = if snake {
            snake_case(&name)
        } else {
            name.clone()
        };
        out.push(Variant { name, key, body });
    }
    out
}

// ---------------------------------------------------------------------------
// Code generation
// ---------------------------------------------------------------------------

/// `(impl_generics, ty_generics)` strings, with `bound` added to every
/// plain type parameter on the impl side.
fn generics(input: &Input, bound: &str) -> (String, String) {
    if input.params.is_empty() {
        return (String::new(), String::new());
    }
    let impl_params: Vec<String> = input
        .params
        .iter()
        .map(|p| {
            if p.starts_with('\'') {
                p.clone()
            } else {
                format!("{p}: {bound}")
            }
        })
        .collect();
    (
        format!("<{}>", impl_params.join(", ")),
        format!("<{}>", input.params.join(", ")),
    )
}

/// A `Value::Object` expression: the `(key, name)` tag entry if any,
/// then each field read through `access(field name)`, where a
/// `skip_serializing_if` field is pushed only when its predicate is false.
fn object_expr(
    fields: &[Field],
    tag: Option<(&str, &str)>,
    access: impl Fn(&str) -> String,
) -> String {
    let len = fields.len() + usize::from(tag.is_some());
    let mut code = format!("{{ let mut __o = ::std::vec::Vec::with_capacity({len}); ");
    if let Some((key, name)) = tag {
        code += &format!(
            "__o.push((\"{key}\".to_string(), ::serde::value::Value::String(\"{name}\".to_string()))); "
        );
    }
    for f in fields {
        let value = access(&f.name);
        let push = format!(
            "__o.push((\"{}\".to_string(), ::serde::Serialize::to_value({value}))); ",
            f.name
        );
        code += &match &f.skip_if {
            Some(path) => format!("if !{path}({value}) {{ {push}}} "),
            None => push,
        };
    }
    code + "::serde::value::Value::Object(__o) }"
}

fn gen_serialize(input: &Input) -> String {
    let (ig, tg) = generics(input, "::serde::Serialize");
    let name = &input.name;
    let body = match &input.body {
        _ if input.tag.is_some() && !matches!(input.body, Body::Enum(_)) => {
            panic!("`serde(tag)` applies to enums only")
        }
        Body::Unit => "::serde::value::Value::Null".to_string(),
        Body::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
        Body::Tuple(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Serialize::to_value(&self.{i})"))
                .collect();
            format!("::serde::value::Value::Array(vec![{}])", elems.join(", "))
        }
        Body::Named(fields) => object_expr(fields, None, |f| format!("&self.{f}")),
        Body::Enum(variants) => {
            let arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let sn = &v.key;
                    let tagged = |fields: &[Field]| {
                        let tag = input.tag.as_deref().map(|key| (key, sn.as_str()));
                        object_expr(fields, tag, str::to_string)
                    };
                    match (&v.body, &input.tag) {
                        (VariantBody::Unit, Some(_)) => {
                            format!("{name}::{vn} => {},", tagged(&[]))
                        }
                        (VariantBody::Unit, None) => format!(
                            "{name}::{vn} => ::serde::value::Value::String(\"{sn}\".to_string()),"
                        ),
                        (VariantBody::Newtype | VariantBody::Tuple(_), Some(_)) => {
                            panic!("`serde(tag)` supports unit and struct variants only")
                        }
                        (VariantBody::Newtype, None) => format!(
                            "{name}::{vn}(__f0) => ::serde::value::Value::Object(vec![(\"{sn}\".to_string(), ::serde::Serialize::to_value(__f0))]),"
                        ),
                        (VariantBody::Tuple(n), None) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                            let elems: Vec<String> = (0..*n)
                                .map(|i| format!("::serde::Serialize::to_value(__f{i})"))
                                .collect();
                            format!(
                                "{name}::{vn}({}) => ::serde::value::Value::Object(vec![(\"{sn}\".to_string(), ::serde::value::Value::Array(vec![{}]))]),",
                                binds.join(", "),
                                elems.join(", ")
                            )
                        }
                        (VariantBody::Named(fields), tag) => {
                            let binds: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
                            let object = tagged(fields);
                            let value = match tag {
                                Some(_) => object,
                                None => format!(
                                    "::serde::value::Value::Object(vec![(\"{sn}\".to_string(), {object})])"
                                ),
                            };
                            format!("{name}::{vn} {{ {} }} => {value},", binds.join(", "))
                        }
                    }
                })
                .collect();
            format!("match self {{ {} }}", arms.join(" "))
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl {ig} ::serde::Serialize for {name} {tg} {{\n\
             fn to_value(&self) -> ::serde::value::Value {{ {body} }}\n\
         }}"
    )
}

fn field_extraction(ty_name: &str, fields: &[Field], obj: &str) -> String {
    let inits: Vec<String> = fields
        .iter()
        .map(|f| {
            let fallback = if f.has_default {
                "::std::default::Default::default()".to_string()
            } else {
                format!("::serde::__private::missing_field(\"{ty_name}\", \"{}\")?", f.name)
            };
            format!(
                "{0}: match {obj}.iter().find(|__kv| __kv.0 == \"{0}\") {{\n\
                     ::std::option::Option::Some(__kv) => ::serde::Deserialize::from_value(&__kv.1)?,\n\
                     ::std::option::Option::None => {fallback},\n\
                 }},",
                f.name
            )
        })
        .collect();
    inits.join("\n")
}

fn gen_deserialize(input: &Input) -> String {
    assert!(
        input.tag.is_none(),
        "`serde(tag)` enums derive Serialize only"
    );
    let (ig, tg) = generics(input, "::serde::Deserialize");
    let name = &input.name;
    let body = match &input.body {
        Body::Unit => format!("::std::result::Result::Ok({name})"),
        Body::Tuple(1) => {
            format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(__v)?))")
        }
        Body::Tuple(n) => {
            let elems: Vec<String> = (0..*n)
                .map(|i| format!("::serde::Deserialize::from_value(&__arr[{i}])?"))
                .collect();
            format!(
                "let __arr = __v.as_array().ok_or_else(|| ::serde::value::Error::new(\"expected array for `{name}`\"))?;\n\
                 if __arr.len() != {n} {{ return ::std::result::Result::Err(::serde::value::Error::new(\"wrong arity for `{name}`\")); }}\n\
                 ::std::result::Result::Ok({name}({}))",
                elems.join(", ")
            )
        }
        Body::Named(fields) => {
            let inits = field_extraction(name, fields, "__obj");
            format!(
                "let __obj = __v.as_object().ok_or_else(|| ::serde::value::Error::new(\"expected object for `{name}`\"))?;\n\
                 ::std::result::Result::Ok({name} {{\n{inits}\n}})"
            )
        }
        Body::Enum(variants) => {
            let unit_arms: Vec<String> = variants
                .iter()
                .filter(|v| matches!(v.body, VariantBody::Unit))
                .map(|v| {
                    let sn = &v.key;
                    format!("\"{sn}\" => ::std::result::Result::Ok({name}::{}),", v.name)
                })
                .collect();
            let payload_arms: Vec<String> = variants
                .iter()
                .map(|v| {
                    let vn = &v.name;
                    let sn = &v.key;
                    match &v.body {
                        VariantBody::Unit => format!(
                            "\"{sn}\" => ::std::result::Result::Ok({name}::{vn}),"
                        ),
                        VariantBody::Newtype => format!(
                            "\"{sn}\" => ::std::result::Result::Ok({name}::{vn}(::serde::Deserialize::from_value(__payload)?)),"
                        ),
                        VariantBody::Tuple(n) => {
                            let elems: Vec<String> = (0..*n)
                                .map(|i| {
                                    format!("::serde::Deserialize::from_value(&__arr[{i}])?")
                                })
                                .collect();
                            format!(
                                "\"{sn}\" => {{\n\
                                     let __arr = __payload.as_array().ok_or_else(|| ::serde::value::Error::new(\"expected array for `{name}::{vn}`\"))?;\n\
                                     if __arr.len() != {n} {{ return ::std::result::Result::Err(::serde::value::Error::new(\"wrong arity for `{name}::{vn}`\")); }}\n\
                                     ::std::result::Result::Ok({name}::{vn}({}))\n\
                                 }}",
                                elems.join(", ")
                            )
                        }
                        VariantBody::Named(fields) => {
                            let inits = field_extraction(&format!("{name}::{vn}"), fields, "__vobj");
                            format!(
                                "\"{sn}\" => {{\n\
                                     let __vobj = __payload.as_object().ok_or_else(|| ::serde::value::Error::new(\"expected object for `{name}::{vn}`\"))?;\n\
                                     ::std::result::Result::Ok({name}::{vn} {{\n{inits}\n}})\n\
                                 }}"
                            )
                        }
                    }
                })
                .collect();
            format!(
                "match __v {{\n\
                     ::serde::value::Value::String(__s) => match __s.as_str() {{\n\
                         {}\n\
                         __other => ::std::result::Result::Err(::serde::value::Error::new(format!(\"unknown `{name}` variant {{__other:?}}\"))),\n\
                     }},\n\
                     ::serde::value::Value::Object(__m) if __m.len() == 1 => {{\n\
                         let (__tag, __payload) = &__m[0];\n\
                         match __tag.as_str() {{\n\
                             {}\n\
                             __other => ::std::result::Result::Err(::serde::value::Error::new(format!(\"unknown `{name}` variant {{__other:?}}\"))),\n\
                         }}\n\
                     }}\n\
                     __other => ::std::result::Result::Err(::serde::value::Error::new(format!(\"expected `{name}` variant, got {{__other:?}}\"))),\n\
                 }}",
                unit_arms.join("\n"),
                payload_arms.join("\n")
            )
        }
    };
    format!(
        "#[automatically_derived]\n\
         impl {ig} ::serde::Deserialize for {name} {tg} {{\n\
             fn from_value(__v: &::serde::value::Value) -> ::std::result::Result<Self, ::serde::value::Error> {{\n\
                 {body}\n\
             }}\n\
         }}"
    )
}
