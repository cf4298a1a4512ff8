//! The derive's `skip_serializing_if`, `tag` and `rename_all` attributes,
//! rendered to JSON text.

use serde::{Deserialize, Serialize};

fn is_zero(n: &u32) -> bool {
    *n == 0
}

#[derive(Serialize)]
struct Sparse {
    #[serde(skip_serializing_if = "Option::is_none")]
    note: Option<String>,
    #[serde(skip_serializing_if = "is_zero")]
    count: u32,
    always: Option<u32>,
}

#[test]
fn skipped_field_is_left_out_only_when_its_predicate_holds() {
    let render = |note: Option<&str>, count| {
        serde_json::to_string(&Sparse {
            note: note.map(str::to_string),
            count,
            always: None,
        })
        .unwrap()
    };
    assert_eq!(render(None, 0), r#"{"always":null}"#);
    assert_eq!(render(Some("x"), 0), r#"{"note":"x","always":null}"#);
    assert_eq!(render(None, 3), r#"{"count":3,"always":null}"#);
    assert_eq!(
        render(Some(""), 1),
        r#"{"note":"","count":1,"always":null}"#
    );
}

#[derive(Serialize)]
#[serde(tag = "type", rename_all = "snake_case")]
enum Tagged {
    Ping,
    HttpGet { path: String },
}

#[test]
fn internally_tagged_variants_are_flat_objects() {
    assert_eq!(
        serde_json::to_string(&Tagged::Ping).unwrap(),
        r#"{"type":"ping"}"#
    );
    let get = Tagged::HttpGet { path: "/".into() };
    assert_eq!(
        serde_json::to_string(&get).unwrap(),
        r#"{"type":"http_get","path":"/"}"#
    );
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
enum Renamed {
    OneWord,
    Newtype(u32),
    Named { x: u32 },
}

#[test]
fn rename_all_applies_to_both_directions() {
    for (v, json) in [
        (Renamed::OneWord, r#""one_word""#),
        (Renamed::Newtype(4), r#"{"newtype":4}"#),
        (Renamed::Named { x: 1 }, r#"{"named":{"x":1}}"#),
    ] {
        assert_eq!(serde_json::to_string(&v).unwrap(), json);
        assert_eq!(serde_json::from_str::<Renamed>(json).unwrap(), v);
    }
    assert!(serde_json::from_str::<Renamed>(r#""OneWord""#).is_err());
}
